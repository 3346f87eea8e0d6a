//! The machine under the benchmark: CPU pinning, the process's own
//! memory high-water mark, and three canaries (loopback round trip,
//! a spin loop, a 4 KiB fsync) that are the floor under every wire and
//! checkpoint number and move only when the machine does.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use crate::stats::percentile;

/// `/proc/self/status` field, e.g. `VmHWM` or `Cpus_allowed_list`.
fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key == name).then(|| value.trim().to_string())
    })
}

/// The CPUs this process may run on, as the kernel lists them
/// (`0`, `0-1`, `0,2-3` …), expanded.
pub fn cpus_allowed() -> Vec<usize> {
    let list = status_field("Cpus_allowed_list").unwrap_or_default();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pins the whole process (threads spawned later inherit the mask) to
/// the first CPU it is allowed on, and verifies it from
/// `/proc/self/status`. Server and load generator then share one CPU,
/// so a closed-loop round trip is client work + server work + the
/// kernel's loopback floor, not the hypervisor's cross-CPU wake-up.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let first = *cpus_allowed()
        .first()
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    let mut mask = [0u64; 16];
    if first >= mask.len() * 64 {
        return Err(format!("cpu {first} is beyond the affinity mask"));
    }
    mask[first / 64] = 1 << (first % 64);
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes that the kernel only reads; pid 0 names the calling thread,
    // which at this point is the process's only thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    match cpus_allowed().as_slice() {
        [only] if *only == first => Ok(first),
        other => Err(format!("pinning did not take: allowed on {other:?}")),
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median round trip of a 64-byte echo over loopback TCP against the
/// ledger's own echo thread, microseconds.
pub fn loopback_rtt_p50_us(rounds: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        while stream.read_exact(&mut buf).is_ok() {
            stream.write_all(&buf)?;
        }
        Ok(())
    });
    let mut samples = Vec::with_capacity(rounds);
    {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut buf = [7u8; 64];
        for _ in 0..rounds {
            let t = Instant::now();
            stream.write_all(&buf).map_err(|e| e.to_string())?;
            stream.read_exact(&mut buf).map_err(|e| e.to_string())?;
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    echo.join()
        .map_err(|_| "echo thread panicked")?
        .map_err(|e| e.to_string())?;
    samples.sort_unstable();
    Ok(percentile(&samples, 50.0) as f64 / 1000.0)
}

/// Nanoseconds per iteration of a dependent integer loop.
pub fn spin_ns_per_iter() -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..ITERATIONS {
        x = (x ^ i).wrapping_mul(0x0100_0000_01B3).rotate_left(7);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64 / ITERATIONS as f64
}

/// Median cost of writing 4 KiB to a file in `dir` and syncing it,
/// microseconds.
pub fn fsync_4k_us(dir: &Path, rounds: usize) -> Result<f64, String> {
    let path = dir.join("fsync-canary");
    let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let block = [0x5Au8; 4096];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        file.write_all(&block).map_err(|e| e.to_string())?;
        file.sync_all().map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    drop(file);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    samples.sort_unstable();
    Ok(percentile(&samples, 50.0) as f64 / 1000.0)
}

/// Bytes of the regular files directly inside `dir` (a warehouse
/// directory is flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Files directly inside `dir` whose name ends with `suffix`.
pub fn dir_files(dir: &Path, suffix: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .count()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_its_own_status() {
        assert!(!cpus_allowed().is_empty());
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn canaries_measure_something() {
        assert!(loopback_rtt_p50_us(50).unwrap() > 0.0);
        let dir = std::env::temp_dir();
        assert!(fsync_4k_us(&dir, 3).unwrap() > 0.0);
    }
}
