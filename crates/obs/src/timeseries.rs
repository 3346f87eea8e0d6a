//! Temporal metrics: periodic [`MetricsRegistry`] samples, retained as
//! a bounded ring of frames, with rates and windowed distributions
//! derived from any two frames.
//!
//! The point-in-time [`crate::MetricsSnapshot`] answers *how much so
//! far*; a pair of [`SeriesFrame`]s answers *how fast right now* —
//! `events/s`, `evictions/s`, and the RTT p99 **of the last N
//! windows** rather than since process start:
//!
//! * [`Sampler`] — a background thread snapshotting a registry every
//!   `period` into a [`SeriesRing`]. Stopping is prompt (condvar, not
//!   a sleep race) and happens automatically on drop.
//! * [`rate_per_sec`] / [`window_histogram`] — pure derivations over
//!   two frames; the windowed histogram subtracts bucket-by-bucket so
//!   [`crate::HistogramSnapshot::quantile`] works on the difference.
//! * [`encode_series`] / [`decode_series`] — a delta-compressed
//!   versioned codec (interned name table, per-frame zig-zag deltas
//!   against the previous frame) in the [`crate::codec`] discipline:
//!   bounds-checked, allocation-capped, trailing bytes rejected,
//!   torture-tested at every byte offset. Steady-state frames where
//!   most instruments barely move cost a few bytes per instrument.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use sitm_codec::{put_i64, put_str, put_u64, take_count, take_i64, take_str, take_tag, take_u64};

use crate::codec::SnapshotCodecError;
use crate::{HistogramSnapshot, MetricsRegistry, HISTOGRAM_BUCKETS};

/// The only series-codec version this build reads or writes.
pub const SERIES_VERSION: u8 = 1;

/// Frames a [`SeriesRing`] retains by default (2 minutes at the
/// default 1 s period).
pub const DEFAULT_SERIES_CAPACITY: usize = 120;

/// Default sampling period.
pub const DEFAULT_SAMPLE_PERIOD: Duration = Duration::from_secs(1);

/// One timestamped sample of a registry: every counter, gauge, and
/// histogram, name-sorted (the [`crate::MetricsRegistry::snapshot`]
/// order). Slow-query entries deliberately don't ride frames — they
/// are event-shaped, not series-shaped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesFrame {
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub at_ms: u64,
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, distribution)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl SeriesFrame {
    /// Captures `registry` right now.
    pub fn capture(registry: &MetricsRegistry) -> SeriesFrame {
        let snap = registry.snapshot();
        SeriesFrame {
            at_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
        }
    }

    /// The counter's total in this frame, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The histogram's distribution in this frame, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// The counter's rate between two frames, in events per second.
/// `None` if the counter is missing from either frame or no wall-clock
/// time elapsed between them. A counter reset (restart) clamps to 0
/// rather than reporting a nonsense negative rate.
pub fn rate_per_sec(earlier: &SeriesFrame, later: &SeriesFrame, counter: &str) -> Option<f64> {
    let a = earlier.counter(counter)?;
    let b = later.counter(counter)?;
    let elapsed_ms = later
        .at_ms
        .checked_sub(earlier.at_ms)
        .filter(|&ms| ms > 0)?;
    Some(b.saturating_sub(a) as f64 * 1000.0 / elapsed_ms as f64)
}

/// The histogram's distribution **within** the window between two
/// frames: later minus earlier, bucket by bucket, so
/// [`HistogramSnapshot::quantile`] answers "p99 over the last N
/// windows" instead of "p99 since the process started". `max` is the
/// later frame's lifetime max — an upper bound for the window, exact
/// whenever the window contains the lifetime max.
pub fn window_histogram(
    earlier: &SeriesFrame,
    later: &SeriesFrame,
    name: &str,
) -> Option<HistogramSnapshot> {
    let a = earlier.histogram(name)?;
    let b = later.histogram(name)?;
    let mut buckets = Vec::new();
    for &(idx, n) in &b.buckets {
        let prev = a
            .buckets
            .iter()
            .find(|&&(i, _)| i == idx)
            .map_or(0, |&(_, n)| n);
        let delta = n.saturating_sub(prev);
        if delta > 0 {
            buckets.push((idx, delta));
        }
    }
    Some(HistogramSnapshot {
        count: b.count.saturating_sub(a.count),
        sum: b.sum.saturating_sub(a.sum),
        max: b.max,
        buckets,
    })
}

/// A bounded FIFO of [`SeriesFrame`]s. Shared (cheap `Clone`) between
/// the sampler thread that pushes and whoever derives rates.
#[derive(Clone)]
pub struct SeriesRing {
    inner: Arc<RingInner>,
}

struct RingInner {
    capacity: usize,
    frames: Mutex<VecDeque<SeriesFrame>>,
}

impl SeriesRing {
    /// A ring retaining the most recent `capacity` frames (min 2, so
    /// rate derivation always has a pair once warm).
    pub fn new(capacity: usize) -> SeriesRing {
        SeriesRing {
            inner: Arc::new(RingInner {
                capacity: capacity.max(2),
                frames: Mutex::new(VecDeque::new()),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<SeriesFrame>> {
        self.inner.frames.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Appends a frame, evicting the oldest at capacity.
    pub fn push(&self, frame: SeriesFrame) {
        let mut frames = self.lock();
        if frames.len() == self.inner.capacity {
            frames.pop_front();
        }
        frames.push_back(frame);
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no frame has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The most recent `n` frames, oldest first.
    pub fn recent(&self, n: usize) -> Vec<SeriesFrame> {
        let frames = self.lock();
        frames.iter().rev().take(n).rev().cloned().collect()
    }

    /// The oldest and newest retained frames — the widest window the
    /// ring can currently answer over. `None` until two frames exist.
    pub fn window(&self) -> Option<(SeriesFrame, SeriesFrame)> {
        let frames = self.lock();
        if frames.len() < 2 {
            return None;
        }
        Some((frames.front()?.clone(), frames.back()?.clone()))
    }

    /// The two most recent frames — the freshest single-period window.
    /// `None` until two frames exist.
    pub fn last_pair(&self) -> Option<(SeriesFrame, SeriesFrame)> {
        let frames = self.lock();
        let n = frames.len();
        if n < 2 {
            return None;
        }
        Some((frames[n - 2].clone(), frames[n - 1].clone()))
    }
}

struct SamplerShared {
    registry: MetricsRegistry,
    ring: SeriesRing,
    period: Duration,
    stop: Mutex<bool>,
    wake: Condvar,
    samples: AtomicU64,
}

/// A background thread capturing a [`SeriesFrame`] every `period` into
/// a [`SeriesRing`]. One registry lock per period — far off any hot
/// path. [`Sampler::stop`] (or drop) joins the thread promptly via a
/// condvar rather than waiting out the period.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Sampler {
    /// Starts sampling `registry` every `period`, retaining `capacity`
    /// frames. The first frame is captured immediately so a single
    /// further tick already yields a derivable pair.
    pub fn start(registry: MetricsRegistry, period: Duration, capacity: usize) -> Sampler {
        let shared = Arc::new(SamplerShared {
            registry,
            ring: SeriesRing::new(capacity),
            period: period.max(Duration::from_millis(1)),
            stop: Mutex::new(false),
            wake: Condvar::new(),
            samples: AtomicU64::new(0),
        });
        shared.capture();
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sitm-sampler".into())
            .spawn(move || worker.run())
            .expect("spawn sampler thread");
        Sampler {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// The ring the thread fills (cheap clone, safe to hold).
    pub fn ring(&self) -> SeriesRing {
        self.shared.ring.clone()
    }

    /// The configured sampling period.
    pub fn period(&self) -> Duration {
        self.shared.period
    }

    /// Frames captured so far (including evicted ones).
    pub fn samples(&self) -> u64 {
        self.shared.samples.load(Ordering::Relaxed)
    }

    /// Captures a frame right now, off-schedule — deterministic tests
    /// use this instead of waiting out the period.
    pub fn sample_now(&self) {
        self.shared.capture();
    }

    /// Stops and joins the sampler thread. Idempotent; takes `&self`
    /// so a sampler embedded in shared server state can be stopped
    /// without exclusive access.
    pub fn stop(&self) {
        {
            let mut stop = self.shared.stop.lock().unwrap_or_else(|p| p.into_inner());
            *stop = true;
        }
        self.shared.wake.notify_all();
        let handle = self.handle.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("period", &self.shared.period)
            .field("samples", &self.samples())
            .finish()
    }
}

impl SamplerShared {
    fn capture(&self) {
        self.ring.push(SeriesFrame::capture(&self.registry));
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    fn run(&self) {
        let mut stop = self.stop.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if *stop {
                return;
            }
            let (guard, timed_out) = self
                .wake
                .wait_timeout(stop, self.period)
                .unwrap_or_else(|p| p.into_inner());
            stop = guard;
            if *stop {
                return;
            }
            if timed_out.timed_out() {
                drop(stop);
                self.capture();
                stop = self.stop.lock().unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Codec

/// Interned-name lookup shared by the three sections.
fn intern(names: &mut Vec<String>, name: &str) -> u64 {
    if let Some(i) = names.iter().position(|n| n == name) {
        return i as u64;
    }
    names.push(name.to_string());
    (names.len() - 1) as u64
}

fn put_delta_u64(buf: &mut Vec<u8>, prev: u64, now: u64) {
    put_i64(buf, now.wrapping_sub(prev) as i64);
}

fn put_delta_i64(buf: &mut Vec<u8>, prev: i64, now: i64) {
    put_i64(buf, now.wrapping_sub(prev));
}

/// Appends the delta-compressed, versioned encoding of `frames`:
///
/// ```text
/// version: u8 (= 1)
/// names:   count, then strings (first appearance order, all frames)
/// frames:  count, then per frame:
///   at_ms:      frame 0 absolute varint; later frames zig-zag delta
///   counters:   count, then (name_idx, zig-zag wrapping delta) …
///   gauges:     count, then (name_idx, zig-zag wrapping delta) …
///   histograms: count, then per histogram:
///     name_idx, Δcount, Δsum, Δmax (zig-zag wrapping),
///     buckets: count, then (index u8 strictly increasing < 64,
///                           zig-zag wrapping delta) …
/// ```
///
/// Every delta is against the **previous frame's** value for the same
/// name (0 when the name first appears), so a steady-state instrument
/// costs one or two bytes per frame. Wrapping deltas are total — any
/// `u64`/`i64` pair encodes — so decoding never value-fails, only
/// structure-fails.
pub fn encode_series(buf: &mut Vec<u8>, frames: &[SeriesFrame]) {
    let mut names: Vec<String> = Vec::new();
    for frame in frames {
        for (name, _) in &frame.counters {
            intern(&mut names, name);
        }
        for (name, _) in &frame.gauges {
            intern(&mut names, name);
        }
        for (name, _) in &frame.histograms {
            intern(&mut names, name);
        }
    }

    buf.push(SERIES_VERSION);
    put_u64(buf, names.len() as u64);
    for name in &names {
        put_str(buf, name);
    }
    put_u64(buf, frames.len() as u64);

    let mut prev: Option<&SeriesFrame> = None;
    for frame in frames {
        match prev {
            None => put_u64(buf, frame.at_ms),
            Some(p) => put_i64(buf, frame.at_ms.wrapping_sub(p.at_ms) as i64),
        }
        put_u64(buf, frame.counters.len() as u64);
        for (name, value) in &frame.counters {
            put_u64(buf, intern(&mut names, name));
            let before = prev.and_then(|p| p.counter(name)).unwrap_or(0);
            put_delta_u64(buf, before, *value);
        }
        put_u64(buf, frame.gauges.len() as u64);
        for (name, value) in &frame.gauges {
            put_u64(buf, intern(&mut names, name));
            let before = prev
                .and_then(|p| p.gauges.iter().find(|(n, _)| n == name))
                .map_or(0, |&(_, v)| v);
            put_delta_i64(buf, before, *value);
        }
        put_u64(buf, frame.histograms.len() as u64);
        for (name, hist) in &frame.histograms {
            put_u64(buf, intern(&mut names, name));
            let empty = HistogramSnapshot::default();
            let before = prev.and_then(|p| p.histogram(name)).unwrap_or(&empty);
            put_delta_u64(buf, before.count, hist.count);
            put_delta_u64(buf, before.sum, hist.sum);
            put_delta_u64(buf, before.max, hist.max);
            put_u64(buf, hist.buckets.len() as u64);
            for &(idx, n) in &hist.buckets {
                buf.push(idx);
                let before_n = before
                    .buckets
                    .iter()
                    .find(|&&(i, _)| i == idx)
                    .map_or(0, |&(_, n)| n);
                put_delta_u64(buf, before_n, n);
            }
        }
        prev = Some(frame);
    }
}

/// The frames as a standalone byte buffer.
pub fn series_to_bytes(frames: &[SeriesFrame]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_series(&mut buf, frames);
    buf
}

fn name_at(names: &[String], idx: u64) -> Result<String, SnapshotCodecError> {
    names
        .get(usize::try_from(idx).unwrap_or(usize::MAX))
        .cloned()
        .ok_or(SnapshotCodecError::BadNameIndex(idx))
}

/// Decodes frames that must occupy `bytes` exactly. Fully validated:
/// name indexes checked against the interned table
/// ([`SnapshotCodecError::BadNameIndex`]), bucket indexes strictly
/// increasing below [`HISTOGRAM_BUCKETS`], counts allocation-capped,
/// trailing bytes rejected.
pub fn decode_series(bytes: &[u8]) -> Result<Vec<SeriesFrame>, SnapshotCodecError> {
    let mut buf = bytes;
    let version = take_tag(&mut buf)?;
    if version != SERIES_VERSION {
        return Err(SnapshotCodecError::UnsupportedVersion(version));
    }
    let name_count = take_count(&mut buf, 2)?;
    let mut names = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        names.push(take_str(&mut buf)?.to_owned());
    }
    // A frame costs ≥ 4 bytes (timestamp + three section counts).
    let frame_count = take_count(&mut buf, 4)?;
    let mut frames: Vec<SeriesFrame> = Vec::with_capacity(frame_count);

    for f in 0..frame_count {
        let prev = frames.last();
        let at_ms = if f == 0 {
            take_u64(&mut buf)?
        } else {
            let base = prev.map_or(0, |p| p.at_ms);
            base.wrapping_add(take_i64(&mut buf)? as u64)
        };

        let n = take_count(&mut buf, 2)?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            let name = name_at(&names, take_u64(&mut buf)?)?;
            let before = prev.and_then(|p| p.counter(&name)).unwrap_or(0);
            let value = before.wrapping_add(take_i64(&mut buf)? as u64);
            counters.push((name, value));
        }

        let n = take_count(&mut buf, 2)?;
        let mut gauges = Vec::with_capacity(n);
        for _ in 0..n {
            let name = name_at(&names, take_u64(&mut buf)?)?;
            let before = prev
                .and_then(|p| p.gauges.iter().find(|(g, _)| *g == name))
                .map_or(0, |&(_, v)| v);
            let value = before.wrapping_add(take_i64(&mut buf)?);
            gauges.push((name, value));
        }

        let n = take_count(&mut buf, 5)?;
        let mut histograms = Vec::with_capacity(n);
        for _ in 0..n {
            let name = name_at(&names, take_u64(&mut buf)?)?;
            let empty = HistogramSnapshot::default();
            let before = prev.and_then(|p| p.histogram(&name)).unwrap_or(&empty);
            let count = before.count.wrapping_add(take_i64(&mut buf)? as u64);
            let sum = before.sum.wrapping_add(take_i64(&mut buf)? as u64);
            let max = before.max.wrapping_add(take_i64(&mut buf)? as u64);
            let bucket_count = take_count(&mut buf, 2)?;
            let mut buckets = Vec::with_capacity(bucket_count);
            let mut last_idx: i32 = -1;
            for _ in 0..bucket_count {
                let idx = take_tag(&mut buf)?;
                if idx as usize >= HISTOGRAM_BUCKETS || i32::from(idx) <= last_idx {
                    return Err(SnapshotCodecError::InvalidBucket(idx));
                }
                last_idx = i32::from(idx);
                let before_n = before
                    .buckets
                    .iter()
                    .find(|&&(i, _)| i == idx)
                    .map_or(0, |&(_, bn)| bn);
                buckets.push((idx, before_n.wrapping_add(take_i64(&mut buf)? as u64)));
            }
            histograms.push((
                name,
                HistogramSnapshot {
                    count,
                    sum,
                    max,
                    buckets,
                },
            ));
        }

        frames.push(SeriesFrame {
            at_ms,
            counters,
            gauges,
            histograms,
        });
    }
    if !buf.is_empty() {
        return Err(SnapshotCodecError::TrailingBytes(buf.len()));
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(at_ms: u64, events: u64, depth: i64, rtt: &[u64]) -> SeriesFrame {
        let registry = MetricsRegistry::new();
        registry.counter("engine.events_ingested").add(events);
        registry.gauge("engine.queue_depth.w0").set(depth);
        let hist = registry.histogram("serve.query.handle_ns");
        for &v in rtt {
            hist.record(v);
        }
        let snap = registry.snapshot();
        SeriesFrame {
            at_ms,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
        }
    }

    #[test]
    fn rates_come_from_frame_pairs() {
        let a = frame(1_000, 500, 3, &[100]);
        let b = frame(3_000, 1_500, 7, &[100, 200]);
        assert_eq!(rate_per_sec(&a, &b, "engine.events_ingested"), Some(500.0));
        assert_eq!(rate_per_sec(&a, &b, "no.such.counter"), None);
        // Same timestamp → no window → no rate.
        assert_eq!(rate_per_sec(&a, &a, "engine.events_ingested"), None);
        // Counter reset clamps to zero instead of going negative.
        assert_eq!(rate_per_sec(&b, &a, "engine.events_ingested"), None);
        let mut reset = b.clone();
        reset.at_ms = 5_000;
        reset.counters[0].1 = 10;
        assert_eq!(
            rate_per_sec(&b, &reset, "engine.events_ingested"),
            Some(0.0)
        );
    }

    #[test]
    fn window_histogram_subtracts_buckets() {
        let a = frame(1_000, 0, 0, &[100, 100, 1_000_000]);
        let b = frame(2_000, 0, 0, &[100, 100, 1_000_000, 50_000, 50_000, 50_000]);
        let w = window_histogram(&a, &b, "serve.query.handle_ns").expect("present");
        assert_eq!(w.count, 3, "only the window's observations");
        assert_eq!(w.sum, 150_000);
        // All three window observations are 50_000 → p99 lands in that
        // bucket's ceiling, far below the lifetime max bucket.
        assert!(w.quantile(0.99) < 100_000, "p99={}", w.quantile(0.99));
        assert!(
            b.histogram("serve.query.handle_ns").unwrap().quantile(0.99) >= 524_288,
            "lifetime p99 is dominated by the early 1ms outlier"
        );
        assert_eq!(window_histogram(&a, &b, "nope"), None);
    }

    #[test]
    fn ring_is_bounded_and_hands_out_windows() {
        let ring = SeriesRing::new(3);
        assert!(ring.is_empty());
        assert!(ring.window().is_none());
        assert!(ring.last_pair().is_none());
        for i in 0..5 {
            ring.push(frame(i * 1_000, i * 10, 0, &[]));
        }
        assert_eq!(ring.len(), 3);
        let (oldest, newest) = ring.window().unwrap();
        assert_eq!((oldest.at_ms, newest.at_ms), (2_000, 4_000));
        let (a, b) = ring.last_pair().unwrap();
        assert_eq!((a.at_ms, b.at_ms), (3_000, 4_000));
        let recent = ring.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].at_ms, 3_000, "oldest first");
    }

    #[test]
    fn sampler_fills_its_ring_and_stops_promptly() {
        let registry = MetricsRegistry::new();
        registry.counter("engine.events_ingested").add(100);
        let sampler = Sampler::start(registry.clone(), Duration::from_millis(5), 16);
        assert_eq!(sampler.ring().len(), 1, "first frame is immediate");
        registry.counter("engine.events_ingested").add(900);
        sampler.sample_now();
        let (a, b) = sampler.ring().last_pair().expect("two frames");
        assert_eq!(a.counter("engine.events_ingested"), Some(100));
        assert_eq!(b.counter("engine.events_ingested"), Some(1_000));
        // The background thread keeps ticking on its own.
        let before = sampler.samples();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sampler.samples() == before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(sampler.samples() > before, "background tick landed");
        let start = std::time::Instant::now();
        sampler.stop();
        sampler.stop(); // idempotent
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "stop joined promptly"
        );
    }

    fn sample_frames() -> Vec<SeriesFrame> {
        vec![
            frame(1_700_000_000_000, 10, -4, &[100, 200]),
            frame(1_700_000_001_000, 500, 9, &[100, 200, 300, 70_000]),
            // Clock stepped backwards + a counter reset: deltas still
            // encode (wrapping), values still roundtrip.
            frame(1_699_999_999_000, 3, 0, &[5]),
        ]
    }

    #[test]
    fn codec_roundtrip_preserves_frames() {
        for frames in [Vec::new(), sample_frames()] {
            let bytes = series_to_bytes(&frames);
            assert_eq!(bytes[0], SERIES_VERSION);
            assert_eq!(decode_series(&bytes).unwrap(), frames);
        }
    }

    #[test]
    fn delta_compression_beats_absolute_reencoding() {
        // 30 near-identical frames: the delta stream should be much
        // smaller than 30 standalone first-frames.
        let mut frames = Vec::new();
        for i in 0..30u64 {
            frames.push(frame(
                1_700_000_000_000 + i * 1_000,
                1_000_000 + i,
                5,
                &[128],
            ));
        }
        let all = series_to_bytes(&frames).len();
        let one = series_to_bytes(&frames[..1]).len();
        assert!(
            all * 2 < one * 30,
            "30 steady frames ({all} B) should cost well under half of 30 \
             standalone frames ({} B)",
            one * 30
        );
        let marginal = (all - one) / (frames.len() - 1);
        assert!(
            marginal < one / 2,
            "a steady frame's marginal cost ({marginal} B) should be a \
             fraction of a full frame ({one} B)"
        );
    }

    #[test]
    fn codec_rejects_wrong_version_trailing_and_bad_indexes() {
        let mut bytes = series_to_bytes(&sample_frames());
        bytes[0] = 7;
        assert_eq!(
            decode_series(&bytes),
            Err(SnapshotCodecError::UnsupportedVersion(7))
        );
        bytes[0] = SERIES_VERSION;
        bytes.push(0);
        assert_eq!(
            decode_series(&bytes),
            Err(SnapshotCodecError::TrailingBytes(1))
        );

        // A counter naming an index past the table.
        let mut bytes = vec![SERIES_VERSION];
        put_u64(&mut bytes, 1); // one name
        put_str(&mut bytes, "a");
        put_u64(&mut bytes, 1); // one frame
        put_u64(&mut bytes, 123); // at_ms
        put_u64(&mut bytes, 1); // one counter
        put_u64(&mut bytes, 9); // index 9 of a 1-entry table
        put_i64(&mut bytes, 1);
        assert_eq!(
            decode_series(&bytes),
            Err(SnapshotCodecError::BadNameIndex(9))
        );
    }

    #[test]
    fn codec_rejects_bad_bucket_indexes() {
        let mut head = vec![SERIES_VERSION];
        put_u64(&mut head, 1);
        put_str(&mut head, "h");
        put_u64(&mut head, 1); // one frame
        put_u64(&mut head, 123); // at_ms
        put_u64(&mut head, 0); // no counters
        put_u64(&mut head, 0); // no gauges
        put_u64(&mut head, 1); // one histogram
        put_u64(&mut head, 0); // name idx
        put_i64(&mut head, 2); // count
        put_i64(&mut head, 10); // sum
        put_i64(&mut head, 8); // max
        put_u64(&mut head, 2); // two buckets

        // Bucket index 64 is out of range.
        let mut bytes = head.clone();
        bytes.push(64);
        put_i64(&mut bytes, 1);
        bytes.push(65);
        put_i64(&mut bytes, 1);
        assert_eq!(
            decode_series(&bytes),
            Err(SnapshotCodecError::InvalidBucket(64))
        );

        // Non-increasing bucket order.
        let mut bytes = head;
        bytes.push(4);
        put_i64(&mut bytes, 1);
        bytes.push(4);
        put_i64(&mut bytes, 1);
        assert_eq!(
            decode_series(&bytes),
            Err(SnapshotCodecError::InvalidBucket(4))
        );
    }

    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let bytes = series_to_bytes(&sample_frames());
        for cut in 0..bytes.len() {
            assert!(
                decode_series(&bytes[..cut]).is_err(),
                "decoded series truncated to {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flip_at_every_offset_never_panics() {
        let bytes = series_to_bytes(&sample_frames());
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= 1 << bit;
                let _ = decode_series(&corrupt);
            }
        }
    }

    #[test]
    fn hostile_counts_never_allocate_unbounded() {
        // Name table claiming 2^50 entries.
        let mut bytes = vec![SERIES_VERSION];
        put_u64(&mut bytes, 1 << 50);
        assert_eq!(decode_series(&bytes), Err(SnapshotCodecError::Truncated));
    }
}
