//! The served liveness surface: one cheap, self-contained
//! [`HealthReport`] a monitor can poll every second.
//!
//! Health answers the questions an operator (or a federation peer
//! deciding where to route) asks *before* reaching for metrics or
//! traces: is the process up, how far behind are the tiers (flush
//! backlog, worker queue depths, checkpoint age), how loaded is the
//! serve edge (sessions, subscribers), and how fast is ingest moving
//! (a [`RateWindow`] over two readings of the ingest counter, not a
//! since-boot average).
//!
//! The report is assembled from values the server already maintains —
//! gauges, the flusher's carry length, the trace recorder's counter —
//! so building one costs relaxed loads, one brief epoch read, one
//! uncontended lock for the rate window and one allocation (the
//! worker-depth list); it copies no registry, so it is cheap enough to
//! poll every second. The codec follows the [`crate::codec`] discipline
//! over the [`sitm_codec`] primitives:
//! versioned, bounds-checked, trailing bytes rejected, torture-tested
//! at every byte offset.

use std::time::{Duration, Instant};

use sitm_codec::{put_u64, take_count, take_flag, take_tag, take_u64};

use crate::codec::SnapshotCodecError;

/// The only health-codec version this build reads or writes.
pub const HEALTH_VERSION: u8 = 1;

/// How long a [`RateWindow`] stays open: a reading closes it only when
/// it comes at least this long after the window's newer reading.
pub const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Two readings `[older, newer]` of one monotonic counter, kept by
/// whoever polls it — no background thread. A reading at least
/// [`RATE_WINDOW`] after `newer` moves the window on (`older ← newer`,
/// `newer ← reading`); an earlier one leaves it as it is. The rate is
/// the counter's rise from `older` to `newer` over the time between
/// them, so a caller polling every second reads the last second's rate
/// and a sparser one the average since its previous poll.
#[derive(Debug)]
pub struct RateWindow {
    older: (Instant, u64),
    newer: (Instant, u64),
}

impl RateWindow {
    /// A window seeded with one reading at both ends (rate 0 until the
    /// first window closes).
    pub fn new(at: Instant, count: u64) -> RateWindow {
        RateWindow {
            older: (at, count),
            newer: (at, count),
        }
    }

    /// Offers the reading `count` at `now` and returns the rate over
    /// the latest closed window, in milli-events per second. A counter
    /// that went backwards reads 0.
    pub fn milli_per_sec(&mut self, now: Instant, count: u64) -> u64 {
        if now.saturating_duration_since(self.newer.0) >= RATE_WINDOW {
            self.older = self.newer;
            self.newer = (now, count);
        }
        let nanos = self.newer.0.duration_since(self.older.0).as_nanos();
        if nanos == 0 {
            return 0;
        }
        let events = u128::from(self.newer.1.saturating_sub(self.older.1));
        u64::try_from(events * 1_000_000_000_000 / nanos).unwrap_or(u64::MAX)
    }
}

/// A point-in-time liveness summary of one serving process.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// The live engine's snapshot epoch (advances on ingest).
    pub epoch: u64,
    /// Sessions accepted over the server's lifetime.
    pub sessions_accepted: u64,
    /// Sessions currently connected.
    pub sessions_active: u64,
    /// Sessions currently holding a subscription.
    pub subscribers_active: u64,
    /// Trajectories fenced but not yet flushed to the warehouse — the
    /// spill tier's lag.
    pub flush_backlog_trajectories: u64,
    /// Per-worker pending-event queue depths in the live engine, in
    /// worker order — the ingest tier's lag.
    pub worker_queue_depths: Vec<u64>,
    /// Milliseconds since the last successful checkpoint; `None` if
    /// none has completed yet.
    pub last_checkpoint_age_ms: Option<u64>,
    /// Segments currently live in the warehouse manifest.
    pub warehouse_segments: u64,
    /// Trajectories those segments hold.
    pub warehouse_trajectories: u64,
    /// Trace trees recorded since start (0 with tracing disabled).
    pub traces_recorded: u64,
    /// Ingest rate over the latest closed [`RateWindow`], in
    /// **milli-events per second** (`1500` = 1.5 events/s) — kept
    /// integral so the report stays `Eq` and the codec stays exact.
    /// 0 until the first window closes, [`RATE_WINDOW`] after start.
    pub events_per_sec_milli: u64,
}

impl HealthReport {
    /// A compact `sitm-top`-style rendering: one screen, one glance.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "up {:>8} s   epoch {}   ingest {:.3} ev/s\n",
            self.uptime_ms / 1000,
            self.epoch,
            self.events_per_sec_milli as f64 / 1000.0,
        ));
        out.push_str(&format!(
            "sessions {} active / {} accepted   subscribers {}\n",
            self.sessions_active, self.sessions_accepted, self.subscribers_active,
        ));
        let depths: Vec<String> = self
            .worker_queue_depths
            .iter()
            .map(|d| d.to_string())
            .collect();
        out.push_str(&format!(
            "lag: flush backlog {} trajectories   worker queues [{}]\n",
            self.flush_backlog_trajectories,
            depths.join(" "),
        ));
        out.push_str(&format!(
            "warehouse {} segments / {} trajectories   checkpoint {}\n",
            self.warehouse_segments,
            self.warehouse_trajectories,
            match self.last_checkpoint_age_ms {
                Some(ms) => format!("{}s ago", ms / 1000),
                None => "never".to_string(),
            },
        ));
        out.push_str(&format!("traces recorded {}\n", self.traces_recorded));
        out
    }
}

/// Appends the versioned encoding of `report`:
///
/// ```text
/// version: u8 (= 1)
/// uptime_ms, epoch, sessions_accepted, sessions_active,
/// subscribers_active, flush_backlog_trajectories: varints
/// worker_queue_depths: count, then varints
/// last_checkpoint_age_ms: 0 | (1, varint)
/// warehouse_segments, warehouse_trajectories, traces_recorded,
/// events_per_sec_milli: varints
/// ```
pub fn encode_health(buf: &mut Vec<u8>, report: &HealthReport) {
    buf.push(HEALTH_VERSION);
    put_u64(buf, report.uptime_ms);
    put_u64(buf, report.epoch);
    put_u64(buf, report.sessions_accepted);
    put_u64(buf, report.sessions_active);
    put_u64(buf, report.subscribers_active);
    put_u64(buf, report.flush_backlog_trajectories);
    put_u64(buf, report.worker_queue_depths.len() as u64);
    for &depth in &report.worker_queue_depths {
        put_u64(buf, depth);
    }
    match report.last_checkpoint_age_ms {
        None => buf.push(0),
        Some(ms) => {
            buf.push(1);
            put_u64(buf, ms);
        }
    }
    put_u64(buf, report.warehouse_segments);
    put_u64(buf, report.warehouse_trajectories);
    put_u64(buf, report.traces_recorded);
    put_u64(buf, report.events_per_sec_milli);
}

/// The report as a standalone byte buffer.
pub fn health_to_bytes(report: &HealthReport) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_health(&mut buf, report);
    buf
}

/// Decodes a report that must occupy `bytes` exactly.
pub fn decode_health(bytes: &[u8]) -> Result<HealthReport, SnapshotCodecError> {
    let mut buf = bytes;
    let version = take_tag(&mut buf)?;
    if version != HEALTH_VERSION {
        return Err(SnapshotCodecError::UnsupportedVersion(version));
    }
    let uptime_ms = take_u64(&mut buf)?;
    let epoch = take_u64(&mut buf)?;
    let sessions_accepted = take_u64(&mut buf)?;
    let sessions_active = take_u64(&mut buf)?;
    let subscribers_active = take_u64(&mut buf)?;
    let flush_backlog_trajectories = take_u64(&mut buf)?;
    let n = take_count(&mut buf, 1)?;
    let mut worker_queue_depths = Vec::with_capacity(n);
    for _ in 0..n {
        worker_queue_depths.push(take_u64(&mut buf)?);
    }
    let last_checkpoint_age_ms = if take_flag(&mut buf)? {
        Some(take_u64(&mut buf)?)
    } else {
        None
    };
    let warehouse_segments = take_u64(&mut buf)?;
    let warehouse_trajectories = take_u64(&mut buf)?;
    let traces_recorded = take_u64(&mut buf)?;
    let events_per_sec_milli = take_u64(&mut buf)?;
    if !buf.is_empty() {
        return Err(SnapshotCodecError::TrailingBytes(buf.len()));
    }
    Ok(HealthReport {
        uptime_ms,
        epoch,
        sessions_accepted,
        sessions_active,
        subscribers_active,
        flush_backlog_trajectories,
        worker_queue_depths,
        last_checkpoint_age_ms,
        warehouse_segments,
        warehouse_trajectories,
        traces_recorded,
        events_per_sec_milli,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HealthReport {
        HealthReport {
            uptime_ms: 93_000,
            epoch: 412,
            sessions_accepted: 18,
            sessions_active: 3,
            subscribers_active: 1,
            flush_backlog_trajectories: 57,
            worker_queue_depths: vec![0, 12, 3, 0],
            last_checkpoint_age_ms: Some(4_200),
            warehouse_segments: 9,
            warehouse_trajectories: 15_000,
            traces_recorded: 230,
            events_per_sec_milli: 1_234_567,
        }
    }

    #[test]
    fn codec_roundtrip_preserves_reports() {
        for report in [HealthReport::default(), sample()] {
            let bytes = health_to_bytes(&report);
            assert_eq!(bytes[0], HEALTH_VERSION);
            assert_eq!(decode_health(&bytes).unwrap(), report);
        }
        let never = HealthReport {
            last_checkpoint_age_ms: None,
            ..sample()
        };
        assert_eq!(decode_health(&health_to_bytes(&never)).unwrap(), never);
    }

    #[test]
    fn codec_rejects_wrong_version_bad_tag_and_trailing() {
        let mut bytes = health_to_bytes(&sample());
        bytes[0] = 3;
        assert_eq!(
            decode_health(&bytes),
            Err(SnapshotCodecError::UnsupportedVersion(3))
        );
        bytes[0] = HEALTH_VERSION;
        bytes.push(0);
        assert_eq!(
            decode_health(&bytes),
            Err(SnapshotCodecError::TrailingBytes(1))
        );
        // The checkpoint-age flag (after the version, six zero varints
        // and an empty queue list) set to neither 0 nor 1.
        let mut bytes = health_to_bytes(&HealthReport::default());
        bytes[8] = 2;
        assert_eq!(decode_health(&bytes), Err(SnapshotCodecError::BadFlag(2)));
    }

    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let bytes = health_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_health(&bytes[..cut]).is_err(),
                "decoded health truncated to {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flip_at_every_offset_never_panics() {
        let bytes = health_to_bytes(&sample());
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= 1 << bit;
                let _ = decode_health(&corrupt);
            }
        }
    }

    #[test]
    fn rate_window_moves_on_only_when_it_closes() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let mut window = RateWindow::new(start, 0);
        assert_eq!(window.milli_per_sec(at(400), 1_000), 0, "first window open");
        assert_eq!(
            window.milli_per_sec(at(1_500), 3_000),
            2_000_000,
            "3 000 events over 1.5 s"
        );
        assert_eq!(
            window.milli_per_sec(at(1_700), 3_500),
            2_000_000,
            "the window has not closed yet"
        );
        assert_eq!(
            window.milli_per_sec(at(3_500), 4_000),
            500_000,
            "1 000 events over the new 2 s window"
        );
        assert_eq!(window.milli_per_sec(at(4_500), 4_000), 0, "idle window");
        assert_eq!(window.milli_per_sec(at(5_500), 10), 0, "counter went back");
    }

    #[test]
    fn rendering_covers_the_operator_story() {
        let text = sample().render();
        for needle in [
            "epoch 412",
            "1234.567 ev/s",
            "3 active / 18 accepted",
            "subscribers 1",
            "backlog 57",
            "[0 12 3 0]",
            "9 segments / 15000 trajectories",
            "4s ago",
            "traces recorded 230",
        ] {
            assert!(text.contains(needle), "render misses {needle:?}:\n{text}");
        }
        assert!(
            HealthReport::default().render().contains("never"),
            "no checkpoint yet renders as never"
        );
    }
}
