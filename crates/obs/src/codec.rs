//! A versioned binary codec for [`MetricsSnapshot`] — the payload the
//! serve tier's `Metrics` wire op carries.
//!
//! Layout (all integers LEB128 varints, signed values ZigZag-mapped,
//! strings length-prefixed UTF-8):
//!
//! ```text
//! version: u8 (= 1)
//! counters:   count, then (name, value u64) …
//! gauges:     count, then (name, value i64 zigzag) …
//! histograms: count, then (name, count, sum, max,
//!                          buckets: count, then (index u8, count) …) …
//! slow log:   count, then (op, duration_ns, detail) …
//! ```
//!
//! The primitives are [`sitm_codec`]'s, shared with the trace,
//! time-series and health codecs and with every storage and wire format.
//! Decoding is fully validated, the same discipline as the store tier's
//! durable formats: every read is bounds-checked, element counts are
//! capped by the bytes actually remaining (a hostile count cannot force
//! an allocation), strings must be UTF-8, bucket indices must be
//! in-range and strictly increasing, and trailing bytes are rejected.
//! A snapshot truncated at *any* byte offset must decode to an error —
//! never a panic, never a silently different snapshot.

use sitm_codec::{put_i64, put_str, put_u64, take_count, take_i64, take_str, take_tag, take_u64};

use crate::{HistogramSnapshot, MetricsSnapshot, SlowQuery, HISTOGRAM_BUCKETS};

/// The only format version this build reads or writes.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotCodecError {
    /// The buffer ended mid-value.
    Truncated,
    /// A varint ran past 10 bytes / 64 bits.
    VarintOverflow,
    /// A flag byte was neither 0 nor 1.
    BadFlag(u8),
    /// The leading version byte is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u8),
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// A histogram bucket index was out of range or out of order.
    InvalidBucket(u8),
    /// Bytes remained after a complete snapshot.
    TrailingBytes(usize),
    /// A span tree nested past [`crate::trace::MAX_SPAN_DEPTH`] levels.
    TooDeep(usize),
    /// A name index pointed past the frame's interned name table.
    BadNameIndex(u64),
}

impl std::fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotCodecError::Truncated => write!(f, "snapshot truncated"),
            SnapshotCodecError::VarintOverflow => write!(f, "varint overflows u64"),
            SnapshotCodecError::BadFlag(b) => write!(f, "flag byte {b:#04x} is neither 0 nor 1"),
            SnapshotCodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotCodecError::InvalidUtf8 => write!(f, "metric name is not valid UTF-8"),
            SnapshotCodecError::InvalidBucket(i) => {
                write!(f, "histogram bucket index {i} out of range or out of order")
            }
            SnapshotCodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot")
            }
            SnapshotCodecError::TooDeep(d) => {
                write!(f, "span tree nested {d} levels deep (over the bound)")
            }
            SnapshotCodecError::BadNameIndex(i) => {
                write!(f, "name index {i} past the interned table")
            }
        }
    }
}

impl std::error::Error for SnapshotCodecError {}

impl From<sitm_codec::Error> for SnapshotCodecError {
    fn from(e: sitm_codec::Error) -> Self {
        match e {
            sitm_codec::Error::Eof | sitm_codec::Error::Overrun { .. } => {
                SnapshotCodecError::Truncated
            }
            sitm_codec::Error::Overflow => SnapshotCodecError::VarintOverflow,
            sitm_codec::Error::BadUtf8 => SnapshotCodecError::InvalidUtf8,
            sitm_codec::Error::BadFlag(b) => SnapshotCodecError::BadFlag(b),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot

/// Appends the encoded snapshot to `buf`.
pub fn encode_snapshot(buf: &mut Vec<u8>, snap: &MetricsSnapshot) {
    buf.push(SNAPSHOT_VERSION);
    put_u64(buf, snap.counters.len() as u64);
    for (name, value) in &snap.counters {
        put_str(buf, name);
        put_u64(buf, *value);
    }
    put_u64(buf, snap.gauges.len() as u64);
    for (name, value) in &snap.gauges {
        put_str(buf, name);
        put_i64(buf, *value);
    }
    put_u64(buf, snap.histograms.len() as u64);
    for (name, h) in &snap.histograms {
        put_str(buf, name);
        put_u64(buf, h.count);
        put_u64(buf, h.sum);
        put_u64(buf, h.max);
        put_u64(buf, h.buckets.len() as u64);
        for &(index, count) in &h.buckets {
            buf.push(index);
            put_u64(buf, count);
        }
    }
    put_u64(buf, snap.slow_queries.len() as u64);
    for q in &snap.slow_queries {
        put_str(buf, &q.op);
        put_u64(buf, q.duration_ns);
        put_str(buf, &q.detail);
    }
}

/// The snapshot as a standalone byte buffer.
pub fn snapshot_to_bytes(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_snapshot(&mut buf, snap);
    buf
}

/// Decodes a snapshot that must occupy `bytes` exactly.
pub fn decode_snapshot(bytes: &[u8]) -> Result<MetricsSnapshot, SnapshotCodecError> {
    let mut buf = bytes;
    let version = take_tag(&mut buf)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotCodecError::UnsupportedVersion(version));
    }

    // Minimum bytes per element: name len + value (counters/gauges: 2),
    // histograms add count/sum/max/bucket-count (6), slow queries two
    // strings + duration (3).
    let n = take_count(&mut buf, 2)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = take_str(&mut buf)?.to_owned();
        let value = take_u64(&mut buf)?;
        counters.push((name, value));
    }

    let n = take_count(&mut buf, 2)?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        let name = take_str(&mut buf)?.to_owned();
        let value = take_i64(&mut buf)?;
        gauges.push((name, value));
    }

    let n = take_count(&mut buf, 6)?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = take_str(&mut buf)?.to_owned();
        let count = take_u64(&mut buf)?;
        let sum = take_u64(&mut buf)?;
        let max = take_u64(&mut buf)?;
        let buckets_len = take_count(&mut buf, 2)?;
        let mut buckets = Vec::with_capacity(buckets_len);
        let mut prev: Option<u8> = None;
        for _ in 0..buckets_len {
            let index = take_tag(&mut buf)?;
            if usize::from(index) >= HISTOGRAM_BUCKETS || prev.is_some_and(|p| index <= p) {
                return Err(SnapshotCodecError::InvalidBucket(index));
            }
            prev = Some(index);
            let bucket_count = take_u64(&mut buf)?;
            buckets.push((index, bucket_count));
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

    let n = take_count(&mut buf, 3)?;
    let mut slow_queries = Vec::with_capacity(n);
    for _ in 0..n {
        let op = take_str(&mut buf)?.to_owned();
        let duration_ns = take_u64(&mut buf)?;
        let detail = take_str(&mut buf)?.to_owned();
        slow_queries.push(SlowQuery {
            op,
            duration_ns,
            detail,
        });
    }

    if !buf.is_empty() {
        return Err(SnapshotCodecError::TrailingBytes(buf.len()));
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        slow_queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    /// A snapshot exercising every section: counters, negative gauges,
    /// multi-bucket histograms, non-ASCII names, and slow-log entries.
    fn sample() -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        registry.counter("serve.requests.query").add(1_234);
        registry.counter("engine.events_ingested").add(999_999);
        registry.gauge("serve.sessions_active").set(-3);
        registry.gauge("engine.queue_depth.w0").set(17);
        let h = registry.histogram("serve.handle_ns.query");
        for v in [0, 1, 7, 130, 4_096, 271_000, u64::MAX] {
            h.record(v);
        }
        registry.histogram("query.candidates·µ").record(42);
        registry.set_slow_threshold_ns(1);
        registry.record_slow_with("query_federated", 271_000, || "limit=5 gallery-1 ∪".into());
        registry.record_slow_with("ingest", 9_000_000, String::new);
        registry.snapshot()
    }

    #[test]
    fn roundtrip_preserves_every_section() {
        for snap in [MetricsSnapshot::default(), sample()] {
            let bytes = snapshot_to_bytes(&snap);
            assert_eq!(bytes[0], SNAPSHOT_VERSION);
            assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
        }
    }

    #[test]
    fn rejects_wrong_version_and_trailing_bytes() {
        let mut bytes = snapshot_to_bytes(&sample());
        bytes[0] = 2;
        assert_eq!(
            decode_snapshot(&bytes),
            Err(SnapshotCodecError::UnsupportedVersion(2))
        );
        bytes[0] = SNAPSHOT_VERSION;
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes),
            Err(SnapshotCodecError::TrailingBytes(1))
        );
    }

    /// The warehouse.rs torture idiom: a snapshot cut short at *every*
    /// byte offset must error — never panic, never decode.
    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let bytes = snapshot_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "decoded a snapshot truncated to {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    /// Flipping any single bit must never panic (and in particular must
    /// never drive an allocation or an out-of-range bucket through):
    /// either the decode errors or it produces some well-formed
    /// snapshot.
    #[test]
    fn bit_flip_at_every_offset_never_panics() {
        let bytes = snapshot_to_bytes(&sample());
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= 1 << bit;
                let _ = decode_snapshot(&corrupt);
            }
        }
    }

    #[test]
    fn hostile_counts_cannot_force_allocations() {
        // Version byte, then a counter count claiming 2^60 entries with
        // nothing behind it.
        let mut bytes = vec![SNAPSHOT_VERSION];
        put_u64(&mut bytes, 1 << 60);
        assert_eq!(decode_snapshot(&bytes), Err(SnapshotCodecError::Truncated));
    }

    #[test]
    fn rejects_out_of_range_and_unordered_buckets() {
        let histogram = |buckets: Vec<(u8, u64)>| MetricsSnapshot {
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 2,
                    max: 1,
                    buckets,
                },
            )],
            ..MetricsSnapshot::default()
        };
        let oob = snapshot_to_bytes(&histogram(vec![(64, 1)]));
        assert_eq!(
            decode_snapshot(&oob),
            Err(SnapshotCodecError::InvalidBucket(64))
        );
        let unordered = snapshot_to_bytes(&histogram(vec![(5, 1), (3, 1)]));
        assert_eq!(
            decode_snapshot(&unordered),
            Err(SnapshotCodecError::InvalidBucket(3))
        );
    }

    #[test]
    fn varint_overflow_is_an_error() {
        let mut bytes = vec![SNAPSHOT_VERSION];
        bytes.extend_from_slice(&[0xFF; 10]); // 70 set continuation bits
        assert_eq!(
            decode_snapshot(&bytes),
            Err(SnapshotCodecError::VarintOverflow)
        );
    }
}
