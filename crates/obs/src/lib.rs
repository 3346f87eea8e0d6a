#![warn(missing_docs)]

//! # sitm-obs
//!
//! The measurement substrate for the SITM stack: a lock-cheap
//! observability layer every other tier (store, stream, query, serve)
//! records into, and the one the ROADMAP's perf items are judged
//! against.
//!
//! * [`Counter`] / [`Gauge`] — single atomics; one `fetch_add` (or
//!   `store`) per observation, safe to hit from the ingest hot path.
//! * [`Histogram`] — 64 log₂-bucketed atomic counters plus
//!   count/sum/max; p50/p95/p99/max are derived from the snapshot
//!   ([`HistogramSnapshot::quantile`]), never maintained online.
//! * [`Span`] — a scope timer that records its elapsed nanoseconds
//!   into a named histogram on drop.
//! * [`MetricsRegistry`] — a cheaply clonable name → instrument map.
//!   [`MetricsRegistry::global`] is the process-wide default; every
//!   instrumented component also accepts an injected registry so a
//!   server (or a test) can own an isolated one.
//! * Slow-query ring buffer — [`MetricsRegistry::record_slow_with`]
//!   keeps the last [`SLOW_LOG_CAPACITY`] observations over a
//!   configurable threshold; they ride the snapshot.
//! * [`codec`] — a versioned, fully validated binary codec for
//!   [`MetricsSnapshot`] (the payload the serve tier's `Metrics` wire
//!   op carries), torture-tested torn and bit-flipped at every byte
//!   offset like every other durable artifact in this stack.
//!
//! Instruments are resolved by name **once** (construction time) into
//! `Arc` handles; recording is then wait-free atomics only — the design
//! constraint is that instrumenting the ~12µs warehouse-only served
//! query must stay within noise.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod codec;
pub mod health;
pub mod trace;

/// Buckets in a [`Histogram`]: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i < 64) holds values in `[2^(i-1), 2^i - 1]`, with the last
/// bucket absorbing everything from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Slow observations retained by the registry's ring buffer.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// A monotonically increasing `u64` (events, bytes, errors...).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, pool occupancy). Signed so
/// transient imbalance in inc/dec pairs cannot wrap.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `d` (use `-d` to decrement).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The log₂ bucket a value lands in (see [`HISTOGRAM_BUCKETS`]).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The largest value bucket `i` can hold (the quantile estimate
/// reported for observations in that bucket).
pub fn bucket_ceiling(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A log₂-bucketed latency/size distribution. Recording is four
/// relaxed atomic ops (bucket, count, sum, max) — no locks, no
/// allocation. Buckets are individually consistent but not mutually
/// atomic: a snapshot racing a `record` may see the count without the
/// sum (metrics-grade, not accounting-grade).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An owned snapshot of the distribution (sparse: zero buckets are
    /// dropped).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A scope timer: created against a histogram handle, records the
/// elapsed nanoseconds into it when dropped (or explicitly via
/// [`Span::finish`]).
pub struct Span {
    histogram: Arc<Histogram>,
    start: Instant,
    armed: bool,
}

impl Span {
    /// Starts timing into `histogram`.
    pub fn start(histogram: Arc<Histogram>) -> Span {
        Span {
            histogram,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Nanoseconds elapsed so far (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stops the timer now, records, and returns the elapsed
    /// nanoseconds (drop would record the same value later).
    pub fn finish(mut self) -> u64 {
        let ns = self.elapsed_ns();
        self.histogram.record(ns);
        self.armed = false;
        ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            self.histogram.record(self.elapsed_ns());
        }
    }
}

/// One entry in the slow-query ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// What ran (an operation name, e.g. `query_federated`).
    pub op: String,
    /// How long it took, in nanoseconds.
    pub duration_ns: u64,
    /// Operation-specific context (a predicate rendering, a batch
    /// size...). May be empty.
    pub detail: String,
}

struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    slow: Mutex<Vec<SlowQuery>>,
    /// Observations at or above this many nanoseconds enter the slow
    /// log; `u64::MAX` (the default) disables it.
    slow_threshold_ns: AtomicU64,
}

/// A name → instrument map shared by every component of one pipeline.
///
/// Cloning is an `Arc` bump: hand clones to each tier and they all
/// record into the same instruments. Resolution
/// ([`MetricsRegistry::counter`] etc.) takes a short-lived lock and is
/// meant for construction time; the returned `Arc` handles are what hot
/// paths hold.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                slow: Mutex::new(Vec::new()),
                slow_threshold_ns: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// The process-global registry — what instrumented components
    /// default to when none is injected.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = Self::lock(&self.inner.counters);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = Self::lock(&self.inner.gauges);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = Self::lock(&self.inner.histograms);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Starts a [`Span`] recording into the named histogram on drop.
    pub fn span(&self, name: &str) -> Span {
        Span::start(self.histogram(name))
    }

    /// Observations at or above `ns` enter the slow log. `u64::MAX`
    /// disables it (the default).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.inner.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The active slow-log threshold.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.inner.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Offers one observation to the slow log. `detail` is only
    /// rendered when the threshold is met, so the fast path costs one
    /// relaxed load and a compare.
    pub fn record_slow_with(&self, op: &str, duration_ns: u64, detail: impl FnOnce() -> String) {
        if duration_ns < self.slow_threshold_ns() {
            return;
        }
        let mut slow = Self::lock(&self.inner.slow);
        if slow.len() == SLOW_LOG_CAPACITY {
            slow.remove(0);
        }
        slow.push(SlowQuery {
            op: op.to_string(),
            duration_ns,
            detail: detail(),
        });
    }

    /// A consistent-enough point-in-time copy of every instrument plus
    /// the slow log (see [`Histogram::record`] for the read-race
    /// caveat).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Self::lock(&self.inner.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = Self::lock(&self.inner.gauges)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = Self::lock(&self.inner.histograms)
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        let slow_queries = Self::lock(&self.inner.slow).clone();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            slow_queries,
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &Self::lock(&self.inner.counters).len())
            .field("gauges", &Self::lock(&self.inner.gauges).len())
            .field("histograms", &Self::lock(&self.inner.histograms).len())
            .finish()
    }
}

/// An owned distribution snapshot: total count/sum/max plus the sparse
/// non-zero buckets, sorted by bucket index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// `(bucket index, observations)` for every non-empty bucket.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, estimated as the ceiling
    /// of the bucket the target rank falls in (clamped to the observed
    /// max — so `quantile(1.0)` *is* the max). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_ceiling(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// The arithmetic mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Everything a registry held at one instant — the payload the serve
/// tier's `Metrics` wire op returns, encodable via [`codec`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` per gauge, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// `(name, distribution)` per histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// The slow-query ring buffer, oldest first.
    pub slow_queries: Vec<SlowQuery>,
}

impl MetricsSnapshot {
    /// The counter's total, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge's level, if it exists.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram's distribution, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_plain_atomics() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same instrument.
        assert_eq!(registry.counter("x").get(), 5);
        let g = registry.gauge("depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        assert_eq!(registry.gauge("depth").get(), 4);
    }

    /// The bucket boundaries the whole quantile story rests on: 0 is
    /// its own bucket, powers of two open a new bucket, and
    /// `2^i - 1` closes bucket `i`.
    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(lo), i, "floor of bucket {i}");
            assert_eq!(bucket_index(hi), i, "ceiling of bucket {i}");
            assert_eq!(bucket_ceiling(i), hi);
        }
        // The last bucket absorbs the top of the range.
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_ceiling(0), 0);
        assert_eq!(bucket_ceiling(63), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_quantiles_and_mean() {
        let h = Histogram::default();
        // 90 fast (≤ 127), 9 medium, 1 huge.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 1_000_000);
        assert_eq!(snap.sum, 90 * 100 + 9 * 1000 + 1_000_000);
        assert_eq!(snap.quantile(0.5), bucket_ceiling(bucket_index(100)));
        assert_eq!(snap.quantile(0.95), bucket_ceiling(bucket_index(1000)));
        // The tail quantiles land in the top bucket, clamped to max.
        assert_eq!(snap.quantile(0.999), 1_000_000);
        assert_eq!(snap.quantile(1.0), 1_000_000);
        assert_eq!(snap.mean(), (90 * 100 + 9 * 1000 + 1_000_000) / 100);
        // Empty histogram: all zeros.
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0);
    }

    /// The concurrency property the lock-free claim rests on: N threads
    /// recording concurrently produce exactly the same distribution as
    /// the same values recorded serially (no lost updates, per-bucket
    /// totals exact). Driven over several deterministic seeds.
    #[test]
    fn concurrent_recording_equals_merged_serial_counts() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            // Deterministic per-thread value streams (splitmix64).
            let value = |thread: u64, i: u64| {
                let mut x = seed ^ (thread << 32) ^ i;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (x ^ (x >> 31)) % 1_000_000
            };

            let concurrent = Arc::new(Histogram::default());
            let counter = Arc::new(Counter::default());
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let h = Arc::clone(&concurrent);
                    let c = Arc::clone(&counter);
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            h.record(value(t, i));
                            c.inc();
                        }
                    });
                }
            });

            let serial = Histogram::default();
            for t in 0..THREADS {
                for i in 0..PER_THREAD {
                    serial.record(value(t, i));
                }
            }
            assert_eq!(
                concurrent.snapshot(),
                serial.snapshot(),
                "seed {seed}: concurrent and serial distributions diverged"
            );
            assert_eq!(counter.get(), THREADS * PER_THREAD);
        }
    }

    #[test]
    fn spans_record_elapsed_time_on_drop() {
        let registry = MetricsRegistry::new();
        {
            let _span = registry.span("op_ns");
        }
        let explicit = Span::start(registry.histogram("op_ns")).finish();
        let snap = registry.histogram("op_ns").snapshot();
        assert_eq!(snap.count, 2);
        assert!(snap.max >= explicit.min(1));
    }

    #[test]
    fn slow_log_is_threshold_gated_and_bounded() {
        let registry = MetricsRegistry::new();
        let mut rendered = 0u32;
        // Disabled by default: nothing is logged, detail never renders.
        registry.record_slow_with("op", u64::MAX - 1, || {
            rendered += 1;
            String::new()
        });
        assert_eq!(rendered, 0);
        assert!(registry.snapshot().slow_queries.is_empty());

        registry.set_slow_threshold_ns(1_000);
        registry.record_slow_with("fast", 999, || unreachable!("below threshold"));
        for i in 0..SLOW_LOG_CAPACITY + 10 {
            registry.record_slow_with("slow", 1_000 + i as u64, || format!("q{i}"));
        }
        let slow = registry.snapshot().slow_queries;
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY, "ring buffer is bounded");
        // Oldest entries were evicted; the newest survives.
        assert_eq!(
            slow.last().unwrap().detail,
            format!("q{}", SLOW_LOG_CAPACITY + 9)
        );
        assert!(slow.iter().all(|s| s.op == "slow"));
    }

    #[test]
    fn registries_are_isolated_but_clones_share() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("n").inc();
        assert_eq!(b.counter("n").get(), 0, "separate registries");
        let a2 = a.clone();
        a2.counter("n").add(9);
        assert_eq!(a.counter("n").get(), 10, "clones share instruments");
        // The global registry is one process-wide instance.
        MetricsRegistry::global().counter("obs.test.global").inc();
        assert_eq!(
            MetricsRegistry::global().counter("obs.test.global").get(),
            1
        );
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(3);
        registry.gauge("b").set(-2);
        registry.histogram("c").record(10);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.gauge("b"), Some(-2));
        assert_eq!(snap.histogram("c").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("missing"), None);
        assert!(snap.histogram("missing").is_none());
    }
}
