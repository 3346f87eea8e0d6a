//! The store-wide bounded row-decode cache (see the module docs of
//! [`super`]).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use sitm_core::SemanticTrajectory;
use sitm_obs::{Counter, Gauge, MetricsRegistry};

/// Default byte budget of the store-wide row-decode cache (16 MiB).
pub const DEFAULT_ROW_CACHE_BYTES: usize = 16 * 1024 * 1024;

/// Instrument handles the row cache charges (`query.*` names — the
/// cache exists to make repeated query reads cheap).
#[derive(Debug, Clone)]
struct RowCacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evicted_bytes: Arc<Counter>,
    bytes: Arc<Gauge>,
}

impl RowCacheMetrics {
    fn bind(registry: &MetricsRegistry) -> RowCacheMetrics {
        RowCacheMetrics {
            hits: registry.counter("query.row_cache_hits"),
            misses: registry.counter("query.row_cache_misses"),
            evicted_bytes: registry.counter("query.row_cache_evicted_bytes"),
            bytes: registry.gauge("query.row_cache_bytes"),
        }
    }
}

/// One cached decoded row.
#[derive(Debug)]
struct RowCacheEntry {
    row: SemanticTrajectory,
    /// Charged bytes (the row's on-disk frame length — a stable proxy
    /// for decoded size that the directory already knows).
    cost: u64,
    /// Second-chance bit: set by every hit, cleared (and the entry
    /// spared once) when the eviction hand sweeps past.
    hot: bool,
}

/// The bounded store-wide row-decode cache (see the module docs):
/// `(segment id, row index)` → decoded trajectory with second-chance
/// (CLOCK) eviction, shared by every [`Segment`] of a store behind one
/// `Arc` so a byte budget caps the *store's* residency, not one
/// segment's. CLOCK keeps the hit path allocation-free — a hit sets
/// one flag instead of refiling a strict-LRU order, which matters
/// because warm paged re-scans take this path once per returned row.
/// Compaction retiring a segment id invalidates its entries wholesale;
/// segment ids are never reused, so a stale hit is impossible.
#[derive(Debug, Clone)]
pub(super) struct RowCache {
    inner: Arc<Mutex<RowCacheInner>>,
}

#[derive(Debug)]
struct RowCacheInner {
    /// Byte budget (`0` disables the cache).
    budget: u64,
    /// Charged bytes currently resident.
    bytes: u64,
    rows: HashMap<(u64, usize), RowCacheEntry>,
    /// Insertion-ordered sweep queue (the clock hand pops the front; a
    /// hot entry is cooled and re-queued, a cold one is evicted).
    sweep: VecDeque<(u64, usize)>,
    metrics: RowCacheMetrics,
}

impl RowCache {
    pub(super) fn new(budget: usize, registry: &MetricsRegistry) -> RowCache {
        RowCache {
            inner: Arc::new(Mutex::new(RowCacheInner {
                budget: budget as u64,
                bytes: 0,
                rows: HashMap::new(),
                sweep: VecDeque::new(),
                metrics: RowCacheMetrics::bind(registry),
            })),
        }
    }

    /// Looks up one row, marking it hot for the next eviction sweep. A
    /// disabled cache (budget 0) answers `None` without counting a
    /// miss.
    pub(super) fn get(&self, segment: u64, row: usize) -> Option<SemanticTrajectory> {
        let mut guard = self.inner.lock().expect("row cache poisoned");
        let inner = &mut *guard;
        if inner.budget == 0 {
            return None;
        }
        let Some(entry) = inner.rows.get_mut(&(segment, row)) else {
            inner.metrics.misses.inc();
            return None;
        };
        entry.hot = true;
        inner.metrics.hits.inc();
        Some(entry.row.clone())
    }

    /// Admits one freshly decoded row, sweeping cold entries out until
    /// the budget holds (hot entries get one second chance per sweep).
    /// A row too large for the whole budget is never admitted (it
    /// would evict everything for one uncacheable resident).
    pub(super) fn insert(&self, segment: u64, row: usize, t: &SemanticTrajectory, cost: u64) {
        let mut guard = self.inner.lock().expect("row cache poisoned");
        let inner = &mut *guard;
        if inner.budget == 0 || cost > inner.budget || inner.rows.contains_key(&(segment, row)) {
            return;
        }
        inner.rows.insert(
            (segment, row),
            RowCacheEntry {
                row: t.clone(),
                cost,
                hot: false,
            },
        );
        inner.sweep.push_back((segment, row));
        inner.bytes += cost;
        while inner.bytes > inner.budget {
            let key = inner
                .sweep
                .pop_front()
                .expect("over budget implies entries");
            let entry = inner.rows.get_mut(&key).expect("sweep and rows agree");
            if entry.hot {
                entry.hot = false;
                inner.sweep.push_back(key);
                continue;
            }
            let evicted = inner.rows.remove(&key).expect("present above");
            inner.bytes -= evicted.cost;
            inner.metrics.evicted_bytes.add(evicted.cost);
        }
        inner.metrics.bytes.set(inner.bytes as i64);
    }

    /// Drops every entry of one retired segment id (compaction's
    /// wholesale invalidation hook). Freed bytes are not counted as
    /// evictions — nothing was displaced by pressure.
    pub(super) fn invalidate_segment(&self, segment: u64) {
        let mut guard = self.inner.lock().expect("row cache poisoned");
        let inner = &mut *guard;
        if inner.rows.is_empty() {
            return;
        }
        inner.sweep.retain(|&(seg, _)| seg != segment);
        let mut freed = 0u64;
        inner.rows.retain(|&(seg, _), entry| {
            if seg == segment {
                freed += entry.cost;
                false
            } else {
                true
            }
        });
        inner.bytes -= freed;
        inner.metrics.bytes.set(inner.bytes as i64);
    }

    /// Re-points the cache's instruments at `registry`, re-reporting
    /// the current residency on the fresh gauge.
    pub(super) fn set_metrics(&self, registry: &MetricsRegistry) {
        let mut guard = self.inner.lock().expect("row cache poisoned");
        guard.metrics = RowCacheMetrics::bind(registry);
        let bytes = guard.bytes;
        guard.metrics.bytes.set(bytes as i64);
    }

    /// Charged bytes currently resident (tests assert the budget
    /// invariant through this).
    #[cfg(test)]
    pub(super) fn bytes(&self) -> u64 {
        self.inner.lock().expect("row cache poisoned").bytes
    }
}
