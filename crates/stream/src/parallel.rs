//! The work-stealing parallel runtime.
//!
//! [`ParallelEngine`] runs N worker threads over a shared scheduler of
//! **visits**, not static hash partitions. Events queue per visit;
//! ready visits sit in bounded per-worker deques; a worker that runs
//! dry *steals a whole cold visit* from the back of the busiest other
//! deque. This replaces the previous thread-per-shard channel router,
//! whose static `hash(visit) → worker` placement collapsed to
//! single-worker throughput whenever one shard went hot (the
//! single-hot-shard skew case the differential tests pin down).
//!
//! ## Why stealing cannot reorder anything
//!
//! Correctness rests on **visit-affinity pinning**: a visit's events
//! live in that visit's own FIFO queue, the visit appears in at most
//! one deque at a time, and it is *held* by at most one worker while
//! its queued events are applied. Stealing moves whole **cold** visits
//! — visits that are queued but not held, so none of their events are
//! mid-application anywhere. A visit's history is therefore applied in
//! arrival order by a single worker at a time, and every per-visit
//! decision is a pure function of that history; thread interleavings
//! remain invisible in the output (property-tested in
//! `tests/parallel_equivalence.rs` against batch `maximal_episodes` and
//! the one-worker engine for 1/2/4/8 workers, shuffled feeds, skewed
//! feeds, and crash/restore mid-stream).
//!
//! ## Design
//!
//! * **Routing** — the caller's thread buffers events and pushes them
//!   to the scheduler one batch ([`EngineConfig::batch_capacity`]) per
//!   lock acquisition; a newly ready visit lands on its *home* worker's
//!   deque (initially `hash(visit)`, migrating with each steal).
//! * **Backpressure** — total queued events are bounded at
//!   `channel_depth × batch_capacity × workers`; a producer outrunning
//!   the workers blocks instead of ballooning memory.
//! * **Sharded deposits** — what a slice *produces* (counters, drained
//!   episodes, finished trajectories, watermark advances, and the key
//!   of the visit if the slice opened it, accepted an interval into it
//!   or closed it) lands in the depositing worker's own `Deposit`
//!   behind its own lock; the scheduler mutex guards only *routing*
//!   state (visit cells, deques, fences). Workers therefore contend on
//!   the scheduler lock only to acquire and release visits, never to
//!   record results — the deposit path that used to serialize every
//!   worker through the one big mutex (ROADMAP perf follow-on from the
//!   work-stealing rewrite). Barriers merge the per-worker deposits
//!   after quiescing; merge order is worker index, and every consumer
//!   sorts by a deterministic global key, so the sharding is invisible
//!   in the output.
//! * **Barriers** — `flush`/`drain`/`take_finished`/`finish`/
//!   `checkpoint`/`live_snapshot`/`stats`/`watermark` quiesce: they push
//!   the router buffer, then wait until every queued event is applied
//!   and deposited. A barrier therefore reflects exactly the events
//!   ingested before the call (see [`crate::live_query`]).
//! * **One partition** — the watermark (the highest event time
//!   applied), the fence cap and the checkpoint frame are kept for the
//!   whole engine, so what `watermark()` reports and what a checkpoint
//!   writes depend on the ingested feed alone, not on the worker count,
//!   the router batch, or which worker applied which visit.
//! * **Live view** — the engine thread owns what `live_snapshot()`
//!   shows: every open visit's prefix behind its own `Arc`, and the
//!   [`crate::LiveIndex`] over them behind one. Workers never see it.
//!   At a cut (dispatch + quiesce, like every barrier) the engine
//!   collects the touched keys from the deposits and, for each, forgets
//!   the visit and re-derives it from its cell if it is still open —
//!   an order-free patch, so a visit stolen between workers or closed
//!   and re-opened between two cuts needs no op ordering. Every other
//!   visit is shared with the previous snapshot, so a cut costs what
//!   changed since the last one, not what is open and not what was ever
//!   emitted. A deposit lists at most `TOUCHED_BOUND` keys; past that
//!   (nobody has cut for a long time) the next cut runs the same patch
//!   over every open visit instead.
//!
//! Lock order: a worker never holds the scheduler and a deposit at
//! once; the engine thread may take a deposit *while* holding the
//! scheduler (barriers and `finish`), which cannot cycle because
//! workers only ever block on the scheduler empty-handed.
//!
//! A worker that panics marks the scheduler; subsequent engine calls
//! panic with a clear message rather than silently dropping data.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sitm_core::{Episode, SemanticTrajectory, Timestamp};
use sitm_store::{CheckpointFrame, LogStore};

use crate::checkpoint::{encode_shard, Checkpointer};
use crate::engine::{shard_of, EngineConfig, EngineError, EngineStats};
use crate::event::{StreamEvent, VisitKey};
use crate::live_index::LiveIndex;
use crate::live_query::{LiveSnapshot, LiveVisit};
use crate::shard::{EmittedEpisode, ShardSnapshot, ShardStats};
use crate::visit::VisitState;

/// One visit's slot in the scheduler.
struct VisitCell {
    /// Events pushed but not yet applied, in arrival order.
    queue: VecDeque<StreamEvent>,
    /// Open-visit state (`None` before open / after close).
    state: Option<VisitState>,
    /// Close instant, while the late-event fence is alive.
    closed_at: Option<Timestamp>,
    /// The worker whose deque this visit rides — `hash(visit)` at
    /// birth, then wherever it was last stolen to (affinity pinning).
    home: usize,
    /// Present in `home`'s deque.
    queued: bool,
    /// Currently being applied by a worker.
    held: bool,
}

impl VisitCell {
    fn new(home: usize) -> VisitCell {
        VisitCell {
            queue: VecDeque::new(),
            state: None,
            closed_at: None,
            home,
            queued: false,
            held: false,
        }
    }
}

/// The shared scheduler: visit cells, per-worker ready deques, and the
/// fence bookkeeping — *routing* state only. What slices produce goes
/// to the per-worker [`Deposit`]s instead.
struct Scheduler {
    visits: HashMap<u64, VisitCell>,
    /// Ready visits per worker; stealing pops the back of a victim.
    deques: Vec<VecDeque<u64>>,
    /// Events sitting in visit queues (backpressure + quiesce).
    queued_events: usize,
    /// Visits currently held by workers (quiesce).
    held_visits: usize,
    shutdown: bool,
    /// A worker died mid-slice; engine state is no longer trustworthy.
    panicked: bool,
    /// Live close fences, ordered by close instant, so capacity
    /// eviction is O(log n) per close, never a sweep.
    fences: BTreeSet<(Timestamp, u64)>,
}

impl Scheduler {
    fn new(workers: usize) -> Scheduler {
        Scheduler {
            visits: HashMap::new(),
            deques: (0..workers).map(|_| VecDeque::new()).collect(),
            queued_events: 0,
            held_visits: 0,
            shutdown: false,
            panicked: false,
            fences: BTreeSet::new(),
        }
    }

    fn panic_if_worker_died(&self) {
        if self.panicked {
            panic!("engine worker died (panicked); engine state is lost");
        }
    }

    /// All pushed events applied and deposited?
    fn quiesced(&self) -> bool {
        self.queued_events == 0 && self.held_visits == 0
    }

    /// Next visit for `worker`: its own deque front, else a whole cold
    /// visit stolen from the back of the longest other deque. Returns
    /// the deque the visit came from so the caller can attribute
    /// route-vs-steal and refresh that queue's depth gauge.
    fn next_for(&mut self, worker: usize) -> Option<(u64, usize)> {
        if let Some(key) = self.deques[worker].pop_front() {
            return Some((key, worker));
        }
        let victim = (0..self.deques.len())
            .filter(|&i| i != worker && !self.deques[i].is_empty())
            .max_by_key(|&i| self.deques[i].len())?;
        self.deques[victim].pop_back().map(|key| (key, victim))
    }

    /// Settles one visit cell's bookkeeping after a slice (or a
    /// synthesized close): records fence transitions in the ordered
    /// set, drops dead cells on the spot, and enforces the
    /// fence capacity by evicting the smallest close instants — O(log
    /// n) per close, never a stop-the-world sweep. Fencing itself is
    /// event-time deterministic, so reclamation below the cap is
    /// behaviorally invisible; above it, see
    /// [`EngineConfig::fence_capacity`].
    fn settle_cell(&mut self, key: u64, was_fence: Option<Timestamp>, capacity: usize) {
        let Some(cell) = self.visits.get(&key) else {
            return;
        };
        let now_fence = cell.closed_at;
        let active = cell.held || cell.queued || !cell.queue.is_empty() || cell.state.is_some();
        if was_fence != now_fence {
            if let Some(at) = was_fence {
                self.fences.remove(&(at, key));
            }
            if let Some(at) = now_fence {
                self.fences.insert((at, key));
            }
        }
        if !active && now_fence.is_none() {
            // Dead cell: a close for a never-opened visit, or a fence
            // retired with nothing queued behind it.
            self.visits.remove(&key);
            return;
        }
        // Capacity eviction, oldest close first. A held cell's fence is
        // skipped (its value is mid-application); the overshoot is
        // bounded by the worker count.
        while self.fences.len() > capacity {
            let victim = self
                .fences
                .iter()
                .copied()
                .find(|&(_, k)| self.visits.get(&k).is_none_or(|c| !c.held));
            let Some((at, k)) = victim else {
                break;
            };
            self.fences.remove(&(at, k));
            if let Some(cell) = self.visits.get_mut(&k) {
                // Evicted: stragglers will re-open implicitly, the same
                // outcome an expired fence produces.
                cell.closed_at = None;
                if cell.state.is_none() && !cell.queued && cell.queue.is_empty() {
                    self.visits.remove(&k);
                }
            }
        }
    }
}

/// One worker's private accumulator: everything its slices produce.
/// Merged (in worker order, then deterministically sorted by every
/// consumer) at barriers.
#[derive(Default)]
struct Deposit {
    /// Per-slice counter deltas, summed.
    stats: ShardStats,
    /// Episodes finalized but not yet drained.
    pending: Vec<EmittedEpisode>,
    /// Completed trajectories not yet taken by the warehouse drain.
    finished: Vec<(u64, SemanticTrajectory)>,
    /// Highest event time this worker's slices applied (monotonic;
    /// merged by max across deposits).
    watermark: Option<Timestamp>,
    /// Visits a slice opened, extended or closed since the last
    /// live-snapshot cut took this list — all that cut has to
    /// re-derive. Unordered, may repeat; holding more than
    /// [`TOUCHED_BOUND`] keys means the list is incomplete.
    touched: Vec<u64>,
}

/// Keys a deposit lists before it gives up (nobody is cutting
/// snapshots, so listing on is only memory): the next cut then
/// re-derives every open visit, which costs no more than patching this
/// many would.
const TOUCHED_BOUND: usize = 4096;

impl Deposit {
    fn touch(&mut self, key: u64) {
        if self.touched.len() <= TOUCHED_BOUND {
            self.touched.push(key);
        }
    }
}

/// Work-stealing-engine instrument handles (`engine.*` metric names),
/// resolved once at spawn so workers pay relaxed atomics only.
struct ParallelMetrics {
    events_ingested: Arc<sitm_obs::Counter>,
    events_fenced: Arc<sitm_obs::Counter>,
    visits_routed: Arc<sitm_obs::Counter>,
    visits_stolen: Arc<sitm_obs::Counter>,
    /// Live-snapshot cuts that missed the epoch cache.
    snapshot_cuts: Arc<sitm_obs::Counter>,
    /// Open visits those cuts re-derived (prefix re-cloned, postings
    /// rebuilt); every other visit was shared with the previous cut.
    snapshot_visits_recloned: Arc<sitm_obs::Counter>,
    /// Episodes emitted but not drained, as of the last barrier.
    pending_episodes: Arc<sitm_obs::Gauge>,
    /// Ready-deque depth per worker.
    queue_depth: Vec<Arc<sitm_obs::Gauge>>,
}

impl ParallelMetrics {
    fn bind(registry: &sitm_obs::MetricsRegistry, workers: usize) -> ParallelMetrics {
        ParallelMetrics {
            events_ingested: registry.counter("engine.events_ingested"),
            events_fenced: registry.counter("engine.events_fenced"),
            visits_routed: registry.counter("engine.visits_routed"),
            visits_stolen: registry.counter("engine.visits_stolen"),
            snapshot_cuts: registry.counter("engine.snapshot_cuts"),
            snapshot_visits_recloned: registry.counter("engine.snapshot_visits_recloned"),
            pending_episodes: registry.gauge("engine.pending_episodes"),
            queue_depth: (0..workers)
                .map(|i| registry.gauge(&format!("engine.queue_depth.w{i}")))
                .collect(),
        }
    }
}

/// The scheduler plus the sharded deposit tier and its condition
/// variables.
struct Shared {
    state: Mutex<Scheduler>,
    /// Instrument handles shared by workers and the engine thread.
    metrics: ParallelMetrics,
    /// One deposit per worker — slice output lands here, off the
    /// scheduler lock.
    deposits: Vec<Mutex<Deposit>>,
    /// Workers park here when no visit is ready.
    work: Condvar,
    /// The engine thread parks here (quiesce, backpressure).
    quiet: Condvar,
}

impl Shared {
    /// Waits until every pushed event is applied and deposited.
    fn quiesce(&self) -> MutexGuard<'_, Scheduler> {
        let mut guard = lock(&self.state);
        loop {
            guard.panic_if_worker_died();
            if guard.quiesced() {
                return guard;
            }
            guard = self
                .quiet
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Visits every deposit in worker order (the caller holds the
    /// quiesce guard, so none is mid-update) and republishes the
    /// undrained-episode count the visit leaves behind.
    fn sweep_deposits(&self, mut f: impl FnMut(&mut Deposit)) {
        let mut pending = 0;
        for deposit in &self.deposits {
            let mut deposit = lock(deposit);
            f(&mut deposit);
            pending += deposit.pending.len();
        }
        self.metrics.pending_episodes.set(pending as i64);
    }
}

/// Locks a mutex, recovering from poison so `Drop` can always shut the
/// workers down (a panicked worker is surfaced via the `panicked` flag
/// instead).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A visit's state while a worker (or a barrier) applies events to it
/// outside the scheduler lock.
struct Resident {
    state: Option<VisitState>,
    closed_at: Option<Timestamp>,
}

/// Everything one application slice produced.
#[derive(Default)]
struct SliceOutput {
    stats: ShardStats,
    watermark: Option<Timestamp>,
    pending: Vec<EmittedEpisode>,
    finished: Vec<(u64, SemanticTrajectory)>,
    /// The slice opened the visit, accepted an interval into it, or
    /// closed it: what a live snapshot shows of it may have changed.
    touched: bool,
}

impl SliceOutput {
    fn new() -> SliceOutput {
        SliceOutput::default()
    }
}

/// Applies one event to one visit: the late-event fence, explicit and
/// implicit opens, fixes and presences, closes, anomaly accounting,
/// episode provenance and finished-trajectory retention — every rule a
/// visit's history is judged by, in one place.
fn apply_visit_event(
    key: u64,
    event: StreamEvent,
    resident: &mut Resident,
    ctx: &crate::shard::ShardCtx<'_>,
    scratch: &mut Vec<(usize, Episode)>,
    out: &mut SliceOutput,
) {
    out.stats.events += 1;
    let t = event.time();
    out.watermark = Some(out.watermark.map_or(t, |w| w.max(t)));
    if let Some(closed_at) = resident.closed_at {
        if t <= closed_at + ctx.allowed_lateness {
            out.stats.anomalies.after_close += 1;
            return;
        }
        // Past the lateness horizon of the close: retire the fence
        // (the event falls through to the normal open / implicit-open
        // handling).
        resident.closed_at = None;
    }
    match event {
        StreamEvent::VisitOpened {
            moving_object,
            annotations,
            ..
        } => {
            if resident.state.is_some() {
                out.stats.anomalies.duplicate_opens += 1;
                return;
            }
            out.stats.visits_opened += 1;
            out.touched = true;
            resident.state = Some(VisitState::new(
                moving_object,
                annotations,
                ctx,
                &mut out.stats.anomalies,
            ));
        }
        StreamEvent::Fix { cell, at, .. } => {
            out.stats.fixes += 1;
            ensure_open(key, resident, ctx, out);
            let state = resident.state.as_mut().expect("ensured above");
            let before = state.retained_intervals().len();
            state.apply_fix(cell, at, ctx, scratch, &mut out.stats.anomalies);
            out.touched |= state.retained_intervals().len() != before;
            collect_episodes(key, state, scratch, out);
        }
        StreamEvent::Presence { interval, .. } => {
            out.stats.presences += 1;
            ensure_open(key, resident, ctx, out);
            let state = resident.state.as_mut().expect("ensured above");
            let before = state.retained_intervals().len();
            state.apply_presence(interval, ctx, scratch, &mut out.stats.anomalies);
            out.touched |= state.retained_intervals().len() != before;
            collect_episodes(key, state, scratch, out);
        }
        StreamEvent::VisitClosed { at, .. } => {
            let Some(mut state) = resident.state.take() else {
                out.stats.anomalies.after_close += 1;
                return;
            };
            state.close(ctx, scratch, &mut out.stats.anomalies);
            if ctx.retain_finished {
                // The completed trajectory heads for the warehouse
                // tier. A visit that accepted nothing has no trace
                // (Def. 3.1) and produces no record.
                if let Some(trajectory) = state.live_trajectory() {
                    out.finished.push((key, trajectory));
                }
            }
            out.stats.visits_closed += 1;
            out.touched = true;
            resident.closed_at = Some(at);
            collect_episodes(key, &state, scratch, out);
        }
    }
}

/// An observation for a visit never opened opens it implicitly, under
/// the synthetic identity `implicit-{key}`, rather than dropping data.
fn ensure_open(
    key: u64,
    resident: &mut Resident,
    ctx: &crate::shard::ShardCtx<'_>,
    out: &mut SliceOutput,
) {
    if resident.state.is_none() {
        out.stats.anomalies.implicit_opens += 1;
        out.stats.visits_opened += 1;
        out.touched = true;
        resident.state = Some(VisitState::new(
            format!("implicit-{key}"),
            sitm_core::AnnotationSet::from_iter([sitm_core::Annotation::goal("streamed")]),
            ctx,
            &mut out.stats.anomalies,
        ));
    }
}

/// Moves the episodes the last event finalized into the slice output,
/// tagged with their visit.
fn collect_episodes(
    key: u64,
    state: &VisitState,
    scratch: &mut Vec<(usize, Episode)>,
    out: &mut SliceOutput,
) {
    if scratch.is_empty() {
        return;
    }
    let moving_object = state.moving_object.clone();
    for (predicate, episode) in scratch.drain(..) {
        out.stats.episodes += 1;
        out.pending.push(EmittedEpisode {
            visit: VisitKey(key),
            moving_object: moving_object.clone(),
            predicate,
            episode,
        });
    }
}

/// Folds a slice's output into a deposit.
fn absorb_into_deposit(deposit: &mut Deposit, key: u64, out: SliceOutput) {
    if out.touched {
        deposit.touch(key);
    }
    deposit.stats.absorb(&out.stats);
    deposit.pending.extend(out.pending);
    deposit.finished.extend(out.finished);
    deposit.watermark = deposit.watermark.max(out.watermark);
}

/// The worker body: take a ready visit (own deque first, then steal a
/// cold one), apply its queued events outside every lock, publish the
/// results into this worker's own deposit, then re-enter the scheduler
/// only for cell bookkeeping.
fn worker_loop(worker: usize, shared: &Shared, config: &EngineConfig) {
    let ctx = config.ctx();
    let mut scratch: Vec<(usize, Episode)> = Vec::new();
    let mut guard = lock(&shared.state);
    loop {
        if let Some((key, source)) = guard.next_for(worker) {
            shared.metrics.queue_depth[source].set(guard.deques[source].len() as i64);
            if source != worker {
                shared.metrics.visits_stolen.inc();
            }
            let events = {
                let cell = guard.visits.get_mut(&key).expect("queued visit has a cell");
                cell.queued = false;
                cell.held = true;
                cell.home = worker;
                std::mem::take(&mut cell.queue)
            };
            let mut resident = {
                let cell = guard.visits.get_mut(&key).expect("cell");
                Resident {
                    state: cell.state.take(),
                    closed_at: cell.closed_at,
                }
            };
            guard.queued_events -= events.len();
            guard.held_visits += 1;
            drop(guard);

            let mut out = SliceOutput::new();
            for event in events {
                apply_visit_event(key, event, &mut resident, &ctx, &mut scratch, &mut out);
            }
            // Per-slice fence-rejection delta (slice outputs are fresh,
            // so this can never double-count restored history).
            if out.stats.anomalies.after_close > 0 {
                shared
                    .metrics
                    .events_fenced
                    .add(out.stats.anomalies.after_close);
            }

            // Publish while the visit is still held (it cannot be
            // re-acquired until `held` clears below), off the scheduler
            // lock.
            absorb_into_deposit(&mut lock(&shared.deposits[worker]), key, out);

            guard = lock(&shared.state);
            let (requeue, was_fence) = {
                let cell = guard.visits.get_mut(&key).expect("held cell persists");
                let was_fence = cell.closed_at;
                cell.state = resident.state;
                cell.closed_at = resident.closed_at;
                cell.held = false;
                // Events that arrived while we held the visit: it is
                // cold again — back onto our own deque.
                let requeue = !cell.queue.is_empty() && {
                    cell.queued = true;
                    true
                };
                (requeue, was_fence)
            };
            if requeue {
                guard.deques[worker].push_back(key);
            }
            guard.held_visits -= 1;
            guard.settle_cell(key, was_fence, config.fence_capacity.max(1));
            shared.quiet.notify_all();
        } else if guard.shutdown {
            break;
        } else {
            guard = shared
                .work
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// What a live snapshot shows, kept by the engine thread between cuts
/// and patched at each one.
#[derive(Default)]
struct LiveView {
    /// Every visit open at the last cut: its prefix, or `None` while it
    /// has no queryable one. Snapshots share the `Arc`s.
    visits: BTreeMap<u64, Option<Arc<LiveVisit>>>,
    /// Postings over exactly those visits. Shared with the snapshots
    /// handed out and patched through `Arc::make_mut`: a reader still
    /// holding an earlier snapshot costs the next patch one index copy
    /// and keeps its own postings unchanged.
    index: Arc<LiveIndex>,
}

impl LiveView {
    /// Forgets each of `keys` (each listed once), then re-derives it from
    /// its cell if that is (still, or again) open — order-free, so a
    /// visit stolen, or closed and re-opened, between two cuts needs no
    /// op ordering. Returns how many visits it re-derived.
    fn rederive(&mut self, scheduler: &Scheduler, keys: &[u64]) -> u64 {
        if keys.is_empty() {
            return 0;
        }
        let index = Arc::make_mut(&mut self.index);
        let mut recloned = 0;
        for &key in keys {
            self.visits.remove(&key);
            index.remove(key);
            let Some(state) = scheduler
                .visits
                .get(&key)
                .and_then(|cell| cell.state.as_ref())
            else {
                continue;
            };
            for interval in state.retained_intervals() {
                index.observe(key, &state.moving_object, interval);
            }
            let visit = state.live_trajectory().map(|trajectory| {
                Arc::new(LiveVisit {
                    visit: VisitKey(key),
                    trajectory,
                })
            });
            self.visits.insert(key, visit);
            recloned += 1;
        }
        recloned
    }

    /// Hands out the view as a snapshot, sharing every prefix and the
    /// postings.
    fn snapshot(&self, watermark: Option<Timestamp>) -> LiveSnapshot {
        let visits: Vec<Arc<LiveVisit>> = self.visits.values().flatten().cloned().collect();
        let unqueryable = self.visits.len() - visits.len();
        LiveSnapshot::from_parts(
            visits,
            watermark,
            unqueryable,
            Arc::clone(&self.index),
            true,
        )
    }
}

/// The keys of every open visit.
fn open_keys(scheduler: &Scheduler) -> Vec<u64> {
    scheduler
        .visits
        .iter()
        .filter(|(_, cell)| cell.state.is_some())
        .map(|(key, _)| *key)
        .collect()
}

/// Work-stealing online trajectory-ingestion engine: visits applied
/// concurrently, rebalanced across workers under skew, and results
/// deposited through per-worker accumulators instead of one shared
/// mutex.
pub struct ParallelEngine {
    config: Arc<EngineConfig>,
    shared: Arc<Shared>,
    buffer: Vec<StreamEvent>,
    handles: Vec<JoinHandle<()>>,
    sequence: u64,
    /// Advances whenever the queryable live state may have changed
    /// (see [`ParallelEngine::epoch`]).
    epoch: u64,
    /// Mutations since the epoch was last stamped.
    dirty: bool,
    /// The live snapshot memoized for `epoch` — a cache hit skips the
    /// dispatch + quiesce barrier entirely.
    snapshot_cache: Option<(u64, Arc<LiveSnapshot>)>,
    /// What the last cut showed; the next one patches it.
    view: LiveView,
}

impl ParallelEngine {
    /// Builds an engine, spawning `config.shards` worker threads.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        Ok(Self::create(config))
    }

    /// Rebuilds an engine from the frames of one complete checkpoint,
    /// whatever worker count wrote it (an older engine's per-shard
    /// frames are merged first). The configuration must match the one
    /// the checkpoint was taken under — predicates and interval
    /// retention, which are the operator's contract. Each visit and
    /// fence becomes a scheduler cell homed on the worker `dispatch`
    /// would give it (they rebalance from there); the episodes,
    /// finished backlog, watermark and counters go to deposit 0.
    pub fn restore(config: EngineConfig, frames: &[&CheckpointFrame]) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let (snapshot, sequence) = crate::checkpoint::decode_checkpoint(&config, frames)?;
        let mut engine = Self::create(config);
        engine.sequence = sequence;
        let workers = engine.workers();
        let mut guard = lock(&engine.shared.state);
        let mut seed = lock(&engine.shared.deposits[0]);
        seed.watermark = snapshot.watermark;
        seed.stats = snapshot.stats;
        seed.pending = snapshot.pending;
        seed.finished = snapshot.finished;
        for (key, visit) in snapshot.visits {
            // The first cut derives the restored visit like any other
            // touched one.
            seed.touch(key);
            let mut cell = VisitCell::new(shard_of(VisitKey(key), workers));
            cell.state = Some(VisitState::restore(visit, &engine.config.predicates));
            guard.visits.insert(key, cell);
        }
        for (key, at) in snapshot.closed {
            let mut cell = VisitCell::new(shard_of(VisitKey(key), workers));
            cell.closed_at = Some(at);
            guard.visits.insert(key, cell);
            guard.fences.insert((at, key));
        }
        drop((guard, seed));
        Ok(engine)
    }

    fn create(config: EngineConfig) -> Self {
        let workers = config.shards;
        let config = Arc::new(config);
        let shared = Arc::new(Shared {
            state: Mutex::new(Scheduler::new(workers)),
            metrics: ParallelMetrics::bind(&config.metrics, workers),
            deposits: (0..workers).map(|_| Mutex::default()).collect(),
            work: Condvar::new(),
            quiet: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let config = Arc::clone(&config);
                std::thread::Builder::new()
                    .name(format!("sitm-worker-{worker}"))
                    .spawn(move || {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            worker_loop(worker, &shared, &config);
                        }));
                        if run.is_err() {
                            let mut guard = lock(&shared.state);
                            guard.panicked = true;
                            drop(guard);
                            shared.work.notify_all();
                            shared.quiet.notify_all();
                        }
                    })
                    .expect("spawn engine worker thread")
            })
            .collect();
        ParallelEngine {
            config,
            shared,
            buffer: Vec::new(),
            handles,
            sequence: 0,
            epoch: 0,
            dirty: false,
            snapshot_cache: None,
            view: LiveView::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Worker threads running.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Raises the checkpoint sequence counter to at least `sequence`.
    ///
    /// Recovery calls this with the highest sequence present in the log —
    /// including torn checkpoints that were *not* restored — so the next
    /// checkpoint never reuses a sequence number whose stale frames would
    /// make it look incomplete (or duplicated) to a later recovery.
    pub fn advance_sequence_to(&mut self, sequence: u64) {
        self.sequence = self.sequence.max(sequence);
    }

    /// Routes one event toward the scheduler. Events are buffered on
    /// the caller's thread and handed over one batch per lock
    /// acquisition, so per-event cost here is one push.
    pub fn ingest(&mut self, event: StreamEvent) {
        self.dirty = true;
        self.buffer.push(event);
        if self.buffer.len() >= self.config.batch_capacity.max(1) {
            self.dispatch();
        }
    }

    /// Ingests a whole feed.
    pub fn ingest_all<I: IntoIterator<Item = StreamEvent>>(&mut self, events: I) {
        for event in events {
            self.ingest(event);
        }
    }

    /// Pushes the router buffer into the scheduler, blocking while the
    /// queued-event bound (`channel_depth × batch_capacity × workers`)
    /// is exceeded (backpressure).
    fn dispatch(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.buffer);
        let workers = self.handles.len();
        let bound = self
            .config
            .channel_depth
            .max(1)
            .saturating_mul(self.config.batch_capacity.max(1))
            .saturating_mul(workers.max(1));
        let mut guard = lock(&self.shared.state);
        while guard.queued_events >= bound {
            guard.panic_if_worker_died();
            guard = self
                .shared
                .quiet
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        guard.panic_if_worker_died();
        let batch = events.len() as u64;
        let mut routed = 0u64;
        for event in events {
            let key = event.visit().0;
            let cell = guard
                .visits
                .entry(key)
                .or_insert_with(|| VisitCell::new(shard_of(VisitKey(key), workers)));
            cell.queue.push_back(event);
            let ready = !cell.queued && !cell.held;
            let home = cell.home;
            if ready {
                cell.queued = true;
                guard.deques[home].push_back(key);
                routed += 1;
            }
            guard.queued_events += 1;
        }
        let metrics = &self.shared.metrics;
        metrics.events_ingested.add(batch);
        metrics.visits_routed.add(routed);
        for (gauge, deque) in metrics.queue_depth.iter().zip(&guard.deques) {
            gauge.set(deque.len() as i64);
        }
        drop(guard);
        self.shared.work.notify_all();
    }

    /// Applies every buffered event now (a full barrier).
    pub fn flush(&mut self) {
        self.dispatch();
        drop(self.shared.quiesce());
    }

    /// Flushes, then empties the pending pool: every episode finalized
    /// and not yet handed out, in deposit order (unsorted).
    fn take_pending(&mut self) -> Vec<EmittedEpisode> {
        self.dispatch();
        let guard = self.shared.quiesce();
        let mut out = Vec::new();
        self.shared
            .sweep_deposits(|deposit| out.append(&mut deposit.pending));
        drop(guard);
        if !out.is_empty() {
            // Handing episodes out is a new epoch (the one stamped on
            // the delta a subscriber receives).
            self.dirty = true;
        }
        out
    }

    /// Flushes, then returns every episode finalized since the last
    /// drain, in one deterministic global order
    /// ([`EmittedEpisode::sort_key`]), whatever the worker count.
    pub fn drain(&mut self) -> Vec<EmittedEpisode> {
        let mut out = self.take_pending();
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// Flushes, then bounds the pending pool to its `keep` newest
    /// episodes — the last `keep` a [`ParallelEngine::drain`] would
    /// return — and returns how many were dropped. The same barrier as
    /// a drain followed by a [`ParallelEngine::requeue_pending`] of its
    /// tail, and the same epoch and `engine.pending_episodes` effects,
    /// but the pool is only partitioned around the cut
    /// (`select_nth_unstable`), not sorted: the next drain sorts what
    /// is left anyway.
    pub fn trim_pending(&mut self, keep: usize) -> usize {
        let mut pool = self.take_pending();
        let excess = pool.len().saturating_sub(keep);
        if excess == pool.len() {
            pool.clear();
        } else if excess > 0 {
            pool.select_nth_unstable_by_key(excess, |a| a.sort_key());
            pool.drain(..excess);
        }
        self.requeue_pending(pool);
        excess
    }

    /// Returns drained episodes to the pending pool (the undo of
    /// [`ParallelEngine::drain`] for deltas that could not be
    /// delivered); the next drain re-emits them in the usual
    /// deterministic order.
    pub fn requeue_pending(&mut self, episodes: Vec<EmittedEpisode>) {
        if episodes.is_empty() {
            return;
        }
        self.dirty = true;
        self.shared
            .metrics
            .pending_episodes
            .add(episodes.len() as i64);
        lock(&self.shared.deposits[0]).pending.extend(episodes);
    }

    /// Flushes, then takes every visit trajectory completed since the
    /// last take, in deterministic global order (span start, span end,
    /// encoded bytes — [`sitm_store::sort_run`]'s canonical order, so
    /// any worker count hands a warehouse flusher the identical batch).
    /// Empty unless [`EngineConfig::with_warehouse`] is on. The
    /// exactly-once contract mirrors `drain`'s: trajectories taken
    /// before a checkpoint are never re-emitted after restore, untaken
    /// ones reappear.
    pub fn take_finished(&mut self) -> Vec<SemanticTrajectory> {
        self.dispatch();
        let guard = self.shared.quiesce();
        let mut out: Vec<SemanticTrajectory> = Vec::new();
        self.shared
            .sweep_deposits(|deposit| out.extend(deposit.finished.drain(..).map(|(_, t)| t)));
        drop(guard);
        sitm_store::sort_run(&mut out);
        out
    }

    /// End-of-stream: closes every open visit (at the engine
    /// watermark), then drains.
    pub fn finish(&mut self) -> Vec<EmittedEpisode> {
        self.dirty = true;
        self.dispatch();
        let mut guard = self.shared.quiesce();
        let ctx = self.config.ctx();
        let mut keys = open_keys(&guard);
        keys.sort_unstable();
        let mut scratch = Vec::new();
        // One deposit sweep up front: the synthesized closes stamp the
        // watermark, which they cannot raise, so it stays valid for
        // the whole loop.
        let at = self.high_water().unwrap_or(Timestamp(0));
        for key in keys {
            let mut resident = {
                let cell = guard.visits.get_mut(&key).expect("open visit");
                Resident {
                    state: cell.state.take(),
                    closed_at: cell.closed_at,
                }
            };
            let mut out = SliceOutput::new();
            apply_visit_event(
                key,
                StreamEvent::VisitClosed {
                    visit: VisitKey(key),
                    at,
                },
                &mut resident,
                &ctx,
                &mut scratch,
                &mut out,
            );
            let was_fence = {
                let cell = guard.visits.get_mut(&key).expect("open visit");
                let was_fence = cell.closed_at;
                cell.state = resident.state;
                cell.closed_at = resident.closed_at;
                was_fence
            };
            if out.stats.anomalies.after_close > 0 {
                self.shared
                    .metrics
                    .events_fenced
                    .add(out.stats.anomalies.after_close);
            }
            // Engine-thread deposit into deposit 0 — safe while holding
            // the scheduler because workers never block on the
            // scheduler holding a deposit.
            absorb_into_deposit(&mut lock(&self.shared.deposits[0]), key, out);
            guard.settle_cell(key, was_fence, self.config.fence_capacity.max(1));
        }
        let mut out = Vec::new();
        self.shared
            .sweep_deposits(|deposit| out.append(&mut deposit.pending));
        drop(guard);
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// The highest event time any deposit applied (the caller holds
    /// the quiesce guard).
    fn high_water(&self) -> Option<Timestamp> {
        let mut high = None;
        self.shared
            .sweep_deposits(|deposit| high = high.max(deposit.watermark));
        high
    }

    /// The engine's state epoch: advances whenever the queryable live
    /// state may have changed since the last stamp (an ingest, a drain,
    /// a finish, a restore, a requeue). Stamping is barrier-free — the
    /// counter is what keys the snapshot cache and what push
    /// subscribers see on notifications.
    pub fn epoch(&mut self) -> u64 {
        if self.dirty {
            self.epoch += 1;
            self.dirty = false;
            self.snapshot_cache = None;
        }
        self.epoch
    }

    /// A snapshot-consistent cut of the live state across every worker
    /// (see [`crate::live_query`] for the consistency model). The
    /// snapshot carries the live index from the same cut.
    ///
    /// The cut is **epoch-cached**: while nothing mutates the engine,
    /// repeated calls share one [`Arc`]'d snapshot — no dispatch, no
    /// quiesce barrier. Any ingest invalidates the cache, so the first
    /// call after a mutation pays a cut — which re-derives only the
    /// visits touched since the previous one.
    pub fn live_snapshot(&mut self) -> Arc<LiveSnapshot> {
        self.live_snapshot_cached().0
    }

    /// [`ParallelEngine::live_snapshot`], also reporting whether the
    /// cut was served from the epoch cache (`true` = cache hit).
    pub fn live_snapshot_cached(&mut self) -> (Arc<LiveSnapshot>, bool) {
        let epoch = self.epoch();
        if let Some((cached_epoch, snapshot)) = &self.snapshot_cache {
            if *cached_epoch == epoch {
                return (Arc::clone(snapshot), true);
            }
        }
        let _rebuild = sitm_obs::trace::child_detail("snapshot_rebuild");
        let snapshot = Arc::new(self.cut_live_snapshot());
        self.snapshot_cache = Some((epoch, Arc::clone(&snapshot)));
        (snapshot, false)
    }

    /// Cuts a fresh snapshot (the cache-miss path): dispatch, quiesce,
    /// patch the view for the visits touched since the last cut, hand
    /// out shared pointers to it.
    fn cut_live_snapshot(&mut self) -> LiveSnapshot {
        self.dispatch();
        let guard = self.shared.quiesce();
        let watermark = self.high_water();
        let mut touched = Vec::new();
        let mut complete = true;
        self.shared.sweep_deposits(|deposit| {
            complete &= deposit.touched.len() <= TOUCHED_BOUND;
            touched.append(&mut deposit.touched);
        });
        if !complete {
            // A list overflowed: start from nothing and patch every
            // open visit — the same loop over a longer list.
            self.view = LiveView::default();
            touched = open_keys(&guard);
        }
        touched.sort_unstable();
        touched.dedup();
        let recloned = self.view.rederive(&guard, &touched);
        drop(guard);
        self.shared.metrics.snapshot_cuts.inc();
        self.shared.metrics.snapshot_visits_recloned.add(recloned);
        self.view.snapshot(watermark)
    }

    /// The reference the patched cut is tested against: quiesces, then
    /// re-derives every open visit into an empty view — the overflow
    /// path of a cut, without the patched view, the touched lists or
    /// the `engine.snapshot_*` counters, so the next real cut is
    /// unaffected.
    #[doc(hidden)]
    pub fn rebuilt_snapshot(&mut self) -> LiveSnapshot {
        self.dispatch();
        let guard = self.shared.quiesce();
        let watermark = self.high_water();
        let mut view = LiveView::default();
        view.rederive(&guard, &open_keys(&guard));
        drop(guard);
        view.snapshot(watermark)
    }

    /// The engine watermark: the highest event time applied, `None`
    /// until the first event is. A barrier, like
    /// [`ParallelEngine::stats`]: the router buffer is pushed and every
    /// outstanding event applied first.
    pub fn watermark(&mut self) -> Option<Timestamp> {
        self.dispatch();
        let guard = self.shared.quiesce();
        let high = self.high_water();
        drop(guard);
        high
    }

    /// Aggregated counters. This is a barrier: the router buffer is
    /// pushed and every outstanding event applied first, so the counts
    /// are exact as of the call — unlike the old channel router, which
    /// reported around events still sitting in its batches.
    pub fn stats(&mut self) -> EngineStats {
        self.dispatch();
        let guard = self.shared.quiesce();
        let open_visits = guard
            .visits
            .values()
            .filter(|cell| cell.state.is_some())
            .count() as u64;
        let mut total = ShardStats::default();
        self.shared
            .sweep_deposits(|deposit| total.absorb(&deposit.stats));
        drop(guard);
        let mut stats = EngineStats::default();
        stats.absorb_shard(&total, open_visits);
        stats
    }

    /// Flushes and captures one complete checkpoint — one frame under
    /// a fresh sequence, whose payload is a function of the ingested
    /// feed alone — without touching a log: the building block behind
    /// [`ParallelEngine::checkpoint`] and [`Checkpointer::commit`]'s
    /// compacting commit path.
    pub fn checkpoint_frames(&mut self) -> Vec<CheckpointFrame> {
        self.dispatch();
        self.sequence += 1;
        let guard = self.shared.quiesce();
        let mut snapshot = ShardSnapshot {
            watermark: self.high_water(),
            ..ShardSnapshot::default()
        };
        let mut keys: Vec<u64> = guard.visits.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let cell = &guard.visits[&key];
            if let Some(state) = &cell.state {
                snapshot.visits.push((key, state.snapshot()));
            } else if let Some(at) = cell.closed_at {
                snapshot.closed.push((key, at));
            }
        }
        self.shared.sweep_deposits(|deposit| {
            snapshot.stats.absorb(&deposit.stats);
            snapshot.pending.extend(deposit.pending.iter().cloned());
            snapshot.finished.extend(deposit.finished.iter().cloned());
        });
        drop(guard);
        snapshot.pending.sort_by_key(|e| e.sort_key());
        snapshot
            .finished
            .sort_by_key(|(key, t)| (t.start(), t.end(), *key));
        vec![CheckpointFrame {
            sequence: self.sequence,
            shard: 0,
            shard_count: 1,
            payload: encode_shard(&snapshot, self.config.predicates.len()),
        }]
    }

    /// Persists a consistent snapshot into `log` (one
    /// [`CheckpointFrame`] under a fresh sequence number), then fsyncs.
    /// Returns the sequence.
    ///
    /// Pending (finalized but undrained) episodes are included, so the
    /// recovery contract is exactly-once relative to `drain`: episodes
    /// drained before the checkpoint are never re-emitted, episodes not
    /// yet drained reappear after restore.
    pub fn checkpoint(&mut self, log: &mut LogStore<CheckpointFrame>) -> Result<u64, EngineError> {
        let frames = self.checkpoint_frames();
        let sequence = frames[0].sequence;
        crate::checkpoint::append_and_sync(log, &frames)?;
        Ok(sequence)
    }

    /// Checkpoints through a compacting [`Checkpointer`], keeping the
    /// log bounded. Returns the sequence.
    pub fn checkpoint_into(&mut self, checkpointer: &mut Checkpointer) -> Result<u64, EngineError> {
        let frames = self.checkpoint_frames();
        let sequence = frames[0].sequence;
        checkpointer.commit(frames)?;
        Ok(sequence)
    }
}

impl Drop for ParallelEngine {
    /// Signals shutdown and joins the workers, which drain every
    /// already-pushed event first. Events still sitting in the router
    /// buffer are dropped — dropping without
    /// `drain`/`finish`/`checkpoint` abandons unflushed work. A
    /// worker that panicked is joined and ignored (its panic already
    /// surfaced on the engine thread if any call touched it).
    fn drop(&mut self) {
        {
            let mut guard = lock(&self.shared.state);
            guard.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.quiet.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{sort_feed, VisitKey};
    use sitm_core::{
        Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, TransitionTaken,
    };
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn config(shards: usize) -> EngineConfig {
        EngineConfig::new(vec![
            (IntervalPredicate::in_cells([cell(1)]), label("one")),
            (IntervalPredicate::any(), label("whole")),
        ])
        .with_shards(shards)
        .with_batch_capacity(4)
        .with_channel_depth(2)
    }

    fn feed() -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for v in 0..12u64 {
            let base = v as i64 * 10;
            events.push(StreamEvent::VisitOpened {
                visit: VisitKey(v),
                moving_object: format!("mo-{v}"),
                annotations: label("visit"),
                at: Timestamp(base),
            });
            for (i, c) in [1usize, 0, 1].iter().enumerate() {
                events.push(StreamEvent::Presence {
                    visit: VisitKey(v),
                    interval: PresenceInterval::new(
                        TransitionTaken::Unknown,
                        cell(*c),
                        Timestamp(base + i as i64 * 100),
                        Timestamp(base + i as i64 * 100 + 50),
                    ),
                });
            }
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(base + 250),
            });
        }
        sort_feed(&mut events);
        events
    }

    /// The one-worker engine applies every visit on one thread: the
    /// sequential reference every worker count must match.
    #[test]
    fn matches_sequential_engine_for_every_worker_count() {
        let mut reference = ParallelEngine::new(config(1)).unwrap();
        reference.ingest_all(feed());
        let expected = reference.finish();
        for workers in [1usize, 2, 4, 8] {
            let mut engine = ParallelEngine::new(config(workers)).unwrap();
            assert_eq!(engine.workers(), workers);
            engine.ingest_all(feed());
            assert_eq!(engine.finish(), expected, "{workers} workers");
            let stats = engine.stats();
            assert_eq!(stats.visits_opened, 12);
            assert_eq!(stats.open_visits, 0);
        }
    }

    #[test]
    fn incremental_drains_are_consistent_cuts() {
        let events = feed();
        let mid = events.len() / 2;
        let mut engine = ParallelEngine::new(config(4)).unwrap();
        engine.ingest_all(events[..mid].to_vec());
        let mut delivered = engine.drain();
        engine.ingest_all(events[mid..].to_vec());
        delivered.extend(engine.finish());
        delivered.sort_by_key(|a| a.sort_key());

        let mut oneshot = ParallelEngine::new(config(4)).unwrap();
        oneshot.ingest_all(events);
        assert_eq!(delivered, oneshot.finish());
    }

    #[test]
    fn watermark_and_stats_are_aggregated() {
        let mut engine = ParallelEngine::new(config(3)).unwrap();
        assert_eq!(engine.watermark(), None);
        engine.ingest_all(feed());
        engine.flush();
        assert!(engine.watermark() >= Some(Timestamp(250)));
        let stats = engine.stats();
        assert_eq!(stats.visits_opened, 12);
        assert_eq!(stats.presences, 36);
        assert_eq!(stats.anomalies.total(), 0);
    }

    /// `stats()` and `watermark()` must push the router buffer first,
    /// so they reflect every ingested event — the old channel router
    /// reported around buffered batches.
    #[test]
    fn stats_barrier_flushes_the_router_buffer() {
        // Batch capacity far above the feed size: every event sits in
        // the caller-side buffer until something barriers.
        let mut engine = ParallelEngine::new(config(2).with_batch_capacity(10_000)).unwrap();
        let events = feed();
        let total = events.len() as u64;
        let mut applied = ParallelEngine::new(config(2)).unwrap();
        applied.ingest_all(events.iter().cloned());
        applied.flush();
        let expected = applied.watermark();
        assert!(expected.is_some());
        engine.ingest_all(events);
        assert_eq!(
            engine.watermark(),
            expected,
            "watermark() must observe buffered events"
        );
        let stats = engine.stats();
        assert_eq!(stats.events, total, "stats() must observe buffered events");
        assert_eq!(stats.visits_opened, 12);
        assert_eq!(stats.visits_closed, 12);
    }

    /// Regression for the sharded-deposit rework: deposits accumulate
    /// per worker and merge only at barriers, so counters and drained
    /// episodes must still agree with the one-worker engine when work
    /// is spread across many workers (each with its own accumulator).
    #[test]
    fn sharded_deposits_merge_to_sequential_totals() {
        let mut reference = ParallelEngine::new(config(1)).unwrap();
        reference.ingest_all(feed());
        reference.flush();
        let expected_stats = reference.stats();
        let expected_episodes = reference.finish();

        let mut engine = ParallelEngine::new(config(8)).unwrap();
        engine.ingest_all(feed());
        engine.flush();
        assert_eq!(engine.stats(), expected_stats);
        assert_eq!(engine.finish(), expected_episodes);
    }

    #[test]
    fn take_finished_matches_sequential_and_is_exactly_once() {
        let mut reference = ParallelEngine::new(config(1).with_warehouse()).unwrap();
        reference.ingest_all(feed());
        reference.flush();
        let expected = reference.take_finished();
        assert_eq!(expected.len(), 12, "every closed visit produced a record");
        assert!(
            reference.take_finished().is_empty(),
            "drain is exactly-once"
        );

        for workers in [2usize, 8] {
            let mut engine = ParallelEngine::new(config(workers).with_warehouse()).unwrap();
            engine.ingest_all(feed());
            assert_eq!(engine.take_finished(), expected, "{workers} workers");
            assert!(engine.take_finished().is_empty());
        }
        // Without the warehouse drain nothing is retained.
        let mut plain = ParallelEngine::new(config(2)).unwrap();
        plain.ingest_all(feed());
        assert!(plain.take_finished().is_empty());
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(matches!(
            ParallelEngine::new(config(0)),
            Err(EngineError::ZeroShards)
        ));
    }

    #[test]
    fn checkpoint_restore_round_trips_across_threads() {
        let events = feed();
        let mid = events.len() / 2;
        let path = std::env::temp_dir().join(format!(
            "sitm-parallel-ckpt-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut reference = ParallelEngine::new(config(4)).unwrap();
        reference.ingest_all(events.iter().cloned());
        let expected = reference.finish();

        let mut delivered;
        {
            let mut engine = ParallelEngine::new(config(4)).unwrap();
            engine.ingest_all(events[..mid].iter().cloned());
            delivered = engine.drain();
            let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).unwrap();
            engine.checkpoint(&mut log).unwrap();
        }
        let (mut restored, _log, report) =
            crate::checkpoint::resume_from_log(config(4), &path).unwrap();
        assert!(report.is_clean());
        restored.ingest_all(events[mid..].iter().cloned());
        delivered.extend(restored.finish());
        delivered.sort_by_key(|a| a.sort_key());
        assert_eq!(delivered, expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finished_backlog_survives_checkpoint_restore() {
        let events = feed();
        let path = std::env::temp_dir().join(format!(
            "sitm-parallel-finished-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut reference = ParallelEngine::new(config(4).with_warehouse()).unwrap();
        reference.ingest_all(events.iter().cloned());
        reference.flush();
        let expected = reference.take_finished();

        {
            let mut engine = ParallelEngine::new(config(4).with_warehouse()).unwrap();
            engine.ingest_all(events.iter().cloned());
            // Checkpoint *without* taking the finished backlog: it must
            // reappear after restore (exactly-once relative to take).
            let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).unwrap();
            engine.checkpoint(&mut log).unwrap();
        }
        let (mut restored, _log, report) =
            crate::checkpoint::resume_from_log(config(4).with_warehouse(), &path).unwrap();
        assert!(report.is_clean());
        assert_eq!(restored.take_finished(), expected);
        assert!(restored.take_finished().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// `trim_pending` against what it replaced in the server's
    /// `Checkpoint` arm — drain (sorted), drop the head, requeue the
    /// tail — on a pool three times the serve tier's subscriber queue
    /// bound (4096), with episode times drawn from few values so most
    /// keys tie on time and are split by visit.
    #[test]
    fn trim_pending_keeps_what_drain_sort_requeue_kept() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sitm_core::{Episode, TimeInterval};

        const POOL: usize = 3 * 4096;
        let mut rng = StdRng::seed_from_u64(20190326);
        let pool: Vec<EmittedEpisode> = (0..POOL as u64)
            .map(|visit| {
                let start = rng.random_range(0..40i64);
                EmittedEpisode {
                    visit: VisitKey(visit),
                    moving_object: format!("mo-{visit}"),
                    predicate: rng.random_range(0..2usize),
                    episode: Episode {
                        range: 0..1,
                        time: TimeInterval::new(
                            Timestamp(start),
                            Timestamp(start + rng.random_range(0..3i64)),
                        ),
                        annotations: label("one"),
                    },
                }
            })
            .collect();
        let pending = |engine: &ParallelEngine| {
            engine
                .config()
                .metrics
                .snapshot()
                .gauge("engine.pending_episodes")
        };
        // Each engine counts into a registry of its own.
        let private = || config(2).with_metrics(sitm_obs::MetricsRegistry::new());
        for keep in [0, 1, 2048, POOL - 1, POOL, POOL + 7] {
            let mut reference = ParallelEngine::new(private()).unwrap();
            reference.requeue_pending(pool.clone());
            let before = reference.epoch();
            let mut drained = reference.drain();
            let excess = drained.len().saturating_sub(keep);
            drained.drain(..excess);
            reference.requeue_pending(drained);

            let mut engine = ParallelEngine::new(private()).unwrap();
            engine.requeue_pending(pool.clone());
            assert_eq!(engine.epoch(), before);
            assert_eq!(engine.trim_pending(keep), excess, "keep {keep}: dropped");
            assert_eq!(pending(&engine), pending(&reference), "keep {keep}: gauge");
            assert_eq!(pending(&engine), Some((POOL - excess) as i64));
            assert_eq!(engine.epoch(), reference.epoch(), "keep {keep}: epoch");
            // The same set is kept, and the next drain hands it out in
            // the same order.
            assert_eq!(engine.drain(), reference.drain(), "keep {keep}: kept");
        }
        // Nothing pending: nothing dropped, and no new epoch.
        let mut idle = ParallelEngine::new(private()).unwrap();
        let epoch = idle.epoch();
        assert_eq!(idle.trim_pending(8), 0);
        assert_eq!(idle.epoch(), epoch);
    }
}
