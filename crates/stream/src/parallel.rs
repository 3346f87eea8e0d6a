//! The work-stealing parallel runtime.
//!
//! [`ParallelEngine`] runs N worker threads over a shared scheduler of
//! **visits**, not static hash partitions. Events queue per visit;
//! ready visits sit in bounded per-worker deques; a worker that runs
//! dry *steals whole cold visits* from the back of the busiest other
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
//!   lock acquisition, draining the buffer so it keeps its capacity;
//!   each event costs one probe of the slot index, and a newly ready
//!   visit's slot lands on its *home* worker's deque (initially
//!   `hash(visit)`, migrating with each steal).
//! * **Slots and fences** — a visit that is open, has queued events or
//!   is held lives in a slot of a slab (a `Vec` with a free list),
//!   found through a key → slot index under a cheap seeded `u64` hash.
//!   Deques, slices and returns name slots, so nothing after routing
//!   probes the index until a close. A closed visit with nothing queued
//!   or held leaves the slab: its slot is freed (keeping its queue's
//!   buffer for the next visit) and its fence, a key and a close
//!   instant, moves to the fence table beside the ordered set that
//!   drives capacity eviction. An event for a fenced key revives a slot
//!   that carries the fence, so a worker judges lateness as it always
//!   did. The slab never grows past the peak of concurrently live
//!   visits, and a checkpoint merges both tables in key order.
//! * **Slices** — a worker takes up to `SLICE_VISITS` ready visits
//!   from the front of its own deque under one scheduler lock (or, only
//!   when its deque is empty, steals half the cold visits of the
//!   longest other deque, at most `SLICE_VISITS`), moving each
//!   visit's queued events into a buffer it owns and reuses, so the
//!   slot keeps its queue's buffer for the next event, and its state
//!   out as a `Box` — a pointer, never the state itself. It applies the
//!   whole slice outside every lock, visit after visit, each visit's
//!   events in arrival order; absorbs the slice's output into its
//!   deposit under one deposit lock; and returns every visit to its
//!   slot under one more scheduler lock. Three lock round trips per
//!   slice, not per visit: the scheduler's cost is per slice, not per
//!   event.
//! * **Backpressure** — the router blocks while the scheduler holds
//!   `channel_depth × batch_capacity × workers` queued events or more,
//!   then pushes its whole batch, so the queue overshoots the bound by
//!   less than one router batch; a producer outrunning the workers
//!   blocks instead of ballooning memory.
//! * **Park / notify** — a thread that cannot proceed parks and says
//!   so in the scheduler: an idle worker counts itself on `work`, and
//!   the engine thread records what it waits for on `quiet` —
//!   quiescence (a barrier) or the queued events falling below the
//!   bound (backpressure). The router notifies `work` only when a
//!   worker is parked, and a worker that returns a slice notifies
//!   `quiet` only when the engine thread's condition now holds, clearing
//!   the record, so every wakeup it sends answers a park. Nothing but
//!   the engine thread makes either condition false again, so a
//!   condition that held at the notification still holds when the
//!   engine thread wakes. A dying worker and `Drop` notify both
//!   unconditionally. A worker the router woke yields once before its
//!   first slice unless the engine thread is parked: on a CPU the two
//!   share, a thread that just slept would preempt the router mid-call,
//!   and the router's caller would wait out the worker's slices instead
//!   of the worker applying them once the router is done.
//! * **Per-worker deposits** — what a slice *produces* (counters, drained
//!   episodes, finished trajectories, watermark advances, and the keys
//!   of the visits it opened, accepted an interval into or closed)
//!   lands in the depositing worker's own `Deposit` behind its own
//!   lock; the scheduler mutex guards only *routing* state (visit
//!   slots, deques, fences, who is parked). Workers therefore contend
//!   on the scheduler lock only to take and return slices, never to
//!   record results. Barriers merge the per-worker deposits after
//!   quiescing; merge order is worker index, and every consumer sorts
//!   by a deterministic global key, so the split is invisible in the
//!   output.
//! * **Barriers** — `flush`/`drain`/`take_finished`/`finish`/
//!   `checkpoint`/`live_snapshot`/`stats`/`watermark` quiesce: they push
//!   the router buffer, then wait until every queued event is applied
//!   and deposited. A barrier therefore reflects exactly the events
//!   ingested before the call (see [`crate::live_query`]).
//! * **One partition** — the watermark (the highest event time
//!   applied), the fence cap and the checkpoint are kept for the
//!   whole engine, so what `watermark()` reports and what a checkpoint
//!   writes depend on the ingested feed alone, not on the worker count,
//!   the router batch, or which worker applied which visit.
//! * **Live view** — the engine thread owns what `live_snapshot()`
//!   shows: every open visit's prefix behind its own `Arc`, and the
//!   live postings over them behind one. Workers never see it.
//!   At a cut (dispatch + quiesce, like every barrier) the engine
//!   collects the touched keys from the deposits and, for each, forgets
//!   the visit and re-derives it from its slot if it is still open —
//!   an order-free patch, so a visit stolen between workers or closed
//!   and re-opened between two cuts needs no op ordering. Every other
//!   visit is shared with the previous snapshot, so a cut costs what
//!   changed since the last one, not what is open and not what was ever
//!   emitted. A deposit lists at most `TOUCHED_BOUND` keys; past that
//!   (nobody has cut for a long time) the next cut runs the same patch
//!   over every open visit instead.
//!
//! Lock order: a worker never holds the scheduler and a deposit at
//! once — it takes a slice under the scheduler (the visits' events and
//! boxed states leave their slots, which stay the visits' own while
//! held), absorbs it under its deposit, and returns it under the
//! scheduler (each state back into its slot, an idle closed visit's
//! fence into the fence table), one lock at a time; the
//! engine thread may take a deposit *while* holding the scheduler
//! (barriers and `finish`), which cannot cycle because workers only
//! ever block on the scheduler empty-handed.
//!
//! A worker that panics marks the scheduler; subsequent engine calls
//! panic with a clear message rather than silently dropping data.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sitm_core::{Episode, SemanticTrajectory, Timestamp};

use crate::checkpoint::{encode_state, EngineState};
use crate::engine::{home_worker, EmittedEpisode, EngineConfig, EngineError, EngineStats};
use crate::event::{StreamEvent, VisitKey};
use crate::live_index::LiveIndex;
use crate::live_query::{LiveSnapshot, LiveVisit};
use crate::visit::VisitState;

/// Most ready visits a worker takes from its own deque per slice: one
/// scheduler round trip moves up to this many visits out and back.
const SLICE_VISITS: usize = 64;

/// Hashes a visit key for the scheduler's tables with one folded
/// 128-bit multiply: the router probes the slot index once per event,
/// and SipHash there cost about a tenth of the router's time. Visit
/// keys come from clients, so the seed is drawn per engine: crafted
/// keys cannot be made to collide in advance.
#[derive(Clone, Copy)]
struct KeyHash {
    seed: u64,
}

impl KeyHash {
    fn new() -> KeyHash {
        KeyHash {
            seed: std::collections::hash_map::RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.seed)
    }
}

struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// A table keyed by visit key.
type KeyMap<V> = HashMap<u64, V, KeyHash>;

/// One live visit's slot in the scheduler's slab: a visit that is open,
/// has queued events, or is held by a worker.
struct VisitSlot {
    key: u64,
    /// Events pushed but not yet applied, in arrival order. Drained,
    /// not taken, by a slice, and kept when the slot is freed, so the
    /// slab allocates a queue once per slot, not once per visit.
    queue: VecDeque<StreamEvent>,
    /// Open-visit state (`None` before open / after close), boxed so a
    /// slice moves a pointer, not the state.
    state: Option<Box<VisitState>>,
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

/// The shared scheduler: visit slots, per-worker ready deques, and the
/// fence bookkeeping — *routing* state only. What slices produce goes
/// to the per-worker [`Deposit`]s instead.
struct Scheduler {
    /// Slot of every visit that is open, queued or held.
    index: KeyMap<u32>,
    /// The slab those slots live in; a slot in `free` belongs to no
    /// visit. It never grows past the peak of concurrently live visits.
    slots: Vec<VisitSlot>,
    free: Vec<u32>,
    /// Closed visits with a live fence and nothing queued or held:
    /// key → close instant. An event for one revives a slot carrying
    /// the fence. Disjoint from `index`.
    fenced: KeyMap<Timestamp>,
    /// Ready visits (slots) per worker; stealing pops the back of a
    /// victim.
    deques: Vec<VecDeque<u32>>,
    /// Events sitting in visit queues (backpressure + quiesce).
    queued_events: usize,
    /// Visits currently held by workers (quiesce).
    held_visits: usize,
    /// Workers parked on `work`: the router wakes them only if any.
    idle_workers: usize,
    /// What the engine thread, parked on `quiet`, waits for; `None`
    /// while it is not parked (or has been sent its wakeup).
    waiter: Option<Wait>,
    shutdown: bool,
    /// A worker died mid-slice; engine state is no longer trustworthy.
    panicked: bool,
    /// Every live fence, in `fenced` or on a slot, ordered by close
    /// instant, so capacity eviction is O(log n) per close, never a
    /// sweep.
    fences: BTreeSet<(Timestamp, u64)>,
}

impl Scheduler {
    fn new(workers: usize) -> Scheduler {
        Scheduler {
            index: KeyMap::with_hasher(KeyHash::new()),
            slots: Vec::new(),
            free: Vec::new(),
            fenced: KeyMap::with_hasher(KeyHash::new()),
            deques: (0..workers).map(|_| VecDeque::new()).collect(),
            queued_events: 0,
            held_visits: 0,
            idle_workers: 0,
            waiter: None,
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

    /// Does what the engine thread waits for hold?
    fn holds(&self, wait: Wait) -> bool {
        match wait {
            Wait::Quiesced => self.quiesced(),
            Wait::Below(bound) => self.queued_events < bound,
        }
    }

    /// Takes the engine thread's wait record if its condition now
    /// holds: the caller then owes it one `quiet` notification.
    fn wake_waiter(&mut self) -> bool {
        let ready = self.waiter.is_some_and(|wait| self.holds(wait));
        if ready {
            self.waiter = None;
        }
        ready
    }

    /// `key`'s slot, giving it one if it has none: a free slot (or a
    /// new one), homed on `hash(key)`, carrying the key's fence if it
    /// has one.
    fn slot_of(&mut self, key: u64, workers: usize) -> u32 {
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let closed_at = self.fenced.remove(&key);
        let home = home_worker(VisitKey(key), workers);
        let slot = match self.free.pop() {
            Some(slot) => {
                let visit = &mut self.slots[slot as usize];
                visit.key = key;
                visit.closed_at = closed_at;
                visit.home = home;
                slot
            }
            None => {
                self.slots.push(VisitSlot {
                    key,
                    queue: VecDeque::new(),
                    state: None,
                    closed_at,
                    home,
                    queued: false,
                    held: false,
                });
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live visits")
            }
        };
        self.index.insert(key, slot);
        slot
    }

    /// Frees an idle slot (no state, nothing queued, not held); a fence
    /// it carries moves to the fence table.
    fn release(&mut self, slot: u32) {
        let visit = &mut self.slots[slot as usize];
        self.index.remove(&visit.key);
        if let Some(at) = visit.closed_at.take() {
            self.fenced.insert(visit.key, at);
        }
        self.free.push(slot);
    }

    /// The state of `key`'s visit, if it is open.
    fn state_of(&self, key: u64) -> Option<&VisitState> {
        let &slot = self.index.get(&key)?;
        self.slots[slot as usize].state.as_deref()
    }

    /// The key and slot of every open visit, in key order.
    fn open_slots(&self) -> Vec<(u64, u32)> {
        let mut open: Vec<(u64, u32)> = (0u32..)
            .zip(&self.slots)
            .filter(|(_, visit)| visit.state.is_some())
            .map(|(slot, visit)| (visit.key, slot))
            .collect();
        open.sort_unstable();
        open
    }

    /// `worker`'s next slice: up to [`SLICE_VISITS`] visits from the
    /// front of its own deque, else whole cold visits stolen from the
    /// back of the longest other deque — half of them, rounded up, at
    /// most [`SLICE_VISITS`]. Each visit is marked held and homed on
    /// `worker`, its queued events are moved onto the end of `events`
    /// (its queue keeps its buffer) and its boxed state into `slice`.
    /// Returns the deque the slice came from so the caller can
    /// attribute route-vs-steal and refresh that queue's depth gauge.
    fn take_slice(
        &mut self,
        worker: usize,
        slice: &mut Vec<HeldVisit>,
        events: &mut Vec<StreamEvent>,
    ) -> Option<usize> {
        let (source, visits) = if self.deques[worker].is_empty() {
            let victim = (0..self.deques.len())
                .filter(|&i| i != worker && !self.deques[i].is_empty())
                .max_by_key(|&i| self.deques[i].len())?;
            let half = self.deques[victim].len().div_ceil(2);
            (victim, half.min(SLICE_VISITS))
        } else {
            (worker, self.deques[worker].len().min(SLICE_VISITS))
        };
        for _ in 0..visits {
            let deque = &mut self.deques[source];
            let slot = if source == worker {
                deque.pop_front()
            } else {
                deque.pop_back()
            }
            .expect("counted above");
            let visit = &mut self.slots[slot as usize];
            visit.queued = false;
            visit.held = true;
            visit.home = worker;
            let queued = visit.queue.len();
            events.extend(visit.queue.drain(..));
            slice.push(HeldVisit {
                key: visit.key,
                slot,
                events: queued,
                resident: Resident {
                    state: visit.state.take(),
                    closed_at: visit.closed_at,
                },
            });
            self.queued_events -= queued;
        }
        self.held_visits += visits;
        Some(source)
    }

    /// Returns a slice's visits to their slots: state and fence back,
    /// a visit whose queue refilled meanwhile back onto `worker`'s
    /// deque, then each slot settled.
    fn return_slice(&mut self, worker: usize, slice: &mut Vec<HeldVisit>, capacity: usize) {
        for held in slice.drain(..) {
            let visit = &mut self.slots[held.slot as usize];
            let was_fence = visit.closed_at;
            visit.state = held.resident.state;
            visit.closed_at = held.resident.closed_at;
            visit.held = false;
            // Events that arrived while the visit was held: it is cold
            // again — back onto this worker's deque.
            if !visit.queue.is_empty() {
                visit.queued = true;
                self.deques[worker].push_back(held.slot);
            }
            self.held_visits -= 1;
            self.settle_slot(held.slot, was_fence, capacity);
        }
    }

    /// Settles one visit slot's bookkeeping after a slice (or a
    /// synthesized close): records fence transitions in the ordered
    /// set, frees an idle slot on the spot (its fence, if any, moving
    /// to the fence table), and enforces the fence capacity by evicting
    /// the smallest close instants — O(log n) per close, never a
    /// stop-the-world sweep. Fencing itself is event-time
    /// deterministic, so reclamation below the cap is behaviorally
    /// invisible; above it, see [`EngineConfig::fence_capacity`].
    fn settle_slot(&mut self, slot: u32, was_fence: Option<Timestamp>, capacity: usize) {
        let visit = &self.slots[slot as usize];
        let key = visit.key;
        let now_fence = visit.closed_at;
        let active = visit.held || visit.queued || !visit.queue.is_empty() || visit.state.is_some();
        if was_fence != now_fence {
            if let Some(at) = was_fence {
                self.fences.remove(&(at, key));
            }
            if let Some(at) = now_fence {
                self.fences.insert((at, key));
            }
        }
        if !active {
            self.release(slot);
            if now_fence.is_none() {
                // Dead: a close for a never-opened visit, or a fence
                // retired with nothing queued behind it.
                return;
            }
        }
        // Capacity eviction, oldest close first. A held visit's fence is
        // skipped (its value is mid-application); the overshoot is
        // bounded by the visits held in slices.
        while self.fences.len() > capacity {
            let victim = self.fences.iter().copied().find(|&(_, k)| {
                self.index
                    .get(&k)
                    .is_none_or(|&slot| !self.slots[slot as usize].held)
            });
            let Some((at, k)) = victim else {
                break;
            };
            self.fences.remove(&(at, k));
            // Evicted: stragglers will re-open implicitly, the same
            // outcome an expired fence produces. A fence outside the
            // table is on a slot revived by queued events, which keeps
            // its slot for them.
            if self.fenced.remove(&k).is_none() {
                if let Some(&slot) = self.index.get(&k) {
                    self.slots[slot as usize].closed_at = None;
                }
            }
        }
    }
}

/// What the engine thread waits for while parked on `quiet`.
#[derive(Clone, Copy)]
enum Wait {
    /// Every pushed event applied and deposited (a barrier).
    Quiesced,
    /// Fewer queued events than this bound (backpressure).
    Below(usize),
}

/// One worker's private accumulator: everything its slices produce.
/// Merged (in worker order, then deterministically sorted by every
/// consumer) at barriers.
#[derive(Default)]
struct Deposit {
    /// Per-slice counter deltas, summed.
    stats: EngineStats,
    /// Episodes finalized but not yet drained.
    pending: Vec<EmittedEpisode>,
    /// Completed trajectories not yet taken by the warehouse drain.
    finished: Vec<SemanticTrajectory>,
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
    /// Scheduler round trips of workers, each taking at least one visit.
    slices: Arc<sitm_obs::Counter>,
    /// Times the engine thread parked on `quiet` (barrier or
    /// backpressure).
    parks: Arc<sitm_obs::Counter>,
    /// `quiet` notifications workers sent, each to a parked engine
    /// thread whose condition held.
    wakeups: Arc<sitm_obs::Counter>,
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
            slices: registry.counter("engine.slices"),
            parks: registry.counter("engine.parks"),
            wakeups: registry.counter("engine.wakeups"),
            snapshot_cuts: registry.counter("engine.snapshot_cuts"),
            snapshot_visits_recloned: registry.counter("engine.snapshot_visits_recloned"),
            pending_episodes: registry.gauge("engine.pending_episodes"),
            queue_depth: (0..workers)
                .map(|i| registry.gauge(&format!("engine.queue_depth.w{i}")))
                .collect(),
        }
    }
}

/// The scheduler plus the per-worker deposit tier and its condition
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
        self.park_until(lock(&self.state), Wait::Quiesced)
    }

    /// Parks the engine thread on `quiet` until `wait` holds, recording
    /// it in the scheduler so that only a worker that makes it hold
    /// sends a wakeup.
    fn park_until<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Scheduler>,
        wait: Wait,
    ) -> MutexGuard<'a, Scheduler> {
        loop {
            guard.panic_if_worker_died();
            if guard.holds(wait) {
                guard.waiter = None;
                return guard;
            }
            guard.waiter = Some(wait);
            self.metrics.parks.inc();
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
    state: Option<Box<VisitState>>,
    closed_at: Option<Timestamp>,
}

/// A visit a worker holds for one slice.
struct HeldVisit {
    key: u64,
    slot: u32,
    /// How many of the slice's events are this visit's (they follow the
    /// slice's earlier visits' events).
    events: usize,
    resident: Resident,
}

/// Everything one application slice produced. A worker keeps one and
/// reuses its buffers from slice to slice.
#[derive(Default)]
struct SliceOutput {
    stats: EngineStats,
    watermark: Option<Timestamp>,
    pending: Vec<EmittedEpisode>,
    finished: Vec<SemanticTrajectory>,
    /// The events applied since the last [`SliceOutput::end_visit`]
    /// opened their visit, accepted an interval into it, or closed it:
    /// what a live snapshot shows of it may have changed.
    touched: bool,
    /// The slice's visits whose events touched them.
    touched_keys: Vec<u64>,
}

impl SliceOutput {
    /// Ends the run of `key`'s events, listing it if they touched it.
    fn end_visit(&mut self, key: u64) {
        if std::mem::take(&mut self.touched) {
            self.touched_keys.push(key);
        }
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
    config: &EngineConfig,
    scratch: &mut Vec<(usize, Episode)>,
    out: &mut SliceOutput,
) {
    let predicates = &config.predicates;
    out.stats.events += 1;
    let t = event.time();
    out.watermark = Some(out.watermark.map_or(t, |w| w.max(t)));
    if let Some(closed_at) = resident.closed_at {
        if t <= closed_at + config.allowed_lateness {
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
            resident.state = Some(Box::new(VisitState::new(
                moving_object,
                annotations,
                predicates,
                &mut out.stats.anomalies,
            )));
        }
        StreamEvent::Fix { cell, at, .. } => {
            out.stats.fixes += 1;
            ensure_open(key, resident, config, out);
            let state = resident.state.as_mut().expect("ensured above");
            let before = state.retained_intervals().len();
            state.apply_fix(cell, at, predicates, scratch, &mut out.stats.anomalies);
            out.touched |= state.retained_intervals().len() != before;
            collect_episodes(key, state, scratch, out);
        }
        StreamEvent::Presence { interval, .. } => {
            out.stats.presences += 1;
            ensure_open(key, resident, config, out);
            let state = resident.state.as_mut().expect("ensured above");
            let before = state.retained_intervals().len();
            state.apply_presence(interval, predicates, scratch, &mut out.stats.anomalies);
            out.touched |= state.retained_intervals().len() != before;
            collect_episodes(key, state, scratch, out);
        }
        StreamEvent::VisitClosed { at, .. } => {
            let Some(mut state) = resident.state.take() else {
                out.stats.anomalies.after_close += 1;
                return;
            };
            state.close(predicates, scratch, &mut out.stats.anomalies);
            out.stats.visits_closed += 1;
            out.touched = true;
            resident.closed_at = Some(at);
            collect_episodes(key, &state, scratch, out);
            if config.retain_finished {
                // The completed trajectory heads for the warehouse
                // tier. A visit that accepted nothing has no trace
                // (Def. 3.1) and produces no record.
                if let Some(trajectory) = state.into_trajectory() {
                    out.finished.push(trajectory);
                }
            }
        }
    }
}

/// An observation for a visit never opened opens it implicitly, under
/// the synthetic identity `implicit-{key}`, rather than dropping data.
fn ensure_open(key: u64, resident: &mut Resident, config: &EngineConfig, out: &mut SliceOutput) {
    if resident.state.is_none() {
        out.stats.anomalies.implicit_opens += 1;
        out.stats.visits_opened += 1;
        out.touched = true;
        resident.state = Some(Box::new(VisitState::new(
            format!("implicit-{key}"),
            sitm_core::AnnotationSet::from_iter([sitm_core::Annotation::goal("streamed")]),
            &config.predicates,
            &mut out.stats.anomalies,
        )));
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
    for (predicate, episode) in scratch.drain(..) {
        out.stats.episodes += 1;
        out.pending.push(EmittedEpisode {
            visit: VisitKey(key),
            moving_object: state.moving_object.clone(),
            predicate,
            episode,
        });
    }
}

/// Folds a slice's output into a deposit, leaving the output empty
/// with its buffers kept.
fn absorb_into_deposit(deposit: &mut Deposit, out: &mut SliceOutput) {
    for key in out.touched_keys.drain(..) {
        deposit.touch(key);
    }
    deposit.stats.absorb(&std::mem::take(&mut out.stats));
    deposit.pending.append(&mut out.pending);
    deposit.finished.append(&mut out.finished);
    deposit.watermark = deposit.watermark.max(out.watermark.take());
}

/// The worker body: take a slice of ready visits (own deque first,
/// else steal cold ones), apply their queued events outside every
/// lock, publish the results into this worker's own deposit, then
/// re-enter the scheduler only for slot bookkeeping — and wake the
/// engine thread only if it waits for what this slice made hold.
fn worker_loop(worker: usize, shared: &Shared, config: &EngineConfig) {
    let capacity = config.fence_capacity.max(1);
    let mut scratch: Vec<(usize, Episode)> = Vec::new();
    let mut slice: Vec<HeldVisit> = Vec::new();
    let mut events: Vec<StreamEvent> = Vec::new();
    let mut out = SliceOutput::default();
    let mut guard = lock(&shared.state);
    loop {
        let Some(source) = guard.take_slice(worker, &mut slice, &mut events) else {
            if guard.shutdown {
                break;
            }
            guard.idle_workers += 1;
            guard = shared
                .work
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.idle_workers -= 1;
            if guard.waiter.is_none() {
                // Woken by a router that may be mid-call: on a CPU the
                // two share, a thread that just slept preempts it, and
                // the router's caller would wait out this worker's
                // slices. Yield once so the router finishes first; on a
                // CPU of its own the worker gets it straight back. (An
                // engine thread parked on `quiet` is done routing.)
                drop(guard);
                std::thread::yield_now();
                guard = lock(&shared.state);
            }
            continue;
        };
        shared.metrics.queue_depth[source].set(guard.deques[source].len() as i64);
        drop(guard);
        shared.metrics.slices.inc();
        if source != worker {
            shared.metrics.visits_stolen.add(slice.len() as u64);
        }

        let mut queued = events.drain(..);
        for held in &mut slice {
            for event in queued.by_ref().take(held.events) {
                apply_visit_event(
                    held.key,
                    event,
                    &mut held.resident,
                    config,
                    &mut scratch,
                    &mut out,
                );
            }
            out.end_visit(held.key);
        }
        drop(queued);
        // Per-slice fence-rejection delta (absorbing empties the
        // output, so this can never double-count restored history).
        if out.stats.anomalies.after_close > 0 {
            shared
                .metrics
                .events_fenced
                .add(out.stats.anomalies.after_close);
        }

        // Publish while the visits are still held (none can be
        // re-acquired until `held` clears below), off the scheduler
        // lock.
        absorb_into_deposit(&mut lock(&shared.deposits[worker]), &mut out);

        guard = lock(&shared.state);
        guard.return_slice(worker, &mut slice, capacity);
        if guard.wake_waiter() {
            shared.metrics.wakeups.inc();
            shared.quiet.notify_one();
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
    /// its slot if that is (still, or again) open — order-free, so a
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
            let Some(state) = scheduler.state_of(key) else {
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
        LiveSnapshot::from_parts(visits, watermark, unqueryable, Arc::clone(&self.index))
    }
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

    /// Rebuilds an engine from the bytes of one
    /// [`ParallelEngine::checkpoint`], whatever worker count wrote it.
    /// The configuration must have the predicates the checkpoint was
    /// taken under: they are code, not state. The bytes are outside
    /// input: anything that does not decode is an error, never a panic.
    /// Each open visit takes a scheduler slot homed on the worker
    /// `dispatch` would give it (they rebalance from there), each fence
    /// goes to the fence table, and the episodes, finished backlog,
    /// watermark and counters go to deposit 0. A key listed twice keeps
    /// its last entry, and a key listed both open and closed restores
    /// fenced, its open state dropped: the closed list is read second.
    pub fn restore(config: EngineConfig, checkpoint: &[u8]) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let state = crate::checkpoint::decode_checkpoint(&config, checkpoint)?;
        let engine = Self::create(config);
        let workers = engine.workers();
        let mut guard = lock(&engine.shared.state);
        let mut seed = lock(&engine.shared.deposits[0]);
        seed.watermark = state.watermark;
        seed.stats = state.stats;
        seed.pending = state.pending;
        seed.finished = state.finished;
        for (key, visit) in state.visits {
            // The first cut derives the restored visit like any other
            // touched one.
            seed.touch(key);
            let slot = guard.slot_of(key, workers);
            let restored = VisitState::restore(visit, &engine.config.predicates);
            guard.slots[slot as usize].state = Some(Box::new(restored));
        }
        for (key, at) in state.closed {
            // Listed closed after open: the key is fenced, not open.
            if let Some(&slot) = guard.index.get(&key) {
                guard.slots[slot as usize].state = None;
                guard.release(slot);
            }
            if let Some(earlier) = guard.fenced.insert(key, at) {
                guard.fences.remove(&(earlier, key));
            }
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
    /// queued events reach the bound (`channel_depth × batch_capacity ×
    /// workers`, backpressure), then pushing the whole buffer; wakes
    /// the workers only if one is parked.
    fn dispatch(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let workers = self.handles.len();
        let bound = self
            .config
            .channel_depth
            .max(1)
            .saturating_mul(self.config.batch_capacity.max(1))
            .saturating_mul(workers.max(1));
        let mut guard = self
            .shared
            .park_until(lock(&self.shared.state), Wait::Below(bound));
        let scheduler = &mut *guard;
        let batch = self.buffer.len() as u64;
        let mut routed = 0u64;
        // Drained, so the buffer keeps its capacity for the next batch.
        for event in self.buffer.drain(..) {
            let slot = scheduler.slot_of(event.visit().0, workers);
            let visit = &mut scheduler.slots[slot as usize];
            visit.queue.push_back(event);
            if !visit.queued && !visit.held {
                visit.queued = true;
                scheduler.deques[visit.home].push_back(slot);
                routed += 1;
            }
        }
        scheduler.queued_events += batch as usize;
        let metrics = &self.shared.metrics;
        metrics.events_ingested.add(batch);
        metrics.visits_routed.add(routed);
        for (gauge, deque) in metrics.queue_depth.iter().zip(&guard.deques) {
            gauge.set(deque.len() as i64);
        }
        let idle = guard.idle_workers > 0;
        drop(guard);
        if idle {
            self.shared.work.notify_all();
        }
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
            .sweep_deposits(|deposit| out.append(&mut deposit.finished));
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
        let open = guard.open_slots();
        let mut scratch = Vec::new();
        // One deposit sweep up front: the synthesized closes stamp the
        // watermark, which they cannot raise, so it stays valid for
        // the whole loop.
        let at = self.high_water().unwrap_or(Timestamp(0));
        let mut out = SliceOutput::default();
        for (key, slot) in open {
            let visit = &mut guard.slots[slot as usize];
            let mut resident = Resident {
                state: visit.state.take(),
                closed_at: visit.closed_at,
            };
            apply_visit_event(
                key,
                StreamEvent::VisitClosed {
                    visit: VisitKey(key),
                    at,
                },
                &mut resident,
                &self.config,
                &mut scratch,
                &mut out,
            );
            let visit = &mut guard.slots[slot as usize];
            let was_fence = visit.closed_at;
            visit.state = resident.state;
            visit.closed_at = resident.closed_at;
            if out.stats.anomalies.after_close > 0 {
                self.shared
                    .metrics
                    .events_fenced
                    .add(out.stats.anomalies.after_close);
            }
            out.end_visit(key);
            // Engine-thread deposit into deposit 0 — safe while holding
            // the scheduler because workers never block on the
            // scheduler holding a deposit.
            absorb_into_deposit(&mut lock(&self.shared.deposits[0]), &mut out);
            guard.settle_slot(slot, was_fence, self.config.fence_capacity.max(1));
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
            touched = guard.open_slots().into_iter().map(|(key, _)| key).collect();
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
        let open: Vec<u64> = guard.open_slots().into_iter().map(|(key, _)| key).collect();
        view.rederive(&guard, &open);
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
            .slots
            .iter()
            .filter(|visit| visit.state.is_some())
            .count() as u64;
        let mut stats = EngineStats {
            open_visits,
            ..EngineStats::default()
        };
        self.shared
            .sweep_deposits(|deposit| stats.absorb(&deposit.stats));
        drop(guard);
        stats
    }

    /// Flushes and captures the engine's whole state as bytes, a
    /// function of the ingested feed alone, for
    /// [`ParallelEngine::restore`]. Durability is the caller's: the
    /// engine writes nothing.
    ///
    /// Pending (finalized but undrained) episodes and the finished
    /// backlog are included, so recovery is exactly-once relative to
    /// `drain` and `take_finished`: what was handed out before the
    /// checkpoint is never re-emitted after restore, what was not
    /// reappears.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        self.dispatch();
        let guard = self.shared.quiesce();
        let mut state = EngineState {
            watermark: self.high_water(),
            ..EngineState::default()
        };
        // Both tables, each in key order. Quiesced, every slot is open
        // or free, so every fence is in the fence table.
        for (key, slot) in guard.open_slots() {
            let visit = guard.slots[slot as usize].state.as_ref();
            state.visits.push((key, visit.expect("open").snapshot()));
        }
        state.closed = guard.fenced.iter().map(|(&key, &at)| (key, at)).collect();
        state.closed.sort_unstable();
        self.shared.sweep_deposits(|deposit| {
            state.stats.absorb(&deposit.stats);
            state.pending.extend(deposit.pending.iter().cloned());
            state.finished.extend(deposit.finished.iter().cloned());
        });
        drop(guard);
        state.pending.sort_by_key(|e| e.sort_key());
        // The order `take_finished` hands the backlog out in.
        sitm_store::sort_run(&mut state.finished);
        encode_state(&state, self.config.predicates.len())
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
    use sitm_graph::{CellRef, LayerIdx, NodeId};

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

    /// A closed visit leaves the slab: after a quiesced feed whose
    /// visits all closed, no visit holds a slot, the fence table holds
    /// every close, and the slab is no larger than the most visits ever
    /// live at once, since each close frees its slot for the next open.
    /// A late event revives a slot that carries the fence and, rejected,
    /// hands the fence back.
    #[test]
    fn closed_visits_leave_the_slab_for_the_fence_table() {
        // Visit v is open from 100 v to 100 v + 150: two at a time.
        let mut events = Vec::new();
        for v in 0..12u64 {
            let base = v as i64 * 100;
            events.push(StreamEvent::VisitOpened {
                visit: VisitKey(v),
                moving_object: format!("mo-{v}"),
                annotations: label("visit"),
                at: Timestamp(base),
            });
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(1),
                    Timestamp(base + 10),
                    Timestamp(base + 60),
                ),
            });
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(base + 150),
            });
        }
        sort_feed(&mut events);
        let closes: Vec<(u64, Timestamp)> = (0..12u64)
            .map(|v| (v, Timestamp(v as i64 * 100 + 150)))
            .collect();
        let tables = |engine: &ParallelEngine| {
            let scheduler = lock(&engine.shared.state);
            let mut fenced: Vec<(u64, Timestamp)> =
                scheduler.fenced.iter().map(|(&k, &at)| (k, at)).collect();
            fenced.sort_unstable();
            assert!(scheduler.index.is_empty(), "no visit holds a slot");
            assert_eq!(scheduler.free.len(), scheduler.slots.len());
            assert_eq!(scheduler.fences.len(), fenced.len());
            (fenced, scheduler.slots.len())
        };

        for workers in [1, 2, 4] {
            let mut engine = ParallelEngine::new(config(workers)).unwrap();
            for event in events.iter().cloned() {
                engine.ingest(event);
                engine.flush();
            }
            let (fenced, slab) = tables(&engine);
            assert_eq!(fenced, closes, "{workers} workers");
            assert!(
                slab <= 2,
                "{workers} workers: {slab} slots for 2 live visits"
            );

            engine.ingest(StreamEvent::Presence {
                visit: VisitKey(0),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(0),
                    Timestamp(200),
                    Timestamp(210),
                ),
            });
            engine.flush();
            assert_eq!(engine.stats().anomalies.after_close, 1);
            assert_eq!(tables(&engine), (closes.clone(), slab));
        }
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

        let mut reference = ParallelEngine::new(config(4)).unwrap();
        reference.ingest_all(events.iter().cloned());
        let expected = reference.finish();

        let mut engine = ParallelEngine::new(config(4)).unwrap();
        engine.ingest_all(events[..mid].iter().cloned());
        let mut delivered = engine.drain();
        let checkpoint = engine.checkpoint();
        drop(engine);
        let mut restored = ParallelEngine::restore(config(4), &checkpoint).unwrap();
        restored.ingest_all(events[mid..].iter().cloned());
        delivered.extend(restored.finish());
        delivered.sort_by_key(|a| a.sort_key());
        assert_eq!(delivered, expected);
    }

    #[test]
    fn finished_backlog_survives_checkpoint_restore() {
        let events = feed();

        let mut reference = ParallelEngine::new(config(4).with_warehouse()).unwrap();
        reference.ingest_all(events.iter().cloned());
        reference.flush();
        let expected = reference.take_finished();

        let mut engine = ParallelEngine::new(config(4).with_warehouse()).unwrap();
        engine.ingest_all(events.iter().cloned());
        // Checkpoint *without* taking the finished backlog: it must
        // reappear after restore (exactly-once relative to take).
        let checkpoint = engine.checkpoint();
        drop(engine);
        let mut restored =
            ParallelEngine::restore(config(4).with_warehouse(), &checkpoint).unwrap();
        assert_eq!(restored.take_finished(), expected);
        assert!(restored.take_finished().is_empty());
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
