//! Hierarchical request tracing: per-request span trees with a
//! wire-propagatable context.
//!
//! Where the [`crate`] metrics answer *how much / how often*, a trace
//! answers *where one request's time went*: the serve tier opens a root
//! span per request, the tiers underneath it ([`sitm-stream`'s snapshot
//! cut, `sitm-query`'s pushdown, `sitm-store`'s row reads, the wire
//! write) attach child spans, and the finished tree lands in a bounded
//! ring ([`TraceRecorder`]) the `Trace` wire op serves back out.
//!
//! * [`TraceContext`] — `(trace id, parent span id)`. Generated per
//!   served request, or adopted from the request's wire envelope
//!   (`sitm-serve`'s traced frame), so a future federation fan-out
//!   carries **one** trace id across peers and each peer's root span
//!   knows which remote span caused it.
//! * [`TraceRecorder::begin`] — installs an active trace on the
//!   current thread; [`child`] opens a child span under whatever span
//!   is innermost. Both are RAII guards, so a panic or early return
//!   still closes every span.
//! * The instrumentation contract is **lock-cheap**: while no trace is
//!   active on the thread, [`child`] is one thread-local borrow and a
//!   branch (no atomics, no clock read); while one is active, a child
//!   span costs two `Instant::now()` reads and a `Vec` push. The only
//!   lock is one uncontended mutex push per *finished* request tree.
//! * Two span tiers bound the every-request cost: [`child`] spans (the
//!   coarse serve-tier skeleton: handle, snapshot cut, evaluate, wire
//!   write) arm on every trace, while [`child_detail`] spans (per-row
//!   reads, pushdown stages, segment hydration) arm on one request in
//!   [`DETAIL_SAMPLE_EVERY`] — or on every request whose context came
//!   off the wire, since that caller asked for this request's
//!   breakdown. `BENCH_10.json`'s `trace_overhead` group pins the
//!   resulting default-config tax at ≤ 1 µs per served point query.
//! * [`encode_traces`] / [`decode_traces`] — a versioned codec in the
//!   [`crate::codec`] discipline: every read bounds-checked, counts
//!   capped by remaining bytes, depth capped ([`MAX_SPAN_DEPTH`]),
//!   trailing bytes rejected — torture-tested truncated and
//!   bit-flipped at every byte offset.
//!
//! Spans record on the thread that runs the request; work a request
//! *delegates* to other threads (the parallel engine's workers) is
//! attributed to the span that waits for it, which is exactly the
//! serving story: the session thread blocks on the barrier.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sitm_codec::{put_str, put_u64, take_count, take_str, take_tag, take_u64};

use crate::codec::SnapshotCodecError;

/// The only trace-codec version this build reads or writes.
pub const TRACE_VERSION: u8 = 1;

/// Deepest span nesting the codec accepts (and the recorder produces —
/// [`child`] refuses to nest past it rather than recurse unboundedly).
pub const MAX_SPAN_DEPTH: usize = 32;

/// Trace trees a [`TraceRecorder`] retains by default.
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// One request in this many gets **detail spans** ([`child_detail`]) in
/// addition to the always-on coarse tiers; the rest record only the
/// coarse tree. Requests that *arrive* with a wire-propagated context
/// ([`TraceRecorder::begin_detailed`]) are always detailed — the caller
/// asked for this request specifically.
pub const DETAIL_SAMPLE_EVERY: u64 = 8;

/// The cross-tier identity of one request: which trace it belongs to
/// and which span caused it. Rides the wire in `sitm-serve`'s traced
/// frame envelope so a federation fan-out keeps one trace id end to
/// end; a request arriving without one gets a fresh id and parent 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The request tree's identity, shared by every peer it touches.
    pub trace_id: u64,
    /// The caller-side span that issued this request (0 = a root
    /// request with no upstream).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// A fresh context: process-unique trace id, no upstream parent.
    pub fn generate() -> TraceContext {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        static BASE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        // Uniqueness across processes (two servers in one trace) comes
        // from the clock half, read once per process; uniqueness within
        // a process from the sequence half — so the per-request cost is
        // one relaxed fetch_add, no clock read. Neither half needs to
        // be secret or unguessable.
        let base = *BASE.get_or_init(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
                .rotate_left(17)
        });
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            trace_id: base ^ (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
            parent_span_id: 0,
        }
    }
}

/// One finished span: a named interval relative to its trace's root,
/// with the child spans it contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace-unique span id (root = 1, then creation order). This is
    /// what a downstream peer's [`TraceContext::parent_span_id`] names.
    pub id: u64,
    /// What ran (`"query_federated"`, `"snapshot_cut"`, `"row_read"`…).
    pub name: Cow<'static, str>,
    /// Start offset from the root span's start, in nanoseconds.
    pub start_ns: u64,
    /// How long the span lasted, in nanoseconds.
    pub duration_ns: u64,
    /// Nested spans, in start order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// Depth-first search by span name (first match wins).
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn render_into(&self, out: &mut String, depth: usize, root_ns: u64) {
        let pct = self
            .duration_ns
            .saturating_mul(100)
            .checked_div(root_ns)
            .unwrap_or(100);
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{:<24} {:>12} ns  +{:<10} {:>3}%  {}\n",
            self.name,
            self.duration_ns,
            self.start_ns,
            pct,
            bar(pct as usize),
        ));
        for child in &self.children {
            child.render_into(out, depth + 1, root_ns);
        }
    }
}

/// A proportional bar for the timeline rendering (20 cells, `#`s).
fn bar(pct: usize) -> String {
    let cells = pct.min(100).div_ceil(5);
    let mut s = String::with_capacity(20);
    for i in 0..20 {
        s.push(if i < cells { '#' } else { '.' });
    }
    s
}

/// One request's finished span tree, as retained by the recorder and
/// served by the `Trace` wire op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The context the request ran under (generated or wire-adopted).
    pub trace_id: u64,
    /// The upstream span that caused this request (0 = none).
    pub parent_span_id: u64,
    /// The root span (the whole request) and everything under it.
    pub root: SpanRecord,
}

impl TraceTree {
    /// Depth-first search by span name across the whole tree.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.root.find(name)
    }

    /// A `sitm-top`-style timeline: one line per span, indented by
    /// depth, with duration, start offset, and share of the root.
    pub fn render_timeline(&self) -> String {
        let mut out = format!(
            "trace {:016x} parent-span {} · {} · {} ns\n",
            self.trace_id, self.parent_span_id, self.root.name, self.root.duration_ns
        );
        self.root.render_into(&mut out, 1, self.root.duration_ns);
        out
    }
}

// ---------------------------------------------------------------------------
// The active-trace thread-local

struct PendingSpan {
    id: u64,
    name: Cow<'static, str>,
    start: Instant,
    children: Vec<SpanRecord>,
}

struct ActiveState {
    trace_id: u64,
    parent_span_id: u64,
    root_start: Instant,
    next_span_id: u64,
    /// Whether [`child_detail`] spans arm on this trace (sampled, or
    /// forced for wire-adopted contexts).
    detail: bool,
    /// The open spans, outermost first (`stack[0]` is the root).
    stack: Vec<PendingSpan>,
}

impl ActiveState {
    fn open(&mut self, name: Cow<'static, str>) -> bool {
        if self.stack.len() >= MAX_SPAN_DEPTH {
            return false; // refuse to nest past the codec's bound
        }
        let id = self.next_span_id;
        self.next_span_id += 1;
        self.stack.push(PendingSpan {
            id,
            name,
            start: Instant::now(),
            children: Vec::new(),
        });
        true
    }

    /// Closes the innermost span into its parent's child list.
    fn close(&mut self) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let record = SpanRecord {
            id: open.id,
            name: open.name,
            start_ns: ns_between(self.root_start, open.start),
            duration_ns: ns_between(open.start, Instant::now()),
            children: open.children,
        };
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(record),
            None => self.stack.push(PendingSpan {
                // The root closed with the state still installed (only
                // reachable through unbalanced manual use): keep the
                // record so the finish still produces a tree.
                id: record.id,
                name: record.name.clone(),
                start: open.start,
                children: record.children.clone(),
            }),
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveState>> = const { RefCell::new(None) };
    /// The previous trace's (drained) span stack, kept so a session
    /// thread serving requests back to back reuses one allocation
    /// instead of paying a malloc/free pair per request.
    static STACK_POOL: RefCell<Vec<PendingSpan>> = const { RefCell::new(Vec::new()) };
}

fn ns_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

/// Opens a child span under the innermost active span on this thread.
/// While no trace is active the guard is inert and the call costs one
/// thread-local borrow — cheap enough for per-row call sites.
pub fn child(name: &'static str) -> ChildSpan {
    let armed = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        match a.as_mut() {
            Some(state) => state.open(Cow::Borrowed(name)),
            None => false,
        }
    });
    ChildSpan { armed }
}

/// Opens a **detail** child span: like [`child`], but armed only when
/// the active trace is detailed (every [`DETAIL_SAMPLE_EVERY`]th
/// request, or any request that arrived with a wire context). The
/// fine-grained tiers — per-row reads, pushdown stages, segment
/// hydration — use this so the *every-request* tracing cost stays a
/// handful of coarse spans.
pub fn child_detail(name: &'static str) -> ChildSpan {
    let armed = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        match a.as_mut() {
            Some(state) if state.detail => state.open(Cow::Borrowed(name)),
            _ => false,
        }
    });
    ChildSpan { armed }
}

/// True when a trace is active on this thread — for call sites that
/// want to skip *preparing* span inputs, not just recording them.
pub fn active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// True when the active trace records detail spans (see
/// [`child_detail`]).
pub fn detailed() -> bool {
    ACTIVE.with(|a| a.borrow().as_ref().is_some_and(|s| s.detail))
}

/// The context a fan-out to another peer should propagate right now:
/// the active trace's id and its innermost open span as the parent.
/// `None` while no trace is active.
pub fn current_context() -> Option<TraceContext> {
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|state| TraceContext {
            trace_id: state.trace_id,
            parent_span_id: state.stack.last().map_or(0, |s| s.id),
        })
    })
}

/// RAII guard for one child span (see [`child`]). Closing happens on
/// drop, so early returns and panics still record the span.
pub struct ChildSpan {
    armed: bool,
}

impl Drop for ChildSpan {
    fn drop(&mut self) {
        if self.armed {
            ACTIVE.with(|a| {
                if let Some(state) = a.borrow_mut().as_mut() {
                    state.close();
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The recorder

struct RecorderInner {
    capacity: usize,
    ring: Mutex<VecDeque<TraceTree>>,
    recorded: AtomicU64,
    /// Traces begun — drives the deterministic 1-in-N detail sampling.
    begun: AtomicU64,
}

/// A bounded ring of finished [`TraceTree`]s, shared (cheap `Clone`)
/// between the request path that records and the `Trace` op that
/// serves. Capacity 0 disables tracing entirely: [`TraceRecorder::begin`]
/// returns `None` and every [`child`] call stays on its inert path.
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRecorder {
    /// A recorder retaining the most recent `capacity` trees (0 =
    /// tracing off).
    pub fn new(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            inner: Arc::new(RecorderInner {
                capacity,
                ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
                recorded: AtomicU64::new(0),
                begun: AtomicU64::new(0),
            }),
        }
    }

    /// Whether [`TraceRecorder::begin`] will record anything.
    pub fn enabled(&self) -> bool {
        self.inner.capacity > 0
    }

    /// Trees recorded over the recorder's lifetime (retained or since
    /// evicted).
    pub fn recorded(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Installs an active trace on this thread with a root span named
    /// `op` running under `ctx`. The returned guard finishes the tree
    /// into the ring on drop. An already-active trace on the thread is
    /// replaced (its partial tree is discarded) — one request per
    /// session thread is the serving invariant this leans on.
    ///
    /// Detail spans ([`child_detail`]) arm on every
    /// [`DETAIL_SAMPLE_EVERY`]th `begin` (deterministic round-robin);
    /// the rest record the coarse tiers only. Use
    /// [`TraceRecorder::begin_detailed`] to force detail.
    pub fn begin(&self, op: &'static str, ctx: TraceContext) -> Option<ActiveTrace> {
        if self.inner.capacity == 0 {
            return None;
        }
        let detail = self
            .inner
            .begun
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(DETAIL_SAMPLE_EVERY);
        self.install(op, ctx, detail)
    }

    /// [`TraceRecorder::begin`] with detail spans unconditionally armed
    /// — for requests that *arrived* with a wire-propagated context:
    /// the upstream caller asked about this request specifically, so it
    /// gets the full tier breakdown.
    pub fn begin_detailed(&self, op: &'static str, ctx: TraceContext) -> Option<ActiveTrace> {
        if self.inner.capacity == 0 {
            return None;
        }
        self.inner.begun.fetch_add(1, Ordering::Relaxed);
        self.install(op, ctx, true)
    }

    fn install(&self, op: &'static str, ctx: TraceContext, detail: bool) -> Option<ActiveTrace> {
        let mut stack = STACK_POOL.with(|p| std::mem::take(&mut *p.borrow_mut()));
        stack.reserve(8);
        ACTIVE.with(|a| {
            let mut state = ActiveState {
                trace_id: ctx.trace_id,
                parent_span_id: ctx.parent_span_id,
                root_start: Instant::now(),
                next_span_id: 1,
                detail,
                stack,
            };
            state.open(Cow::Borrowed(op));
            *a.borrow_mut() = Some(state);
        });
        Some(ActiveTrace {
            recorder: self.clone(),
        })
    }

    /// The most recent `n` trees, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceTree> {
        let ring = self.inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().rev().take(n).rev().cloned().collect()
    }

    fn record(&self, tree: TraceTree) {
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.inner.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(tree);
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("capacity", &self.inner.capacity)
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// The root-span guard returned by [`TraceRecorder::begin`]: dropping
/// it closes every still-open span, assembles the [`TraceTree`], and
/// pushes it into the recorder's ring.
pub struct ActiveTrace {
    recorder: TraceRecorder,
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        let state = ACTIVE.with(|a| a.borrow_mut().take());
        let Some(mut state) = state else {
            return; // replaced by a newer begin() on this thread
        };
        // Close any spans a panic left open, innermost first, then the
        // root itself.
        while state.stack.len() > 1 {
            state.close();
        }
        let Some(root_open) = state.stack.pop() else {
            return;
        };
        let root = SpanRecord {
            id: root_open.id,
            name: root_open.name,
            start_ns: 0,
            duration_ns: ns_between(state.root_start, Instant::now()),
            children: root_open.children,
        };
        // The drained stack keeps its capacity for the next request on
        // this thread.
        STACK_POOL.with(|p| *p.borrow_mut() = state.stack);
        self.recorder.record(TraceTree {
            trace_id: state.trace_id,
            parent_span_id: state.parent_span_id,
            root,
        });
    }
}

// ---------------------------------------------------------------------------
// Codec

fn encode_span(buf: &mut Vec<u8>, span: &SpanRecord, depth: usize) {
    // The recorder bounds nesting at MAX_SPAN_DEPTH; a hand-built tree
    // past it is flattened rather than overflowing the stack.
    put_u64(buf, span.id);
    put_str(buf, &span.name);
    put_u64(buf, span.start_ns);
    put_u64(buf, span.duration_ns);
    if depth + 1 >= MAX_SPAN_DEPTH {
        put_u64(buf, 0);
        return;
    }
    put_u64(buf, span.children.len() as u64);
    for child in &span.children {
        encode_span(buf, child, depth + 1);
    }
}

fn decode_span(buf: &mut &[u8], depth: usize) -> Result<SpanRecord, SnapshotCodecError> {
    if depth >= MAX_SPAN_DEPTH {
        return Err(SnapshotCodecError::TooDeep(depth));
    }
    let id = take_u64(buf)?;
    let name = Cow::Owned(take_str(buf)?.to_owned());
    let start_ns = take_u64(buf)?;
    let duration_ns = take_u64(buf)?;
    // A span costs ≥ 5 bytes (id, empty name, start, duration, count).
    let n = take_count(buf, 5)?;
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        children.push(decode_span(buf, depth + 1)?);
    }
    Ok(SpanRecord {
        id,
        name,
        start_ns,
        duration_ns,
        children,
    })
}

/// Appends the versioned encoding of `trees` to `buf`:
///
/// ```text
/// version: u8 (= 1)
/// trees: count, then (trace_id, parent_span_id, root span) …
/// span  := id, name, start_ns, duration_ns, children: count, span …
/// ```
///
/// All integers LEB128 varints, strings length-prefixed UTF-8 — the
/// [`sitm_codec`] grammar of [`crate::codec`].
pub fn encode_traces(buf: &mut Vec<u8>, trees: &[TraceTree]) {
    buf.push(TRACE_VERSION);
    put_u64(buf, trees.len() as u64);
    for tree in trees {
        put_u64(buf, tree.trace_id);
        put_u64(buf, tree.parent_span_id);
        encode_span(buf, &tree.root, 0);
    }
}

/// The trees as a standalone byte buffer.
pub fn traces_to_bytes(trees: &[TraceTree]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_traces(&mut buf, trees);
    buf
}

/// Decodes trees that must occupy `bytes` exactly. Fully validated:
/// bounds-checked reads, allocation-capped counts, depth-capped
/// recursion, trailing bytes rejected.
pub fn decode_traces(bytes: &[u8]) -> Result<Vec<TraceTree>, SnapshotCodecError> {
    let mut buf = bytes;
    let version = take_tag(&mut buf)?;
    if version != TRACE_VERSION {
        return Err(SnapshotCodecError::UnsupportedVersion(version));
    }
    // A tree costs ≥ 7 bytes (two ids + a minimal root span).
    let n = take_count(&mut buf, 7)?;
    let mut trees = Vec::with_capacity(n);
    for _ in 0..n {
        let trace_id = take_u64(&mut buf)?;
        let parent_span_id = take_u64(&mut buf)?;
        let root = decode_span(&mut buf, 0)?;
        trees.push(TraceTree {
            trace_id,
            parent_span_id,
            root,
        });
    }
    if !buf.is_empty() {
        return Err(SnapshotCodecError::TrailingBytes(buf.len()));
    }
    Ok(trees)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_ns(ns: u64) {
        let start = Instant::now();
        while ns_between(start, Instant::now()) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn records_a_nested_tree_with_creation_order_ids() {
        let recorder = TraceRecorder::new(4);
        let ctx = TraceContext {
            trace_id: 0xABCD,
            parent_span_id: 9,
        };
        {
            let _trace = recorder.begin("query_federated", ctx).expect("enabled");
            {
                let _cut = child("snapshot_cut");
                spin_ns(2_000);
            }
            {
                let _eval = child("evaluate");
                {
                    let _prune = child("prune");
                    spin_ns(1_000);
                }
                spin_ns(1_000);
            }
        }
        let trees = recorder.recent(10);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.trace_id, 0xABCD);
        assert_eq!(tree.parent_span_id, 9);
        assert_eq!(tree.root.name, "query_federated");
        assert_eq!(tree.root.id, 1);
        let names: Vec<&str> = tree.root.children.iter().map(|c| &*c.name).collect();
        assert_eq!(names, ["snapshot_cut", "evaluate"]);
        assert_eq!(tree.root.children[0].id, 2);
        assert_eq!(tree.root.children[1].id, 3);
        assert_eq!(tree.root.children[1].children[0].name, "prune");
        assert_eq!(tree.root.children[1].children[0].id, 4);
        // Timing sanity: children fit inside the root, starts ordered.
        assert!(tree.root.duration_ns >= tree.root.children[1].start_ns);
        assert!(tree.root.children[0].start_ns <= tree.root.children[1].start_ns);
        assert!(tree.find("prune").unwrap().duration_ns >= 1_000);
        assert_eq!(recorder.recorded(), 1);
    }

    #[test]
    fn inactive_child_spans_are_inert_and_capacity_zero_disables() {
        // No trace installed: nothing records, nothing panics.
        {
            let _span = child("orphan");
        }
        assert!(!active());
        assert_eq!(current_context(), None);

        let off = TraceRecorder::new(0);
        assert!(!off.enabled());
        assert!(off.begin("op", TraceContext::generate()).is_none());
        {
            let _span = child("still_orphan");
        }
        assert!(off.recent(10).is_empty());
        assert_eq!(off.recorded(), 0);
    }

    #[test]
    fn ring_is_bounded_and_serves_newest() {
        let recorder = TraceRecorder::new(3);
        for i in 0..10u64 {
            let _t = recorder.begin(
                "op",
                TraceContext {
                    trace_id: i + 1,
                    parent_span_id: 0,
                },
            );
        }
        assert_eq!(recorder.recorded(), 10);
        let trees = recorder.recent(100);
        assert_eq!(trees.len(), 3, "capacity bounds retention");
        let ids: Vec<u64> = trees.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [8, 9, 10], "oldest evicted, oldest-first order");
        // recent(n) takes the newest n.
        let last: Vec<u64> = recorder.recent(2).iter().map(|t| t.trace_id).collect();
        assert_eq!(last, [9, 10]);
    }

    #[test]
    fn detail_spans_sample_one_in_n_and_wire_adoption_forces_them() {
        let recorder = TraceRecorder::new(64);
        let ctx = |i: u64| TraceContext {
            trace_id: i + 1,
            parent_span_id: 0,
        };
        // Locally generated traces: detail arms on begins 0, N, 2N, …
        for i in 0..2 * DETAIL_SAMPLE_EVERY {
            let _t = recorder.begin("op", ctx(i));
            assert_eq!(
                detailed(),
                i.is_multiple_of(DETAIL_SAMPLE_EVERY),
                "begin #{i} detail sampling"
            );
            let _coarse = child("handle");
            let _fine = child_detail("row_read");
        }
        let trees = recorder.recent(100);
        assert_eq!(trees.len() as u64, 2 * DETAIL_SAMPLE_EVERY);
        for (i, tree) in trees.iter().enumerate() {
            assert!(
                tree.find("handle").is_some(),
                "coarse spans record on every trace"
            );
            assert_eq!(
                tree.find("row_read").is_some(),
                (i as u64).is_multiple_of(DETAIL_SAMPLE_EVERY),
                "detail spans record only on sampled traces"
            );
        }
        // A wire-adopted context is always detailed, and still advances
        // the sampling counter.
        {
            let _t = recorder.begin_detailed("op", ctx(99));
            assert!(detailed());
            let _fine = child_detail("row_read");
        }
        let last = recorder.recent(1);
        assert!(last[0].find("row_read").is_some());
    }

    #[test]
    fn current_context_points_at_the_innermost_span() {
        let recorder = TraceRecorder::new(1);
        let ctx = TraceContext {
            trace_id: 42,
            parent_span_id: 0,
        };
        let _trace = recorder.begin("op", ctx);
        assert_eq!(
            current_context(),
            Some(TraceContext {
                trace_id: 42,
                parent_span_id: 1
            }),
            "root span is the parent for a fan-out issued at the top"
        );
        {
            let _inner = child("fanout");
            assert_eq!(
                current_context().unwrap().parent_span_id,
                2,
                "a fan-out inside a child names that child as parent"
            );
        }
        assert!(active());
    }

    #[test]
    fn depth_cap_refuses_further_nesting_instead_of_recursing() {
        let recorder = TraceRecorder::new(1);
        let _trace = recorder.begin("root", TraceContext::generate());
        let guards: Vec<ChildSpan> = (0..MAX_SPAN_DEPTH + 10).map(|_| child("deep")).collect();
        drop(guards);
        drop(_trace);
        let trees = recorder.recent(1);
        let mut depth = 0;
        let mut span = &trees[0].root;
        while let Some(next) = span.children.first() {
            span = next;
            depth += 1;
        }
        assert!(depth < MAX_SPAN_DEPTH, "nesting stayed under the cap");
        // And the codec accepts what the recorder produced.
        let bytes = traces_to_bytes(&trees);
        assert_eq!(decode_traces(&bytes).unwrap(), trees);
    }

    #[test]
    fn generated_contexts_are_distinct() {
        let a = TraceContext::generate();
        let b = TraceContext::generate();
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.parent_span_id, 0);
    }

    fn sample_trees() -> Vec<TraceTree> {
        let leaf = |id: u64, name: &'static str, start: u64, dur: u64| SpanRecord {
            id,
            name: Cow::Borrowed(name),
            start_ns: start,
            duration_ns: dur,
            children: Vec::new(),
        };
        vec![
            TraceTree {
                trace_id: 0xDEAD_BEEF,
                parent_span_id: 0,
                root: SpanRecord {
                    id: 1,
                    name: Cow::Borrowed("query_federated"),
                    start_ns: 0,
                    duration_ns: 120_000,
                    children: vec![
                        leaf(2, "snapshot_cut", 100, 8_000),
                        SpanRecord {
                            id: 3,
                            name: Cow::Borrowed("evaluate"),
                            start_ns: 8_200,
                            duration_ns: 100_000,
                            children: vec![
                                leaf(4, "prune", 8_300, 20_000),
                                leaf(5, "row_read·µ", 30_000, 60_000),
                            ],
                        },
                        leaf(6, "wire_write", 110_000, 9_000),
                    ],
                },
            },
            TraceTree {
                trace_id: 7,
                parent_span_id: 3,
                root: leaf(1, "health", 0, 900),
            },
        ]
    }

    #[test]
    fn codec_roundtrip_preserves_trees() {
        for trees in [Vec::new(), sample_trees()] {
            let bytes = traces_to_bytes(&trees);
            assert_eq!(bytes[0], TRACE_VERSION);
            assert_eq!(decode_traces(&bytes).unwrap(), trees);
        }
    }

    #[test]
    fn codec_rejects_wrong_version_and_trailing_bytes() {
        let mut bytes = traces_to_bytes(&sample_trees());
        bytes[0] = 9;
        assert_eq!(
            decode_traces(&bytes),
            Err(SnapshotCodecError::UnsupportedVersion(9))
        );
        bytes[0] = TRACE_VERSION;
        bytes.push(0);
        assert_eq!(
            decode_traces(&bytes),
            Err(SnapshotCodecError::TrailingBytes(1))
        );
    }

    /// The warehouse.rs torture idiom, applied to the trace codec.
    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let bytes = traces_to_bytes(&sample_trees());
        for cut in 0..bytes.len() {
            assert!(
                decode_traces(&bytes[..cut]).is_err(),
                "decoded traces truncated to {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flip_at_every_offset_never_panics() {
        let bytes = traces_to_bytes(&sample_trees());
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= 1 << bit;
                let _ = decode_traces(&corrupt);
            }
        }
    }

    #[test]
    fn hostile_counts_and_depth_are_rejected() {
        // Tree count claiming 2^60 entries with nothing behind it.
        let mut bytes = vec![TRACE_VERSION];
        put_u64(&mut bytes, 1 << 60);
        assert_eq!(decode_traces(&bytes), Err(SnapshotCodecError::Truncated));

        // A hand-built chain nested past the cap: each span claims one
        // child; the decoder must stop at MAX_SPAN_DEPTH, not recurse.
        let mut bytes = vec![TRACE_VERSION];
        put_u64(&mut bytes, 1); // one tree
        put_u64(&mut bytes, 1); // trace_id
        put_u64(&mut bytes, 0); // parent_span_id
        for i in 0..MAX_SPAN_DEPTH + 4 {
            put_u64(&mut bytes, i as u64 + 1); // id
            put_str(&mut bytes, "s"); // name
            put_u64(&mut bytes, 0); // start
            put_u64(&mut bytes, 0); // duration
            put_u64(&mut bytes, 1); // one child, forever
        }
        assert!(matches!(
            decode_traces(&bytes),
            Err(SnapshotCodecError::TooDeep(_) | SnapshotCodecError::Truncated)
        ));
    }

    #[test]
    fn timeline_rendering_shows_every_span_with_shares() {
        let trees = sample_trees();
        let text = trees[0].render_timeline();
        for name in [
            "query_federated",
            "snapshot_cut",
            "evaluate",
            "prune",
            "row_read·µ",
            "wire_write",
        ] {
            assert!(text.contains(name), "timeline misses {name}:\n{text}");
        }
        assert!(text.contains("00000000deadbeef"), "trace id rendered");
        // evaluate is 100_000/120_000 ≈ 83%.
        assert!(text.contains(" 83%"), "share column rendered:\n{text}");
        // Zero-duration roots must not divide by zero.
        let zero = TraceTree {
            trace_id: 1,
            parent_span_id: 0,
            root: SpanRecord {
                id: 1,
                name: Cow::Borrowed("noop"),
                start_ns: 0,
                duration_ns: 0,
                children: Vec::new(),
            },
        };
        assert!(zero.render_timeline().contains("noop"));
    }
}
