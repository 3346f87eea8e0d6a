//! The four workloads: what each sends, what it times, what it checks.
//!
//! Every workload drives a real server over loopback TCP and is built
//! from the same parts: a set-up (generate, start, preload; repeated,
//! its median is `setup_s`), one or two timed sections of `--seconds`
//! in total, and an untimed verification of a seeded sample of answers
//! against `reference`. Inside a section the unit of work is sized by
//! operation count (a day of visits, a cycle of queries), so the
//! program's own counters repeat; only the number of units is set by
//! the clock.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::env;
use crate::layers::{
    self, Caller, MetricsSnapshot, PlainConn, Request, Response, Server, ServerOptions, SimRng,
    TracedConn, Zipf,
};
use crate::reference::{Probe, Reference};
use crate::scenario::{self, object_name, Scenario, Tag, Visit};
use crate::spans::{ClientRecord, ClientSpans, Span};

pub const WORKLOADS: [&str; 4] = ["ingest_rush", "point_lookup", "scan_cold", "mixed_live"];

/// Events per ingest frame on the bulk path (`ingest_rush`, preloads).
const BULK_BATCH: usize = 512;
/// `mixed_live`'s sensor gateway: small frames at a fixed rate, 3 200
/// events/s. The rate is the highest of those tried (100, 400, 2 000
/// frames/s) that the server sustains beside a closed-loop reader for
/// the length of a run: every read after an ingest re-cuts the live
/// snapshot under the core mutex, and the cut clones every episode
/// emitted since the server started (nothing drains them without a
/// subscriber), so its cost grows with the events ingested. At 2 000
/// frames/s the writer ran 8 s late within a 10 s section.
const LIVE_BATCH: usize = 32;
const LIVE_BATCHES_PER_S: u64 = 100;
/// `mixed_live`'s reader pauses this long after every answer (a
/// dashboard refreshing, closed loop with think time): about 400
/// reads/s against 100 ingests/s, so a fifth of the reads find the
/// epoch moved and pay the snapshot cut, and the rest find it cached.
const READER_THINK: Duration = Duration::from_millis(2);
/// A freshness read targets a visitor first seen at most this long ago.
const FRESH_FOR: Duration = Duration::from_secs(1);
/// Share of the traced pass spent untraced, to price the tracing.
const UNTRACED_SHARE: f64 = 0.3;
/// A freshness read is only asked about a visit that stays open for
/// at least this many more frames (a quarter of a second): longer than
/// any stall the read itself should meet.
const CLOSE_MARGIN: usize = LIVE_BATCHES_PER_S as usize / 4;
/// Restarts over the preloaded history in each set-up of the workloads
/// that serve it warm (9 samples a run for the restart metric).
const SETUP_RESTARTS: usize = 3;
/// Rows of the page a restarted server is first asked for.
const FIRST_PAGE: u64 = 100;
/// Ring deep enough for the trees between two polls of the `Trace` op.
const TRACE_CAPACITY: usize = 4096;
const TRACE_POLL: Duration = Duration::from_millis(100);

/// Operation counts. `--smoke` divides them by 20.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Closed visits preloaded for the three workloads that read.
    pub history_visits: usize,
    /// Visits of one `ingest_rush` day (one op-count-sized unit).
    pub rush_visits: usize,
    /// Closed visits between two spills on the bulk path (`ingest_rush`
    /// days, preloads) and on `mixed_live`'s trickle. Both sit in the
    /// middle of a size tier of the warehouse's compaction (a log2
    /// bucket of the row count), so every seed's spills fall in the
    /// same tier and merge the same way.
    pub spill_visits: usize,
    pub live_spill_visits: usize,
    /// Visits left open in the live tier on `point_lookup`.
    pub open_visits: usize,
    /// Distinct prepared point queries per connection.
    pub point_pool: usize,
    pub warmup_queries: usize,
    /// Queries of one `scan_cold` analyst cycle.
    pub cycle_queries: usize,
    /// Timed restarts at the head of each `scan_cold` cycle.
    pub cycle_restarts: usize,
    /// Answers compared in full with the reference, per run.
    pub verify_probes: usize,
    /// Times the set-up is repeated (its median is reported).
    pub setups: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        history_visits: 20_000,
        rush_visits: 30_000,
        spill_visits: 2_900,
        live_spill_visits: 724,
        open_visits: 2_000,
        point_pool: 4_096,
        warmup_queries: 20_000,
        cycle_queries: 400,
        cycle_restarts: 2,
        verify_probes: 1_000,
        setups: 3,
    };

    pub const SMOKE: Sizes = Sizes {
        history_visits: 1_000,
        rush_visits: 1_500,
        spill_visits: 181,
        live_spill_visits: 90,
        open_visits: 100,
        point_pool: 256,
        warmup_queries: 1_000,
        cycle_queries: 100,
        cycle_restarts: 1,
        verify_probes: 1_000,
        setups: 1,
    };
}

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// A directory of the run's own, removed when it ends.
    pub scratch: PathBuf,
}

/// Operations attempted and failed (an error, a refusal, or a wrong
/// answer all count as failed).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(why);
            }
        }
    }

    fn expect(&mut self, what: &str, got: u64, want: u64) {
        self.check(if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, expected {want}"))
        });
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.examples.extend(other.examples);
        self.examples.truncate(5);
    }
}

/// What one timed section measured.
#[derive(Debug, Default)]
pub struct Section {
    /// Latency of every primary operation, nanoseconds.
    pub op_ns: Vec<u64>,
    /// Events acknowledged or trajectories returned by those operations.
    pub items: u64,
    /// Time the primary operations had to run in, nanoseconds (wall
    /// time of the section's measured part).
    pub wall_ns: u64,
    pub checkpoint_ms: Vec<f64>,
    pub restart_ms: Vec<f64>,
    /// `mixed_live`'s writer: latency from each batch's due time, and
    /// how late the generator itself sent it.
    pub write_ns: Vec<u64>,
    pub lateness_ns: Vec<u64>,
    /// Largest finished backlog one checkpoint spilled.
    pub spilled_peak: u64,
    /// Requests and the answers they got, kept for the layer pass.
    pub samples: Vec<(Request, Response)>,
}

impl Section {
    fn absorb(&mut self, other: Section) {
        self.op_ns.extend(other.op_ns);
        self.items += other.items;
        self.wall_ns += other.wall_ns;
        self.checkpoint_ms.extend(other.checkpoint_ms);
        self.restart_ms.extend(other.restart_ms);
        self.write_ns.extend(other.write_ns);
        self.lateness_ns.extend(other.lateness_ns);
        self.spilled_peak = self.spilled_peak.max(other.spilled_peak);
        if self.samples.is_empty() {
            self.samples = other.samples;
        }
    }
}

/// What the traced section collected, besides its `Section`.
#[derive(Debug, Default)]
pub struct Traced {
    pub records: Vec<ClientRecord>,
    /// Server trees of the ledger's own requests, by request id.
    pub trees: HashMap<u64, Vec<Span>>,
    /// Served `Metrics` before and after the section (summed over the
    /// servers it used).
    pub before: Vec<MetricsSnapshot>,
    pub after: Vec<MetricsSnapshot>,
}

/// Everything a run produced; `report` turns it into metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub fingerprint: u32,
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    /// The section the end-to-end metrics come from (untraced).
    pub plain: Section,
    /// The traced section, when `--trace 1`.
    pub traced: Option<(Section, Traced)>,
    /// Setup-time restarts and checkpoints (preloads), so every
    /// workload has some.
    pub setup_restart_ms: Vec<f64>,
    pub setup_checkpoint_ms: Vec<f64>,
    /// Events the warehouse directory holds, and its size.
    pub disk_events: u64,
    pub disk_bytes: u64,
    /// Row-cache budget over the bytes the cache would charge for the
    /// whole history.
    pub cache_fit_ratio: f64,
    /// Inputs for the in-process layer pass.
    pub layer_visits: Vec<Visit>,
    pub history_dir: Option<PathBuf>,
}

// --- the served pipeline -----------------------------------------------------

/// One server over one warehouse directory, restartable, plus the
/// connection factory for the current pass.
struct Pipeline {
    dir: PathBuf,
    options: ServerOptions,
    server: Option<Server>,
    origin: Instant,
    connections: AtomicU64,
}

impl Pipeline {
    fn new(dir: PathBuf, row_cache_bytes: usize, trace: bool) -> Pipeline {
        Pipeline {
            dir,
            options: ServerOptions {
                row_cache_bytes,
                trace_capacity: trace.then_some(TRACE_CAPACITY),
            },
            server: None,
            origin: Instant::now(),
            connections: AtomicU64::new(0),
        }
    }

    fn start(&mut self) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        self.server = Some(layers::start_server(&self.dir, self.options)?);
        Ok(())
    }

    fn stop(&mut self) -> Result<(), String> {
        self.server.take().map_or(Ok(()), layers::stop_server)
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    fn connect(&self, traced: bool) -> Result<Box<dyn Caller>, String> {
        if traced {
            let id = self.connections.fetch_add(1, Ordering::Relaxed);
            let spans = ClientSpans::new(self.origin, id);
            Ok(Box::new(TracedConn::connect(self.addr(), spans)?))
        } else {
            Ok(Box::new(PlainConn::connect(self.addr())?))
        }
    }

    /// Stops the server if one runs, then times start → connect → first
    /// correct answer to `probe` (by row count; a sample of answers is
    /// compared in full elsewhere), milliseconds.
    fn restart_to_first_answer(
        &mut self,
        probe: &(Request, usize),
        tally: &mut Tally,
    ) -> Result<f64, String> {
        self.stop()?;
        let t = Instant::now();
        self.start()?;
        let mut conn = PlainConn::connect(self.addr())?;
        let rows = layers::expect_rows(conn.call(&probe.0)?)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tally.expect(
            "first answer after restart",
            rows.len() as u64,
            probe.1 as u64,
        );
        Ok(ms)
    }

    fn metrics(&self) -> Result<MetricsSnapshot, String> {
        let mut conn = PlainConn::connect(self.addr())?;
        layers::expect_metrics(conn.call(&layers::metrics_request())?)
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        let _ = self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Polls the served `Trace` op while a traced section runs, keeping
/// the trees of the ledger's own requests.
struct TracePoller<'a> {
    stop: &'a AtomicBool,
    trees: &'a Mutex<HashMap<u64, Vec<Span>>>,
}

impl TracePoller<'_> {
    fn poll(&self, conn: &mut PlainConn) -> Result<(), String> {
        let trees = layers::expect_traces(conn.call(&layers::trace_request())?)?;
        let mut kept = self.trees.lock().expect("trace sink");
        for tree in trees.iter().filter(|t| layers::tree_is_ledgers(t)) {
            let (request, spans) = layers::tree_spans(tree);
            kept.entry(request).or_insert(spans);
        }
        Ok(())
    }

    fn run(&self, addr: SocketAddr) -> Result<(), String> {
        let mut conn = PlainConn::connect(addr)?;
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(TRACE_POLL);
            self.poll(&mut conn)?;
        }
        self.poll(&mut conn)
    }
}

/// Runs `body` against the pipeline's current server; in traced mode
/// with the `Trace` poller beside it and `Metrics` taken around it.
fn with_tracing<T>(
    pipeline: &Pipeline,
    traced: Option<&mut Traced>,
    body: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let Some(sink) = traced else {
        return body();
    };
    sink.before.push(pipeline.metrics()?);
    let stop = AtomicBool::new(false);
    let trees = Mutex::new(std::mem::take(&mut sink.trees));
    let addr = pipeline.addr();
    let out = std::thread::scope(|scope| {
        let poller = TracePoller {
            stop: &stop,
            trees: &trees,
        };
        let handle = scope.spawn(move || poller.run(addr));
        let out = body();
        stop.store(true, Ordering::Relaxed);
        handle.join().map_err(|_| "trace poller panicked")??;
        out
    })?;
    sink.trees = trees.into_inner().expect("trace sink");
    sink.after.push(pipeline.metrics()?);
    Ok(out)
}

// --- shared parts ------------------------------------------------------------

/// Cuts a feed into ingest requests of `batch` events, each with the
/// number of visits it closes.
fn ingest_requests(visits: &[Visit], tags: &[Tag], batch: usize) -> Vec<(Request, usize)> {
    tags.chunks(batch)
        .map(|chunk| {
            let events = chunk.iter().map(|&t| scenario::event(visits, t)).collect();
            let closes = chunk.iter().filter(|t| t.rank == 2).count();
            (layers::ingest_request(events), closes)
        })
        .collect()
}

/// Says when the next spill is due: every `every` closed visits.
struct SpillClock {
    every: usize,
    closed: usize,
    next: usize,
}

impl SpillClock {
    fn new(every: usize) -> SpillClock {
        SpillClock {
            every,
            closed: 0,
            next: every,
        }
    }

    /// Counts `closes` more closed visits; true when a spill is due.
    fn due(&mut self, closes: usize) -> bool {
        self.closed += closes;
        let due = self.closed >= self.next;
        if due {
            self.next += self.every;
        }
        due
    }
}

fn checkpoint(conn: &mut dyn Caller, section: &mut Section, tally: &mut Tally) {
    let t = Instant::now();
    let result = conn
        .call(&layers::checkpoint_request())
        .and_then(layers::expect_checkpointed);
    section.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
    match result {
        Ok(spilled) => {
            section.spilled_peak = section.spilled_peak.max(spilled);
            tally.check(Ok(()));
        }
        Err(why) => tally.check(Err(why)),
    }
}

/// A closed history in the warehouse: the visits, the reference that
/// knows them, and what they weigh.
struct History {
    scenario: Scenario,
    reference: Reference,
    events: u64,
    /// Bytes the row cache would charge for every row (frame lengths).
    cache_bytes: u64,
    /// The first page of the history, which must answer after any
    /// restart (its cost does not depend on which visitor a seed
    /// happens to put where).
    first_answer: (Request, usize),
}

/// Generates the history and streams it into a fresh server in
/// `BULK_BATCH`-event frames with a spill every `spill_visits` closed
/// visits and one at the end,
/// then checks the served totals against the batch oracle (streamed ==
/// batch `maximal_episodes`: every visit has closed).
fn preload_history(
    p: &Params,
    pipeline: &mut Pipeline,
    out: &mut Outcome,
) -> Result<History, String> {
    let scenario = scenario::generate(p.seed, p.sizes.history_visits, 0, 0);
    let tags = scenario::feed(&scenario.visits);
    let requests = ingest_requests(&scenario.visits, &tags, BULK_BATCH);
    let mut reference = Reference::default();
    scenario.visits.iter().for_each(|v| reference.add_closed(v));

    pipeline.start()?;
    let mut conn = PlainConn::connect(pipeline.addr())?;
    let mut section = Section::default();
    let mut spills = SpillClock::new(p.sizes.spill_visits);
    for (i, (request, closes)) in requests.iter().enumerate() {
        let acked = conn.call(request).and_then(layers::expect_ingested);
        out.tally.check(acked.map(|_| ()));
        if spills.due(*closes) || i + 1 == requests.len() {
            checkpoint(&mut conn, &mut section, &mut out.tally);
        }
    }
    out.setup_checkpoint_ms.extend(section.checkpoint_ms);

    let rows: Vec<layers::Row> = scenario.visits.iter().map(Visit::row).collect();
    let (stats, _) = layers::expect_stats(conn.call(&layers::stats_request())?)?;
    let t = &mut out.tally;
    t.expect("history events", stats.events, tags.len() as u64);
    t.expect("history anomalies", stats.anomalies, 0);
    t.expect("history open visits", stats.open_visits, 0);
    t.expect(
        "history episodes (streamed == batch)",
        stats.episodes,
        layers::batch_episode_count(&rows),
    );
    t.expect(
        "history in the warehouse",
        stats.warehouse_trajectories,
        rows.len() as u64,
    );
    let mut buf = Vec::new();
    let cache_bytes = rows
        .iter()
        .map(|row| {
            buf.clear();
            layers::encode_row(&mut buf, row);
            buf.len() as u64 + layers::FRAME_OVERHEAD
        })
        .sum();
    let page = rows.len().min(FIRST_PAGE as usize);
    Ok(History {
        first_answer: (layers::walk_request(0, FIRST_PAGE), page),
        events: tags.len() as u64,
        cache_bytes,
        scenario,
        reference,
    })
}

/// Compares a seeded sample of answers in full with the reference.
fn verify(
    conn: &mut dyn Caller,
    reference: &Reference,
    probes: impl Iterator<Item = Probe>,
    tally: &mut Tally,
) {
    for probe in probes {
        let result = conn
            .call(&probe.request())
            .and_then(layers::expect_rows)
            .and_then(|rows| reference.check(&probe, &rows));
        tally.check(result);
    }
}

/// A seeded mix of every probe shape over a history of `visits`.
fn mixed_probes(seed: u64, n: usize, history: &Scenario) -> Vec<Probe> {
    let mut rng = SimRng::seeded(seed ^ 0x5EED);
    let visits = history.visits.len() as u64;
    (0..n)
        .map(|i| match i % 5 {
            0 => Probe::Point {
                visitor: rng.range_usize(0, history.visitors as usize) as u32,
            },
            1 => Probe::Walk {
                offset: rng.range_usize(0, visits as usize) as u64,
                limit: 100,
            },
            2 => Probe::Cell {
                cell: rng.range_usize(0, layers::CELLS),
                limit: 50,
            },
            3 => {
                let start = scenario::DAY_START + rng.range_i64(0, scenario::DAY_SECONDS);
                Probe::Window {
                    start,
                    end: start + 900,
                    limit: 100,
                }
            }
            _ => Probe::TopDwell { limit: 10 },
        })
        .collect()
}

/// Runs the set-up `sizes.setups` times, timing each, and keeps the last.
fn repeat_setup<S>(
    p: &Params,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome) -> Result<S, String>,
) -> Result<S, String> {
    let mut kept = None;
    for _ in 0..p.sizes.setups {
        // The previous state (server, directory) goes before the next.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(out)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// Repeats an op-count-sized unit until `seconds` have been used,
/// always finishing the unit in hand.
fn repeat_for(
    seconds: f64,
    mut unit: impl FnMut() -> Result<Section, String>,
) -> Result<Section, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut total = Section::default();
    loop {
        total.absorb(unit()?);
        if Instant::now() >= deadline {
            return Ok(total);
        }
    }
}

/// Splits `--seconds` into the untraced and the traced section.
fn split_seconds(p: &Params) -> (f64, Option<f64>) {
    if p.trace {
        (
            p.seconds * UNTRACED_SHARE,
            Some(p.seconds * (1.0 - UNTRACED_SHARE)),
        )
    } else {
        (p.seconds, None)
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    match p.workload.as_str() {
        "ingest_rush" => ingest_rush(p),
        "point_lookup" => point_lookup(p),
        "scan_cold" => scan_cold(p),
        "mixed_live" => mixed_live(p),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

// --- ingest_rush -------------------------------------------------------------

/// Write-heavy, wire-light: two connections stream one generated day
/// (`rush_visits` visits) in 512-event frames into a fresh warehouse,
/// with a spill every `spill_visits` closed visits and one at the end; the day is
/// repeated, each time into a fresh server, until the clock runs out.
/// `stream` (routing, segmenter, episodes), the flusher and `store`
/// (segment build, fsync, compaction) do nearly all the work and the
/// per-frame wire cost is amortised 512×.
fn ingest_rush(p: &Params) -> Result<Outcome, String> {
    struct Rush {
        scenario: Scenario,
        /// One causally ordered request stream per connection (visits
        /// are split by key parity, so no visit spans two streams).
        streams: [Vec<(Request, usize)>; 2],
        events: u64,
        episodes: u64,
    }
    let mut out = Outcome::default();
    let rush = repeat_setup(p, &mut out, |_| {
        let scenario = scenario::generate(p.seed, p.sizes.rush_visits, 0, 0);
        let tags = scenario::feed(&scenario.visits);
        let streams = [0, 1].map(|parity| {
            let own: Vec<Tag> = tags
                .iter()
                .copied()
                .filter(|t| t.visit % 2 == parity)
                .collect();
            ingest_requests(&scenario.visits, &own, BULK_BATCH)
        });
        let rows: Vec<layers::Row> = scenario.visits.iter().map(Visit::row).collect();
        Ok(Rush {
            events: tags.len() as u64,
            episodes: layers::batch_episode_count(&rows),
            streams,
            scenario,
        })
    })?;
    out.fingerprint = scenario::fingerprint(&rush.scenario.visits);

    let mut pipeline = Pipeline::new(p.scratch.join("rush"), layers::ROW_CACHE_BYTES, p.trace);
    let mut reference = Reference::default();
    rush.scenario
        .visits
        .iter()
        .for_each(|v| reference.add_closed(v));

    // One day into a fresh server, then a restart over what it wrote;
    // leaves that server running.
    let day = |pipeline: &mut Pipeline,
               mut traced: Option<&mut Traced>,
               tally: &mut Tally|
     -> Result<Section, String> {
        pipeline.stop()?;
        let _ = std::fs::remove_dir_all(&pipeline.dir);
        let mut section = Section::default();
        pipeline.start()?;
        let mut control = PlainConn::connect(pipeline.addr())?;

        let is_traced = traced.is_some();
        let records = Mutex::new(Vec::new());
        let began = Instant::now();
        let parts = with_tracing(pipeline, traced.as_deref_mut(), || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = rush
                    .streams
                    .iter()
                    .enumerate()
                    .map(|(i, stream)| {
                        let pipeline = &*pipeline;
                        let records = &records;
                        scope.spawn(move || -> Result<(Section, Tally), String> {
                            let mut conn = pipeline.connect(is_traced)?;
                            let mut section = Section::default();
                            let mut tally = Tally::default();
                            // Connection 0 also takes the spills, counting
                            // its own closes as half of all.
                            let mut spills = SpillClock::new(p.sizes.spill_visits / 2);
                            for (request, closes) in stream {
                                let t = Instant::now();
                                let answer = conn.call(request);
                                section.op_ns.push(t.elapsed().as_nanos() as u64);
                                if section.samples.len() < 8 {
                                    if let Ok(response) = &answer {
                                        section.samples.push((request.clone(), response.clone()));
                                    }
                                }
                                match answer.and_then(layers::expect_ingested) {
                                    Ok(events) => {
                                        section.items += events;
                                        tally.check(Ok(()));
                                    }
                                    Err(why) => tally.check(Err(why)),
                                }
                                if spills.due(*closes) && i == 0 {
                                    checkpoint(conn.as_mut(), &mut section, &mut tally);
                                }
                            }
                            records.lock().expect("records").extend(conn.take_records());
                            Ok((section, tally))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "ingest thread panicked".to_string())?)
                    .collect::<Result<Vec<_>, String>>()
            })
        })?;
        // Whatever closed after connection 0's last spill.
        checkpoint(&mut control, &mut section, tally);
        section.wall_ns = began.elapsed().as_nanos() as u64;
        for (part, part_tally) in parts {
            section.absorb(Section { wall_ns: 0, ..part });
            tally.merge(part_tally);
        }
        let (stats, _) = layers::expect_stats(control.call(&layers::stats_request())?)?;
        tally.expect("events applied", stats.events, rush.events);
        tally.expect("anomalies", stats.anomalies, 0);
        tally.expect(
            "episodes (streamed == batch)",
            stats.episodes,
            rush.episodes,
        );
        tally.expect(
            "visits in the warehouse",
            stats.warehouse_trajectories,
            rush.scenario.visits.len() as u64,
        );
        drop(control);
        // The operator's view of the day just written.
        let first_page = (layers::walk_request(0, FIRST_PAGE), FIRST_PAGE as usize);
        section
            .restart_ms
            .push(pipeline.restart_to_first_answer(&first_page, tally)?);
        if let Some(sink) = traced {
            sink.records.extend(records.into_inner().expect("records"));
        }
        Ok(section)
    };

    let (plain_s, traced_s) = split_seconds(p);
    out.plain = repeat_for(plain_s, || day(&mut pipeline, None, &mut out.tally))?;
    if let Some(seconds) = traced_s {
        let mut sink = Traced::default();
        let total = repeat_for(seconds, || {
            day(&mut pipeline, Some(&mut sink), &mut out.tally)
        })?;
        out.traced = Some((total, sink));
    }

    // The last day's server still runs: read the day back.
    let mut conn = PlainConn::connect(pipeline.addr())?;
    let probes = mixed_probes(p.seed, p.sizes.verify_probes, &rush.scenario);
    verify(&mut conn, &reference, probes.into_iter(), &mut out.tally);
    drop(conn);
    // Nothing is read back through the cache while the day streams in.
    out.cache_fit_ratio = 0.0;
    out.layer_visits = rush.scenario.visits;
    finish_with_history(out, pipeline, rush.events)
}

// --- point_lookup ------------------------------------------------------------

/// Prepared point queries of one connection with the row count each
/// must return.
type PointPool = Vec<(Request, usize)>;

/// Zipf(1.0)-popular visitors, `absent` of them unknown to the server
/// and `live` of them known to the live tier only.
fn point_pool(
    rng: &mut SimRng,
    n: usize,
    reference: &Reference,
    visitors: u32,
    live_only: &[u32],
) -> PointPool {
    let popular = Zipf::new(visitors as usize, 1.0);
    (0..n)
        .map(|_| {
            let u = rng.unit();
            let visitor = if u < 0.10 {
                // Never generated: beyond every scenario's id range.
                4_000_000_000 + rng.range_usize(0, 1_000_000) as u32
            } else if u < 0.15 && !live_only.is_empty() {
                *rng.pick(live_only)
            } else {
                popular.sample(rng) as u32 - 1
            };
            (
                layers::point_request(&object_name(visitor)),
                reference.point_rows(visitor),
            )
        })
        .collect()
}

/// Closed loop over a prepared pool until `deadline` (or `count` ops).
fn point_loop(
    conn: &mut dyn Caller,
    pool: &PointPool,
    deadline: Option<Instant>,
    count: usize,
    keep_samples: usize,
) -> (Section, Tally) {
    let mut section = Section::default();
    let mut tally = Tally::default();
    let began = Instant::now();
    for (request, want) in pool.iter().cycle().take(count) {
        let t = Instant::now();
        let answer = conn.call(request);
        let done = Instant::now();
        section.op_ns.push((done - t).as_nanos() as u64);
        if section.samples.len() < keep_samples {
            if let Ok(response) = &answer {
                section.samples.push((request.clone(), response.clone()));
            }
        }
        match answer.and_then(layers::expect_rows) {
            Ok(rows) => {
                section.items += rows.len() as u64;
                tally.expect("rows of a point query", rows.len() as u64, *want as u64);
            }
            Err(why) => tally.check(Err(why)),
        }
        if deadline.is_some_and(|d| done >= d) {
            break;
        }
    }
    section.wall_ns = began.elapsed().as_nanos() as u64;
    (section, tally)
}

/// Two closed-loop connections over their own pools for `seconds`.
fn point_section(
    pipeline: &Pipeline,
    pools: &[PointPool; 2],
    seconds: f64,
    mut traced: Option<&mut Traced>,
    tally: &mut Tally,
) -> Result<Section, String> {
    let is_traced = traced.is_some();
    let records = Mutex::new(Vec::new());
    let mut section = Section::default();
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(seconds);
    let parts = with_tracing(pipeline, traced.as_deref_mut(), || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = pools
                .iter()
                .map(|pool| {
                    let records = &records;
                    scope.spawn(move || -> Result<(Section, Tally), String> {
                        let mut conn = pipeline.connect(is_traced)?;
                        let out = point_loop(conn.as_mut(), pool, Some(deadline), usize::MAX, 32);
                        records.lock().expect("records").extend(conn.take_records());
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "query thread panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })
    })?;
    let wall_ns = began.elapsed().as_nanos() as u64;
    for (part, part_tally) in parts {
        section.absorb(Section { wall_ns: 0, ..part });
        tally.merge(part_tally);
    }
    section.wall_ns = wall_ns;
    if let Some(sink) = traced {
        sink.records = records.into_inner().expect("records");
    }
    Ok(section)
}

/// Read-only, wire-heavy, warm: the server is restarted over the
/// history, `open_visits` visits are left open in the live tier, and
/// two closed-loop connections ask federated point queries (Zipf(1.0)
/// visitors, 10 % absent, 5 % live-only). Replies are tiny and
/// everything is resident, so `serve::wire`, `serve::proto` and the
/// kernel dominate while `store` and `stream` idle.
fn point_lookup(p: &Params) -> Result<Outcome, String> {
    struct Warm {
        pipeline: Pipeline,
        history: History,
        open: Scenario,
        pools: [PointPool; 2],
    }
    let mut out = Outcome::default();
    let warm = repeat_setup(p, &mut out, |out| {
        let mut pipeline = Pipeline::new(p.scratch.join("point"), layers::ROW_CACHE_BYTES, p.trace);
        let mut history = preload_history(p, &mut pipeline, out)?;
        for _ in 0..SETUP_RESTARTS {
            let ms = pipeline.restart_to_first_answer(&history.first_answer, &mut out.tally)?;
            out.setup_restart_ms.push(ms);
        }

        // Visitors the warehouse has never seen, mid-visit.
        let open = scenario::generate(
            p.seed + 1,
            p.sizes.open_visits,
            1 << 32,
            history.scenario.visitors,
        );
        let mut conn = PlainConn::connect(pipeline.addr())?;
        let events: Vec<layers::Event> = open
            .visits
            .iter()
            .flat_map(|v| v.open_events(v.stays.len().div_ceil(2)))
            .collect();
        for chunk in events.chunks(BULK_BATCH) {
            let acked = conn
                .call(&layers::ingest_request(chunk.to_vec()))
                .and_then(layers::expect_ingested);
            out.tally.check(acked.map(|_| ()));
        }
        for v in &open.visits {
            history.reference.add_open(v, v.stays.len().div_ceil(2));
        }
        let live_only: Vec<u32> = open.visits.iter().map(|v| v.visitor).collect();
        let mut rng = SimRng::seeded(p.seed ^ 0xB00C);
        let pools = [0, 1].map(|_| {
            point_pool(
                &mut rng,
                p.sizes.point_pool,
                &history.reference,
                history.scenario.visitors,
                &live_only,
            )
        });
        for pool in &pools {
            let (_, tally) = point_loop(&mut conn, pool, None, p.sizes.warmup_queries / 2, 0);
            out.tally.merge(tally);
        }
        Ok(Warm {
            pipeline,
            history,
            open,
            pools,
        })
    })?;
    let mut all = warm.history.scenario.visits.clone();
    all.extend(warm.open.visits.iter().cloned());
    out.fingerprint = scenario::fingerprint(&all);

    let (plain_s, traced_s) = split_seconds(p);
    out.plain = point_section(&warm.pipeline, &warm.pools, plain_s, None, &mut out.tally)?;
    if let Some(seconds) = traced_s {
        let mut sink = Traced::default();
        let section = point_section(
            &warm.pipeline,
            &warm.pools,
            seconds,
            Some(&mut sink),
            &mut out.tally,
        )?;
        out.traced = Some((section, sink));
    }

    let mut conn = PlainConn::connect(warm.pipeline.addr())?;
    let mut rng = SimRng::seeded(p.seed ^ 0xFACE);
    let known = warm.history.scenario.visitors + warm.open.visitors;
    let probes = (0..p.sizes.verify_probes).map(|_| Probe::Point {
        visitor: rng.range_usize(0, known as usize + known as usize / 10) as u32,
    });
    verify(&mut conn, &warm.history.reference, probes, &mut out.tally);
    drop(conn);
    out.cache_fit_ratio = layers::ROW_CACHE_BYTES as f64 / warm.history.cache_bytes as f64;
    out.layer_visits = warm.history.scenario.visits.clone();
    finish_with_history(out, warm.pipeline, warm.history.events)
}

/// Stops the server (its last flush lands), weighs the warehouse
/// directory against the `events` it holds, and hands the directory to
/// the layer pass (which opens it in-process) by keeping it in the
/// outcome.
fn finish_with_history(
    mut out: Outcome,
    mut pipeline: Pipeline,
    events: u64,
) -> Result<Outcome, String> {
    pipeline.stop()?;
    out.disk_events = events;
    out.disk_bytes = env::dir_bytes(&pipeline.dir);
    let kept = pipeline.dir.with_extension("kept");
    let _ = std::fs::remove_dir_all(&kept);
    std::fs::rename(&pipeline.dir, &kept).map_err(|e| e.to_string())?;
    out.history_dir = Some(kept);
    Ok(out)
}

// --- scan_cold ---------------------------------------------------------------

/// One analyst request with the probe that checks it (`None` for the
/// ops that return no rows).
enum Scan {
    Rows(Probe),
    Stats,
    Explain(u32),
}

/// The analyst's cycle: 40 % paged walk (1 000-row pages whose offset
/// advances through the whole history, so rows evict), 20 % hot-cell
/// top-dwell, 15 % 15-minute windows, 10 % top-10 dwell, 10 % `Stats`
/// with rollup, 5 % `Explain`. The same cycle every time: one
/// connection, no timers, so the program's counters repeat exactly.
fn scan_cycle(seed: u64, n: usize, history: &Scenario) -> Vec<Scan> {
    let mut rng = SimRng::seeded(seed ^ 0x5CA9);
    let hot_cells = Zipf::new(layers::CELLS - layers::EXIT_CHAIN.len(), 1.1);
    let visits = history.visits.len() as u64;
    let mut page = 0u64;
    (0..n)
        .map(|i| match i % 20 {
            0 | 2 | 5 | 7 | 10 | 12 | 15 | 17 => {
                let offset = (page * 1_000) % visits;
                page += 1;
                Scan::Rows(Probe::Walk {
                    offset,
                    limit: 1_000,
                })
            }
            1 | 6 | 11 | 16 => Scan::Rows(Probe::Cell {
                cell: hot_cells.sample(&mut rng) - 1,
                limit: 200,
            }),
            3 | 8 | 13 => {
                let start = scenario::DAY_START + rng.range_i64(0, scenario::DAY_SECONDS);
                Scan::Rows(Probe::Window {
                    start,
                    end: start + 900,
                    limit: 500,
                })
            }
            4 | 14 => Scan::Rows(Probe::TopDwell { limit: 10 }),
            9 | 19 => Scan::Stats,
            _ => Scan::Explain(rng.range_usize(0, history.visitors as usize) as u32),
        })
        .collect()
}

/// Read-only, store/query-heavy, working set 3× the row cache: each
/// cycle restarts the server over the history `cycle_restarts` times
/// (start → connect → first correct point answer), then one analyst
/// connection runs `scan_cycle` closed loop. Prune/order/page, row
/// fetch + decode, row-cache misses and large-reply encoding dominate
/// while round trips are few.
fn scan_cold(p: &Params) -> Result<Outcome, String> {
    struct Cold {
        pipeline: Pipeline,
        history: History,
        cycle: Vec<(Request, Scan)>,
    }
    let mut out = Outcome::default();
    let mut cold = repeat_setup(p, &mut out, |out| {
        // The cache budget is only known once the rows are: build
        // under the default, serve under a third of the history.
        let mut pipeline = Pipeline::new(p.scratch.join("scan"), layers::ROW_CACHE_BYTES, p.trace);
        let history = preload_history(p, &mut pipeline, out)?;
        pipeline.stop()?;
        pipeline.options.row_cache_bytes = (history.cache_bytes / 3) as usize;
        let cycle = scan_cycle(p.seed, p.sizes.cycle_queries, &history.scenario)
            .into_iter()
            .map(|scan| {
                let request = match &scan {
                    Scan::Rows(probe) => probe.request(),
                    Scan::Stats => layers::stats_request(),
                    Scan::Explain(visitor) => layers::explain_request(&object_name(*visitor)),
                };
                (request, scan)
            })
            .collect();
        Ok(Cold {
            pipeline,
            history,
            cycle,
        })
    })?;
    out.fingerprint = scenario::fingerprint(&cold.history.scenario.visits);
    let cells_walked = {
        let mut seen = vec![false; layers::CELLS];
        for v in &cold.history.scenario.visits {
            v.stays.iter().for_each(|s| seen[s.0] = true);
        }
        seen.iter().filter(|&&s| s).count()
    };

    // One cycle; every `verify_every`-th row answer is compared in full.
    let mut verified = 0usize;
    let mut cycle = |pipeline: &mut Pipeline,
                     mut traced: Option<&mut Traced>,
                     tally: &mut Tally|
     -> Result<Section, String> {
        let mut section = Section::default();
        for _ in 0..p.sizes.cycle_restarts {
            let ms = pipeline.restart_to_first_answer(&cold.history.first_answer, tally)?;
            section.restart_ms.push(ms);
        }
        let is_traced = traced.is_some();
        let mut records = Vec::new();
        with_tracing(pipeline, traced.as_deref_mut(), || {
            let mut conn = pipeline.connect(is_traced)?;
            for (request, scan) in &cold.cycle {
                let t = Instant::now();
                let answer = conn.call(request);
                let ns = t.elapsed().as_nanos() as u64;
                section.op_ns.push(ns);
                section.wall_ns += ns;
                if section.samples.len() < 40 {
                    if let Ok(response) = &answer {
                        section.samples.push((request.clone(), response.clone()));
                    }
                }
                let result = answer.and_then(|response| match scan {
                    Scan::Rows(probe) => {
                        let rows = layers::expect_rows(response)?;
                        section.items += rows.len() as u64;
                        // A seeded sample in full; the rest by count.
                        if verified < p.sizes.verify_probes {
                            verified += 1;
                            cold.history.reference.check(probe, &rows)
                        } else {
                            Ok(())
                        }
                    }
                    Scan::Stats => {
                        let (stats, cells) = layers::expect_stats(response)?;
                        if stats.warehouse_trajectories != cold.history.reference.len() as u64 {
                            return Err(format!("stats: {stats:?}"));
                        }
                        if cells != cells_walked {
                            return Err(format!(
                                "rollup has {cells} cells, the visits walked {cells_walked}"
                            ));
                        }
                        Ok(())
                    }
                    Scan::Explain(_) => layers::expect_explained(response).map(|_| ()),
                });
                tally.check(result);
            }
            records = conn.take_records();
            Ok(())
        })?;
        if let Some(sink) = traced {
            sink.records.extend(records);
        }
        Ok(section)
    };

    let (plain_s, traced_s) = split_seconds(p);
    out.plain = repeat_for(plain_s, || cycle(&mut cold.pipeline, None, &mut out.tally))?;
    if let Some(seconds) = traced_s {
        let mut sink = Traced::default();
        let total = repeat_for(seconds, || {
            cycle(&mut cold.pipeline, Some(&mut sink), &mut out.tally)
        })?;
        out.traced = Some((total, sink));
    }

    out.cache_fit_ratio =
        cold.pipeline.options.row_cache_bytes as f64 / cold.history.cache_bytes as f64;
    out.layer_visits = cold.history.scenario.visits.clone();
    finish_with_history(out, cold.pipeline, cold.history.events)
}

// --- mixed_live --------------------------------------------------------------

/// Writes beside reads on the same tiers: over the preloaded history,
/// one writer connection sends `LIVE_BATCH`-event frames open loop at
/// `LIVE_BATCHES_PER_S` (latency timed from each frame's due time,
/// a `Checkpoint` every `live_spill_visits` closed visits) while one
/// reader asks,
/// closed loop, 70 % "where is X now" about a visitor first seen
/// under a second ago (not finding them is a failed op) and 30 %
/// history points. Every ingest bumps the epoch, so reads keep paying
/// the snapshot cut that `point_lookup` always finds cached, and
/// checkpoints take the core mutex and the warehouse write lock.
fn mixed_live(p: &Params) -> Result<Outcome, String> {
    /// One frame of the writer's schedule.
    struct LiveFrame {
        request: Request,
        /// Visitors whose first presence it carries, each with the
        /// frame their visit closes in.
        first_seen: Vec<(u32, usize)>,
        /// Visits it closes.
        closes: usize,
    }
    struct Live {
        pipeline: Pipeline,
        history: History,
        today: Scenario,
        tags: Vec<Tag>,
        frames: Vec<LiveFrame>,
        points: PointPool,
    }
    let pool_frames = (LIVE_BATCHES_PER_S as f64 * p.seconds).ceil() as usize + 1;
    let mut out = Outcome::default();
    let mut live = repeat_setup(p, &mut out, |out| {
        let mut pipeline = Pipeline::new(p.scratch.join("mixed"), layers::ROW_CACHE_BYTES, p.trace);
        let history = preload_history(p, &mut pipeline, out)?;
        for _ in 0..SETUP_RESTARTS {
            let ms = pipeline.restart_to_first_answer(&history.first_answer, &mut out.tally)?;
            out.setup_restart_ms.push(ms);
        }
        // Enough of a second day for the whole open loop (a visit is
        // about a dozen events).
        let today = scenario::generate(
            p.seed + 2,
            pool_frames * LIVE_BATCH / 10,
            1 << 33,
            history.scenario.visitors,
        );
        let mut tags = scenario::feed(&today.visits);
        tags.truncate(pool_frames * LIVE_BATCH);
        let mut closes_in = vec![usize::MAX; today.visits.len()];
        for (i, tag) in tags.iter().enumerate().filter(|(_, t)| t.rank == 2) {
            closes_in[tag.visit as usize] = i / LIVE_BATCH;
        }
        let frames = tags
            .chunks(LIVE_BATCH)
            .map(|chunk| {
                let first_seen = chunk
                    .iter()
                    .filter(|t| t.rank == 1 && t.stay == 0)
                    .map(|t| {
                        let visit = t.visit as usize;
                        (today.visits[visit].visitor, closes_in[visit])
                    })
                    .collect();
                let events = chunk
                    .iter()
                    .map(|&t| scenario::event(&today.visits, t))
                    .collect();
                let closes = chunk.iter().filter(|t| t.rank == 2).count();
                LiveFrame {
                    request: layers::ingest_request(events),
                    first_seen,
                    closes,
                }
            })
            .collect();
        let mut rng = SimRng::seeded(p.seed ^ 0x11FE);
        // History points only: 0 % absent would hide nothing, keep the
        // same 10 % absent as `point_lookup`, no live-only visitors.
        let points = point_pool(
            &mut rng,
            p.sizes.point_pool,
            &history.reference,
            history.scenario.visitors,
            &[],
        );
        Ok(Live {
            pipeline,
            history,
            today,
            tags,
            frames,
            points,
        })
    })?;
    let mut all = live.history.scenario.visits.clone();
    all.extend(live.today.visits.iter().cloned());
    out.fingerprint = scenario::fingerprint(&all);

    let mut sent_frames = 0usize;
    let section = |live: &Live,
                   seconds: f64,
                   mut traced: Option<&mut Traced>,
                   tally: &mut Tally,
                   sent_frames: &mut usize|
     -> Result<Section, String> {
        let is_traced = traced.is_some();
        let first = *sent_frames;
        // (visitor, frame their visit closes in, instant first seen)
        let fresh: Mutex<VecDeque<(u32, usize, Instant)>> = Mutex::new(VecDeque::new());
        let writer_done = AtomicBool::new(false);
        // The frame the writer is sending: a closed visit leaves the
        // live tier and is not served again before the next spill, so
        // "where is X now" is only asked about visitors still inside.
        let sending = AtomicU64::new(first as u64);
        let records = Mutex::new(Vec::new());
        let budget =
            ((LIVE_BATCHES_PER_S as f64 * seconds) as usize).min(live.frames.len() - first);
        let pipeline = &live.pipeline;
        let began = Instant::now();
        let (writer, reader) = with_tracing(pipeline, traced.as_deref_mut(), || {
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| -> Result<(Section, Tally), String> {
                    // The reader stops when the writer does, however it ends.
                    let _done = SetOnDrop(&writer_done);
                    let mut conn = pipeline.connect(is_traced)?;
                    let mut section = Section::default();
                    let mut tally = Tally::default();
                    let period = Duration::from_nanos(1_000_000_000 / LIVE_BATCHES_PER_S);
                    let mut spills = SpillClock::new(p.sizes.live_spill_visits);
                    for (i, frame) in live.frames[first..first + budget].iter().enumerate() {
                        let due = began + period * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        sending.store((first + i) as u64, Ordering::Relaxed);
                        let sent = Instant::now();
                        let acked = conn.call(&frame.request).and_then(layers::expect_ingested);
                        let done = Instant::now();
                        section.lateness_ns.push((sent - due).as_nanos() as u64);
                        section.write_ns.push((done - due).as_nanos() as u64);
                        tally.check(acked.map(|_| ()));
                        if !frame.first_seen.is_empty() {
                            let mut fresh = fresh.lock().expect("fresh");
                            fresh.extend(
                                frame
                                    .first_seen
                                    .iter()
                                    .map(|&(v, closes)| (v, closes, done)),
                            );
                        }
                        if spills.due(frame.closes) {
                            checkpoint(conn.as_mut(), &mut section, &mut tally);
                        }
                    }
                    records.lock().expect("records").extend(conn.take_records());
                    Ok((section, tally))
                });
                let reader = scope.spawn(|| -> Result<(Section, Tally), String> {
                    let mut conn = pipeline.connect(is_traced)?;
                    let mut section = Section::default();
                    let mut tally = Tally::default();
                    let mut rng = SimRng::seeded(p.seed ^ 0x4EAD);
                    let mut points = live.points.iter().cycle();
                    while !writer_done.load(Ordering::Relaxed) {
                        let target = if rng.chance(0.7) {
                            let mut fresh = fresh.lock().expect("fresh");
                            let now = Instant::now();
                            while fresh.front().is_some_and(|(_, _, at)| now - *at > FRESH_FOR) {
                                fresh.pop_front();
                            }
                            let horizon = sending.load(Ordering::Relaxed) as usize + CLOSE_MARGIN;
                            (!fresh.is_empty())
                                .then(|| fresh[rng.range_usize(0, fresh.len())])
                                .filter(|&(_, closes, _)| closes > horizon)
                        } else {
                            None
                        };
                        let fresh_request;
                        let (request, want) = match target {
                            Some((visitor, _, _)) => {
                                fresh_request = layers::point_request(&object_name(visitor));
                                (&fresh_request, None)
                            }
                            None => {
                                let (request, want) = points.next().expect("pool");
                                (request, Some(*want))
                            }
                        };
                        let t = Instant::now();
                        let answer = conn.call(request);
                        section.op_ns.push(t.elapsed().as_nanos() as u64);
                        if section.samples.len() < 32 {
                            if let Ok(response) = &answer {
                                section.samples.push((request.clone(), response.clone()));
                            }
                        }
                        match answer.and_then(layers::expect_rows) {
                            Ok(rows) => {
                                section.items += rows.len() as u64;
                                tally.check(match want {
                                    Some(want) if rows.len() != want => Err(format!(
                                        "history point: {} rows, expected {want}",
                                        rows.len()
                                    )),
                                    None if rows.is_empty() => Err(
                                        "a visitor seen under a second ago, still inside, was not found"
                                            .into(),
                                    ),
                                    _ => Ok(()),
                                });
                            }
                            Err(why) => tally.check(Err(why)),
                        }
                        std::thread::sleep(READER_THINK);
                    }
                    records.lock().expect("records").extend(conn.take_records());
                    Ok((section, tally))
                });
                let writer = writer.join().map_err(|_| "writer panicked".to_string())??;
                let reader = reader.join().map_err(|_| "reader panicked".to_string())??;
                Ok((writer, reader))
            })
        })?;
        *sent_frames += budget;
        let mut section = Section {
            wall_ns: began.elapsed().as_nanos() as u64,
            ..reader.0
        };
        section.write_ns = writer.0.write_ns;
        section.lateness_ns = writer.0.lateness_ns;
        section.checkpoint_ms = writer.0.checkpoint_ms;
        section.spilled_peak = writer.0.spilled_peak;
        tally.merge(writer.1);
        tally.merge(reader.1);
        if let Some(sink) = traced {
            sink.records = records.into_inner().expect("records");
        }
        Ok(section)
    };

    let (plain_s, traced_s) = split_seconds(p);
    out.plain = section(&live, plain_s, None, &mut out.tally, &mut sent_frames)?;
    if let Some(seconds) = traced_s {
        let mut sink = Traced::default();
        let traced = section(
            &live,
            seconds,
            Some(&mut sink),
            &mut out.tally,
            &mut sent_frames,
        )?;
        out.traced = Some((traced, sink));
    }

    // What the server now knows of today: closed visits in full, the
    // rest up to the last presence sent.
    let sent = &live.tags[..sent_frames * LIVE_BATCH];
    let mut progress: BTreeMap<u32, (usize, bool)> = BTreeMap::new();
    for tag in sent {
        let entry = progress.entry(tag.visit).or_default();
        match tag.rank {
            1 => entry.0 += 1,
            2 => entry.1 = true,
            _ => {}
        }
    }
    for (&visit, &(stays, closed)) in &progress {
        let v = &live.today.visits[visit as usize];
        if closed {
            live.history.reference.add_closed(v);
        } else {
            live.history.reference.add_open(v, stays);
        }
    }
    let mut conn = PlainConn::connect(live.pipeline.addr())?;
    let mut last = Section::default();
    checkpoint(&mut conn, &mut last, &mut out.tally);
    let (stats, _) = layers::expect_stats(conn.call(&layers::stats_request())?)?;
    // The engine restarted after the preload: it has seen today only.
    out.tally
        .expect("events applied", stats.events, sent.len() as u64);
    out.tally.expect("anomalies", stats.anomalies, 0);
    let mut rng = SimRng::seeded(p.seed ^ 0xFACE);
    let seen: Vec<u32> = progress
        .keys()
        .map(|&visit| live.today.visits[visit as usize].visitor)
        .collect();
    let history = &live.history.scenario;
    let probes = mixed_probes(p.seed, p.sizes.verify_probes / 2, history)
        .into_iter()
        .chain(
            (0..p.sizes.verify_probes.div_ceil(2)).map(|_| Probe::Point {
                visitor: *rng.pick(&seen),
            }),
        );
    verify(&mut conn, &live.history.reference, probes, &mut out.tally);
    drop(conn);
    out.cache_fit_ratio = layers::ROW_CACHE_BYTES as f64 / live.history.cache_bytes as f64;
    out.layer_visits = live.history.scenario.visits.clone();
    let events = live.history.events + sent.len() as u64;
    finish_with_history(out, live.pipeline, events)
}

/// Sets the flag when dropped, so a thread's end is seen however it ends.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Removes what a run left in its scratch directory.
pub fn cleanup(scratch: &Path) {
    let _ = std::fs::remove_dir_all(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    const TINY: Sizes = Sizes {
        history_visits: 300,
        rush_visits: 300,
        spill_visits: 90,
        live_spill_visits: 45,
        open_visits: 40,
        point_pool: 64,
        warmup_queries: 100,
        cycle_queries: 40,
        cycle_restarts: 1,
        verify_probes: 100,
        setups: 1,
    };

    /// Every workload, end to end against a real server, at a size a
    /// debug build finishes in a moment: no check fails and every
    /// metric the tables name comes out.
    #[test]
    fn tiny_runs_pass_their_own_checks() {
        for (i, workload) in WORKLOADS.iter().enumerate() {
            let scratch =
                std::env::temp_dir().join(format!("ledger-test-{}-{i}", std::process::id()));
            cleanup(&scratch);
            std::fs::create_dir_all(&scratch).unwrap();
            let params = Params {
                workload: workload.to_string(),
                seed: 42,
                seconds: 0.4,
                trace: true,
                sizes: TINY,
                scratch: scratch.clone(),
            };
            let outcome = run(&params).unwrap();
            assert_eq!(
                outcome.tally.failed, 0,
                "{workload}: {:?}",
                outcome.tally.examples
            );
            assert!(outcome.tally.attempted > 100, "{workload}");
            let end_to_end = report::end_to_end(&outcome).unwrap();
            assert_eq!(end_to_end.len(), report::END_TO_END.len());
            assert!(
                end_to_end.iter().all(|&(_, v)| v > 0.0 && v.is_finite()),
                "{workload}: {end_to_end:?}"
            );
            let per_layer = report::per_layer(&outcome, &params, 1).unwrap();
            assert_eq!(per_layer.len(), report::PER_LAYER.len());
            assert!(per_layer.iter().all(|&(_, v)| v.is_finite()), "{workload}");
            let (_, traced) = outcome.traced.as_ref().unwrap();
            assert!(
                !traced.records.is_empty() && !traced.trees.is_empty(),
                "{workload}"
            );
            cleanup(&scratch);
        }
    }

    #[test]
    fn tally_counts_failures_and_keeps_a_few_reasons() {
        let mut tally = Tally::default();
        tally.check(Ok(()));
        for i in 0..10 {
            tally.check(Err(format!("bad {i}")));
        }
        tally.expect("same", 3, 3);
        tally.expect("differs", 3, 4);
        assert_eq!((tally.attempted, tally.failed), (13, 11));
        assert_eq!(tally.examples.len(), 5);
    }
}
