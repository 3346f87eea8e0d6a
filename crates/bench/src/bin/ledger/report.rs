//! The metric tables (the contract `BENCHMARK.json` states) and the
//! arithmetic from a run's `Outcome` to the values printed under them.

use std::collections::BTreeMap;

use crate::env;
use crate::json::Json;
use crate::layerpass;
use crate::layers::MetricsSnapshot;
use crate::spans::SelfTimeTotals;
use crate::stats::{median, percentile};
use crate::workloads::{Outcome, Params, Section, Traced};

/// One end-to-end metric: what a user of the served system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these with `--trace 0`. "op" is
/// the workload's own operation: a 512-event ingest frame on
/// `ingest_rush`, a federated point query on `point_lookup`, an
/// analyst query of the cycle on `scan_cold`, a reader query on
/// `mixed_live`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "restart_to_first_answer_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "disk_bytes_per_event",
        unit: "B",
        better: "lower",
        bound: 0.02,
    },
];

/// One per-layer metric of the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Where the number comes from: `a` the ledger's spans around the
    /// raw client's calls, `b` the served `Metrics`/`Trace` ops as
    /// deltas around the traced section, `c` the in-process layer
    /// pass, `env`/`gen`/`load` the ledger itself.
    pub source: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
    /// A count that must repeat exactly on `scan_cold` (one
    /// connection, no timers) for one seed, so a later claim may rest
    /// on it.
    pub exact: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
        exact: true,
    }
}

const CANARY: &str = "nothing: a machine canary, the floor under wire and checkpoint numbers";
const ON_POINT: &str = "op_p50_us, ops_per_s on point_lookup (and mixed_live)";
const ON_SCAN: &str = "ops_per_s, op_p50_us on scan_cold";
const ON_RUSH: &str = "ops_per_s, op_p50_us on ingest_rush";
const ON_CKPT: &str =
    "ops_per_s on ingest_rush; load.checkpoint_p50_ms, load.op_p99_us on ingest_rush, mixed_live";
const ON_MIXED: &str = "ops_per_s, load.op_p99_us on mixed_live (point_lookup sees only hits)";

pub const PER_LAYER: [PerLayer; 78] = [
    layer("env.loopback_rtt_p50_us", "us", "lower", "env", CANARY),
    layer("env.spin_ns_per_iter", "ns", "lower", "env", CANARY),
    layer("env.fsync_4k_us", "us", "lower", "env", CANARY),
    exact("env.cpus_allowed", "count", "lower", "env", CANARY),
    layer(
        "gen.lateness_p99_us",
        "us",
        "lower",
        "gen",
        "validity of mixed_live's open loop",
    ),
    exact(
        "gen.fingerprint",
        "count",
        "lower",
        "gen",
        "identity of the inputs",
    ),
    layer(
        "load.ops_per_s",
        "1/s",
        "higher",
        "load",
        "the traced section's own rate",
    ),
    layer(
        "load.items_per_s",
        "1/s",
        "higher",
        "load",
        "events acknowledged or trajectories returned per second (rows/s on scan_cold)",
    ),
    layer(
        "load.op_p50_us",
        "us",
        "lower",
        "load",
        "the traced section's own median",
    ),
    layer(
        "load.op_p99_us",
        "us",
        "lower",
        "load",
        "the untraced section's tail (demoted: it does not repeat within a bound on this host)",
    ),
    layer(
        "load.peak_rss_mb",
        "MiB",
        "lower",
        "load",
        "VmHWM of the run's process, generator included (demoted likewise)",
    ),
    layer(
        "load.untraced_op_p50_us",
        "us",
        "lower",
        "load",
        "the same run's untraced median",
    ),
    layer(
        "load.write_p50_us",
        "us",
        "lower",
        "load",
        "mixed_live's writer, from each frame's due time",
    ),
    layer(
        "load.write_p99_us",
        "us",
        "lower",
        "load",
        "mixed_live's writer, from each frame's due time",
    ),
    layer(
        "load.checkpoint_p50_ms",
        "ms",
        "lower",
        "load",
        "median Checkpoint round trip, the section's and the preloads' (demoted likewise)",
    ),
    layer("serve.proto.encode_request_ns", "ns", "lower", "c", ON_RUSH),
    layer("serve.proto.decode_request_ns", "ns", "lower", "c", ON_RUSH),
    layer(
        "serve.proto.encode_response_ns",
        "ns",
        "lower",
        "c",
        ON_SCAN,
    ),
    layer(
        "serve.proto.decode_response_ns",
        "ns",
        "lower",
        "c",
        ON_SCAN,
    ),
    exact("serve.proto.request_bytes", "B", "lower", "c", ON_RUSH),
    exact("serve.proto.response_bytes", "B", "lower", "c", ON_SCAN),
    layer("serve.wire.frame_write_ns", "ns", "lower", "c", ON_POINT),
    layer("serve.wire.frame_read_ns", "ns", "lower", "c", ON_POINT),
    layer("serve.wire.client_send_ns", "ns", "lower", "a", ON_POINT),
    layer("serve.wire.client_wait_ns", "ns", "lower", "a", ON_POINT),
    layer("serve.wire.residual_ns", "ns", "lower", "a+b+c", ON_POINT),
    layer(
        "serve.wire.residual_share",
        "ratio",
        "lower",
        "a+b+c",
        ON_POINT,
    ),
    layer(
        "serve.server.handle_ns",
        "ns",
        "lower",
        "b",
        "op_p50_us on every workload",
    ),
    layer(
        "serve.server.snapshot_build_ns",
        "ns",
        "lower",
        "b",
        ON_MIXED,
    ),
    layer(
        "serve.server.evaluate_ns",
        "ns",
        "lower",
        "b",
        "op_p50_us on point_lookup, mixed_live",
    ),
    layer(
        "serve.server.snapshot_cache_hit_ratio",
        "ratio",
        "higher",
        "b",
        ON_MIXED,
    ),
    layer(
        "serve.server.bytes_out_per_request",
        "B",
        "lower",
        "b",
        ON_SCAN,
    ),
    exact(
        "serve.server.errors",
        "count",
        "lower",
        "b",
        "failed ops on every workload",
    ),
    layer(
        "serve.span.handle_self_ns",
        "ns",
        "lower",
        "b",
        "op_p50_us on every workload",
    ),
    layer(
        "serve.span.snapshot_cut_self_ns",
        "ns",
        "lower",
        "b",
        ON_MIXED,
    ),
    layer(
        "serve.span.snapshot_rebuild_self_ns",
        "ns",
        "lower",
        "b",
        ON_MIXED,
    ),
    layer("serve.span.evaluate_self_ns", "ns", "lower", "b", ON_SCAN),
    layer("serve.span.prune_self_ns", "ns", "lower", "b", ON_SCAN),
    layer("serve.span.order_page_self_ns", "ns", "lower", "b", ON_SCAN),
    layer("serve.span.fetch_rows_self_ns", "ns", "lower", "b", ON_SCAN),
    layer("serve.span.row_read_self_ns", "ns", "lower", "b", ON_SCAN),
    layer(
        "serve.span.segment_hydrate_self_ns",
        "ns",
        "lower",
        "b",
        ON_SCAN,
    ),
    layer("serve.span.wire_write_self_ns", "ns", "lower", "b", ON_SCAN),
    layer(
        "trace.trees",
        "count",
        "higher",
        "b",
        "support of the serve.span.* means",
    ),
    layer(
        "trace.self_sum_over_root",
        "ratio",
        "higher",
        "b",
        "1 when the trees account for their roots",
    ),
    layer(
        "trace.handle_over_histogram",
        "ratio",
        "higher",
        "b",
        "1 when trees and serve.handle_ns agree",
    ),
    layer(
        "stream.engine.ingest_ns_per_event",
        "ns",
        "lower",
        "c",
        ON_RUSH,
    ),
    layer(
        "stream.engine.visits_stolen_ratio",
        "ratio",
        "lower",
        "b",
        ON_RUSH,
    ),
    layer(
        "stream.engine.finished_backlog_peak",
        "count",
        "lower",
        "load",
        "load.peak_rss_mb on ingest_rush",
    ),
    layer(
        "core.episode.batch_ns_per_visit",
        "ns",
        "lower",
        "c",
        ON_RUSH,
    ),
    layer("stream.snapshot.cut_miss_ns", "ns", "lower", "c", ON_MIXED),
    layer("stream.snapshot.cut_hit_ns", "ns", "lower", "c", ON_MIXED),
    exact(
        "stream.snapshot.live_visits",
        "count",
        "lower",
        "c",
        ON_MIXED,
    ),
    layer(
        "stream.flusher.force_ms_per_10k",
        "ms",
        "lower",
        "c",
        ON_CKPT,
    ),
    layer(
        "store.codec.encode_ns_per_traj",
        "ns",
        "lower",
        "c",
        ON_CKPT,
    ),
    layer(
        "store.codec.decode_ns_per_traj",
        "ns",
        "lower",
        "c",
        ON_SCAN,
    ),
    exact(
        "store.codec.bytes_per_traj",
        "B",
        "lower",
        "c",
        "disk_bytes_per_event on every workload",
    ),
    layer(
        "store.segment.build_ms_per_10k",
        "ms",
        "lower",
        "c",
        ON_CKPT,
    ),
    layer("store.warehouse.compact_ms", "ms", "lower", "c", ON_CKPT),
    exact("store.warehouse.segments", "count", "lower", "dir", ON_SCAN),
    layer(
        "store.warehouse.segments_compacted",
        "count",
        "lower",
        "b",
        ON_CKPT,
    ),
    layer(
        "store.warehouse.write_amp",
        "ratio",
        "lower",
        "b",
        "disk_bytes_per_event, ops_per_s on ingest_rush",
    ),
    exact(
        "store.warehouse.disk_bytes",
        "B",
        "lower",
        "dir",
        "disk_bytes_per_event on every workload",
    ),
    layer(
        "store.warehouse.open_ms",
        "ms",
        "lower",
        "c",
        "restart_to_first_answer_ms on scan_cold",
    ),
    exact("store.rowcache.hit_ratio", "ratio", "higher", "b", ON_SCAN),
    exact(
        "store.rowcache.evicted_bytes_per_query",
        "B",
        "lower",
        "b",
        ON_SCAN,
    ),
    exact(
        "store.rowcache.fit_ratio",
        "ratio",
        "higher",
        "load",
        ON_SCAN,
    ),
    layer("query.prune.point_ns", "ns", "lower", "c", ON_POINT),
    exact(
        "query.prune.segments_per_query",
        "count",
        "lower",
        "b",
        ON_POINT,
    ),
    exact("query.prune.pruned_ratio", "ratio", "higher", "b", ON_POINT),
    layer("query.page.sorted_limit_ns", "ns", "lower", "c", ON_SCAN),
    layer("query.page.content_limit_ns", "ns", "lower", "c", ON_SCAN),
    exact(
        "query.rows_decoded_per_row_returned",
        "ratio",
        "lower",
        "b",
        ON_SCAN,
    ),
    exact(
        "query.bytes_read_per_row_returned",
        "B",
        "lower",
        "b",
        ON_SCAN,
    ),
    layer("query.federated.evaluate_ns", "ns", "lower", "c", ON_POINT),
    layer("query.live.indexed_count_ns", "ns", "lower", "c", ON_POINT),
    layer(
        "obs.registry.snapshot_ns",
        "ns",
        "lower",
        "c",
        "op_p50_us on point_lookup",
    ),
    layer(
        "obs.trace.overhead_pct",
        "%",
        "lower",
        "load",
        "op_p50_us on point_lookup",
    ),
];

fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Samples a p99 should have beyond it to be worth reading (the
/// workloads are sized so that a full run has them; the run says so
/// on stderr when it does not).
pub const TAIL_SUPPORT: usize = 30;

pub fn end_to_end(out: &Outcome) -> Result<Vec<(&'static str, f64)>, String> {
    let s = &out.plain;
    if s.op_ns.is_empty() || s.wall_ns == 0 {
        return Err("the timed section completed no operation".into());
    }
    let ops = sorted(&s.op_ns);
    let seconds = s.wall_ns as f64 / 1e9;
    let restarts: Vec<f64> = s
        .restart_ms
        .iter()
        .chain(&out.setup_restart_ms)
        .copied()
        .collect();
    if restarts.is_empty() || out.disk_events == 0 {
        return Err("the run made no restart or sent no event".into());
    }
    let values = [
        median(&out.setup_s),
        ops.len() as f64 / seconds,
        ns_to_us(percentile(&ops, 50.0)),
        median(&restarts),
        out.disk_bytes as f64 / out.disk_events as f64,
    ];
    Ok(END_TO_END.iter().map(|m| m.name).zip(values).collect())
}

/// Counter and histogram movement between pairs of `Metrics`
/// snapshots (one pair per server the traced section used).
struct Delta<'a> {
    before: &'a [MetricsSnapshot],
    after: &'a [MetricsSnapshot],
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.before
            .iter()
            .zip(self.after)
            .map(|(b, a)| {
                a.counter(name)
                    .unwrap_or(0)
                    .saturating_sub(b.counter(name).unwrap_or(0))
            })
            .sum::<u64>() as f64
    }

    /// `(observations, their sum)` recorded into a histogram.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let mut count = 0u64;
        let mut sum = 0u64;
        for (b, a) in self.before.iter().zip(self.after) {
            let (ac, asum) = a.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
            let (bc, bsum) = b.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
            count += ac.saturating_sub(bc);
            sum += asum.saturating_sub(bsum);
        }
        (count as f64, sum as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The ops a workload's traffic consists of (the control connection's
/// `metrics` and `trace` polls are not the workload).
const DATA_OPS: [&str; 6] = [
    "ingest",
    "query",
    "query_federated",
    "explain",
    "stats",
    "checkpoint",
];

const SERVER_SPANS: [&str; 10] = [
    "handle",
    "snapshot_cut",
    "snapshot_rebuild",
    "evaluate",
    "prune",
    "order_page",
    "fetch_rows",
    "row_read",
    "segment_hydrate",
    "wire_write",
];

/// Sources (a) and (b): the raw client's spans, the served `Metrics`
/// deltas and the served trace trees of the traced section.
fn traced_metrics(
    section: &Section,
    traced: &Traced,
    codec_ns: f64,
    bytes_per_traj: f64,
    m: &mut BTreeMap<String, f64>,
) {
    let delta = Delta {
        before: &traced.before,
        after: &traced.after,
    };
    let requests = traced.records.len() as f64;
    let phase_mean = |i: usize| {
        ratio(
            traced.records.iter().map(|r| r.phases[i]).sum::<u64>() as f64,
            requests,
        )
    };
    let rtt = ratio(
        traced.records.iter().map(|r| r.total_ns()).sum::<u64>() as f64,
        requests,
    );
    m.insert("serve.wire.client_send_ns".into(), phase_mean(1));
    m.insert("serve.wire.client_wait_ns".into(), phase_mean(2));

    let (mut handled, mut handle_sum) = (0.0, 0.0);
    for op in DATA_OPS {
        let (count, sum) = delta.histogram(&format!("serve.handle_ns.{op}"));
        handled += count;
        handle_sum += sum;
    }
    let handle = ratio(handle_sum, handled);
    m.insert("serve.server.handle_ns".into(), handle);
    // What the handler's clock leaves out: the client's own codec, the
    // server's `decode_request` + `encode_response` (priced by the
    // layer pass), and — the residual — framing, syscalls, the kernel
    // and the scheduler.
    let residual = (rtt - phase_mean(0) - phase_mean(3) - handle - codec_ns).max(0.0);
    m.insert("serve.wire.residual_ns".into(), residual);
    m.insert("serve.wire.residual_share".into(), ratio(residual, rtt));

    let (builds, build_sum) = delta.histogram("serve.snapshot_build_ns");
    m.insert(
        "serve.server.snapshot_build_ns".into(),
        ratio(build_sum, builds),
    );
    let (evals, eval_sum) = delta.histogram("serve.evaluate_ns");
    m.insert("serve.server.evaluate_ns".into(), ratio(eval_sum, evals));
    let hits = delta.counter("serve.snapshot_cache_hits");
    let misses = delta.counter("serve.snapshot_cache_misses");
    m.insert(
        "serve.server.snapshot_cache_hit_ratio".into(),
        ratio(hits, hits + misses),
    );
    m.insert("serve.server.errors".into(), delta.counter("serve.errors"));

    // The served trees of the ledger's own requests.
    let mut selfs = SelfTimeTotals::default();
    let (mut roots, mut self_sum, mut handles, mut handle_spans) = (0.0, 0.0, 0.0, 0.0);
    let mut bytes_out = 0.0;
    for tree in traced.trees.values() {
        self_sum += selfs.add_request(tree) as f64;
        roots += (tree[0].end_ns - tree[0].start_ns) as f64;
        for span in tree.iter().filter(|s| s.name == "handle") {
            handles += (span.end_ns - span.start_ns) as f64;
            handle_spans += 1.0;
        }
    }
    let trees = traced.trees.len() as f64;
    for name in SERVER_SPANS {
        m.insert(
            format!("serve.span.{name}_self_ns"),
            ratio(selfs.total_ns(name) as f64, trees),
        );
    }
    m.insert("trace.trees".into(), trees);
    m.insert("trace.self_sum_over_root".into(), ratio(self_sum, roots));
    m.insert(
        "trace.handle_over_histogram".into(),
        ratio(ratio(handles, handle_spans), handle),
    );
    for record in &traced.records {
        bytes_out += record.response_bytes as f64;
    }
    m.insert(
        "serve.server.bytes_out_per_request".into(),
        ratio(bytes_out, requests),
    );

    // stream / store / query counters over the same window.
    m.insert(
        "stream.engine.visits_stolen_ratio".into(),
        ratio(
            delta.counter("engine.visits_stolen"),
            delta.counter("engine.visits_routed"),
        ),
    );
    m.insert(
        "store.warehouse.segments_compacted".into(),
        delta.counter("store.segments_compacted"),
    );
    m.insert(
        "store.warehouse.write_amp".into(),
        ratio(
            delta.counter("store.segment_bytes_written"),
            delta.counter("flush.trajectories") * bytes_per_traj,
        ),
    );
    let queries: f64 = ["query", "query_federated"]
        .iter()
        .map(|op| delta.histogram(&format!("serve.handle_ns.{op}")).0)
        .sum();
    let cache_hits = delta.counter("query.row_cache_hits");
    let cache_misses = delta.counter("query.row_cache_misses");
    m.insert(
        "store.rowcache.hit_ratio".into(),
        ratio(cache_hits, cache_hits + cache_misses),
    );
    m.insert(
        "store.rowcache.evicted_bytes_per_query".into(),
        ratio(delta.counter("query.row_cache_evicted_bytes"), queries),
    );
    let scanned = delta.counter("query.segments_scanned");
    let pruned = delta.counter("query.zone_pruned") + delta.counter("query.object_pruned");
    m.insert(
        "query.prune.segments_per_query".into(),
        ratio(scanned, queries),
    );
    m.insert(
        "query.prune.pruned_ratio".into(),
        ratio(pruned, scanned + pruned),
    );
    let rows = section.items as f64;
    m.insert(
        "query.rows_decoded_per_row_returned".into(),
        ratio(delta.counter("query.trajectories_decoded"), rows),
    );
    m.insert(
        "query.bytes_read_per_row_returned".into(),
        ratio(delta.counter("query.segment_bytes_read"), rows),
    );
}

/// Every per-layer metric of a traced run, in `PER_LAYER` order.
pub fn per_layer(
    out: &Outcome,
    p: &Params,
    pinned_cpus: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (section, traced) = out
        .traced
        .as_ref()
        .ok_or("per-layer metrics need the traced section")?;
    if section.op_ns.is_empty() || out.plain.op_ns.is_empty() {
        return Err("a section completed no operation".into());
    }
    let warehouse = out
        .history_dir
        .as_ref()
        .ok_or("the run kept no warehouse for the layer pass")?;
    let scratch = p.scratch.join("layerpass");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut m = layerpass::run(&layerpass::Inputs {
        visits: &out.layer_visits,
        warehouse,
        samples: &section.samples,
        scratch: &scratch,
    })?;

    m.insert(
        "env.loopback_rtt_p50_us".into(),
        env::loopback_rtt_p50_us(20_000)?,
    );
    m.insert("env.spin_ns_per_iter".into(), env::spin_ns_per_iter());
    m.insert("env.fsync_4k_us".into(), env::fsync_4k_us(&scratch, 50)?);
    m.insert("env.cpus_allowed".into(), pinned_cpus as f64);
    m.insert("gen.fingerprint".into(), out.fingerprint as f64);

    let ops = sorted(&section.op_ns);
    let untraced = sorted(&out.plain.op_ns);
    let traced_p50 = percentile(&ops, 50.0) as f64;
    let untraced_p50 = percentile(&untraced, 50.0) as f64;
    m.insert(
        "load.ops_per_s".into(),
        ratio(ops.len() as f64, section.wall_ns as f64 / 1e9),
    );
    m.insert(
        "load.items_per_s".into(),
        ratio(section.items as f64, section.wall_ns as f64 / 1e9),
    );
    m.insert("load.op_p50_us".into(), traced_p50 / 1e3);
    m.insert("load.untraced_op_p50_us".into(), untraced_p50 / 1e3);
    m.insert(
        "load.op_p99_us".into(),
        ns_to_us(percentile(&untraced, 99.0)),
    );
    m.insert("load.peak_rss_mb".into(), env::peak_rss_mb());
    m.insert(
        "obs.trace.overhead_pct".into(),
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    let writes = sorted(&section.write_ns);
    let lateness = sorted(&section.lateness_ns);
    let or_zero = |v: &[u64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            ns_to_us(percentile(v, p))
        }
    };
    m.insert("load.write_p50_us".into(), or_zero(&writes, 50.0));
    m.insert("load.write_p99_us".into(), or_zero(&writes, 99.0));
    m.insert("gen.lateness_p99_us".into(), or_zero(&lateness, 99.0));
    let checkpoints: Vec<f64> = section
        .checkpoint_ms
        .iter()
        .chain(&out.setup_checkpoint_ms)
        .copied()
        .collect();
    m.insert("load.checkpoint_p50_ms".into(), median(&checkpoints));
    m.insert(
        "stream.engine.finished_backlog_peak".into(),
        section.spilled_peak as f64,
    );
    m.insert("store.rowcache.fit_ratio".into(), out.cache_fit_ratio);
    m.insert("store.warehouse.disk_bytes".into(), out.disk_bytes as f64);
    m.insert(
        "store.warehouse.segments".into(),
        env::dir_files(warehouse, ".seg") as f64,
    );

    let codec_ns = m
        .get("serve.proto.decode_request_ns")
        .copied()
        .unwrap_or(0.0)
        + m.get("serve.proto.encode_response_ns")
            .copied()
            .unwrap_or(0.0);
    let bytes_per_traj = m["store.codec.bytes_per_traj"];
    traced_metrics(section, traced, codec_ns, bytes_per_traj, &mut m);

    PER_LAYER
        .iter()
        .map(|def| {
            m.get(def.name)
                .map(|&v| (def.name, v))
                .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))
        })
        .collect()
}

/// The one JSON object a run ends with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit(name)))]),
                )
            })),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the root of the repository is the contract;
    /// the tables above must say exactly what it says.
    const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(value: &Json, key: &str) -> Vec<(String, String, String)> {
        value
            .get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let contract = Json::parse(BENCHMARK).unwrap();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(names(&contract, "end_to_end"), ours);
        for (def, stated) in END_TO_END
            .iter()
            .zip(contract.get("end_to_end").unwrap().as_arr().unwrap())
        {
            assert_eq!(stated.get("bound").unwrap().as_f64(), Some(def.bound));
            assert!(def.bound <= 0.25);
        }
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(names(&contract, "per_layer"), ours);
        let workloads: Vec<&str> = contract
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_and_nothing_else() {
        let metrics: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = result_line(true, 10, 0, &metrics);
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed = parsed.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(printed.len(), END_TO_END.len());
        for ((name, value), def) in printed.iter().zip(&END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(value.get("unit").unwrap().as_str(), Some(def.unit));
            assert_eq!(value.get("value").unwrap().as_f64(), Some(1.25));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
