//! Source (c) of the per-layer metrics: each layer's public functions
//! timed in-process on the workload's own generated inputs, with no
//! server and no socket in the way. What a layer costs here is what
//! the served numbers can at best come down to.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::layers::{self, Engine, Request, Response, Row, Warehouse};
use crate::scenario::{self, object_name, Visit};

/// Visits the engine, codec and segment timings run over.
const SAMPLE_VISITS: usize = 4_000;
/// Visits left open for the snapshot-cut and live-index timings (the
/// live tier `point_lookup` serves from).
const OPEN_VISITS: usize = 2_000;

/// Mean nanoseconds of `f` over `reps` calls.
fn mean_ns<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let t = Instant::now();
    for i in 0..reps {
        black_box(f(i));
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

pub struct Inputs<'a> {
    /// The workload's generated visits, in arrival order.
    pub visits: &'a [Visit],
    /// A warehouse directory the served run left behind (stopped).
    pub warehouse: &'a Path,
    /// Requests the workload sent and the answers it got.
    pub samples: &'a [(Request, Response)],
    /// An empty directory for the segment-build timings.
    pub scratch: &'a Path,
}

pub fn run(inputs: &Inputs) -> Result<BTreeMap<String, f64>, String> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let visits = &inputs.visits[..inputs.visits.len().min(SAMPLE_VISITS)];
    let rows: Vec<Row> = visits.iter().map(Visit::row).collect();

    // serve::proto and serve::wire on the workload's own messages.
    if !inputs.samples.is_empty() {
        let n = inputs.samples.len();
        let reps = 20 * n;
        let requests: Vec<Vec<u8>> = inputs
            .samples
            .iter()
            .map(|(r, _)| layers::encode_request_bytes(r))
            .collect();
        let responses: Vec<Vec<u8>> = inputs
            .samples
            .iter()
            .map(|(_, r)| layers::encode_response_bytes(r))
            .collect();
        put(
            "serve.proto.encode_request_ns",
            mean_ns(reps, |i| {
                layers::encode_request_bytes(&inputs.samples[i % n].0)
            }),
        );
        put(
            "serve.proto.decode_request_ns",
            mean_ns(reps, |i| layers::decode_request_bytes(&requests[i % n])),
        );
        put(
            "serve.proto.encode_response_ns",
            mean_ns(reps, |i| {
                layers::encode_response_bytes(&inputs.samples[i % n].1)
            }),
        );
        put(
            "serve.proto.decode_response_ns",
            mean_ns(reps, |i| layers::decode_response_bytes(&responses[i % n])),
        );
        let mean_len = |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
        put("serve.proto.request_bytes", mean_len(&requests));
        put("serve.proto.response_bytes", mean_len(&responses));
        let mut framed = Vec::new();
        put(
            "serve.wire.frame_write_ns",
            mean_ns(reps, |i| {
                layers::frame_write(&mut framed, &responses[i % n])
            }),
        );
        let frames: Vec<Vec<u8>> = responses
            .iter()
            .map(|payload| {
                let mut out = Vec::new();
                layers::frame_write(&mut out, payload);
                out
            })
            .collect();
        put(
            "serve.wire.frame_read_ns",
            mean_ns(reps, |i| layers::frame_read(&frames[i % n])),
        );
    }

    // core: the batch oracle, the floor the engine should approach.
    let t = Instant::now();
    let batch_episodes = layers::batch_episode_count(&rows);
    put(
        "core.episode.batch_ns_per_visit",
        t.elapsed().as_nanos() as f64 / rows.len() as f64,
    );

    // stream: the engine on the same visits, then the flusher.
    let registry = layers::private_registry();
    let mut engine = Engine::new(&registry);
    let tags = scenario::feed(visits);
    let events: Vec<layers::Event> = tags.iter().map(|&t| scenario::event(visits, t)).collect();
    let t = Instant::now();
    engine.ingest_all(events);
    put(
        "stream.engine.ingest_ns_per_event",
        t.elapsed().as_nanos() as f64 / tags.len() as f64,
    );
    if engine.episodes() != batch_episodes {
        return Err(format!(
            "layer pass: streamed {} episodes, batch {batch_episodes}",
            engine.episodes()
        ));
    }
    let flush_dir = inputs.scratch.join("flusher");
    let mut spill = Warehouse::open(&flush_dir, &registry)?;
    let t = Instant::now();
    let spilled = spill.force(&mut engine)?;
    put(
        "stream.flusher.force_ms_per_10k",
        t.elapsed().as_secs_f64() * 1e3 * 10_000.0 / spilled.max(1) as f64,
    );

    // stream: cutting the live snapshot, after and without an ingest.
    let open = &inputs.visits[..inputs.visits.len().min(OPEN_VISITS)];
    let mut live = Engine::new(&registry);
    live.ingest_all(
        open.iter()
            .flat_map(|v| v.open_events(v.stays.len().div_ceil(2)))
            .collect(),
    );
    let (snapshot, _) = live.live_snapshot();
    put(
        "stream.snapshot.live_visits",
        layers::live_visits(&snapshot) as f64,
    );
    let nudges: Vec<&Visit> = open
        .iter()
        .filter(|v| v.stays.len() >= 2)
        .take(50)
        .collect();
    let mut miss_ns = 0u128;
    for v in &nudges {
        // The next stay of an open visit: one event, one epoch.
        live.ingest_one(layers::presence(v.key, v.stays[v.stays.len().div_ceil(2)]));
        let t = Instant::now();
        let (_, cached) = black_box(live.live_snapshot());
        miss_ns += t.elapsed().as_nanos();
        if cached {
            return Err("layer pass: a snapshot after an ingest was served from cache".into());
        }
    }
    put(
        "stream.snapshot.cut_miss_ns",
        miss_ns as f64 / nudges.len().max(1) as f64,
    );
    put(
        "stream.snapshot.cut_hit_ns",
        mean_ns(2_000, |_| live.live_snapshot()),
    );
    let (snapshot, _) = live.live_snapshot();

    // store: the row codec and segment builds.
    let mut buf = Vec::new();
    let encoded: Vec<Vec<u8>> = rows
        .iter()
        .map(|row| {
            buf.clear();
            layers::encode_row(&mut buf, row);
            buf.clone()
        })
        .collect();
    let n = rows.len();
    put(
        "store.codec.encode_ns_per_traj",
        mean_ns(n, |i| {
            buf.clear();
            layers::encode_row(&mut buf, &rows[i]);
        }),
    );
    put(
        "store.codec.decode_ns_per_traj",
        mean_ns(n, |i| layers::decode_row(&encoded[i])),
    );
    put(
        "store.codec.bytes_per_traj",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / n as f64,
    );
    // Four equal flushes: the fourth fills a size tier and compacts.
    let quarter = n / 4;
    let batches: Vec<Vec<Row>> = rows
        .chunks(quarter.max(1))
        .take(4)
        .map(<[Row]>::to_vec)
        .collect();
    let (flush_ns, segments) = layers::flush_batches(&inputs.scratch.join("segments"), batches)?;
    let plain = flush_ns[..flush_ns.len() - 1].iter().sum::<u64>() as f64
        / (flush_ns.len() - 1).max(1) as f64;
    put(
        "store.segment.build_ms_per_10k",
        plain / 1e6 * 10_000.0 / quarter.max(1) as f64,
    );
    put(
        "store.warehouse.compact_ms",
        (*flush_ns.last().expect("a flush") as f64 - plain).max(0.0) / 1e6,
    );
    if segments != 1 && flush_ns.len() == 4 {
        return Err(format!(
            "layer pass: four equal flushes left {segments} segments, not one"
        ));
    }

    // store + query: the served run's own warehouse, opened cold.
    let mut open_ns = Vec::new();
    let mut warehouse = None;
    for _ in 0..3 {
        drop(warehouse.take());
        let t = Instant::now();
        warehouse = Some(Warehouse::open(inputs.warehouse, &registry)?);
        open_ns.push(t.elapsed().as_nanos() as u64);
    }
    open_ns.sort_unstable();
    put("store.warehouse.open_ms", open_ns[1] as f64 / 1e6);
    let warehouse = warehouse.expect("opened");
    let objects: Vec<String> = visits
        .iter()
        .step_by(37)
        .map(|v| object_name(v.visitor))
        .collect();
    let k = objects.len();
    put(
        "query.prune.point_ns",
        mean_ns(10 * k, |i| warehouse.count_object(&objects[i % k])),
    );
    let pages = (inputs.visits.len() as u64 / 1_000).max(1);
    put(
        "query.page.sorted_limit_ns",
        mean_ns(2 * pages as usize, |i| {
            warehouse.execute(&layers::walk_request((i as u64 % pages) * 1_000, 1_000))
        }),
    );
    put(
        "query.page.content_limit_ns",
        mean_ns(20, |_| warehouse.execute(&layers::top_dwell_request(10))),
    );
    let points: Vec<Request> = objects.iter().map(|o| layers::point_request(o)).collect();
    put(
        "query.federated.evaluate_ns",
        mean_ns(10 * k, |i| {
            warehouse.execute_federated(&snapshot, &points[i % k])
        }),
    );
    let live_objects: Vec<String> = open
        .iter()
        .step_by(7)
        .map(|v| object_name(v.visitor))
        .collect();
    let l = live_objects.len();
    put(
        "query.live.indexed_count_ns",
        mean_ns(10 * l, |i| {
            layers::live_count_object(&snapshot, &live_objects[i % l])
        }),
    );

    // obs: what one `Metrics` snapshot of a populated registry costs.
    put(
        "obs.registry.snapshot_ns",
        mean_ns(200, |_| layers::registry_snapshot(&registry)),
    );
    Ok(m)
}
