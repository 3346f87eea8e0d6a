//! Tiered warehouse: stream a Louvre day through the live engine,
//! spill finished visits into immutable on-disk segments, and query
//! the live + warehouse union through one federated surface.
//!
//! Data path demonstrated: ingest → live state (queryable snapshots) →
//! close fence → `take_finished` → `Flusher` → segment tier (zone maps,
//! manifest commits, size-tiered compaction) → federated queries →
//! process "restart" → recovery from the manifest, with the object
//! index merged from the segments' zone maps (nothing else is read).
//!
//! Run with: `cargo run --example tiered_warehouse`

use sitm::core::{Duration, IntervalPredicate, SemanticTrajectory};
use sitm::louvre::{build_louvre, generate_dataset, zone_key, GeneratorConfig};
use sitm::query::{Predicate, Query, SegmentedDb, SortKey};
use sitm::store::warehouse::WarehouseConfig;
use sitm::stream::{dataset_events, EngineConfig, Flusher, ParallelEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. A calibrated Louvre day as one event stream. -----------------
    let model = build_louvre();
    let dataset = generate_dataset(&GeneratorConfig::default());
    let events = dataset_events(&model, &dataset);
    println!(
        "feed: {} events across {} visits",
        events.len(),
        dataset.visits.len()
    );

    // ---- 2. Live engine with the warehouse drain enabled. ----------------
    let exit_chain = [60887u32, 60888, 60890]
        .map(|id| model.space.resolve(&zone_key(id)).expect("zone resolves"));
    let config = EngineConfig::new(vec![
        (
            IntervalPredicate::in_cells(exit_chain),
            sitm::core::AnnotationSet::from_iter([sitm::core::Annotation::goal("exit museum")]),
        ),
        (
            IntervalPredicate::min_duration(Duration::minutes(5)),
            sitm::core::AnnotationSet::from_iter([sitm::core::Annotation::goal("long stay")]),
        ),
    ])
    .with_shards(4)
    .with_warehouse();
    let mut engine = ParallelEngine::new(config)?;

    // ---- 3. Stream in chunks, spilling finished visits as we go. ---------
    let dir = std::env::temp_dir().join(format!("sitm-tiered-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (db, _) = SegmentedDb::open(&dir, WarehouseConfig::default())?;
    let mut flusher = Flusher::new(db).with_min_batch(64);
    let mut episodes = 0usize;
    for chunk in events.chunks(events.len() / 10) {
        engine.ingest_all(chunk.iter().cloned());
        episodes += engine.drain().len();
        let spilled = flusher.poll(&mut engine)?;
        if spilled > 0 {
            let snapshot = engine.live_snapshot();
            println!(
                "spilled {spilled:4} visits → warehouse now {} trajectories in {} segments; {} visits still live",
                flusher.db().len(),
                flusher.db().segments().len(),
                snapshot.visits.len(),
            );
        }
    }
    episodes += engine.finish().len();
    flusher.force(&mut engine)?;
    println!(
        "stream done: {episodes} episodes emitted, {} trajectories durable",
        flusher.db().len()
    );

    // ---- 4. Query the warehouse: zone-map pruning in action. -------------
    let db = flusher.into_db()?;
    let some_visitor = db
        .iter()
        .nth(db.len() / 2)
        .expect("non-empty")
        .moving_object
        .clone();
    let point = Predicate::MovingObject(some_visitor.clone());
    let plan = db.explain(&point);
    println!(
        "\npoint query mo={some_visitor}: {} of {} segments pruned by the object index, {} by zone maps, {} candidates of {} rows → {} matches",
        plan.object_pruned,
        plan.segments,
        plan.pruned,
        plan.candidates.unwrap_or(plan.total),
        plan.total,
        db.count_matching(&point),
    );

    // ---- 5. Federated: live + warehouse behind one query. ----------------
    let e_zone = model.zone(60887).expect("zone E modelled");
    let q = Query::new()
        .visited(e_zone)
        .order_by(SortKey::TotalDwell, false)
        .limit(3);
    let snapshot = engine.live_snapshot(); // empty now — everything closed
    let hits: Vec<SemanticTrajectory> = q.execute_federated(&[&*snapshot, &db]);
    println!("\ntop-3 dwellers through zone E (live ∪ warehouse):");
    for t in &hits {
        println!("  {}  dwell {}", t.moving_object, t.trace().dwell_total());
    }

    // ---- 6. "Restart": recover the warehouse from its manifest. ----------
    drop(db);
    let (recovered, report) = SegmentedDb::open(&dir, WarehouseConfig::default())?;
    println!(
        "\nafter restart: {} trajectories in {} segments recovered ({})",
        recovered.len(),
        recovered.segments().len(),
        if report.is_clean() {
            "clean"
        } else {
            "repaired"
        },
    );
    assert_eq!(
        recovered.count_matching(&point),
        recovered.iter().filter(|t| point.matches(t)).count(),
        "recovered index path equals a scan"
    );
    assert_eq!(
        recovered.explain(&point),
        plan,
        "the object index derived at open plans as the one kept in memory"
    );
    assert!(
        !dir.join("objindex.log").exists(),
        "the object index is never written"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
