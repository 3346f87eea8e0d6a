//! The write path, pinned by bytes, by order and by count.
//!
//! A segment file has one writer and two feeders: `append_segment`
//! encodes a batch once and orders it; `replace_segments` merges runs
//! out of what its victims already hold. The contract between them is
//! that nobody can tell which one wrote a file:
//!
//! * **bytes** — a merge writes, byte for byte, the file an append of
//!   the same rows writes, whatever state its victims were in;
//! * **order** — `sort_run` (the engines' `take_finished` order, and the
//!   order inside every segment) is `(start, end, encoded bytes)`,
//!   checked against that definition written out naively;
//! * **count** — an append encodes each row once, a merge encodes and
//!   decodes none (cold victims are decoded once, to hydrate them).

use proptest::prelude::*;

use sitm_core::{
    Annotation, AnnotationKind, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp,
    Trace, TransitionTaken,
};
use sitm_graph::{CellRef, EdgeId, LayerIdx, NodeId};
use sitm_obs::MetricsRegistry;
use sitm_store::codec::encode_trajectory;
use sitm_store::sort_run;
use sitm_store::warehouse::{segment_file_name, SegmentStore, WarehouseConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sitm-segment-build-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(dir: &TempDir) -> SegmentStore {
    SegmentStore::open(&dir.0, WarehouseConfig::default())
        .expect("open")
        .0
}

fn encoded(t: &SemanticTrajectory) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_trajectory(&mut bytes, t);
    bytes
}

/// `sort_run` as its documentation defines it, and as it was written
/// before it learned to cache spans: every row encoded to be its own
/// sort key.
fn sort_run_oracle(rows: &mut [SemanticTrajectory]) {
    rows.sort_by_cached_key(|t| (t.start(), t.end(), encoded(t)));
}

/// Annotations from a small pool, so sets repeat from row to row.
fn annotation() -> impl Strategy<Value = Annotation> {
    (
        prop_oneof![
            Just(AnnotationKind::Goal),
            Just(AnnotationKind::Activity),
            "[xy]".prop_map(AnnotationKind::Custom),
        ],
        "[a-c]",
    )
        .prop_map(|(kind, value)| Annotation::new(kind, value))
}

fn transition() -> impl Strategy<Value = TransitionTaken> {
    prop_oneof![
        Just(TransitionTaken::Unknown),
        "[a-b]{1,2}".prop_map(TransitionTaken::Named),
        (0usize..2, 0usize..3).prop_map(|(l, e)| TransitionTaken::Edge {
            layer: LayerIdx::from_index(l),
            edge: EdgeId::from_index(e),
        }),
    ]
}

/// Rows over domains narrow enough that spans tie, objects recur and
/// whole rows repeat: few objects, three start instants, short stays
/// in few cells.
fn row() -> impl Strategy<Value = SemanticTrajectory> {
    (
        "[a-c]{1,2}",
        0i64..3,
        prop::collection::vec(
            (
                transition(),
                0usize..5,
                0i64..2,
                0i64..3,
                prop::collection::vec(annotation(), 0..2),
            ),
            1..4,
        ),
        prop::collection::vec(annotation(), 1..3),
    )
        .prop_map(|(mo, start, stays, traj_anns)| {
            let mut t = start;
            let intervals = stays
                .into_iter()
                .map(|(transition, cell, gap, dur, anns)| {
                    let s = t + gap;
                    t = s + dur;
                    PresenceInterval::new(
                        transition,
                        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(cell)),
                        Timestamp(s),
                        Timestamp(t),
                    )
                    .with_annotations(AnnotationSet::from_iter(anns))
                })
                .collect();
            SemanticTrajectory::new(
                mo,
                Trace::new(intervals).expect("ordered stays"),
                AnnotationSet::from_iter(traj_anns),
            )
            .expect("non-empty")
        })
}

/// What state the victims are in when the merge meets them.
#[derive(Debug, Clone, Copy)]
enum Residency {
    /// Just appended: every run and file image resident.
    Resident,
    /// Reopened headers-only: the merge hydrates every victim.
    Cold,
    /// Reopened, then every other victim hydrated by a reader.
    Mixed,
    /// Resident, and a reader (a hydrated query-side index, say) still
    /// holds victim 0's run: its rows cannot be moved, only cloned.
    Shared,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) The file a merge writes is the file an append of the same
    /// rows writes, and the merged segment is resident with every row
    /// beside its stored bytes.
    #[test]
    fn merge_writes_the_file_create_would(
        runs in prop::collection::vec(prop::collection::vec(row(), 1..6), 2..6),
    ) {
        // The double-spill window: one row flushed into two segments.
        let mut runs = runs;
        let twice = runs[0][0].clone();
        runs[1].push(twice);

        let whole = TempDir::new("whole");
        let mut appended = open(&whole);
        appended.append_segment(runs.concat()).expect("append");
        let expected_file = std::fs::read(whole.0.join(segment_file_name(0))).expect("read");
        let expected_rows = Arc::clone(appended.segments()[0].trajectories().expect("resident"));

        for residency in [Residency::Resident, Residency::Cold, Residency::Mixed, Residency::Shared] {
            let dir = TempDir::new("merged");
            let mut store = open(&dir);
            for run in &runs {
                store.append_segment(run.clone()).expect("append");
            }
            let ids: Vec<u64> = store.segments().iter().map(|s| s.id).collect();
            if matches!(residency, Residency::Cold | Residency::Mixed) {
                drop(store);
                store = open(&dir);
                prop_assert!(store.segments().iter().all(|s| !s.is_loaded()));
            }
            if matches!(residency, Residency::Mixed) {
                for segment in store.segments().iter().step_by(2) {
                    segment.trajectories().expect("hydrate");
                }
            }
            let reader = matches!(residency, Residency::Shared)
                .then(|| Arc::clone(store.segments()[0].trajectories().expect("resident")));

            store.replace_segments(&ids).expect("merge");

            prop_assert_eq!(store.segments().len(), 1);
            let merged = &store.segments()[0];
            let file = std::fs::read(dir.0.join(segment_file_name(merged.id))).expect("read");
            prop_assert!(file == expected_file, "{:?}: merged file differs", residency);
            prop_assert!(merged.is_loaded(), "{:?}: the merged segment is resident", residency);
            prop_assert_eq!(merged.len(), expected_rows.len());
            for (i, expected) in expected_rows.iter().enumerate() {
                let (row, stored) = merged.resident_row(i).expect("resident");
                prop_assert_eq!(row, expected, "{:?}: row {}", residency, i);
                prop_assert_eq!(stored.to_vec(), encoded(expected), "{:?}: row {}", residency, i);
            }
            // A shared run was cloned from, not taken apart.
            if let Some(run) = reader {
                let mut first = runs[0].clone();
                sort_run_oracle(&mut first);
                prop_assert_eq!(&*run, &first);
            }
        }
    }

    /// (b) `sort_run` is `(start, end, encoded bytes)`, whatever order
    /// the batch arrives in.
    #[test]
    fn sort_run_keeps_its_order(batch in prop::collection::vec(row(), 0..24)) {
        let mut expected = batch.clone();
        sort_run_oracle(&mut expected);
        let mut reversed = expected.clone();
        reversed.reverse();
        for mut input in [batch, expected.clone(), reversed] {
            sort_run(&mut input);
            prop_assert_eq!(&input, &expected);
        }
    }
}

fn plain(mo: &str, start: i64) -> SemanticTrajectory {
    let stay = PresenceInterval::new(
        TransitionTaken::Unknown,
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(1)),
        Timestamp(start),
        Timestamp(start + 60),
    );
    SemanticTrajectory::new(
        mo,
        Trace::new(vec![stay]).unwrap(),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .unwrap()
}

/// (c) By count: an append encodes each of its rows once; a merge
/// encodes none, and decodes only what it has to hydrate.
#[test]
fn a_spill_encodes_each_row_once() {
    let dir = TempDir::new("counts");
    let registry = MetricsRegistry::new();
    let counts = || {
        (
            registry.counter("store.rows_encoded").get(),
            registry.counter("query.trajectories_decoded").get(),
        )
    };
    let batches: Vec<Vec<SemanticTrajectory>> = (0..4i64)
        .map(|b| {
            (0..5 + b)
                .map(|i| plain(&format!("mo-{b}-{i}"), 1000 * b + 7 * i))
                .collect()
        })
        .collect();

    let mut store = open(&dir);
    store.set_metrics(&registry);
    for batch in &batches[..2] {
        let before = counts();
        store.append_segment(batch.clone()).unwrap();
        assert_eq!(
            counts(),
            (before.0 + batch.len() as u64, before.1),
            "an append encodes each row once and decodes nothing"
        );
    }
    // Resident victims: nothing encoded, nothing decoded.
    let before = counts();
    store.replace_segments(&[0, 1]).unwrap();
    assert_eq!(counts(), before, "a merge of resident victims");

    // Cold victims: hydrated once each, still nothing encoded.
    for batch in &batches[2..] {
        store.append_segment(batch.clone()).unwrap();
    }
    drop(store);
    let mut store = open(&dir);
    store.set_metrics(&registry);
    let victims: Vec<u64> = store.segments().iter().map(|s| s.id).collect();
    assert_eq!(victims.len(), 3);
    let rows = store.len() as u64;
    let before = counts();
    store.replace_segments(&victims).unwrap();
    assert_eq!(
        counts(),
        (before.0, before.1 + rows),
        "a merge of cold victims decodes each of their rows once"
    );
    assert_eq!(store.len() as u64, rows);
}

/// A row of `mo` over one fixed span, with `label` as its goal, so
/// rows tie on span and differ in object or tail.
fn tied(mo: &str, label: &str) -> SemanticTrajectory {
    let stay = PresenceInterval::new(
        TransitionTaken::Unknown,
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(1)),
        Timestamp(500),
        Timestamp(560),
    );
    SemanticTrajectory::new(
        mo,
        Trace::new(vec![stay]).unwrap(),
        AnnotationSet::from_iter([Annotation::goal(label)]),
    )
    .unwrap()
}

/// (d) Rows tied on span order by their encodings, whose objects come
/// length first: `"b"` (`01 62`) before `"aa"` (`02 61 61`), though
/// `"aa" < "b"` as strings. `sort_run`, an append and a merge of cold
/// or resident victims agree on that order, and the merge writes the
/// append's file.
#[test]
fn rows_tied_on_span_order_by_their_encoded_objects() {
    let rows = vec![
        tied("aa", "x"),
        tied("b", "y"),
        tied("aa", "w"),
        tied("b", "x"),
        tied("ab", "x"),
        plain("aa", 400),
    ];
    let mut expected = rows.clone();
    sort_run_oracle(&mut expected);
    let order: Vec<(&str, i64)> = expected
        .iter()
        .map(|t| (t.moving_object.as_str(), t.start().as_seconds()))
        .collect();
    assert_eq!(
        order,
        [
            ("aa", 400),
            ("b", 500),
            ("b", 500),
            ("aa", 500),
            ("aa", 500),
            ("ab", 500)
        ]
    );
    let mut sorted = rows.clone();
    sort_run(&mut sorted);
    assert_eq!(sorted, expected, "sort_run");

    let whole = TempDir::new("tied-whole");
    let mut appended = open(&whole);
    appended.append_segment(rows.clone()).expect("append");
    assert_eq!(
        appended.segments()[0]
            .trajectories()
            .expect("resident")
            .as_slice(),
        expected.as_slice(),
        "append"
    );
    let expected_file = std::fs::read(whole.0.join(segment_file_name(0))).expect("read");
    drop(appended);
    let reopened = open(&whole);
    let cold: Vec<SemanticTrajectory> = (0..rows.len())
        .map(|i| reopened.segments()[0].read_trajectory(i).expect("row"))
        .collect();
    assert_eq!(cold, expected, "append, read back cold");

    for cold_victims in [false, true] {
        let dir = TempDir::new("tied-merged");
        let mut store = open(&dir);
        // Each victim holds both objects, so the merge interleaves them.
        store
            .append_segment(vec![rows[0].clone(), rows[1].clone(), rows[5].clone()])
            .expect("append");
        store.append_segment(rows[2..5].to_vec()).expect("append");
        if cold_victims {
            drop(store);
            store = open(&dir);
        }
        store.replace_segments(&[0, 1]).expect("merge");
        let merged = &store.segments()[0];
        assert_eq!(
            merged.trajectories().expect("resident").as_slice(),
            expected.as_slice(),
            "merge, cold victims {cold_victims}"
        );
        let file = std::fs::read(dir.0.join(segment_file_name(merged.id))).expect("read");
        assert!(
            file == expected_file,
            "merge, cold victims {cold_victims}: file differs"
        );
    }
}
