//! Unit tests of every file of the warehouse module. They stay in one
//! `warehouse::tests` module because the test floor names them by that
//! path.

use super::*;
use crate::log::Record;
use crate::segment;
use sitm_core::{
    Annotation, AnnotationSet, PresenceInterval, TimeInterval, Timestamp, Trace, TransitionTaken,
};
use sitm_graph::{CellRef, LayerIdx, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sitm-warehouse-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn traj(mo: &str, c: usize, start: i64) -> SemanticTrajectory {
    let mut stay = PresenceInterval::new(
        TransitionTaken::Unknown,
        cell(c),
        Timestamp(start),
        Timestamp(start + 60),
    );
    stay.annotations.insert(Annotation::goal("browsing"));
    SemanticTrajectory::new(
        mo,
        Trace::new(vec![stay]).unwrap(),
        AnnotationSet::from_iter([Annotation::goal("visit")]),
    )
    .unwrap()
}

#[test]
fn zone_map_round_trips_and_aggregates() {
    let trajs = vec![traj("a", 1, 0), traj("b", 2, 100)];
    let map = ZoneMap::build(&trajs);
    assert_eq!(map.len, 2);
    assert_eq!(
        map.span,
        Some(TimeInterval::new(Timestamp(0), Timestamp(160)))
    );
    assert!(map.cells.contains(&cell(1)) && map.cells.contains(&cell(2)));
    assert!(map.objects.contains("a") && map.objects.contains("b"));
    assert!(map.traj_annotations.contains(&Annotation::goal("visit")));
    assert!(map.stay_annotations.contains(&Annotation::goal("browsing")));
    // Point lookups are the exact sets.
    assert!(map.may_contain_cell(&cell(1)) && map.may_contain_object("a"));
    assert!(!map.may_contain_cell(&cell(9)) && !map.may_contain_object("z"));
    let mut buf = Vec::new();
    map.encode(&mut buf);
    let mut cursor: &[u8] = &buf;
    let back = ZoneMap::decode(&mut cursor).unwrap();
    assert!(cursor.is_empty());
    assert_eq!(back, map);
    // Truncations always error: the decoder reads every byte.
    for cut in 0..buf.len() {
        assert!(ZoneMap::decode(&mut &buf[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn empty_zone_map_round_trips() {
    let map = ZoneMap::build(&[]);
    assert_eq!(map.len, 0);
    assert_eq!(map.span, None);
    let mut buf = Vec::new();
    map.encode(&mut buf);
    assert_eq!(ZoneMap::decode(&mut buf.as_slice()).unwrap(), map);
}

#[test]
fn sort_run_is_canonical_and_total() {
    let mut a = vec![traj("b", 2, 100), traj("a", 1, 0), traj("c", 1, 0)];
    let mut b = vec![traj("c", 1, 0), traj("b", 2, 100), traj("a", 1, 0)];
    sort_run(&mut a);
    sort_run(&mut b);
    assert_eq!(a, b, "order is independent of input permutation");
    assert_eq!(a[0].start(), Timestamp(0));
    assert_eq!(a[2].start(), Timestamp(100));
}

#[test]
fn manifest_record_round_trips() {
    let r = ManifestRecord {
        sequence: 9,
        segments: vec![
            SegmentRef { id: 0, records: 5 },
            SegmentRef { id: 3, records: 1 },
        ],
    };
    let mut buf = Vec::new();
    r.encode_record(&mut buf);
    let mut cursor: &[u8] = &buf;
    assert_eq!(ManifestRecord::decode_record(&mut cursor).unwrap(), r);
    assert!(cursor.is_empty());
    assert_eq!(segment_file_name(3), "seg-00000003.seg");
    assert_eq!(parse_segment_file_name("seg-00000003.seg"), Some(3));
    assert_eq!(parse_segment_file_name("manifest.log"), None);
}

#[test]
fn append_reopen_preserves_segments() {
    let tmp = TempDir::new("append");
    {
        let (mut store, report) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
        assert!(report.is_clean());
        store
            .append_segment(vec![traj("a", 1, 0), traj("b", 2, 100)])
            .unwrap();
        store.append_segment(vec![traj("c", 3, 200)]).unwrap();
        assert_eq!(store.segments().len(), 2);
        assert_eq!(store.len(), 3);
    }
    let (store, report) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    assert!(report.is_clean());
    assert_eq!(store.segments().len(), 2);
    assert_eq!(store.len(), 3);
    // Reopen is headers-only: nothing decoded until asked.
    assert!(store.segments().iter().all(|s| !s.is_loaded()));
    assert_eq!(
        store.segments()[0].trajectories().unwrap()[0].moving_object,
        "a"
    );
    assert_eq!(
        store.segments()[1].trajectories().unwrap()[0].moving_object,
        "c"
    );
    assert!(store.segments().iter().all(|s| s.is_loaded()));
    // Row-level reads agree with the cached run.
    assert_eq!(
        store.segments()[0]
            .read_trajectory(1)
            .unwrap()
            .moving_object,
        "b"
    );
}

#[test]
fn empty_append_is_a_noop() {
    let tmp = TempDir::new("empty");
    let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    let seq = store.sequence();
    store.append_segment(Vec::new()).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.sequence(), seq);
}

#[test]
fn unreferenced_segment_files_are_garbage_collected() {
    let tmp = TempDir::new("gc");
    {
        let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
        store.append_segment(vec![traj("a", 1, 0)]).unwrap();
    }
    // A stray file from a crash between segment write and manifest
    // append.
    let orphan = tmp.0.join(segment_file_name(99));
    std::fs::write(&orphan, b"SITMSEG1").unwrap();
    let (store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    assert!(!orphan.exists(), "orphan collected");
    assert_eq!(store.len(), 1, "referenced segment survives");
    // And the orphan's id is burned, never reused.
    assert!(store.next_id > 99);
}

#[test]
fn size_tiered_compaction_merges_small_runs() {
    let tmp = TempDir::new("tiered");
    let config = WarehouseConfig {
        fanout: 3,
        ..WarehouseConfig::default()
    };
    let (mut store, _) = SegmentStore::open(&tmp.0, config).unwrap();
    for i in 0..3 {
        store
            .append_segment(vec![traj(&format!("mo-{i}"), 1, i * 100)])
            .unwrap();
    }
    assert_eq!(store.segments().len(), 3);
    let merges = store.compact_size_tiered().unwrap();
    assert_eq!(merges, 1);
    assert_eq!(store.segments().len(), 1);
    assert_eq!(store.len(), 3);
    let run = store.segments()[0].trajectories().unwrap().clone();
    assert!(run.windows(2).all(|w| w[0].start() <= w[1].start()));
    // The victims' files are gone; the merged one survives reopen.
    drop(store);
    let (store, report) = SegmentStore::open(&tmp.0, config).unwrap();
    assert!(report.is_clean());
    assert_eq!(store.segments().len(), 1);
    assert_eq!(store.len(), 3);
}

#[test]
fn manifest_log_stays_bounded() {
    let tmp = TempDir::new("bounded");
    let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    for i in 0..8 {
        store
            .append_segment(vec![traj(&format!("mo-{i}"), 1, i * 100)])
            .unwrap();
    }
    // Every commit rewrites the log to the previous record and the new
    // one; record size grows with the segment count, but the *count*
    // of records is pinned at 2 (vs 8 for an append-only log).
    assert_eq!(store.manifest.len(), 2);
    drop(store);
    let (store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    assert_eq!(store.segments().len(), 8);
}

#[test]
fn corrupt_segment_body_surfaces_at_lazy_decode() {
    let tmp = TempDir::new("corrupt");
    {
        let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
        store.append_segment(vec![traj("a", 1, 0)]).unwrap();
    }
    // Flip a byte near the end of the file — inside the trajectory
    // region, past the header frames. A headers-only open succeeds
    // (the point of lazy loading: unread bytes cost nothing, and
    // their rot is caught exactly when they are first read).
    let path = tmp.0.join(segment_file_name(0));
    let mut data = std::fs::read(&path).unwrap();
    let n = data.len();
    data[n - 2] ^= 0xFF;
    std::fs::write(&path, &data).unwrap();
    let (store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    match store.segments()[0].trajectories() {
        Err(WarehouseError::CorruptSegment { id: 0, .. }) => {}
        other => panic!("expected CorruptSegment at decode, got {other:?}"),
    }
    match store.segments()[0].read_trajectory(0) {
        Err(WarehouseError::CorruptSegment { id: 0, .. }) => {}
        other => panic!("expected CorruptSegment at row read, got {other:?}"),
    }
    // A failed hydration leaves nothing behind: neither the run nor
    // the bytes it would have been decoded from.
    assert!(!store.segments()[0].is_loaded());
    assert!(store.segments()[0].resident_row(0).is_none());
}

#[test]
fn corrupt_segment_headers_are_refused_at_open() {
    let tmp = TempDir::new("corrupt-head");
    {
        let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
        store.append_segment(vec![traj("a", 1, 0)]).unwrap();
    }
    // Flip a byte in the directory region (just past the zone-map
    // frame): the headers-only open must refuse the file.
    let path = tmp.0.join(segment_file_name(0));
    let mut data = std::fs::read(&path).unwrap();
    let zone_payload_len = u32::from_le_bytes(data[9..13].try_into().unwrap()) as usize;
    let dir_frame = 8 + segment::FRAME_OVERHEAD + zone_payload_len;
    data[dir_frame + segment::FRAME_OVERHEAD + 10] ^= 0xFF;
    std::fs::write(&path, &data).unwrap();
    match SegmentStore::open(&tmp.0, WarehouseConfig::default()) {
        Err(WarehouseError::CorruptSegment { id: 0, .. }) => {}
        other => panic!("expected CorruptSegment at open, got {other:?}"),
    }
}

#[test]
fn directory_round_trips_and_validates() {
    let entries = vec![
        DirectoryEntry {
            offset: 100,
            len: 40,
            start: -5,
            end: 60,
        },
        DirectoryEntry {
            offset: 140,
            len: 25,
            start: 10,
            end: 90,
        },
    ];
    let dir = SegmentDirectory { entries };
    let mut buf = Vec::new();
    dir.encode(&mut buf);
    // count, first start (ZigZag -5), then (len, Δstart, end − start)
    // per entry: one byte each, no offset.
    assert_eq!(buf, [2, 9, 40, 0, 65, 25, 15, 80]);
    let mut cursor: &[u8] = &buf;
    let mut back = SegmentDirectory::decode(&mut cursor).unwrap();
    assert!(cursor.is_empty());
    // Offsets are not stored: they come out 0 until placed.
    assert!(back.entries.iter().all(|e| e.offset == 0));
    // Truncations always error (the count fixes how many entries follow).
    for cut in 0..buf.len() {
        assert!(
            SegmentDirectory::decode(&mut &buf[..cut]).is_err(),
            "cut {cut}"
        );
    }
    for (rows_start, file_len, expected, why) in [
        (100, 165, 3, "count mismatch"),
        (99, 165, 2, "gap before first entry"),
        (100, 164, 2, "truncated file"),
        (100, 166, 2, "trailing bytes"),
    ] {
        assert!(
            back.clone().place(rows_start, file_len, expected).is_err(),
            "{why}"
        );
    }
    back.place(100, 165, 2).unwrap();
    assert_eq!(back, dir);
}

#[test]
fn rollup_round_trips_and_matches_recompute() {
    let trajs = vec![traj("a", 1, 0), traj("b", 2, 100), traj("c", 1, 4000)];
    let rollup = SegmentRollup::build(&trajs, 3600);
    // Cell 1 hosts two trajectories with one 60s stay each.
    let c1 = rollup.cells.get(&cell(1)).unwrap();
    assert_eq!(c1.trajectories, 2);
    assert_eq!(c1.stays, 2);
    assert_eq!(c1.dwell_seconds, 120);
    // Spans: [0,60] and [100,160] land in bucket 0; [4000,4060] in
    // bucket 3600.
    assert_eq!(rollup.periods.get(&0), Some(&2));
    assert_eq!(rollup.periods.get(&3600), Some(&1));
    let mut buf = Vec::new();
    rollup.encode(&mut buf);
    let mut cursor: &[u8] = &buf;
    let back = SegmentRollup::decode(&mut cursor).unwrap();
    assert!(cursor.is_empty());
    assert_eq!(back, rollup);
    // A disabled period axis stays empty.
    assert!(SegmentRollup::build(&trajs, 0).periods.is_empty());
}

/// Checks the object index against a map built from the live rows
/// themselves: every object's segment ids, and none for absent ones.
fn assert_object_index_matches_rows(store: &SegmentStore, state: &str) {
    let mut by_id: Vec<&Segment> = store.segments().iter().collect();
    by_id.sort_by_key(|s| s.id);
    let mut naive: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for s in by_id {
        for t in s.trajectories().unwrap().iter() {
            let ids = naive.entry(t.moving_object.clone()).or_default();
            if ids.last() != Some(&s.id) {
                ids.push(s.id);
            }
        }
    }
    assert_eq!(store.object_index_len(), naive.len(), "{state}");
    for (object, ids) in &naive {
        assert_eq!(store.object_segments(object), ids, "{state}: {object}");
    }
    for absent in ["", "mo-", "mo-00", "mo-9", "nobody"] {
        assert!(
            store.object_segments(absent).is_empty(),
            "{state}: {absent}"
        );
    }
}

#[test]
fn object_index_equals_the_live_rows_through_appends_merges_and_recovery() {
    let tmp = TempDir::new("object-index");
    let config = WarehouseConfig {
        fanout: 2,
        ..WarehouseConfig::default()
    };
    let (mut store, _) = SegmentStore::open(&tmp.0, config).unwrap();
    assert_object_index_matches_rows(&store, "empty");
    let mut out_of_id_order = false;
    for batch in 0..6 {
        // Objects recur across batches, so postings name several ids.
        // Batches alternate between two size tiers, so a merge of the
        // larger tier lands (with the newest id) ahead of an older,
        // smaller segment.
        let rows = (0..[6, 3][batch as usize % 2])
            .map(|i| {
                traj(
                    &format!("mo-{}", (batch + 2 * i) % 7),
                    i as usize,
                    batch * 100 + i,
                )
            })
            .collect();
        store.append_segment(rows).unwrap();
        assert_object_index_matches_rows(&store, &format!("append {batch}"));
        if store.compact_size_tiered().unwrap() > 0 {
            assert_object_index_matches_rows(&store, &format!("merge {batch}"));
        }
        out_of_id_order |= store.segments().windows(2).any(|w| w[0].id > w[1].id);
    }
    assert!(out_of_id_order, "no posting had to be put in id order");
    let sequence = store.sequence();
    drop(store);
    let (store, _) = SegmentStore::open(&tmp.0, config).unwrap();
    assert_object_index_matches_rows(&store, "reopen");
    drop(store);
    // A torn newest manifest record recovers the one before it.
    let manifest = std::fs::OpenOptions::new()
        .write(true)
        .open(tmp.0.join("manifest.log"))
        .unwrap();
    manifest
        .set_len(manifest.metadata().unwrap().len() - 1)
        .unwrap();
    let (store, report) = SegmentStore::open(&tmp.0, config).unwrap();
    assert!(!report.is_clean());
    assert_eq!(store.sequence(), sequence - 1);
    assert_object_index_matches_rows(&store, "torn manifest");
}

#[test]
fn sort_columns_round_trip_and_validate() {
    let trajs = vec![
        traj("carol", 3, 50),
        traj("alice", 1, 0),
        traj("bob", 2, 100),
    ];
    let map = ZoneMap::build(&trajs);
    let columns = SortColumns::build(&trajs, &map.objects);
    assert_eq!(columns.len(), 3);
    // Per-row values match the decoded keys.
    for (i, t) in trajs.iter().enumerate() {
        assert_eq!(columns.dwell[i], t.trace().dwell_total().as_seconds());
        assert_eq!(columns.trace_len[i], t.trace().len() as u32);
    }
    // The object column indexes into the zone map's sorted object
    // set: row order carol, alice, bob → indexes 2, 0, 1.
    let objects: Vec<&str> = map.objects.iter().collect();
    assert_eq!(objects, vec!["alice", "bob", "carol"]);
    assert_eq!(columns.object, vec![2, 0, 1]);
    let mut buf = Vec::new();
    columns.encode(&mut buf);
    // count, then (dwell, trace_len, object) per row: one byte each.
    assert_eq!(buf, [3, 60, 1, 2, 60, 1, 0, 60, 1, 1]);
    let mut cursor: &[u8] = &buf;
    let back = SortColumns::decode(&mut cursor).unwrap();
    assert!(cursor.is_empty());
    assert_eq!(back, columns);
    // Truncations always error (the count fixes how many rows follow).
    for cut in 0..buf.len() {
        assert!(SortColumns::decode(&mut &buf[..cut]).is_err(), "cut {cut}");
    }
    // The witness is the CRC-32 of the ranks as little-endian u32s.
    let witness = columns.object_witness();
    assert_eq!(witness, crate::crc32(&[2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]));
    assert!(columns.validate(3, 3, witness).is_ok());
    assert!(
        columns.validate(2, 3, witness).is_err(),
        "row-count mismatch"
    );
    assert!(
        columns.validate(3, 2, witness).is_err(),
        "object index out of bounds"
    );
    // Two rows' ranks swapped: every rank in bounds, but not the ones
    // the witness was taken over.
    let mut swapped = columns.clone();
    swapped.object.swap(0, 1);
    assert_eq!(
        swapped.validate(3, 3, witness),
        Err("sort-column object ranks disagree with their witness")
    );
    // The empty column set is valid for an empty segment.
    let empty = SortColumns::default();
    assert!(empty.validate(0, 0, empty.object_witness()).is_ok());
}

#[test]
fn row_cache_evicts_within_budget_and_invalidates() {
    let registry = MetricsRegistry::new();
    let cache = RowCache::new(100, &registry);
    let t = traj("a", 1, 0);
    cache.insert(0, 0, &t, 40);
    cache.insert(0, 1, &t, 40);
    assert_eq!(cache.bytes(), 80);
    assert_eq!(cache.get(0, 0), Some(t.clone()));
    // A third row breaks the budget; the sweep spares the just-hit
    // row 0 (hot) and evicts untouched segment 0 row 1.
    cache.insert(1, 0, &t, 40);
    assert_eq!(cache.bytes(), 80);
    assert_eq!(cache.get(0, 1), None);
    assert_eq!(cache.get(0, 0), Some(t.clone()));
    assert_eq!(cache.get(1, 0), Some(t.clone()));
    // An oversized row is never admitted.
    cache.insert(2, 0, &t, 101);
    assert_eq!(cache.get(2, 0), None);
    // Compaction retiring segment 0 drops its rows wholesale.
    cache.invalidate_segment(0);
    assert_eq!(cache.bytes(), 40);
    assert_eq!(cache.get(0, 0), None);
    assert_eq!(cache.get(1, 0), Some(t.clone()));
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("query.row_cache_bytes"), Some(40));
    assert_eq!(snap.counter("query.row_cache_evicted_bytes"), Some(40));
    assert!(snap.counter("query.row_cache_hits").unwrap() >= 4);
    assert!(snap.counter("query.row_cache_misses").unwrap() >= 3);
}

#[test]
fn zero_budget_disables_the_row_cache() {
    let registry = MetricsRegistry::new();
    let cache = RowCache::new(0, &registry);
    let t = traj("a", 1, 0);
    cache.insert(0, 0, &t, 1);
    assert_eq!(cache.get(0, 0), None);
    assert_eq!(cache.bytes(), 0);
    // A disabled cache stays silent: no hit/miss accounting.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("query.row_cache_hits"), Some(0));
    assert_eq!(snap.counter("query.row_cache_misses"), Some(0));
}

#[test]
fn warm_rows_are_served_from_the_cache_without_io() {
    let tmp = TempDir::new("warm-rows");
    let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    let trajs = vec![traj("a", 1, 0), traj("b", 2, 100)];
    store.append_segment(trajs.clone()).unwrap();
    drop(store);
    // Reopen cold so rows are not pre-cached by the append.
    let registry = MetricsRegistry::new();
    let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    store.set_metrics(&registry);
    let s = &store.segments()[0];
    let bytes_read = || registry.counter("query.segment_bytes_read").get();
    assert_eq!(s.read_trajectory(0).unwrap(), trajs[0]);
    let cold = bytes_read();
    assert!(cold > 0);
    // The second read of the row touches no disk; another row does.
    assert_eq!(s.read_trajectory(0).unwrap(), trajs[0]);
    assert_eq!(bytes_read(), cold);
    assert_eq!(s.read_trajectory(1).unwrap(), trajs[1]);
    assert!(bytes_read() > cold);
}

#[test]
fn a_cold_segment_reads_through_the_handle_it_was_opened_with() {
    let tmp = TempDir::new("one-handle");
    let trajs = vec![traj("a", 1, 0), traj("b", 2, 100), traj("c", 3, 200)];
    {
        let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
        store.append_segment(trajs.clone()).unwrap();
    }
    let (store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    // Unlinked after open, the file lives on behind the segment's
    // handle: no read opens it by name again.
    std::fs::remove_file(tmp.0.join(segment_file_name(0))).unwrap();
    let s = &store.segments()[0];
    assert_eq!(s.read_trajectory(1).unwrap(), trajs[1]);
    assert_eq!(s.trajectories().unwrap().as_slice(), trajs.as_slice());
}

#[test]
fn a_resident_row_is_the_decoded_row_beside_its_stored_encoding() {
    let tmp = TempDir::new("resident-row");
    let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    store
        .append_segment(vec![traj("b", 2, 100), traj("a", 1, 0), traj("c", 3, 50)])
        .unwrap();
    let check = |s: &Segment| {
        let run = Arc::clone(s.trajectories().unwrap());
        for (i, t) in run.iter().enumerate() {
            let (row, stored) = s.resident_row(i).expect("hydrated");
            let mut encoded = Vec::new();
            crate::codec::encode_trajectory(&mut encoded, t);
            assert_eq!(row, t);
            assert_eq!(
                stored, encoded,
                "row {i}: the frame payload is the row's encoding"
            );
        }
        assert!(s.resident_row(run.len()).is_none(), "past the last row");
    };
    // Written by this store: the bytes are the file image it wrote.
    check(&store.segments()[0]);
    drop(store);
    // Reopened: cold until hydrated, then the bytes are the region read.
    let (store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    assert!(store.segments()[0].resident_row(0).is_none(), "cold");
    check(&store.segments()[0]);
}

#[test]
fn hydration_leaves_the_row_cache_to_single_row_reads() {
    let tmp = TempDir::new("hydrate-cache");
    let a = vec![traj("a0", 1, 0), traj("a1", 1, 10)];
    let b = vec![traj("b0", 2, 0), traj("b1", 2, 10), traj("b2", 2, 20)];
    let row_bytes = {
        let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
        store.append_segment(a.clone()).unwrap();
        store.append_segment(b).unwrap();
        store.segments()[0].directory().entries[0].len as usize
    };
    // A budget of two rows, over a history of five.
    let config = WarehouseConfig {
        row_cache_bytes: 2 * row_bytes,
        ..WarehouseConfig::default()
    };
    let registry = MetricsRegistry::new();
    let (mut store, _) = SegmentStore::open(&tmp.0, config).unwrap();
    store.set_metrics(&registry);
    let (seg_a, seg_b) = (&store.segments()[0], &store.segments()[1]);
    assert_eq!(
        seg_a.read_trajectory(0).unwrap(),
        a[0],
        "read cold, now cached"
    );
    let cache = || {
        let snap = registry.snapshot();
        (
            snap.gauge("query.row_cache_bytes").unwrap(),
            snap.counter("query.row_cache_evicted_bytes").unwrap(),
        )
    };
    let before = cache();
    assert_eq!(before, (row_bytes as i64, 0));
    // Hydrating B decodes three rows. None of them enters the cache —
    // B's reads are answered from its resident run from now on — so
    // nothing is admitted and A's row is not swept out to make room.
    seg_b.trajectories().unwrap();
    assert_eq!(
        cache(),
        before,
        "a full decode moved a row-cache instrument"
    );
    let hits = registry.counter("query.row_cache_hits").get();
    let decoded = registry.counter("query.trajectories_decoded").get();
    assert_eq!(seg_a.read_trajectory(0).unwrap(), a[0]);
    assert_eq!(registry.counter("query.row_cache_hits").get(), hits + 1);
    assert_eq!(
        registry.counter("query.trajectories_decoded").get(),
        decoded
    );
}

#[test]
fn the_planner_never_proposes_a_merge_that_cannot_be_framed() {
    let limit = MAX_SEGMENT_ROWS as u64;
    let tier = |from: u64, rows: u64| (from..from + 4).map(move |id| (id, rows));
    // Four 200 k-row segments share a tier and would merge into 800 k
    // rows, past what one directory frame holds: left alone.
    let large: Vec<(u64, u64)> = tier(0, 200_000).collect();
    assert!(4 * 200_000 > limit);
    assert_eq!(plan_tiers(&large, 4, limit), None);
    // The same tier within the limit merges, whole.
    let fits: Vec<(u64, u64)> = tier(0, 140_000).collect();
    assert_eq!(plan_tiers(&fits, 4, limit), Some(vec![0, 1, 2, 3]));
    // A blocked tier does not block the others.
    let both: Vec<(u64, u64)> = tier(0, 200_000).chain(tier(4, 3_000)).collect();
    assert_eq!(plan_tiers(&both, 4, limit), Some(vec![4, 5, 6, 7]));
    // Under the fanout nothing is due; a fanout below 2 means 2.
    assert_eq!(plan_tiers(&fits[..3], 4, limit), None);
    assert_eq!(plan_tiers(&fits[..2], 0, limit), Some(vec![0, 1]));
}

#[test]
fn an_over_limit_segment_is_refused_before_any_file_is_created() {
    let tmp = TempDir::new("too-large");
    let config = WarehouseConfig {
        fanout: 2,
        ..WarehouseConfig::default()
    };
    let (mut store, _) = SegmentStore::open(&tmp.0, config).unwrap();
    store.row_limit = 3;
    store
        .append_segment(vec![traj("a", 1, 0), traj("b", 2, 100)])
        .unwrap();
    store
        .append_segment(vec![traj("c", 1, 200), traj("d", 2, 300)])
        .unwrap();
    let files = || {
        let mut names: Vec<String> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let (before, sequence, next_id) = (files(), store.sequence(), store.next_id);
    // The two segments share a tier, but their four rows do not fit:
    // the planner does not propose them, and a direct call is refused.
    assert_eq!(store.plan_size_tiered(), None);
    assert_eq!(store.compact_size_tiered().unwrap(), 0);
    match store.replace_segments(&[0, 1]) {
        Err(WarehouseError::SegmentTooLarge { rows: 4, limit: 3 }) => {}
        other => panic!("expected SegmentTooLarge, got {other:?}"),
    }
    match store.append_segment((0..4).map(|i| traj("e", 1, i)).collect()) {
        Err(WarehouseError::SegmentTooLarge { rows: 4, limit: 3 }) => {}
        other => panic!("expected SegmentTooLarge, got {other:?}"),
    }
    assert_eq!(files(), before, "nothing was created");
    assert_eq!((store.sequence(), store.next_id), (sequence, next_id));
    // The victims are still live and answer.
    assert_eq!(store.segments().len(), 2);
    assert_eq!(store.object_segments("a"), [0]);
    assert_eq!(
        store.segments()[1].trajectories().unwrap()[1].moving_object,
        "d"
    );
    assert_eq!(
        store.segments()[0]
            .read_trajectory(0)
            .unwrap()
            .moving_object,
        "a"
    );
    // With room, the same merge goes through.
    store.row_limit = 4;
    assert_eq!(store.compact_size_tiered().unwrap(), 1);
    assert_eq!(store.len(), 4);
}

#[test]
fn a_spill_over_the_row_limit_is_cut_into_segments_that_fit() {
    let tmp = TempDir::new("split");
    let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    store.row_limit = 3;
    // Newest first, so the cut has to sort before it splits.
    let spill: Vec<SemanticTrajectory> = (0..10)
        .rev()
        .map(|i| traj(&format!("m{i}"), 1, i * 100))
        .collect();
    let within = store.split_at_row_limit(spill[..3].to_vec());
    assert_eq!(
        within,
        [spill[..3].to_vec()],
        "within the limit: whole, as given"
    );
    let batches = store.split_at_row_limit(spill);
    let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
    assert_eq!(sizes, [3, 3, 3, 1]);
    for batch in batches {
        store.append_segment(batch).unwrap();
    }
    assert_eq!(store.segments().len(), 4);
    assert_eq!(store.len(), 10);
    // Each segment holds its own stretch of the run, oldest first.
    let first: Vec<String> = store
        .segments()
        .iter()
        .map(|s| s.read_trajectory(0).unwrap().moving_object)
        .collect();
    assert_eq!(first, ["m0", "m3", "m6", "m9"]);
}

#[test]
fn row_limit_frames_fit_one_frame_at_their_widest() {
    let rows = MAX_SEGMENT_ROWS;
    // The directory at its widest: every frame as long as a frame gets,
    // starts spread over the whole `i64` range (the largest Δstart
    // every row can have at once) and each span as long as its start
    // allows, up to `i64::MAX`.
    let step = (u64::MAX / rows as u64) as i64;
    let entries = (0..rows as i64)
        .map(|k| {
            let start = i64::MIN.wrapping_add(k.wrapping_mul(step));
            DirectoryEntry {
                offset: 0,
                len: segment::MAX_PAYLOAD + segment::FRAME_OVERHEAD as u32,
                start,
                end: start.saturating_add(i64::MAX),
            }
        })
        .collect();
    let mut directory = Vec::new();
    SegmentDirectory { entries }.encode(&mut directory);
    // The sort columns at their widest: every dwell `i64::MAX`, every
    // trace `u32::MAX` stays long, every rank the last of a set with
    // one object per row.
    let columns = SortColumns {
        dwell: vec![i64::MAX; rows],
        trace_len: vec![u32::MAX; rows],
        object: vec![rows as u32 - 1; rows],
    };
    let mut sort = Vec::new();
    columns.encode(&mut sort);
    for (frame, payload) in [("directory", &directory), ("sort columns", &sort)] {
        assert!(
            payload.len() <= segment::MAX_PAYLOAD as usize,
            "{frame}: {} bytes",
            payload.len()
        );
    }
    // The bound holds even with every Δstart at ten bytes, which no
    // run of this many rows can reach (the deltas sum to under 2⁶⁴).
    assert!(10 + 10 + rows * (4 + 10 + 9) <= segment::MAX_PAYLOAD as usize);
    // The value is the fixed-width directory's, so spills and tiers cut
    // rows where they always have.
    assert_eq!(MAX_SEGMENT_ROWS, 599_186);
}
