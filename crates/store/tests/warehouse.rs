//! Segment-tier durability, tortured (the warehouse twin of
//! `sitm-stream/tests/compaction.rs`).
//!
//! The warehouse's crash contract: segment files become visible only
//! through the manifest log, whose newest intact record is the newest
//! complete manifest. So truncating the **manifest's final frame at
//! every byte offset** must land recovery on the previous manifest —
//! never panic, never resurrect an older one, never half-apply the torn
//! record — and truncating the **newest segment file at every byte
//! offset** (a crash mid-segment-write, before the manifest commit)
//! must leave the previous manifest's state fully intact, with the torn
//! file garbage-collected.

use sitm_core::{
    Annotation, AnnotationSet, PresenceInterval, SemanticTrajectory, Timestamp, Trace,
    TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_space::CellRef;
use sitm_store::segment::Corruption;
use sitm_store::warehouse::{segment_file_name, SegmentStore, WarehouseConfig, WarehouseError};
use sitm_store::{crc32, segment, CompactionPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sitm-warehouse-torture-{tag}-{}-{n}",
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

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn traj(mo: &str, c: usize, start: i64) -> SemanticTrajectory {
    let stay = PresenceInterval::new(
        TransitionTaken::Unknown,
        cell(c),
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

/// The moving objects visible through a store, in iteration order
/// (forces the lazy decode — this is a content check, not a perf path).
fn fingerprint(store: &SegmentStore) -> Vec<String> {
    store
        .segments()
        .iter()
        .flat_map(|s| {
            s.trajectories()
                .expect("referenced segment decodes")
                .iter()
                .map(|t| t.moving_object.clone())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Copies the warehouse directory (manifest + segment files) wholesale.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Byte offset where the last intact frame of `data` begins.
fn final_frame_start(data: &[u8]) -> usize {
    let outcome = segment::scan(data);
    assert!(outcome.corruption.is_none(), "log is intact");
    let last_payload = outcome.payloads.last().expect("at least one frame");
    outcome.valid_len - (segment::FRAME_OVERHEAD + last_payload.len())
}

#[test]
fn torn_manifest_frame_recovers_previous_manifest_at_every_offset() {
    let pristine = TempDir::new("manifest-pristine");
    let config = WarehouseConfig::default(); // manifest keep=2, every=1
    let mut states: Vec<Vec<String>> = Vec::new();
    {
        let (mut store, _) = SegmentStore::open(&pristine.0, config).unwrap();
        for i in 0..4 {
            store
                .append_segment(vec![
                    traj(&format!("mo-{i}a"), 1, i * 100),
                    traj(&format!("mo-{i}b"), 2, i * 100 + 10),
                ])
                .unwrap();
            states.push(fingerprint(&store));
        }
    }

    let manifest_path = pristine.0.join("manifest.log");
    let data = std::fs::read(&manifest_path).unwrap();
    let tail_start = final_frame_start(&data);
    assert!(tail_start > segment::MAGIC.len() && tail_start < data.len());

    let torn = TempDir::new("manifest-torn");
    for cut in tail_start..data.len() {
        copy_dir(&pristine.0, &torn.0);
        std::fs::write(torn.0.join("manifest.log"), &data[..cut]).unwrap();
        let (store, _report) = SegmentStore::open(&torn.0, config)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(
            fingerprint(&store),
            states[states.len() - 2],
            "cut at {cut}: expected the previous complete manifest"
        );
        // The recovered store accepts new segments cleanly.
        drop(store);
        let (mut store, _) = SegmentStore::open(&torn.0, config).unwrap();
        store
            .append_segment(vec![traj("after-crash", 3, 999)])
            .unwrap();
        assert!(fingerprint(&store).contains(&"after-crash".to_string()));
    }

    // The intact directory recovers the newest manifest.
    let (store, report) = SegmentStore::open(&pristine.0, config).unwrap();
    assert!(report.is_clean());
    assert_eq!(fingerprint(&store), states[states.len() - 1]);
}

#[test]
fn torn_segment_file_before_manifest_commit_is_invisible_at_every_offset() {
    // Simulate a crash mid-segment-write: the file exists (torn) but no
    // manifest record references it. Recovery must serve the previous
    // manifest and GC the orphan.
    let pristine = TempDir::new("segment-pristine");
    let config = WarehouseConfig::default();
    let committed_state;
    {
        let (mut store, _) = SegmentStore::open(&pristine.0, config).unwrap();
        store
            .append_segment(vec![traj("keep-a", 1, 0), traj("keep-b", 2, 10)])
            .unwrap();
        committed_state = fingerprint(&store);
    }
    // Forge the would-be next segment file out of a committed one's
    // bytes (same format), under an id the manifest does not know.
    let donor = std::fs::read(pristine.0.join(segment_file_name(0))).unwrap();
    let orphan_name = segment_file_name(7);

    let torn = TempDir::new("segment-torn");
    for cut in 0..donor.len() {
        copy_dir(&pristine.0, &torn.0);
        std::fs::write(torn.0.join(&orphan_name), &donor[..cut]).unwrap();
        let (store, report) = SegmentStore::open(&torn.0, config)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert!(report.is_clean(), "cut at {cut}: manifest itself is clean");
        assert_eq!(
            fingerprint(&store),
            committed_state,
            "cut at {cut}: committed state intact"
        );
        assert!(
            !torn.0.join(&orphan_name).exists(),
            "cut at {cut}: orphan collected"
        );
    }
}

#[test]
fn referenced_v3_segment_header_region_tortured_at_every_offset() {
    // Format v3 keeps all segment metadata (zone map, offset directory,
    // sort columns, rollup) in a header region read eagerly at open;
    // trajectory frames behind it decode lazily. The torture contract
    // splits accordingly:
    //
    // * truncation at ANY offset refuses the open (the directory pins
    //   exact frame contiguity out to the file length);
    // * a bit flip anywhere in the HEADER region — the sort-column frame
    //   included — refuses the open;
    // * a bit flip in the TRAJECTORY region passes the open (headers are
    //   intact, nothing is decoded) but the first decode reports the
    //   corruption — altered data is never served.
    let pristine = TempDir::new("v3-pristine");
    let config = WarehouseConfig::default();
    let rows = [traj("ta", 1, 0), traj("tb", 2, 100)];
    {
        let (mut store, _) = SegmentStore::open(&pristine.0, config).unwrap();
        store.append_segment(rows.to_vec()).unwrap();
    }
    let data = std::fs::read(pristine.0.join(segment_file_name(0))).unwrap();
    assert_eq!(&data[..8], b"SITMSEG3", "new segments are format v3");
    // Walk the four header frames (zone map, directory, sort columns,
    // rollup) to find where the trajectory region starts.
    let mut headers_end = segment::MAGIC.len();
    for _ in 0..4 {
        let len = u32::from_le_bytes(data[headers_end + 1..headers_end + 5].try_into().unwrap());
        headers_end += segment::FRAME_OVERHEAD + len as usize;
    }
    assert!(headers_end < data.len(), "trajectory frames follow headers");

    let torn = TempDir::new("v3-torn");
    for cut in 0..data.len() {
        copy_dir(&pristine.0, &torn.0);
        std::fs::write(torn.0.join(segment_file_name(0)), &data[..cut]).unwrap();
        assert!(
            SegmentStore::open(&torn.0, config).is_err(),
            "cut at {cut}: truncated referenced segment must refuse to open"
        );
    }
    for pos in 0..headers_end {
        copy_dir(&pristine.0, &torn.0);
        let mut flipped = data.clone();
        flipped[pos] ^= 0x40;
        std::fs::write(torn.0.join(segment_file_name(0)), &flipped).unwrap();
        assert!(
            SegmentStore::open(&torn.0, config).is_err(),
            "flip at {pos}: corrupt header region must refuse to open"
        );
    }
    for pos in headers_end..data.len() {
        copy_dir(&pristine.0, &torn.0);
        let mut flipped = data.clone();
        flipped[pos] ^= 0x40;
        std::fs::write(torn.0.join(segment_file_name(0)), &flipped).unwrap();
        let (store, _) = SegmentStore::open(&torn.0, config)
            .unwrap_or_else(|e| panic!("flip at {pos}: body flips must not block open: {e}"));
        let seg = &store.segments()[0];
        assert!(!seg.is_loaded(), "flip at {pos}: open decoded nothing");
        // Row reads are isolated: only the row whose frame holds the
        // flipped byte fails; the other comes back pristine.
        let entries = &seg.directory().entries;
        let damaged = entries
            .iter()
            .position(|e| (e.offset..e.offset + e.len as u64).contains(&(pos as u64)))
            .expect("every body byte belongs to one row's frame");
        let row_error = seg
            .read_trajectory(damaged)
            .expect_err("the damaged row must not be served");
        assert_eq!(
            seg.read_trajectory(1 - damaged).unwrap(),
            rows[1 - damaged],
            "flip at {pos}: the other row is untouched"
        );
        let run_error = seg
            .trajectories()
            .expect_err("corrupt body must surface at first decode");
        // One frame validator behind both lazy paths: the same damage
        // is the same error, whichever path meets it.
        assert_eq!(
            row_error.to_string(),
            run_error.to_string(),
            "flip at {pos}"
        );
        let offset = entries[damaged].offset as usize;
        let expected = if pos == offset {
            Some(Corruption::BadMarker { offset })
        } else if pos >= offset + segment::FRAME_OVERHEAD {
            Some(Corruption::BadChecksum { offset })
        } else {
            None // a length or checksum field: some refusal, kind varies
        };
        if let Some(expected) = expected {
            for error in [&row_error, &run_error] {
                assert!(
                    matches!(
                        error,
                        WarehouseError::CorruptSegment { id: 0, corruption } if *corruption == expected
                    ),
                    "flip at {pos}: expected {expected:?}, got {error}"
                );
            }
        }
    }
}

/// Length and CRC-32 of the segment file `segment_file_bytes_are_pinned`
/// writes, recorded from the commit before the v1/v2 read paths were
/// deleted.
const GOLDEN_LEN: usize = 405;
const GOLDEN_CRC: u32 = 3_501_075_661;

/// The bytes of the segment format, pinned: a change to one byte of
/// what `append_segment` writes fails here.
#[test]
fn segment_file_bytes_are_pinned() {
    let tmp = TempDir::new("golden");
    let (mut store, _) = SegmentStore::open(&tmp.0, WarehouseConfig::default()).unwrap();
    store
        .append_segment(vec![
            traj("golden-c", 3, 500),
            traj("golden-a", 1, 0),
            traj("golden-b", 2, 100),
        ])
        .unwrap();
    let data = std::fs::read(tmp.0.join(segment_file_name(0))).unwrap();
    assert_eq!(
        (data.len(), crc32(&data)),
        (GOLDEN_LEN, GOLDEN_CRC),
        "the segment format changed"
    );
}

#[test]
fn any_magic_but_the_current_one_is_refused_at_open() {
    let pristine = TempDir::new("magic-pristine");
    let config = WarehouseConfig::default();
    {
        let (mut store, _) = SegmentStore::open(&pristine.0, config).unwrap();
        store.append_segment(vec![traj("ta", 1, 0)]).unwrap();
    }
    let data = std::fs::read(pristine.0.join(segment_file_name(0))).unwrap();
    assert_eq!(&data[..8], b"SITMSEG3");
    // Older formats, a newer one, and every single-bit damage of the
    // current magic.
    let mut magics: Vec<[u8; 8]> = vec![*b"SITMSEG1", *b"SITMSEG2", *b"SITMSEG4"];
    for bit in 0..64 {
        let mut magic = *b"SITMSEG3";
        magic[bit / 8] ^= 1 << (bit % 8);
        magics.push(magic);
    }
    let torn = TempDir::new("magic-torn");
    for magic in magics {
        copy_dir(&pristine.0, &torn.0);
        let mut forged = data.clone();
        forged[..8].copy_from_slice(&magic);
        std::fs::write(torn.0.join(segment_file_name(0)), &forged).unwrap();
        match SegmentStore::open(&torn.0, config) {
            Err(WarehouseError::CorruptSegment {
                id: 0,
                corruption: Corruption::BadHeader,
            }) => {}
            other => panic!("magic {magic:?}: expected BadHeader at open, got {other:?}"),
        }
    }
}

#[test]
fn torn_tail_after_compaction_still_recovers() {
    // Size-tiered compaction rewrites the manifest; tearing the frame
    // that committed the *merge* must fall back to the pre-merge
    // manifest — whose segment files must therefore still exist (they
    // are deleted only after the manifest commit, and GC only collects
    // files the *recovered* manifest does not reference).
    let pristine = TempDir::new("compact-pristine");
    let config = WarehouseConfig {
        fanout: 3,
        manifest: CompactionPolicy { keep: 2, every: 1 },
        ..WarehouseConfig::default()
    };
    let pre_merge_state;
    {
        let (mut store, _) = SegmentStore::open(&pristine.0, config).unwrap();
        store.append_segment(vec![traj("a", 1, 0)]).unwrap();
        store.append_segment(vec![traj("b", 1, 100)]).unwrap();
        pre_merge_state = fingerprint(&store);
        // The third append crosses the fanout and triggers the merge.
        store.append_segment(vec![traj("c", 1, 200)]).unwrap();
        assert_eq!(store.compact_size_tiered().unwrap(), 1, "the tier merged");
        assert_eq!(store.segments().len(), 1);
    }

    let manifest_path = pristine.0.join("manifest.log");
    let data = std::fs::read(&manifest_path).unwrap();
    let tail_start = final_frame_start(&data);
    let torn = TempDir::new("compact-torn");
    for cut in tail_start..data.len() {
        copy_dir(&pristine.0, &torn.0);
        std::fs::write(torn.0.join("manifest.log"), &data[..cut]).unwrap();
        let (store, _) = SegmentStore::open(&torn.0, config)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        // The previous record is either the pre-merge three-segment set
        // or (depending on where the compaction landed in the log) the
        // two-segment set; in both cases recovery is complete and every
        // referenced file is readable.
        let got = fingerprint(&store);
        assert!(
            got == vec!["a", "b", "c"] || got == pre_merge_state,
            "cut at {cut}: unexpected state {got:?}"
        );
    }
    // Intact: the merged segment serves everything.
    let (store, report) = SegmentStore::open(&pristine.0, config).unwrap();
    assert!(report.is_clean());
    assert_eq!(fingerprint(&store), vec!["a", "b", "c"]);
}

#[test]
fn torn_merged_segment_before_manifest_commit_is_invisible_at_every_offset() {
    // A crash while compaction writes the merged file: the file exists,
    // cut anywhere, and no manifest record names it yet. Recovery must
    // serve the pre-merge manifest with every victim readable (a merge
    // never touches its victims' files) and collect the torn file.
    let pristine = TempDir::new("merge-pristine");
    let config = WarehouseConfig::default();
    let pre_merge_state;
    {
        let (mut store, _) = SegmentStore::open(&pristine.0, config).unwrap();
        for i in 0..3 {
            store
                .append_segment(vec![
                    traj(&format!("mo-{i}a"), 1, i * 100),
                    traj(&format!("mo-{i}b"), 2, i * 100 + 10),
                ])
                .unwrap();
        }
        pre_merge_state = fingerprint(&store);
    }
    // What the merge would have written, taken from a copy that ran it.
    let merged = TempDir::new("merge-done");
    copy_dir(&pristine.0, &merged.0);
    let (merged_name, merged_file) = {
        let (mut store, _) = SegmentStore::open(&merged.0, config).unwrap();
        store.replace_segments(&[0, 1, 2]).unwrap();
        let name = segment_file_name(store.segments()[0].id);
        (name.clone(), std::fs::read(merged.0.join(name)).unwrap())
    };

    let torn = TempDir::new("merge-torn");
    for cut in 0..=merged_file.len() {
        copy_dir(&pristine.0, &torn.0);
        std::fs::write(torn.0.join(&merged_name), &merged_file[..cut]).unwrap();
        let (store, report) = SegmentStore::open(&torn.0, config)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert!(report.is_clean(), "cut at {cut}: manifest itself is clean");
        assert_eq!(
            store.segments().len(),
            3,
            "cut at {cut}: pre-merge segment set"
        );
        assert_eq!(
            fingerprint(&store),
            pre_merge_state,
            "cut at {cut}: every victim readable"
        );
        assert!(
            !torn.0.join(&merged_name).exists(),
            "cut at {cut}: torn merged file collected"
        );
    }
}
