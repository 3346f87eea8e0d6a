//! Checkpoint frames: the durable record type streaming engines persist.
//!
//! A checkpoint is one *logical snapshot* of the engine: its state is
//! serialized into an opaque payload, appended as a [`CheckpointFrame`]
//! and made durable by a [`LogStore::sync`](crate::LogStore::sync). A
//! checkpoint may span several frames sharing one `sequence` (older
//! engines wrote one frame per hash shard); recovery scans the log and
//! keeps the highest sequence for which **all** of its frames survived
//! (a torn tail can lose the last frames of an in-flight checkpoint).
//!
//! The payload stays opaque at this layer on purpose: the store crate
//! knows how to frame, checksum, and recover records, while the engine
//! (`sitm-stream`) owns the meaning of its own state. Payload encoding
//! uses the same [`sitm_codec`] primitives as everything else.

use sitm_codec::{put_bytes, put_u64, take_bytes, take_u64};

use crate::codec::CodecError;
use crate::log::Record;

/// One frame of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFrame {
    /// Monotonically increasing checkpoint sequence number; all frames of
    /// one logical checkpoint share it.
    pub sequence: u64,
    /// This frame's index within its checkpoint.
    pub shard: u32,
    /// Frames in this checkpoint (lets recovery tell a complete snapshot
    /// from a torn one).
    pub shard_count: u32,
    /// Opaque engine state, encoded by the engine.
    pub payload: Vec<u8>,
}

impl Record for CheckpointFrame {
    fn encode_record(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.sequence);
        put_u64(buf, self.shard as u64);
        put_u64(buf, self.shard_count as u64);
        put_bytes(buf, &self.payload);
    }

    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let sequence = take_u64(buf)?;
        let shard = take_u64(buf)? as u32;
        let shard_count = take_u64(buf)? as u32;
        let payload = take_bytes(buf)?.to_vec();
        Ok(CheckpointFrame {
            sequence,
            shard,
            shard_count,
            payload,
        })
    }
}

/// Selects the newest *complete* checkpoint from recovered frames: the
/// highest sequence where every frame `0..shard_count` is present exactly
/// once with a consistent count. Returns frames ordered by `shard`.
pub fn latest_complete_checkpoint(frames: &[CheckpointFrame]) -> Option<Vec<&CheckpointFrame>> {
    complete_groups(frames).pop()
}

/// When and how much a checkpoint log compacts.
///
/// Only the newest complete checkpoint is ever read back, so without
/// compaction the log grows by one full snapshot per checkpoint forever.
/// A policy bounds it: every [`CompactionPolicy::every`] commits the log
/// is atomically rewritten ([`LogStore::compact`](crate::LogStore::compact))
/// to hold only the newest [`CompactionPolicy::keep`] complete
/// checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Complete checkpoints a compaction retains (min 1). Keeping two
    /// means a crash that tears the *newest* checkpoint — including a
    /// crash during the compaction rewrite itself — still leaves a full
    /// older snapshot to recover from.
    pub keep: usize,
    /// Compact after this many committed checkpoints (min 1; 1 compacts
    /// on every commit, bounding the log at `keep` snapshots).
    pub every: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { keep: 2, every: 1 }
    }
}

/// Groups recovered frames into complete checkpoints and returns the
/// newest `keep` of them, oldest first, each with its frames ordered by
/// `shard`. Incomplete (torn) sequences are skipped, exactly as
/// [`latest_complete_checkpoint`] skips them.
pub fn complete_checkpoint_groups(
    frames: &[CheckpointFrame],
    keep: usize,
) -> Vec<Vec<CheckpointFrame>> {
    let mut groups = complete_groups(frames);
    let excess = groups.len().saturating_sub(keep.max(1));
    groups
        .drain(excess..)
        .map(|group| group.into_iter().cloned().collect())
        .collect()
}

/// Every complete checkpoint in `frames`, by ascending sequence, each
/// with its frames ordered by `shard`: a sequence qualifies when its
/// frames agree on a non-zero `shard_count` and hold each index below
/// it exactly once.
fn complete_groups(frames: &[CheckpointFrame]) -> Vec<Vec<&CheckpointFrame>> {
    let mut sequences: Vec<u64> = frames.iter().map(|f| f.sequence).collect();
    sequences.sort_unstable();
    sequences.dedup();
    sequences
        .into_iter()
        .filter_map(|seq| {
            let mut members: Vec<&CheckpointFrame> =
                frames.iter().filter(|f| f.sequence == seq).collect();
            members.sort_by_key(|f| f.shard);
            let count = members[0].shard_count;
            let complete = members.len() == count as usize
                && members
                    .iter()
                    .enumerate()
                    .all(|(i, f)| f.shard_count == count && f.shard as usize == i);
            complete.then_some(members)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(sequence: u64, shard: u32, shard_count: u32) -> CheckpointFrame {
        CheckpointFrame {
            sequence,
            shard,
            shard_count,
            payload: vec![shard as u8; 3],
        }
    }

    #[test]
    fn round_trips_through_record_codec() {
        let f = CheckpointFrame {
            sequence: 42,
            shard: 3,
            shard_count: 8,
            payload: vec![1, 2, 3, 255, 0],
        };
        let mut buf = Vec::new();
        f.encode_record(&mut buf);
        let mut cursor: &[u8] = &buf;
        let back = CheckpointFrame::decode_record(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, f);
    }

    #[test]
    fn hostile_payload_length_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // sequence
        put_u64(&mut buf, 0); // shard
        put_u64(&mut buf, 1); // shard_count
        put_u64(&mut buf, u64::MAX); // payload length
        let mut cursor: &[u8] = &buf;
        assert!(matches!(
            CheckpointFrame::decode_record(&mut cursor),
            Err(CodecError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn picks_newest_complete_sequence() {
        // Sequence 2 is torn (one of two shards); sequence 1 is complete.
        let frames = vec![frame(1, 0, 2), frame(1, 1, 2), frame(2, 0, 2)];
        let chosen = latest_complete_checkpoint(&frames).unwrap();
        assert_eq!(chosen.len(), 2);
        assert!(chosen.iter().all(|f| f.sequence == 1));
        assert_eq!(chosen[0].shard, 0);
        assert_eq!(chosen[1].shard, 1);
    }

    #[test]
    fn prefers_higher_complete_sequence() {
        let frames = vec![
            frame(1, 0, 1),
            frame(5, 0, 2),
            frame(5, 1, 2),
            frame(9, 1, 2), // incomplete
        ];
        let chosen = latest_complete_checkpoint(&frames).unwrap();
        assert!(chosen.iter().all(|f| f.sequence == 5));
    }

    #[test]
    fn groups_keep_newest_complete_and_skip_torn() {
        let frames = vec![
            frame(1, 0, 1),
            frame(2, 0, 2), // torn: missing shard 1
            frame(3, 1, 2),
            frame(3, 0, 2),
            frame(4, 0, 1),
        ];
        let groups = complete_checkpoint_groups(&frames, 2);
        assert_eq!(groups.len(), 2);
        assert!(groups[0].iter().all(|f| f.sequence == 3));
        assert_eq!(groups[0][0].shard, 0, "frames ordered by shard");
        assert_eq!(groups[0][1].shard, 1);
        assert!(groups[1].iter().all(|f| f.sequence == 4));
        // keep is clamped to at least one group.
        let one = complete_checkpoint_groups(&frames, 0);
        assert_eq!(one.len(), 1);
        assert!(one[0].iter().all(|f| f.sequence == 4));
        assert!(complete_checkpoint_groups(&[], 2).is_empty());
    }

    #[test]
    fn default_policy_keeps_two_every_commit() {
        let p = CompactionPolicy::default();
        assert_eq!(p, CompactionPolicy { keep: 2, every: 1 });
    }

    #[test]
    fn no_complete_checkpoint_yields_none() {
        assert!(latest_complete_checkpoint(&[]).is_none());
        let torn = vec![frame(3, 1, 2)];
        assert!(latest_complete_checkpoint(&torn).is_none());
        // Duplicate shard ids never qualify as complete.
        let dup = vec![frame(4, 0, 2), frame(4, 0, 2)];
        assert!(latest_complete_checkpoint(&dup).is_none());
    }
}
