//! What the warehouse directory holds besides segment files: the
//! records of `manifest.log` ([`ManifestRecord`]: which segments are
//! live) and `objindex.log` ([`ObjectIndexRecord`]: which segments hold
//! which moving object), and the segment files' names.

use sitm_codec::{put_str, put_u64, take_count, take_str, take_u64};

use crate::codec::CodecError;
use crate::log::Record;

/// One live segment, as the manifest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// Segment id (names the file via [`segment_file_name`]).
    pub id: u64,
    /// Trajectories in the segment (validated against the file at open).
    pub records: u64,
}

/// One complete snapshot of the live segment set. The newest intact
/// record in the manifest log is the warehouse's authoritative state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRecord {
    /// Monotonically increasing manifest sequence.
    pub sequence: u64,
    /// Live segments, in warehouse iteration order.
    pub segments: Vec<SegmentRef>,
}

impl Record for ManifestRecord {
    fn encode_record(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.sequence);
        put_u64(buf, self.segments.len() as u64);
        for s in &self.segments {
            put_u64(buf, s.id);
            put_u64(buf, s.records);
        }
    }

    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let sequence = take_u64(buf)?;
        let count = take_count(buf, 1)?;
        let mut segments = Vec::with_capacity(count);
        for _ in 0..count {
            let id = take_u64(buf)?;
            let records = take_u64(buf)?;
            segments.push(SegmentRef { id, records });
        }
        Ok(ManifestRecord { sequence, segments })
    }
}

/// The file name a segment id maps to.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.seg")
}

/// Parses a segment id back out of a file name (GC uses this to spot
/// orphans).
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// One complete snapshot of the cross-segment object index, stamped
/// with the manifest sequence it reflects. Persisted in `objindex.log`
/// so a warm reopen skips the rebuild; an out-of-sequence (or absent,
/// or torn) record just means the index is rebuilt from zone maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectIndexRecord {
    /// The manifest sequence this snapshot reflects.
    pub sequence: u64,
    /// Object id → sorted segment ids holding it.
    pub entries: Vec<(String, Vec<u64>)>,
}

impl ObjectIndexRecord {
    /// Encodes the record `{ sequence, entries }` from borrowed entries
    /// (object id → ascending segment ids, objects ascending) — the one
    /// writer of the record's layout, so the store can persist its live
    /// index without first copying it into an owned record.
    pub(super) fn encode_entries<'a, S>(
        buf: &mut Vec<u8>,
        sequence: u64,
        entries: impl ExactSizeIterator<Item = (&'a str, S)>,
    ) where
        S: ExactSizeIterator<Item = u64>,
    {
        put_u64(buf, sequence);
        put_u64(buf, entries.len() as u64);
        for (object, segments) in entries {
            put_str(buf, object);
            put_u64(buf, segments.len() as u64);
            for id in segments {
                put_u64(buf, id);
            }
        }
    }
}

impl Record for ObjectIndexRecord {
    fn encode_record(&self, buf: &mut Vec<u8>) {
        ObjectIndexRecord::encode_entries(
            buf,
            self.sequence,
            self.entries
                .iter()
                .map(|(object, segments)| (object.as_str(), segments.iter().copied())),
        );
    }

    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let sequence = take_u64(buf)?;
        let count = take_count(buf, 1)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let object = take_str(buf)?.to_owned();
            let seg_count = take_count(buf, 1)?;
            let mut segments = Vec::with_capacity(seg_count);
            for _ in 0..seg_count {
                segments.push(take_u64(buf)?);
            }
            entries.push((object, segments));
        }
        Ok(ObjectIndexRecord { sequence, entries })
    }
}
