//! What the warehouse directory holds besides segment files: the
//! records of `manifest.log` ([`ManifestRecord`]: which segments are
//! live), and the segment files' names.

use sitm_codec::{put_u64, take_count, take_u64};

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
