//! Checkpoint frames: the durable record type streaming engines persist.
//!
//! A checkpoint is one *logical snapshot* of the engine: its state is
//! serialized into an opaque payload and committed as one
//! [`CheckpointFrame`] through [`LogStore::commit`](crate::LogStore::commit),
//! which keeps the log at the previous checkpoint and the new one.
//! Recovery restores the last frame the log recovers: a torn newest
//! frame is cut off at open, so the previous checkpoint is then the
//! last one.
//!
//! Logs written in the older multi-frame layout (`sequence | shard |
//! shard_count | payload`) do not decode as frames of this layout; open
//! counts them as undecodable and nothing is restored from them.
//!
//! The payload stays opaque at this layer on purpose: the store crate
//! knows how to frame, checksum, and recover records, while the engine
//! (`sitm-stream`) owns the meaning of its own state. Payload encoding
//! uses the same [`sitm_codec`] primitives as everything else.

use sitm_codec::{put_bytes, put_u64, take_bytes, take_u64};

use crate::codec::CodecError;
use crate::log::Record;

/// One checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFrame {
    /// Monotonically increasing checkpoint sequence number.
    pub sequence: u64,
    /// Opaque engine state, encoded by the engine.
    pub payload: Vec<u8>,
}

impl Record for CheckpointFrame {
    fn encode_record(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.sequence);
        put_bytes(buf, &self.payload);
    }

    fn decode_record(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let sequence = take_u64(buf)?;
        let payload = take_bytes(buf)?.to_vec();
        Ok(CheckpointFrame { sequence, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_record_codec() {
        let f = CheckpointFrame {
            sequence: 42,
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
        put_u64(&mut buf, u64::MAX); // payload length
        let mut cursor: &[u8] = &buf;
        assert!(matches!(
            CheckpointFrame::decode_record(&mut cursor),
            Err(CodecError::LengthOverrun { .. })
        ));
    }
}
