#![warn(missing_docs)]

//! # sitm-store
//!
//! Durable storage for SITM trajectory data: the persistence substrate a
//! downstream deployment of the model needs (the paper's Louvre pipeline
//! collected 4,945 visits over four months — something has to hold them).
//!
//! * [`crc`] — CRC-32 (ISO-HDLC), one-shot and incremental;
//! * [`bloom`] — [`Bloom`]: a compact double-hashed Bloom filter, the
//!   fast-*no* membership tier in front of each zone map's exact sets;
//! * [`codec`] — compact binary encoding of annotation sets, traces,
//!   semantic trajectories, episodes, and raw visit records, with
//!   delta-encoded timestamps and fully validated decoding, over the
//!   varint / string / count / span primitives of [`sitm_codec`];
//! * [`checkpoint`] — [`CheckpointFrame`]: the per-shard snapshot record
//!   streaming engines persist, plus torn-checkpoint detection;
//! * [`segment`] — the CRC frame (one writer, one validator) every
//!   durable artifact is made of, and the log scanner whose `valid_len`
//!   is the torn-write truncation point;
//! * [`log`] — [`LogStore`]: an append-only, crash-recoverable record
//!   log with fsync durability and atomic compaction;
//! * [`warehouse`] — the warehouse tier: immutable sorted segment files
//!   of encoded trajectories with per-segment [`ZoneMap`]s, made visible
//!   through a compacting manifest log ([`SegmentStore`]), with
//!   size-tiered segment compaction.
//!
//! Failure-injection property tests (`tests/proptests.rs`) drive random
//! truncations and byte flips through recovery and assert the WAL
//! contract: recovered records are always a clean prefix of what was
//! appended, and a record never comes back altered.

pub mod bloom;
pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod log;
pub mod segment;
pub mod warehouse;

pub use bloom::{fnv1a, Bloom};
pub use checkpoint::{
    complete_checkpoint_groups, latest_complete_checkpoint, CheckpointFrame, CompactionPolicy,
};
pub use codec::{decode_trajectory, decode_visit, encode_trajectory, encode_visit, CodecError};
pub use crc::{crc32, Crc32};
pub use log::{LogStore, Record, RecoveryReport, StoreError};
pub use segment::{scan, write_frame, write_header, Corruption, ScanOutcome};
pub use warehouse::{
    sort_run, CellRollup, DirectoryEntry, ManifestRecord, ObjectSet, Segment, SegmentDirectory,
    SegmentRef, SegmentRollup, SegmentStore, WarehouseConfig, WarehouseError, ZoneMap,
    DEFAULT_ROLLUP_PERIOD_SECONDS,
};
