#![warn(missing_docs)]

//! # sitm-store
//!
//! Durable storage for SITM trajectory data: the persistence substrate a
//! downstream deployment of the model needs (the paper's Louvre pipeline
//! collected 4,945 visits over four months — something has to hold them).
//!
//! * [`crc`] — CRC-32 (ISO-HDLC), one-shot and incremental;
//! * [`codec`] — compact binary encoding of annotation sets, traces,
//!   semantic trajectories and episodes, with delta-encoded timestamps
//!   and fully validated decoding, over the varint / string / count /
//!   span primitives of [`sitm_codec`];
//! * [`segment`] — the CRC frame (one writer, one validator) every
//!   durable artifact is made of, and the log scanner whose `valid_len`
//!   is the torn-write truncation point;
//! * [`log`] — [`LogStore`]: the one snapshot log. Its only write,
//!   [`LogStore::commit`], atomically rewrites the file to the previous
//!   record and the new one, so a log holds at most two; the warehouse
//!   manifest commits through it;
//! * [`warehouse`] — the warehouse tier: immutable sorted segment files
//!   of encoded trajectories with per-segment [`ZoneMap`]s, made visible
//!   through a manifest [`LogStore`] ([`SegmentStore`]), with
//!   size-tiered segment compaction.
//!
//! Failure-injection property tests (`tests/proptests.rs`) drive random
//! truncations and byte flips through recovery and assert the WAL
//! contract: recovered records are always a clean prefix of what was
//! written, and a record never comes back altered.

pub mod codec;
pub mod crc;
pub mod log;
pub mod segment;
pub mod warehouse;

pub use codec::{decode_trajectory, encode_trajectory, fnv1a, CodecError};
pub use crc::{crc32, Crc32};
pub use log::{LogStore, Record, RecoveryReport, StoreError};
pub use segment::{scan, write_frame, write_header, Corruption, ScanOutcome};
pub use warehouse::{
    sort_run, CellRollup, DirectoryEntry, ManifestRecord, ObjectSet, Segment, SegmentDirectory,
    SegmentRef, SegmentRollup, SegmentStore, WarehouseConfig, WarehouseError, ZoneMap,
    DEFAULT_ROLLUP_PERIOD_SECONDS,
};
