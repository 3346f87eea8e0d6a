#![warn(missing_docs)]

//! # sitm-query
//!
//! A query engine over collections of SITM semantic trajectories.
//!
//! The paper presents the SITM as the substrate for "context-aware
//! mobility data mining and statistical analytics" (§1); this crate
//! supplies the retrieval layer those applications sit on:
//!
//! * [`interval_tree`] — a static augmented interval tree (the temporal
//!   access path);
//! * [`index`] — [`TrajectoryDb`]: an indexed trajectory collection with
//!   cell/annotation/moving-object postings, a span tree, and per-cell
//!   stay trees;
//! * [`predicate`] — [`Predicate`]: a boolean algebra over the "where"
//!   (cells, paths), "when" (windows), and "what" (annotations) of a
//!   trajectory, and [`LeafLookup`], the per-leaf lookups every index
//!   answers it through;
//! * [`query`] — [`Query`]: a fluent builder, `EXPLAIN`-style plans,
//!   and the crate's **one executor** — the paging core every
//!   `execute*`, count and byte-sink entry point is a sink over;
//! * [`aggregate`] — GROUP BY operators: dwell/detection/flow matrices,
//!   occupancy series, annotation grouping;
//! * [`federation`] — [`TrajectorySource`]: the positional face every
//!   trajectory collection (in-memory, warehouse, live streaming-engine
//!   state) shows the executor, so one query runs over their union;
//! * [`segmented`] — [`SegmentedDb`]: the warehouse rewritten around
//!   `sitm-store`'s immutable on-disk segment tier — object-index and
//!   zone-map pruning plus per-segment postings behind the same query
//!   surface and the same [`TrajectorySource`] federation face;
//! * [`wire`] — the network codec for queries: [`Predicate`],
//!   [`SortKey`] and [`WireQuery`] (predicate + ordering + paging)
//!   encoded with `sitm-codec`'s primitives, fully validated on
//!   decode — what `sitm-serve` puts on the wire.
//!
//! Index lookups return candidate *supersets* and the executor re-checks
//! the predicate on every candidate, so results are always identical to a
//! full scan (property-tested in `tests/proptests.rs`).
//!
//! ## One executor, many sinks, one oracle
//!
//! *Filter → order → skip → take* is written once. A
//! [`TrajectorySource`] is positional — `len_hint()` rows, a sound
//! candidate superset per predicate ([`TrajectorySource::candidates`]),
//! a row by position ([`TrajectorySource::row`]: borrowed when
//! resident, with its stored encoding when the source holds one, owned
//! when it had to be read) and a batch of sort keys for candidate
//! positions ([`TrajectorySource::sort_keys`]) — and the paging core
//! (documented on [`Query`]) runs over any list of them: per-source
//! candidates, ordering no further than the page reaches, a re-check on
//! each fetched row, offset, limit. [`Query::execute`],
//! [`Query::execute_segmented`], [`Query::execute_federated`], their
//! byte sinks, [`Query::count`], [`federated_count`] and the
//! `count_matching` methods are sinks of a few lines over it, and
//! [`TrajectorySource::plan`] plans any source without counting as a
//! query.
//! Selection is index-served on *every* participant that has indexes:
//! [`TrajectoryDb`] answers from its postings and interval trees,
//! [`SegmentedDb`] from its object index, zone maps and per-segment
//! postings, `sitm-stream`'s `LiveSnapshot` from the live postings its
//! engine maintains incrementally per event. One leaf table serves
//! them all: [`Predicate::narrow`] walks the boolean structure and asks
//! an index's [`LeafLookup`]s for the leaves, and `TrajectoryDb`, a
//! segment's `ZoneMap` and `LiveSnapshot` implement only those lookups
//! (a zone map answers `All` or no candidates, which is its pruning
//! decision, [`zone_may_match`]). Consistency of a live source is
//! the snapshot's: the index rides the same consistent cut as the
//! visible trajectory prefixes (see `sitm_stream::live_query`).
//!
//! The naive scan survives only as the test oracle — a
//! `#[doc(hidden)]` method on [`Query`] that concatenates every row,
//! filters, stable-sorts, skips and takes, sharing nothing with the
//! core — which every differential test (and `bench_stream`'s
//! `scan_count`) compares against.

pub mod aggregate;
pub mod federation;
pub mod index;
pub mod interval_tree;
pub mod predicate;
pub mod query;
pub mod segmented;
pub mod wire;

pub use federation::{federated_count, Row, SortKeys, StartRun, TrajectorySource};

pub use aggregate::{
    detection_counts_by_cell, dwell_by_cell, flow_matrix, group_by_annotation, occupancy, top_k,
    trajectory_counts_by_cell, OccupancyPoint,
};
pub use index::{CandidateSet, TrajId, TrajectoryDb};
pub use interval_tree::{Entry, IntervalTree};
pub use predicate::{DeltaVerdict, LeafLookup, Predicate};
pub use query::{Match, Query, SortKey};
pub use segmented::{zone_may_match, SegmentedDb, SegmentedPlan};
pub use wire::{
    decode_predicate, decode_wire_query, encode_predicate, encode_wire_query, WireQuery,
};
