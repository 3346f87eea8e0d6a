#![warn(missing_docs)]

//! # sitm-stream
//!
//! Parallel **online** construction of the Semantic Indoor Trajectory
//! Model: the batch pipeline (raw fixes → presence intervals → episodic
//! segmentation) rebuilt as an incremental engine that serves live
//! traffic, while provably producing the *exact same episodes* as
//! `sitm_core::maximal_episodes` over the completed trajectory.
//!
//! * [`event`] — the ingestion vocabulary: per-visit [`StreamEvent`]s
//!   (open / raw fix / presence / close), interleaved across visitors,
//!   and [`trajectory_feed`], which replays finished trajectories as
//!   one time-ordered feed;
//! * [`visit`] — the per-visit state machine: open fix-derived presence
//!   interval, trace-order validation, one [`sitm_core::RunBuilder`] per
//!   configured predicate;
//! * [`segmenter`] — [`IncrementalSegmenter`]: predicate-driven episode
//!   detection over one visit, emitting each [`sitm_core::Episode`] the
//!   moment its maximal run closes;
//! * [`engine`] — [`EngineConfig`], [`EngineError`], [`EngineStats`],
//!   [`EmittedEpisode`] and the hash that gives each visit its first
//!   worker;
//! * [`parallel`] — [`ParallelEngine`], the engine: N worker threads
//!   over a work-stealing scheduler of visits (per-worker deques,
//!   visit-affinity pinning, steal-on-idle of whole cold visits) behind
//!   one ingest/drain/checkpoint/live-snapshot façade;
//! * [`live_query`] — [`LiveSnapshot`]: snapshot-consistent cuts of the
//!   live state (open-visit trajectory prefixes) with the postings over
//!   them (cell → visits, moving object → visits, span-start order),
//!   patched per touched visit at each cut; queryable with
//!   `sitm_query::Predicate` through those postings — candidate
//!   narrowing with a full re-check, exactly like the warehouse — and,
//!   as a `sitm_query::TrajectorySource`, federated with other engines'
//!   snapshots and warehouses by `Query::execute_federated`;
//! * [`checkpoint`] — [`checkpoint::EngineState`], the engine's state,
//!   as bytes: what [`ParallelEngine::checkpoint`] hands out and
//!   [`ParallelEngine::restore`] takes back, a function of the feed
//!   alone that stores each fact once, restored into any worker count
//!   without duplicating or dropping episodes. Durability is the
//!   caller's;
//! * [`flusher`] — [`Flusher`]: the live → warehouse spill pipeline —
//!   drains finished visits (`take_finished`, retained under
//!   [`EngineConfig::with_warehouse`]) out of the engine into
//!   `sitm_query::SegmentedDb`'s immutable segment tier, bounding
//!   engine memory while history accumulates on disk;
//!
//! ## One runtime, any worker count
//!
//! [`ParallelEngine`] runs `config.shards` worker threads over a
//! **work-stealing router**: events queue per visit, ready visits ride
//! bounded per-worker deques, and an idle worker steals whole *cold*
//! visits (queued, not mid-application) from the back of the busiest
//! deque. A worker takes its own ready visits in slices of up to 64
//! per scheduler lock, so the scheduler costs per slice, not per
//! event. *Skewed* loads do not collapse — a single hot visit
//! serializes only itself while every cold visit drains through the
//! idle workers. Backpressure bounds queued events at
//! `channel_depth × batch_capacity × workers`, overshot by at most one
//! router batch (`cargo run --release -p sitm-bench --bin bench_stream`
//! times the skewed case as `skewed_ingest`).
//!
//! Correctness does not depend on the worker count: a visit's events
//! are applied in arrival order by at most one worker at a time
//! (visit-affinity pinning), and every per-visit decision — including
//! the late-event fence, which is event-time deterministic — is a pure
//! function of the visit's own history, so thread interleavings cannot
//! reorder or re-judge any visit's history. The differential property
//! tests in `tests/parallel_equivalence.rs` pin streamed == batch
//! `maximal_episodes` and N workers == 1 worker for 1/2/4/8 workers,
//! under shuffled event interleavings, under single-hot-visit skew, and
//! across crash/checkpoint/restore. Nothing is kept per partition: the
//! watermark, the fence cap and the checkpoint belong to the whole
//! engine, so a checkpoint's bytes depend on the feed alone.
//!
//! ## Snapshot consistency
//!
//! Every barrier operation (`drain`, `live_snapshot`, `checkpoint`) cuts
//! the stream at the call: events ingested before it are fully visible,
//! later ones entirely absent — the cut is a quiesce point of the
//! scheduler, after every outstanding event batch. See
//! [`live_query`] for the model and [`ParallelEngine::checkpoint`] for
//! the exactly-once recovery contract relative to `drain`.
//!
//! ## Batch equivalence
//!
//! The engine and the batch extractor share `sitm_core::RunBuilder`, and
//! the property tests in `tests/equivalence.rs` replay whole generated
//! Louvre days through 1, 2, and 8 workers, asserting the streamed episode
//! sets equal the batch ones visit-for-visit — including across a
//! checkpoint/restore crash in the middle of the stream.

pub mod checkpoint;
pub mod engine;
pub mod event;
pub mod flusher;
mod live_index;
pub mod live_query;
pub mod parallel;
pub mod segmenter;
pub mod visit;

pub use checkpoint::CheckpointError;
pub use engine::{Anomalies, EmittedEpisode, EngineConfig, EngineError, EngineStats};
pub use event::{trajectory_feed, StreamEvent, VisitKey};
pub use flusher::Flusher;
pub use live_query::{LiveSnapshot, LiveVisit};
pub use parallel::ParallelEngine;
pub use segmenter::IncrementalSegmenter;
