//! # sitm-bench
//!
//! The paper-reproduction harness: one module per table/figure of the
//! paper, each returning the printable report the corresponding `repro_*`
//! binary emits. `bench_stream` times the streaming engine over the feeds
//! of [`stream_feeds`].
//!
//! [`repro`] is the experiment index: each function is labelled with
//! the table or figure it reproduces (T1, D1, F1–F6), and the reports
//! print the paper's value beside the measured one.

pub mod repro;
pub mod stream_feeds;

pub use repro::*;
