#![warn(missing_docs)]

//! # sitm-analytics
//!
//! Descriptive statistics and reporting over SITM datasets: summary
//! statistics, duration distributions, transition matrices,
//! choropleth series (the paper's Fig. 3), data-quality reports (the ~10%
//! zero-duration detections of §4.1) and plain-text rendering used by the
//! reproduction harness.

pub mod choropleth;
pub mod durations;
pub mod matrix;
pub mod quality;
pub mod render;
pub mod stats;

pub use choropleth::{Choropleth, ChoroplethEntry};
pub use durations::{duration_summary, durations_of_detections, durations_of_visits};
pub use matrix::TransitionMatrix;
pub use quality::{quality_of_trace, QualityReport};
pub use render::{bar_chart, table, TableAlign};
pub use stats::Summary;
