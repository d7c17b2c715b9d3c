//! # hpcc-stats
//!
//! Turns the raw records a simulation produces into the derived metrics the
//! paper reports:
//!
//! * [`mod@percentile`] — percentile helpers,
//! * [`fct`] — flow-completion-time slowdown, grouped into the paper's
//!   flow-size buckets with median / 95th / 99th percentiles (Figures 2, 3,
//!   10, 11, 12),
//! * [`queue`] — queue-length percentiles from sampled histograms (Figures
//!   9f, 10b, 10d),
//! * [`pfc`] — PFC pause-time fractions and pause propagation analysis
//!   (Figures 1, 2b, 11b, 11d),
//! * [`series`] — goodput and queue time series (Figures 6, 9a–9d, 13, 14)
//!   and Jain's fairness index.

pub mod fct;
pub mod percentile;
pub mod pfc;
pub mod queue;
pub mod series;

pub use fct::{FctAnalyzer, FctBucket, SizeBucketStats};
pub use percentile::{percentile, Percentiles};
pub use pfc::PfcSummary;
pub use series::{goodput_series_gbps, jain_fairness_index};
