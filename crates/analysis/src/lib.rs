//! # palermo-analysis
//!
//! Statistics, histograms, mutual-information security analysis and report
//! formatting used by the Palermo evaluation harness.
//!
//! * [`stats`] — online summaries, geometric means, quantiles;
//! * [`histogram`] — the integer latency histogram behind per-tenant QoS;
//! * [`mutual_info`] — Equation 1 / Table I: the attacker's information gain
//!   from observing ORAM response timings;
//! * [`report`] — plain-text / CSV tables printed by the figure runners.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod histogram;
pub mod mutual_info;
pub mod report;
pub mod stats;

pub use histogram::LatencyHistogram;
pub use mutual_info::{estimate_from_samples, ObservationProbabilities};
pub use report::Table;
pub use stats::{geometric_mean, median, quantile, Summary};
