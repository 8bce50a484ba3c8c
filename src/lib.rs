//! # Palermo — protocol-hardware co-design for oblivious memory
//!
//! This is the facade crate of the Palermo reproduction. It re-exports the
//! public API of the workspace crates so downstream users (and the bundled
//! examples and integration tests) can reach everything through a single
//! `use palermo::…` path:
//!
//! * [`oram`] — the ORAM protocols (PathORAM, RingORAM, Palermo) and their
//!   access-plan lowering;
//! * [`dram`] — the cycle-level DDR4 + memory-controller substrate;
//! * [`controller`] — the serial baseline controller and the Palermo PE-mesh
//!   controller, plus the area/power model;
//! * [`workloads`] — the Table II workload generators and the LLC model;
//! * [`analysis`] — statistics, histograms and the mutual-information
//!   security analysis;
//! * [`sim`] — the end-to-end system simulator and the per-figure experiment
//!   runners.
//!
//! ## Quickstart
//!
//! A single run goes through [`sim::runner::run_workload_spec`], which
//! takes any workload spec — a Table II workload converts with `.into()`:
//!
//! ```
//! use palermo::sim::schemes::Scheme;
//! use palermo::sim::system::SystemConfig;
//! use palermo::sim::runner::run_workload_spec;
//! use palermo::workloads::workload::Workload;
//!
//! // A deliberately tiny run: the defaults used by the figures are larger.
//! let cfg = SystemConfig::small_for_tests();
//! let metrics = run_workload_spec(Scheme::Palermo, &Workload::Random.into(), &cfg).unwrap();
//! assert!(metrics.oram_requests > 0);
//! ```
//!
//! Grids and sweeps — everything the paper's figures are made of — go
//! through the typed [`sim::experiment`] surface, which can fan the
//! independent runs across cores deterministically. Every figure runner
//! has one `run` entry point taking the executor (pass
//! [`sim::experiment::SerialExecutor`] for in-order execution):
//!
//! ```
//! use palermo::sim::experiment::{Experiment, ThreadPoolExecutor};
//! use palermo::sim::schemes::Scheme;
//! use palermo::sim::system::SystemConfig;
//! use palermo::workloads::workload::Workload;
//!
//! let mut cfg = SystemConfig::small_for_tests();
//! cfg.measured_requests = 20;
//! cfg.warmup_requests = 5;
//! let results = Experiment::new(cfg)
//!     .schemes([Scheme::PathOram, Scheme::Palermo])
//!     .workloads([Workload::Random])
//!     .run(&ThreadPoolExecutor::with_available_parallelism())
//!     .unwrap();
//! assert!(results
//!     .speedup_over(Scheme::PathOram, Scheme::Palermo, Workload::Random)
//!     .unwrap() > 1.0);
//! ```

#![warn(missing_docs)]

pub use palermo_analysis as analysis;
pub use palermo_controller as controller;
pub use palermo_dram as dram;
pub use palermo_oram as oram;
pub use palermo_sim as sim;
pub use palermo_workloads as workloads;

/// The version of the Palermo reproduction workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
