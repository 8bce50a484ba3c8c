//! # palermo-perfbench
//!
//! The host-speed benchmark of the Palermo simulator. It measures how fast
//! the simulator runs (host time), end to end and layer by layer, on four
//! workloads chosen to load different layers. It drives the simulator only
//! through the public API of the `palermo-*` crates.
//!
//! * [`mod@calibrate`] holds the [`speed_probe`], which is run around every
//!   timed run and set-up to correct its time to full core speed, and a
//!   memory-bound kernel whose ratio to each run is reported beside it.
//! * [`traced`] repeats the runner's simulation loop call for call and
//!   times every call into each layer. It must reproduce the untraced run's
//!   measured-window metrics exactly, or the traced run fails.
//! * [`layers`] folds traced runs into the per-layer metric table.
//! * [`report`] prints metrics as `name value unit` lines, parses them
//!   back, and renders the final JSON result line.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to read
//! a traced run.

#![warn(missing_docs)]

pub mod calibrate;
pub mod layers;
pub mod report;
pub mod stats;
pub mod traced;

pub use calibrate::{calibrate, speed_probe, Calibration, CalibrationRun, PROBE_FULL_SPEED};

use palermo_sim::{Scheme, SystemConfig, WorkloadSpec};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x9A1E_0A90;

/// One benchmark workload: a scheme and a workload spec run on the paper's
/// Table III system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchWorkload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Scheme name, as [`Scheme::from_name`] parses it.
    pub scheme: &'static str,
    /// Workload spec name, as [`WorkloadSpec::from_name`] parses it.
    pub spec: &'static str,
}

/// The benchmark's workloads, in the order `--workload all` runs them.
///
/// Each loads a different layer (see `perfbench/README.md`): RingORAM is
/// dominated by idle-cycle skipping, closed-loop Palermo by the controller
/// issue pass and DRAM scheduling, the open-loop mix adds the serving
/// engine, and the sharded PageRank run is dominated by workload
/// generation.
pub const WORKLOADS: [BenchWorkload; 4] = [
    BenchWorkload {
        name: "ring_mcf",
        scheme: "RingORAM",
        spec: "mcf",
    },
    BenchWorkload {
        name: "palermo_mcf",
        scheme: "Palermo",
        spec: "mcf",
    },
    BenchWorkload {
        name: "palermo_open_mix",
        scheme: "Palermo",
        spec: "open:poisson:1.0:mix:rr:redis*2+llm+stream",
    },
    BenchWorkload {
        name: "palermo_shard2_pr",
        scheme: "Palermo",
        spec: "shard:2:hash:pr",
    },
];

impl BenchWorkload {
    /// Looks a workload up by its benchmark name.
    pub fn from_name(name: &str) -> Option<BenchWorkload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The parsed scheme and spec; `None` if the table names an unknown
    /// one (the contract test parses every entry).
    pub fn resolve(&self) -> Option<(Scheme, WorkloadSpec)> {
        Some((
            Scheme::from_name(self.scheme)?,
            WorkloadSpec::from_name(self.spec)?,
        ))
    }
}

/// The system every workload runs on: Table III (16 GiB protected,
/// DDR4-3200), 150 warm-up and 600 measured requests, the given seed. The
/// modelled LLC starts empty and warms during the warm-up requests.
pub fn bench_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.seed = seed;
    cfg
}
