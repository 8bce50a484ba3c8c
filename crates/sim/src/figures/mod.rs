//! Experiment runners: one module per table/figure of the paper's
//! evaluation, plus runners that go beyond the paper ([`tenant_mix`],
//! [`tenant_qos`]).
//!
//! Every experiment has exactly one entry point returning structured rows
//! (`run`; [`fig14`] has one per sweep) and a `table` function rendering
//! them in the layout the paper uses; each figure's example (for instance
//! `cargo run --example fig10_end_to_end`) and `tests/figures_smoke.rs`
//! call them. Each runner builds its grid through
//! [`crate::experiment::Experiment`] and takes the
//! [`crate::experiment::Executor`] to run it on: callers pass
//! [`crate::experiment::SerialExecutor`] for in-order execution, and the
//! examples pass a [`crate::experiment::ThreadPoolExecutor`] to fan the
//! independent runs across cores. ([`shard_scaling`] takes a
//! [`crate::shard::ShardStepper`] instead: its parallelism is across the
//! shards of one run, and [`fig15`] is an analytical model with no grid.)

pub mod fig03;
pub mod fig04;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod load_curve;
pub mod memory_tech;
pub mod shard_scaling;
pub mod tenant_mix;
pub mod tenant_qos;

use crate::experiment::{ResultSet, RunRecord};
use crate::runner::RunMetrics;
use crate::schemes::Scheme;
use palermo_oram::error::{OramError, OramResult};
use palermo_workloads::Workload;

/// The four workloads the paper uses for its deep-dive figures
/// (Figs. 3, 9, 11, 12, 13).
pub const DEEP_DIVE_WORKLOADS: [Workload; 4] = [
    Workload::Mcf,
    Workload::PageRank,
    Workload::Llm,
    Workload::Redis,
];

/// The error a figure returns when its own result set lacks a run it
/// queued — a bug in the runner, reported as a typed error, not a panic.
fn missing_run(what: &str) -> OramError {
    OramError::InvalidParams {
        reason: format!("result set has no run for {what}"),
    }
}

/// The metrics of the run labelled `label`.
fn labelled<'a>(results: &'a ResultSet, label: &str) -> OramResult<&'a RunMetrics> {
    results
        .by_label(label)
        .map(|r| &r.metrics)
        .ok_or_else(|| missing_run(&format!("label '{label}'")))
}

/// The metrics of the (scheme, Table II workload) grid cell.
fn cell(results: &ResultSet, scheme: Scheme, workload: Workload) -> OramResult<&RunMetrics> {
    results
        .get(scheme, workload)
        .map(|r| &r.metrics)
        .ok_or_else(|| missing_run(&format!("{scheme}/{workload}")))
}

/// The Table II workload a record ran.
fn table2_workload(record: &RunRecord) -> OramResult<Workload> {
    record
        .workload
        .as_table2()
        .ok_or_else(|| OramError::InvalidParams {
            reason: format!("run '{}' is not a Table II workload", record.label),
        })
}

/// A configuration scaled for quick figure smoke tests.
#[cfg(test)]
pub(crate) fn smoke_config() -> crate::system::SystemConfig {
    use crate::system::SystemConfig;
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 30;
    cfg.warmup_requests = 10;
    cfg
}
