//! Fig. 11: DRAM bandwidth utilisation and average outstanding requests,
//! RingORAM vs Palermo (both without prefetch). The paper reports ≈2.8×
//! more outstanding requests and ≈2.2× higher utilisation for Palermo.

use crate::experiment::{Executor, Experiment};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{percent, Table};
use palermo_oram::error::OramResult;
use palermo_workloads::Workload;

/// One row of Fig. 11 (one workload, both schemes).
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// The workload.
    pub workload: Workload,
    /// RingORAM bandwidth utilisation.
    pub ring_utilization: f64,
    /// Palermo bandwidth utilisation.
    pub palermo_utilization: f64,
    /// RingORAM average outstanding DRAM requests in the memory controller.
    pub ring_outstanding: f64,
    /// Palermo average outstanding DRAM requests in the memory controller.
    pub palermo_outstanding: f64,
}

impl Fig11Row {
    /// Utilisation improvement of Palermo over RingORAM.
    pub fn utilization_gain(&self) -> f64 {
        if self.ring_utilization == 0.0 {
            0.0
        } else {
            self.palermo_utilization / self.ring_utilization
        }
    }

    /// Outstanding-request improvement of Palermo over RingORAM.
    pub fn outstanding_gain(&self) -> f64 {
        if self.ring_outstanding == 0.0 {
            0.0
        } else {
            self.palermo_outstanding / self.ring_outstanding
        }
    }
}

/// Runs the Fig. 11 experiment on the given executor.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run(config: &SystemConfig, executor: &dyn Executor) -> OramResult<Vec<Fig11Row>> {
    let results = Experiment::new(config.clone())
        .schemes([Scheme::RingOram, Scheme::Palermo])
        .workloads(super::DEEP_DIVE_WORKLOADS)
        .run(executor)?;
    super::DEEP_DIVE_WORKLOADS
        .into_iter()
        .map(|workload| {
            let ring = super::cell(&results, Scheme::RingOram, workload)?;
            let palermo = super::cell(&results, Scheme::Palermo, workload)?;
            Ok(Fig11Row {
                workload,
                ring_utilization: ring.dram.bandwidth_utilization(),
                palermo_utilization: palermo.dram.bandwidth_utilization(),
                ring_outstanding: ring.dram.avg_queue_occupancy(),
                palermo_outstanding: palermo.dram.avg_queue_occupancy(),
            })
        })
        .collect()
}

/// Renders the rows as a text table.
pub fn table(rows: &[Fig11Row]) -> Table {
    let mut t = Table::new(
        "Fig. 11 — memory-level parallelism: RingORAM vs Palermo",
        &[
            "workload",
            "ring util",
            "palermo util",
            "util gain",
            "ring outst",
            "palermo outst",
            "outst gain",
        ],
    );
    for r in rows {
        t.row(&[
            r.workload.to_string(),
            percent(r.ring_utilization),
            percent(r.palermo_utilization),
            format!("{:.2}x", r.utilization_gain()),
            format!("{:.1}", r.ring_outstanding),
            format!("{:.1}", r.palermo_outstanding),
            format!("{:.2}x", r.outstanding_gain()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn palermo_increases_mlp_and_utilisation() {
        let cfg = super::super::smoke_config();
        let rows = run(&cfg, &SerialExecutor).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.utilization_gain() > 1.0,
                "{}: gain {}",
                r.workload,
                r.utilization_gain()
            );
            assert!(
                r.outstanding_gain() > 1.0,
                "{}: outstanding gain {}",
                r.workload,
                r.outstanding_gain()
            );
        }
        assert_eq!(table(&rows).len(), 4);
    }
}
