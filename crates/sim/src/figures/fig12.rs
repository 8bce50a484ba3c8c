//! Fig. 12: Palermo stash occupancy over time.
//!
//! Even with concurrent requests in flight, the Palermo protocol keeps the
//! data stash bounded well below the 256-entry hardware capacity (the paper
//! observes maxima of 228–237 across the deep-dive workloads).

use crate::experiment::{Executor, Experiment};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::Table;
use palermo_oram::error::OramResult;
use palermo_workloads::Workload;

/// Stash-occupancy series for one workload.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// The workload.
    pub workload: Workload,
    /// `(progress in [0,1], data-stash occupancy)` samples.
    pub samples: Vec<(f64, usize)>,
    /// Maximum stash occupancy observed anywhere in the hierarchy.
    pub high_water: usize,
    /// The configured hardware capacity.
    pub capacity: usize,
}

/// Runs the Fig. 12 experiment on the given executor.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run(config: &SystemConfig, executor: &dyn Executor) -> OramResult<Vec<Fig12Row>> {
    let results = Experiment::new(config.clone())
        .schemes([Scheme::Palermo])
        .workloads(super::DEEP_DIVE_WORKLOADS)
        .run(executor)?;
    results
        .iter()
        .map(|record| {
            Ok(Fig12Row {
                workload: super::table2_workload(record)?,
                samples: record.metrics.stash_samples.clone(),
                high_water: record.metrics.stash_high_water,
                capacity: config.stash_capacity,
            })
        })
        .collect()
}

/// Renders the high-water summary as a text table.
pub fn table(rows: &[Fig12Row]) -> Table {
    let mut t = Table::new(
        "Fig. 12 — Palermo stash occupancy",
        &["workload", "max occupancy", "capacity", "bounded"],
    );
    for r in rows {
        t.row(&[
            r.workload.to_string(),
            format!("{}", r.high_water),
            format!("{}", r.capacity),
            if r.high_water <= r.capacity {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn stash_stays_bounded_for_all_workloads() {
        let cfg = super::super::smoke_config();
        let rows = run(&cfg, &SerialExecutor).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.high_water <= r.capacity,
                "{}: {} > {}",
                r.workload,
                r.high_water,
                r.capacity
            );
            assert!(!r.samples.is_empty());
            assert!(r.samples.iter().all(|&(p, _)| (0.0..=1.01).contains(&p)));
        }
        assert_eq!(table(&rows).len(), 4);
    }
}
