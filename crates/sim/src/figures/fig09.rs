//! Fig. 9 and Table I: the quantitative security analysis.
//!
//! For each workload, Palermo's ORAM response latencies are collected
//! together with the victim-behaviour bit, and the attacker's information
//! gain (Equation 1) is computed from the longer/shorter-than-median
//! observation channel. The paper reports mutual information within noise
//! of zero and near-identical DRAM row-hit / bank-conflict statistics
//! across workloads.

use crate::experiment::{Executor, Experiment};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::mutual_info::estimate_from_samples;
use palermo_analysis::report::{percent, Table};
use palermo_analysis::Summary;
use palermo_oram::error::OramResult;
use palermo_workloads::Workload;

/// One row of the Fig. 9 table (one workload under Palermo).
#[derive(Debug, Clone)]
pub struct Fig09Row {
    /// The workload.
    pub workload: Workload,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// DRAM bank-conflict rate.
    pub bank_conflict_rate: f64,
    /// Mutual information between victim behaviour and latency observation.
    pub mutual_information: f64,
    /// Mean ORAM response latency (cycles).
    pub mean_latency: f64,
    /// Standard deviation of the response latency (cycles).
    pub latency_std: f64,
}

/// Runs the Fig. 9 experiment on the given executor.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run(config: &SystemConfig, executor: &dyn Executor) -> OramResult<Vec<Fig09Row>> {
    let results = Experiment::new(config.clone())
        .schemes([Scheme::Palermo])
        .workloads(super::DEEP_DIVE_WORKLOADS)
        .run(executor)?;
    results
        .iter()
        .map(|record| {
            let m = &record.metrics;
            let samples: Vec<(bool, f64)> = m
                .behaviour_latency
                .iter()
                .map(|&(b, l)| (b, l as f64))
                .collect();
            let mutual_information = estimate_from_samples(&samples)
                .map(|(_, mi)| mi)
                .unwrap_or(0.0);
            let mut latency = Summary::new();
            latency.extend(m.latencies.iter().map(|&l| l as f64));
            Ok(Fig09Row {
                workload: super::table2_workload(record)?,
                row_hit_rate: m.dram.row_hit_rate(),
                bank_conflict_rate: m.dram.bank_conflict_rate(),
                mutual_information,
                mean_latency: latency.mean(),
                latency_std: latency.std_dev(),
            })
        })
        .collect()
}

/// Renders the rows as a text table.
pub fn table(rows: &[Fig09Row]) -> Table {
    let mut t = Table::new(
        "Fig. 9 — attacker observations on Palermo",
        &[
            "workload",
            "row hit %",
            "bank conflict %",
            "mutual info",
            "mean lat",
            "lat std",
        ],
    );
    for r in rows {
        t.row(&[
            r.workload.to_string(),
            percent(r.row_hit_rate),
            percent(r.bank_conflict_rate),
            format!("{:.4}", r.mutual_information),
            format!("{:.0}", r.mean_latency),
            format!("{:.0}", r.latency_std),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn timing_channel_leaks_little_and_dram_stats_are_uniform() {
        let mut cfg = super::super::smoke_config();
        cfg.measured_requests = 60;
        let rows = run(&cfg, &SerialExecutor).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.mutual_information < 0.25,
                "{}: MI {}",
                r.workload,
                r.mutual_information
            );
            assert!(r.mean_latency > 0.0);
        }
        // Row-hit rates should be similar across workloads (ORAM homogenises
        // the traffic): spread within 30 percentage points even at tiny scale.
        let max = rows.iter().map(|r| r.row_hit_rate).fold(0.0, f64::max);
        let min = rows.iter().map(|r| r.row_hit_rate).fold(1.0, f64::min);
        assert!(max - min < 0.3, "row hit spread {}", max - min);
        assert_eq!(table(&rows).len(), 4);
    }
}
