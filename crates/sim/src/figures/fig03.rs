//! Fig. 3: RingORAM bandwidth utilisation and memory-cycle breakdown.
//!
//! The paper's motivating measurement: the RingORAM baseline keeps DRAM
//! bandwidth utilisation under ~30 % and spends ~72 % of its memory cycles
//! in ORAM-sync stalls, split roughly evenly between the three sub-ORAMs.

use crate::experiment::{Executor, Experiment};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{percent, Table};
use palermo_oram::error::OramResult;
use palermo_oram::types::SubOram;
use palermo_workloads::Workload;

/// One row of Fig. 3 (one workload under RingORAM).
#[derive(Debug, Clone)]
pub struct Fig03Row {
    /// The workload.
    pub workload: Workload,
    /// DRAM bandwidth utilisation in `[0, 1]` (Fig. 3a).
    pub bandwidth_utilization: f64,
    /// Fraction of measured cycles lost to ORAM-sync stalls (Fig. 3b).
    pub sync_fraction: f64,
    /// Share of the sync stalls attributed to Data / PosMap1 / PosMap2.
    pub sync_share_by_level: [f64; 3],
    /// DRAM row-buffer hit rate (the §III-A analytical cross-check).
    pub row_hit_rate: f64,
    /// Average memory-controller queue occupancy.
    pub avg_queue_occupancy: f64,
}

/// Runs the Fig. 3 experiment on the given executor.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run(config: &SystemConfig, executor: &dyn Executor) -> OramResult<Vec<Fig03Row>> {
    let results = Experiment::new(config.clone())
        .schemes([Scheme::RingOram])
        .workloads(
            super::DEEP_DIVE_WORKLOADS
                .into_iter()
                .chain(std::iter::once(Workload::Random)),
        )
        .run(executor)?;
    results
        .iter()
        .map(|record| {
            let m = &record.metrics;
            let level_total: u64 = m.sync_stall_by_level.iter().sum();
            let share = |i: usize| {
                if level_total == 0 {
                    0.0
                } else {
                    m.sync_stall_by_level[i] as f64 / level_total as f64
                }
            };
            Ok(Fig03Row {
                workload: super::table2_workload(record)?,
                bandwidth_utilization: m.dram.bandwidth_utilization(),
                sync_fraction: m.sync_stall_cycles as f64 / m.cycles.max(1) as f64,
                sync_share_by_level: [share(0), share(1), share(2)],
                row_hit_rate: m.dram.row_hit_rate(),
                avg_queue_occupancy: m.dram.avg_queue_occupancy(),
            })
        })
        .collect()
}

/// Renders the rows as a text table.
pub fn table(rows: &[Fig03Row]) -> Table {
    let mut t = Table::new(
        "Fig. 3 — RingORAM bandwidth utilisation and cycle breakdown",
        &[
            "workload",
            "BW util",
            "sync frac",
            "data share",
            "pos1 share",
            "pos2 share",
            "row hit",
            "queue occ",
        ],
    );
    for r in rows {
        t.row(&[
            r.workload.to_string(),
            percent(r.bandwidth_utilization),
            percent(r.sync_fraction),
            percent(r.sync_share_by_level[SubOram::Data.index()]),
            percent(r.sync_share_by_level[SubOram::Pos1.index()]),
            percent(r.sync_share_by_level[SubOram::Pos2.index()]),
            percent(r.row_hit_rate),
            format!("{:.1}", r.avg_queue_occupancy),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn ring_baseline_underutilises_bandwidth() {
        let mut cfg = super::super::smoke_config();
        cfg.measured_requests = 25;
        let rows = run(&cfg, &SerialExecutor).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.bandwidth_utilization < 0.55,
                "{}: util {}",
                row.workload,
                row.bandwidth_utilization
            );
            assert!(
                row.sync_fraction > 0.1,
                "{}: sync {}",
                row.workload,
                row.sync_fraction
            );
        }
        let t = table(&rows);
        assert_eq!(t.len(), 5);
    }
}
