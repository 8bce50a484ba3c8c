//! Fig. 13: Palermo performance sensitivity to the prefetch length.
//!
//! Palermo's block-widening prefetch converts each data-tree block access
//! into `pf` consecutive DRAM bursts. Performance changes only moderately
//! with `pf` for the moderate-locality workloads and never drops below
//! PathORAM — unlike PrORAM, the scheme is not critically dependent on
//! choosing the best length.

use crate::experiment::{Executor, Experiment, RunSpec};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{speedup, Table};
use palermo_oram::error::OramResult;
use palermo_workloads::Workload;

/// Speedup of Palermo at several prefetch lengths, relative to PathORAM.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// The workload.
    pub workload: Workload,
    /// `(prefetch length, speedup over PathORAM)` points; length 1 is the
    /// no-prefetch Palermo configuration.
    pub points: Vec<(u32, f64)>,
}

/// Runs the Fig. 13 sweep on the given executor. Every (workload, length)
/// point — and each workload's PathORAM baseline — is an independent run.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run(
    config: &SystemConfig,
    prefetch_lengths: &[u32],
    executor: &dyn Executor,
) -> OramResult<Vec<Fig13Row>> {
    let mut experiment = Experiment::new(config.clone());
    for &workload in &super::DEEP_DIVE_WORKLOADS {
        experiment = experiment.spec(
            RunSpec::new(Scheme::PathOram, workload, config.clone())
                .with_label(format!("base/{workload}")),
        );
        for &pf in prefetch_lengths {
            let mut cfg = config.clone();
            cfg.prefetch_override = Some(pf);
            // Length 1 is the no-prefetch Palermo configuration.
            let scheme = if pf <= 1 {
                Scheme::Palermo
            } else {
                Scheme::PalermoPrefetch
            };
            experiment = experiment.spec(
                RunSpec::new(scheme, workload, cfg).with_label(format!("{workload}/pf={pf}")),
            );
        }
    }
    let results = experiment.run(executor)?;
    super::DEEP_DIVE_WORKLOADS
        .into_iter()
        .map(|workload| {
            let baseline_perf = super::labelled(&results, &format!("base/{workload}"))?
                .accesses_per_cycle()
                .max(f64::MIN_POSITIVE);
            let points = prefetch_lengths
                .iter()
                .map(|&pf| {
                    let m = super::labelled(&results, &format!("{workload}/pf={pf}"))?;
                    Ok((pf, m.accesses_per_cycle() / baseline_perf))
                })
                .collect::<OramResult<_>>()?;
            Ok(Fig13Row { workload, points })
        })
        .collect()
}

/// Renders the rows as a text table.
pub fn table(rows: &[Fig13Row]) -> Table {
    let mut header = vec!["workload".to_string()];
    if let Some(first) = rows.first() {
        header.extend(first.points.iter().map(|(pf, _)| format!("pf={pf}")));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig. 13 — Palermo prefetch-length sensitivity",
        &header_refs,
    );
    for r in rows {
        let mut cells = vec![r.workload.to_string()];
        cells.extend(r.points.iter().map(|&(_, s)| speedup(s)));
        t.row(&cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn palermo_stays_ahead_of_pathoram_across_lengths() {
        let cfg = super::super::smoke_config();
        let rows = run(&cfg, &[1, 4], &SerialExecutor).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.points.len(), 2);
            for &(pf, s) in &r.points {
                assert!(s > 0.9, "{} pf={pf}: speedup {s}", r.workload);
            }
        }
        assert_eq!(table(&rows).len(), 4);
    }
}
