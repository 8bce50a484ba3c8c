//! Fig. 10: end-to-end speedup of every scheme on every workload,
//! normalised to PathORAM — the paper's headline result
//! (geo-mean: RingORAM 1.1×, PageORAM 1.2×, PrORAM 1.7×, IR-ORAM 1.1×,
//! Palermo-SW 1.2×, Palermo 2.4×, Palermo+Prefetch 3.1×).

use crate::experiment::{Executor, Experiment};
use crate::runner::RunMetrics;
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{speedup, Table};
use palermo_analysis::stats::geometric_mean;
use palermo_oram::error::OramResult;
use palermo_workloads::Workload;

/// The full Fig. 10 result matrix.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// The workloads evaluated (row order of the matrix).
    pub workloads: Vec<Workload>,
    /// The schemes evaluated (column order of the matrix).
    pub schemes: Vec<Scheme>,
    /// `speedup[w][s]`: performance of scheme `s` on workload `w`
    /// normalised to PathORAM on the same workload.
    pub speedup: Vec<Vec<f64>>,
    /// Raw per-run metrics, same indexing as `speedup`.
    pub metrics: Vec<Vec<RunMetrics>>,
}

impl Fig10 {
    /// Geometric-mean speedup of one scheme across all workloads.
    pub fn geo_mean(&self, scheme: Scheme) -> f64 {
        let Some(col) = self.schemes.iter().position(|&s| s == scheme) else {
            return 0.0;
        };
        let values: Vec<f64> = self.speedup.iter().map(|row| row[col]).collect();
        geometric_mean(&values)
    }
}

/// Runs the Fig. 10 experiment over the given workloads and schemes on the
/// given executor. The PathORAM normalisation baseline is added to the grid
/// when it is not among `schemes`.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run(
    config: &SystemConfig,
    workloads: &[Workload],
    schemes: &[Scheme],
    executor: &dyn Executor,
) -> OramResult<Fig10> {
    let mut grid_schemes = schemes.to_vec();
    if !grid_schemes.contains(&Scheme::PathOram) {
        grid_schemes.insert(0, Scheme::PathOram);
    }
    let results = Experiment::new(config.clone())
        .schemes(grid_schemes)
        .workloads(workloads.iter().copied())
        .run(executor)?;
    let speedup = results.speedup_matrix(Scheme::PathOram, workloads, schemes);
    // Move each record's metrics into its matrix cell rather than cloning
    // the per-request vectors (records not in `schemes` — the implicitly
    // added baseline — are dropped here).
    let mut cells: Vec<Vec<Option<RunMetrics>>> = workloads
        .iter()
        .map(|_| vec![None; schemes.len()])
        .collect();
    for record in results.into_records() {
        let target = (0..workloads.len())
            .flat_map(|r| (0..schemes.len()).map(move |c| (r, c)))
            .find(|&(r, c)| {
                record.workload.as_table2() == Some(workloads[r])
                    && schemes[c] == record.scheme
                    && cells[r][c].is_none()
            });
        if let Some((r, c)) = target {
            cells[r][c] = Some(record.metrics);
        }
    }
    let metrics = cells
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|m| m.ok_or_else(|| super::missing_run("a Fig. 10 grid cell")))
                .collect()
        })
        .collect::<OramResult<_>>()?;
    Ok(Fig10 {
        workloads: workloads.to_vec(),
        schemes: schemes.to_vec(),
        speedup,
        metrics,
    })
}

/// Renders the speedup matrix (plus the geo-mean row) as a text table.
pub fn table(fig: &Fig10) -> Table {
    let mut header = vec!["workload".to_string()];
    header.extend(fig.schemes.iter().map(Scheme::to_string));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new("Fig. 10 — end-to-end speedup over PathORAM", &header_refs);
    for (w, row) in fig.workloads.iter().zip(&fig.speedup) {
        let mut cells = vec![w.to_string()];
        cells.extend(row.iter().map(|&v| speedup(v)));
        t.row(&cells);
    }
    let mut gm = vec!["geo-mean".to_string()];
    gm.extend(fig.schemes.iter().map(|&s| speedup(fig.geo_mean(s))));
    t.row(&gm);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn palermo_wins_the_comparison_on_random_traffic() {
        let cfg = super::super::smoke_config();
        let fig = run(
            &cfg,
            &[Workload::Random],
            &[Scheme::PathOram, Scheme::RingOram, Scheme::Palermo],
            &SerialExecutor,
        )
        .unwrap();
        let path = fig.speedup[0][0];
        let ring = fig.speedup[0][1];
        let palermo = fig.speedup[0][2];
        assert!((path - 1.0).abs() < 1e-9);
        assert!(palermo > ring, "palermo {palermo} vs ring {ring}");
        assert!(palermo > 1.2, "palermo speedup too small: {palermo}");
        assert!(fig.geo_mean(Scheme::Palermo) > 1.0);
        assert_eq!(table(&fig).len(), 2);
    }
}
