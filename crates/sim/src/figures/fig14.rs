//! Fig. 14: sensitivity to the protocol parameter Z (a) and to the number
//! of PE columns (b), both measured on the `rand` workload.
//!
//! Larger (Z, S, A) create fewer write barriers between concurrent
//! requests, and more PE columns remove structural hazards until the memory
//! bandwidth saturates (the paper sees ≈2.2× from 3×1 to 3×8).

use crate::experiment::{Executor, Experiment};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::Table;
use palermo_oram::error::OramResult;
use palermo_workloads::Workload;

/// One point of the Fig. 14a Z sweep.
#[derive(Debug, Clone, Copy)]
pub struct ZSweepPoint {
    /// Real blocks per bucket.
    pub z: u16,
    /// Dummy slots per bucket (scaled with Z following the RingORAM table).
    pub s: u16,
    /// Eviction period (scaled with Z following the RingORAM table).
    pub a: u32,
    /// Measured ORAM request throughput (requests per kilo-cycle).
    pub throughput: f64,
    /// Speedup relative to the smallest-Z configuration.
    pub speedup_vs_smallest: f64,
}

/// One point of the Fig. 14b PE sweep.
#[derive(Debug, Clone, Copy)]
pub struct PeSweepPoint {
    /// PE columns.
    pub columns: usize,
    /// Measured ORAM request throughput (requests per kilo-cycle).
    pub throughput: f64,
    /// Speedup relative to a single column.
    pub speedup_vs_one: f64,
}

/// The valid (Z, S, A) combinations used by the sweep, following the
/// RingORAM parameter table cited by the paper.
pub fn zsa_for(z: u16) -> (u16, u32) {
    match z {
        4 => (5, 3),
        8 => (12, 8),
        16 => (27, 20),
        32 => (56, 46),
        _ => (z + z / 2, u32::from(z)),
    }
}

/// Runs the Fig. 14a Z sweep on the given executor.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run_z_sweep(
    config: &SystemConfig,
    zs: &[u16],
    executor: &dyn Executor,
) -> OramResult<Vec<ZSweepPoint>> {
    let mut experiment = Experiment::new(config.clone())
        .schemes([Scheme::Palermo])
        .workloads([Workload::Random]);
    for &z in zs {
        let (s, a) = zsa_for(z);
        experiment = experiment.sweep_config(format!("Z={z}"), move |cfg| {
            cfg.z = z;
            cfg.s = s;
            cfg.a = a;
        });
    }
    let results = experiment.run(executor)?;
    // One record per variant, in sweep order (the grid is 1 scheme x
    // 1 workload, and config variants are the outermost grid dimension).
    debug_assert_eq!(results.len(), zs.len());
    let mut points: Vec<ZSweepPoint> = zs
        .iter()
        .zip(results.iter())
        .map(|(&z, record)| {
            let (s, a) = zsa_for(z);
            ZSweepPoint {
                z,
                s,
                a,
                throughput: record.metrics.requests_per_cycle() * 1000.0,
                speedup_vs_smallest: 0.0,
            }
        })
        .collect();
    let base = points
        .first()
        .map(|p| p.throughput)
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);
    for p in &mut points {
        p.speedup_vs_smallest = p.throughput / base;
    }
    Ok(points)
}

/// Runs the Fig. 14b PE-column sweep on the given executor.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer, including the
/// one for a 0 in `columns`: a mesh needs at least one column.
pub fn run_pe_sweep(
    config: &SystemConfig,
    columns: &[usize],
    executor: &dyn Executor,
) -> OramResult<Vec<PeSweepPoint>> {
    let mut experiment = Experiment::new(config.clone())
        .schemes([Scheme::Palermo])
        .workloads([Workload::Random]);
    for &c in columns {
        experiment = experiment.sweep_config(format!("pe={c}"), move |cfg| {
            cfg.pe_columns = c;
        });
    }
    let results = experiment.run(executor)?;
    debug_assert_eq!(results.len(), columns.len());
    let mut points: Vec<PeSweepPoint> = columns
        .iter()
        .zip(results.iter())
        .map(|(&c, record)| PeSweepPoint {
            columns: c,
            throughput: record.metrics.requests_per_cycle() * 1000.0,
            speedup_vs_one: 0.0,
        })
        .collect();
    let base = points
        .first()
        .map(|p| p.throughput)
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);
    for p in &mut points {
        p.speedup_vs_one = p.throughput / base;
    }
    Ok(points)
}

/// Renders both sweeps as text tables.
pub fn tables(z_points: &[ZSweepPoint], pe_points: &[PeSweepPoint]) -> (Table, Table) {
    let mut zt = Table::new(
        "Fig. 14a — Palermo sensitivity to Z",
        &[
            "Z",
            "S",
            "A",
            "throughput (req/kcyc)",
            "speedup vs smallest",
        ],
    );
    for p in z_points {
        zt.row(&[
            p.z.to_string(),
            p.s.to_string(),
            p.a.to_string(),
            format!("{:.3}", p.throughput),
            format!("{:.2}x", p.speedup_vs_smallest),
        ]);
    }
    let mut pt = Table::new(
        "Fig. 14b — Palermo sensitivity to PE columns",
        &["columns", "throughput (req/kcyc)", "speedup vs 1"],
    );
    for p in pe_points {
        pt.row(&[
            p.columns.to_string(),
            format!("{:.3}", p.throughput),
            format!("{:.2}x", p.speedup_vs_one),
        ]);
    }
    (zt, pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn more_pe_columns_do_not_hurt() {
        let cfg = super::super::smoke_config();
        let points = run_pe_sweep(&cfg, &[1, 8], &SerialExecutor).unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[1].speedup_vs_one > 1.0,
            "8 columns should beat 1: {}",
            points[1].speedup_vs_one
        );
    }

    #[test]
    fn z_sweep_produces_points_for_valid_configs() {
        let cfg = super::super::smoke_config();
        let points = run_z_sweep(&cfg, &[4, 8], &SerialExecutor).unwrap();
        assert_eq!(points.len(), 2);
        assert!((points[0].speedup_vs_smallest - 1.0).abs() < 1e-9);
        assert!(points.iter().all(|p| p.throughput > 0.0));
        let (zt, pt) = tables(&points, &run_pe_sweep(&cfg, &[1], &SerialExecutor).unwrap());
        assert_eq!(zt.len(), 2);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn zsa_table_matches_ring_oram_configurations() {
        assert_eq!(zsa_for(4), (5, 3));
        assert_eq!(zsa_for(16), (27, 20));
        assert_eq!(zsa_for(32), (56, 46));
        let (s, a) = zsa_for(10);
        assert!(s > 10 && a == 10);
    }
}
