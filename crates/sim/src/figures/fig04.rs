//! Fig. 4: prefetch-based baselines on the synthetic streaming workload.
//!
//! PrORAM and LAORAM (PrORAM with the fat tree) are swept over prefetch
//! lengths on `stm`. The paper's point: despite perfect spatial locality,
//! the forced same-leaf mapping inflates the dummy-request ratio and caps
//! the achievable speedup (≈3.2× for LAORAM at pf=4).

use crate::experiment::{CustomProtocol, Executor, Experiment, RunSpec};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{percent, speedup, Table};
use palermo_oram::baselines;
use palermo_oram::error::OramResult;
use palermo_workloads::Workload;

/// One configuration point of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig04Row {
    /// Prefetch length (1 = no prefetch).
    pub prefetch_length: u32,
    /// `true` for LAORAM (PrORAM with the fat tree).
    pub fat_tree: bool,
    /// Speedup over the no-prefetch PrORAM configuration.
    pub speedup: f64,
    /// Fraction of ORAM requests that were dummy background evictions.
    pub dummy_ratio: f64,
    /// Data-stash high-water mark.
    pub stash_high_water: usize,
}

fn point_label(prefetch_length: u32, fat_tree: bool) -> String {
    let variant = if fat_tree { "fat" } else { "slim" };
    format!("{variant}/pf={prefetch_length}")
}

fn point_spec(config: &SystemConfig, prefetch_length: u32, fat_tree: bool) -> OramResult<RunSpec> {
    let params = config.hierarchy_params()?;
    // The Fig. 4 experiment models PrORAM with a 1024-entry stash.
    let stash = 1024;
    let hierarchy = baselines::pr_oram(
        params,
        config.seed,
        prefetch_length,
        fat_tree,
        stash,
        stash * 3 / 4,
    )?;
    Ok(
        RunSpec::new(Scheme::PrOram, Workload::Streaming, config.clone())
            .with_custom(CustomProtocol {
                hierarchy,
                controller: Scheme::PrOram.controller_config(config.pe_columns),
                prefetch_length,
            })
            .with_label(point_label(prefetch_length, fat_tree)),
    )
}

/// Runs the Fig. 4 sweep over the given prefetch lengths on the given
/// executor. All configuration points (both tree shapes, every length,
/// plus the no-prefetch normalisation baseline) run independently.
///
/// # Errors
///
/// Propagates configuration errors from the protocol layer.
pub fn run(
    config: &SystemConfig,
    prefetch_lengths: &[u32],
    executor: &dyn Executor,
) -> OramResult<Vec<Fig04Row>> {
    // The normalisation baseline is the slim-tree pf=1 point; when that
    // point is already part of the sweep, reuse it instead of simulating
    // the identical configuration twice.
    let mut experiment = Experiment::new(config.clone());
    let baseline_label = if prefetch_lengths.contains(&1) {
        point_label(1, false)
    } else {
        experiment = experiment.spec(point_spec(config, 1, false)?.with_label("baseline"));
        "baseline".to_string()
    };
    for &fat_tree in &[false, true] {
        for &pf in prefetch_lengths {
            experiment = experiment.spec(point_spec(config, pf, fat_tree)?);
        }
    }
    let results = experiment.run(executor)?;
    let baseline_perf = super::labelled(&results, &baseline_label)?
        .accesses_per_cycle()
        .max(f64::MIN_POSITIVE);
    let mut rows = Vec::new();
    for &fat_tree in &[false, true] {
        for &pf in prefetch_lengths {
            let m = super::labelled(&results, &point_label(pf, fat_tree))?;
            rows.push(Fig04Row {
                prefetch_length: pf,
                fat_tree,
                speedup: m.accesses_per_cycle() / baseline_perf,
                dummy_ratio: m.dummy_fraction(),
                stash_high_water: m.stash_high_water,
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as a text table.
pub fn table(rows: &[Fig04Row]) -> Table {
    let mut t = Table::new(
        "Fig. 4 — PrORAM / LAORAM prefetch sweep on stm",
        &["variant", "pf", "speedup", "dummy ratio", "stash max"],
    );
    for r in rows {
        t.row(&[
            if r.fat_tree {
                "PrORAM w/ Fat Tree"
            } else {
                "PrORAM"
            }
            .to_string(),
            format!("{}", r.prefetch_length),
            speedup(r.speedup),
            percent(r.dummy_ratio),
            format!("{}", r.stash_high_water),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn grouping_increases_stash_pressure_and_dummy_ratio() {
        let mut cfg = super::super::smoke_config();
        cfg.measured_requests = 60;
        cfg.warmup_requests = 10;
        let rows = run(&cfg, &[1, 8], &SerialExecutor).unwrap();
        assert_eq!(rows.len(), 4);
        let slim_pf1 = &rows[0];
        let slim_pf8 = &rows[1];
        assert!(
            slim_pf8.stash_high_water >= slim_pf1.stash_high_water,
            "pf=8 stash {} < pf=1 stash {}",
            slim_pf8.stash_high_water,
            slim_pf1.stash_high_water
        );
        // Fat tree should not have a larger dummy ratio than the slim tree
        // at the same prefetch length.
        let fat_pf8 = &rows[3];
        assert!(fat_pf8.dummy_ratio <= slim_pf8.dummy_ratio + 1e-9);
        let t = table(&rows);
        assert_eq!(t.len(), 4);
    }
}
