//! Throughput-vs-shard-count scaling curves for the sharded scale-out.
//!
//! The paper evaluates one ORAM controller; this runner asks the scale-out
//! question: partition the protected space across K independent controllers
//! (`shard:<K>:hash:<inner>`) and trace how aggregate throughput (workload
//! accesses per makespan cycle) grows with K, under RingORAM vs Palermo.
//! Because each shard keeps its own position map, stash and DRAM channels,
//! the modelled hardware scales close to linearly until the per-shard
//! request budget gets too small to amortise warm-up.
//!
//! Every point runs through [`crate::shard::ShardedSystem`] with an
//! explicit [`crate::shard::ShardStepper`], so the same grid can be driven
//! serially or on a [`crate::shard::PooledShardStepper`] pool — byte-identical
//! results either way, which `examples/shard_scaling.rs` re-checks under
//! `PALERMO_SERIAL_CHECK=1`.

use crate::runner::CalendarStepper;
use crate::schemes::Scheme;
use crate::shard::{ShardStepper, ShardedSystem};
use crate::system::SystemConfig;
use palermo_analysis::report::Table;
use palermo_oram::error::{OramError, OramResult};
use palermo_workloads::{ShardRouterKind, ShardSpec, WorkloadSpec};

/// One point of the scaling curve: one scheme at one shard count.
#[derive(Debug, Clone)]
pub struct ShardScalingRow {
    /// The scheme every shard runs.
    pub scheme: Scheme,
    /// Number of shards.
    pub shards: u32,
    /// Real ORAM requests completed across all shards.
    pub oram_requests: u64,
    /// Makespan cycles (the slowest shard's measured window).
    pub cycles: u64,
    /// Aggregate workload accesses per makespan cycle — the throughput
    /// measure the speedups are computed from.
    pub accesses_per_cycle: f64,
    /// Mean ORAM response latency in cycles across all shards.
    pub mean_latency: f64,
    /// Throughput relative to the same scheme's 1-shard point (1.0 when
    /// K = 1 or when the 1-shard point is missing from the grid).
    pub speedup_over_one_shard: f64,
}

/// Runs the grid with an explicit shard-scheduling strategy, returning one
/// row per (scheme, shard count) in scheme-major order with shard counts
/// in sweep order.
///
/// # Errors
///
/// Rejects an empty shard-count grid, a shard count of 0, and an `inner`
/// spec that is already sharded or open-loop (the sweep builds the
/// `shard:` wrapper itself); propagates build errors from each point.
pub fn run(
    config: &SystemConfig,
    inner: &WorkloadSpec,
    shard_counts: &[u32],
    schemes: &[Scheme],
    shard_stepper: &dyn ShardStepper,
) -> OramResult<Vec<ShardScalingRow>> {
    if shard_counts.is_empty() {
        return Err(OramError::InvalidParams {
            reason: "shard_scaling needs at least one shard count".into(),
        });
    }
    if inner.sharded().is_some() || inner.open_loop().is_some() {
        return Err(OramError::InvalidParams {
            reason: "shard_scaling builds the shard: wrapper itself; pass the inner \
                     (closed-loop, unsharded) workload spec"
                .into(),
        });
    }
    let mut out = Vec::new();
    for &scheme in schemes {
        let mut one_shard_rate: Option<f64> = None;
        for &shards in shard_counts {
            let spec =
                WorkloadSpec::Sharded(ShardSpec::new(shards, ShardRouterKind::Hash, inner.clone()));
            spec.validate()?;
            let system = ShardedSystem::new(scheme, &spec, config)?;
            let metrics = shard_stepper.run(&system, &CalendarStepper)?;
            debug_assert!(metrics.shard_conservation_ok());
            let rate = metrics.accesses_per_cycle();
            if shards == 1 {
                one_shard_rate = Some(rate);
            }
            out.push(ShardScalingRow {
                scheme,
                shards,
                oram_requests: metrics.oram_requests,
                cycles: metrics.cycles,
                accesses_per_cycle: rate,
                mean_latency: metrics.mean_latency(),
                speedup_over_one_shard: one_shard_rate
                    .map_or(1.0, |base| rate / base.max(f64::MIN_POSITIVE)),
            });
        }
    }
    Ok(out)
}

/// Renders the rows as a text table titled with the inner workload name.
pub fn table(inner: &WorkloadSpec, rows: &[ShardScalingRow]) -> Table {
    let mut t = Table::new(
        format!("Throughput vs shard count — {inner}"),
        &[
            "scheme",
            "shards",
            "requests",
            "cycles",
            "acc/cyc",
            "mean lat",
            "speedup vs K=1",
        ],
    );
    for r in rows {
        t.row(&[
            r.scheme.to_string(),
            r.shards.to_string(),
            r.oram_requests.to_string(),
            r.cycles.to_string(),
            format!("{:.6}", r.accesses_per_cycle),
            format!("{:.0}", r.mean_latency),
            format!("{:.2}x", r.speedup_over_one_shard),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{PooledShardStepper, SerialShardStepper};
    use palermo_workloads::Workload;

    #[test]
    fn curve_covers_the_grid_and_normalises_against_one_shard() {
        let cfg = super::super::smoke_config();
        let inner = WorkloadSpec::Table2(Workload::Random);
        let schemes = [Scheme::RingOram, Scheme::Palermo];
        let counts = [1, 2];
        let rows = run(&cfg, &inner, &counts, &schemes, &SerialShardStepper).unwrap();
        assert_eq!(rows.len(), schemes.len() * counts.len());
        for &scheme in &schemes {
            let per: Vec<&ShardScalingRow> = rows.iter().filter(|r| r.scheme == scheme).collect();
            assert!((per[0].speedup_over_one_shard - 1.0).abs() < 1e-12);
            assert!(per.iter().all(|r| r.cycles > 0 && r.oram_requests > 0));
        }
        assert_eq!(table(&inner, &rows).len(), rows.len());
    }

    #[test]
    fn pooled_grid_matches_the_serial_grid() {
        let cfg = super::super::smoke_config();
        let inner = WorkloadSpec::Table2(Workload::Mcf);
        let schemes = [Scheme::Palermo];
        let counts = [2];
        let serial = run(&cfg, &inner, &counts, &schemes, &SerialShardStepper).unwrap();
        let pooled = run(&cfg, &inner, &counts, &schemes, &PooledShardStepper::new(2)).unwrap();
        assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(&pooled) {
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.oram_requests, p.oram_requests);
            assert_eq!(s.accesses_per_cycle, p.accesses_per_cycle);
        }
    }

    #[test]
    fn malformed_grids_are_rejected() {
        let cfg = super::super::smoke_config();
        let inner = WorkloadSpec::Table2(Workload::Random);
        let err = run(&cfg, &inner, &[], &[Scheme::Palermo], &SerialShardStepper).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        let sharded = WorkloadSpec::from_name("shard:2:hash:random").unwrap();
        let err = run(
            &cfg,
            &sharded,
            &[2],
            &[Scheme::Palermo],
            &SerialShardStepper,
        )
        .unwrap_err();
        assert!(err.to_string().contains("inner"), "{err}");
        let open = WorkloadSpec::from_name("open:poisson:0.1:random").unwrap();
        let err = run(&cfg, &open, &[2], &[Scheme::Palermo], &SerialShardStepper).unwrap_err();
        assert!(err.to_string().contains("inner"), "{err}");
    }
}
