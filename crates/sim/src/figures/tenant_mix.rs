//! Multi-tenant mix runner: scheme comparison on mixed cloud-service
//! traffic.
//!
//! The paper evaluates one workload at a time (Table II / Fig. 10); real
//! ORAM deployments serve *mixes* of co-located tenants. This runner sweeps
//! a set of schemes over one [`WorkloadSpec`] — typically a
//! [`WorkloadSpec::Mix`] built with [`service_mix`] — and reports the
//! end-to-end serving metrics per scheme, normalised to the first scheme in
//! the list (the baseline column of the table).

use crate::experiment::{Executor, Experiment};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{percent, speedup, Table};
use palermo_oram::error::OramResult;
use palermo_workloads::{MixSpec, Workload, WorkloadSpec};

/// One row of the tenant-mix comparison (one scheme on the mix).
#[derive(Debug, Clone)]
pub struct TenantMixRow {
    /// The scheme.
    pub scheme: Scheme,
    /// Workload accesses served per cycle (the end-to-end metric).
    pub accesses_per_cycle: f64,
    /// `accesses_per_cycle` normalised to the first scheme in the sweep.
    pub speedup_over_baseline: f64,
    /// Mean ORAM response latency in cycles.
    pub mean_latency: f64,
    /// DRAM data-bus utilisation.
    pub bandwidth_utilization: f64,
    /// LLC hit rate over the run.
    pub llc_hit_rate: f64,
    /// Fraction of completed requests that were background-eviction
    /// dummies.
    pub dummy_fraction: f64,
}

/// Builds the canonical N-tenant cloud-serving mix used by the example and
/// CI: tenants cycle through redis (weight 2), llm (weight 1) and stream
/// (weight 1) under weighted round-robin — a hot KV tier in front of
/// inference and streaming services.
pub fn service_mix(tenants: usize) -> WorkloadSpec {
    let mut mix = MixSpec::round_robin();
    for i in 0..tenants.max(1) {
        let (workload, weight) = match i % 3 {
            0 => (Workload::Redis, 2),
            1 => (Workload::Llm, 1),
            _ => (Workload::Streaming, 1),
        };
        mix = mix.tenant(workload.into(), weight);
    }
    WorkloadSpec::Mix(mix)
}

/// Runs the comparison on the given executor. The first scheme in
/// `schemes` is the normalisation baseline.
///
/// # Errors
///
/// Propagates configuration and workload-spec build errors.
pub fn run(
    config: &SystemConfig,
    spec: &WorkloadSpec,
    schemes: &[Scheme],
    executor: &dyn Executor,
) -> OramResult<Vec<TenantMixRow>> {
    let results = Experiment::new(config.clone())
        .schemes(schemes.iter().copied())
        .workload_specs([spec.clone()])
        .run(executor)?;
    let baseline = schemes
        .first()
        .and_then(|&s| results.get_spec(s, spec))
        .map_or(f64::MIN_POSITIVE, |r| {
            r.metrics.accesses_per_cycle().max(f64::MIN_POSITIVE)
        });
    Ok(schemes
        .iter()
        .filter_map(|&scheme| results.get_spec(scheme, spec))
        .map(|record| {
            let m = &record.metrics;
            TenantMixRow {
                scheme: record.scheme,
                accesses_per_cycle: m.accesses_per_cycle(),
                speedup_over_baseline: m.accesses_per_cycle() / baseline,
                mean_latency: m.mean_latency(),
                bandwidth_utilization: m.dram.bandwidth_utilization(),
                llc_hit_rate: m.llc_hit_rate,
                dummy_fraction: m.dummy_fraction(),
            }
        })
        .collect())
}

/// Renders the rows as a text table titled with the mix's spec name.
pub fn table(spec: &WorkloadSpec, rows: &[TenantMixRow]) -> Table {
    let mut t = Table::new(
        format!("Tenant mix — {spec}"),
        &[
            "scheme",
            "acc/cycle",
            "speedup",
            "mean lat",
            "BW util",
            "LLC hit",
            "dummy",
        ],
    );
    for r in rows {
        t.row(&[
            r.scheme.to_string(),
            format!("{:.5}", r.accesses_per_cycle),
            speedup(r.speedup_over_baseline),
            format!("{:.0}", r.mean_latency),
            percent(r.bandwidth_utilization),
            percent(r.llc_hit_rate),
            percent(r.dummy_fraction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn palermo_beats_ring_on_the_service_mix() {
        let cfg = super::super::smoke_config();
        let spec = service_mix(4);
        let rows = run(
            &cfg,
            &spec,
            &[Scheme::RingOram, Scheme::Palermo],
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].speedup_over_baseline - 1.0).abs() < 1e-12);
        assert!(
            rows[1].speedup_over_baseline > 1.0,
            "palermo speedup {} on the mix",
            rows[1].speedup_over_baseline
        );
        assert_eq!(table(&spec, &rows).len(), 2);
    }

    #[test]
    fn service_mix_shape_is_stable() {
        let spec = service_mix(8);
        assert_eq!(
            spec.name(),
            "mix:rr:redis*2+llm+stream+redis*2+llm+stream+redis*2+llm"
        );
        let WorkloadSpec::Mix(mix) = &spec else {
            panic!("service_mix must build a mix");
        };
        assert_eq!(mix.tenants.len(), 8);
        assert!(spec.validate().is_ok());
    }
}
