//! Per-tenant QoS runner: who stalls whom inside a multi-tenant mix.
//!
//! [`super::tenant_mix`] compares *schemes* on a mix by aggregate
//! throughput; this runner answers the orthogonal multi-tenant deployment
//! question — what each co-located tenant experiences: per-tenant
//! completion counts, mean/p50/p95/p99 response latency and the tenant's
//! share of DRAM demand, per scheme. Works for any [`WorkloadSpec`]
//! (single-tenant specs produce one row per scheme); the interesting inputs
//! are mixes and phased mixes, e.g. [`phased_service_mix`]'s
//! arrival/departure scenario.

use crate::experiment::{Executor, Experiment, ResultSet};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{percent, Table};
use palermo_oram::error::{OramError, OramResult};
use palermo_workloads::{PhaseWindow, PhasedMixSpec, Workload, WorkloadSpec};

/// One row of the per-tenant QoS comparison (one tenant under one scheme).
#[derive(Debug, Clone)]
pub struct TenantQosRow {
    /// The scheme.
    pub scheme: Scheme,
    /// Tenant index within the spec.
    pub tenant: u32,
    /// Canonical name of the tenant's child workload.
    pub workload: String,
    /// Real requests submitted while the measured window was open.
    pub submitted: u64,
    /// Real requests completed inside the measured window.
    pub completed: u64,
    /// Mean response latency in cycles.
    pub mean_latency: f64,
    /// Median latency estimate in cycles.
    pub p50_latency: u64,
    /// 95th-percentile latency estimate in cycles.
    pub p95_latency: u64,
    /// 99th-percentile tail latency estimate in cycles.
    pub p99_latency: u64,
    /// The tenant's share of tenant-attributed DRAM bursts.
    pub dram_share: f64,
}

/// The canonical tenant arrival/departure scenario used by the example and
/// CI: a hot redis tier (weight 2) that never leaves, an llm tenant that
/// arrives a quarter of the way into the access budget, and a streaming
/// tenant that departs three quarters in. `budget` is the total access
/// budget the windows are sized against (pass roughly the number of
/// accesses the run will consume; the shape survives overshoot because
/// redis covers the tail).
pub fn phased_service_mix(budget: u64) -> WorkloadSpec {
    let budget = budget.max(4);
    WorkloadSpec::PhasedMix(
        PhasedMixSpec::new()
            .tenant(Workload::Redis.into(), 2, PhaseWindow::ALWAYS)
            .tenant(Workload::Llm.into(), 1, PhaseWindow::from_start(budget / 4))
            .tenant(
                Workload::Streaming.into(),
                1,
                PhaseWindow::until(budget * 3 / 4),
            ),
    )
}

/// Runs the comparison on the given executor, returning one row per
/// (scheme, tenant) in scheme-major order.
///
/// # Errors
///
/// Propagates configuration and workload-spec build errors, and rejects a
/// configuration with per-tenant attribution disabled (there would be
/// nothing to report).
pub fn run(
    config: &SystemConfig,
    spec: &WorkloadSpec,
    schemes: &[Scheme],
    executor: &dyn Executor,
) -> OramResult<Vec<TenantQosRow>> {
    if !config.collect_per_tenant {
        return Err(OramError::InvalidParams {
            reason: "tenant_qos needs collect_per_tenant enabled".into(),
        });
    }
    let results = Experiment::new(config.clone())
        .schemes(schemes.iter().copied())
        .workload_specs([spec.clone()])
        .run(executor)?;
    Ok(rows(&results, spec, schemes))
}

/// Maps already-executed results into QoS rows, one per (scheme, tenant)
/// in scheme-major order — use this instead of [`run`] when the grid
/// has been run elsewhere (the rows are derived from the records, so no
/// simulation is repeated). Schemes missing from the set are skipped.
pub fn rows(results: &ResultSet, spec: &WorkloadSpec, schemes: &[Scheme]) -> Vec<TenantQosRow> {
    let mut rows = Vec::new();
    for &scheme in schemes {
        let Some(record) = results.get_spec(scheme, spec) else {
            continue;
        };
        debug_assert!(record.metrics.tenant_conservation_ok());
        // Reuse the export mapping so the figure table and the CSV/JSON
        // exports can never disagree on a field's meaning.
        for s in record.tenant_summaries() {
            rows.push(TenantQosRow {
                scheme,
                tenant: s.tenant,
                workload: s.tenant_workload,
                submitted: s.submitted,
                completed: s.completed,
                mean_latency: s.mean_latency,
                p50_latency: s.p50_latency,
                p95_latency: s.p95_latency,
                p99_latency: s.p99_latency,
                dram_share: s.dram_share,
            });
        }
    }
    rows
}

/// Renders the rows as a text table titled with the spec name.
pub fn table(spec: &WorkloadSpec, rows: &[TenantQosRow]) -> Table {
    let mut t = Table::new(
        format!("Per-tenant QoS — {spec}"),
        &[
            "scheme",
            "tenant",
            "workload",
            "subm",
            "compl",
            "mean",
            "p50",
            "p95",
            "p99",
            "DRAM share",
        ],
    );
    for r in rows {
        t.row(&[
            r.scheme.to_string(),
            r.tenant.to_string(),
            r.workload.clone(),
            r.submitted.to_string(),
            r.completed.to_string(),
            format!("{:.0}", r.mean_latency),
            r.p50_latency.to_string(),
            r.p95_latency.to_string(),
            r.p99_latency.to_string(),
            percent(r.dram_share),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;

    #[test]
    fn qos_rows_cover_the_scheme_by_tenant_grid() {
        let cfg = super::super::smoke_config();
        let spec = phased_service_mix(4000);
        let schemes = [Scheme::RingOram, Scheme::Palermo];
        let rows = run(&cfg, &spec, &schemes, &SerialExecutor).unwrap();
        assert_eq!(rows.len(), schemes.len() * spec.tenant_count());
        for r in &rows {
            assert!(r.p50_latency <= r.p95_latency && r.p95_latency <= r.p99_latency);
            assert!((0.0..=1.0).contains(&r.dram_share));
        }
        // The always-on redis tenant serves work under every scheme.
        for &scheme in &schemes {
            let redis = rows
                .iter()
                .find(|r| r.scheme == scheme && r.tenant == 0)
                .unwrap();
            assert_eq!(redis.workload, "redis");
            assert!(redis.completed > 0, "{scheme} starved the always-on tenant");
        }
        assert_eq!(table(&spec, &rows).len(), rows.len());
    }

    #[test]
    fn disabled_attribution_is_rejected() {
        let mut cfg = super::super::smoke_config();
        cfg.collect_per_tenant = false;
        let err = run(
            &cfg,
            &phased_service_mix(1000),
            &[Scheme::Palermo],
            &SerialExecutor,
        )
        .unwrap_err();
        assert!(err.to_string().contains("collect_per_tenant"), "{err}");
    }
}
