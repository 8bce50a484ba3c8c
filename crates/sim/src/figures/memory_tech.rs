//! Memory-technology comparison: the same workload mix across hardware
//! profiles, with energy next to latency.
//!
//! The Palermo evaluation fixes the memory part (Table III DDR4-3200);
//! this runner asks the deployment question the hardware-profile layer
//! exists for — how the scheme behaves when the *memory technology*
//! changes. One [`Experiment::sweep_hardware`] grid traces every (scheme,
//! profile) cell of the same workload mix and reports latency, achieved
//! bandwidth and energy per access side by side, plus the per-tenant
//! split (p99 next to the tenant's energy bill). All values derive from
//! the integer determinism-contract counters, so rows are byte-identical
//! across both executors and both steppers.

use crate::experiment::{Executor, Experiment, ResultSet};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{percent, Table};
use palermo_dram::HardwareProfile;
use palermo_oram::error::{OramError, OramResult};
use palermo_workloads::WorkloadSpec;

/// One row of the aggregate comparison (one scheme on one profile).
#[derive(Debug, Clone)]
pub struct MemoryTechRow {
    /// Name of the hardware profile.
    pub hardware: String,
    /// The scheme.
    pub scheme: Scheme,
    /// Mean ORAM response latency in cycles.
    pub mean_latency: f64,
    /// 99th-percentile response latency in cycles.
    pub p99_latency: u64,
    /// Achieved DRAM data bandwidth in GB/s over the measured window.
    pub achieved_gbps: f64,
    /// DRAM data-bus utilisation over the measured window.
    pub bandwidth_utilization: f64,
    /// Total memory energy of the measured window, joules.
    pub energy_j: f64,
    /// Memory energy per DRAM access (64-byte burst), joules.
    pub energy_per_access_j: f64,
}

/// One row of the per-tenant split (one tenant, one scheme, one profile).
#[derive(Debug, Clone)]
pub struct MemoryTechTenantRow {
    /// Name of the hardware profile.
    pub hardware: String,
    /// The scheme.
    pub scheme: Scheme,
    /// Tenant index within the spec.
    pub tenant: u32,
    /// Canonical name of the tenant's child workload.
    pub workload: String,
    /// Real requests completed inside the measured window.
    pub completed: u64,
    /// 99th-percentile tail latency estimate in cycles.
    pub p99_latency: u64,
    /// The tenant's share of tenant-attributed DRAM bursts.
    pub dram_share: f64,
    /// The tenant's share of the window's memory energy, joules.
    pub energy_j: f64,
}

/// Runs the scheme x profile grid on the given executor and returns the
/// raw result set (derive the tables with [`rows`] and [`tenant_rows`]).
///
/// # Errors
///
/// Propagates configuration and workload-spec build errors, rejects an
/// empty profile list, and rejects a configuration with per-tenant
/// attribution disabled (the per-tenant energy split needs it).
pub fn run(
    config: &SystemConfig,
    spec: &WorkloadSpec,
    schemes: &[Scheme],
    profiles: &[HardwareProfile],
    executor: &dyn Executor,
) -> OramResult<ResultSet> {
    if profiles.is_empty() {
        return Err(OramError::InvalidParams {
            reason: "memory_tech needs at least one hardware profile".into(),
        });
    }
    if !config.collect_per_tenant {
        return Err(OramError::InvalidParams {
            reason: "memory_tech needs collect_per_tenant enabled".into(),
        });
    }
    Experiment::new(config.clone())
        .schemes(schemes.iter().copied())
        .workload_specs([spec.clone()])
        .sweep_hardware(profiles)
        .run(executor)
}

/// Maps already-executed results into aggregate rows, profile-major in
/// the given profile order, schemes in the given scheme order within each
/// profile. Cells missing from the set are skipped.
pub fn rows(
    results: &ResultSet,
    schemes: &[Scheme],
    profiles: &[HardwareProfile],
) -> Vec<MemoryTechRow> {
    let mut out = Vec::new();
    for profile in profiles {
        for &scheme in schemes {
            let Some(record) = results
                .iter()
                .find(|r| r.scheme == scheme && r.metrics.hardware == profile.name)
            else {
                continue;
            };
            let m = &record.metrics;
            // Reuse the export mapping so the figure table and the
            // CSV/JSON exports can never disagree on a field's meaning.
            let summary = record.summary();
            out.push(MemoryTechRow {
                hardware: summary.hardware,
                scheme,
                mean_latency: summary.mean_latency,
                p99_latency: {
                    let mut sorted = m.latencies.clone();
                    sorted.sort_unstable();
                    let idx = (sorted.len().saturating_sub(1)) * 99 / 100;
                    sorted.get(idx).copied().unwrap_or(0)
                },
                achieved_gbps: m.dram.achieved_gbps(&m.dram_config),
                bandwidth_utilization: summary.bandwidth_utilization,
                energy_j: summary.energy_j,
                energy_per_access_j: m.energy_per_access_j(),
            });
        }
    }
    out
}

/// Maps already-executed results into per-tenant rows, profile-major,
/// schemes within each profile, tenants in tenant order within each cell.
pub fn tenant_rows(
    results: &ResultSet,
    schemes: &[Scheme],
    profiles: &[HardwareProfile],
) -> Vec<MemoryTechTenantRow> {
    let mut out = Vec::new();
    for profile in profiles {
        for &scheme in schemes {
            let Some(record) = results
                .iter()
                .find(|r| r.scheme == scheme && r.metrics.hardware == profile.name)
            else {
                continue;
            };
            debug_assert!(record.metrics.tenant_conservation_ok());
            for s in record.tenant_summaries() {
                out.push(MemoryTechTenantRow {
                    hardware: profile.name.clone(),
                    scheme,
                    tenant: s.tenant,
                    workload: s.tenant_workload,
                    completed: s.completed,
                    p99_latency: s.p99_latency,
                    dram_share: s.dram_share,
                    energy_j: s.energy_j,
                });
            }
        }
    }
    out
}

/// Renders the aggregate rows as a text table titled with the spec name.
pub fn table(spec: &WorkloadSpec, rows: &[MemoryTechRow]) -> Table {
    let mut t = Table::new(
        format!("Memory technology comparison — {spec}"),
        &[
            "hardware",
            "scheme",
            "mean",
            "p99",
            "GB/s",
            "bus util",
            "energy (mJ)",
            "nJ/access",
        ],
    );
    for r in rows {
        t.row(&[
            r.hardware.clone(),
            r.scheme.to_string(),
            format!("{:.0}", r.mean_latency),
            r.p99_latency.to_string(),
            format!("{:.2}", r.achieved_gbps),
            percent(r.bandwidth_utilization),
            format!("{:.3}", r.energy_j * 1e3),
            format!("{:.1}", r.energy_per_access_j * 1e9),
        ]);
    }
    t
}

/// Renders the per-tenant split as a text table.
pub fn tenant_table(spec: &WorkloadSpec, rows: &[MemoryTechTenantRow]) -> Table {
    let mut t = Table::new(
        format!("Per-tenant energy split — {spec}"),
        &[
            "hardware",
            "scheme",
            "tenant",
            "workload",
            "compl",
            "p99",
            "DRAM share",
            "energy (uJ)",
        ],
    );
    for r in rows {
        t.row(&[
            r.hardware.clone(),
            r.scheme.to_string(),
            r.tenant.to_string(),
            r.workload.clone(),
            r.completed.to_string(),
            r.p99_latency.to_string(),
            percent(r.dram_share),
            format!("{:.1}", r.energy_j * 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;
    use palermo_workloads::{MixSpec, Workload};

    fn mix() -> WorkloadSpec {
        WorkloadSpec::Mix(
            MixSpec::round_robin()
                .tenant(Workload::Redis.into(), 2)
                .tenant(Workload::Llm.into(), 1),
        )
    }

    #[test]
    fn rows_cover_the_profile_by_scheme_grid() {
        let cfg = super::super::smoke_config();
        let spec = mix();
        let schemes = [Scheme::RingOram, Scheme::Palermo];
        let profiles = HardwareProfile::builtins();
        let results = run(&cfg, &spec, &schemes, &profiles, &SerialExecutor).unwrap();
        let rows = rows(&results, &schemes, &profiles);
        assert_eq!(rows.len(), schemes.len() * profiles.len());
        for r in &rows {
            assert!(r.energy_j > 0.0, "{}/{}", r.hardware, r.scheme);
            assert!(r.energy_per_access_j > 0.0);
            assert!(r.achieved_gbps > 0.0);
        }
        // Profile-major order, DDR4 first.
        assert_eq!(rows[0].hardware, "ddr4-3200");
        assert_eq!(rows[0].scheme, Scheme::RingOram);
        assert_eq!(rows[1].scheme, Scheme::Palermo);
        assert_eq!(rows[2].hardware, "ddr5-6400");
        assert_eq!(table(&spec, &rows).len(), rows.len());

        let trows = tenant_rows(&results, &schemes, &profiles);
        assert_eq!(
            trows.len(),
            schemes.len() * profiles.len() * spec.tenant_count()
        );
        // Tenant energies partition each cell's total.
        for r in &rows {
            let cell: f64 = trows
                .iter()
                .filter(|t| t.hardware == r.hardware && t.scheme == r.scheme)
                .map(|t| t.energy_j)
                .sum();
            assert!((cell - r.energy_j).abs() <= r.energy_j * 1e-9);
        }
        assert_eq!(tenant_table(&spec, &trows).len(), trows.len());
    }

    #[test]
    fn empty_profile_list_and_disabled_attribution_are_rejected() {
        let cfg = super::super::smoke_config();
        let err = run(&cfg, &mix(), &[Scheme::Palermo], &[], &SerialExecutor).unwrap_err();
        assert!(err.to_string().contains("profile"), "{err}");
        let mut cfg = super::super::smoke_config();
        cfg.collect_per_tenant = false;
        let err = run(
            &cfg,
            &mix(),
            &[Scheme::Palermo],
            &HardwareProfile::builtins(),
            &SerialExecutor,
        )
        .unwrap_err();
        assert!(err.to_string().contains("collect_per_tenant"), "{err}");
    }
}
