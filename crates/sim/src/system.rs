//! End-to-end system configuration (Table III).

use crate::serving::AdmissionPolicyKind;
use palermo_dram::{DramConfig, EnergyCoefficients, HardwareProfile, ProvisioningOverrides};
use palermo_oram::error::OramResult;
use palermo_oram::params::{HierarchyParams, OramParams};
use palermo_workloads::LlcConfig;

/// Configuration of a full simulated system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Size of the protected user memory space in bytes (Table III: 16 GiB).
    pub protected_bytes: u64,
    /// Working-set hint handed to the workload generators, in bytes.
    pub workload_footprint: u64,
    /// RingORAM/Palermo real slots per bucket.
    pub z: u16,
    /// RingORAM/Palermo dummy slots per bucket.
    pub s: u16,
    /// Eviction period.
    pub a: u32,
    /// Tree levels held in the on-chip tree-top cache.
    pub treetop_levels: u32,
    /// Hardware stash capacity per sub-ORAM, in entries.
    pub stash_capacity: usize,
    /// PE columns in the Palermo mesh (Table III: 8).
    pub pe_columns: usize,
    /// ORAM requests measured after warm-up.
    pub measured_requests: u64,
    /// ORAM requests used to warm up caches, stashes and tree state.
    pub warmup_requests: u64,
    /// Seed for all randomness (leaf selection, workloads).
    pub seed: u64,
    /// LLC geometry.
    pub llc: LlcConfig,
    /// DRAM organisation and timing.
    pub dram: DramConfig,
    /// Name of the hardware profile `dram`/`energy`/`provisioning` came
    /// from ("ddr4-3200" for the hardcoded Table III default). Carried
    /// into `RunMetrics` and the export schema so swept results stay
    /// attributable to their memory part.
    pub hardware: String,
    /// Energy coefficients of the memory part.
    pub energy: EnergyCoefficients,
    /// Controller provisioning overrides the hardware profile carries
    /// (empty for the defaults); applied by `figures::fig15` when
    /// estimating controller area/power.
    pub provisioning: ProvisioningOverrides,
    /// Override the per-workload prefetch length (None = use the workload's
    /// default, mirroring the paper's per-workload sweep).
    pub prefetch_override: Option<u32>,
    /// Whether the runner attributes metrics per tenant
    /// (`RunMetrics::per_tenant`). On by default; the only reason to turn it
    /// off is to measure the attribution's own overhead (see the
    /// `fig03_ring_baseline` bench's tagged-vs-untagged comparison).
    pub collect_per_tenant: bool,
    /// Capacity of the open-loop admission queue (ignored by closed-loop
    /// runs, i.e. any non-`open:` workload spec).
    pub serving_queue_capacity: usize,
    /// What happens to arrivals that find the admission queue full
    /// (ignored by closed-loop runs).
    pub admission_policy: AdmissionPolicyKind,
}

impl SystemConfig {
    /// The paper's Table III configuration, with a request budget sized so a
    /// full Fig. 10 sweep finishes in minutes on a laptop. Increase
    /// `measured_requests` for longer, lower-variance runs.
    pub fn paper_default() -> Self {
        SystemConfig {
            protected_bytes: 16 << 30,
            workload_footprint: 256 << 20,
            z: 16,
            s: 27,
            a: 20,
            treetop_levels: 6,
            stash_capacity: 256,
            pe_columns: 8,
            measured_requests: 600,
            warmup_requests: 150,
            seed: 0x9A1E_0A90,
            llc: LlcConfig::default(),
            dram: DramConfig::ddr4_3200_quad_channel(),
            hardware: "ddr4-3200".to_string(),
            energy: EnergyCoefficients::default(),
            provisioning: ProvisioningOverrides::default(),
            prefetch_override: None,
            collect_per_tenant: true,
            serving_queue_capacity: 64,
            admission_policy: AdmissionPolicyKind::DropTail,
        }
    }

    /// A heavily shrunken configuration for unit and integration tests:
    /// a small protected space (short tree paths) and a handful of requests.
    pub fn small_for_tests() -> Self {
        SystemConfig {
            protected_bytes: 32 << 20,
            workload_footprint: 16 << 20,
            z: 8,
            s: 12,
            a: 8,
            treetop_levels: 3,
            stash_capacity: 256,
            pe_columns: 8,
            measured_requests: 60,
            warmup_requests: 15,
            seed: 7,
            llc: LlcConfig {
                capacity_bytes: 1 << 20,
                ways: 16,
                line_bytes: 64,
            },
            dram: DramConfig::ddr4_3200_quad_channel(),
            hardware: "ddr4-3200".to_string(),
            energy: EnergyCoefficients::default(),
            provisioning: ProvisioningOverrides::default(),
            prefetch_override: None,
            collect_per_tenant: true,
            serving_queue_capacity: 64,
            admission_policy: AdmissionPolicyKind::DropTail,
        }
    }

    /// Applies a hardware profile in place: the DRAM organisation/timing,
    /// the energy coefficients, the profile name, and — when the profile
    /// carries a `pe_columns` override — the mesh width.
    pub fn apply_hardware(&mut self, profile: &HardwareProfile) {
        self.hardware = profile.name.clone();
        self.dram = profile.dram;
        self.energy = profile.energy;
        self.provisioning = profile.provisioning;
        if let Some(columns) = profile.provisioning.pe_columns {
            self.pe_columns = columns as usize;
        }
    }

    /// Builder-style [`SystemConfig::apply_hardware`].
    #[must_use]
    pub fn with_hardware(mut self, profile: &HardwareProfile) -> Self {
        self.apply_hardware(profile);
        self
    }

    /// The footprint hint the runner hands the workload stream built for
    /// this configuration. Exposed so captures
    /// ([`palermo_workloads::capture`]) can record exactly the stream a run
    /// would consume.
    pub fn stream_footprint_hint(&self) -> u64 {
        self.workload_footprint.min(self.protected_bytes)
    }

    /// The seed the runner hands the workload stream built for this
    /// configuration (decorrelated from the protocol-layer seed).
    pub fn stream_seed(&self) -> u64 {
        self.seed ^ 0xF00D
    }

    /// Derives the ORAM hierarchy parameters implied by this configuration.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures (e.g. a zero-sized space).
    pub fn hierarchy_params(&self) -> OramResult<HierarchyParams> {
        let data = OramParams::builder()
            .z(self.z)
            .s(self.s)
            .a(self.a)
            .capacity_bytes(self.protected_bytes)
            .build()?;
        HierarchyParams::derive(data, 4, self.treetop_levels)
    }

    /// Total ORAM requests issued per run (warm-up plus measured).
    pub fn total_requests(&self) -> u64 {
        self.measured_requests + self.warmup_requests
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_iii() {
        let cfg = SystemConfig::paper_default();
        assert_eq!(cfg.protected_bytes, 16 << 30);
        assert_eq!((cfg.z, cfg.s, cfg.a), (16, 27, 20));
        assert_eq!(cfg.pe_columns, 8);
        assert_eq!(cfg.stash_capacity, 256);
        let params = cfg.hierarchy_params().unwrap();
        assert_eq!(params.data.levels, 25);
    }

    #[test]
    fn small_config_builds_quickly() {
        let cfg = SystemConfig::small_for_tests();
        let params = cfg.hierarchy_params().unwrap();
        assert!(params.data.levels < 20);
        assert_eq!(cfg.total_requests(), 75);
    }

    #[test]
    fn default_hardware_is_the_ddr4_profile() {
        let cfg = SystemConfig::paper_default();
        let profile = HardwareProfile::ddr4_3200();
        assert_eq!(cfg.hardware, profile.name);
        assert_eq!(cfg.dram, profile.dram);
        assert_eq!(cfg.energy, profile.energy);
        assert!(cfg.provisioning.is_empty());
        // Applying the DDR4 profile to the default is a no-op.
        assert_eq!(cfg.clone().with_hardware(&profile), cfg);
    }

    #[test]
    fn applying_a_profile_swaps_dram_energy_and_name() {
        let profile = HardwareProfile::hbm2e();
        let cfg = SystemConfig::small_for_tests().with_hardware(&profile);
        assert_eq!(cfg.hardware, "hbm2e");
        assert_eq!(cfg.dram, profile.dram);
        assert_eq!(cfg.energy, profile.energy);
        assert_eq!(cfg.provisioning, profile.provisioning);
        // hbm2e overrides tree-top provisioning but not pe_columns.
        assert_eq!(cfg.pe_columns, SystemConfig::small_for_tests().pe_columns);

        let mut wide = profile.clone();
        wide.provisioning.pe_columns = Some(16);
        assert_eq!(
            SystemConfig::small_for_tests()
                .with_hardware(&wide)
                .pe_columns,
            16
        );
    }
}
