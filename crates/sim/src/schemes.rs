//! The ORAM designs compared in the evaluation (Fig. 10).

use palermo_controller::{ControllerConfig, SchedulePolicy};
use palermo_oram::baselines;
use palermo_oram::error::OramResult;
use palermo_oram::hierarchy::HierarchyConfig;
use palermo_oram::params::HierarchyParams;

/// One of the ORAM designs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// PathORAM (Stefanov et al.) — the normalisation baseline of Fig. 10.
    PathOram,
    /// RingORAM (Ren et al.).
    RingOram,
    /// PageORAM (Rajat et al.).
    PageOram,
    /// PrORAM with the fat-tree refinement, swept for the best prefetch length.
    PrOram,
    /// IR-ORAM (Raoufi et al.).
    IrOram,
    /// The Palermo protocol executed with software-style synchronisation.
    PalermoSw,
    /// The full Palermo protocol-hardware co-design.
    Palermo,
    /// Palermo with block-widening prefetch matched to PrORAM's length.
    PalermoPrefetch,
}

impl Scheme {
    /// All schemes in the order Fig. 10 plots them.
    pub const ALL: [Scheme; 8] = [
        Scheme::PathOram,
        Scheme::RingOram,
        Scheme::PageOram,
        Scheme::PrOram,
        Scheme::IrOram,
        Scheme::PalermoSw,
        Scheme::Palermo,
        Scheme::PalermoPrefetch,
    ];

    /// The label used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::PathOram => "PathORAM",
            Scheme::RingOram => "RingORAM",
            Scheme::PageOram => "PageORAM",
            Scheme::PrOram => "PrORAM",
            Scheme::IrOram => "IR-ORAM",
            Scheme::PalermoSw => "Palermo-SW",
            Scheme::Palermo => "Palermo",
            Scheme::PalermoPrefetch => "Palermo+Prefetch",
        }
    }

    /// Parses a figure-style scheme name (the inverse of [`Scheme::name`]).
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Returns `true` for the schemes that prefetch multiple cache lines per
    /// ORAM access.
    pub fn uses_prefetch(self) -> bool {
        matches!(self, Scheme::PrOram | Scheme::PalermoPrefetch)
    }

    /// The controller model each scheme runs on. Prior designs use the
    /// serial multi-issue controller; Palermo-SW runs the new protocol with
    /// software synchronisation; Palermo uses the PE mesh.
    pub fn controller_config(self, pe_columns: usize) -> ControllerConfig {
        match self {
            Scheme::Palermo | Scheme::PalermoPrefetch => ControllerConfig {
                policy: SchedulePolicy::PalermoMesh,
                pe_columns,
                issue_width: 16,
            },
            Scheme::PalermoSw => ControllerConfig {
                policy: SchedulePolicy::PalermoSoftware,
                pe_columns,
                issue_width: 16,
            },
            _ => ControllerConfig::serial_default(),
        }
    }

    /// Builds the protocol configuration for this scheme.
    ///
    /// `prefetch_length` is the per-workload prefetch length (the paper
    /// sweeps PrORAM for its best length and gives Palermo+Prefetch the same
    /// one); it is ignored by the non-prefetching schemes.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors from the protocol layer.
    pub fn hierarchy_config(
        self,
        params: HierarchyParams,
        seed: u64,
        prefetch_length: u32,
        stash_capacity: usize,
    ) -> OramResult<HierarchyConfig> {
        let mut cfg = match self {
            Scheme::PathOram => baselines::path_oram(params, seed)?,
            Scheme::RingOram => baselines::ring_oram(params, seed)?,
            Scheme::PageOram => baselines::page_oram(params, seed)?,
            Scheme::PrOram => baselines::pr_oram(
                params,
                seed,
                prefetch_length,
                true,
                // PrORAM's evaluation uses a larger (1024-entry) stash with a
                // background-eviction threshold at 3/4 occupancy (§III-B).
                stash_capacity.max(1024),
                stash_capacity.max(1024) * 3 / 4,
            )?,
            Scheme::IrOram => baselines::ir_oram(params, seed)?,
            Scheme::PalermoSw | Scheme::Palermo => baselines::palermo(params, seed)?,
            Scheme::PalermoPrefetch => {
                baselines::palermo_with_prefetch(params, seed, prefetch_length)?
            }
        };
        if !matches!(self, Scheme::PrOram) {
            cfg.stash_capacity = stash_capacity;
        }
        Ok(cfg)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palermo_oram::hierarchy::{HierarchicalOram, ProtocolFlavor};
    use palermo_oram::params::OramParams;

    fn params() -> HierarchyParams {
        let data = OramParams::builder()
            .z(4)
            .s(6)
            .a(4)
            .num_blocks(4096)
            .build()
            .unwrap();
        HierarchyParams::derive(data, 4, 2).unwrap()
    }

    #[test]
    fn all_schemes_produce_valid_configs() {
        for scheme in Scheme::ALL {
            let cfg = scheme.hierarchy_config(params(), 1, 4, 256).unwrap();
            assert!(HierarchicalOram::new(cfg).is_ok(), "{scheme}");
        }
    }

    #[test]
    fn controller_policies_match_design() {
        assert_eq!(
            Scheme::Palermo.controller_config(8).policy,
            SchedulePolicy::PalermoMesh
        );
        assert_eq!(
            Scheme::PalermoSw.controller_config(8).policy,
            SchedulePolicy::PalermoSoftware
        );
        for scheme in [
            Scheme::PathOram,
            Scheme::RingOram,
            Scheme::PrOram,
            Scheme::IrOram,
        ] {
            assert_eq!(
                scheme.controller_config(8).policy,
                SchedulePolicy::Serial,
                "{scheme}"
            );
        }
    }

    #[test]
    fn prefetch_flags_and_flavors() {
        assert!(Scheme::PrOram.uses_prefetch());
        assert!(Scheme::PalermoPrefetch.uses_prefetch());
        assert!(!Scheme::Palermo.uses_prefetch());
        let cfg = Scheme::Palermo
            .hierarchy_config(params(), 0, 1, 256)
            .unwrap();
        assert_eq!(cfg.flavor, ProtocolFlavor::Palermo);
        let cfg = Scheme::RingOram
            .hierarchy_config(params(), 0, 1, 256)
            .unwrap();
        assert_eq!(cfg.flavor, ProtocolFlavor::RingOram);
    }

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut names = std::collections::HashSet::new();
        for s in Scheme::ALL {
            assert!(names.insert(s.name()));
            assert_eq!(Scheme::from_name(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Scheme::from_name("nope"), None);
    }
}
