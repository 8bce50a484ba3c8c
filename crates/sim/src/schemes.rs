//! The ORAM designs compared in the evaluation (Fig. 10).

use palermo_controller::{ControllerConfig, SchedulePolicy};
use palermo_oram::error::OramResult;
use palermo_oram::hierarchy::{HierarchyConfig, PosmapBypass, PrefetchMode, ProtocolFlavor};
use palermo_oram::params::HierarchyParams;

/// One of the ORAM designs evaluated in the paper (§VII-B).
///
/// Where a baseline relies on a mechanism the simulator approximates rather
/// than models in full, its variant says how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// PathORAM (Stefanov et al.) with `Z = 4` buckets — the normalisation
    /// baseline of Fig. 10.
    PathOram,
    /// RingORAM (Ren et al.).
    RingOram,
    /// PageORAM (Rajat et al., MICRO'22).
    ///
    /// Approximation: PageORAM's sibling-node accesses let it shrink tree
    /// buckets while keeping DRAM page locality. The model is a PathORAM
    /// with smaller buckets (`Z = 3`); the level-order bucket layout already
    /// places siblings at adjacent DRAM addresses, which recovers the
    /// row-buffer locality of the design.
    PageOram,
    /// PrORAM (Yu et al., ISCA'15) with LAORAM's fat tree, the configuration
    /// the paper quotes as PrORAM's best ("PrORAM w/ Fat Tree"), swept for
    /// the best prefetch length.
    ///
    /// The prefetch length's consecutive cache lines share one leaf.
    /// PrORAM's evaluation uses a larger stash, of at least 1024 entries, and
    /// injects a background eviction (a dummy request) whenever the data
    /// stash reaches 3/4 of it (§III-B).
    PrOram,
    /// IR-ORAM (Raoufi et al., HPCA'22).
    ///
    /// Approximation: IR-ORAM tracks the tree-top cache's position-map
    /// mappings in hardware, skips the recursive PosMap ORAM when the
    /// tracked state suffices, and shrinks mid-tree buckets. The model
    /// elides 20% of PosMap1 and 40% of PosMap2 accesses, calibrated rates
    /// that reproduce the ~1.1× end-to-end gain the paper reports for this
    /// class of design.
    IrOram,
    /// The Palermo protocol (Algorithm 2) executed with software-style
    /// synchronisation.
    PalermoSw,
    /// The full Palermo protocol-hardware co-design.
    Palermo,
    /// Palermo with block-widening prefetch (§V-C) matched to PrORAM's
    /// length: one data-tree block spans the prefetch length's cache lines.
    /// Unlike PrORAM's same-leaf grouping this leaves leaf assignment
    /// unchanged, so it adds no stash pressure and needs no background
    /// eviction.
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
    /// serial multi-issue controller, with one request in service and one
    /// staged; Palermo-SW runs the new protocol with software
    /// synchronisation; Palermo uses the PE mesh.
    pub fn controller_config(self, pe_columns: usize) -> ControllerConfig {
        match self {
            Scheme::Palermo | Scheme::PalermoPrefetch => ControllerConfig {
                policy: SchedulePolicy::PalermoMesh,
                pe_columns,
            },
            Scheme::PalermoSw => ControllerConfig {
                policy: SchedulePolicy::PalermoSoftware,
                pe_columns,
            },
            _ => ControllerConfig {
                policy: SchedulePolicy::Serial,
                pe_columns: 2,
            },
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
    /// None at present: [`HierarchicalOram::new`] validates the
    /// configuration.
    ///
    /// [`HierarchicalOram::new`]: palermo_oram::hierarchy::HierarchicalOram::new
    pub fn hierarchy_config(
        self,
        params: HierarchyParams,
        seed: u64,
        prefetch_length: u32,
        stash_capacity: usize,
    ) -> OramResult<HierarchyConfig> {
        let flavor = match self {
            Scheme::RingOram => ProtocolFlavor::RingOram,
            Scheme::PalermoSw | Scheme::Palermo | Scheme::PalermoPrefetch => {
                ProtocolFlavor::Palermo
            }
            _ => ProtocolFlavor::PathOram,
        };
        let mut cfg = HierarchyConfig {
            seed,
            stash_capacity,
            ..HierarchyConfig::new(params, flavor)
        };
        match self {
            Scheme::PageOram => cfg.path_bucket_z = 3,
            Scheme::PrOram => {
                if prefetch_length > 1 {
                    cfg.prefetch = PrefetchMode::SameLeaf {
                        length: prefetch_length,
                    };
                }
                cfg.fat_tree = true;
                cfg.stash_capacity = stash_capacity.max(1024);
                cfg.background_evict_threshold = Some(cfg.stash_capacity * 3 / 4);
            }
            Scheme::IrOram => {
                cfg.posmap_bypass = Some(PosmapBypass {
                    pos1_rate: 0.2,
                    pos2_rate: 0.4,
                });
            }
            Scheme::PalermoPrefetch if prefetch_length > 1 => {
                cfg.prefetch = PrefetchMode::WideBlock {
                    length: prefetch_length,
                };
            }
            _ => {}
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
    use palermo_oram::hierarchy::HierarchicalOram;
    use palermo_oram::params::OramParams;

    fn params() -> HierarchyParams {
        let data = OramParams::builder()
            .z(4)
            .s(6)
            .a(4)
            .num_blocks(4096)
            .build()
            .unwrap();
        HierarchyParams::derive(data, 2).unwrap()
    }

    fn config(scheme: Scheme, prefetch_length: u32) -> HierarchyConfig {
        scheme
            .hierarchy_config(params(), 0, prefetch_length, 256)
            .unwrap()
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
        let mesh = Scheme::Palermo.controller_config(8);
        assert_eq!(
            (mesh.policy, mesh.pe_columns),
            (SchedulePolicy::PalermoMesh, 8)
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
            let serial = scheme.controller_config(8);
            assert_eq!(
                (serial.policy, serial.pe_columns),
                (SchedulePolicy::Serial, 2),
                "{scheme}"
            );
        }
    }

    #[test]
    fn each_scheme_runs_its_protocol_flavor() {
        use ProtocolFlavor::{Palermo, PathOram, RingOram};
        let flavors = [
            PathOram, RingOram, PathOram, PathOram, PathOram, Palermo, Palermo, Palermo,
        ];
        for (scheme, flavor) in Scheme::ALL.into_iter().zip(flavors) {
            let cfg = config(scheme, 4);
            assert_eq!(cfg.flavor, flavor, "{scheme}");
            if scheme != Scheme::PrOram {
                assert_eq!(cfg.stash_capacity, 256, "{scheme}");
            }
        }
    }

    #[test]
    fn baseline_knobs_follow_the_variant_docs() {
        assert_eq!(config(Scheme::PathOram, 1).path_bucket_z, 4);
        assert_eq!(config(Scheme::PageOram, 1).path_bucket_z, 3);
        assert_eq!(
            config(Scheme::IrOram, 1).posmap_bypass,
            Some(PosmapBypass {
                pos1_rate: 0.2,
                pos2_rate: 0.4,
            })
        );

        let pr = config(Scheme::PrOram, 4);
        assert_eq!(pr.prefetch, PrefetchMode::SameLeaf { length: 4 });
        assert!(pr.fat_tree);
        assert_eq!(pr.stash_capacity, 1024);
        assert_eq!(pr.background_evict_threshold, Some(768));
        // A larger system stash is kept, with the threshold at 3/4 of it.
        let big = Scheme::PrOram
            .hierarchy_config(params(), 0, 4, 2048)
            .unwrap();
        assert_eq!(big.stash_capacity, 2048);
        assert_eq!(big.background_evict_threshold, Some(1536));
        // Prefetch length 1 degenerates to no prefetching.
        assert_eq!(config(Scheme::PrOram, 1).prefetch, PrefetchMode::None);

        let wide = config(Scheme::PalermoPrefetch, 8);
        assert_eq!(wide.prefetch, PrefetchMode::WideBlock { length: 8 });
        assert!(wide.background_evict_threshold.is_none());
        assert_eq!(
            config(Scheme::PalermoPrefetch, 1).prefetch,
            PrefetchMode::None
        );
    }

    #[test]
    fn prefetch_flags() {
        assert!(Scheme::PrOram.uses_prefetch());
        assert!(Scheme::PalermoPrefetch.uses_prefetch());
        assert!(!Scheme::Palermo.uses_prefetch());
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
