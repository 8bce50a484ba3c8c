//! The three-level recursive ORAM hierarchy and its access-plan lowering.
//!
//! A [`HierarchicalOram`] owns the functional engines of the three sub-ORAMs
//! (Data, PosMap1, PosMap2) plus the on-chip PosMap3, and converts every LLC
//! miss into an [`AccessPlan`]: the DAG of per-level protocol phases with
//! the *intra-request* dependencies appropriate for the configured protocol
//! flavor. The controller models in `palermo-controller` then decide how
//! plans from *different* requests may overlap.

use crate::access_plan::{AccessPlan, AccessPlanBuilder, PhaseKind, PlanNodeId};
use crate::crypto::Payload;
use crate::error::{OramError, OramResult};
use crate::level::{LevelConfig, LevelCore, LevelOutcome};
use crate::params::HierarchyParams;
use crate::path_level::{PathLevel, PathLevelOptions};
use crate::ring_level::RingLevel;
use crate::rng::OramRng;
use crate::types::{BlockId, OramOp, PhysAddr, SubOram};

/// Fixed on-chip processing latency charged to each ReadPath phase
/// (decryption and permutation bookkeeping), in controller cycles.
const DECRYPT_CYCLES: u32 = 4;

/// Which protocol family drives each sub-ORAM and how plan nodes are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolFlavor {
    /// Classic PathORAM: whole-path reads and immediate write-back,
    /// fully serialised recursion.
    PathOram,
    /// RingORAM (Algorithm 1): metadata loads, single-slot reads, reshuffles
    /// and periodic evictions, fully serialised recursion.
    RingOram,
    /// Palermo (Algorithm 2): RingORAM semantics with the reshuffle hoisted
    /// early and only the minimal intra-request dependencies retained.
    Palermo,
}

/// Prefetch integration mode (§V-C and §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchMode {
    /// No prefetching; each LLC miss maps to one ORAM request for one line.
    None,
    /// PrORAM-style: force `length` consecutive cache lines onto the same
    /// leaf so one path access prefetches the whole group.
    SameLeaf {
        /// Number of consecutive cache lines sharing a leaf.
        length: u32,
    },
    /// Palermo-style block widening: one data-tree block spans `length`
    /// consecutive cache lines, fetched as a burst in the ReadPath phase.
    WideBlock {
        /// Number of consecutive cache lines per data-tree block.
        length: u32,
    },
}

impl PrefetchMode {
    /// Number of cache lines brought on chip per data access.
    pub fn span(self) -> u32 {
        match self {
            PrefetchMode::None => 1,
            PrefetchMode::SameLeaf { length } | PrefetchMode::WideBlock { length } => length.max(1),
        }
    }
}

/// IR-ORAM-style recursion bypass rates: the fraction of accesses whose
/// PosMap lookup hits on-chip tracking state and skips the sub-ORAM access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PosmapBypass {
    /// Fraction of accesses that skip the PosMap1 sub-ORAM.
    pub pos1_rate: f64,
    /// Fraction of accesses that skip the PosMap2 sub-ORAM.
    pub pos2_rate: f64,
}

/// Full configuration of a hierarchical ORAM instance.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Tree/recursion sizing.
    pub params: HierarchyParams,
    /// Protocol family.
    pub flavor: ProtocolFlavor,
    /// Seed for all leaf-selection randomness.
    pub seed: u64,
    /// Hardware stash capacity per sub-ORAM, in entries.
    pub stash_capacity: usize,
    /// Prefetch integration.
    pub prefetch: PrefetchMode,
    /// PathORAM-family bucket capacity (ignored by Ring/Palermo flavors).
    pub path_bucket_z: u16,
    /// LAORAM fat-tree bucket shaping (PathORAM family only).
    pub fat_tree: bool,
    /// IR-ORAM recursion bypass, if any.
    pub posmap_bypass: Option<PosmapBypass>,
    /// Stash occupancy at which a background eviction (dummy request) is
    /// injected; `None` disables background evictions.
    pub background_evict_threshold: Option<usize>,
}

impl HierarchyConfig {
    /// A configuration with the paper's Table III defaults for the given
    /// flavor: 16 GiB protected space, `(Z, S, A) = (16, 27, 20)`,
    /// 256-entry stashes, 6 tree-top levels on chip.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures from [`HierarchyParams`].
    pub fn paper_default(flavor: ProtocolFlavor) -> OramResult<Self> {
        Ok(HierarchyConfig {
            params: HierarchyParams::paper_default()?,
            flavor,
            seed: 0x9A1E_0A90_5EED,
            stash_capacity: 256,
            prefetch: PrefetchMode::None,
            path_bucket_z: 4,
            fat_tree: false,
            posmap_bypass: None,
            background_evict_threshold: None,
        })
    }
}

/// The result of lowering one ORAM request.
#[derive(Debug, Clone)]
pub struct AccessResult {
    /// The DRAM-traffic plan for the request.
    pub plan: AccessPlan,
    /// The payload returned to the processor (reads of written blocks only).
    pub value: Option<Payload>,
    /// Whether the block had been written before this access.
    pub found: bool,
    /// Cache lines (in units of 64-byte logical blocks of the protected
    /// space) brought on chip by this access; the LLC model inserts them so
    /// subsequent accesses hit without ORAM involvement.
    pub prefetched: Vec<BlockId>,
}

enum LevelEngine {
    Ring(RingLevel),
    Path(PathLevel),
}

impl LevelEngine {
    /// Serves one access; `None` is a dummy access to a random path.
    fn access(
        &mut self,
        block: Option<BlockId>,
        op: OramOp,
        payload: Option<Payload>,
    ) -> LevelOutcome {
        match self {
            LevelEngine::Ring(l) => l.access(block, op, payload),
            LevelEngine::Path(l) => l.access(block, op, payload),
        }
    }

    fn core(&self) -> &LevelCore {
        match self {
            LevelEngine::Ring(l) => &l.core,
            LevelEngine::Path(l) => &l.core,
        }
    }
}

impl std::fmt::Debug for LevelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let family = match self {
            LevelEngine::Ring(_) => "Ring",
            LevelEngine::Path(_) => "Path",
        };
        write!(f, "{family}({})", self.core().config.sub)
    }
}

/// The full three-level recursive ORAM.
#[derive(Debug)]
pub struct HierarchicalOram {
    config: HierarchyConfig,
    levels: Vec<LevelEngine>,
    entries_per_block: u64,
    next_request_id: u64,
    bypass_rng: OramRng,
}

impl HierarchicalOram {
    /// Builds the hierarchy described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::InvalidParams`] for inconsistent prefetch or
    /// bypass settings.
    pub fn new(config: HierarchyConfig) -> OramResult<Self> {
        if let Some(b) = &config.posmap_bypass {
            for rate in [b.pos1_rate, b.pos2_rate] {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(OramError::InvalidParams {
                        reason: format!("bypass rate {rate} outside [0, 1]"),
                    });
                }
            }
        }
        if let PrefetchMode::SameLeaf { length: 0 } | PrefetchMode::WideBlock { length: 0 } =
            config.prefetch
        {
            return Err(OramError::InvalidParams {
                reason: "prefetch length must be at least 1".into(),
            });
        }

        // Palermo block widening shrinks the data tree's logical block count
        // (several cache lines share one tree block) and therefore the
        // recursion; rebuild the hierarchy sizing accordingly.
        let params = match config.prefetch {
            PrefetchMode::WideBlock { length } if length > 1 => {
                let mut builder = crate::params::OramParams::builder();
                builder
                    .z(config.params.data.z)
                    .s(config.params.data.s)
                    .a(config.params.data.a)
                    .block_bytes(config.params.data.block_bytes)
                    .num_blocks(config.params.data.num_blocks.div_ceil(u64::from(length)));
                let data = builder.build()?;
                HierarchyParams::derive(
                    data,
                    config.params.posmap_entry_bytes,
                    config.params.treetop_levels,
                )?
            }
            _ => config.params,
        };

        let wide = match config.prefetch {
            PrefetchMode::WideBlock { length } => length,
            _ => 1,
        };
        let mut levels = Vec::with_capacity(SubOram::COUNT);
        let mut base = 0u64;
        for sub in SubOram::ALL {
            let level_params = *params.level(sub);
            #[allow(
                clippy::disallowed_methods,
                reason = "SplitMix64-style per-sub-ORAM seed expansion"
            )]
            let seed = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(sub.index() as u64 + 1);
            let level_config = LevelConfig {
                sub,
                params: level_params,
                dram_base: base,
                treetop_levels: params.treetop_levels.min(level_params.levels),
                stash_capacity: config.stash_capacity,
                seed,
                // Only the data tree is widened; the PosMap trees keep
                // 64-byte blocks (§V-C).
                wide_factor: if sub == SubOram::Data { wide } else { 1 },
            };
            // Reserve address space for this tree (region size uses the
            // widened block size for the data tree).
            let bucket_bytes = u64::from(level_params.slots_per_bucket() + 1)
                * u64::from(level_params.block_bytes)
                * u64::from(level_config.wide_factor);
            let footprint = level_params.num_nodes() * bucket_bytes;

            let engine = match config.flavor {
                ProtocolFlavor::PathOram => LevelEngine::Path(PathLevel::new(
                    level_config,
                    PathLevelOptions {
                        bucket_z: config.path_bucket_z,
                        group_size: match config.prefetch {
                            PrefetchMode::SameLeaf { length } if sub == SubOram::Data => {
                                u64::from(length)
                            }
                            _ => 1,
                        },
                        fat_tree: config.fat_tree,
                    },
                )),
                ProtocolFlavor::RingOram => LevelEngine::Ring(RingLevel::new(level_config, false)),
                ProtocolFlavor::Palermo => LevelEngine::Ring(RingLevel::new(level_config, true)),
            };
            levels.push(engine);
            base += footprint;
            // Keep tree regions row-aligned so they never share DRAM rows.
            base = base.next_multiple_of(1 << 13);
        }

        Ok(HierarchicalOram {
            entries_per_block: params.entries_per_block(),
            levels,
            next_request_id: 0,
            bypass_rng: OramRng::new(config.seed ^ 0xB1A5),
            config: HierarchyConfig { params, ..config },
        })
    }

    /// The effective configuration (after prefetch-induced re-derivation).
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Current data-level stash occupancy (the quantity plotted in Fig. 12).
    pub fn data_stash_len(&self) -> usize {
        self.levels[0].core().stash.len()
    }

    /// Highest stash occupancy observed on any level.
    pub fn stash_high_water(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.core().stash.high_water())
            .max()
            .unwrap_or(0)
    }

    /// Total stash-capacity overflow events across levels.
    pub fn stash_overflow_events(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.core().stash.overflow_events())
            .sum()
    }

    /// Returns `true` if the configured background-eviction threshold has
    /// been reached and a dummy request should be injected before the next
    /// real request (PrORAM's behaviour in §III-B).
    pub fn needs_background_evict(&self) -> bool {
        match self.config.background_evict_threshold {
            Some(threshold) => self.levels[0].core().stash.len() >= threshold,
            None => false,
        }
    }

    /// Injects one background-eviction dummy request and returns its plan.
    pub fn background_evict(&mut self) -> AccessResult {
        let request_id = self.next_request_id;
        self.next_request_id += 1;

        let outcome = self.levels[0].access(None, OramOp::Read, None);
        let mut builder = AccessPlanBuilder::new(request_id, PhysAddr::new(0), OramOp::Read);
        builder.dummy();
        self.lower(&mut builder, [Some(outcome), None, None]);
        AccessResult {
            plan: builder.build(),
            value: None,
            found: false,
            prefetched: Vec::new(),
        }
    }

    /// Serves one LLC miss: runs the functional protocol on all (non-bypassed)
    /// recursion levels and lowers the result into an [`AccessPlan`].
    ///
    /// # Errors
    ///
    /// Returns [`OramError::AddressOutOfRange`] if `pa` falls outside the
    /// protected space.
    pub fn access(
        &mut self,
        pa: PhysAddr,
        op: OramOp,
        payload: Option<Payload>,
    ) -> OramResult<AccessResult> {
        let raw_block = pa.cache_line(64);
        let span = u64::from(self.config.prefetch.span());
        let protected_blocks = match self.config.prefetch {
            PrefetchMode::WideBlock { .. } => self.config.params.data.num_blocks * span,
            _ => self.config.params.data.num_blocks,
        };
        if raw_block.0 >= protected_blocks {
            return Err(OramError::AddressOutOfRange {
                block: raw_block.0,
                num_blocks: protected_blocks,
            });
        }

        let request_id = self.next_request_id;
        self.next_request_id += 1;

        // Address translation through the recursion.
        let data_block = match self.config.prefetch {
            PrefetchMode::WideBlock { .. } => BlockId(raw_block.0 / span),
            _ => raw_block,
        };
        let pos1_block = BlockId(data_block.0 / self.entries_per_block);
        let pos2_block = BlockId(pos1_block.0 / self.entries_per_block);

        // IR-ORAM-style recursion bypass.
        let (skip_pos1, skip_pos2) = match &self.config.posmap_bypass {
            Some(b) => (
                self.bypass_rng.chance(b.pos1_rate),
                self.bypass_rng.chance(b.pos2_rate),
            ),
            None => (false, false),
        };

        let pos2_outcome =
            (!skip_pos2).then(|| self.levels[2].access(Some(pos2_block), OramOp::Read, None));
        let pos1_outcome =
            (!skip_pos1).then(|| self.levels[1].access(Some(pos1_block), OramOp::Read, None));
        let data_outcome = self.levels[0].access(Some(data_block), op, payload);

        let value = data_outcome.value;
        let found = data_outcome.found;
        // Report the prefetched cache-line span so the LLC can be filled.
        let prefetched: Vec<BlockId> = if span > 1 {
            let group_base = (raw_block.0 / span) * span;
            (group_base..group_base + span)
                .filter(|&b| b != raw_block.0 && b < protected_blocks)
                .map(BlockId)
                .collect()
        } else {
            Vec::new()
        };

        let mut builder = AccessPlanBuilder::new(request_id, pa, op);
        self.lower(
            &mut builder,
            [Some(data_outcome), pos1_outcome, pos2_outcome],
        );

        Ok(AccessResult {
            plan: builder.build(),
            value,
            found,
            prefetched,
        })
    }

    /// Lowers per-level outcomes, indexed by [`SubOram::index`], into plan
    /// nodes with flavor-appropriate intra-request dependency edges.
    fn lower(&self, builder: &mut AccessPlanBuilder, outcomes: [Option<LevelOutcome>; 3]) {
        let palermo = self.config.flavor == ProtocolFlavor::Palermo;
        let path_family = self.config.flavor == ProtocolFlavor::PathOram;

        // Process innermost level first (Pos2 -> Pos1 -> Data), mirroring the
        // recursion: the leaf of an outer level only becomes known once the
        // inner level's ReadPath has completed.
        let mut prev_level_rp: Option<PlanNodeId> = None;
        let mut prev_level_last: Option<PlanNodeId> = None;

        for (sub, outcome) in SubOram::ALL.into_iter().zip(outcomes).rev() {
            let Some(outcome) = outcome else {
                continue;
            };

            // The dependency that makes this level wait for its position-map
            // lookup: Palermo waits only for the inner ReadPath; the serial
            // baselines wait for the inner level to finish entirely.
            let posmap_dep: Vec<PlanNodeId> = if palermo {
                prev_level_rp.into_iter().collect()
            } else {
                prev_level_last.into_iter().collect()
            };

            if path_family {
                // PathORAM family: ReadPath (whole path) then write-back.
                let rp = builder.push(
                    sub,
                    PhaseKind::ReadPath,
                    outcome.rp_reads,
                    Vec::new(),
                    posmap_dep,
                    DECRYPT_CYCLES,
                );
                let wb = builder.push(
                    sub,
                    PhaseKind::EvictPath,
                    Vec::new(),
                    outcome.rp_writes,
                    vec![rp],
                    0,
                );
                prev_level_rp = Some(rp);
                prev_level_last = Some(wb);
                continue;
            }

            // Ring / Palermo: LM, (ER), RP, (EP) with flavor-dependent order.
            let lm = builder.push(
                sub,
                PhaseKind::LoadMetadata,
                outcome.lm_reads,
                Vec::new(),
                posmap_dep,
                0,
            );

            // The early reshuffle's bucket resets, issued as one phase.
            let mut er = (!outcome.er.is_empty()).then(|| {
                let (mut reads, mut writes) = (Vec::new(), Vec::new());
                for ops in outcome.er {
                    reads.extend(ops.reads);
                    writes.extend(ops.writes);
                }
                (reads, writes)
            });

            // Palermo: LM -> ER -> RP -> EP (reshuffle hoisted early).
            // RingORAM: LM -> RP -> (EP) -> ER.
            let rp_dep = match er.take_if(|_| palermo) {
                Some((reads, writes)) => {
                    builder.push(sub, PhaseKind::EarlyReshuffle, reads, writes, vec![lm], 0)
                }
                None => lm,
            };
            let rp = builder.push(
                sub,
                PhaseKind::ReadPath,
                outcome.rp_reads,
                Vec::new(),
                vec![rp_dep],
                DECRYPT_CYCLES,
            );
            prev_level_rp = Some(rp);
            let mut last = rp;

            // EvictPath (if scheduled) is serialised after ReadPath in
            // both flavors: this is what bounds the stash (§IV-B).
            if let Some(ops) = outcome.ep {
                last = builder.push(
                    sub,
                    PhaseKind::EvictPath,
                    ops.reads,
                    ops.writes,
                    vec![rp],
                    0,
                );
            }

            // RingORAM runs the reshuffle last.
            if let Some((reads, writes)) = er {
                last = builder.push(sub, PhaseKind::EarlyReshuffle, reads, writes, vec![last], 0);
            }
            prev_level_last = Some(last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OramParams;

    fn tiny_params() -> HierarchyParams {
        let data = OramParams::builder()
            .z(4)
            .s(6)
            .a(4)
            .num_blocks(4096)
            .build()
            .unwrap();
        HierarchyParams::derive(data, 4, 2).unwrap()
    }

    fn tiny_config(flavor: ProtocolFlavor) -> HierarchyConfig {
        HierarchyConfig {
            params: tiny_params(),
            flavor,
            seed: 1,
            stash_capacity: 256,
            prefetch: PrefetchMode::None,
            path_bucket_z: 4,
            fat_tree: false,
            posmap_bypass: None,
            background_evict_threshold: None,
        }
    }

    #[test]
    fn write_read_round_trip_all_flavors() {
        for flavor in [
            ProtocolFlavor::PathOram,
            ProtocolFlavor::RingOram,
            ProtocolFlavor::Palermo,
        ] {
            let mut oram = HierarchicalOram::new(tiny_config(flavor)).unwrap();
            let pa = PhysAddr::new(0x2040);
            oram.access(pa, OramOp::Write, Some(Payload::from_u64(77)))
                .unwrap();
            let res = oram.access(pa, OramOp::Read, None).unwrap();
            assert!(res.found, "{flavor:?}");
            assert_eq!(res.value.unwrap().as_u64(), 77, "{flavor:?}");
        }
    }

    #[test]
    fn plans_are_well_formed_and_touch_all_levels() {
        let mut oram = HierarchicalOram::new(tiny_config(ProtocolFlavor::Palermo)).unwrap();
        let res = oram.access(PhysAddr::new(0), OramOp::Read, None).unwrap();
        assert!(res.plan.is_well_formed());
        for sub in SubOram::ALL {
            assert!(
                res.plan.node(sub, PhaseKind::ReadPath).is_some(),
                "missing RP for {sub}"
            );
        }
        assert!(res.plan.total_reads() > 0);
    }

    #[test]
    fn out_of_range_address_rejected() {
        let mut oram = HierarchicalOram::new(tiny_config(ProtocolFlavor::RingOram)).unwrap();
        let too_far = PhysAddr::new(4096 * 64);
        assert!(matches!(
            oram.access(too_far, OramOp::Read, None),
            Err(OramError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn palermo_plan_has_minimal_cross_level_deps() {
        let mut oram = HierarchicalOram::new(tiny_config(ProtocolFlavor::Palermo)).unwrap();
        let res = oram.access(PhysAddr::new(64), OramOp::Read, None).unwrap();
        let plan = &res.plan;
        // Data LM depends only on the Pos1 ReadPath, not on Pos1 EvictPath.
        let data_lm = plan.node(SubOram::Data, PhaseKind::LoadMetadata).unwrap();
        let pos1_rp = plan.node_id(SubOram::Pos1, PhaseKind::ReadPath).unwrap();
        assert_eq!(data_lm.deps, vec![pos1_rp]);
    }

    #[test]
    fn ring_plan_serialises_levels() {
        let mut oram = HierarchicalOram::new(tiny_config(ProtocolFlavor::RingOram)).unwrap();
        let res = oram.access(PhysAddr::new(64), OramOp::Read, None).unwrap();
        let plan = &res.plan;
        // The Pos1 LoadMetadata must wait for the *last* Pos2 node, i.e. a
        // node with id greater or equal to the Pos2 ReadPath.
        let pos1_lm = plan.node(SubOram::Pos1, PhaseKind::LoadMetadata).unwrap();
        let pos2_rp = plan.node_id(SubOram::Pos2, PhaseKind::ReadPath).unwrap();
        assert_eq!(pos1_lm.deps.len(), 1);
        assert!(pos1_lm.deps[0] >= pos2_rp);
    }

    #[test]
    fn ring_traffic_is_lower_than_path_traffic() {
        // RingORAM's raison d'être: fewer DRAM accesses per request than
        // PathORAM (the paper quotes 470 vs 576 at 16 GiB scale).
        let mut ring = HierarchicalOram::new(tiny_config(ProtocolFlavor::RingOram)).unwrap();
        let mut path = HierarchicalOram::new(tiny_config(ProtocolFlavor::PathOram)).unwrap();
        let mut rng = OramRng::new(3);
        let mut ring_traffic = 0usize;
        let mut path_traffic = 0usize;
        for _ in 0..300 {
            let pa = PhysAddr::new(rng.gen_range(4096) * 64);
            ring_traffic += ring
                .access(pa, OramOp::Read, None)
                .unwrap()
                .plan
                .total_traffic();
            path_traffic += path
                .access(pa, OramOp::Read, None)
                .unwrap()
                .plan
                .total_traffic();
        }
        assert!(
            ring_traffic < path_traffic,
            "ring {ring_traffic} !< path {path_traffic}"
        );
    }

    #[test]
    fn wide_block_prefetch_shrinks_recursion_and_reports_span() {
        let mut cfg = tiny_config(ProtocolFlavor::Palermo);
        cfg.prefetch = PrefetchMode::WideBlock { length: 4 };
        let oram = HierarchicalOram::new(cfg).unwrap();
        assert_eq!(oram.config().prefetch.span(), 4);
        assert_eq!(oram.config().params.data.num_blocks, 4096 / 4);
    }

    #[test]
    fn wide_block_prefetch_round_trips_and_prefetches_neighbours() {
        let mut cfg = tiny_config(ProtocolFlavor::Palermo);
        cfg.prefetch = PrefetchMode::WideBlock { length: 4 };
        let mut oram = HierarchicalOram::new(cfg).unwrap();
        let pa = PhysAddr::new(8 * 64);
        oram.access(pa, OramOp::Write, Some(Payload::from_u64(5)))
            .unwrap();
        let res = oram.access(pa, OramOp::Read, None).unwrap();
        assert_eq!(res.value.unwrap().as_u64(), 5);
        // Neighbouring lines 9, 10, 11 share the widened block.
        let ids: Vec<u64> = res.prefetched.iter().map(|b| b.0).collect();
        assert_eq!(ids, vec![9, 10, 11]);
    }

    #[test]
    fn same_leaf_prefetch_reports_group_members() {
        let mut cfg = tiny_config(ProtocolFlavor::PathOram);
        cfg.prefetch = PrefetchMode::SameLeaf { length: 8 };
        let mut oram = HierarchicalOram::new(cfg).unwrap();
        let res = oram.access(PhysAddr::new(0), OramOp::Read, None).unwrap();
        assert_eq!(res.prefetched.len(), 7);
    }

    #[test]
    fn background_eviction_triggers_on_threshold() {
        let mut cfg = tiny_config(ProtocolFlavor::PathOram);
        cfg.prefetch = PrefetchMode::SameLeaf { length: 16 };
        cfg.background_evict_threshold = Some(20);
        let mut oram = HierarchicalOram::new(cfg).unwrap();
        let mut dummies = 0;
        for i in 0..800u64 {
            if oram.needs_background_evict() {
                let res = oram.background_evict();
                assert!(res.plan.is_dummy);
                assert!(res.plan.nodes.iter().all(|n| n.sub == SubOram::Data));
                dummies += 1;
            }
            let pa = PhysAddr::new((i % 4096) * 64);
            oram.access(pa, OramOp::Write, Some(Payload::from_u64(i)))
                .unwrap();
        }
        assert!(
            dummies > 0,
            "grouped prefetch should trigger background evictions"
        );
        // Every real and every dummy request took one request id.
        let next = oram.access(PhysAddr::new(0), OramOp::Read, None).unwrap();
        assert_eq!(next.plan.request_id, 800 + dummies);
    }

    #[test]
    fn posmap_bypass_skips_sub_orams() {
        let mut cfg = tiny_config(ProtocolFlavor::PathOram);
        cfg.posmap_bypass = Some(PosmapBypass {
            pos1_rate: 1.0,
            pos2_rate: 1.0,
        });
        let mut oram = HierarchicalOram::new(cfg).unwrap();
        let res = oram.access(PhysAddr::new(0), OramOp::Read, None).unwrap();
        assert!(res.plan.node(SubOram::Pos1, PhaseKind::ReadPath).is_none());
        assert!(res.plan.node(SubOram::Pos2, PhaseKind::ReadPath).is_none());
        assert!(res.plan.nodes.iter().all(|n| n.sub == SubOram::Data));
    }

    #[test]
    fn invalid_bypass_rate_rejected() {
        let mut cfg = tiny_config(ProtocolFlavor::PathOram);
        cfg.posmap_bypass = Some(PosmapBypass {
            pos1_rate: 1.5,
            pos2_rate: 0.0,
        });
        assert!(HierarchicalOram::new(cfg).is_err());
    }

    #[test]
    fn zero_prefetch_length_rejected() {
        for prefetch in [
            PrefetchMode::SameLeaf { length: 0 },
            PrefetchMode::WideBlock { length: 0 },
        ] {
            let mut cfg = tiny_config(ProtocolFlavor::Palermo);
            cfg.prefetch = prefetch;
            assert!(
                matches!(
                    HierarchicalOram::new(cfg),
                    Err(OramError::InvalidParams { .. })
                ),
                "{prefetch:?} accepted"
            );
        }
    }

    #[test]
    fn request_ids_are_monotonic() {
        let mut oram = HierarchicalOram::new(tiny_config(ProtocolFlavor::Palermo)).unwrap();
        let a = oram.access(PhysAddr::new(0), OramOp::Read, None).unwrap();
        let b = oram.access(PhysAddr::new(64), OramOp::Read, None).unwrap();
        assert!(b.plan.request_id > a.plan.request_id);
    }

    #[test]
    fn stash_remains_bounded_for_palermo_default() {
        let mut oram = HierarchicalOram::new(tiny_config(ProtocolFlavor::Palermo)).unwrap();
        let mut rng = OramRng::new(9);
        for i in 0..2000u64 {
            let pa = PhysAddr::new(rng.gen_range(4096) * 64);
            let op = if i % 4 == 0 {
                OramOp::Write
            } else {
                OramOp::Read
            };
            let payload = (op == OramOp::Write).then(|| Payload::from_u64(i));
            oram.access(pa, op, payload).unwrap();
        }
        assert!(oram.stash_high_water() <= 256, "stash bound violated");
        assert_eq!(oram.stash_overflow_events(), 0);
    }
}
