//! PathORAM-family functional engine for one sub-ORAM tree.
//!
//! This engine implements the classic PathORAM access (read the whole path,
//! pull every real block into the stash, write the path back greedily) and
//! the knobs the prefetch-based baselines add on top of it:
//!
//! * **grouped leaf mapping** (`group_size > 1`): PrORAM forces consecutive
//!   logical blocks onto the same leaf, so one path read prefetches the
//!   whole group — at the cost of stash pressure, because the grouped blocks
//!   compete for the same path's bucket slots;
//! * **fat tree** (`fat_tree`): LAORAM enlarges bucket capacity near the
//!   root to relieve exactly that pressure;
//! * **reduced bucket size** (`bucket_z`): PageORAM-style smaller buckets;
//! * a **background-eviction threshold** checked by the hierarchy, which
//!   injects dummy path accesses when the stash runs hot (the dummy-request
//!   ratio measured in Fig. 4).

use crate::bucket::{BucketState, StoredBlock};
use crate::crypto::Payload;
use crate::layout::TreeLayout;
use crate::level::{LevelConfig, LevelOutcome, LevelProtocol, LevelStats};
use crate::params::OramParams;
use crate::posmap::PositionMap;
use crate::rng::OramRng;
use crate::stash::{Stash, StashEntry};
use crate::tree::TreeGeometry;
use crate::types::{BlockId, LeafId, NodeId, OramOp, SlotIdx, SubOram};
#[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
use std::collections::HashMap;

/// Extra configuration specific to the PathORAM family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLevelOptions {
    /// Real blocks per bucket (classic PathORAM uses 4).
    pub bucket_z: u16,
    /// Number of consecutive logical blocks forced onto one leaf
    /// (PrORAM prefetch group; 1 disables grouping).
    pub group_size: u64,
    /// LAORAM fat tree: double the bucket capacity at the root, shrinking
    /// linearly back to `bucket_z` at the leaves.
    pub fat_tree: bool,
}

impl Default for PathLevelOptions {
    fn default() -> Self {
        PathLevelOptions {
            bucket_z: 4,
            group_size: 1,
            fat_tree: false,
        }
    }
}

/// Functional PathORAM-family engine for one tree.
#[derive(Debug, Clone)]
pub struct PathLevel {
    config: LevelConfig,
    options: PathLevelOptions,
    geometry: TreeGeometry,
    layout: TreeLayout,
    #[allow(
        clippy::disallowed_types,
        reason = "keyed access along explicit path walks; never iterated in simulation"
    )]
    buckets: HashMap<NodeId, BucketState>,
    posmap: PositionMap,
    stash: Stash,
    rng: OramRng,
    stats: LevelStats,
}

impl PathLevel {
    /// Creates a new PathORAM-family engine.
    pub fn new(config: LevelConfig, options: PathLevelOptions) -> Self {
        let geometry = TreeGeometry::new(config.params.num_leaves);
        let max_capacity = if options.fat_tree {
            u64::from(options.bucket_z) * 2
        } else {
            u64::from(options.bucket_z)
        };
        let layout = TreeLayout::new(
            config.dram_base,
            u64::from(config.params.block_bytes) * u64::from(config.wide_factor.max(1)),
            max_capacity.max(1),
        );
        PathLevel {
            geometry,
            layout,
            #[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
            buckets: HashMap::new(),
            posmap: PositionMap::new(config.params.num_leaves),
            stash: Stash::new(config.stash_capacity),
            rng: OramRng::new(config.seed),
            options,
            config,
            stats: LevelStats::default(),
        }
    }

    /// The bucket capacity (real blocks) at a given tree level, accounting
    /// for the LAORAM fat-tree shape.
    pub fn capacity_at(&self, level: u32) -> usize {
        let z = u64::from(self.options.bucket_z);
        if !self.options.fat_tree {
            return z as usize;
        }
        let levels = self.geometry.levels();
        if levels <= 1 {
            return (2 * z) as usize;
        }
        // 2Z at the root, shrinking linearly to Z at the leaf level.
        let extra = z * u64::from(levels - 1 - level) / u64::from(levels - 1);
        (z + extra) as usize
    }

    /// The prefetch-group identifier of a logical block.
    pub fn group_of(&self, block: BlockId) -> BlockId {
        BlockId(block.0 / self.options.group_size.max(1))
    }

    fn is_onchip(&self, level: u32) -> bool {
        level < self.config.treetop_levels
    }

    fn push_wide(&self, out: &mut Vec<u64>, addr: u64) {
        let wide = u64::from(self.config.wide_factor.max(1));
        for i in 0..wide {
            out.push(addr + i * 64);
        }
    }

    fn bucket_mut(&mut self, node: NodeId) -> &mut BucketState {
        self.buckets.entry(node).or_default()
    }

    /// Emulates ORAM initialisation for a block touched for the first time:
    /// places it in the deepest non-full bucket along its assigned leaf's
    /// path, falling back to the stash if the path is full.
    fn materialize(&mut self, block: BlockId, leaf: LeafId) {
        let path = self.geometry.path(leaf);
        for &node in path.iter().rev() {
            let cap = self.capacity_at(self.geometry.level_of(node));
            if self.bucket_mut(node).occupancy() < cap {
                self.bucket_mut(node).push(StoredBlock {
                    block,
                    leaf,
                    payload: None,
                });
                return;
            }
        }
        self.stash.insert(
            block,
            StashEntry {
                leaf,
                payload: None,
                pending: false,
            },
        );
    }

    /// Reads the whole path into the stash, returning the per-level DRAM
    /// read addresses.
    fn read_path(&mut self, path: &[NodeId], reads: &mut Vec<u64>) {
        for &node in path {
            let level = self.geometry.level_of(node);
            let cap = self.capacity_at(level);
            let drained = self.bucket_mut(node).drain();
            for sb in drained {
                self.stash.insert(
                    sb.block,
                    StashEntry {
                        leaf: sb.leaf,
                        payload: sb.payload,
                        pending: false,
                    },
                );
            }
            if !self.is_onchip(level) {
                for slot in 0..cap {
                    let addr = self.layout.slot_addr(node, SlotIdx(slot as u16));
                    self.push_wide(reads, addr);
                }
            }
        }
    }

    /// Writes the path back, placing stash blocks as deep as possible, and
    /// returns the per-level DRAM write addresses.
    fn write_path(&mut self, leaf: LeafId, path: &[NodeId], writes: &mut Vec<u64>) {
        for &node in path.iter().rev() {
            let level = self.geometry.level_of(node);
            let cap = self.capacity_at(level);
            let candidates = self.stash.eviction_candidates(level, |block_leaf| {
                self.geometry.common_path_depth(leaf, block_leaf)
            });
            for block in candidates.into_iter() {
                if self.bucket_mut(node).occupancy() >= cap {
                    break;
                }
                if let Some(entry) = self.stash.remove(block) {
                    self.bucket_mut(node).push(StoredBlock {
                        block,
                        leaf: entry.leaf,
                        payload: entry.payload,
                    });
                }
            }
            if !self.is_onchip(level) {
                for slot in 0..cap {
                    let addr = self.layout.slot_addr(node, SlotIdx(slot as u16));
                    self.push_wide(writes, addr);
                }
            }
        }
    }

    fn serve(
        &mut self,
        block: Option<BlockId>,
        op: OramOp,
        payload: Option<Payload>,
    ) -> LevelOutcome {
        let group = block.map(|b| self.group_of(b));
        let (leaf, leaf_new) = match group {
            Some(g) => self.posmap.remap(g, &mut self.rng),
            None => {
                let l = self.rng.uniform_leaf(self.geometry.num_leaves());
                (l, l)
            }
        };
        let path = self.geometry.path(leaf);
        let mut outcome = LevelOutcome {
            leaf,
            ..LevelOutcome::default()
        };

        self.read_path(&path, &mut outcome.rp_reads);

        if let (Some(b), Some(g)) = (block, group) {
            // All blocks of the accessed group now follow the fresh leaf; any
            // of them sitting in the stash are retagged so the path invariant
            // (block on the path of its *current* leaf, or in the stash)
            // keeps holding after the remap.
            let group_size = self.options.group_size.max(1);
            let members: Vec<BlockId> = self
                .stash
                .iter()
                .map(|(blk, _)| *blk)
                .filter(|blk| blk.0 / group_size == g.0)
                .collect();
            for member in members {
                if let Some(e) = self.stash.get_mut(member) {
                    e.leaf = leaf_new;
                }
                if member != b {
                    outcome.prefetched.push(member);
                }
            }

            outcome.found = self.stash.get(b).is_some_and(|e| e.payload.is_some());
            match self.stash.get_mut(b) {
                Some(entry) => {
                    entry.leaf = leaf_new;
                    if op == OramOp::Write {
                        entry.payload = payload;
                    }
                    outcome.value = entry.payload;
                }
                None => {
                    // First-ever touch: reads of untouched blocks return zero
                    // and the block is materialised directly along its fresh
                    // leaf path (emulating ORAM initialisation lazily);
                    // writes enter through the stash like any dirty block.
                    if op == OramOp::Write {
                        outcome.value = payload;
                        self.stash.insert(
                            b,
                            StashEntry {
                                leaf: leaf_new,
                                payload,
                                pending: false,
                            },
                        );
                    } else {
                        self.materialize(b, leaf_new);
                    }
                }
            }
        }

        self.write_path(leaf, &path, &mut outcome.rp_writes);

        self.stats.dram_reads += outcome.total_reads() as u64;
        self.stats.dram_writes += outcome.total_writes() as u64;
        self.stats.path_evictions += 1;
        outcome
    }
}

impl LevelProtocol for PathLevel {
    fn access(&mut self, block: BlockId, op: OramOp, payload: Option<Payload>) -> LevelOutcome {
        self.stats.accesses += 1;
        self.serve(Some(block), op, payload)
    }

    fn dummy_access(&mut self) -> LevelOutcome {
        self.stats.dummy_accesses += 1;
        self.serve(None, OramOp::Read, None)
    }

    fn stash_len(&self) -> usize {
        self.stash.len()
    }

    fn stash_high_water(&self) -> usize {
        self.stash.high_water()
    }

    fn stash_overflow_events(&self) -> u64 {
        self.stash.overflow_events()
    }

    fn stats(&self) -> LevelStats {
        self.stats
    }

    fn params(&self) -> &OramParams {
        &self.config.params
    }

    fn sub(&self) -> SubOram {
        self.config.sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OramParams;

    fn config(blocks: u64) -> LevelConfig {
        let params = OramParams::builder()
            .z(4)
            .s(0)
            .a(1)
            .num_blocks(blocks)
            .build()
            .unwrap();
        LevelConfig {
            sub: SubOram::Data,
            params,
            dram_base: 0,
            treetop_levels: 0,
            stash_capacity: 256,
            seed: 17,
            wide_factor: 1,
        }
    }

    fn path_oram(blocks: u64) -> PathLevel {
        PathLevel::new(config(blocks), PathLevelOptions::default())
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut oram = path_oram(256);
        oram.access(BlockId(11), OramOp::Write, Some(Payload::from_u64(1111)));
        let out = oram.access(BlockId(11), OramOp::Read, None);
        assert!(out.found);
        assert_eq!(out.value.unwrap().as_u64(), 1111);
    }

    #[test]
    fn many_blocks_round_trip_under_evictions() {
        let mut oram = path_oram(512);
        for i in 0..300u64 {
            oram.access(BlockId(i), OramOp::Write, Some(Payload::from_u64(i + 1)));
        }
        for i in 0..300u64 {
            let out = oram.access(BlockId(i), OramOp::Read, None);
            assert_eq!(out.value.unwrap().as_u64(), i + 1, "block {i}");
        }
    }

    #[test]
    fn path_read_and_writeback_cover_full_path() {
        let mut oram = path_oram(256);
        let out = oram.access(BlockId(0), OramOp::Read, None);
        let levels = oram.params().levels as usize;
        assert_eq!(out.rp_reads.len(), levels * 4);
        assert_eq!(out.rp_writes.len(), levels * 4);
        assert!(out.lm_reads.is_empty(), "PathORAM has no metadata phase");
        assert!(out.er.is_empty());
        assert!(out.ep.is_none());
    }

    #[test]
    fn stash_stays_small_without_grouping() {
        let mut oram = path_oram(2048);
        let mut rng = OramRng::new(5);
        for i in 0..2000u64 {
            let b = BlockId(rng.gen_range(2048));
            if i % 2 == 0 {
                oram.access(b, OramOp::Write, Some(Payload::from_u64(i)));
            } else {
                oram.access(b, OramOp::Read, None);
            }
        }
        assert!(
            oram.stash_high_water() < 64,
            "ungrouped PathORAM stash should stay small, saw {}",
            oram.stash_high_water()
        );
    }

    #[test]
    fn grouped_mapping_increases_stash_pressure() {
        // The PrORAM observation (Fig. 4): forcing consecutive blocks onto
        // one leaf inflates stash occupancy relative to plain PathORAM.
        let run = |group_size: u64| {
            let mut oram = PathLevel::new(
                config(4096),
                PathLevelOptions {
                    bucket_z: 4,
                    group_size,
                    fat_tree: false,
                },
            );
            // Sequential sweep: the perfect-locality `stm` pattern.
            for i in 0..3000u64 {
                oram.access(BlockId(i % 4096), OramOp::Write, Some(Payload::from_u64(i)));
            }
            oram.stash_high_water()
        };
        let plain = run(1);
        let grouped = run(8);
        assert!(
            grouped > plain,
            "grouping should add stash pressure (plain {plain}, grouped {grouped})"
        );
    }

    #[test]
    fn fat_tree_relieves_stash_pressure() {
        let run = |fat_tree: bool| {
            let mut oram = PathLevel::new(
                config(4096),
                PathLevelOptions {
                    bucket_z: 4,
                    group_size: 8,
                    fat_tree,
                },
            );
            for i in 0..3000u64 {
                oram.access(BlockId(i % 4096), OramOp::Write, Some(Payload::from_u64(i)));
            }
            oram.stash_high_water()
        };
        let slim = run(false);
        let fat = run(true);
        assert!(
            fat <= slim,
            "fat tree should not increase stash pressure (slim {slim}, fat {fat})"
        );
    }

    #[test]
    fn grouped_access_reports_prefetched_members() {
        let mut oram = PathLevel::new(
            config(256),
            PathLevelOptions {
                bucket_z: 4,
                group_size: 4,
                fat_tree: false,
            },
        );
        for i in 0..4u64 {
            oram.access(BlockId(i), OramOp::Write, Some(Payload::from_u64(i)));
        }
        let out = oram.access(BlockId(0), OramOp::Read, None);
        // The other written members of group 0 should be reported.
        assert!(out.prefetched.iter().all(|b| b.0 < 4 && b.0 != 0));
        assert!(!out.prefetched.is_empty());
    }

    #[test]
    fn fat_tree_capacity_shape() {
        let oram = PathLevel::new(
            config(256),
            PathLevelOptions {
                bucket_z: 4,
                group_size: 1,
                fat_tree: true,
            },
        );
        let levels = oram.geometry.levels();
        assert_eq!(oram.capacity_at(0), 8, "root holds 2Z");
        assert_eq!(oram.capacity_at(levels - 1), 4, "leaf holds Z");
        for l in 1..levels {
            assert!(oram.capacity_at(l) <= oram.capacity_at(l - 1));
        }
    }

    #[test]
    fn dummy_access_reads_and_writes_a_path() {
        let mut oram = path_oram(256);
        let out = oram.dummy_access();
        assert!(!out.rp_reads.is_empty());
        assert!(!out.rp_writes.is_empty());
        assert!(out.value.is_none());
        assert_eq!(oram.stats().dummy_accesses, 1);
    }

    #[test]
    fn pageoram_style_small_buckets_reduce_traffic() {
        let big = {
            let mut oram = PathLevel::new(config(256), PathLevelOptions::default());
            oram.access(BlockId(0), OramOp::Read, None).total_traffic()
        };
        let small = {
            let mut oram = PathLevel::new(
                config(256),
                PathLevelOptions {
                    bucket_z: 3,
                    group_size: 1,
                    fat_tree: false,
                },
            );
            oram.access(BlockId(0), OramOp::Read, None).total_traffic()
        };
        assert!(small < big);
    }
}
