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

use crate::crypto::Payload;
use crate::level::{LevelConfig, LevelCore, LevelOutcome};
use crate::types::{BlockId, NodeId, OramOp};

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
    pub(crate) core: LevelCore,
    /// Consecutive logical blocks that share one leaf (at least 1).
    group_size: u64,
}

impl PathLevel {
    /// Creates a new PathORAM-family engine.
    pub fn new(config: LevelConfig, options: PathLevelOptions) -> Self {
        let z = usize::from(options.bucket_z);
        let levels = config.params.levels as usize;
        // The LAORAM fat tree holds 2Z at the root, shrinking linearly to Z
        // at the leaf level.
        let capacity: Vec<usize> = (0..levels)
            .map(|level| {
                if !options.fat_tree {
                    z
                } else if levels == 1 {
                    2 * z
                } else {
                    z + z * (levels - 1 - level) / (levels - 1)
                }
            })
            .collect();
        // The root bucket is the largest.
        let slots = capacity[0].max(1) as u64;
        PathLevel {
            core: LevelCore::new(config, slots, capacity),
            group_size: options.group_size.max(1),
        }
    }

    /// Serves one access to `block`, or with `None` a dummy access to a
    /// uniformly random path (background evictions), which remaps nothing.
    /// For writes, `payload` carries the new block contents.
    pub fn access(
        &mut self,
        block: Option<BlockId>,
        op: OramOp,
        payload: Option<Payload>,
    ) -> LevelOutcome {
        let group = block.map(|b| BlockId(b.0 / self.group_size));
        let (leaf, leaf_new) = self.core.leaves(group);
        let path = self.core.geometry.path(leaf);
        let mut outcome = LevelOutcome {
            leaf,
            ..LevelOutcome::default()
        };

        // ReadPath: the whole path, every real block into the stash.
        for &node in &path {
            self.core.drain_to_stash(node);
            self.push_bucket(&mut outcome.rp_reads, node);
        }

        if let (Some(b), Some(g)) = (block, group) {
            // All blocks of the accessed group now follow the fresh leaf; any
            // of them sitting in the stash are retagged so the path invariant
            // (block on the path of its *current* leaf, or in the stash)
            // keeps holding after the remap.
            let members: Vec<BlockId> = self
                .core
                .stash
                .iter()
                .map(|(blk, _)| *blk)
                .filter(|blk| blk.0 / self.group_size == g.0)
                .collect();
            for member in members {
                if let Some(e) = self.core.stash.get_mut(member) {
                    e.leaf = leaf_new;
                }
                if member != b {
                    outcome.prefetched.push(member);
                }
            }
            (outcome.value, outcome.found) = self.core.commit(b, op, payload, leaf_new);
        }

        // Write-back: place stash blocks as deep as possible along the path.
        for &node in path.iter().rev() {
            let level = self.core.geometry.level_of(node);
            let candidates = self.core.stash.eviction_candidates(level, |block_leaf| {
                self.core.geometry.common_path_depth(leaf, block_leaf)
            });
            self.core.fill_from_stash(node, candidates);
            self.push_bucket(&mut outcome.rp_writes, node);
        }
        outcome
    }

    /// Pushes the DRAM addresses of every slot of an off-chip `node`.
    fn push_bucket(&self, out: &mut Vec<u64>, node: NodeId) {
        if !self.core.is_onchip(node) {
            let capacity = self.core.capacity(self.core.geometry.level_of(node));
            self.core.push_slots(out, node, capacity as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OramParams;
    use crate::rng::OramRng;
    use crate::types::SubOram;

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
        oram.access(
            Some(BlockId(11)),
            OramOp::Write,
            Some(Payload::from_u64(1111)),
        );
        let out = oram.access(Some(BlockId(11)), OramOp::Read, None);
        assert!(out.found);
        assert_eq!(out.value.unwrap().as_u64(), 1111);
    }

    #[test]
    fn many_blocks_round_trip_under_evictions() {
        let mut oram = path_oram(512);
        for i in 0..300u64 {
            oram.access(
                Some(BlockId(i)),
                OramOp::Write,
                Some(Payload::from_u64(i + 1)),
            );
        }
        for i in 0..300u64 {
            let out = oram.access(Some(BlockId(i)), OramOp::Read, None);
            assert_eq!(out.value.unwrap().as_u64(), i + 1, "block {i}");
        }
    }

    #[test]
    fn path_read_and_writeback_cover_full_path() {
        let mut oram = path_oram(256);
        let out = oram.access(Some(BlockId(0)), OramOp::Read, None);
        let levels = oram.core.config.params.levels as usize;
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
                oram.access(Some(b), OramOp::Write, Some(Payload::from_u64(i)));
            } else {
                oram.access(Some(b), OramOp::Read, None);
            }
        }
        assert!(
            oram.core.stash.high_water() < 64,
            "ungrouped PathORAM stash should stay small, saw {}",
            oram.core.stash.high_water()
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
                oram.access(
                    Some(BlockId(i % 4096)),
                    OramOp::Write,
                    Some(Payload::from_u64(i)),
                );
            }
            oram.core.stash.high_water()
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
                oram.access(
                    Some(BlockId(i % 4096)),
                    OramOp::Write,
                    Some(Payload::from_u64(i)),
                );
            }
            oram.core.stash.high_water()
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
            oram.access(Some(BlockId(i)), OramOp::Write, Some(Payload::from_u64(i)));
        }
        let out = oram.access(Some(BlockId(0)), OramOp::Read, None);
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
        let levels = oram.core.geometry.levels();
        assert_eq!(oram.core.capacity(0), 8, "root holds 2Z");
        assert_eq!(oram.core.capacity(levels - 1), 4, "leaf holds Z");
        for l in 1..levels {
            assert!(oram.core.capacity(l) <= oram.core.capacity(l - 1));
        }
    }

    #[test]
    fn dummy_access_reads_and_writes_a_path() {
        let mut oram = path_oram(256);
        let out = oram.access(None, OramOp::Read, None);
        assert!(!out.rp_reads.is_empty());
        assert!(!out.rp_writes.is_empty());
        assert!(out.value.is_none());
        assert!(oram.core.posmap.is_empty(), "a dummy access maps no block");
    }

    #[test]
    fn pageoram_style_small_buckets_reduce_traffic() {
        let traffic = |bucket_z: u16| {
            let options = PathLevelOptions {
                bucket_z,
                ..PathLevelOptions::default()
            };
            let mut oram = PathLevel::new(config(256), options);
            let out = oram.access(Some(BlockId(0)), OramOp::Read, None);
            out.rp_reads.len() + out.rp_writes.len()
        };
        assert!(traffic(3) < traffic(4));
    }
}
