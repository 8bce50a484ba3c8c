//! The tree state both level engines share, and what one access returns.
//!
//! A level engine is the functional engine of one ORAM tree:
//! [`crate::ring_level::RingLevel`] for RingORAM and Palermo,
//! [`crate::path_level::PathLevel`] for the PathORAM family. Both keep the
//! tree contents, the stash and the (logical) position map of their level in
//! one `LevelCore`, and for every access return a [`LevelOutcome`]
//! describing the DRAM traffic each protocol phase generates. The hierarchy
//! composes three level engines (Data, PosMap1, PosMap2) into full
//! [`crate::access_plan::AccessPlan`]s.

use crate::bucket::{BucketState, StoredBlock};
use crate::crypto::Payload;
use crate::layout::TreeLayout;
use crate::params::{OramParams, BLOCK_BYTES};
use crate::posmap::PositionMap;
use crate::rng::OramRng;
use crate::stash::{Stash, StashEntry};
use crate::tree::TreeGeometry;
use crate::types::{BlockId, LeafId, NodeId, OramOp, SlotIdx, SubOram};
#[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
use std::collections::HashMap;

/// Static configuration of one level engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelConfig {
    /// Which hierarchy level this engine implements.
    pub sub: SubOram,
    /// Tree parameters.
    pub params: OramParams,
    /// Base DRAM address of this level's tree region.
    pub dram_base: u64,
    /// Number of top tree levels resident in the on-chip tree-top cache;
    /// accesses to those levels generate no DRAM traffic.
    pub treetop_levels: u32,
    /// Hardware stash capacity, in entries.
    pub stash_capacity: usize,
    /// RNG seed for leaf selection (each level gets an independent stream).
    pub seed: u64,
    /// Number of consecutive 64-byte DRAM bursts per tree block (Palermo's
    /// block-widening prefetch; 1 = no widening).
    pub wide_factor: u32,
}

/// DRAM operations belonging to one bucket-reset or path-eviction routine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BucketOps {
    /// Block addresses read by the routine.
    pub reads: Vec<u64>,
    /// Block addresses written by the routine.
    pub writes: Vec<u64>,
}

/// The result of serving one access at one level.
#[derive(Debug, Clone, Default)]
pub struct LevelOutcome {
    /// Metadata reads along the path (`LoadMetadata` phase).
    pub lm_reads: Vec<u64>,
    /// Early-reshuffle bucket resets triggered by this access.
    pub er: Vec<BucketOps>,
    /// Data reads along the path (`ReadPath` phase).
    pub rp_reads: Vec<u64>,
    /// Path write-back traffic issued together with the read path
    /// (PathORAM-family write-back; empty for RingORAM).
    pub rp_writes: Vec<u64>,
    /// Scheduled path eviction (`EvictPath`), if this access triggered one.
    pub ep: Option<BucketOps>,
    /// The payload returned to the requester (for reads of blocks that have
    /// been written before).
    pub value: Option<Payload>,
    /// Whether the block existed (had been written or placed) before this access.
    pub found: bool,
}

/// The tree state of one level engine and the steps both protocol families
/// take on it.
#[derive(Debug, Clone)]
pub(crate) struct LevelCore {
    pub(crate) config: LevelConfig,
    pub(crate) geometry: TreeGeometry,
    pub(crate) layout: TreeLayout,
    #[allow(
        clippy::disallowed_types,
        reason = "keyed access along explicit path walks; never iterated in simulation"
    )]
    pub(crate) buckets: HashMap<NodeId, BucketState>,
    pub(crate) posmap: PositionMap,
    pub(crate) stash: Stash,
    rng: OramRng,
    /// Real blocks a bucket holds, by tree level.
    capacity: Vec<usize>,
}

impl LevelCore {
    /// Creates the state of an empty tree whose buckets have
    /// `slots_per_bucket` DRAM slots and hold `capacity[level]` real blocks.
    pub(crate) fn new(config: LevelConfig, slots_per_bucket: u64, capacity: Vec<usize>) -> Self {
        LevelCore {
            geometry: TreeGeometry::new(config.params.num_leaves),
            layout: TreeLayout::new(
                config.dram_base,
                BLOCK_BYTES * u64::from(config.wide_factor.max(1)),
                slots_per_bucket,
            ),
            #[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
            buckets: HashMap::new(),
            posmap: PositionMap::new(config.params.num_leaves),
            stash: Stash::new(config.stash_capacity),
            rng: OramRng::new(config.seed),
            capacity,
            config,
        }
    }

    /// Whether `node` lies in the on-chip tree-top cache.
    pub(crate) fn is_onchip(&self, node: NodeId) -> bool {
        self.geometry.level_of(node) < self.config.treetop_levels
    }

    /// Real blocks a bucket at `level` holds.
    pub(crate) fn capacity(&self, level: u32) -> usize {
        self.capacity[level as usize]
    }

    /// Expands a tree-block address into `wide_factor` consecutive DRAM
    /// burst addresses.
    pub(crate) fn push_wide(&self, out: &mut Vec<u64>, addr: u64) {
        let wide = u64::from(self.config.wide_factor.max(1));
        for i in 0..wide {
            out.push(addr + i * BLOCK_BYTES);
        }
    }

    /// Pushes the DRAM addresses of the first `count` slots of `node`.
    pub(crate) fn push_slots(&self, out: &mut Vec<u64>, node: NodeId, count: u64) {
        for i in 0..count {
            self.push_wide(out, self.layout.slot_addr(node, SlotIdx(i as u16)));
        }
    }

    pub(crate) fn bucket_mut(&mut self, node: NodeId) -> &mut BucketState {
        self.buckets.entry(node).or_default()
    }

    /// The leaves of one access to `key`: its current leaf and the fresh one
    /// it is remapped to, or for a dummy access (`None`) one uniformly drawn
    /// leaf for both, remapping nothing.
    pub(crate) fn leaves(&mut self, key: Option<BlockId>) -> (LeafId, LeafId) {
        match key {
            Some(key) => self.posmap.remap(key, &mut self.rng),
            None => {
                let leaf = self.rng.uniform_leaf(self.geometry.num_leaves());
                (leaf, leaf)
            }
        }
    }

    /// Pulls every real block of `node` into the stash.
    pub(crate) fn drain_to_stash(&mut self, node: NodeId) {
        for sb in self.bucket_mut(node).drain() {
            self.stash.insert(
                sb.block,
                StashEntry {
                    leaf: sb.leaf,
                    payload: sb.payload,
                    pending: false,
                },
            );
        }
    }

    /// Moves `blocks` from the stash into `node`, in order, until the
    /// bucket is full.
    pub(crate) fn fill_from_stash(&mut self, node: NodeId, blocks: Vec<BlockId>) {
        let capacity = self.capacity(self.geometry.level_of(node));
        for block in blocks {
            if self.bucket_mut(node).occupancy() >= capacity {
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
    }

    /// Commits an access to `block` to the stash under its fresh `leaf`, and
    /// returns the value read and whether the block had been written before.
    ///
    /// A real deployment initialises the ORAM with every block already
    /// resident in the tree; the simulator materialises a block on its first
    /// touch instead of allocating the whole protected space. A first write
    /// enters through the stash like any dirty block. A first read returns
    /// nothing and places the block in the deepest bucket of its fresh path
    /// with room (the stash if the whole path is full), which is where an
    /// explicit initialisation pass would have put it.
    pub(crate) fn commit(
        &mut self,
        block: BlockId,
        op: OramOp,
        payload: Option<Payload>,
        leaf: LeafId,
    ) -> (Option<Payload>, bool) {
        if let Some(entry) = self.stash.get_mut(block) {
            let found = entry.payload.is_some();
            entry.leaf = leaf;
            if op == OramOp::Write {
                entry.payload = payload;
            }
            return (entry.payload, found);
        }
        let entry = StashEntry {
            leaf,
            payload: None,
            pending: false,
        };
        if op == OramOp::Write {
            self.stash.insert(block, StashEntry { payload, ..entry });
            return (payload, false);
        }
        for node in self.geometry.path(leaf).into_iter().rev() {
            let capacity = self.capacity(self.geometry.level_of(node));
            let bucket = self.bucket_mut(node);
            if bucket.occupancy() < capacity {
                bucket.push(StoredBlock {
                    block,
                    leaf,
                    payload: None,
                });
                return (None, false);
            }
        }
        self.stash.insert(block, entry);
        (None, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 64-block tree whose buckets hold `capacity` real blocks each.
    fn core_with_capacity(capacity: usize) -> LevelCore {
        let params = OramParams::builder().z(4).num_blocks(64).build().unwrap();
        let config = LevelConfig {
            sub: SubOram::Data,
            params,
            dram_base: 0,
            treetop_levels: 0,
            stash_capacity: 16,
            seed: 3,
            wide_factor: 1,
        };
        LevelCore::new(config, 4, vec![capacity; params.levels as usize])
    }

    #[test]
    fn default_outcome_is_empty() {
        let outcome = LevelOutcome::default();
        assert!(outcome.lm_reads.is_empty() && outcome.er.is_empty());
        assert!(outcome.rp_reads.is_empty() && outcome.rp_writes.is_empty());
        assert!(outcome.ep.is_none());
        assert!(!outcome.found);
        assert!(outcome.value.is_none());
    }

    #[test]
    fn first_read_places_the_block_in_the_deepest_bucket_with_room() {
        let mut core = core_with_capacity(1);
        let leaf = LeafId(0);
        let path = core.geometry.path(leaf);
        let read = core.commit(BlockId(1), OramOp::Read, None, leaf);
        assert_eq!(read, (None, false));
        assert!(core.bucket_mut(path[path.len() - 1]).contains(BlockId(1)));
        // The leaf bucket is full now, so the next block settles one above.
        core.commit(BlockId(2), OramOp::Read, None, leaf);
        assert!(core.bucket_mut(path[path.len() - 2]).contains(BlockId(2)));
        assert!(core.stash.is_empty());
    }

    #[test]
    fn first_read_of_a_full_path_and_first_write_go_to_the_stash() {
        let leaf = LeafId(1);
        let mut full = core_with_capacity(0);
        full.commit(BlockId(1), OramOp::Read, None, leaf);
        assert_eq!(full.stash.get(BlockId(1)).map(|e| e.leaf), Some(leaf));

        let mut core = core_with_capacity(4);
        let value = Some(Payload::from_u64(9));
        let write = core.commit(BlockId(2), OramOp::Write, value, leaf);
        assert_eq!(write, (value, false));
        assert_eq!(core.stash.get(BlockId(2)).map(|e| e.payload), Some(value));
    }
}
