//! RingORAM / Palermo functional engine for one sub-ORAM tree.
//!
//! Implements Algorithm 1 (RingORAM) and the functional portions of
//! Algorithm 2 (Palermo). The two differ in *when* bucket resets happen:
//! RingORAM runs `EarlyReshuffle` after `ReadPath`, while Palermo hoists an
//! `EarlyReshufflePreCheck` before it so the write-to-read critical section
//! between consecutive requests resolves as early as possible (§IV-B).
//! Timing — i.e. how much of this traffic overlaps — is decided later by the
//! controller models; this engine is responsible for functional correctness
//! (read-your-writes, the path invariant, stash boundedness) and for
//! emitting the per-phase DRAM address lists.

use crate::bucket::{BucketState, StoredBlock};
use crate::crypto::Payload;
use crate::layout::TreeLayout;
use crate::level::{BucketOps, LevelConfig, LevelOutcome, LevelProtocol, LevelStats};
use crate::params::OramParams;
use crate::posmap::PositionMap;
use crate::rng::OramRng;
use crate::stash::{Stash, StashEntry};
use crate::tree::TreeGeometry;
use crate::types::{BlockId, NodeId, OramOp, SlotIdx, SubOram};
#[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
use std::collections::HashMap;

/// Functional RingORAM / Palermo engine for one tree.
#[derive(Debug, Clone)]
pub struct RingLevel {
    config: LevelConfig,
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
    /// Accesses since construction; every `a`-th access schedules an EvictPath.
    round: u64,
    /// RingORAM's deterministic eviction-leaf counter `G`.
    evict_counter: u64,
    /// Palermo hoists the reshuffle pre-check before the path read.
    hoist_early_reshuffle: bool,
    stats: LevelStats,
}

impl RingLevel {
    /// Creates a new engine.
    ///
    /// `hoist_early_reshuffle` selects between the RingORAM ordering
    /// (`false`) and the Palermo pre-check ordering (`true`).
    pub fn new(config: LevelConfig, hoist_early_reshuffle: bool) -> Self {
        let geometry = TreeGeometry::new(config.params.num_leaves);
        let layout = TreeLayout::new(
            config.dram_base,
            u64::from(config.params.block_bytes) * u64::from(config.wide_factor.max(1)),
            u64::from(config.params.slots_per_bucket()),
        );
        RingLevel {
            geometry,
            layout,
            #[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
            buckets: HashMap::new(),
            posmap: PositionMap::new(config.params.num_leaves),
            stash: Stash::new(config.stash_capacity),
            rng: OramRng::new(config.seed),
            round: 0,
            evict_counter: 0,
            hoist_early_reshuffle,
            config,
            stats: LevelStats::default(),
        }
    }

    /// Tree geometry of this level.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// The DRAM layout of this level's tree.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    fn is_onchip(&self, level: u32) -> bool {
        level < self.config.treetop_levels
    }

    /// Expands a tree-block address into `wide_factor` consecutive DRAM
    /// burst addresses.
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
    /// path (falling back to the stash if the whole path is full), which is
    /// where an explicit initialisation pass would have put it.
    fn materialize(&mut self, block: BlockId, leaf: crate::types::LeafId) {
        let z = usize::from(self.config.params.z);
        let path = self.geometry.path(leaf);
        for &node in path.iter().rev() {
            if self.bucket_mut(node).has_space(z) {
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

    /// Blocks in the stash that may legally be placed in `node` (their leaf
    /// path passes through it), in deterministic order.
    fn fitting_stash_blocks(&self, node: NodeId) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self
            .stash
            .iter()
            .filter(|(_, e)| !e.pending && self.geometry.is_on_path(node, e.leaf))
            .map(|(b, _)| *b)
            .collect();
        out.sort_unstable();
        out
    }

    /// Executes the `ResetBucket` routine of Algorithm 1 on `node`:
    /// pulls the remaining valid blocks into the stash, pushes back as many
    /// fitting stash blocks as capacity allows, and rewrites the bucket.
    fn reset_bucket(&mut self, node: NodeId) -> BucketOps {
        let z = usize::from(self.config.params.z);
        let slots = u64::from(self.config.params.slots_per_bucket());
        let level = self.geometry.level_of(node);
        let onchip = self.is_onchip(level);

        // Pull the remaining valid real blocks into the stash.
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

        // Push back as many fitting stash blocks as fit under capacity Z.
        let candidates = self.fitting_stash_blocks(node);
        for block in candidates.into_iter().take(z) {
            if let Some(entry) = self.stash.remove(block) {
                self.bucket_mut(node).push(StoredBlock {
                    block,
                    leaf: entry.leaf,
                    payload: entry.payload,
                });
            }
        }
        self.bucket_mut(node).meta.reset();
        self.stats.bucket_resets += 1;

        // DRAM traffic: the fetch offsets are padded to Z reads and the whole
        // bucket (all Z + S slots) is re-encrypted and rewritten.
        let mut ops = BucketOps {
            node,
            ..BucketOps::default()
        };
        if !onchip {
            for i in 0..z as u64 {
                let addr = self.layout.slot_addr(node, SlotIdx(i as u16));
                self.push_wide(&mut ops.reads, addr);
            }
            for i in 0..slots {
                let addr = self.layout.slot_addr(node, SlotIdx(i as u16));
                self.push_wide(&mut ops.writes, addr);
            }
            // The rewritten permutation is recorded in the metadata block.
            ops.writes.push(self.layout.metadata_addr(node));
        }
        ops
    }

    /// Executes `EvictPath` along the deterministic eviction leaf sequence.
    fn evict_path(&mut self) -> BucketOps {
        let leaf = self.geometry.eviction_leaf(self.evict_counter);
        self.evict_counter += 1;
        self.stats.path_evictions += 1;

        let mut aggregate = BucketOps {
            node: self.geometry.leaf_node(leaf),
            ..BucketOps::default()
        };
        // Reset deepest-first so blocks settle as close to the leaves as
        // possible, which is what keeps the stash bounded.
        for node in self.geometry.path(leaf).into_iter().rev() {
            let ops = self.reset_bucket(node);
            aggregate.reads.extend(ops.reads);
            aggregate.writes.extend(ops.writes);
        }
        aggregate
    }

    /// Runs the early-reshuffle scan along `path`, resetting buckets that
    /// have exhausted (or, with the Palermo pre-check, are about to exhaust)
    /// their dummy budget.
    fn early_reshuffle(&mut self, path: &[NodeId], precheck: bool) -> Vec<BucketOps> {
        let s = self.config.params.s;
        let mut resets = Vec::new();
        for &node in path {
            let needs = {
                let meta = &self.bucket_mut(node).meta;
                if precheck {
                    meta.needs_reset_precheck(s)
                } else {
                    meta.needs_reset(s)
                }
            };
            if needs {
                resets.push(self.reset_bucket(node));
            }
        }
        resets
    }

    fn record_traffic(&mut self, outcome: &LevelOutcome) {
        self.stats.dram_reads += outcome.total_reads() as u64;
        self.stats.dram_writes += outcome.total_writes() as u64;
    }

    fn serve(
        &mut self,
        block: Option<BlockId>,
        op: OramOp,
        payload: Option<Payload>,
    ) -> LevelOutcome {
        let (leaf, leaf_new) = match block {
            Some(b) => self.posmap.remap(b, &mut self.rng),
            None => {
                // Dummy access: a uniformly random path, no remap.
                let l = self.rng.uniform_leaf(self.geometry.num_leaves());
                (l, l)
            }
        };
        let path = self.geometry.path(leaf);
        let mut outcome = LevelOutcome {
            leaf,
            ..LevelOutcome::default()
        };

        // LoadMetadata: one metadata block per off-chip path node.
        for &node in &path {
            if !self.is_onchip(self.geometry.level_of(node)) {
                outcome.lm_reads.push(self.layout.metadata_addr(node));
            }
        }

        // Palermo hoists the reshuffle pre-check before the path read.
        if self.hoist_early_reshuffle {
            outcome.er = self.early_reshuffle(&path, true);
        }

        // ReadPath: touch one slot in every path node; the node holding the
        // requested block contributes the real block, all others a dummy.
        for &node in &path {
            let level = self.geometry.level_of(node);
            let slots = self.config.params.slots_per_bucket() as u64;
            let (slot, taken) = {
                let bucket = self.bucket_mut(node);
                bucket.meta.touch();
                let slot = SlotIdx(((u64::from(bucket.meta.accessed) - 1) % slots) as u16);
                let taken = block.and_then(|b| bucket.take(b));
                (slot, taken)
            };
            if let Some(sb) = taken {
                self.stash.insert(
                    sb.block,
                    StashEntry {
                        leaf: leaf_new,
                        payload: sb.payload,
                        pending: false,
                    },
                );
            }
            if !self.is_onchip(level) {
                let addr = self.layout.slot_addr(node, slot);
                self.push_wide(&mut outcome.rp_reads, addr);
            }
        }

        // Commit the access to the stash: the block now lives there under its
        // freshly drawn leaf until an eviction pushes it back into the tree.
        if let Some(b) = block {
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
                    // First-ever touch of this block. A real deployment
                    // initialises the ORAM with every block already resident
                    // in the tree; the simulator materialises blocks lazily
                    // instead of allocating the full 16 GiB space. Writes go
                    // through the stash like any dirty block; reads of
                    // untouched blocks return zero and the block is placed
                    // directly along its freshly assigned path, exactly
                    // where initialisation would have left it.
                    outcome.found = false;
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

        // RingORAM ordering: reshuffle after the read path.
        if !self.hoist_early_reshuffle {
            outcome.er = self.early_reshuffle(&path, false);
        }

        // Periodic EvictPath every A accesses (real accesses only).
        if block.is_some() {
            self.round += 1;
            if self.round.is_multiple_of(u64::from(self.config.params.a)) {
                outcome.ep = Some(self.evict_path());
            }
        }

        self.record_traffic(&outcome);
        outcome
    }
}

impl LevelProtocol for RingLevel {
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

    fn small_config(z: u16, s: u16, a: u32, blocks: u64) -> LevelConfig {
        let params = OramParams::builder()
            .z(z)
            .s(s)
            .a(a)
            .num_blocks(blocks)
            .build()
            .unwrap();
        LevelConfig {
            sub: SubOram::Data,
            params,
            dram_base: 0,
            treetop_levels: 0,
            stash_capacity: 256,
            seed: 42,
            wide_factor: 1,
        }
    }

    fn engine(hoist: bool) -> RingLevel {
        RingLevel::new(small_config(4, 5, 3, 256), hoist)
    }

    #[test]
    fn write_then_read_returns_value() {
        let mut oram = engine(false);
        oram.access(BlockId(5), OramOp::Write, Some(Payload::from_u64(500)));
        let out = oram.access(BlockId(5), OramOp::Read, None);
        assert!(out.found);
        assert_eq!(out.value.unwrap().as_u64(), 500);
    }

    #[test]
    fn unwritten_block_reads_as_absent() {
        let mut oram = engine(false);
        let out = oram.access(BlockId(9), OramOp::Read, None);
        assert!(!out.found);
        assert!(out.value.is_none());
    }

    #[test]
    fn overwrite_returns_latest_value() {
        let mut oram = engine(true);
        oram.access(BlockId(1), OramOp::Write, Some(Payload::from_u64(1)));
        oram.access(BlockId(1), OramOp::Write, Some(Payload::from_u64(2)));
        let out = oram.access(BlockId(1), OramOp::Read, None);
        assert_eq!(out.value.unwrap().as_u64(), 2);
    }

    #[test]
    fn many_blocks_survive_evictions() {
        let mut oram = engine(false);
        for i in 0..200u64 {
            oram.access(BlockId(i), OramOp::Write, Some(Payload::from_u64(i * 7)));
        }
        for i in 0..200u64 {
            let out = oram.access(BlockId(i), OramOp::Read, None);
            assert_eq!(out.value.unwrap().as_u64(), i * 7, "block {i}");
        }
    }

    #[test]
    fn stash_remains_bounded_under_random_traffic() {
        let mut oram = RingLevel::new(small_config(8, 12, 8, 4096), false);
        let mut rng = OramRng::new(99);
        for i in 0..3000u64 {
            let b = BlockId(rng.gen_range(4096));
            if i % 3 == 0 {
                oram.access(b, OramOp::Write, Some(Payload::from_u64(i)));
            } else {
                oram.access(b, OramOp::Read, None);
            }
        }
        assert!(
            oram.stash_high_water() < 200,
            "stash high water {} too large",
            oram.stash_high_water()
        );
        assert_eq!(oram.stash_overflow_events(), 0);
    }

    #[test]
    fn read_path_touches_every_tree_level() {
        let mut oram = engine(false);
        let out = oram.access(BlockId(0), OramOp::Read, None);
        let levels = oram.params().levels as usize;
        // One metadata read and one slot read per path node.
        assert_eq!(out.lm_reads.len(), levels);
        assert_eq!(out.rp_reads.len(), levels);
    }

    #[test]
    fn treetop_levels_suppress_dram_traffic() {
        let mut cfg = small_config(4, 5, 3, 256);
        cfg.treetop_levels = 2;
        let mut oram = RingLevel::new(cfg, false);
        let out = oram.access(BlockId(0), OramOp::Read, None);
        let levels = oram.params().levels as usize;
        assert_eq!(out.lm_reads.len(), levels - 2);
        assert_eq!(out.rp_reads.len(), levels - 2);
    }

    #[test]
    fn evict_path_fires_every_a_accesses() {
        let mut oram = engine(false);
        let mut evictions = 0;
        for i in 0..12u64 {
            let out = oram.access(BlockId(i), OramOp::Read, None);
            if out.ep.is_some() {
                evictions += 1;
            }
        }
        assert_eq!(evictions, 4, "A=3 over 12 accesses -> 4 evictions");
        assert_eq!(oram.stats().path_evictions, 4);
    }

    #[test]
    fn bucket_resets_eventually_occur() {
        let mut oram = engine(false);
        // Hammer the same small tree so nodes run out of dummies.
        for i in 0..100u64 {
            oram.access(BlockId(i % 16), OramOp::Read, None);
        }
        assert!(oram.stats().bucket_resets > 0);
    }

    #[test]
    fn hoisted_precheck_resets_before_exhaustion() {
        // With the pre-check, no bucket should ever be read with
        // accessed > S at read time.
        let mut oram = engine(true);
        for i in 0..200u64 {
            oram.access(BlockId(i % 32), OramOp::Read, None);
        }
        let s = oram.params().s;
        for bucket in oram.buckets.values() {
            assert!(
                bucket.meta.accessed <= s,
                "bucket over-accessed: {} > {}",
                bucket.meta.accessed,
                s
            );
        }
    }

    #[test]
    fn wide_factor_multiplies_data_traffic() {
        let mut cfg = small_config(4, 5, 3, 256);
        cfg.wide_factor = 4;
        let mut oram = RingLevel::new(cfg, true);
        let out = oram.access(BlockId(1), OramOp::Read, None);
        let levels = oram.params().levels as usize;
        // Metadata reads are not widened; slot reads are.
        assert_eq!(out.lm_reads.len(), levels);
        assert_eq!(out.rp_reads.len(), levels * 4);
    }

    #[test]
    fn dummy_access_generates_path_traffic_without_state_change() {
        let mut oram = engine(false);
        oram.access(BlockId(3), OramOp::Write, Some(Payload::from_u64(3)));
        let before = oram.posmap.get(BlockId(3));
        let out = oram.dummy_access();
        assert!(!out.rp_reads.is_empty());
        assert_eq!(oram.posmap.get(BlockId(3)), before);
        assert_eq!(oram.stats().dummy_accesses, 1);
    }

    #[test]
    fn path_invariant_holds_after_traffic() {
        // Every mapped block must be either in the stash or on the path of
        // its mapped leaf (the RingORAM invariant).
        let mut oram = RingLevel::new(small_config(4, 6, 4, 512), false);
        let mut rng = OramRng::new(7);
        for i in 0..1500u64 {
            let b = BlockId(rng.gen_range(512));
            if i % 2 == 0 {
                oram.access(b, OramOp::Write, Some(Payload::from_u64(i)));
            } else {
                oram.access(b, OramOp::Read, None);
            }
        }
        let geometry = oram.geometry;
        for (node_id, bucket) in &oram.buckets {
            for sb in &bucket.real {
                let mapped = oram.posmap.get(sb.block);
                // A block resident in the tree must lie on the path of the
                // leaf it was tagged with, and if the posmap has since been
                // remapped the stash copy rule guarantees it is the same
                // (blocks are always pulled into the stash when remapped).
                assert!(
                    geometry.is_on_path(*node_id, sb.leaf),
                    "block {} stored off its path",
                    sb.block
                );
                if let Some(leaf) = mapped {
                    assert_eq!(
                        leaf, sb.leaf,
                        "tree copy of {} has a stale leaf tag",
                        sb.block
                    );
                }
            }
        }
    }
}
