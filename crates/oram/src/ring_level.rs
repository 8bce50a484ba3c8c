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

use crate::crypto::Payload;
use crate::level::{BucketOps, LevelConfig, LevelCore, LevelOutcome};
use crate::stash::StashEntry;
use crate::types::{BlockId, NodeId, OramOp, SlotIdx};

/// Functional RingORAM / Palermo engine for one tree.
#[derive(Debug, Clone)]
pub struct RingLevel {
    pub(crate) core: LevelCore,
    /// Accesses since construction; every `a`-th access schedules an EvictPath.
    round: u64,
    /// RingORAM's deterministic eviction-leaf counter `G`.
    evict_counter: u64,
    /// Palermo hoists the reshuffle pre-check before the path read.
    hoist_early_reshuffle: bool,
}

impl RingLevel {
    /// Creates a new engine.
    ///
    /// `hoist_early_reshuffle` selects between the RingORAM ordering
    /// (`false`) and the Palermo pre-check ordering (`true`).
    pub fn new(config: LevelConfig, hoist_early_reshuffle: bool) -> Self {
        let params = config.params;
        let capacity = vec![usize::from(params.z); params.levels as usize];
        RingLevel {
            core: LevelCore::new(config, u64::from(params.slots_per_bucket()), capacity),
            round: 0,
            evict_counter: 0,
            hoist_early_reshuffle,
        }
    }

    /// Serves one access to `block`, or with `None` a dummy access to a
    /// uniformly random path (background evictions and request-rate
    /// padding), which remaps nothing and schedules no EvictPath. For
    /// writes, `payload` carries the new block contents.
    pub fn access(
        &mut self,
        block: Option<BlockId>,
        op: OramOp,
        payload: Option<Payload>,
    ) -> LevelOutcome {
        let (leaf, leaf_new) = self.core.leaves(block);
        let path = self.core.geometry.path(leaf);
        let mut outcome = LevelOutcome::default();

        // LoadMetadata: one metadata block per off-chip path node.
        for &node in &path {
            if !self.core.is_onchip(node) {
                outcome.lm_reads.push(self.core.layout.metadata_addr(node));
            }
        }

        // Palermo hoists the reshuffle pre-check before the path read.
        if self.hoist_early_reshuffle {
            outcome.er = self.early_reshuffle(&path, true);
        }

        // ReadPath: touch one slot in every path node; the node holding the
        // requested block contributes the real block, all others a dummy.
        let slots = u64::from(self.core.config.params.slots_per_bucket());
        for &node in &path {
            let bucket = self.core.bucket_mut(node);
            bucket.meta.touch();
            let slot = SlotIdx(((u64::from(bucket.meta.accessed) - 1) % slots) as u16);
            if let Some(sb) = block.and_then(|b| bucket.take(b)) {
                self.core.stash.insert(
                    sb.block,
                    StashEntry {
                        leaf: leaf_new,
                        payload: sb.payload,
                        pending: false,
                    },
                );
            }
            if !self.core.is_onchip(node) {
                let addr = self.core.layout.slot_addr(node, slot);
                self.core.push_wide(&mut outcome.rp_reads, addr);
            }
        }

        // The block now lives in the stash under its freshly drawn leaf
        // until an eviction pushes it back into the tree.
        if let Some(b) = block {
            (outcome.value, outcome.found) = self.core.commit(b, op, payload, leaf_new);
        }

        // RingORAM ordering: reshuffle after the read path.
        if !self.hoist_early_reshuffle {
            outcome.er = self.early_reshuffle(&path, false);
        }

        // Periodic EvictPath every A accesses (real accesses only).
        if block.is_some() {
            self.round += 1;
            if self
                .round
                .is_multiple_of(u64::from(self.core.config.params.a))
            {
                outcome.ep = Some(self.evict_path());
            }
        }
        outcome
    }

    /// Executes the `ResetBucket` routine of Algorithm 1 on `node`:
    /// pulls the remaining valid blocks into the stash, pushes back as many
    /// fitting stash blocks as capacity allows, and rewrites the bucket.
    fn reset_bucket(&mut self, node: NodeId) -> BucketOps {
        let core = &mut self.core;
        core.drain_to_stash(node);
        // Stash blocks whose leaf path passes through `node`, in ascending
        // block order.
        let fitting = core
            .stash
            .iter()
            .filter(|(_, e)| !e.pending && core.geometry.is_on_path(node, e.leaf))
            .map(|(b, _)| *b)
            .collect();
        core.fill_from_stash(node, fitting);
        core.bucket_mut(node).meta.reset();

        // DRAM traffic: the fetch offsets are padded to Z reads and the whole
        // bucket (all Z + S slots) is re-encrypted and rewritten.
        let mut ops = BucketOps::default();
        if !core.is_onchip(node) {
            let params = core.config.params;
            core.push_slots(&mut ops.reads, node, u64::from(params.z));
            core.push_slots(&mut ops.writes, node, u64::from(params.slots_per_bucket()));
            // The rewritten permutation is recorded in the metadata block.
            ops.writes.push(core.layout.metadata_addr(node));
        }
        ops
    }

    /// Executes `EvictPath` along the deterministic eviction leaf sequence.
    fn evict_path(&mut self) -> BucketOps {
        let leaf = self.core.geometry.eviction_leaf(self.evict_counter);
        self.evict_counter += 1;

        let mut aggregate = BucketOps::default();
        // Reset deepest-first so blocks settle as close to the leaves as
        // possible, which is what keeps the stash bounded.
        for node in self.core.geometry.path(leaf).into_iter().rev() {
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
        let s = self.core.config.params.s;
        let mut resets = Vec::new();
        for &node in path {
            let meta = self.core.bucket_mut(node).meta;
            let needs = if precheck {
                meta.needs_reset_precheck(s)
            } else {
                meta.needs_reset(s)
            };
            if needs {
                resets.push(self.reset_bucket(node));
            }
        }
        resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OramParams;
    use crate::rng::OramRng;
    use crate::types::SubOram;

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

    fn write(oram: &mut RingLevel, block: u64, value: u64) -> LevelOutcome {
        let payload = Some(Payload::from_u64(value));
        oram.access(Some(BlockId(block)), OramOp::Write, payload)
    }

    fn read(oram: &mut RingLevel, block: u64) -> LevelOutcome {
        oram.access(Some(BlockId(block)), OramOp::Read, None)
    }

    #[test]
    fn write_then_read_returns_value() {
        let mut oram = engine(false);
        write(&mut oram, 5, 500);
        let out = read(&mut oram, 5);
        assert!(out.found);
        assert_eq!(out.value.unwrap().as_u64(), 500);
    }

    #[test]
    fn unwritten_block_reads_as_absent() {
        let mut oram = engine(false);
        let out = read(&mut oram, 9);
        assert!(!out.found);
        assert!(out.value.is_none());
    }

    #[test]
    fn overwrite_returns_latest_value() {
        let mut oram = engine(true);
        write(&mut oram, 1, 1);
        write(&mut oram, 1, 2);
        let out = read(&mut oram, 1);
        assert_eq!(out.value.unwrap().as_u64(), 2);
    }

    #[test]
    fn many_blocks_survive_evictions() {
        let mut oram = engine(false);
        for i in 0..200u64 {
            write(&mut oram, i, i * 7);
        }
        for i in 0..200u64 {
            let out = read(&mut oram, i);
            assert_eq!(out.value.unwrap().as_u64(), i * 7, "block {i}");
        }
    }

    #[test]
    fn stash_remains_bounded_under_random_traffic() {
        let mut oram = RingLevel::new(small_config(8, 12, 8, 4096), false);
        let mut rng = OramRng::new(99);
        for i in 0..3000u64 {
            let b = rng.gen_range(4096);
            if i % 3 == 0 {
                write(&mut oram, b, i);
            } else {
                read(&mut oram, b);
            }
        }
        let stash = &oram.core.stash;
        assert!(
            stash.high_water() < 200,
            "stash high water {} too large",
            stash.high_water()
        );
        assert_eq!(stash.overflow_events(), 0);
    }

    #[test]
    fn read_path_touches_every_tree_level() {
        let mut oram = engine(false);
        let out = read(&mut oram, 0);
        let levels = oram.core.config.params.levels as usize;
        // One metadata read and one slot read per path node.
        assert_eq!(out.lm_reads.len(), levels);
        assert_eq!(out.rp_reads.len(), levels);
    }

    #[test]
    fn treetop_levels_suppress_dram_traffic() {
        let mut cfg = small_config(4, 5, 3, 256);
        cfg.treetop_levels = 2;
        let mut oram = RingLevel::new(cfg, false);
        let out = read(&mut oram, 0);
        let levels = cfg.params.levels as usize;
        assert_eq!(out.lm_reads.len(), levels - 2);
        assert_eq!(out.rp_reads.len(), levels - 2);
    }

    #[test]
    fn evict_path_fires_every_a_accesses() {
        let mut oram = engine(false);
        let evictions = (0..12u64)
            .filter(|&i| read(&mut oram, i).ep.is_some())
            .count();
        assert_eq!(evictions, 4, "A=3 over 12 accesses -> 4 evictions");
    }

    #[test]
    fn bucket_resets_eventually_occur() {
        // A = 1000: no EvictPath resets a bucket within these accesses, so
        // every reset seen here is an early reshuffle.
        let mut oram = RingLevel::new(small_config(4, 5, 1000, 256), false);
        // Hammer the same small tree so nodes run out of dummies.
        let mut reshuffles = 0;
        for i in 0..100u64 {
            let out = read(&mut oram, i % 16);
            assert!(out.ep.is_none());
            reshuffles += out.er.len();
        }
        assert!(reshuffles > 0);
    }

    #[test]
    fn hoisted_precheck_resets_before_exhaustion() {
        // With the pre-check, no bucket should ever be read with
        // accessed > S at read time.
        let mut oram = engine(true);
        for i in 0..200u64 {
            read(&mut oram, i % 32);
        }
        let s = oram.core.config.params.s;
        for bucket in oram.core.buckets.values() {
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
        let out = read(&mut oram, 1);
        let levels = cfg.params.levels as usize;
        // Metadata reads are not widened; slot reads are.
        assert_eq!(out.lm_reads.len(), levels);
        assert_eq!(out.rp_reads.len(), levels * 4);
    }

    #[test]
    fn dummy_access_generates_path_traffic_without_state_change() {
        let mut oram = engine(false);
        write(&mut oram, 3, 3);
        let before = oram.core.posmap.get(BlockId(3));
        let out = oram.access(None, OramOp::Read, None);
        assert!(!out.rp_reads.is_empty());
        assert!(out.ep.is_none());
        assert_eq!(oram.core.posmap.get(BlockId(3)), before);
        assert_eq!(oram.core.posmap.len(), 1, "a dummy access maps no block");
    }

    #[test]
    fn path_invariant_holds_after_traffic() {
        // Every mapped block must be either in the stash or on the path of
        // its mapped leaf (the RingORAM invariant).
        let mut oram = RingLevel::new(small_config(4, 6, 4, 512), false);
        let mut rng = OramRng::new(7);
        for i in 0..1500u64 {
            let b = rng.gen_range(512);
            if i % 2 == 0 {
                write(&mut oram, b, i);
            } else {
                read(&mut oram, b);
            }
        }
        let core = &oram.core;
        for (node_id, bucket) in &core.buckets {
            for sb in &bucket.real {
                let mapped = core.posmap.get(sb.block);
                // A block resident in the tree must lie on the path of the
                // leaf it was tagged with, and if the posmap has since been
                // remapped the stash copy rule guarantees it is the same
                // (blocks are always pulled into the stash when remapped).
                assert!(
                    core.geometry.is_on_path(*node_id, sb.leaf),
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
