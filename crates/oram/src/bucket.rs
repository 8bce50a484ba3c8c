//! Bucket (tree node) functional state and per-node metadata.
//!
//! Each node of the ORAM tree is a *bucket* holding up to `Z` real blocks
//! and (for RingORAM) at least `S` dummy blocks. The simulator keeps the
//! functional contents of touched buckets in a sparse map; untouched buckets
//! behave as if they are full of dummies.

use crate::crypto::Payload;
use crate::types::{BlockId, LeafId};

/// Per-node bookkeeping equivalent to the paper's `NodeMetadata` structure
/// (Algorithm 1): how many slots have been consumed since the last reset and
/// how many reset routines this node has undergone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeMetadata {
    /// Number of slots invalidated (touched) since the last bucket reset.
    pub accessed: u16,
    /// Total number of reset routines this bucket has undergone.
    pub resets: u64,
}

impl NodeMetadata {
    /// Returns `true` if another read would exceed the dummy budget `s`,
    /// i.e. the bucket must be reset before (Palermo) or after (RingORAM)
    /// serving further accesses.
    pub fn needs_reset(&self, s: u16) -> bool {
        self.accessed >= s
    }

    /// Palermo's `EarlyReshufflePreCheck`: reset one access *earlier* so the
    /// bucket is guaranteed usable by the read that is about to be issued.
    pub fn needs_reset_precheck(&self, s: u16) -> bool {
        s > 0 && self.accessed >= s - 1
    }

    /// Records that a slot of this bucket was consumed by a path read.
    pub fn touch(&mut self) {
        self.accessed = self.accessed.saturating_add(1);
    }

    /// Clears the access counter after a reset routine.
    pub fn reset(&mut self) {
        self.accessed = 0;
        self.resets += 1;
    }
}

/// A real block stored in a bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredBlock {
    /// Logical block identifier within this sub-ORAM's space.
    pub block: BlockId,
    /// The leaf this block was mapped to when it was written here.
    pub leaf: LeafId,
    /// The block's payload; `None` for blocks that exist in the position map
    /// but have never been written by the program (they read back as zero).
    pub payload: Option<Payload>,
}

/// Functional state of one bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BucketState {
    /// Access-tracking metadata (mirrors what RingORAM keeps in DRAM).
    pub meta: NodeMetadata,
    /// Real blocks currently resident in this bucket.
    pub real: Vec<StoredBlock>,
}

impl BucketState {
    /// Creates an empty bucket.
    pub fn new() -> Self {
        BucketState::default()
    }

    /// Number of real blocks stored.
    pub fn occupancy(&self) -> usize {
        self.real.len()
    }

    /// Returns `true` if the bucket currently holds `block`.
    pub fn contains(&self, block: BlockId) -> bool {
        self.real.iter().any(|b| b.block == block)
    }

    /// Removes and returns the stored copy of `block`, if present.
    pub fn take(&mut self, block: BlockId) -> Option<StoredBlock> {
        let idx = self.real.iter().position(|b| b.block == block)?;
        Some(self.real.swap_remove(idx))
    }

    /// Removes and returns *all* real blocks (used by bucket resets, which
    /// pull the remaining valid blocks into the stash before rewriting).
    pub fn drain(&mut self) -> Vec<StoredBlock> {
        std::mem::take(&mut self.real)
    }

    /// Inserts a real block.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the bucket already holds a copy of the
    /// block; the protocol invariant is that at most one copy of a block
    /// exists anywhere in the tree + stash.
    pub fn push(&mut self, block: StoredBlock) {
        debug_assert!(
            !self.contains(block.block),
            "bucket already holds {}",
            block.block
        );
        self.real.push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(id: u64, leaf: u64) -> StoredBlock {
        StoredBlock {
            block: BlockId(id),
            leaf: LeafId(leaf),
            payload: Some(Payload::from_u64(id * 100)),
        }
    }

    #[test]
    fn metadata_reset_thresholds() {
        let mut m = NodeMetadata::default();
        assert!(!m.needs_reset(3));
        m.touch();
        m.touch();
        assert!(!m.needs_reset(3));
        assert!(m.needs_reset_precheck(3), "precheck fires one access early");
        m.touch();
        assert!(m.needs_reset(3));
        m.reset();
        assert_eq!(m.accessed, 0);
        assert_eq!(m.resets, 1);
    }

    #[test]
    fn precheck_with_zero_s_never_fires() {
        let m = NodeMetadata::default();
        assert!(!m.needs_reset_precheck(0));
    }

    #[test]
    fn bucket_take_and_push() {
        let mut b = BucketState::new();
        assert_eq!(b.occupancy(), 0);
        b.push(sb(1, 0));
        b.push(sb(2, 1));
        assert_eq!(b.occupancy(), 2);
        assert!(b.contains(BlockId(1)));
        let taken = b.take(BlockId(1)).unwrap();
        assert_eq!(taken.block, BlockId(1));
        assert_eq!(taken.payload.unwrap().as_u64(), 100);
        assert!(!b.contains(BlockId(1)));
        assert!(b.take(BlockId(42)).is_none());
    }

    #[test]
    fn drain_empties_bucket() {
        let mut b = BucketState::new();
        b.push(sb(1, 0));
        b.push(sb(2, 0));
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already holds")]
    fn duplicate_push_panics_in_debug() {
        let mut b = BucketState::new();
        b.push(sb(1, 0));
        b.push(sb(1, 1));
    }
}
