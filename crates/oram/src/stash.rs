//! The on-chip stash.
//!
//! The stash temporarily holds blocks pulled off the ORAM tree until an
//! eviction or bucket reset pushes them back. A hardware controller must
//! keep the stash small (256 entries in the paper) and bound its occupancy;
//! the simulator tracks the high-water mark and overflow events so the
//! Fig. 4 (PrORAM dummy-request pressure) and Fig. 12 (Palermo boundedness)
//! experiments can be reproduced.

use crate::crypto::Payload;
use crate::types::{BlockId, LeafId};
use std::collections::BTreeMap;

/// One stash entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StashEntry {
    /// The leaf this block is currently mapped to.
    pub leaf: LeafId,
    /// The block payload (`None` if the program has never written it).
    pub payload: Option<Payload>,
    /// Set while an ORAM request for this block is in flight but its value
    /// has not yet been committed back to the tree (Palermo's "pending"
    /// marker in Algorithm 2, line 7).
    pub pending: bool,
}

/// A bounded stash with occupancy tracking.
///
/// Entries are kept in a `BTreeMap` so that *every* traversal of the stash
/// is in ascending [`BlockId`] order, independent of insertion history. The
/// eviction scans iterate the stash each cycle; with a hash map their order
/// would depend on `RandomState`'s per-process seed — exactly the hazard
/// class the D01 determinism lint exists to keep out of the simulator.
#[derive(Debug, Clone, Default)]
pub struct Stash {
    entries: BTreeMap<BlockId, StashEntry>,
    capacity: usize,
    high_water: usize,
    overflow_events: u64,
}

impl Stash {
    /// Creates a stash with the given hardware capacity (entry count).
    pub fn new(capacity: usize) -> Self {
        Stash {
            entries: BTreeMap::new(),
            capacity,
            high_water: 0,
            overflow_events: 0,
        }
    }

    /// Hardware capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the stash holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest occupancy observed since construction.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of times an insert pushed occupancy above capacity.
    pub fn overflow_events(&self) -> u64 {
        self.overflow_events
    }

    /// Returns a reference to the entry for `block`, if present.
    pub fn get(&self, block: BlockId) -> Option<&StashEntry> {
        self.entries.get(&block)
    }

    /// Returns a mutable reference to the entry for `block`, if present.
    pub fn get_mut(&mut self, block: BlockId) -> Option<&mut StashEntry> {
        self.entries.get_mut(&block)
    }

    /// Returns `true` if `block` is in the stash.
    pub fn contains(&self, block: BlockId) -> bool {
        self.entries.contains_key(&block)
    }

    /// Inserts or replaces the entry for `block`, updating the high-water
    /// mark and overflow counter.
    pub fn insert(&mut self, block: BlockId, entry: StashEntry) {
        self.entries.insert(block, entry);
        if self.entries.len() > self.high_water {
            self.high_water = self.entries.len();
        }
        if self.entries.len() > self.capacity {
            self.overflow_events += 1;
        }
    }

    /// Removes and returns the entry for `block`.
    pub fn remove(&mut self, block: BlockId) -> Option<StashEntry> {
        self.entries.remove(&block)
    }

    /// Iterates over `(block, entry)` pairs in ascending [`BlockId`] order.
    ///
    /// The order is part of the determinism contract: callers (e.g. the
    /// group-remap retagging in `path_level`) may fold over the stash while
    /// mutating simulation state, and identical runs must visit entries
    /// identically.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &StashEntry)> {
        self.entries.iter()
    }

    /// Collects the blocks that may be placed in a bucket at tree level
    /// `level` on the path to `path_leaf`: those whose own leaf path shares
    /// the bucket, and which are not pending.
    ///
    /// `common_depth(block_leaf)` must return the number of levels (from the
    /// root) shared between the block's path and the write-back path.
    pub fn eviction_candidates<F>(&self, level: u32, common_depth: F) -> Vec<BlockId>
    where
        F: Fn(LeafId) -> u32,
    {
        // BTreeMap iteration is already in ascending BlockId order, which is
        // the deterministic order that keeps simulations reproducible (the
        // explicit sort the HashMap version needed is now structural).
        self.entries
            .iter()
            .filter(|(_, e)| !e.pending && common_depth(e.leaf) > level)
            .map(|(b, _)| *b)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(leaf: u64) -> StashEntry {
        StashEntry {
            leaf: LeafId(leaf),
            payload: Some(Payload::from_u64(leaf)),
            pending: false,
        }
    }

    #[test]
    fn insert_remove_and_len() {
        let mut s = Stash::new(4);
        assert!(s.is_empty());
        s.insert(BlockId(1), entry(0));
        s.insert(BlockId(2), entry(1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(BlockId(1)));
        assert_eq!(s.remove(BlockId(1)).unwrap().leaf, LeafId(0));
        assert!(!s.contains(BlockId(1)));
        assert_eq!(s.len(), 1);
        assert!(s.get(BlockId(2)).is_some());
        assert!(s.get(BlockId(3)).is_none());
    }

    #[test]
    fn high_water_and_overflow_tracking() {
        let mut s = Stash::new(2);
        s.insert(BlockId(1), entry(0));
        s.insert(BlockId(2), entry(0));
        assert_eq!(s.high_water(), 2);
        assert_eq!(s.overflow_events(), 0);
        s.insert(BlockId(3), entry(0));
        assert_eq!(s.high_water(), 3);
        assert_eq!(s.overflow_events(), 1);
        s.remove(BlockId(3));
        // High water does not shrink.
        assert_eq!(s.high_water(), 3);
    }

    #[test]
    fn replacing_entry_does_not_grow() {
        let mut s = Stash::new(4);
        s.insert(BlockId(1), entry(0));
        s.insert(BlockId(1), entry(5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(BlockId(1)).unwrap().leaf, LeafId(5));
    }

    #[test]
    fn eviction_candidates_respect_level_and_pending() {
        let mut s = Stash::new(16);
        s.insert(BlockId(1), entry(0)); // shares 3 levels
        s.insert(BlockId(2), entry(1)); // shares 2 levels
        let mut pending = entry(0);
        pending.pending = true;
        s.insert(BlockId(3), pending); // excluded: pending

        // Pretend common depth = 3 for leaf 0, 2 for leaf 1.
        let depth = |leaf: LeafId| if leaf.0 == 0 { 3 } else { 2 };
        let at_level2 = s.eviction_candidates(2, depth);
        assert_eq!(at_level2, vec![BlockId(1)]);
        let at_level1 = s.eviction_candidates(1, depth);
        assert_eq!(at_level1, vec![BlockId(1), BlockId(2)]);
        let at_level3 = s.eviction_candidates(3, depth);
        assert!(at_level3.is_empty());
    }

    #[test]
    fn iteration_order_is_insertion_independent() {
        // Two stashes with the same contents inserted in opposite orders
        // must traverse identically — both in `iter()` and in the eviction
        // scan. (With the former HashMap backing, each instance drew its own
        // RandomState seed, so these sequences disagreed between instances
        // and between runs.)
        let ids = [7u64, 1, 42, 3, 19, 0, 255, 8];
        let mut fwd = Stash::new(16);
        let mut rev = Stash::new(16);
        for &i in &ids {
            fwd.insert(BlockId(i), entry(i));
        }
        for &i in ids.iter().rev() {
            rev.insert(BlockId(i), entry(i));
        }
        let seq_fwd: Vec<BlockId> = fwd.iter().map(|(b, _)| *b).collect();
        let seq_rev: Vec<BlockId> = rev.iter().map(|(b, _)| *b).collect();
        assert_eq!(seq_fwd, seq_rev);
        let mut sorted = ids.map(BlockId).to_vec();
        sorted.sort_unstable();
        assert_eq!(seq_fwd, sorted, "traversal is ascending BlockId order");
        let depth = |_| 5;
        assert_eq!(
            fwd.eviction_candidates(2, depth),
            rev.eviction_candidates(2, depth)
        );
    }
}
