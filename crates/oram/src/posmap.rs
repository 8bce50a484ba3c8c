//! Position maps.
//!
//! The position map records, for every logical block, the ORAM-tree leaf it
//! is currently mapped to. The *logical content* of each level's position
//! map is kept in a hash map here; the *cost of accessing it* is modelled by
//! the recursive sub-ORAM accesses generated by the hierarchy
//! (`PosMap1`/`PosMap2` trees, `PosMap3` on chip).

use crate::rng::OramRng;
use crate::types::{BlockId, LeafId};
#[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
use std::collections::HashMap;

/// The logical position map of one sub-ORAM level.
///
/// Blocks that have never been accessed have no entry; their leaf is
/// assigned uniformly at random on first touch, exactly as a freshly
/// initialised ORAM would behave.
#[derive(Debug, Clone, Default)]
pub struct PositionMap {
    #[allow(
        clippy::disallowed_types,
        reason = "keyed O(1) lookups on the hot path; no simulation-state iteration"
    )]
    map: HashMap<BlockId, LeafId>,
    num_leaves: u64,
}

impl PositionMap {
    /// Creates an empty position map over a tree with `num_leaves` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves` is zero.
    pub fn new(num_leaves: u64) -> Self {
        assert!(num_leaves > 0, "num_leaves must be non-zero");
        PositionMap {
            #[allow(clippy::disallowed_types, reason = "sanctioned at the field")]
            map: HashMap::new(),
            num_leaves,
        }
    }

    /// Number of leaves of the tree this map points into.
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// Number of blocks with an assigned mapping.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no blocks have been mapped yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns the current leaf for `block` without modifying the map.
    pub fn get(&self, block: BlockId) -> Option<LeafId> {
        self.map.get(&block).copied()
    }

    /// Returns the leaf for `block`, assigning a fresh uniform leaf if the
    /// block has never been mapped.
    pub fn lookup_or_assign(&mut self, block: BlockId, rng: &mut OramRng) -> LeafId {
        let leaves = self.num_leaves;
        *self
            .map
            .entry(block)
            .or_insert_with(|| rng.uniform_leaf(leaves))
    }

    /// Performs the remap step of an ORAM access: returns the block's
    /// current leaf (assigning one if absent) and installs a fresh,
    /// independently drawn leaf as its new mapping.
    pub fn remap(&mut self, block: BlockId, rng: &mut OramRng) -> (LeafId, LeafId) {
        let current = self.lookup_or_assign(block, rng);
        let fresh = rng.uniform_leaf(self.num_leaves);
        self.map.insert(block, fresh);
        (current, fresh)
    }

    /// Overwrites the mapping for `block` (used by grouped-prefetch schemes
    /// that force several blocks onto one leaf).
    pub fn set(&mut self, block: BlockId, leaf: LeafId) {
        self.map.insert(block, leaf);
    }

    /// Iterates over all `(block, leaf)` mappings in arbitrary order.
    ///
    /// The order is explicitly **not** part of any contract: consumers are
    /// order-insensitive (entry counting, invariant validation). Simulation
    /// state must never fold over this iterator — that would reintroduce the
    /// nondeterminism the `Stash` fix removed.
    #[allow(
        clippy::disallowed_methods,
        reason = "order-insensitive consumers only: counting and validation"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &LeafId)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_or_assign_is_sticky() {
        let mut pm = PositionMap::new(64);
        let mut rng = OramRng::new(1);
        let a = pm.lookup_or_assign(BlockId(7), &mut rng);
        let b = pm.lookup_or_assign(BlockId(7), &mut rng);
        assert_eq!(a, b, "repeated lookups must not remap");
        assert_eq!(pm.get(BlockId(7)), Some(a));
        assert_eq!(pm.len(), 1);
    }

    #[test]
    fn remap_returns_old_and_installs_new() {
        let mut pm = PositionMap::new(1024);
        let mut rng = OramRng::new(2);
        let (old, new) = pm.remap(BlockId(3), &mut rng);
        assert_eq!(pm.get(BlockId(3)), Some(new));
        // With 1024 leaves a collision between old and new is unlikely but
        // legal; what matters is the stored value is the new one.
        let (old2, _) = pm.remap(BlockId(3), &mut rng);
        assert_eq!(old2, new);
        let _ = old;
    }

    #[test]
    fn unmapped_block_returns_none() {
        let pm = PositionMap::new(8);
        assert!(pm.is_empty());
        assert_eq!(pm.get(BlockId(0)), None);
    }

    #[test]
    fn remapped_leaves_are_roughly_uniform() {
        let mut pm = PositionMap::new(8);
        let mut rng = OramRng::new(3);
        let mut counts = [0u64; 8];
        for i in 0..40_000u64 {
            let (_, new) = pm.remap(BlockId(i % 16), &mut rng);
            counts[new.0 as usize] += 1;
        }
        let expected = 40_000.0 / 8.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 24.3, "leaf selection not uniform, chi2 = {chi2}");
    }

    #[test]
    fn set_overrides_mapping() {
        let mut pm = PositionMap::new(16);
        pm.set(BlockId(5), LeafId(9));
        assert_eq!(pm.get(BlockId(5)), Some(LeafId(9)));
        assert_eq!(pm.iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_leaves_panics() {
        PositionMap::new(0);
    }
}
