//! ORAM binary-tree geometry.
//!
//! The ORAM tree is a complete binary tree whose nodes are buckets. Nodes
//! are numbered in level order (root = 0), and a leaf's path is the set of
//! nodes from the root down to that leaf. All protocol variants reason in
//! terms of these paths, so the geometry helpers here are shared by
//! PathORAM, RingORAM and Palermo.

use crate::types::{LeafId, NodeId};

/// Geometry of a complete binary ORAM tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeGeometry {
    num_leaves: u64,
    levels: u32,
}

impl TreeGeometry {
    /// Creates the geometry for a tree with `num_leaves` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves` is zero or not a power of two.
    pub fn new(num_leaves: u64) -> Self {
        assert!(
            num_leaves > 0 && num_leaves.is_power_of_two(),
            "num_leaves must be a non-zero power of two, got {num_leaves}"
        );
        TreeGeometry {
            num_leaves,
            levels: num_leaves.trailing_zeros() + 1,
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// Number of levels (root level and leaf level inclusive).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Total number of nodes in the tree.
    pub fn num_nodes(&self) -> u64 {
        2 * self.num_leaves - 1
    }

    /// The tree level of `node` (0 = root).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn level_of(&self, node: NodeId) -> u32 {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        (64 - (node.0 + 1).leading_zeros()) - 1
    }

    /// The node at `level` on the path from the root to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` or `level` is out of range.
    pub fn node_on_path(&self, leaf: LeafId, level: u32) -> NodeId {
        assert!(leaf.0 < self.num_leaves, "leaf {leaf} out of range");
        assert!(level < self.levels, "level {level} out of range");
        let idx_in_level = leaf.0 >> (self.levels - 1 - level);
        NodeId(((1u64 << level) - 1) + idx_in_level)
    }

    /// The nodes on the path from the root to `leaf`, root first.
    pub fn path(&self, leaf: LeafId) -> Vec<NodeId> {
        (0..self.levels)
            .map(|level| self.node_on_path(leaf, level))
            .collect()
    }

    /// Returns `true` if `node` lies on the path from the root to `leaf`.
    pub fn is_on_path(&self, node: NodeId, leaf: LeafId) -> bool {
        let level = self.level_of(node);
        self.node_on_path(leaf, level) == node
    }

    /// Number of levels (counting from the root) shared by the paths of two
    /// leaves. The result is at least 1 (the root is always shared) and at
    /// most [`TreeGeometry::levels`] (identical leaves).
    pub fn common_path_depth(&self, a: LeafId, b: LeafId) -> u32 {
        assert!(
            a.0 < self.num_leaves && b.0 < self.num_leaves,
            "leaf out of range"
        );
        if self.levels == 1 {
            return 1;
        }
        let diff = a.0 ^ b.0;
        if diff == 0 {
            return self.levels;
        }
        let highest_diff_bit = 63 - diff.leading_zeros(); // 0-based
                                                          // The leaf index has `levels - 1` significant bits; the number of
                                                          // shared most-significant bits is how deep the paths stay together.
        let shared_bits = (self.levels - 1) - (highest_diff_bit + 1);
        shared_bits + 1
    }

    /// The eviction leaf for the `g`-th `EvictPath`, following RingORAM's
    /// deterministic reverse-lexicographic order (bit-reversed counter).
    /// The sequence is public and independent of program behaviour.
    pub fn eviction_leaf(&self, g: u64) -> LeafId {
        if self.num_leaves == 1 {
            return LeafId(0);
        }
        let bits = self.levels - 1;
        let masked = g & (self.num_leaves - 1);
        LeafId(masked.reverse_bits() >> (64 - bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(leaves: u64) -> TreeGeometry {
        TreeGeometry::new(leaves)
    }

    #[test]
    fn basic_counts() {
        let g = geom(8);
        assert_eq!(g.levels(), 4);
        assert_eq!(g.num_nodes(), 15);
        assert_eq!(g.num_leaves(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        geom(6);
    }

    #[test]
    fn single_leaf_tree() {
        let g = geom(1);
        assert_eq!(g.levels(), 1);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.path(LeafId(0)), vec![NodeId(0)]);
        assert_eq!(g.common_path_depth(LeafId(0), LeafId(0)), 1);
        assert_eq!(g.eviction_leaf(5), LeafId(0));
    }

    #[test]
    fn level_of_matches_level_order_numbering() {
        let g = geom(8);
        assert_eq!(g.level_of(NodeId(0)), 0);
        assert_eq!(g.level_of(NodeId(1)), 1);
        assert_eq!(g.level_of(NodeId(2)), 1);
        assert_eq!(g.level_of(NodeId(3)), 2);
        assert_eq!(g.level_of(NodeId(6)), 2);
        assert_eq!(g.level_of(NodeId(7)), 3);
        assert_eq!(g.level_of(NodeId(14)), 3);
    }

    #[test]
    fn path_walks_root_to_leaf() {
        let g = geom(8);
        assert_eq!(
            g.path(LeafId(0)),
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(7)]
        );
        assert_eq!(
            g.path(LeafId(7)),
            vec![NodeId(0), NodeId(2), NodeId(6), NodeId(14)]
        );
        assert_eq!(
            g.path(LeafId(5)),
            vec![NodeId(0), NodeId(2), NodeId(5), NodeId(12)]
        );
    }

    #[test]
    fn parent_child_consistency() {
        let g = geom(16);
        // Level order: the children of node n are 2n + 1 and 2n + 2.
        for n in 0..g.num_nodes() {
            let (l, r) = (2 * n + 1, 2 * n + 2);
            if r < g.num_nodes() {
                assert_eq!((l - 1) / 2, n);
                assert_eq!((r - 1) / 2, n);
                assert_eq!(g.level_of(NodeId(l)), g.level_of(NodeId(n)) + 1);
                assert_eq!(g.level_of(NodeId(r)), g.level_of(NodeId(n)) + 1);
            }
        }
    }

    #[test]
    fn path_membership() {
        let g = geom(8);
        for leaf in 0..8 {
            let leaf = LeafId(leaf);
            for node in g.path(leaf) {
                assert!(g.is_on_path(node, leaf));
            }
        }
        assert!(!g.is_on_path(NodeId(7), LeafId(7)));
        assert!(g.is_on_path(NodeId(0), LeafId(3)), "root on every path");
    }

    #[test]
    fn common_path_depth_examples() {
        let g = geom(8);
        assert_eq!(g.common_path_depth(LeafId(0), LeafId(0)), 4);
        assert_eq!(g.common_path_depth(LeafId(0), LeafId(1)), 3);
        assert_eq!(g.common_path_depth(LeafId(0), LeafId(2)), 2);
        assert_eq!(g.common_path_depth(LeafId(0), LeafId(7)), 1);
        assert_eq!(g.common_path_depth(LeafId(6), LeafId(7)), 3);
    }

    #[test]
    fn common_path_depth_is_symmetric_and_matches_paths() {
        let g = geom(16);
        for a in 0..16 {
            for b in 0..16 {
                let (a, b) = (LeafId(a), LeafId(b));
                let d = g.common_path_depth(a, b);
                assert_eq!(d, g.common_path_depth(b, a));
                let pa = g.path(a);
                let pb = g.path(b);
                let shared = pa.iter().zip(&pb).take_while(|(x, y)| x == y).count();
                assert_eq!(d as usize, shared);
            }
        }
    }

    #[test]
    fn eviction_leaf_cycles_through_all_leaves() {
        let g = geom(16);
        let mut seen = [false; 16];
        for i in 0..16 {
            seen[g.eviction_leaf(i).0 as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "eviction order must cover all leaves"
        );
        // Reverse-lexicographic: consecutive counters map to far-apart leaves.
        assert_eq!(g.eviction_leaf(0), LeafId(0));
        assert_eq!(g.eviction_leaf(1), LeafId(8));
        assert_eq!(g.eviction_leaf(2), LeafId(4));
    }
}
