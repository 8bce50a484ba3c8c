//! A flat tournament tree maintaining running minima over a fixed set of
//! slots — the O(log B) min structure the per-bank scheduler caches hang off.
//!
//! Each DRAM channel keeps one tree per FR-FCFS pass (column / activate /
//! precharge), with one leaf per bank holding that bank's *bank-local*
//! earliest-ready cycle for the pass (`u64::MAX` when the bank has no
//! candidate). Bank-local values only change when a command issues to that
//! bank or its queue membership changes, so a single O(log B) [`MinTree::set`]
//! keeps the structure current while cold banks are never rescanned. The
//! channel-global constraints (command-bus spacing, tCCD_L, tRRD, tFAW) are
//! applied at query time per bank group, which is why [`MinTree::subtree_min`]
//! exposes the minimum of an aligned block: banks are laid out
//! bank-group-major and every group width is a power of two, so each group
//! is one subtree whose minimum combines with the group's global floor.

/// Fixed-size tournament (segment) tree over `u64` values with `min` as the
/// combining operation. Missing values are represented as `u64::MAX`.
#[derive(Debug, Clone)]
pub struct MinTree {
    /// Leaf count (a power of two); leaves live at `vals[n..2 * n]`.
    n: usize,
    vals: Vec<u64>,
}

impl MinTree {
    /// Creates a tree over `leaves` slots, all initialised to `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves` is a power of two (a validated geometry's
    /// bank count always is).
    pub fn new(leaves: usize) -> Self {
        assert!(leaves.is_power_of_two(), "{leaves} leaves");
        MinTree {
            n: leaves,
            vals: vec![u64::MAX; 2 * leaves],
        }
    }

    /// Sets slot `i` to `v` and rebuilds the O(log B) path to the root.
    pub fn set(&mut self, i: usize, v: u64) {
        let mut node = self.n + i;
        if self.vals[node] == v {
            return;
        }
        self.vals[node] = v;
        while node > 1 {
            node /= 2;
            let combined = self.vals[2 * node].min(self.vals[2 * node + 1]);
            if self.vals[node] == combined {
                break;
            }
            self.vals[node] = combined;
        }
    }

    /// Minimum over all slots (`u64::MAX` when every slot is empty).
    pub fn min(&self) -> u64 {
        self.vals[1]
    }

    /// Minimum over the aligned power-of-two block `[lo, lo + len)` as a
    /// single internal-node lookup: the block is exactly one subtree, so its
    /// running minimum is already materialised. O(1).
    pub fn subtree_min(&self, lo: usize, len: usize) -> u64 {
        debug_assert!(len.is_power_of_two() && lo.is_multiple_of(len) && lo + len <= self.n);
        self.vals[(self.n + lo) / len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies pseudo-random sets (some clearing a slot) to a tree and a
    /// plain array in step, checking every aligned block after each one.
    fn check_against_naive_scan(slots: usize) {
        let mut t = MinTree::new(slots);
        let mut vals = vec![u64::MAX; slots];
        let mut state: u64 = 0x9E37_79B9;
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % slots;
            let v = if step % 7 == 0 { u64::MAX } else { state >> 40 };
            vals[i] = v;
            t.set(i, v);
            let mut len = 1;
            while len <= slots {
                for lo in (0..slots).step_by(len) {
                    let naive = vals[lo..lo + len].iter().copied().min().unwrap();
                    assert_eq!(t.subtree_min(lo, len), naive, "block [{lo}, {})", lo + len);
                }
                len *= 2;
            }
            assert_eq!(t.min(), vals.iter().copied().min().unwrap());
        }
    }

    #[test]
    fn subtree_min_matches_naive_scan() {
        for slots in [1, 2, 16, 32] {
            check_against_naive_scan(slots);
        }
    }

    #[test]
    fn starts_empty_and_tracks_updates() {
        let mut t = MinTree::new(16);
        assert_eq!(t.min(), u64::MAX);
        t.set(3, 100);
        t.set(9, 40);
        t.set(15, 70);
        assert_eq!(t.min(), 40);
        t.set(9, u64::MAX); // candidate disappears
        assert_eq!(t.min(), 70);
        assert_eq!(t.subtree_min(8, 8), 70);
        t.set(0, 5);
        assert_eq!(t.min(), 5);
    }

    #[test]
    #[should_panic(expected = "13 leaves")]
    fn non_power_of_two_leaf_count_is_rejected() {
        MinTree::new(13);
    }
}
