//! ORAM protocol and hierarchy parameters.
//!
//! [`OramParams`] describes a single sub-ORAM tree (the data tree or one of
//! the recursive position-map trees). [`HierarchyParams`] derives the sizes
//! of the three-level recursion used throughout the paper (Fig. 2 /
//! Table III): the protected data space, `PosMap1`, `PosMap2`, and the
//! on-chip `PosMap3`. Two sizes of Table III are constants, not
//! parameters: [`BLOCK_BYTES`] and [`POSMAP_ENTRY_BYTES`].

use crate::error::{OramError, OramResult};

/// Size of one ORAM block, cache line and DRAM burst, in bytes (Table III).
pub const BLOCK_BYTES: u64 = 64;

/// Size of one position-map entry (a leaf identifier), in bytes (Table III).
pub const POSMAP_ENTRY_BYTES: u64 = 4;

/// Position-map entries one block holds: 16.
pub const ENTRIES_PER_BLOCK: u64 = BLOCK_BYTES / POSMAP_ENTRY_BYTES;

/// Parameters of one ORAM binary tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OramParams {
    /// Number of *real* block slots per bucket (RingORAM `Z`).
    pub z: u16,
    /// Number of *dummy* block slots per bucket (RingORAM `S`).
    pub s: u16,
    /// Eviction period: an `EvictPath` is scheduled every `a` accesses.
    pub a: u32,
    /// Number of logical blocks protected by this tree.
    pub num_blocks: u64,
    /// Number of leaves of the binary tree (power of two).
    pub num_leaves: u64,
    /// Number of tree levels, root and leaf level inclusive.
    pub levels: u32,
}

impl OramParams {
    /// Returns a builder initialised with the paper's default Palermo
    /// configuration `(Z, S, A) = (16, 27, 20)`.
    pub fn builder() -> OramParamsBuilder {
        OramParamsBuilder::default()
    }

    /// Total number of nodes (buckets) in the tree.
    pub fn num_nodes(&self) -> u64 {
        2 * self.num_leaves - 1
    }

    /// Total number of slots (real + dummy) per bucket.
    pub fn slots_per_bucket(&self) -> u32 {
        u32::from(self.z) + u32::from(self.s)
    }

    /// Size of one bucket in DRAM, including its metadata block, in bytes.
    pub fn bucket_bytes(&self) -> u64 {
        u64::from(self.slots_per_bucket() + 1) * BLOCK_BYTES
    }

    /// Total DRAM footprint of the tree in bytes.
    pub fn tree_bytes(&self) -> u64 {
        self.num_nodes() * self.bucket_bytes()
    }

    /// Logical capacity of the protected space in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_blocks * BLOCK_BYTES
    }
}

/// Builder for [`OramParams`].
///
/// ```
/// use palermo_oram::params::OramParams;
/// let params = OramParams::builder()
///     .capacity_bytes(1 << 30)
///     .z(16)
///     .s(27)
///     .a(20)
///     .build()?;
/// assert_eq!(params.capacity_bytes(), 1 << 30);
/// assert!(params.num_leaves.is_power_of_two());
/// # Ok::<(), palermo_oram::error::OramError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OramParamsBuilder {
    z: u16,
    s: u16,
    a: u32,
    num_blocks: u64,
}

impl Default for OramParamsBuilder {
    fn default() -> Self {
        OramParamsBuilder {
            z: 16,
            s: 27,
            a: 20,
            // 16 GiB of 64 B blocks, the paper's protected user space.
            num_blocks: (16u64 << 30) / BLOCK_BYTES,
        }
    }
}

impl OramParamsBuilder {
    /// Sets the number of real slots per bucket.
    pub fn z(&mut self, z: u16) -> &mut Self {
        self.z = z;
        self
    }

    /// Sets the number of dummy slots per bucket.
    pub fn s(&mut self, s: u16) -> &mut Self {
        self.s = s;
        self
    }

    /// Sets the eviction period.
    pub fn a(&mut self, a: u32) -> &mut Self {
        self.a = a;
        self
    }

    /// Sets the number of protected logical blocks directly.
    pub fn num_blocks(&mut self, num_blocks: u64) -> &mut Self {
        self.num_blocks = num_blocks;
        self
    }

    /// Sets the protected capacity in bytes (rounded down to whole blocks).
    pub fn capacity_bytes(&mut self, bytes: u64) -> &mut Self {
        self.num_blocks = bytes / BLOCK_BYTES;
        self
    }

    /// Validates the configuration and derives the tree geometry.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::InvalidParams`] if any field is out of range
    /// (zero real slots, empty address space, or a zero eviction period).
    pub fn build(&self) -> OramResult<OramParams> {
        if self.z == 0 {
            return Err(OramError::InvalidParams {
                reason: "z (real slots per bucket) must be at least 1".into(),
            });
        }
        if self.a == 0 {
            return Err(OramError::InvalidParams {
                reason: "a (eviction period) must be at least 1".into(),
            });
        }
        if self.num_blocks == 0 {
            return Err(OramError::InvalidParams {
                reason: "the protected space must contain at least one block".into(),
            });
        }
        let buckets_needed = self.num_blocks.div_ceil(u64::from(self.z));
        let num_leaves = buckets_needed.next_power_of_two().max(1);
        let levels = num_leaves.trailing_zeros() + 1;
        Ok(OramParams {
            z: self.z,
            s: self.s,
            a: self.a,
            num_blocks: self.num_blocks,
            num_leaves,
            levels,
        })
    }
}

/// Parameters of the full three-level recursive ORAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyParams {
    /// The protected user data tree.
    pub data: OramParams,
    /// The tree protecting the data tree's position map.
    pub pos1: OramParams,
    /// The tree protecting `PosMap1`'s position map.
    pub pos2: OramParams,
    /// Number of top tree levels held in the on-chip tree-top cache
    /// (per sub-ORAM), as in the Phantom-style tree-top cache of Table III.
    pub treetop_levels: u32,
    /// Number of entries the on-chip `PosMap3` must hold (the number of
    /// `PosMap2` blocks).
    pub posmap3_entries: u64,
}

impl HierarchyParams {
    /// Derives the recursion sizes from the data-tree parameters.
    ///
    /// A block of `PosMapN` holds [`ENTRIES_PER_BLOCK`] position-map
    /// entries, so each level of the recursion is that factor smaller than
    /// the one it maps.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::InvalidParams`] if any derived level fails
    /// validation.
    pub fn derive(data: OramParams, treetop_levels: u32) -> OramResult<Self> {
        let pos1_blocks = data.num_blocks.div_ceil(ENTRIES_PER_BLOCK).max(1);
        let pos2_blocks = pos1_blocks.div_ceil(ENTRIES_PER_BLOCK).max(1);
        let posmap3_entries = pos2_blocks.div_ceil(ENTRIES_PER_BLOCK).max(1) * ENTRIES_PER_BLOCK;

        let mut builder = OramParamsBuilder {
            z: data.z,
            s: data.s,
            a: data.a,
            num_blocks: pos1_blocks,
        };
        let pos1 = builder.build()?;
        builder.num_blocks = pos2_blocks;
        let pos2 = builder.build()?;

        Ok(HierarchyParams {
            data,
            pos1,
            pos2,
            treetop_levels,
            posmap3_entries,
        })
    }

    /// The parameters of the given sub-ORAM level.
    pub fn level(&self, sub: crate::types::SubOram) -> &OramParams {
        match sub {
            crate::types::SubOram::Data => &self.data,
            crate::types::SubOram::Pos1 => &self.pos1,
            crate::types::SubOram::Pos2 => &self.pos2,
        }
    }

    /// Total DRAM footprint of the three trees, in bytes.
    pub fn total_tree_bytes(&self) -> u64 {
        self.data.tree_bytes() + self.pos1.tree_bytes() + self.pos2.tree_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SubOram;

    #[test]
    fn default_build_matches_paper_scale() {
        let p = OramParams::builder().build().unwrap();
        assert_eq!(p.z, 16);
        assert_eq!(p.s, 27);
        assert_eq!(p.a, 20);
        assert_eq!(p.num_blocks, (16u64 << 30) / 64);
        assert!(p.num_leaves.is_power_of_two());
        // 2^28 blocks / 16 per bucket = 2^24 leaves -> 25 levels.
        assert_eq!(p.levels, 25);
    }

    #[test]
    fn small_tree_geometry() {
        let p = OramParams::builder()
            .num_blocks(64)
            .z(4)
            .s(5)
            .a(3)
            .build()
            .unwrap();
        assert_eq!(p.num_leaves, 16);
        assert_eq!(p.levels, 5);
        assert_eq!(p.num_nodes(), 31);
        assert_eq!(p.slots_per_bucket(), 9);
        assert_eq!(p.bucket_bytes(), 10 * 64);
        assert_eq!(p.tree_bytes(), 31 * 10 * 64);
        assert_eq!(p.capacity_bytes(), 64 * 64);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(OramParams::builder().z(0).build().is_err());
        assert!(OramParams::builder().a(0).build().is_err());
        assert!(OramParams::builder().num_blocks(0).build().is_err());
    }

    #[test]
    fn single_block_space_is_valid() {
        let p = OramParams::builder().num_blocks(1).build().unwrap();
        assert_eq!(p.num_leaves, 1);
        assert_eq!(p.levels, 1);
    }

    #[test]
    fn hierarchy_shrinks_by_entries_per_block() {
        let h = HierarchyParams::derive(OramParams::builder().build().unwrap(), 6).unwrap();
        assert_eq!(ENTRIES_PER_BLOCK, 16);
        assert_eq!(h.pos1.num_blocks, h.data.num_blocks / 16);
        assert_eq!(h.pos2.num_blocks, h.pos1.num_blocks / 16);
        // PosMap3 must fit in the 16 MB on-chip budget of Table III:
        // pos2 blocks * 4 B per entry.
        let posmap3_bytes = h.pos2.num_blocks * POSMAP_ENTRY_BYTES;
        assert!(posmap3_bytes <= 16 << 20, "PosMap3 = {posmap3_bytes} bytes");
        assert!(h.total_tree_bytes() > h.data.capacity_bytes());
    }

    #[test]
    fn hierarchy_level_lookup() {
        let h = HierarchyParams::derive(OramParams::builder().build().unwrap(), 6).unwrap();
        assert_eq!(h.level(SubOram::Data).num_blocks, h.data.num_blocks);
        assert_eq!(h.level(SubOram::Pos1).num_blocks, h.pos1.num_blocks);
        assert_eq!(h.level(SubOram::Pos2).num_blocks, h.pos2.num_blocks);
    }

    #[test]
    fn capacity_bytes_round_trip() {
        let p = OramParams::builder()
            .capacity_bytes(1 << 20)
            .build()
            .unwrap();
        assert_eq!(p.num_blocks, (1 << 20) / 64);
    }
}
