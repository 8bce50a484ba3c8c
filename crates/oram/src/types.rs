//! Core newtypes shared across the Palermo ORAM stack.
//!
//! Every quantity that could plausibly be confused with another integer
//! (physical addresses, logical block indices, leaf identifiers, tree node
//! identifiers, bucket slot indices) gets its own newtype so the protocol
//! code cannot accidentally mix address spaces.

use crate::params::BLOCK_BYTES;
use std::fmt;

/// A byte address in the *protected* (secure, logical) memory space.
///
/// This is the address the processor misses on in the LLC; it never appears
/// on the untrusted memory bus. The ORAM protocol translates it into a
/// sequence of DRAM block addresses.
///
/// ```
/// use palermo_oram::types::PhysAddr;
/// let pa = PhysAddr::new(0x1040);
/// assert_eq!(pa.cache_line().0, 0x41);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Creates a new physical address from a raw byte offset.
    pub fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// Returns the logical cache-line / block index containing this address.
    pub fn cache_line(self) -> BlockId {
        BlockId(self.0 / BLOCK_BYTES)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// Index of a logical data block (cache line) within one sub-ORAM's address
/// space. Block 0 is the first 64-byte line of that space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Identifier of a leaf of the ORAM binary tree, in `[0, num_leaves)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LeafId(pub u64);

impl fmt::Display for LeafId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifier of a node (bucket) in the ORAM binary tree.
///
/// Nodes are numbered in level order: the root is node 0, the nodes of tree
/// level `l` occupy the range `[2^l - 1, 2^(l+1) - 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Index of a slot within a bucket (spanning both real and dummy slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SlotIdx(pub u16);

impl fmt::Display for SlotIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The operation the processor requested on an LLC miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OramOp {
    /// Read the block; the decrypted payload is returned to the processor.
    Read,
    /// Overwrite the block with new data supplied by the processor.
    Write,
}

impl fmt::Display for OramOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OramOp::Read => write!(f, "R"),
            OramOp::Write => write!(f, "W"),
        }
    }
}

/// Which sub-ORAM (hierarchy level) a structure or memory operation belongs to.
///
/// The paper's hierarchical design (Fig. 2) uses three levels: the protected
/// data space, `PosMap1` protecting its position map, and `PosMap2`
/// protecting `PosMap1`'s position map. `PosMap3` is small enough to live
/// on chip and therefore is not a sub-ORAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubOram {
    /// The protected user data space.
    Data,
    /// The ORAM protecting the data space's position map.
    Pos1,
    /// The ORAM protecting `PosMap1`'s position map.
    Pos2,
}

impl SubOram {
    /// All sub-ORAMs in outermost-to-innermost order (`Data`, `Pos1`, `Pos2`).
    pub const ALL: [SubOram; 3] = [SubOram::Data, SubOram::Pos1, SubOram::Pos2];

    /// Number of hierarchy levels modelled (fixed at 3, matching the paper).
    pub const COUNT: usize = 3;

    /// Returns the row index used by the PE mesh (0 = Data, 1 = Pos1, 2 = Pos2).
    pub fn index(self) -> usize {
        match self {
            SubOram::Data => 0,
            SubOram::Pos1 => 1,
            SubOram::Pos2 => 2,
        }
    }

    /// Short human-readable name used in reports (`data`, `pos1`, `pos2`).
    pub fn name(self) -> &'static str {
        match self {
            SubOram::Data => "data",
            SubOram::Pos1 => "pos1",
            SubOram::Pos2 => "pos2",
        }
    }
}

impl fmt::Display for SubOram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_to_block() {
        assert_eq!(PhysAddr::new(0).cache_line(), BlockId(0));
        assert_eq!(PhysAddr::new(63).cache_line(), BlockId(0));
        assert_eq!(PhysAddr::new(64).cache_line(), BlockId(1));
        assert_eq!(PhysAddr::new(0x1040).cache_line(), BlockId(0x41));
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(format!("{}", PhysAddr::new(0x40)), "PA:0x40");
        assert_eq!(format!("{}", BlockId(3)), "B3");
        assert_eq!(format!("{}", LeafId(7)), "L7");
        assert_eq!(format!("{}", NodeId(1)), "N1");
        assert_eq!(format!("{}", SlotIdx(2)), "S2");
        assert_eq!(format!("{}", OramOp::Read), "R");
        assert_eq!(format!("{}", OramOp::Write), "W");
        assert_eq!(format!("{}", SubOram::Pos1), "pos1");
    }
}
