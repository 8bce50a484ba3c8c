//! # palermo-oram
//!
//! Functional implementations of the ORAM protocols studied in *Palermo:
//! Improving the Performance of Oblivious Memory using Protocol-Hardware
//! Co-Design* (HPCA 2025): PathORAM, RingORAM, the Palermo protocol, and the
//! prefetch-based baselines (PrORAM, LAORAM, PageORAM, IR-ORAM) built on top
//! of them.
//!
//! The crate is organised around a clean separation between **function** and
//! **timing**:
//!
//! * the level engines ([`ring_level::RingLevel`] for RingORAM and Palermo,
//!   [`path_level::PathLevel`] for the PathORAM family, both built on the
//!   one tree core in [`level`]) and the recursive composition
//!   ([`hierarchy::HierarchicalOram`]) maintain the ORAM tree, stash and
//!   position maps and guarantee functional correctness (read-your-writes,
//!   path invariant, bounded stash);
//! * every request is lowered into an [`access_plan::AccessPlan`] — a DAG of
//!   protocol phases annotated with DRAM addresses and the *minimal
//!   intra-request dependencies* of the chosen protocol flavor.
//!
//! Controller models (in `palermo-controller`) execute those plans against a
//! cycle-level DRAM model, choosing how much inter-request overlap the
//! protocol flavor permits. This mirrors the paper's co-design split: the
//! protocol defines what must be ordered, the hardware exploits everything
//! that need not be.
//!
//! ## Quick example
//!
//! ```
//! use palermo_oram::hierarchy::{HierarchicalOram, HierarchyConfig, ProtocolFlavor};
//! use palermo_oram::params::{HierarchyParams, OramParams};
//! use palermo_oram::crypto::Payload;
//! use palermo_oram::types::{OramOp, PhysAddr};
//!
//! # fn main() -> Result<(), palermo_oram::error::OramError> {
//! // A small protected space so the example runs instantly.
//! let data = OramParams::builder().num_blocks(4096).z(8).s(12).a(8).build()?;
//! let params = HierarchyParams::derive(data, 4, 2)?;
//! let mut cfg = HierarchyConfig::paper_default(ProtocolFlavor::Palermo)?;
//! cfg.params = params;
//! let mut oram = HierarchicalOram::new(cfg)?;
//!
//! let pa = PhysAddr::new(0x80);
//! oram.access(pa, OramOp::Write, Some(Payload::from_u64(99)))?;
//! let read = oram.access(pa, OramOp::Read, None)?;
//! assert_eq!(read.value.unwrap().as_u64(), 99);
//! // The access plan lists the DRAM traffic the request generated.
//! assert!(read.plan.total_traffic() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access_plan;
pub mod baselines;
pub mod bucket;
pub mod crypto;
pub mod error;
pub mod hierarchy;
pub mod layout;
pub mod level;
pub mod params;
pub mod path_level;
pub mod posmap;
pub mod ring_level;
pub mod rng;
pub mod stash;
pub mod tree;
pub mod types;
pub mod validate;

pub use access_plan::{AccessPlan, PhaseKind, PlanNode, PlanNodeId};
pub use crypto::Payload;
pub use error::{OramError, OramResult};
pub use hierarchy::{
    AccessResult, HierarchicalOram, HierarchyConfig, PosmapBypass, PrefetchMode, ProtocolFlavor,
};
pub use params::{HierarchyParams, OramParams};
pub use types::{BlockId, LeafId, NodeId, OramOp, PhysAddr, SubOram};
