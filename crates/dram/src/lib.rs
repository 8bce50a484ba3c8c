//! # palermo-dram
//!
//! A cycle-level DDR4 DRAM and memory-controller model, standing in for the
//! Ramulator substrate the Palermo paper evaluates on. The model captures
//! the mechanisms that matter for the paper's results:
//!
//! * per-bank row-buffer state with full ACT/PRE/RD/WR timing
//!   (tCL/tRCD/tRP/tRAS/tCCD/tRRD/tFAW/tWR/tWTR/tRTP);
//! * FR-FCFS scheduling with bounded per-channel queues, so memory-level
//!   parallelism — the resource Palermo unlocks — is faithfully rewarded.
//!   Each channel queues requests per bank and keeps one `u64` bank mask
//!   per command class (column, activate, precharge), so a scheduling pass
//!   visits only the banks with a candidate; reads in flight return in
//!   issue order from a FIFO (see [`channel`]);
//! * channel/bank-group/bank address interleaving over a power-of-two
//!   geometry of at most 64 channels and 64 banks per channel
//!   ([`config::DramConfig::validate`] rejects any other), so an address
//!   maps with shifts and masks;
//! * an exact next-event cycle per channel, so a caller can skip cycles in
//!   which no channel can act and account them in bulk;
//! * the statistics the evaluation plots: bandwidth utilisation, row-hit and
//!   bank-conflict rates, queue occupancy and request latency.
//!
//! The crate is independent of ORAM: it accepts plain 64-byte read/write
//! bursts through [`system::DramSystem::try_enqueue`] and reports
//! completions through [`system::DramSystem::drain_completed`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod address;
pub mod channel;
pub mod config;
pub mod profile;
pub mod request;
pub mod stats;
pub mod system;

pub use channel::ChannelTickResult;
pub use config::{DramConfig, DramConfigError, CLOCK_HZ};
pub use profile::{EnergyCoefficients, HardwareProfile, ProfileError, ProvisioningOverrides};
pub use request::{MemCompletion, MemOpKind, MemRequest, RequestId, RowBufferResult};
pub use stats::DramStats;
pub use system::DramSystem;
