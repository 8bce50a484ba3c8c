//! # palermo-workloads
//!
//! Workload trace generators and the last-level-cache model used to drive
//! the Palermo evaluation (Table II of the paper): SPEC17-style compute,
//! graph analytics on synthetic power-law graphs, deep-learning
//! recommendation and LLM inference, key-value serving, and the synthetic
//! streaming/random microbenchmarks.
//!
//! Real datasets (LiveJournal, Criteo, OpenORCA, …) are not redistributable
//! inside a code artifact, so each generator reproduces the documented
//! *memory-access structure* of its application class instead — see
//! `DESIGN.md` for the substitution argument. All generators are seeded and
//! deterministic.
//!
//! Beyond the closed Table II set, [`WorkloadSpec`] opens the workload
//! surface: replay a recorded trace file ([`replay`], [`mod@format`]),
//! compose several streams into a multi-tenant mix ([`mix`]) — optionally
//! with tenant arrival/departure windows ([`mix::PhasedMixSpec`]) — or dump
//! any spec's stream back to a trace file ([`capture`]), all behind one
//! buildable, name-round-trippable spec type. Multi-tenant streams tag each
//! access with its originating tenant ([`trace::TaggedEntry`]) so the
//! simulator can attribute per-tenant QoS metrics. Open-loop serving specs
//! ([`arrival`]) wrap any of these with deterministic arrival processes
//! (Poisson / bursty / diurnal, rates in requests per kilocycle) so the
//! simulator can decouple request arrival from request completion. Sharded
//! specs ([`shard`]) partition a closed-loop workload's address space
//! across K independent ORAM shards with pluggable routing.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod capture;
pub mod format;
pub mod generators;
pub mod graph;
pub mod llc;
pub mod mix;
pub mod replay;
pub mod shard;
pub mod spec;
pub mod trace;
pub mod workload;
pub mod zipf;

pub use arrival::{ArrivalSpec, OpenLoopSpec};
pub use capture::CaptureEncoding;
pub use llc::{Llc, LlcConfig};
pub use mix::{
    MixSpec, MixStream, PhaseWindow, PhasedMixSpec, PhasedTenantSpec, TenantSelection, TenantSpec,
};
pub use replay::TraceReplay;
pub use shard::{ShardRouter, ShardRouterKind, ShardSpec, ShardStream};
pub use spec::{ReplaySpec, WorkloadSpec};
pub use trace::{AccessStream, TaggedEntry, TraceEntry, TraceProfile};
pub use workload::Workload;
pub use zipf::Zipf;
