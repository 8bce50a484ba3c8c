//! # palermo-sim
//!
//! The end-to-end Palermo system simulator: it wires a workload generator,
//! the LLC model, an ORAM protocol instance, an ORAM controller model and
//! the DRAM substrate into a single cycle-driven loop, and provides the
//! experiment runners that regenerate every table and figure of the paper's
//! evaluation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod figures;
pub mod runner;
pub mod schemes;
pub mod serving;
pub mod shard;
pub mod system;

pub use experiment::{
    Executor, Experiment, ResultSet, RunRecord, RunSpec, SerialExecutor, ThreadPoolExecutor,
};
pub use runner::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, ReferenceStepper, RunMetrics,
    ShardMetrics, Stepper, TenantMetrics,
};
pub use schemes::Scheme;
pub use serving::{AdmissionPolicyKind, Arrival, ServingEngine};
pub use shard::{PooledShardStepper, SerialShardStepper, ShardStepper, ShardedSystem};
pub use system::SystemConfig;

pub use palermo_dram::{
    DramConfigError, EnergyCoefficients, HardwareProfile, ProfileError, ProvisioningOverrides,
};
// Re-exported so experiment code can name specs without a second import.
pub use palermo_workloads::WorkloadSpec;
