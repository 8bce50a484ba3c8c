//! # palermo-controller
//!
//! Hardware models of the ORAM controller: the serial multi-issue baseline
//! controller used by prior designs and the Palermo PE-mesh controller that
//! exploits the protocol's intra- and inter-request parallelism, plus the
//! analytical area/power model of Fig. 15.
//!
//! The controller sits between the protocol layer (`palermo-oram`, which
//! produces [`palermo_oram::access_plan::AccessPlan`]s) and the DRAM model
//! (`palermo-dram`). Its job is purely *timing*: deciding, cycle by cycle,
//! which of the plan's memory operations may be issued given the protocol's
//! dependencies and the scheduling policy.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area_power;
pub mod engine;
pub mod stats;

pub use area_power::{
    estimate, memory_energy, AreaPowerEstimate, ControllerProvisioning, EnergyBreakdown,
    MEMORY_CLOCK_HZ,
};
pub use engine::{
    ControllerConfig, FinishedRequest, OramController, SchedulePolicy, SYNC_STALL_QUEUE_DEPTH,
};
pub use stats::ControllerStats;
