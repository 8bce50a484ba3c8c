//! Proof that the time-skipping simulation core is cycle-exact.
//!
//! The seed simulator advanced the clock one 1.6 GHz cycle at a time
//! ([`palermo::sim::runner::ReferenceStepper`]); the default settled-window
//! core ([`palermo::sim::runner::CalendarStepper`]) jumps over provably-idle
//! stretches and executes DRAM event ticks in bulk. These tests assert the
//! two produce **identical** [`palermo::sim::runner::RunMetrics`] —
//! including `DramStats`, sync-stall attribution and every per-request
//! latency — for every (scheme, workload) pair of the paper's grid under the
//! `small_for_tests` configuration, and for the edge-case configurations and
//! composed specs below.

use palermo::sim::runner::{run_workload_spec_stepped, CalendarStepper, ReferenceStepper};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::sim::{
    PooledShardStepper, SerialShardStepper, ShardStepper, ShardedSystem, WorkloadSpec,
};
use palermo::workloads::Workload;

/// Asserts byte-identical metrics, with a field-by-field message on failure
/// so a regression names the counter that diverged.
fn assert_equivalent(scheme: Scheme, spec: &WorkloadSpec, cfg: &SystemConfig) {
    let reference = run_workload_spec_stepped(scheme, spec, cfg, &ReferenceStepper)
        .unwrap_or_else(|e| panic!("reference run failed for {scheme}/{spec}: {e}"));
    let calendar = run_workload_spec_stepped(scheme, spec, cfg, &CalendarStepper)
        .unwrap_or_else(|e| panic!("calendar run failed for {scheme}/{spec}: {e}"));

    assert_eq!(
        reference.cycles, calendar.cycles,
        "{scheme}/{spec}: measured cycles diverged"
    );
    assert_eq!(
        reference.dram, calendar.dram,
        "{scheme}/{spec}: DramStats diverged"
    );
    assert_eq!(
        reference.sync_stall_cycles, calendar.sync_stall_cycles,
        "{scheme}/{spec}: sync stall cycles diverged"
    );
    assert_eq!(
        reference.sync_stall_by_level, calendar.sync_stall_by_level,
        "{scheme}/{spec}: per-level sync stalls diverged"
    );
    assert_eq!(
        reference.latencies, calendar.latencies,
        "{scheme}/{spec}: per-request latencies diverged"
    );
    // And the full struct, in case a new field is added later.
    assert_eq!(reference, calendar, "{scheme}/{spec}: RunMetrics diverged");
}

/// Every scheme × workload pair of the paper grid is byte-identical between
/// the per-cycle reference stepper and the calendar core.
#[test]
fn event_core_is_cycle_exact_across_the_full_grid() {
    let cfg = SystemConfig::small_for_tests();
    for scheme in Scheme::ALL {
        for workload in Workload::ALL {
            assert_equivalent(scheme, &workload.into(), &cfg);
        }
    }
}

/// The equivalence also holds with a zero warm-up window, where the measured
/// window opens at cycle 0 (regression coverage for the warm-up bugfix
/// interacting with time skipping).
#[test]
fn event_core_is_cycle_exact_with_zero_warmup() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.warmup_requests = 0;
    cfg.measured_requests = 30;
    for scheme in [Scheme::RingOram, Scheme::Palermo, Scheme::PrOram] {
        assert_equivalent(scheme, &Workload::Random.into(), &cfg);
    }
}

/// Unusual DRAM shapes keep the equivalence contract.
///
/// - With per-channel queue capacity cut to 2, the controller's issue pass
///   is rejected constantly, exercising the enqueue-blocked retry path where
///   the stepper must not jump past the cycle a freed slot un-blocks the
///   retry (regression coverage for the next-event staleness bugfix, at the
///   runner level rather than the channel level).
/// - With 32 channels, more than any hardware profile has, the DRAM system's
///   next-event lookup spans that many per-channel predictions.
#[test]
fn tiny_dram_queues_stay_cycle_exact_under_time_skipping() {
    let mut tiny_queues = SystemConfig::small_for_tests();
    tiny_queues.dram.queue_capacity = 2;
    let mut many_channels = SystemConfig::small_for_tests();
    many_channels.dram.channels = 32;
    for cfg in [&tiny_queues, &many_channels] {
        for scheme in [Scheme::RingOram, Scheme::Palermo] {
            assert_equivalent(scheme, &Workload::Mcf.into(), cfg);
        }
    }
}

/// One-deep DRAM queues keep the equivalence contract while the controller
/// is enqueue-blocked nearly every cycle: a skip window then runs through
/// command issues that free no slot a turned-away operation needs, and
/// must stop at the first that does. Every scheme runs `mcf`; RingORAM and
/// Palermo also run an open-loop and a sharded spec.
#[test]
fn one_deep_dram_queues_stay_cycle_exact_under_time_skipping() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.dram.queue_capacity = 1;
    for scheme in Scheme::ALL {
        assert_equivalent(scheme, &Workload::Mcf.into(), &cfg);
    }
    for scheme in [Scheme::RingOram, Scheme::Palermo] {
        for name in ["open:poisson:0.05:random", "shard:2:hash:random"] {
            assert_equivalent(scheme, &WorkloadSpec::from_name(name).unwrap(), &cfg);
        }
    }
}

/// Composed workload specs keep the equivalence contract: an `open:` spec
/// (arrival process + admission queue wrapped around the closed-loop core)
/// produces byte-identical metrics under the per-cycle reference and the
/// settled-window calendar core, on the default test budget and on a
/// smaller one with short bursts.
#[test]
fn calendar_core_is_cycle_exact_for_open_loop_specs() {
    let default = SystemConfig::small_for_tests();
    let mut small = SystemConfig::small_for_tests();
    small.measured_requests = 40;
    small.warmup_requests = 10;
    let cases = [
        (Scheme::RingOram, "open:poisson:0.05:random", &default),
        (Scheme::RingOram, "open:bursty:0.2:2000:6000:mcf", &default),
        (Scheme::Palermo, "open:poisson:0.05:random", &small),
        (Scheme::Palermo, "open:bursty:0.2:20000:60000:mcf", &small),
    ];
    for (scheme, name, cfg) in cases {
        assert_equivalent(scheme, &WorkloadSpec::from_name(name).unwrap(), cfg);
    }
}

/// A `shard:<K>` composed spec under the calendar core is byte-identical to
/// the per-cycle reference, and byte-identical across both shard executors
/// (serial and thread-pooled) — sharding, stepping and scheduling must all
/// be determinism-preserving at once.
#[test]
fn sharded_specs_are_cycle_exact_under_the_calendar_core_on_both_executors() {
    let cfg = SystemConfig::small_for_tests();
    let spec = WorkloadSpec::from_name("shard:2:hash:random").unwrap();
    let system = ShardedSystem::new(Scheme::RingOram, &spec, &cfg).unwrap();

    let reference = ShardStepper::run(&SerialShardStepper, &system, &ReferenceStepper).unwrap();
    let serial = ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper).unwrap();
    let pooled = ShardStepper::run(&PooledShardStepper::new(2), &system, &CalendarStepper).unwrap();

    assert_eq!(
        reference, serial,
        "shard:2: calendar core diverged from the per-cycle reference"
    );
    assert_eq!(
        serial, pooled,
        "shard:2: pooled executor diverged from the serial executor"
    );
}

/// With `warmup_requests = 0` the measured window must open before the first
/// completion: every measured counter fills in (the seed runner silently
/// returned all-zero metrics here).
#[test]
fn zero_warmup_measures_every_request() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.warmup_requests = 0;
    cfg.measured_requests = 25;
    let m = palermo::sim::runner::run_workload_spec(Scheme::RingOram, &Workload::Mcf.into(), &cfg)
        .unwrap();
    assert_eq!(m.oram_requests, cfg.measured_requests);
    assert_eq!(m.latencies.len(), cfg.measured_requests as usize);
    assert!(m.workload_accesses >= m.oram_requests);
    assert!(m.cycles > 0);
    assert!(m.dram.total_accesses() > 0);
}
