//! Integration tests for the sharded scale-out: byte-identical metrics
//! between serial and pooled shard stepping over a K x scheme grid,
//! executor-independence of sharded runs through the experiment layer,
//! conservation of the per-shard/per-tenant attribution, and the pooled
//! wall-clock win on multi-core hosts.

use palermo::sim::experiment::{
    Experiment, ExportRow, RunSummary, SerialExecutor, ShardSummary, ThreadPoolExecutor,
};
use palermo::sim::runner::{CalendarStepper, RunMetrics};
use palermo::sim::schemes::Scheme;
use palermo::sim::shard::{PooledShardStepper, SerialShardStepper, ShardStepper, ShardedSystem};
use palermo::sim::system::SystemConfig;
use palermo::workloads::WorkloadSpec;
use std::sync::Mutex;
use std::time::Instant;

/// Serialises the tests that saturate the machine (pool runs, wall-clock
/// timing) so they don't contend inside the parallel test harness.
static HEAVY: Mutex<()> = Mutex::new(());

fn heavy_guard() -> std::sync::MutexGuard<'static, ()> {
    HEAVY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 24;
    cfg.warmup_requests = 8;
    cfg
}

fn sharded_metrics(scheme: Scheme, name: &str, stepper: &dyn ShardStepper) -> RunMetrics {
    let spec = WorkloadSpec::from_name(name).unwrap();
    let system = ShardedSystem::new(scheme, &spec, &tiny()).unwrap();
    stepper.run(&system, &CalendarStepper).unwrap()
}

#[test]
fn pooled_stepping_is_byte_identical_to_serial_over_the_grid() {
    let _guard = heavy_guard();
    let pool = PooledShardStepper::new(4);
    for scheme in [Scheme::RingOram, Scheme::Palermo] {
        for k in [1u32, 2, 4] {
            let name = format!("shard:{k}:hash:random");
            let serial = sharded_metrics(scheme, &name, &SerialShardStepper);
            let pooled = sharded_metrics(scheme, &name, &pool);
            assert_eq!(
                serial, pooled,
                "serial and pooled shard stepping diverged at {scheme:?} {name}"
            );
            assert_eq!(serial.per_shard.len(), k as usize);
            assert!(serial.shard_conservation_ok(), "{scheme:?} {name}");
            assert!(serial.tenant_conservation_ok(), "{scheme:?} {name}");
        }
    }
}

#[test]
fn per_shard_attribution_sums_to_the_aggregates() {
    let metrics = sharded_metrics(
        Scheme::Palermo,
        "shard:4:hash:mix:rr:mcf+random+redis",
        &SerialShardStepper,
    );
    assert!(metrics.shard_conservation_ok());
    assert!(metrics.tenant_conservation_ok());
    let per = &metrics.per_shard;
    assert_eq!(per.len(), 4);
    assert_eq!(
        per.iter().map(|s| s.oram_requests).sum::<u64>(),
        metrics.oram_requests
    );
    assert_eq!(
        per.iter().map(|s| s.workload_accesses).sum::<u64>(),
        metrics.workload_accesses
    );
    assert_eq!(
        per.iter().map(|s| s.cycles).max().unwrap_or(0),
        metrics.cycles,
        "makespan must be the slowest shard"
    );
    // Hash routing scatters every tenant across all shards, so tenant
    // attribution must survive the cross-shard merge and still add up.
    assert_eq!(metrics.per_tenant.len(), 3);
    assert_eq!(
        metrics.per_tenant.iter().map(|t| t.completed).sum::<u64>(),
        metrics.oram_requests
    );
}

#[test]
fn open_loop_sharded_runs_conserve_arrivals() {
    let metrics = sharded_metrics(
        Scheme::Palermo,
        "open:poisson:0.01:shard:2:range:random",
        &SerialShardStepper,
    );
    assert!(metrics.shard_conservation_ok());
    assert!(metrics.arrival_conservation_ok());
    assert!(metrics.arrivals > 0, "open-loop run must observe arrivals");
    assert_eq!(
        metrics.per_shard.iter().map(|s| s.arrivals).sum::<u64>(),
        metrics.arrivals
    );
    assert_eq!(
        metrics
            .per_shard
            .iter()
            .map(|s| s.dropped_arrivals)
            .sum::<u64>(),
        metrics.dropped_arrivals
    );
}

#[test]
fn sharded_specs_run_identically_under_both_executors() {
    let _guard = heavy_guard();
    let grid = || {
        Experiment::new(tiny())
            .schemes([Scheme::RingOram, Scheme::Palermo])
            .workload_specs([
                WorkloadSpec::from_name("shard:4:hash:random").unwrap(),
                WorkloadSpec::from_name("shard:2:tenant:mix:rr:mcf+redis").unwrap(),
            ])
    };
    let serial = grid().run(&SerialExecutor).unwrap();
    let pooled = grid().run(&ThreadPoolExecutor::new(4)).unwrap();
    assert_eq!(
        RunSummary::to_csv(&serial.summaries()),
        RunSummary::to_csv(&pooled.summaries())
    );
    assert_eq!(
        ShardSummary::to_csv(&serial.shard_summaries()),
        ShardSummary::to_csv(&pooled.shard_summaries())
    );
    for (s, p) in serial.records().iter().zip(pooled.records()) {
        assert_eq!(
            s.metrics, p.metrics,
            "{} diverged across executors",
            s.label
        );
        assert!(s.metrics.shard_conservation_ok(), "{}", s.label);
    }
}

#[test]
fn pooled_shards_beat_serial_wall_clock_on_multicore_hosts() {
    let _guard = heavy_guard();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping shard wall-clock check: only {cores} core(s)");
        return;
    }
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 1200;
    cfg.warmup_requests = 100;
    let spec = WorkloadSpec::from_name("shard:4:hash:mcf").unwrap();
    let system = ShardedSystem::new(Scheme::Palermo, &spec, &cfg).unwrap();

    let started = Instant::now();
    let serial = ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper).unwrap();
    let serial_wall = started.elapsed();

    let started = Instant::now();
    let pooled = ShardStepper::run(&PooledShardStepper::new(4), &system, &CalendarStepper).unwrap();
    let pooled_wall = started.elapsed();

    assert_eq!(
        serial, pooled,
        "wall-clock comparison must not change results"
    );
    let speedup = serial_wall.as_secs_f64() / pooled_wall.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 1.5,
        "pooled shard stepping speedup {speedup:.2}x < 1.5x on {cores} cores \
         (serial {serial_wall:?}, pooled {pooled_wall:?})"
    );
}
