//! Sharded scale-out — serial vs pooled shard stepping on a K = 4 run.
//!
//! The two benchmark ids measure the *same* deterministic simulation (the
//! integration tests pin the merged `RunMetrics` byte-identical), so their
//! ratio is the wall-clock win of `std::thread::scope` intra-run
//! parallelism, with machine variance cancelling out of the comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use palermo_bench::report_config;
use palermo_sim::figures::shard_scaling;
use palermo_sim::runner::CalendarStepper;
use palermo_sim::schemes::Scheme;
use palermo_sim::shard::{PooledShardStepper, SerialShardStepper, ShardStepper, ShardedSystem};
use palermo_sim::system::SystemConfig;
use palermo_workloads::{Workload, WorkloadSpec};

fn bench(c: &mut Criterion) {
    let inner = WorkloadSpec::Table2(Workload::Mcf);
    let rows = shard_scaling::run(
        &report_config(),
        &inner,
        &[1, 2, 4],
        &[Scheme::RingOram, Scheme::Palermo],
        &SerialShardStepper,
    )
    .expect("shard_scaling run");
    println!("{}", shard_scaling::table(&inner, &rows).to_text());

    // The serial-vs-pooled comparison uses a small protected footprint and
    // a high request budget (deliberately NOT the quick-mode
    // `PALERMO_BENCH_REQUESTS` knob): each measured iteration rebuilds the
    // per-shard ORAM state, and at paper-scale footprints that allocation
    // dominates the iteration and contends across pool workers, hiding the
    // stepping speedup the bench exists to track.
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 1200;
    cfg.warmup_requests = 100;
    let spec = WorkloadSpec::from_name("shard:4:hash:mcf").expect("spec");
    let system = ShardedSystem::new(Scheme::Palermo, &spec, &cfg).expect("system");
    let pool = PooledShardStepper::new(4);
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    group.bench_function("palermo_k4_serial", |b| {
        b.iter(|| ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper).expect("run"));
    });
    group.bench_function("palermo_k4_pooled", |b| {
        b.iter(|| ShardStepper::run(&pool, &system, &CalendarStepper).expect("run"));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
