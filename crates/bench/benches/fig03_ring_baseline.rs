//! Fig. 3 — RingORAM bandwidth utilisation and ORAM-sync cycle breakdown.

use criterion::{criterion_group, criterion_main, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig03;
use palermo_sim::runner::run_workload_spec;
use palermo_sim::schemes::Scheme;
use palermo_workloads::Workload;

fn bench(c: &mut Criterion) {
    let rows = fig03::run(&report_config(), &SerialExecutor).expect("fig03 run");
    println!("{}", fig03::table(&rows).to_text());

    let cfg = bench_config();
    let mut group = c.benchmark_group("fig03_ring_baseline");
    group.sample_size(10);
    group.bench_function("ringoram_mcf", |b| {
        b.iter(|| run_workload_spec(Scheme::RingOram, &Workload::Mcf.into(), &cfg).expect("run"));
    });
    group.bench_function("ringoram_random", |b| {
        b.iter(|| {
            run_workload_spec(Scheme::RingOram, &Workload::Random.into(), &cfg).expect("run")
        });
    });
    // Identical simulation with per-tenant attribution disabled: the CI
    // perf-baseline step compares this against `ringoram_mcf` to assert
    // what tenant attribution costs the single-tenant Table II fast path
    // (the per-pull flag check, per-request tenant bookkeeping and
    // histogram updates at completion) stays under 5%. Single-tenant
    // streams never take the tagged-pull dispatch (`pull_tags` in the
    // runner), so that cost is multi-tenant-only by construction.
    let mut untagged_cfg = cfg;
    untagged_cfg.collect_per_tenant = false;
    group.bench_function("ringoram_mcf_untagged", |b| {
        b.iter(|| {
            run_workload_spec(Scheme::RingOram, &Workload::Mcf.into(), &untagged_cfg).expect("run")
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
