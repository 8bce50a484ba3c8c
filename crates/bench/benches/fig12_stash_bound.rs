//! Fig. 12 — Palermo stash occupancy stays bounded over time.

use criterion::{criterion_group, criterion_main, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig12;

fn bench(c: &mut Criterion) {
    let rows = fig12::run(&report_config(), &SerialExecutor).expect("fig12 run");
    println!("{}", fig12::table(&rows).to_text());
    for row in &rows {
        assert!(
            row.high_water <= row.capacity,
            "{}: stash bound violated",
            row.workload
        );
    }

    let cfg = bench_config();
    let mut group = c.benchmark_group("fig12_stash_bound");
    group.sample_size(10);
    group.bench_function("palermo_stash_sampling", |b| {
        b.iter(|| fig12::run(&cfg, &SerialExecutor).expect("run"));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
