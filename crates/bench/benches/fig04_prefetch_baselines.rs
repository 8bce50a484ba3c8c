//! Fig. 4 — PrORAM / LAORAM prefetch-length sweep on the streaming workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig04;

fn bench(c: &mut Criterion) {
    let rows = fig04::run(&report_config(), &[1, 2, 4, 8, 16], &SerialExecutor).expect("fig04 run");
    println!("{}", fig04::table(&rows).to_text());

    let cfg = bench_config();
    let mut group = c.benchmark_group("fig04_prefetch_baselines");
    group.sample_size(10);
    for pf in [1u32, 4, 8] {
        group.bench_with_input(BenchmarkId::new("proram_fat_tree_pf", pf), &pf, |b, &pf| {
            b.iter(|| fig04::run(&cfg, &[pf], &SerialExecutor).expect("run"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
