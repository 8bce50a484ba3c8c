//! Fig. 13 — Palermo sensitivity to the prefetch length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig13;
use palermo_sim::runner::run_workload_spec;
use palermo_sim::schemes::Scheme;
use palermo_workloads::Workload;

fn bench(c: &mut Criterion) {
    let rows = fig13::run(&report_config(), &[1, 2, 4, 8], &SerialExecutor).expect("fig13 run");
    println!("{}", fig13::table(&rows).to_text());

    let mut group = c.benchmark_group("fig13_prefetch_sensitivity");
    group.sample_size(10);
    for pf in [1u32, 2, 4, 8] {
        let mut cfg = bench_config();
        cfg.prefetch_override = Some(pf);
        let scheme = if pf == 1 {
            Scheme::Palermo
        } else {
            Scheme::PalermoPrefetch
        };
        group.bench_with_input(BenchmarkId::new("palermo_llm_pf", pf), &pf, move |b, _| {
            b.iter(|| run_workload_spec(scheme, &Workload::Llm.into(), &cfg).expect("run"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
