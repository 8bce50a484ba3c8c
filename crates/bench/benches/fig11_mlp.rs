//! Fig. 11 — bandwidth utilisation and outstanding DRAM requests,
//! RingORAM vs Palermo.

use criterion::{criterion_group, criterion_main, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig11;
use palermo_sim::runner::run_workload_spec;
use palermo_sim::schemes::Scheme;
use palermo_workloads::Workload;

fn bench(c: &mut Criterion) {
    let rows = fig11::run(&report_config(), &SerialExecutor).expect("fig11 run");
    println!("{}", fig11::table(&rows).to_text());

    let cfg = bench_config();
    let mut group = c.benchmark_group("fig11_mlp");
    group.sample_size(10);
    group.bench_function("ringoram_llm", |b| {
        b.iter(|| run_workload_spec(Scheme::RingOram, &Workload::Llm.into(), &cfg).expect("run"));
    });
    group.bench_function("palermo_llm", |b| {
        b.iter(|| run_workload_spec(Scheme::Palermo, &Workload::Llm.into(), &cfg).expect("run"));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
