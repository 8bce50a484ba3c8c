//! Fig. 10 — end-to-end speedup of every scheme, normalised to PathORAM.
//!
//! The bench measures one representative workload per locality class under
//! every scheme; the printed table covers a representative sub-matrix at the
//! report budget. Compare against `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig10;
use palermo_sim::runner::run_workload_spec;
use palermo_sim::schemes::Scheme;
use palermo_workloads::Workload;

fn bench(c: &mut Criterion) {
    let report = fig10::run(
        &report_config(),
        &[
            Workload::Mcf,
            Workload::Llm,
            Workload::Streaming,
            Workload::Random,
        ],
        &Scheme::ALL,
        &SerialExecutor,
    )
    .expect("fig10 run");
    println!("{}", fig10::table(&report).to_text());

    let cfg = bench_config();
    let mut group = c.benchmark_group("fig10_end_to_end");
    group.sample_size(10);
    for scheme in Scheme::ALL {
        group.bench_with_input(
            BenchmarkId::new("random", scheme.name()),
            &scheme,
            |b, &scheme| {
                b.iter(|| run_workload_spec(scheme, &Workload::Random.into(), &cfg).expect("run"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
