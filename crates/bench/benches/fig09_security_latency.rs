//! Fig. 9 / Table I — response-latency isolation and mutual information.

use criterion::{criterion_group, criterion_main, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig09;
use palermo_sim::runner::run_workload_spec;
use palermo_sim::schemes::Scheme;
use palermo_workloads::Workload;

fn bench(c: &mut Criterion) {
    let rows = fig09::run(&report_config(), &SerialExecutor).expect("fig09 run");
    println!("{}", fig09::table(&rows).to_text());

    let cfg = bench_config();
    let mut group = c.benchmark_group("fig09_security_latency");
    group.sample_size(10);
    group.bench_function("palermo_latency_collection_redis", |b| {
        b.iter(|| run_workload_spec(Scheme::Palermo, &Workload::Redis.into(), &cfg).expect("run"));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
