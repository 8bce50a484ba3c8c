//! Fig. 14 — sensitivity to the ORAM parameter Z and to the PE-column count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palermo_bench::{bench_config, report_config};
use palermo_sim::experiment::SerialExecutor;
use palermo_sim::figures::fig14;
use palermo_sim::runner::run_workload_spec;
use palermo_sim::schemes::Scheme;
use palermo_workloads::Workload;

fn bench(c: &mut Criterion) {
    let z_points =
        fig14::run_z_sweep(&report_config(), &[4, 8, 16, 32], &SerialExecutor).expect("z sweep");
    let pe_points = fig14::run_pe_sweep(&report_config(), &[1, 2, 4, 8, 16, 32], &SerialExecutor)
        .expect("pe sweep");
    let (zt, pt) = fig14::tables(&z_points, &pe_points);
    println!("{}", zt.to_text());
    println!("{}", pt.to_text());

    let mut group = c.benchmark_group("fig14_sweeps");
    group.sample_size(10);
    for columns in [1usize, 8, 32] {
        let mut cfg = bench_config();
        cfg.pe_columns = columns;
        group.bench_with_input(
            BenchmarkId::new("palermo_rand_pe", columns),
            &columns,
            move |b, _| {
                b.iter(|| {
                    run_workload_spec(Scheme::Palermo, &Workload::Random.into(), &cfg).expect("run")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
