//! Ablation of the Palermo design choices called out in `DESIGN.md`:
//!
//! * protocol-only (Palermo-SW) vs the full protocol-hardware co-design —
//!   how much of the gain comes from the hardware scheduler;
//! * the RingORAM protocol on the mesh scheduler vs the Palermo protocol —
//!   how much the hoisted EarlyReshuffle / minimal-dependency plan matters;
//! * PE-column scaling (structural hazards vs true dependencies).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use palermo_bench::bench_config;
use palermo_controller::{ControllerConfig, SchedulePolicy};
use palermo_sim::experiment::{CustomProtocol, RunSpec};
use palermo_sim::runner::run_workload_spec;
use palermo_sim::schemes::Scheme;
use palermo_workloads::Workload;

fn bench(c: &mut Criterion) {
    let cfg = bench_config();

    // One-shot ablation report.
    let params = cfg.hierarchy_params().expect("params");
    let ring_cfg = Scheme::RingOram
        .hierarchy_config(params, cfg.seed, 1, cfg.stash_capacity)
        .expect("ring cfg");
    let mesh = ControllerConfig {
        policy: SchedulePolicy::PalermoMesh,
        pe_columns: cfg.pe_columns,
        issue_width: 16,
    };
    let ring_on_mesh = RunSpec::new(Scheme::RingOram, Workload::Random, cfg.clone())
        .with_custom(CustomProtocol {
            hierarchy: ring_cfg,
            controller: mesh,
            prefetch_length: 1,
        })
        .execute()
        .expect("ring on mesh");
    let ring_serial =
        run_workload_spec(Scheme::RingOram, &Workload::Random.into(), &cfg).expect("ring");
    let palermo_sw =
        run_workload_spec(Scheme::PalermoSw, &Workload::Random.into(), &cfg).expect("sw");
    let palermo =
        run_workload_spec(Scheme::Palermo, &Workload::Random.into(), &cfg).expect("palermo");
    let base = ring_serial.requests_per_cycle();
    println!("== Ablation (random workload, speedup over serial RingORAM) ==");
    println!("RingORAM protocol + serial controller : 1.00x");
    println!(
        "RingORAM protocol + PE-mesh controller : {:.2}x   (hardware alone)",
        ring_on_mesh.requests_per_cycle() / base
    );
    println!(
        "Palermo protocol + software sync       : {:.2}x   (protocol alone)",
        palermo_sw.requests_per_cycle() / base
    );
    println!(
        "Palermo protocol + PE-mesh controller  : {:.2}x   (full co-design)",
        palermo.requests_per_cycle() / base
    );

    let mut group = c.benchmark_group("ablation_protocol");
    group.sample_size(10);
    for (name, scheme) in [
        ("ring_serial", Scheme::RingOram),
        ("palermo_sw", Scheme::PalermoSw),
        ("palermo_codesign", Scheme::Palermo),
    ] {
        group.bench_with_input(BenchmarkId::new("random", name), &scheme, |b, &scheme| {
            b.iter(|| run_workload_spec(scheme, &Workload::Random.into(), &cfg).expect("run"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
