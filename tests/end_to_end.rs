//! Cross-crate integration tests: the full workload → LLC → protocol →
//! controller → DRAM pipeline, exercised through the facade crate.

use palermo::sim::experiment::{Experiment, SerialExecutor};
use palermo::sim::runner::run_workload_spec;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::Workload;

fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 50;
    cfg.warmup_requests = 12;
    cfg
}

#[test]
fn every_scheme_completes_on_a_representative_workload() {
    let cfg = tiny();
    for scheme in Scheme::ALL {
        let m = run_workload_spec(scheme, &Workload::Mcf.into(), &cfg).unwrap();
        assert_eq!(m.oram_requests, cfg.measured_requests, "{scheme}");
        assert_eq!(m.latencies.len() as u64, cfg.measured_requests, "{scheme}");
        assert!(m.cycles > 0, "{scheme}");
        assert!(m.dram.total_accesses() > 0, "{scheme}");
        assert!(
            m.latencies.iter().all(|&l| l > 0),
            "{scheme}: zero-latency request"
        );
    }
}

#[test]
fn co_design_speedup_ordering_holds_end_to_end() {
    // The paper's core result at small scale: Palermo > Palermo-SW >= the
    // serial RingORAM baseline, and Palermo improves bandwidth utilisation.
    let cfg = tiny();
    let ring = run_workload_spec(Scheme::RingOram, &Workload::Random.into(), &cfg).unwrap();
    let sw = run_workload_spec(Scheme::PalermoSw, &Workload::Random.into(), &cfg).unwrap();
    let palermo = run_workload_spec(Scheme::Palermo, &Workload::Random.into(), &cfg).unwrap();

    let perf = |m: &palermo::sim::runner::RunMetrics| m.requests_per_cycle();
    assert!(
        perf(&palermo) > perf(&ring) * 1.2,
        "palermo {} vs ring {}",
        perf(&palermo),
        perf(&ring)
    );
    assert!(
        perf(&palermo) >= perf(&sw),
        "palermo {} vs palermo-sw {}",
        perf(&palermo),
        perf(&sw)
    );
    assert!(
        palermo.dram.bandwidth_utilization() > ring.dram.bandwidth_utilization(),
        "utilisation did not improve"
    );
}

#[test]
fn stash_bound_holds_for_palermo_across_workloads() {
    let mut cfg = tiny();
    cfg.measured_requests = 30;
    cfg.warmup_requests = 8;
    for workload in [Workload::Streaming, Workload::Llm, Workload::Random] {
        let m = run_workload_spec(Scheme::Palermo, &workload.into(), &cfg).unwrap();
        assert!(
            m.stash_high_water <= cfg.stash_capacity,
            "{workload}: stash {} exceeded capacity {}",
            m.stash_high_water,
            cfg.stash_capacity
        );
        assert_eq!(m.dummy_requests, 0, "{workload}: Palermo needs no dummies");
    }
}

#[test]
fn all_workloads_run_under_palermo() {
    let mut cfg = tiny();
    cfg.measured_requests = 20;
    cfg.warmup_requests = 5;
    let all = Experiment::new(cfg.clone())
        .schemes([Scheme::Palermo])
        .workloads(Workload::ALL)
        .run(&SerialExecutor)
        .unwrap();
    assert_eq!(all.len(), Workload::ALL.len());
    for record in all.iter() {
        let m = &record.metrics;
        assert_eq!(m.oram_requests, cfg.measured_requests, "{}", m.workload);
    }
}

#[test]
fn oram_traffic_is_homogenised_across_workloads() {
    // §VIII-A: applying the ORAM protocol makes bandwidth utilisation (the
    // attacker-visible traffic shape) nearly identical across workloads.
    let mut cfg = tiny();
    cfg.measured_requests = 40;
    let utils: Vec<f64> = [Workload::Streaming, Workload::Random, Workload::Llm]
        .iter()
        .map(|&w| {
            run_workload_spec(Scheme::Palermo, &w.into(), &cfg)
                .unwrap()
                .dram
                .bandwidth_utilization()
        })
        .collect();
    let max = utils.iter().cloned().fold(f64::MIN, f64::max);
    let min = utils.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 1.6,
        "utilisation spread too wide for oblivious traffic: {utils:?}"
    );
}

#[test]
fn prefetch_improves_high_locality_workloads_more_than_random() {
    let mut cfg = tiny();
    cfg.prefetch_override = Some(8);
    let gain = |w: Workload| {
        let plain = run_workload_spec(Scheme::Palermo, &w.into(), &cfg).unwrap();
        let pf = run_workload_spec(Scheme::PalermoPrefetch, &w.into(), &cfg).unwrap();
        pf.requests_per_cycle() / plain.requests_per_cycle()
    };
    let stream_gain = gain(Workload::Streaming);
    let random_gain = gain(Workload::Random);
    assert!(
        stream_gain > random_gain,
        "prefetch should help streaming ({stream_gain:.2}x) more than random ({random_gain:.2}x)"
    );
}
