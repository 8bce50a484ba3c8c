//! Determinism and conservation sweep for per-tenant metric attribution.
//!
//! The per-tenant vectors in `RunMetrics` must be (a) conservation-checked
//! — per-tenant submitted/completed/accesses/latency sums equal the
//! aggregates on every run — and (b) *deterministic to the byte*: the
//! serial and thread-pool executors, and the calendar and per-cycle
//! reference steppers, must produce identical `per_tenant` vectors
//! (including the fixed-bucket latency histograms) across a mix × scheme
//! grid.
//!
//! One wall-clock bound rides along, ignored by default because a debug
//! build is too noisy for it: per-tenant attribution may cost the
//! single-tenant path at most 5% + 0.5 ms. Run it with
//! `cargo test --release --test tenant_metrics -- --ignored`.

use palermo::sim::experiment::{
    Experiment, ExportRow, SerialExecutor, TenantSummary, ThreadPoolExecutor,
};
use palermo::sim::runner::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, ReferenceStepper,
};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::{MixSpec, PhaseWindow, PhasedMixSpec, Workload, WorkloadSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 25;
    cfg.warmup_requests = 5;
    cfg.llc.capacity_bytes = 64 << 10;
    cfg
}

/// The mix kinds under test: flat WRR, Zipf-selected, and phased with
/// arrival + departure.
fn mix_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Mix(
            MixSpec::round_robin()
                .tenant(Workload::Redis.into(), 2)
                .tenant(Workload::Llm.into(), 1)
                .tenant(Workload::Streaming.into(), 1),
        ),
        WorkloadSpec::Mix(
            MixSpec::zipf(0.9)
                .tenant(Workload::Redis.into(), 1)
                .tenant(Workload::Random.into(), 1)
                .tenant(Workload::Mcf.into(), 1),
        ),
        WorkloadSpec::PhasedMix(
            PhasedMixSpec::new()
                .tenant(Workload::Redis.into(), 2, PhaseWindow::ALWAYS)
                .tenant(Workload::Llm.into(), 1, PhaseWindow::from_start(40))
                .tenant(Workload::Streaming.into(), 1, PhaseWindow::until(120)),
        ),
    ]
}

const SCHEMES: [Scheme; 3] = [Scheme::RingOram, Scheme::Palermo, Scheme::PathOram];

#[test]
fn per_tenant_counts_sum_exactly_to_the_aggregates() {
    let cfg = tiny();
    let results = Experiment::new(cfg)
        .schemes(SCHEMES)
        .workload_specs(mix_specs())
        .run(&SerialExecutor)
        .unwrap();
    assert_eq!(results.len(), SCHEMES.len() * mix_specs().len());
    for record in &results {
        let m = &record.metrics;
        assert_eq!(
            m.per_tenant.len(),
            record.workload.tenant_count(),
            "{}: one entry per tenant",
            record.label
        );
        assert!(m.tenant_conservation_ok(), "{}", record.label);
        // Spell the key sums out so a failure names the broken quantity.
        let completed: u64 = m.per_tenant.iter().map(|t| t.completed).sum();
        assert_eq!(completed, m.oram_requests, "{} completed", record.label);
        let submitted: u64 = m.per_tenant.iter().map(|t| t.submitted).sum();
        assert_eq!(
            submitted, m.submitted_requests,
            "{} submitted",
            record.label
        );
        let accesses: u64 = m.per_tenant.iter().map(|t| t.workload_accesses).sum();
        assert_eq!(accesses, m.workload_accesses, "{} accesses", record.label);
        let latency: u64 = m.per_tenant.iter().map(|t| t.latency.sum()).sum();
        assert_eq!(
            latency,
            m.latencies.iter().sum::<u64>(),
            "{} latency sum",
            record.label
        );
        // DRAM demand shares partition the attributed traffic.
        let share: f64 = (0..m.per_tenant.len())
            .map(|i| m.tenant_dram_share(i))
            .sum();
        assert!(
            (share - 1.0).abs() < 1e-12,
            "{} shares: {share}",
            record.label
        );
    }
}

#[test]
fn per_tenant_metrics_are_byte_identical_across_executors() {
    let cfg = tiny();
    let grid = |executor: &dyn palermo::sim::experiment::Executor| {
        Experiment::new(cfg.clone())
            .schemes(SCHEMES)
            .workload_specs(mix_specs())
            .run(executor)
            .unwrap()
    };
    let serial = grid(&SerialExecutor);
    let pooled = grid(&ThreadPoolExecutor::new(4));
    assert_eq!(serial.len(), pooled.len());
    for (a, b) in serial.iter().zip(pooled.iter()) {
        assert_eq!(a.label, b.label);
        // Full-metrics equality covers the per-tenant vectors including the
        // histogram buckets; assert the vectors separately first so a
        // failure points at the attribution layer.
        assert_eq!(
            a.metrics.per_tenant, b.metrics.per_tenant,
            "{} per-tenant attribution diverged across executors",
            a.label
        );
        assert_eq!(a.metrics, b.metrics, "{}", a.label);
    }
    // The flattened per-tenant export is identical too.
    assert_eq!(
        TenantSummary::to_csv(&serial.tenant_summaries()),
        TenantSummary::to_csv(&pooled.tenant_summaries())
    );
    assert_eq!(
        TenantSummary::to_json(&serial.tenant_summaries()),
        TenantSummary::to_json(&pooled.tenant_summaries())
    );
}

#[test]
fn per_tenant_metrics_are_byte_identical_across_steppers() {
    let cfg = tiny();
    for spec in mix_specs() {
        for scheme in SCHEMES {
            let reference =
                run_workload_spec_stepped(scheme, &spec, &cfg, &ReferenceStepper).unwrap();
            let calendar =
                run_workload_spec_stepped(scheme, &spec, &cfg, &CalendarStepper).unwrap();
            assert_eq!(
                reference.per_tenant, calendar.per_tenant,
                "{scheme}/{spec}: per-tenant attribution diverged across steppers"
            );
            assert_eq!(reference, calendar, "{scheme}/{spec}");
        }
    }
}

#[test]
fn phased_tenants_outside_their_window_stay_empty() {
    let cfg = tiny();
    // Tenant 1's window opens far beyond anything a 30-request run can
    // consume: it must end the run with zero attribution everywhere.
    let spec = WorkloadSpec::PhasedMix(
        PhasedMixSpec::new()
            .tenant(Workload::Redis.into(), 1, PhaseWindow::ALWAYS)
            .tenant(
                Workload::Llm.into(),
                1,
                PhaseWindow::from_start(1_000_000_000),
            ),
    );
    for scheme in [Scheme::RingOram, Scheme::Palermo] {
        let m = run_workload_spec(scheme, &spec, &cfg).unwrap();
        assert!(m.tenant_conservation_ok());
        let late = &m.per_tenant[1];
        assert_eq!(
            (
                late.submitted,
                late.completed,
                late.workload_accesses,
                late.dram_ops
            ),
            (0, 0, 0, 0),
            "{scheme}: dormant tenant was served"
        );
        assert_eq!(late.latency.count(), 0);
        assert_eq!(m.per_tenant[0].completed, m.oram_requests);
    }
}

/// RingORAM on `mcf` at 20 measured and 5 warm-up requests, with per-tenant
/// attribution on and off. Per side: one untimed run, then the mean of ten
/// timed runs, taking the minimum over three rounds. Attribution passes
/// when on <= off * 1.05 + 0.5 ms. Single-tenant streams skip the tagged
/// pull by design, so this bounds the per-request tenant bookkeeping and
/// histogram updates at completion.
#[test]
#[ignore = "wall-clock bound that flakes in debug builds; run with --release -- --ignored"]
fn tenant_attribution_costs_at_most_5_percent_plus_half_a_millisecond() {
    let mut on = SystemConfig::paper_default();
    on.measured_requests = 20;
    on.warmup_requests = 5;
    let mut off = on.clone();
    off.collect_per_tenant = false;
    let spec = WorkloadSpec::from(Workload::Mcf);
    let run = |cfg: &SystemConfig| run_workload_spec(Scheme::RingOram, &spec, cfg).unwrap();
    let mean_of_ten = |cfg: &SystemConfig| {
        black_box(run(cfg));
        let started = Instant::now();
        for _ in 0..10 {
            black_box(run(cfg));
        }
        started.elapsed() / 10
    };
    let (mut on_time, mut off_time) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        on_time = on_time.min(mean_of_ten(&on));
        off_time = off_time.min(mean_of_ten(&off));
    }
    let budget = off_time.mul_f64(1.05) + Duration::from_micros(500);
    let report = format!(
        "attribution on {on_time:?} vs off {off_time:?} ({:.3}x), budget {budget:?} (5% + 0.5 ms)",
        on_time.as_secs_f64() / off_time.as_secs_f64()
    );
    assert!(on_time <= budget, "{report}: over budget");
    eprintln!("{report}");
}
