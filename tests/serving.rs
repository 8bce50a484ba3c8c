//! Open-loop serving: time-skipping correctness and admission accounting.
//!
//! The sharpest regression here is the sparse-arrival case: with mean
//! inter-arrival gaps of ~a million cycles the pipeline is completely idle
//! between requests, so the time-skipping stepper sees no internal wakeup —
//! if it skipped to "infinity" (or clamped to the run horizon) instead of
//! treating the next pending arrival as a wakeup source, it would jump
//! past arrivals and diverge from (or fall behind) the per-cycle reference.

use palermo::oram::error::OramError;
use palermo::sim::runner::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, ReferenceStepper, Stepper,
};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::WorkloadSpec;

fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 20;
    cfg.warmup_requests = 5;
    cfg
}

/// The skip-past-arrival regression: a Poisson stream sparse enough that
/// every inter-arrival gap dwarfs the service time must still produce
/// byte-identical metrics under time skipping, for both schemes.
#[test]
fn sparse_poisson_stream_is_cycle_exact_under_time_skipping() {
    let cfg = tiny();
    // 0.001 requests per kilocycle = one arrival per ~1M cycles.
    let spec = WorkloadSpec::from_name("open:poisson:0.001:random").unwrap();
    for scheme in [Scheme::RingOram, Scheme::Palermo] {
        let reference = run_workload_spec_stepped(scheme, &spec, &cfg, &ReferenceStepper).unwrap();
        let calendar = run_workload_spec_stepped(scheme, &spec, &cfg, &CalendarStepper).unwrap();
        assert_eq!(
            reference, calendar,
            "{scheme}: sparse open-loop run diverged"
        );
        // The run really did wait out the sparse gaps (rather than the
        // stepper inventing arrivals early): 20 measured requests at ~1M
        // cycles apart dwarf the closed-loop runtime of the same budget.
        assert!(
            calendar.cycles > 1_000_000,
            "{scheme}: {} cycles is too fast for 20 sparse arrivals",
            calendar.cycles
        );
        assert_eq!(calendar.latencies.len() as u64, cfg.measured_requests);
        assert!(calendar.arrival_conservation_ok());
        // Nothing queues behind a sparse stream.
        assert_eq!(calendar.dropped_arrivals, 0);
        assert_eq!(calendar.queue_waits.iter().max(), Some(&0));
    }
}

/// A rate so low that the first gap saturates the 64-bit clock leaves no
/// arrival to wait for, so the run rejects the spec by name instead of
/// stepping forever, under both steppers and in every shard. One starved
/// tenant beside a live one is not stranded: the live tenant's arrivals
/// still complete the run.
#[test]
fn arrivals_beyond_the_clock_are_rejected() {
    let cfg = tiny();
    for name in [
        "open:poisson:1e-300:mcf",
        "open:poisson:1e-300:shard:2:hash:mcf",
    ] {
        let spec = WorkloadSpec::from_name(name).unwrap();
        for stepper in [&CalendarStepper as &dyn Stepper, &ReferenceStepper] {
            let err = run_workload_spec_stepped(Scheme::Palermo, &spec, &cfg, stepper).unwrap_err();
            assert!(
                matches!(&err, OramError::InvalidParams { reason } if reason.contains(&spec.to_string())),
                "{name}: {err}"
            );
        }
    }
    let mixed = WorkloadSpec::from_name("open:poisson:1e-300+poisson:2:mix:rr:redis+llm").unwrap();
    let metrics = run_workload_spec(Scheme::Palermo, &mixed, &cfg).unwrap();
    assert_eq!(metrics.per_tenant[0].submitted, 0);
    assert_eq!(metrics.oram_requests, cfg.measured_requests);
}

/// Bursty and diurnal arrival processes run cycle-exactly too — their
/// phase machinery (absolute phase boundaries, thinning) must not depend
/// on how often the engine is polled.
#[test]
fn modulated_arrival_processes_are_cycle_exact() {
    let cfg = tiny();
    for name in [
        "open:bursty:0.2:20000:80000:random",
        "open:diurnal:0.01:0.5:100000:random",
    ] {
        let spec = WorkloadSpec::from_name(name).unwrap();
        let reference =
            run_workload_spec_stepped(Scheme::Palermo, &spec, &cfg, &ReferenceStepper).unwrap();
        let calendar =
            run_workload_spec_stepped(Scheme::Palermo, &spec, &cfg, &CalendarStepper).unwrap();
        assert_eq!(reference, calendar, "{name} diverged across steppers");
        assert!(calendar.arrival_conservation_ok(), "{name}");
    }
}

/// Overload accounting: at an offered rate far above the service rate the
/// admission queue drops most arrivals, yet every completion still carries
/// exactly one queue wait and the conservation invariants hold.
#[test]
fn overload_drops_are_accounted_exactly() {
    let cfg = tiny();
    let spec = WorkloadSpec::from_name("open:poisson:10:random").unwrap();
    let metrics = run_workload_spec(Scheme::Palermo, &spec, &cfg).unwrap();
    assert!(metrics.arrival_conservation_ok());
    assert!(metrics.dropped_arrivals > 0, "overload never dropped");
    assert!(metrics.drop_fraction() > 0.0 && metrics.drop_fraction() < 1.0);
    assert_eq!(metrics.queue_waits.len(), metrics.latencies.len());
    let e2e = metrics.end_to_end_latencies();
    for (i, ((&wait, &service), &total)) in metrics
        .queue_waits
        .iter()
        .zip(&metrics.latencies)
        .zip(&e2e)
        .enumerate()
    {
        assert_eq!(wait + service, total, "request {i} broke the identity");
    }
    assert!(
        metrics.achieved_rate_per_kcycle() < metrics.offered_rate_per_kcycle().unwrap(),
        "achieved throughput must plateau below a 10 req/kcycle offered rate"
    );
}

/// A zero-capacity admission queue could admit nothing, so an open-loop
/// run rejects it by name instead of silently running with capacity 1.
/// Closed-loop runs have no admission queue and ignore the field.
#[test]
fn zero_capacity_admission_queue_is_rejected() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.serving_queue_capacity = 0;
    let open = WorkloadSpec::from_name("open:poisson:2:mcf").unwrap();
    let err = run_workload_spec(Scheme::Palermo, &open, &cfg).unwrap_err();
    assert!(
        matches!(&err, OramError::InvalidParams { reason } if reason.contains("serving_queue_capacity")),
        "{err}"
    );
    let sharded = WorkloadSpec::from_name("open:poisson:2:shard:2:hash:mcf").unwrap();
    assert!(run_workload_spec(Scheme::Palermo, &sharded, &cfg).is_err());

    let closed = WorkloadSpec::from_name("mcf").unwrap();
    assert_eq!(
        run_workload_spec(Scheme::Palermo, &closed, &cfg).unwrap(),
        run_workload_spec(Scheme::Palermo, &closed, &SystemConfig::small_for_tests()).unwrap()
    );
}
