//! Property tests for the open-loop serving subsystem: admission
//! accounting, the queue-wait/service/end-to-end identity, and run-level
//! determinism must hold for arbitrary rates, capacities, policies and
//! seeds — not just the hand-picked unit-test points.

use palermo_sim::runner::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, ReferenceStepper,
};
use palermo_sim::schemes::Scheme;
use palermo_sim::serving::{AdmissionPolicyKind, ServingEngine};
use palermo_sim::system::SystemConfig;
use palermo_workloads::{ArrivalSpec, OpenLoopSpec, Workload, WorkloadSpec};
use proptest::prelude::*;

fn policy(idx: usize) -> AdmissionPolicyKind {
    [
        AdmissionPolicyKind::Block,
        AdmissionPolicyKind::DropTail,
        AdmissionPolicyKind::FairDrop,
    ][idx]
}

fn open_spec(rate: f64) -> WorkloadSpec {
    WorkloadSpec::OpenLoop(OpenLoopSpec::new(
        ArrivalSpec::Poisson {
            rate_per_kcycle: rate,
        },
        Workload::Random.into(),
    ))
}

fn small(measured: u64, seed: u64, policy_idx: usize, capacity: usize) -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = measured;
    cfg.warmup_requests = measured / 4;
    cfg.seed = seed;
    cfg.admission_policy = policy(policy_idx);
    cfg.serving_queue_capacity = capacity;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-level conservation: every arrival the engine resolves is
    /// either still queued, already popped, or dropped — under any policy,
    /// capacity, rate and polling granularity.
    #[test]
    fn arrivals_split_into_popped_queued_and_dropped(
        rate_milli in 10u64..5000,
        capacity in 1usize..48,
        policy_idx in 0usize..3,
        seed in any::<u64>(),
        horizon in 10_000u64..400_000,
        pop_every in 1u64..20,
    ) {
        let spec = OpenLoopSpec::new(
            ArrivalSpec::Poisson { rate_per_kcycle: rate_milli as f64 / 1000.0 },
            Workload::Random.into(),
        );
        let mut engine = ServingEngine::new(&spec, capacity, policy(policy_idx), seed);
        let mut popped = 0u64;
        let mut now = 0u64;
        let mut tick = 0u64;
        while now < horizon {
            now += 1 + (seed.wrapping_add(now) % 977) % 400;
            engine.advance(now.min(horizon));
            tick += 1;
            if tick.is_multiple_of(pop_every) && engine.pop_ready().is_some() {
                popped += 1;
            }
        }
        let c = engine.counters();
        prop_assert!(c.dropped <= c.arrivals);
        prop_assert_eq!(c.admitted(), c.arrivals - c.dropped);
        prop_assert_eq!(popped + engine.queue_len() as u64, c.admitted());
        // A single aggregate process has no per-tenant drop attribution
        // (the dropped request's tenant is chosen at pull time, which a
        // dropped arrival never reaches).
        prop_assert!(c.dropped_by_tenant.is_empty());
    }

    /// Run-level identity: queue wait + service latency equals end-to-end
    /// latency per request, and the arrival accounting invariants hold.
    #[test]
    fn queue_wait_plus_service_is_end_to_end(
        rate_milli in 5u64..2000,
        measured in 8u64..30,
        seed in any::<u64>(),
        policy_idx in 0usize..3,
        capacity in 1usize..64,
    ) {
        let cfg = small(measured, seed, policy_idx, capacity);
        let spec = open_spec(rate_milli as f64 / 1000.0);
        let metrics = run_workload_spec(Scheme::Palermo, &spec, &cfg).unwrap();
        prop_assert!(metrics.arrival_conservation_ok());
        prop_assert_eq!(metrics.queue_waits.len(), metrics.latencies.len());
        let e2e = metrics.end_to_end_latencies();
        for (i, &total) in e2e.iter().enumerate() {
            prop_assert_eq!(metrics.queue_waits[i] + metrics.latencies[i], total);
        }
        // The block policy never drops; the drop policies never defer more
        // than the queue can hold.
        if cfg.admission_policy == AdmissionPolicyKind::Block {
            prop_assert_eq!(metrics.dropped_arrivals, 0);
        }
    }

    /// Determinism: the same open-loop spec under the same configuration is
    /// byte-identical run to run and across both steppers.
    #[test]
    fn same_spec_twice_is_byte_identical(
        rate_milli in 10u64..2000,
        measured in 8u64..24,
        seed in any::<u64>(),
        policy_idx in 0usize..3,
    ) {
        let cfg = small(measured, seed, policy_idx, 16);
        let spec = open_spec(rate_milli as f64 / 1000.0);
        let first =
            run_workload_spec_stepped(Scheme::RingOram, &spec, &cfg, &CalendarStepper).unwrap();
        let second =
            run_workload_spec_stepped(Scheme::RingOram, &spec, &cfg, &CalendarStepper).unwrap();
        prop_assert_eq!(&first, &second);
        let reference =
            run_workload_spec_stepped(Scheme::RingOram, &spec, &cfg, &ReferenceStepper).unwrap();
        prop_assert_eq!(&first, &reference);
    }
}
