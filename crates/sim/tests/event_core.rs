//! Property tests for the event-driven simulation core: arbitrary small
//! configurations must produce metrics byte-identical to the per-cycle
//! reference stepper, regardless of scheme, workload, warm-up window,
//! PE-mesh width or DRAM queue depth.

use palermo_sim::runner::{run_workload_spec_stepped, CalendarStepper, ReferenceStepper};
use palermo_sim::schemes::Scheme;
use palermo_sim::system::SystemConfig;
use palermo_workloads::Workload;
use proptest::prelude::*;

/// Runs `scheme` on `workload` under both steppers and asserts they agree.
fn assert_steppers_agree(cfg: &SystemConfig, scheme: Scheme, workload: Workload) {
    let reference = run_workload_spec_stepped(scheme, &workload.into(), cfg, &ReferenceStepper);
    let calendar = run_workload_spec_stepped(scheme, &workload.into(), cfg, &CalendarStepper);
    match (reference, calendar) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        // Both steppers must agree even on failure (e.g. an all-hits
        // workload stalling), which is config- not clock-driven.
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
        (a, b) => prop_assert!(false, "steppers disagreed on success: {a:?} vs {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (config, scheme, workload) triples run cycle-exactly under
    /// time skipping.
    #[test]
    fn random_configs_are_cycle_exact(
        measured in 5u64..25,
        warmup in 0u64..10,
        pe_columns in 2usize..9,
        seed in any::<u64>(),
        scheme_idx in 0usize..Scheme::ALL.len(),
        workload_idx in 0usize..Workload::ALL.len(),
    ) {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = measured;
        cfg.warmup_requests = warmup;
        cfg.pe_columns = pe_columns;
        cfg.seed = seed;
        assert_steppers_agree(&cfg, Scheme::ALL[scheme_idx], Workload::ALL[workload_idx]);
    }

    /// The same with shallow DRAM queues, where the controller is often
    /// turned away by a full queue and a skip window must end at the first
    /// command that frees a slot it can use.
    #[test]
    fn random_configs_with_shallow_dram_queues_are_cycle_exact(
        measured in 5u64..25,
        warmup in 0u64..10,
        pe_columns in 2usize..9,
        queue_capacity in 1usize..=8,
        seed in any::<u64>(),
        scheme_idx in 0usize..Scheme::ALL.len(),
        workload_idx in 0usize..Workload::ALL.len(),
    ) {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = measured;
        cfg.warmup_requests = warmup;
        cfg.pe_columns = pe_columns;
        cfg.dram.queue_capacity = queue_capacity;
        cfg.seed = seed;
        assert_steppers_agree(&cfg, Scheme::ALL[scheme_idx], Workload::ALL[workload_idx]);
    }
}
