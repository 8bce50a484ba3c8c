//! Property tests for the event-driven simulation core: arbitrary small
//! configurations must produce metrics byte-identical to the per-cycle
//! reference stepper, regardless of scheme, workload, warm-up window or
//! PE-mesh width.

use palermo_sim::runner::{run_workload_spec_stepped, CalendarStepper, ReferenceStepper};
use palermo_sim::schemes::Scheme;
use palermo_sim::system::SystemConfig;
use palermo_workloads::Workload;
use proptest::prelude::*;

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
        let scheme = Scheme::ALL[scheme_idx];
        let workload = Workload::ALL[workload_idx];

        let reference = run_workload_spec_stepped(scheme, &workload.into(), &cfg, &ReferenceStepper);
        let calendar = run_workload_spec_stepped(scheme, &workload.into(), &cfg, &CalendarStepper);
        match (reference, calendar) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            // Both steppers must agree even on failure (e.g. an all-hits
            // workload stalling), which is config- not clock-driven.
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "steppers disagreed on success: {a:?} vs {b:?}"),
        }
    }
}
