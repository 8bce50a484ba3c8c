//! Determinism contract for stash-order-sensitive simulation state.
//!
//! The stash used to key its occupancy on `HashMap<BlockId, StashEntry>`,
//! whose per-instance `RandomState` seed made iteration order — and thus
//! eviction candidate order — vary from process to process even with fixed
//! seeds. It now uses a `BTreeMap`, so traversal is ascending-`BlockId` and
//! a pure function of stash *contents*, never of insertion history or hasher
//! seeds. These tests pin that contract at the system level: repeated runs of
//! the full paper grid produce **byte-identical** [`RunMetrics`].

use palermo::sim::runner::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, ReferenceStepper,
};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::Workload;

/// Two independent runs of every (scheme, workload) pair of the paper grid
/// produce byte-identical metrics. With a hash-seeded stash this held only
/// within a process; the `BTreeMap` stash makes it structural.
#[test]
fn repeated_runs_are_byte_identical_across_the_full_grid() {
    let cfg = SystemConfig::small_for_tests();
    for scheme in Scheme::ALL {
        for workload in Workload::ALL {
            let first = run_workload_spec(scheme, &workload.into(), &cfg)
                .unwrap_or_else(|e| panic!("first run failed for {scheme}/{workload}: {e}"));
            let second = run_workload_spec(scheme, &workload.into(), &cfg)
                .unwrap_or_else(|e| panic!("second run failed for {scheme}/{workload}: {e}"));
            assert_eq!(
                first, second,
                "{scheme}/{workload}: RunMetrics diverged between identical runs"
            );
        }
    }
}

/// The determinism holds across *stepper implementations* too: the reference
/// per-cycle stepper and the calendar core must agree run-over-run, so
/// stash ordering cannot leak through either scheduling path.
#[test]
fn stash_order_is_stable_across_steppers_and_repeats() {
    let cfg = SystemConfig::small_for_tests();
    for scheme in [Scheme::PathOram, Scheme::RingOram, Scheme::Palermo] {
        let workload = Workload::Random;
        let ref_a = run_workload_spec_stepped(scheme, &workload.into(), &cfg, &ReferenceStepper)
            .unwrap_or_else(|e| panic!("reference run failed for {scheme}: {e}"));
        let ref_b = run_workload_spec_stepped(scheme, &workload.into(), &cfg, &ReferenceStepper)
            .unwrap_or_else(|e| panic!("reference rerun failed for {scheme}: {e}"));
        let cal_a = run_workload_spec_stepped(scheme, &workload.into(), &cfg, &CalendarStepper)
            .unwrap_or_else(|e| panic!("calendar run failed for {scheme}: {e}"));
        let cal_b = run_workload_spec_stepped(scheme, &workload.into(), &cfg, &CalendarStepper)
            .unwrap_or_else(|e| panic!("calendar rerun failed for {scheme}: {e}"));
        assert_eq!(ref_a, ref_b, "{scheme}: reference stepper not reproducible");
        assert_eq!(cal_a, cal_b, "{scheme}: calendar stepper not reproducible");
        assert_eq!(ref_a, cal_a, "{scheme}: steppers diverged");
    }
}
