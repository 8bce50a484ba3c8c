//! The hardware-profile determinism contract, end to end.
//!
//! The profile layer swaps the DRAM organisation, timing set and energy
//! coefficients underneath the whole simulator; these tests prove the swap
//! never perturbs the determinism contract: for every checked-in profile
//! and both schemes under test, [`RunMetrics`] are byte-identical across
//! both executors (serial vs. thread pool) and both steppers (calendar core
//! vs. per-cycle reference), and the DDR4-3200 profile reproduces the
//! hardcoded default configuration exactly.

use palermo::dram::{DramConfig, HardwareProfile};
use palermo::sim::experiment::{
    Experiment, ExportRow, RunSummary, SerialExecutor, TenantSummary, ThreadPoolExecutor,
};
use palermo::sim::runner::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, ReferenceStepper,
};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::{MixSpec, Workload, WorkloadSpec};
use std::path::{Path, PathBuf};

const SCHEMES: [Scheme; 2] = [Scheme::RingOram, Scheme::Palermo];

fn profile_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles")
}

/// The three checked-in profiles, loaded from `profiles/` through the real
/// file parser (not the builtins — the point is that the *files* drive the
/// simulator).
fn checked_in_profiles() -> Vec<HardwareProfile> {
    HardwareProfile::BUILTIN_NAMES
        .iter()
        .map(|name| {
            let path = profile_dir().join(format!("{name}.profile"));
            HardwareProfile::load(&path)
                .unwrap_or_else(|e| panic!("loading {}: {e}", path.display()))
        })
        .collect()
}

fn two_tenant_mix() -> WorkloadSpec {
    WorkloadSpec::Mix(
        MixSpec::round_robin()
            .tenant(Workload::Redis.into(), 2)
            .tenant(Workload::Llm.into(), 1),
    )
}

/// Per profile and scheme, the calendar core and the per-cycle
/// reference stepper produce byte-identical metrics — the time-skip proof
/// holds for every memory technology, not just the Table III default.
#[test]
fn every_profile_is_cycle_exact_across_steppers() {
    for profile in checked_in_profiles() {
        let cfg = SystemConfig::small_for_tests().with_hardware(&profile);
        for scheme in SCHEMES {
            let reference = run_workload_spec_stepped(
                scheme,
                &Workload::Random.into(),
                &cfg,
                &ReferenceStepper,
            )
            .unwrap_or_else(|e| panic!("{}/{scheme} reference: {e}", profile.name));
            let calendar =
                run_workload_spec_stepped(scheme, &Workload::Random.into(), &cfg, &CalendarStepper)
                    .unwrap_or_else(|e| panic!("{}/{scheme} calendar: {e}", profile.name));
            assert_eq!(
                reference, calendar,
                "{}/{scheme}: RunMetrics diverged between steppers",
                profile.name
            );
            assert_eq!(reference.hardware, profile.name);
        }
    }
}

/// The stepper equivalence also holds for a multi-tenant spec, where the
/// per-tenant attribution (and therefore the per-tenant energy split)
/// rides on the same counters.
#[test]
fn every_profile_is_cycle_exact_for_tenant_attribution() {
    let spec = two_tenant_mix();
    for profile in checked_in_profiles() {
        let cfg = SystemConfig::small_for_tests().with_hardware(&profile);
        for scheme in SCHEMES {
            let reference = run_workload_spec_stepped(scheme, &spec, &cfg, &ReferenceStepper)
                .unwrap_or_else(|e| panic!("{}/{scheme} reference: {e}", profile.name));
            let calendar = run_workload_spec_stepped(scheme, &spec, &cfg, &CalendarStepper)
                .unwrap_or_else(|e| panic!("{}/{scheme} calendar: {e}", profile.name));
            assert_eq!(
                reference, calendar,
                "{}/{scheme}: per-tenant metrics diverged between steppers",
                profile.name
            );
        }
    }
}

/// The full scheme x profile grid is byte-identical between the serial
/// executor and the thread pool, including the per-tenant energy columns
/// of the export schema.
#[test]
fn profile_sweep_is_identical_across_executors() {
    let cfg = SystemConfig::small_for_tests();
    let profiles = checked_in_profiles();
    let grid = |executor: &dyn palermo::sim::experiment::Executor| {
        Experiment::new(cfg.clone())
            .schemes(SCHEMES)
            .workload_specs([two_tenant_mix()])
            .sweep_hardware(&profiles)
            .run(executor)
            .expect("grid runs")
    };
    let serial = grid(&SerialExecutor);
    let pool = grid(&ThreadPoolExecutor::with_available_parallelism());
    assert_eq!(serial.len(), SCHEMES.len() * profiles.len());
    for (s, p) in serial.iter().zip(pool.iter()) {
        assert_eq!(s.metrics, p.metrics, "{}: executors diverged", s.label);
    }
    assert_eq!(
        RunSummary::to_csv(&serial.summaries()),
        RunSummary::to_csv(&pool.summaries())
    );
    assert_eq!(
        TenantSummary::to_csv(&serial.tenant_summaries()),
        TenantSummary::to_csv(&pool.tenant_summaries())
    );
}

/// Applying the checked-in DDR4-3200 profile is a no-op: the run it
/// produces is byte-identical to the hardcoded default configuration, so
/// the declarative path cannot drift from the seed behaviour.
#[test]
fn ddr4_profile_reproduces_the_hardcoded_default_run() {
    let ddr4 = checked_in_profiles()
        .into_iter()
        .find(|p| p.name == "ddr4-3200")
        .expect("ddr4-3200 is checked in");
    assert_eq!(ddr4.dram, DramConfig::ddr4_3200_quad_channel());

    let default_cfg = SystemConfig::small_for_tests();
    let profiled_cfg = SystemConfig::small_for_tests().with_hardware(&ddr4);
    for scheme in SCHEMES {
        let default_run =
            run_workload_spec(scheme, &Workload::Redis.into(), &default_cfg).expect("default run");
        let profiled_run = run_workload_spec(scheme, &Workload::Redis.into(), &profiled_cfg)
            .expect("profiled run");
        assert_eq!(
            default_run, profiled_run,
            "{scheme}: the DDR4-3200 profile drifted from the hardcoded default"
        );
    }
}

/// A structurally invalid DRAM configuration is rejected by the runner
/// with a typed error, never a panic.
#[test]
fn invalid_dram_configuration_is_a_typed_runner_error() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.dram.t_faw = cfg.dram.t_rrd_s; // < 4 * tRRD_S: inconsistent
    let err = run_workload_spec(Scheme::Palermo, &Workload::Random.into(), &cfg)
        .expect_err("inconsistent timing must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("invalid DRAM configuration"), "{msg}");
    assert!(msg.contains("t_faw"), "{msg}");
}
