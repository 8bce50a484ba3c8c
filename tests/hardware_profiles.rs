//! The hardware-profile determinism contract, end to end.
//!
//! The profile layer swaps the DRAM organisation, timing set and energy
//! coefficients underneath the whole simulator; these tests prove the swap
//! never perturbs the determinism contract: for every checked-in profile
//! and both schemes under test, [`RunMetrics`] are byte-identical across
//! both executors (serial vs. thread pool) and both steppers (calendar core
//! vs. per-cycle reference), and the DDR4-3200 profile reproduces the
//! hardcoded default configuration exactly.

use palermo::dram::config::MAX_TIMING_CYCLES;
use palermo::dram::{DramConfig, DramConfigError, HardwareProfile, ProfileError};
use palermo::oram::error::OramError;
use palermo::sim::experiment::{
    Experiment, ExportRow, RunSummary, SerialExecutor, TenantSummary, ThreadPoolExecutor,
};
use palermo::sim::figures::fig14;
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

/// A timing at the validator's limit keeps every cycle sum the channel forms
/// far below 2^64, so a run on a profile with any of these at the limit
/// completes. (Each other timing is held far below the limit by a
/// cross-check, except `t_bl`: a run ticks through every cycle of a burst,
/// so at the limit it would not finish.)
#[test]
fn timings_at_the_limit_run_without_overflow() {
    let base = HardwareProfile::ddr4_3200().to_file_string();
    let random = Workload::Random.into();
    for key in ["t_cl", "t_cwl", "t_rc", "t_faw", "t_wr", "t_wtr", "t_rtp"] {
        let text: String = base
            .lines()
            .map(|l| match l.split_once(" = ") {
                Some((k, _)) if k == key => format!("{key} = {MAX_TIMING_CYCLES}\n"),
                _ => format!("{l}\n"),
            })
            .collect();
        let profile = HardwareProfile::parse(&text).unwrap_or_else(|e| panic!("{key}: {e}"));
        let cfg = SystemConfig::small_for_tests().with_hardware(&profile);
        let metrics = run_workload_spec(Scheme::Palermo, &random, &cfg)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        assert!(metrics.cycles > MAX_TIMING_CYCLES, "{key}");
    }
}

/// A PE mesh without columns could accept no request, so the three mesh
/// schemes reject it by name instead of stepping forever. A profile's
/// provisioning override can carry the 0 (the file parser rejects it, the
/// struct does not); RingORAM's serial controller ignores the field.
#[test]
fn zero_pe_columns_are_a_typed_runner_error() {
    let mut profile = HardwareProfile::ddr4_3200();
    profile.provisioning.pe_columns = Some(0);
    let cfg = SystemConfig::small_for_tests().with_hardware(&profile);
    assert_eq!(cfg.pe_columns, 0);
    let random = Workload::Random.into();
    for scheme in [Scheme::Palermo, Scheme::PalermoSw, Scheme::PalermoPrefetch] {
        let err = run_workload_spec(scheme, &random, &cfg).unwrap_err();
        assert!(
            matches!(&err, OramError::InvalidParams { reason } if reason.contains("pe_columns")),
            "{scheme}: {err}"
        );
    }
    assert!(run_workload_spec(Scheme::RingOram, &random, &cfg).is_ok());
    let err = fig14::run_pe_sweep(&SystemConfig::small_for_tests(), &[0], &SerialExecutor)
        .expect_err("a 0-column point must not run as 1 column");
    assert!(err.to_string().contains("pe_columns"), "{err}");
}

/// The address map has no rank bits, so a rank count that is not a power of
/// two is legal: a `ranks = 3` profile parses, builds its DRAM system and
/// runs both steppers to the same bytes.
#[test]
fn a_three_rank_profile_builds_and_runs() {
    let text = HardwareProfile::ddr4_3200()
        .to_file_string()
        .replace("ranks = 1", "ranks = 3");
    let profile = HardwareProfile::parse(&text).expect("ranks = 3 is a valid profile");
    assert_eq!(profile.dram.ranks, 3);
    let cfg = SystemConfig::small_for_tests().with_hardware(&profile);
    let random = Workload::Random.into();
    for scheme in SCHEMES {
        let reference = run_workload_spec_stepped(scheme, &random, &cfg, &ReferenceStepper)
            .unwrap_or_else(|e| panic!("{scheme} reference: {e}"));
        let calendar = run_workload_spec_stepped(scheme, &random, &cfg, &CalendarStepper)
            .unwrap_or_else(|e| panic!("{scheme} calendar: {e}"));
        assert_eq!(reference, calendar, "{scheme}: steppers diverged");
        assert_eq!(reference.oram_requests, cfg.measured_requests);
    }
}

/// The channel scheduler tracks at most 64 banks per channel, one bit each
/// in a mask per command class; a profile whose address map reaches more is
/// a typed parse error, not a panic when the DRAM system is built.
#[test]
fn a_profile_with_more_than_64_banks_per_channel_is_a_typed_error() {
    let text = HardwareProfile::ddr4_3200()
        .to_file_string()
        .replace("bank_groups = 4", "bank_groups = 32");
    let err = HardwareProfile::parse(&text).expect_err("128 banks per channel must not parse");
    assert!(
        matches!(
            err,
            ProfileError::Config(DramConfigError::TooManyBanks { banks: 128 })
        ),
        "{err}"
    );
}

/// A DRAM system builds every channel up front, so a profile asking for
/// 2^31 channels (about 1 TiB of channel state) is a typed parse error; no
/// DRAM system is ever built from it.
#[test]
fn a_profile_with_more_than_64_channels_is_a_typed_error() {
    let text = HardwareProfile::ddr4_3200()
        .to_file_string()
        .replace("channels = 4", "channels = 2147483648");
    let err = HardwareProfile::parse(&text).expect_err("2^31 channels must not parse");
    assert!(
        matches!(
            err,
            ProfileError::Config(DramConfigError::TooManyChannels {
                channels: 2_147_483_648
            })
        ),
        "{err}"
    );
}
