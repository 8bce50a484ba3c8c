//! Integration tests for the open workload surface: trace replay and
//! multi-tenant mixes driven end to end through `run_workload_spec` and the
//! `Experiment` grid — determinism across executors and steppers, spec-name
//! round-trips through CSV/JSON, and export robustness for hostile labels.

use palermo::sim::experiment::{
    Experiment, ExportRow, RunSpec, RunSummary, SerialExecutor, ThreadPoolExecutor,
};
use palermo::sim::runner::{run_workload_spec, run_workload_spec_stepped};
use palermo::sim::runner::{CalendarStepper, ReferenceStepper};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::{format, MixSpec, TraceEntry, Workload, WorkloadSpec};
use std::path::PathBuf;

/// A shrunken configuration whose LLC (64 KiB) is much smaller than the
/// trace/mix footprints, so looping replays keep missing and every run
/// forms its full request budget.
fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 25;
    cfg.warmup_requests = 5;
    cfg.llc.capacity_bytes = 64 << 10;
    cfg
}

/// Writes a deterministic 6000-access trace (~4096 distinct lines, 12.5 %
/// writes) in the given encoding and returns its replay spec.
fn recorded_trace(name: &str, binary: bool) -> WorkloadSpec {
    let entries: Vec<TraceEntry> = (0..6000u64)
        .map(|i| {
            // A strided sweep over 4096 lines: always misses a 1024-line LLC.
            let addr = (i % 4096) * 64 + (i % 7) * 8;
            if i % 8 == 0 {
                TraceEntry::write(addr)
            } else {
                TraceEntry::read(addr)
            }
        })
        .collect();
    let path: PathBuf = std::env::temp_dir().join(name);
    if binary {
        format::save_binary(&path, &entries).unwrap();
    } else {
        format::save_text(&path, &entries).unwrap();
    }
    WorkloadSpec::replay(path.display().to_string())
}

fn four_tenant_mix() -> WorkloadSpec {
    WorkloadSpec::Mix(
        MixSpec::round_robin()
            .tenant(Workload::Redis.into(), 2)
            .tenant(Workload::Llm.into(), 1)
            .tenant(Workload::Streaming.into(), 1)
            .tenant(Workload::Random.into(), 1),
    )
}

#[test]
fn trace_replay_runs_end_to_end() {
    let cfg = tiny();
    let spec = recorded_trace("palermo_ws_e2e.trace", false);
    let m = run_workload_spec(Scheme::Palermo, &spec, &cfg).unwrap();
    assert_eq!(m.oram_requests, cfg.measured_requests);
    assert_eq!(m.latencies.len(), cfg.measured_requests as usize);
    assert!(m.cycles > 0);
    assert_eq!(m.workload, spec);
    assert!(m.workload.name().starts_with("replay:"));
}

#[test]
fn binary_and_text_encodings_replay_identically() {
    let cfg = tiny();
    let text = recorded_trace("palermo_ws_enc.trace", false);
    let binary = recorded_trace("palermo_ws_enc.ptrc", true);
    let mt = run_workload_spec(Scheme::Palermo, &text, &cfg).unwrap();
    let mb = run_workload_spec(Scheme::Palermo, &binary, &cfg).unwrap();
    // Same recorded accesses => byte-identical simulation, whatever the
    // on-disk encoding.
    assert_eq!(mt.cycles, mb.cycles);
    assert_eq!(mt.latencies, mb.latencies);
    assert_eq!(mt.dram, mb.dram);
}

#[test]
fn mix_runs_end_to_end_and_is_seed_deterministic() {
    let cfg = tiny();
    let spec = four_tenant_mix();
    let a = run_workload_spec(Scheme::Palermo, &spec, &cfg).unwrap();
    let b = run_workload_spec(Scheme::Palermo, &spec, &cfg).unwrap();
    assert_eq!(a.oram_requests, cfg.measured_requests);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.latencies, b.latencies);
    assert_eq!(a.behaviour_latency, b.behaviour_latency);
    let mut other_seed = cfg;
    other_seed.seed ^= 0xDEAD;
    let c = run_workload_spec(Scheme::Palermo, &spec, &other_seed).unwrap();
    assert_ne!(
        (a.cycles, a.latencies.clone()),
        (c.cycles, c.latencies.clone()),
        "a different seed should produce a different run"
    );
}

#[test]
fn built_streams_are_prefix_deterministic() {
    let specs = [
        four_tenant_mix(),
        WorkloadSpec::Mix(
            MixSpec::zipf(0.9)
                .tenant(Workload::Redis.into(), 1)
                .tenant(Workload::Random.into(), 1),
        ),
        recorded_trace("palermo_ws_prefix.trace", true),
    ];
    for spec in specs {
        let mut a = spec.build(16 << 20, 42).unwrap();
        let mut b = spec.build(16 << 20, 42).unwrap();
        for i in 0..10_000 {
            assert_eq!(a.next_access(), b.next_access(), "{spec} diverged at {i}");
        }
        assert_eq!(a.footprint_bytes(), b.footprint_bytes());
    }
}

#[test]
fn spec_grid_is_byte_identical_across_executors() {
    let grid = || {
        Experiment::new(tiny())
            .schemes([Scheme::RingOram, Scheme::Palermo])
            .workload_specs([
                four_tenant_mix(),
                recorded_trace("palermo_ws_grid.trace", false),
            ])
    };
    let serial = grid().run(&SerialExecutor).unwrap();
    let pooled = grid().run(&ThreadPoolExecutor::new(4)).unwrap();
    assert_eq!(serial.len(), 4);
    assert_eq!(serial.len(), pooled.len());
    for (s, p) in serial.iter().zip(pooled.iter()) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.metrics.cycles, p.metrics.cycles, "{}", s.label);
        assert_eq!(s.metrics.latencies, p.metrics.latencies, "{}", s.label);
        assert_eq!(s.metrics.dram, p.metrics.dram, "{}", s.label);
    }
    assert_eq!(
        RunSummary::to_csv(&serial.summaries()),
        RunSummary::to_csv(&pooled.summaries())
    );
    assert_eq!(
        RunSummary::to_json(&serial.summaries()),
        RunSummary::to_json(&pooled.summaries())
    );
}

#[test]
fn calendar_stepper_matches_reference_on_new_streams() {
    let cfg = tiny();
    for spec in [
        four_tenant_mix(),
        recorded_trace("palermo_ws_stepper.trace", true),
    ] {
        for scheme in [Scheme::RingOram, Scheme::Palermo] {
            let reference =
                run_workload_spec_stepped(scheme, &spec, &cfg, &ReferenceStepper).unwrap();
            let calendar =
                run_workload_spec_stepped(scheme, &spec, &cfg, &CalendarStepper).unwrap();
            assert_eq!(reference, calendar, "{scheme:?} on {spec}");
        }
    }
}

#[test]
fn spec_names_round_trip_through_csv_and_json() {
    let set = Experiment::new(tiny())
        .schemes([Scheme::Palermo])
        .workload_specs([
            WorkloadSpec::Table2(Workload::Mcf),
            four_tenant_mix(),
            recorded_trace("palermo_ws_export.trace", false),
        ])
        .run(&SerialExecutor)
        .unwrap();
    let summaries = set.summaries();
    // The workload column is the canonical spec name in both exports.
    assert!(RunSummary::to_csv(&summaries)
        .lines()
        .nth(2)
        .unwrap()
        .contains("mix:rr:redis*2+llm+stream+random"));
    assert_eq!(
        RunSummary::parse_csv(&RunSummary::to_csv(&summaries)).unwrap(),
        summaries
    );
    let parsed = RunSummary::parse_json(&RunSummary::to_json(&summaries)).unwrap();
    assert_eq!(parsed, summaries);
    // Each parsed workload is semantically the spec that produced it.
    assert_eq!(parsed[1].workload, four_tenant_mix());
}

#[test]
fn hostile_labels_survive_both_exports_in_both_directions() {
    let cfg = tiny();
    let hostile = "tenant \"A\", 50%+ load, {prod}";
    let spec = RunSpec::with_workload_spec(Scheme::Palermo, four_tenant_mix(), cfg.clone())
        .with_label(hostile);
    let set = Experiment::new(cfg)
        .spec(spec)
        .run(&SerialExecutor)
        .unwrap();

    // JSON escapes quotes/commas and restores them exactly.
    let parsed = RunSummary::parse_json(&RunSummary::to_json(&set.summaries())).unwrap();
    assert_eq!(parsed[0].label, hostile);
    assert_eq!(parsed, set.summaries());

    // CSV flattens the comma (separator) but keeps one well-formed row that
    // re-renders byte-identically from the parsed values.
    let csv = RunSummary::to_csv(&set.summaries());
    assert_eq!(csv.lines().count(), 2);
    let parsed = RunSummary::parse_csv(&csv).unwrap();
    assert_eq!(parsed[0].label, "tenant \"A\"; 50%+ load; {prod}");
    assert_eq!(RunSummary::to_csv(&parsed), csv);
}

#[test]
fn oversized_spec_footprints_are_rejected_instead_of_aliasing() {
    use palermo::oram::error::OramError;
    // `tiny()` protects 32 MiB.
    let cfg = tiny();
    // A trace recorded far beyond the protected region: wrapping it would
    // destroy the recorded locality, so the runner must refuse.
    let path = std::env::temp_dir().join("palermo_ws_oversized.trace");
    let entries = vec![TraceEntry::read(0), TraceEntry::read(1 << 36)];
    format::save_text(&path, &entries).unwrap();
    let replay = WorkloadSpec::replay(path.display().to_string());
    let err = run_workload_spec(Scheme::Palermo, &replay, &cfg).unwrap_err();
    assert!(
        matches!(err, OramError::InvalidParams { ref reason } if reason.contains("alias")),
        "unexpected error: {err}"
    );
    // A mix with enough tenants to outgrow the protected space: per-tenant
    // generators clamp their hint to >= 1 MiB, so 64 tenants cannot fit in
    // 32 MiB and wrapping would alias their partitions.
    let mut big = MixSpec::round_robin();
    for _ in 0..64 {
        big = big.tenant(Workload::Llm.into(), 1);
    }
    let err = run_workload_spec(Scheme::Palermo, &WorkloadSpec::Mix(big), &cfg).unwrap_err();
    assert!(
        matches!(err, OramError::InvalidParams { ref reason } if reason.contains("alias")),
        "unexpected error: {err}"
    );
}

#[test]
fn sweeps_compose_with_workload_specs() {
    // A config sweep over a mix: the open surface composes with the
    // existing Experiment dimensions (variants, prefetch, extra specs).
    let specs = Experiment::new(tiny())
        .schemes([Scheme::Palermo])
        .workload_specs([four_tenant_mix()])
        .sweep_config("pe=2", |c| c.pe_columns = 2)
        .sweep_config("pe=8", |c| c.pe_columns = 8)
        .build();
    assert_eq!(specs.len(), 2);
    assert_eq!(specs[0].config.pe_columns, 2);
    assert!(specs[0].label.ends_with("/pe=2"));
    assert!(specs[0].label.contains("mix:rr:"));
}
