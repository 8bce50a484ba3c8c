//! Integration tests for the typed experiment API: executor determinism,
//! CSV/JSON round-trips, and the parallel wall-clock win on multi-core
//! hosts.

use palermo::sim::experiment::{
    Experiment, ExportRow, RunSpec, RunSummary, SerialExecutor, ShardSummary, TenantSummary,
    ThreadPoolExecutor,
};
use palermo::sim::figures::fig10;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::Workload;
use std::sync::Mutex;
use std::time::Instant;

/// Serialises the tests that saturate the machine (full grids, wall-clock
/// timing) so they don't contend with each other inside the parallel test
/// harness and skew the timing comparison.
static HEAVY: Mutex<()> = Mutex::new(());

fn heavy_guard() -> std::sync::MutexGuard<'static, ()> {
    HEAVY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.measured_requests = 30;
    cfg.warmup_requests = 8;
    cfg
}

fn fig10_style_grid() -> Experiment {
    Experiment::new(tiny()).schemes(Scheme::ALL).workloads([
        Workload::Mcf,
        Workload::Llm,
        Workload::Redis,
        Workload::Random,
    ])
}

#[test]
fn executors_produce_byte_identical_metrics_on_a_fixed_seed_grid() {
    let _guard = heavy_guard();
    let serial = fig10_style_grid().run(&SerialExecutor).unwrap();
    let pooled = fig10_style_grid().run(&ThreadPoolExecutor::new(4)).unwrap();
    assert_eq!(serial.len(), pooled.len());
    for (s, p) in serial.iter().zip(pooled.iter()) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.scheme, p.scheme);
        assert_eq!(s.workload, p.workload);
        // Full metric equality, not just the scalar summaries.
        assert_eq!(
            s.metrics.oram_requests, p.metrics.oram_requests,
            "{}",
            s.label
        );
        assert_eq!(s.metrics.workload_accesses, p.metrics.workload_accesses);
        assert_eq!(s.metrics.dummy_requests, p.metrics.dummy_requests);
        assert_eq!(s.metrics.cycles, p.metrics.cycles, "{}", s.label);
        assert_eq!(s.metrics.latencies, p.metrics.latencies, "{}", s.label);
        assert_eq!(s.metrics.behaviour_latency, p.metrics.behaviour_latency);
        assert_eq!(s.metrics.stash_high_water, p.metrics.stash_high_water);
        assert_eq!(s.metrics.sync_stall_cycles, p.metrics.sync_stall_cycles);
        assert_eq!(s.metrics.dram.reads, p.metrics.dram.reads);
        assert_eq!(s.metrics.dram.writes, p.metrics.dram.writes);
    }
    // The rendered exports are byte-identical too.
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
fn figure_runners_are_executor_agnostic() {
    let _guard = heavy_guard();
    let cfg = tiny();
    let workloads = [Workload::Random];
    let schemes = [Scheme::PathOram, Scheme::RingOram, Scheme::Palermo];
    let serial = fig10::run(&cfg, &workloads, &schemes, &SerialExecutor).unwrap();
    let pooled = fig10::run(&cfg, &workloads, &schemes, &ThreadPoolExecutor::new(3)).unwrap();
    assert_eq!(serial.speedup, pooled.speedup);
    assert_eq!(
        fig10::table(&serial).to_csv(),
        fig10::table(&pooled).to_csv()
    );
}

#[test]
fn csv_export_round_trips() {
    let set = Experiment::new(tiny())
        .schemes([Scheme::PathOram, Scheme::Palermo])
        .workloads([Workload::Random, Workload::Llm])
        .run(&SerialExecutor)
        .unwrap();
    let csv = RunSummary::to_csv(&set.summaries());
    let parsed = RunSummary::parse_csv(&csv).expect("well-formed CSV");
    assert_eq!(parsed, set.summaries());
    // A second render from nothing but the parsed values is identical.
    assert_eq!(RunSummary::to_csv(&parsed), csv);
}

#[test]
fn json_export_round_trips() {
    let set = Experiment::new(tiny())
        .schemes([Scheme::RingOram])
        .workloads([Workload::Redis])
        .sweep_prefetch([1, 4])
        .run(&SerialExecutor)
        .unwrap();
    let parsed =
        RunSummary::parse_json(&RunSummary::to_json(&set.summaries())).expect("well-formed JSON");
    assert_eq!(parsed, set.summaries());
    assert_eq!(parsed.len(), 2);
    assert!(parsed[0].label.ends_with("pf=1"));
}

#[test]
fn custom_labelled_specs_survive_export() {
    let spec =
        RunSpec::new(Scheme::Palermo, Workload::Random, tiny()).with_label("tuned, with commas");
    let set = Experiment::new(tiny())
        .spec(spec)
        .run(&SerialExecutor)
        .unwrap();
    let parsed = RunSummary::parse_csv(&RunSummary::to_csv(&set.summaries())).unwrap();
    // CSV sanitises the comma; JSON preserves the label exactly.
    assert_eq!(parsed[0].label, "tuned; with commas");
    let parsed = RunSummary::parse_json(&RunSummary::to_json(&set.summaries())).unwrap();
    assert_eq!(parsed[0].label, "tuned, with commas");
}

/// The README's schema block is the export column tables, verbatim: a
/// renamed, reordered or added column must update the docs with it.
#[test]
fn readme_documents_every_export_schema() {
    fn documented<R: ExportRow>(readme: &str) {
        let header = R::COLUMNS.join(",");
        assert!(
            readme.lines().any(|line| line == header),
            "README.md lacks the export header line {header}"
        );
    }
    let readme = include_str!("../README.md");
    documented::<RunSummary>(readme);
    documented::<TenantSummary>(readme);
    documented::<ShardSummary>(readme);
}

/// The wall-clock acceptance check: on a multi-core host the thread pool
/// must finish the Fig. 10-style grid at least 2x faster than the serial
/// executor, with identical metrics. Skipped (trivially passing) on hosts
/// with fewer than four cores, where the comparison is meaningless.
#[test]
fn thread_pool_halves_wall_clock_on_multicore_hosts() {
    let _guard = heavy_guard();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping wall-clock comparison: only {cores} core(s) available");
        return;
    }
    let started = Instant::now();
    let serial = fig10_style_grid().run(&SerialExecutor).unwrap();
    let serial_wall = started.elapsed();

    let started = Instant::now();
    let pooled = fig10_style_grid()
        .run(&ThreadPoolExecutor::with_available_parallelism())
        .unwrap();
    let pooled_wall = started.elapsed();

    assert_eq!(
        RunSummary::to_csv(&serial.summaries()),
        RunSummary::to_csv(&pooled.summaries()),
        "executors diverged"
    );
    let speedup = serial_wall.as_secs_f64() / pooled_wall.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "thread pool speedup {speedup:.2}x < 2x on {cores} cores \
(serial {serial_wall:.2?}, pooled {pooled_wall:.2?})"
    );
}
