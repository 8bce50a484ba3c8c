//! The open workload surface, end to end: an 8-tenant redis+llm+stream
//! cloud-serving mix and a recorded-trace replay, swept through the
//! `Experiment` grid under Palermo vs. RingORAM.
//!
//! The example demonstrates every piece the `WorkloadSpec` surface adds:
//!
//! 1. a multi-tenant `Mix` (weighted round-robin, per-tenant address
//!    partitioning, deterministic per-tenant seeding);
//! 2. a `TraceReplay` of a trace file written in the text format (the
//!    recording here is captured from a generator, but any `R/W <addr>`
//!    file replays the same way);
//! 3. spec-name round-trips through the CSV and JSON exports.
//!
//! ```text
//! cargo run --release --example multi_tenant_mix
//! PALERMO_REQUESTS=40 PALERMO_SERIAL_CHECK=1 cargo run --release --example multi_tenant_mix
//! ```

use palermo::sim::experiment::{Experiment, ResultSet, SerialExecutor, ThreadPoolExecutor};
use palermo::sim::figures::tenant_mix;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::{format, Workload, WorkloadSpec};
use std::time::Instant;

const SCHEMES: [Scheme; 2] = [Scheme::RingOram, Scheme::Palermo];

/// Records a short trace from the `mcf` generator and saves it in the text
/// format, returning the replay spec. Stands in for a real capture file.
fn record_trace(cfg: &SystemConfig) -> Result<WorkloadSpec, String> {
    let mut stream = Workload::Mcf.build(cfg.workload_footprint, 0xC0FFEE);
    let entries: Vec<_> = (0..30_000).map(|_| stream.next_access()).collect();
    let path = std::env::temp_dir().join("palermo_multi_tenant_mix.trace");
    format::save_text(&path, &entries)?;
    Ok(WorkloadSpec::replay(path.display().to_string()))
}

fn grid(cfg: SystemConfig, specs: &[WorkloadSpec]) -> Experiment {
    Experiment::new(cfg)
        .schemes(SCHEMES)
        .workload_specs(specs.iter().cloned())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 200;
    cfg.warmup_requests = 50;
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = (n / 4).max(1);
    }

    let mix = tenant_mix::service_mix(8);
    let replay = record_trace(&cfg)?;
    eprintln!("workload specs under test:");
    eprintln!("  {mix}");
    eprintln!("  {replay}");
    let specs = [mix.clone(), replay];

    let pool = ThreadPoolExecutor::with_available_parallelism();
    eprintln!(
        "running a {}x{} (scheme x spec) grid ({} measured requests per run) on {} worker thread(s) ...",
        SCHEMES.len(),
        specs.len(),
        cfg.measured_requests,
        pool.threads()
    );
    let started = Instant::now();
    let results = grid(cfg.clone(), &specs).run(&pool)?;
    eprintln!("parallel run finished in {:.2?}", started.elapsed());

    // The executors are byte-identical by construction; verify on demand.
    if std::env::var("PALERMO_SERIAL_CHECK").is_ok() {
        let serial = grid(cfg.clone(), &specs).run(&SerialExecutor)?;
        assert_eq!(serial.to_csv(), results.to_csv(), "executors diverged");
        eprintln!("serial re-run verified: executors byte-identical");
    }

    // The 8-tenant mix, rendered through the tenant_mix figure runner.
    let rows = tenant_mix::run(&cfg, &mix, &SCHEMES, &pool)?;
    println!("{}", tenant_mix::table(&mix, &rows).to_text());

    // Per-spec serving summary straight from the grid records.
    for record in &results {
        let m = &record.metrics;
        println!(
            "{:>9} on {}\n          {:.5} acc/cycle, mean latency {:.0} cycles, \
dummy fraction {:.1}%",
            record.scheme.to_string(),
            record.workload,
            m.accesses_per_cycle(),
            m.mean_latency(),
            100.0 * m.dummy_fraction(),
        );
    }

    // Spec names survive both exports: parse back and compare.
    let csv = results.to_csv();
    let json = results.to_json();
    assert_eq!(
        ResultSet::parse_csv(&csv).as_deref(),
        Some(results.summaries().as_slice())
    );
    assert_eq!(
        ResultSet::parse_json(&json).as_deref(),
        Some(results.summaries().as_slice())
    );
    println!(
        "\nCSV/JSON round-trip verified for {} records (incl. mix and replay spec names).",
        results.len()
    );
    println!("--- CSV export (first 3 lines) ---");
    for line in csv.lines().take(3) {
        println!("{line}");
    }
    Ok(())
}
