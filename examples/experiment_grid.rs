//! The typed experiment surface, end to end: build a (scheme × workload)
//! grid with the `Experiment` builder, fan it across cores with the
//! `ThreadPoolExecutor`, normalise against PathORAM and export the records
//! as CSV and JSON.
//!
//! Because every run's randomness derives only from its own spec, the
//! threaded results are byte-identical to a serial run of the same grid —
//! this example verifies that before printing anything.
//!
//! ```text
//! cargo run --release --example experiment_grid
//! PALERMO_REQUESTS=40 PALERMO_SERIAL_CHECK=1 cargo run --release --example experiment_grid
//! ```

mod support;

use palermo::analysis::report::{speedup, Table};
use palermo::sim::experiment::{
    Experiment, ExportRow, RunSummary, SerialExecutor, ThreadPoolExecutor,
};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::Workload;
use std::time::Instant;

fn grid(cfg: SystemConfig) -> Experiment {
    Experiment::new(cfg)
        .schemes([
            Scheme::PathOram,
            Scheme::RingOram,
            Scheme::Palermo,
            Scheme::PalermoPrefetch,
        ])
        .workloads([
            Workload::Mcf,
            Workload::Llm,
            Workload::Redis,
            Workload::Random,
        ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 200;
    cfg.warmup_requests = 50;
    support::apply_request_budget(&mut cfg)?;
    let serial_check = support::serial_check()?;

    let pool = ThreadPoolExecutor::with_available_parallelism();
    eprintln!(
        "running a 4x4 grid ({} measured requests per run) on {} worker thread(s) ...",
        cfg.measured_requests,
        pool.threads()
    );
    let started = Instant::now();
    let results = grid(cfg.clone()).run(&pool)?;
    let parallel_wall = started.elapsed();
    eprintln!("parallel run finished in {parallel_wall:.2?}");

    // Optionally re-run serially and verify the executors agree bit-for-bit
    // (always true by construction; cheap insurance when timing the pool).
    if serial_check {
        let started = Instant::now();
        let serial = grid(cfg).run(&SerialExecutor)?;
        let serial_wall = started.elapsed();
        assert_eq!(
            RunSummary::to_csv(&serial.summaries()),
            RunSummary::to_csv(&results.summaries()),
            "executors diverged"
        );
        eprintln!(
            "serial run finished in {serial_wall:.2?}; metrics identical; speedup {:.2}x",
            serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9)
        );
    }

    let workloads = [
        Workload::Mcf,
        Workload::Llm,
        Workload::Redis,
        Workload::Random,
    ];
    let schemes = [Scheme::RingOram, Scheme::Palermo, Scheme::PalermoPrefetch];
    let mut t = Table::new(
        "Experiment grid — speedup over PathORAM",
        &["workload", "RingORAM", "Palermo", "Palermo+Prefetch"],
    );
    for (w, row) in
        workloads
            .iter()
            .zip(results.speedup_matrix(Scheme::PathOram, &workloads, &schemes))
    {
        let mut cells = vec![w.to_string()];
        cells.extend(row.iter().map(|&v| speedup(v)));
        t.row(&cells);
    }
    let mut gm = vec!["geo-mean".to_string()];
    gm.extend(
        schemes
            .iter()
            .map(|&s| speedup(results.geo_mean_speedup(Scheme::PathOram, s, &workloads))),
    );
    t.row(&gm);
    println!("{}", t.to_text());

    let summaries = results.summaries();
    let csv = RunSummary::to_csv(&summaries);
    println!("--- CSV export (first 3 lines) ---");
    for line in csv.lines().take(3) {
        println!("{line}");
    }
    println!("--- JSON export (first record) ---");
    let json = RunSummary::to_json(&summaries);
    println!(
        "{}",
        json.lines().nth(1).unwrap_or("").trim_end_matches(',')
    );

    // Round-trip sanity: both exports parse back to the same summaries.
    assert_eq!(RunSummary::parse_csv(&csv), Some(summaries.clone()));
    assert_eq!(RunSummary::parse_json(&json), Some(summaries));
    println!(
        "\nCSV/JSON round-trip verified for {} records.",
        results.len()
    );
    Ok(())
}
