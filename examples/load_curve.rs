//! Latency-vs-offered-load knee curves under open-loop serving:
//!
//! 1. a Poisson offered-load sweep over the `random` workload, RingORAM
//!    vs. Palermo, through `Experiment::sweep_offered_load` — each grid
//!    point wraps the workload in an `open:poisson:<rate>` spec with the
//!    drop-tail admission queue in front of the ORAM pipeline;
//! 2. arrival accounting checked on every record (arrivals = admitted +
//!    dropped, one queue wait per completed request);
//! 3. the knee: p99 end-to-end latency flat at low load, blowing up at
//!    overload while achieved throughput plateaus at the scheme's
//!    saturation rate below the offered rate;
//! 4. the CSV/JSON exports (now carrying arrivals/drops/queue-wait
//!    columns) round-tripping through their parsers.
//!
//! ```text
//! cargo run --release --example load_curve
//! PALERMO_REQUESTS=40 PALERMO_SERIAL_CHECK=1 cargo run --release --example load_curve
//! ```

mod support;

use palermo::sim::experiment::{
    Experiment, ExportRow, RunSummary, SerialExecutor, ThreadPoolExecutor,
};
use palermo::sim::figures::load_curve;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::{Workload, WorkloadSpec};
use std::time::Instant;

const SCHEMES: [Scheme; 2] = [Scheme::RingOram, Scheme::Palermo];

/// The swept offered loads in requests per kilocycle: the low end is far
/// below either scheme's service rate, the high end far above it, so the
/// curve crosses the knee for both schemes.
const RATES: [f64; 4] = [0.005, 0.05, 0.5, 10.0];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 200;
    cfg.warmup_requests = 50;
    support::apply_request_budget(&mut cfg)?;
    let serial_check = support::serial_check()?;

    let inner = WorkloadSpec::Table2(Workload::Random);
    eprintln!(
        "open-loop sweep: {inner} x {:?} req/kcycle, queue={} policy={}",
        RATES,
        cfg.serving_queue_capacity,
        cfg.admission_policy.name()
    );

    let pool = ThreadPoolExecutor::with_available_parallelism();
    let started = Instant::now();
    let results = Experiment::new(cfg.clone())
        .schemes(SCHEMES)
        .workload_specs([inner.clone()])
        .sweep_offered_load(RATES)
        .run(&pool)?;
    eprintln!(
        "{}x{} (scheme x rate) grid finished in {:.2?} on {} worker thread(s)",
        SCHEMES.len(),
        RATES.len(),
        started.elapsed(),
        pool.threads()
    );

    // Arrival accounting holds on every record: drops bounded by arrivals,
    // exactly one queue wait per completed request.
    for record in &results {
        assert!(
            record.metrics.arrival_conservation_ok(),
            "arrival accounting violated for {}",
            record.label
        );
    }
    eprintln!("arrival accounting verified on every record");

    // Open-loop runs are deterministic like everything else; verify the
    // executors agree on demand.
    if serial_check {
        let serial = Experiment::new(cfg.clone())
            .schemes(SCHEMES)
            .workload_specs([inner.clone()])
            .sweep_offered_load(RATES)
            .run(&SerialExecutor)?;
        assert_eq!(
            RunSummary::to_csv(&serial.summaries()),
            RunSummary::to_csv(&results.summaries()),
            "executors diverged"
        );
        eprintln!("serial re-run verified: open-loop metrics byte-identical");
    }

    // The knee table, derived from the grid records already computed.
    let rows = load_curve::rows(&results, &inner, &RATES, &SCHEMES);
    println!("{}", load_curve::table(&inner, &rows).to_text());

    for &scheme in &SCHEMES {
        let per: Vec<&load_curve::LoadCurveRow> =
            rows.iter().filter(|r| r.scheme == scheme).collect();
        let (low, high) = (per[0], per[per.len() - 1]);
        assert!(
            low.p99_e2e < high.p99_e2e,
            "{scheme}: no knee (p99 {} !< {})",
            low.p99_e2e,
            high.p99_e2e
        );
        assert!(
            high.achieved_rate < high.offered_rate,
            "{scheme}: achieved did not plateau below offered at overload"
        );
        let sat = load_curve::saturation_rate(&rows, scheme).expect("scheme has rows");
        println!(
            "{scheme}: saturation throughput {:.4} req/kcycle \
             (p99 e2e {} -> {} cycles across the sweep)",
            sat, low.p99_e2e, high.p99_e2e
        );
    }

    // The aggregate exports — including the new arrivals/dropped/queue-wait
    // columns — survive both round trips.
    let summaries = results.summaries();
    let csv = RunSummary::to_csv(&summaries);
    assert_eq!(RunSummary::parse_csv(&csv), Some(summaries.clone()));
    assert_eq!(
        RunSummary::parse_json(&RunSummary::to_json(&summaries)),
        Some(summaries)
    );
    println!("CSV/JSON round-trip verified for {} rows", results.len());
    println!("--- CSV export (first 3 lines) ---");
    for line in csv.lines().take(3) {
        println!("{line}");
    }
    Ok(())
}
