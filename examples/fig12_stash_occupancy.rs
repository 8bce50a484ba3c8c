//! Regenerates Fig. 12: Palermo stash occupancy over the course of each
//! workload, demonstrating that concurrency does not break the stash bound.
//!
//! ```text
//! cargo run --release --example fig12_stash_occupancy
//! ```

use palermo::sim::experiment::ThreadPoolExecutor;
use palermo::sim::figures::fig12;
use palermo::sim::system::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 500;
    cfg.warmup_requests = 125;
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = n / 4;
    }
    eprintln!("sampling Palermo stash occupancy on mcf / pr / llm / redis ...");
    let rows = fig12::run(&cfg, &ThreadPoolExecutor::with_available_parallelism())?;
    println!("{}", fig12::table(&rows).to_text());
    for row in &rows {
        let series: Vec<String> = row
            .samples
            .iter()
            .step_by((row.samples.len() / 10).max(1))
            .map(|(p, occ)| format!("{:3.0}%:{occ:>3}", p * 100.0))
            .collect();
        println!("{:>7}  {}", row.workload, series.join("  "));
    }
    println!("\n(paper: maxima of 228-237 against the 256-entry capacity)");
    Ok(())
}
