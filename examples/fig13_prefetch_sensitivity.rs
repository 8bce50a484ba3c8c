//! Regenerates Fig. 13: Palermo speedup over PathORAM at several prefetch
//! lengths (nopf, 2, 4, 8).
//!
//! ```text
//! cargo run --release --example fig13_prefetch_sensitivity
//! ```

use palermo::sim::experiment::ThreadPoolExecutor;
use palermo::sim::figures::fig13;
use palermo::sim::system::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 300;
    cfg.warmup_requests = 75;
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = n / 4;
    }
    eprintln!("sweeping Palermo prefetch lengths on mcf / pr / llm / redis ...");
    let rows = fig13::run(
        &cfg,
        &[1, 2, 4, 8],
        &ThreadPoolExecutor::with_available_parallelism(),
    )?;
    println!("{}", fig13::table(&rows).to_text());
    println!("Expected shape (paper): performance changes only moderately with the");
    println!("prefetch length and stays above PathORAM throughout — Palermo is not");
    println!("critically dependent on picking the best length.");
    Ok(())
}
