//! Regenerates Fig. 3: RingORAM bandwidth utilisation and memory-cycle
//! breakdown (the motivation study).
//!
//! ```text
//! cargo run --release --example fig03_ring_breakdown
//! PALERMO_REQUESTS=2000 cargo run --release --example fig03_ring_breakdown
//! ```

use palermo::sim::experiment::ThreadPoolExecutor;
use palermo::sim::figures::fig03;
use palermo::sim::system::SystemConfig;

fn scaled_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    if let Ok(n) = std::env::var("PALERMO_REQUESTS") {
        if let Ok(n) = n.parse::<u64>() {
            cfg.measured_requests = n;
            cfg.warmup_requests = n / 4;
        }
    }
    cfg
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = scaled_config();
    eprintln!(
        "simulating RingORAM on 5 workloads, {} measured requests each ...",
        cfg.measured_requests
    );
    let rows = fig03::run(&cfg, &ThreadPoolExecutor::with_available_parallelism())?;
    println!("{}", fig03::table(&rows).to_text());
    let avg_sync: f64 = rows.iter().map(|r| r.sync_fraction).sum::<f64>() / rows.len() as f64;
    let avg_util: f64 =
        rows.iter().map(|r| r.bandwidth_utilization).sum::<f64>() / rows.len() as f64;
    println!(
        "average bandwidth utilisation: {:.1}%  (paper: < 30%)",
        avg_util * 100.0
    );
    println!(
        "average ORAM-sync stall share: {:.1}%  (paper: ~72%)",
        avg_sync * 100.0
    );
    Ok(())
}
