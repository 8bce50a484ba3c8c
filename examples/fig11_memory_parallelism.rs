//! Regenerates Fig. 11: DRAM bandwidth utilisation and outstanding-request
//! counts, RingORAM vs Palermo (no prefetch).
//!
//! ```text
//! cargo run --release --example fig11_memory_parallelism
//! ```

mod support;

use palermo::sim::experiment::ThreadPoolExecutor;
use palermo::sim::figures::fig11;
use palermo::sim::system::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 300;
    cfg.warmup_requests = 75;
    support::apply_request_budget(&mut cfg)?;
    eprintln!("comparing RingORAM and Palermo memory-level parallelism ...");
    let rows = fig11::run(&cfg, &ThreadPoolExecutor::with_available_parallelism())?;
    println!("{}", fig11::table(&rows).to_text());
    let avg_util: f64 = rows.iter().map(|r| r.utilization_gain()).sum::<f64>() / rows.len() as f64;
    let avg_out: f64 = rows.iter().map(|r| r.outstanding_gain()).sum::<f64>() / rows.len() as f64;
    println!("average utilisation gain : {avg_util:.2}x  (paper: ~2.2x)");
    println!("average outstanding gain : {avg_out:.2}x  (paper: ~2.8x)");
    Ok(())
}
