//! Regenerates Fig. 10: end-to-end speedup of all schemes on all Table II
//! workloads, normalised to PathORAM — the paper's headline comparison.
//!
//! The full 10-workload × 8-scheme sweep takes a few minutes in release
//! mode; set `PALERMO_REQUESTS` to trade accuracy for time.
//!
//! ```text
//! cargo run --release --example fig10_end_to_end
//! ```

use palermo::sim::experiment::ThreadPoolExecutor;
use palermo::sim::figures::fig10;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 300;
    cfg.warmup_requests = 75;
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = n / 4;
    }
    let pool = ThreadPoolExecutor::with_available_parallelism();
    eprintln!(
        "running {} workloads x {} schemes, {} measured requests each, on {} thread(s) ...",
        Workload::ALL.len(),
        Scheme::ALL.len(),
        cfg.measured_requests,
        pool.threads()
    );
    let fig = fig10::run(&cfg, &Workload::ALL, &Scheme::ALL, &pool)?;
    println!("{}", fig10::table(&fig).to_text());
    println!(
        "geo-mean speedups:  RingORAM {:.2}x | PrORAM {:.2}x | Palermo-SW {:.2}x | Palermo {:.2}x | Palermo+Prefetch {:.2}x",
        fig.geo_mean(Scheme::RingOram),
        fig.geo_mean(Scheme::PrOram),
        fig.geo_mean(Scheme::PalermoSw),
        fig.geo_mean(Scheme::Palermo),
        fig.geo_mean(Scheme::PalermoPrefetch),
    );
    println!("(paper: 1.1x / 1.7x / 1.2x / 2.4x / 3.1x)");
    Ok(())
}
