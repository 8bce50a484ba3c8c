//! Regenerates Fig. 4: PrORAM / LAORAM prefetch-length sweep on the
//! synthetic streaming workload, with dummy-request ratios.
//!
//! ```text
//! cargo run --release --example fig04_prefetch_baselines
//! ```

use palermo::sim::experiment::ThreadPoolExecutor;
use palermo::sim::figures::fig04;
use palermo::sim::system::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 400;
    cfg.warmup_requests = 100;
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = n / 4;
    }
    eprintln!("sweeping prefetch lengths on `stm` for PrORAM and PrORAM w/ Fat Tree ...");
    let rows = fig04::run(
        &cfg,
        &[1, 2, 4, 8, 16],
        &ThreadPoolExecutor::with_available_parallelism(),
    )?;
    println!("{}", fig04::table(&rows).to_text());
    println!("Expected shape (paper): the dummy-request ratio climbs with the prefetch");
    println!("length and caps the speedup despite perfect locality; the fat tree");
    println!("(LAORAM) relieves but does not remove the pressure.");
    Ok(())
}
