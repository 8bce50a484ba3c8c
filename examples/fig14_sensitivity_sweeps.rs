//! Regenerates Fig. 14: sensitivity of Palermo to the protocol parameter Z
//! (with the matching S and A) and to the number of PE columns.
//!
//! ```text
//! cargo run --release --example fig14_sensitivity_sweeps
//! ```

mod support;

use palermo::sim::experiment::ThreadPoolExecutor;
use palermo::sim::figures::fig14;
use palermo::sim::system::SystemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 250;
    cfg.warmup_requests = 60;
    support::apply_request_budget(&mut cfg)?;
    let pool = ThreadPoolExecutor::with_available_parallelism();
    eprintln!("sweeping Z on the `rand` workload ...");
    let z_points = fig14::run_z_sweep(&cfg, &[4, 8, 16, 32], &pool)?;
    eprintln!("sweeping PE columns on the `rand` workload ...");
    let pe_points = fig14::run_pe_sweep(&cfg, &[1, 2, 4, 8, 16, 32], &pool)?;
    let (zt, pt) = fig14::tables(&z_points, &pe_points);
    println!("{}", zt.to_text());
    println!("{}", pt.to_text());
    println!("Expected shape (paper): larger (Z, S, A) reach up to ~1.8x over (4, 5, 3);");
    println!("throughput scales with PE columns until memory bandwidth saturates around 3x8.");
    Ok(())
}
