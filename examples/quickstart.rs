//! Quickstart: protect a memory space with Palermo, read and write through
//! the ORAM, and compare its throughput against the RingORAM baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use palermo::oram::crypto::Payload;
use palermo::oram::hierarchy::{HierarchicalOram, HierarchyConfig, ProtocolFlavor};
use palermo::oram::params::{HierarchyParams, OramParams};
use palermo::oram::types::{OramOp, PhysAddr};
use palermo::sim::experiment::{Experiment, ThreadPoolExecutor};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------------
    // 1. Functional view: the ORAM is a key-value memory. Writes and reads
    //    go through the full hierarchical protocol (PosMap2 -> PosMap1 ->
    //    Data), and every request is lowered to an explicit DRAM access plan.
    // ---------------------------------------------------------------------
    let data = OramParams::builder()
        .capacity_bytes(64 << 20)
        .z(16)
        .s(27)
        .a(20)
        .build()?;
    let params = HierarchyParams::derive(data, 4)?;
    let mut oram = HierarchicalOram::new(HierarchyConfig::new(params, ProtocolFlavor::Palermo))?;

    let secret_addr = PhysAddr::new(0x4_2040);
    oram.access(
        secret_addr,
        OramOp::Write,
        Some(Payload::from_u64(0xC0FFEE)),
    )?;
    let read = oram.access(secret_addr, OramOp::Read, None)?;
    println!(
        "functional check: wrote 0xC0FFEE, read back {:#x} (found = {})",
        read.value.expect("value present").as_u64(),
        read.found
    );
    println!(
        "one ORAM request expanded into {} DRAM block operations across {} protocol phases",
        read.plan.total_traffic(),
        read.plan.nodes.len()
    );

    // ---------------------------------------------------------------------
    // 2. Performance view: run a small end-to-end simulation (workload ->
    //    LLC -> ORAM protocol -> controller -> DDR4) for the RingORAM
    //    baseline and for Palermo, and report the headline comparison.
    // ---------------------------------------------------------------------
    let mut sys = SystemConfig::paper_default();
    sys.measured_requests = 300;
    sys.warmup_requests = 75;

    println!("\nrunning the RingORAM baseline and Palermo on the `random` workload ...");
    let results = Experiment::new(sys)
        .schemes([Scheme::RingOram, Scheme::Palermo])
        .workloads([Workload::Random])
        .run(&ThreadPoolExecutor::with_available_parallelism())?;
    let metrics = |scheme| {
        results
            .get(scheme, Workload::Random)
            .expect("run present")
            .metrics
            .clone()
    };
    let ring = metrics(Scheme::RingOram);
    let palermo = metrics(Scheme::Palermo);

    println!("\n                         RingORAM      Palermo");
    println!(
        "requests / second      {:>10.2e}  {:>10.2e}",
        ring.requests_per_second(),
        palermo.requests_per_second()
    );
    println!(
        "bandwidth utilisation  {:>9.1}%  {:>9.1}%",
        ring.dram.bandwidth_utilization() * 100.0,
        palermo.dram.bandwidth_utilization() * 100.0
    );
    println!(
        "mean response latency  {:>8.0}cy  {:>8.0}cy",
        ring.mean_latency(),
        palermo.mean_latency()
    );
    println!(
        "\nPalermo speedup over RingORAM: {:.2}x",
        palermo.requests_per_cycle() / ring.requests_per_cycle()
    );
    Ok(())
}
