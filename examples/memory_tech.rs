//! Memory-technology sweep with per-tenant energy accounting, end to end:
//!
//! 1. the three checked-in hardware profiles (DDR4-3200 / DDR5-6400 /
//!    HBM2e-class) loaded from `profiles/` and verified byte-identical to
//!    the built-in definitions;
//! 2. one `Experiment::sweep_hardware` grid — RingORAM vs. Palermo on the
//!    same two-tenant mix across all three memory technologies;
//! 3. the aggregate comparison (latency, achieved GB/s, bus utilisation,
//!    energy per access) and the per-tenant split (p99 next to each
//!    tenant's share of the energy bill), both derived from the grid
//!    records via the export mapping;
//! 4. the extended CSV/JSON schema (hardware + energy columns) round-
//!    tripping through its parsers.
//!
//! ```text
//! cargo run --release --example memory_tech
//! PALERMO_REQUESTS=40 PALERMO_SERIAL_CHECK=1 cargo run --release --example memory_tech
//! ```

mod support;

use palermo::dram::HardwareProfile;
use palermo::sim::experiment::{
    ExportRow, RunSummary, SerialExecutor, TenantSummary, ThreadPoolExecutor,
};
use palermo::sim::figures::memory_tech;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::{MixSpec, Workload, WorkloadSpec};
use std::path::Path;
use std::time::Instant;

const SCHEMES: [Scheme; 2] = [Scheme::RingOram, Scheme::Palermo];

/// Loads the checked-in profile files and checks they agree byte for byte
/// with the built-in definitions (falls back to the builtins when the
/// example runs away from a repo checkout).
fn load_profiles() -> Vec<HardwareProfile> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles");
    if !dir.is_dir() {
        eprintln!("profiles/ not found; using built-in definitions");
        return HardwareProfile::builtins();
    }
    HardwareProfile::builtins()
        .into_iter()
        .map(|builtin| {
            let path = dir.join(format!("{}.profile", builtin.name));
            let loaded = HardwareProfile::load(&path)
                .unwrap_or_else(|e| panic!("loading {}: {e}", path.display()));
            assert_eq!(
                loaded,
                builtin,
                "{} drifted from the built-in definition — regenerate with \
                 `cargo run -p palermo-dram --example gen_profiles`",
                path.display()
            );
            loaded
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 200;
    cfg.warmup_requests = 50;
    support::apply_request_budget(&mut cfg)?;
    let serial_check = support::serial_check()?;

    let profiles = load_profiles();
    eprintln!(
        "hardware profiles under test: {}",
        profiles
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // A two-tenant service mix: a hot redis tier next to an llm tenant.
    let spec = WorkloadSpec::Mix(
        MixSpec::round_robin()
            .tenant(Workload::Redis.into(), 2)
            .tenant(Workload::Llm.into(), 1),
    );

    let pool = ThreadPoolExecutor::with_available_parallelism();
    let started = Instant::now();
    let results = memory_tech::run(&cfg, &spec, &SCHEMES, &profiles, &pool)?;
    eprintln!(
        "{}x{} (scheme x profile) grid finished in {:.2?} on {} worker thread(s)",
        SCHEMES.len(),
        profiles.len(),
        started.elapsed(),
        pool.threads()
    );

    // The executors are byte-identical by construction; verify on demand.
    if serial_check {
        let serial = memory_tech::run(&cfg, &spec, &SCHEMES, &profiles, &SerialExecutor)?;
        assert_eq!(
            RunSummary::to_csv(&serial.summaries()),
            RunSummary::to_csv(&results.summaries()),
            "executors diverged"
        );
        assert_eq!(
            TenantSummary::to_csv(&serial.tenant_summaries()),
            TenantSummary::to_csv(&results.tenant_summaries()),
            "per-tenant energy attribution diverged between executors"
        );
        eprintln!("serial re-run verified: energy accounting byte-identical");
    }

    // Aggregate comparison and the per-tenant energy split, derived from
    // the grid records already computed — no simulation is repeated.
    let rows = memory_tech::rows(&results, &SCHEMES, &profiles);
    println!("{}", memory_tech::table(&spec, &rows).to_text());
    let trows = memory_tech::tenant_rows(&results, &SCHEMES, &profiles);
    println!("{}", memory_tech::tenant_table(&spec, &trows).to_text());

    // Per-tenant energies partition each cell's total exactly.
    for r in &rows {
        let cell: f64 = trows
            .iter()
            .filter(|t| t.hardware == r.hardware && t.scheme == r.scheme)
            .map(|t| t.energy_j)
            .sum();
        assert!(
            (cell - r.energy_j).abs() <= r.energy_j * 1e-9,
            "tenant energy split does not partition the {}/{} total",
            r.hardware,
            r.scheme
        );
    }
    println!("tenant energy split partitions every cell's total exactly");

    // The extended schema (hardware + energy columns) survives both round
    // trips, per run and per tenant.
    let summaries = results.summaries();
    let csv = RunSummary::to_csv(&summaries);
    assert_eq!(RunSummary::parse_csv(&csv), Some(summaries.clone()));
    assert_eq!(
        RunSummary::parse_json(&RunSummary::to_json(&summaries)),
        Some(summaries)
    );
    let tenants = results.tenant_summaries();
    assert_eq!(
        TenantSummary::parse_csv(&TenantSummary::to_csv(&tenants)),
        Some(tenants)
    );
    println!("hardware/energy CSV+JSON round-trip verified");
    println!("--- CSV export (first 4 lines) ---");
    for line in csv.lines().take(4) {
        println!("{line}");
    }
    Ok(())
}
