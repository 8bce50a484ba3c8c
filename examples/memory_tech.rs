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

use palermo::dram::HardwareProfile;
use palermo::sim::experiment::{ResultSet, SerialExecutor, ThreadPoolExecutor};
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
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = (n / 4).max(1);
    }

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
    if std::env::var("PALERMO_SERIAL_CHECK").is_ok() {
        let serial = memory_tech::run(&cfg, &spec, &SCHEMES, &profiles, &SerialExecutor)?;
        assert_eq!(serial.to_csv(), results.to_csv(), "executors diverged");
        assert_eq!(
            serial.to_tenant_csv(),
            results.to_tenant_csv(),
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
    let csv = results.to_csv();
    assert_eq!(
        ResultSet::parse_csv(&csv).as_deref(),
        Some(results.summaries().as_slice())
    );
    assert_eq!(
        ResultSet::parse_json(&results.to_json()).as_deref(),
        Some(results.summaries().as_slice())
    );
    assert_eq!(
        ResultSet::parse_tenant_csv(&results.to_tenant_csv()).as_deref(),
        Some(results.tenant_summaries().as_slice())
    );
    println!("hardware/energy CSV+JSON round-trip verified");
    println!("--- CSV export (first 4 lines) ---");
    for line in csv.lines().take(4) {
        println!("{line}");
    }
    Ok(())
}
