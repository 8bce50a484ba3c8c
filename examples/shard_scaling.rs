//! Sharded multi-controller scale-out: throughput vs shard count.
//!
//! 1. the protected space partitioned across K ∈ {1, 2, 4} independent
//!    ORAM instances (`shard:<K>:hash:mcf` and `shard:<K>:hash:pr`) —
//!    per-shard position map, stash and DRAM channels, the access stream
//!    split by the Feistel hash router;
//! 2. every point driven through the pooled shard stepper
//!    (`std::thread::scope` intra-run parallelism), with per-shard and
//!    per-tenant conservation checked on each merged result;
//! 3. under `PALERMO_SERIAL_CHECK=1`, the whole grid re-run with serial
//!    shard stepping and asserted byte-identical — shard scheduling is
//!    provably a pure wall-clock choice;
//! 4. the per-shard CSV/JSON attribution exports round-tripping through
//!    their parsers.
//!
//! ```text
//! cargo run --release --example shard_scaling
//! PALERMO_REQUESTS=40 PALERMO_SERIAL_CHECK=1 cargo run --release --example shard_scaling
//! ```

use palermo::sim::experiment::{ExportRow, ResultSet, RunRecord, ShardSummary};
use palermo::sim::figures::shard_scaling;
use palermo::sim::runner::CalendarStepper;
use palermo::sim::schemes::Scheme;
use palermo::sim::shard::{PooledShardStepper, SerialShardStepper, ShardStepper, ShardedSystem};
use palermo::sim::system::SystemConfig;
use palermo::workloads::{ShardRouterKind, ShardSpec, Workload, WorkloadSpec};
use std::time::Instant;

const SCHEMES: [Scheme; 2] = [Scheme::RingOram, Scheme::Palermo];
const SHARD_COUNTS: [u32; 3] = [1, 2, 4];
/// `mcf` is cheap to build; `pr` owns a shared CSR graph that every shard
/// of a run clones, concurrently under the pooled stepper.
const INNERS: [Workload; 2] = [Workload::Mcf, Workload::PageRank];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 240;
    cfg.warmup_requests = 60;
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = (n / 4).max(1);
    }
    let serial_check = std::env::var("PALERMO_SERIAL_CHECK").is_ok();
    let pool = PooledShardStepper::with_available_parallelism();

    let records = INNERS
        .into_iter()
        .map(|w| sweep(&cfg, &WorkloadSpec::Table2(w), &pool, serial_check))
        .collect::<Result<Vec<_>, _>>()?;

    // The per-shard attribution exports survive both round trips.
    let results = ResultSet::new(records);
    let shards = results.shard_summaries();
    let shard_csv = ShardSummary::to_csv(&shards);
    assert_eq!(ShardSummary::parse_csv(&shard_csv), Some(shards.clone()));
    assert_eq!(
        ShardSummary::parse_json(&ShardSummary::to_json(&shards)).as_ref(),
        Some(&shards)
    );
    println!(
        "per-shard CSV/JSON round-trip verified for {} rows",
        shards.len()
    );
    println!("--- per-shard CSV export ---");
    for line in shard_csv.lines() {
        println!("{line}");
    }
    Ok(())
}

/// Runs the scheme x K grid on `inner`, re-runs one K=4 Palermo point to
/// check conservation on its full metrics, and (with `serial_check`)
/// asserts serial shard stepping byte-identical to `pool`. Returns the
/// K=4 point for the export round-trip.
fn sweep(
    cfg: &SystemConfig,
    inner: &WorkloadSpec,
    pool: &PooledShardStepper,
    serial_check: bool,
) -> Result<RunRecord, Box<dyn std::error::Error>> {
    eprintln!(
        "shard scaling: {inner} x K={SHARD_COUNTS:?} x {SCHEMES:?}, \
         pooled over {} worker thread(s)",
        pool.threads()
    );

    let started = Instant::now();
    let rows = shard_scaling::run(cfg, inner, &SHARD_COUNTS, &SCHEMES, pool)?;
    eprintln!(
        "{}x{} (scheme x K) grid finished in {:.2?}",
        SCHEMES.len(),
        SHARD_COUNTS.len(),
        started.elapsed()
    );
    println!("{}", shard_scaling::table(inner, &rows).to_text());

    // Conservation on every merged point: per-shard sums reproduce the
    // aggregates, and the spec label survives the merge. Re-run one K=4
    // point explicitly to get at the full metrics.
    let spec = WorkloadSpec::Sharded(ShardSpec::new(4, ShardRouterKind::Hash, inner.clone()));
    let system = ShardedSystem::new(Scheme::Palermo, &spec, cfg)?;
    let metrics = ShardStepper::run(pool, &system, &CalendarStepper)?;
    assert!(
        metrics.shard_conservation_ok(),
        "shard conservation violated"
    );
    assert!(
        metrics.tenant_conservation_ok(),
        "tenant conservation violated"
    );
    assert_eq!(metrics.per_shard.len(), 4);
    assert_eq!(metrics.workload, spec);
    println!(
        "K=4 Palermo: {} requests over {} makespan cycles across {} shards \
         (conservation verified)",
        metrics.oram_requests,
        metrics.cycles,
        metrics.per_shard.len()
    );

    // Shard scheduling is a pure wall-clock choice; verify on demand.
    if serial_check {
        let serial = ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper)?;
        assert_eq!(serial, metrics, "shard steppers diverged");
        let serial_rows =
            shard_scaling::run(cfg, inner, &SHARD_COUNTS, &SCHEMES, &SerialShardStepper)?;
        for (s, p) in serial_rows.iter().zip(&rows) {
            assert_eq!(s.cycles, p.cycles, "serial/pooled cycles diverged");
            assert_eq!(s.oram_requests, p.oram_requests);
            assert_eq!(s.accesses_per_cycle, p.accesses_per_cycle);
        }
        eprintln!("serial re-run verified: pooled shard stepping byte-identical");
    }

    Ok(RunRecord {
        label: format!("Palermo/{spec}"),
        scheme: Scheme::Palermo,
        workload: spec,
        metrics,
    })
}
