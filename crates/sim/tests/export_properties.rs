//! Property tests for the result export boundary. Rows with hostile text
//! cells must round-trip exactly through JSON and re-render to the same
//! bytes through CSV, and truncated or mutated documents must never panic
//! either reader. The property is written once, generic over `ExportRow`,
//! and run for all three row types.

use palermo_sim::experiment::{ExportRow, RunSummary, ShardSummary, TenantSummary};
use palermo_sim::{Scheme, WorkloadSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::fmt::Debug;

/// Characters that stress both formats: the CSV separator, JSON quoting
/// and escaping, object braces, control characters and multi-byte UTF-8.
const HOSTILE: &[char] = &[
    ',', '"', '\\', '{', '}', '\n', '\t', '\u{1}', 'é', 'ß', '漢', '🦀', 'a', ' ',
];

/// Replacement characters for mutations: everything the two grammars give
/// meaning to, plus digits and a multi-byte character.
const MUTATIONS: &[char] = &[
    ',', '"', '\\', '{', '}', '[', ']', ':', 'u', '+', '-', '.', 'e', '0', '9', '\n', ' ', 'é',
];

/// Canonical spec names covering every spec grammar a workload cell holds.
const SPECS: &[&str] = &[
    "mcf",
    "random",
    "mix:rr:redis*2+llm",
    "mix:phase:redis*2+llm@500..+stream@0..2000",
    "shard:2:hash:random",
    "open:poisson:0.5:mcf",
    "open:poisson:1+poisson:2:mix:rr:redis+llm",
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

fn text(rng: &mut TestRng) -> String {
    let len = rng.below(12);
    (0..len).map(|_| pick(rng, HOSTILE)).collect()
}

fn scheme(rng: &mut TestRng) -> Scheme {
    pick(rng, &Scheme::ALL)
}

fn workload(rng: &mut TestRng) -> WorkloadSpec {
    WorkloadSpec::from_name(pick(rng, SPECS)).expect("canonical spec name")
}

/// Any non-NaN float: small integers, short binary fractions, or raw bit
/// patterns (subnormals, huge magnitudes, infinities, negative zero).
fn float(rng: &mut TestRng) -> f64 {
    loop {
        let x = match rng.below(3) {
            0 => rng.below(1000) as f64,
            1 => rng.below(1 << 20) as f64 / 1024.0,
            _ => f64::from_bits(rng.next_u64()),
        };
        if !x.is_nan() {
            return x;
        }
    }
}

/// A row type the property can draw random rows of.
trait RandomRow: ExportRow + PartialEq + Debug {
    fn random(rng: &mut TestRng) -> Self;
}

impl RandomRow for RunSummary {
    fn random(rng: &mut TestRng) -> Self {
        RunSummary {
            label: text(rng),
            scheme: scheme(rng),
            workload: workload(rng),
            prefetch_length: rng.next_u64() as u32,
            oram_requests: rng.next_u64(),
            workload_accesses: rng.next_u64(),
            dummy_requests: rng.next_u64(),
            cycles: rng.next_u64(),
            mean_latency: float(rng),
            llc_hit_rate: float(rng),
            stash_high_water: rng.next_u64() as usize,
            bandwidth_utilization: float(rng),
            sync_stall_cycles: rng.next_u64(),
            arrivals: rng.next_u64(),
            dropped_arrivals: rng.next_u64(),
            mean_queue_wait: float(rng),
            shards: rng.next_u64() as u32,
            hardware: text(rng),
            energy_j: float(rng),
        }
    }
}

impl RandomRow for TenantSummary {
    fn random(rng: &mut TestRng) -> Self {
        TenantSummary {
            label: text(rng),
            scheme: scheme(rng),
            workload: workload(rng),
            tenant: rng.next_u64() as u32,
            tenant_workload: text(rng),
            submitted: rng.next_u64(),
            completed: rng.next_u64(),
            workload_accesses: rng.next_u64(),
            mean_latency: float(rng),
            p50_latency: rng.next_u64(),
            p95_latency: rng.next_u64(),
            p99_latency: rng.next_u64(),
            dram_ops: rng.next_u64(),
            dram_share: float(rng),
            energy_j: float(rng),
        }
    }
}

impl RandomRow for ShardSummary {
    fn random(rng: &mut TestRng) -> Self {
        ShardSummary {
            label: text(rng),
            scheme: scheme(rng),
            workload: workload(rng),
            shard: rng.next_u64() as u32,
            oram_requests: rng.next_u64(),
            workload_accesses: rng.next_u64(),
            dummy_requests: rng.next_u64(),
            cycles: rng.next_u64(),
            submitted_requests: rng.next_u64(),
            arrivals: rng.next_u64(),
            dropped_arrivals: rng.next_u64(),
            mean_latency: float(rng),
            p99_latency: rng.next_u64(),
            stash_high_water: rng.next_u64() as usize,
        }
    }
}

/// Feeds a damaged document to both readers. Neither may panic, and
/// whatever one accepts must survive its own round trip.
fn read_damaged<R: ExportRow>(doc: &str) {
    if let Some(rows) = R::parse_json(doc) {
        let json = R::to_json(&rows);
        let again = R::parse_json(&json).expect("re-rendered JSON parses");
        assert_eq!(R::to_json(&again), json);
    }
    if let Some(rows) = R::parse_csv(doc) {
        let csv = R::to_csv(&rows);
        let again = R::parse_csv(&csv).expect("re-rendered CSV parses");
        assert_eq!(R::to_csv(&again), csv);
    }
}

/// The export-boundary property for one row type and one seed.
fn export_boundary_holds<R: RandomRow>(seed: u64) {
    let mut rng = TestRng::deterministic(&format!("export-boundary-{seed}"));
    let count = rng.below(4);
    let rows: Vec<R> = (0..count).map(|_| R::random(&mut rng)).collect();

    // JSON carries every cell exactly, without a raw control character.
    let json = R::to_json(&rows);
    assert_eq!(R::parse_json(&json).as_deref(), Some(rows.as_slice()));
    assert!(!json.chars().any(|c| c.is_control() && c != '\n'));

    // CSV keeps one line per row and re-renders to the same bytes.
    let csv = R::to_csv(&rows);
    assert_eq!(csv.lines().count(), rows.len() + 1);
    let parsed = R::parse_csv(&csv).expect("a written CSV document parses");
    assert_eq!(parsed.len(), rows.len());
    assert_eq!(R::to_csv(&parsed), csv);

    for doc in [&json, &csv] {
        let chars: Vec<char> = doc.chars().collect();
        for _ in 0..8 {
            // A JSON document cut short of its closing bracket is rejected.
            let cut: String = chars[..rng.below(chars.len() as u64) as usize]
                .iter()
                .collect();
            if doc == &json && cut.trim_end() != json.trim_end() {
                assert!(R::parse_json(&cut).is_none(), "accepted {cut:?}");
            }
            read_damaged::<R>(&cut);

            let mut mutated = chars.clone();
            let at = rng.below(chars.len() as u64) as usize;
            match rng.below(3) {
                0 => mutated[at] = pick(&mut rng, MUTATIONS),
                1 => mutated.insert(at, pick(&mut rng, MUTATIONS)),
                _ => {
                    mutated.remove(at);
                }
            }
            read_damaged::<R>(&mutated.iter().collect::<String>());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_rows_cross_the_export_boundary(seed in any::<u64>()) {
        export_boundary_holds::<RunSummary>(seed);
    }

    #[test]
    fn tenant_rows_cross_the_export_boundary(seed in any::<u64>()) {
        export_boundary_holds::<TenantSummary>(seed);
    }

    #[test]
    fn shard_rows_cross_the_export_boundary(seed in any::<u64>()) {
        export_boundary_holds::<ShardSummary>(seed);
    }
}
