//! Cross-commit guard on the simulated model.
//!
//! The equivalence suite compares two steppers driving the same controller,
//! so it cannot see a change inside the controller, the DRAM model or the
//! protocol that moves both sides at once. These tests pin the full
//! [`palermo::sim::runner::RunMetrics`] of two fixed grids to committed
//! tables of 64-bit digests, one `scheme spec digest` line each:
//!
//! * `tests/data/model_digests.txt` — every scheme over seven specs at
//!   [`SystemConfig::small_for_tests`];
//! * `tests/data/model_digests_paper.txt` — every scheme over two specs on
//!   the paper's Table III system with a short request budget. Its deep
//!   trees give plan nodes more operations than the controller's issue
//!   width, which the small grid never does;
//! * `tests/data/model_digests_serving.txt` — every admission policy
//!   under RingORAM and Palermo over two open-loop specs, with a four-deep
//!   admission queue so that arrivals find it full. Each line is prefixed
//!   with the policy name.
//!
//! A change that alters simulated results on purpose updates the tables in
//! the same diff: on a mismatch the test prints the whole fresh table.

use palermo::sim::runner::run_workload_spec;
use palermo::sim::schemes::Scheme;
use palermo::sim::serving::AdmissionPolicyKind;
use palermo::sim::system::SystemConfig;
use palermo::workloads::WorkloadSpec;

/// Workload specs of the small grid: four Table II workloads, a
/// round-robin, a Zipf and a phased multi-tenant mix, an open-loop spec
/// with one arrival process, a sharded spec, and an open-loop spec with a
/// bursty and a diurnal process routed per tenant.
const SMALL_SPECS: [&str; 10] = [
    "mcf",
    "random",
    "pr",
    "stream",
    "mix:rr:redis*2+llm+stream",
    "open:poisson:0.05:random",
    "shard:2:hash:pr",
    "mix:zipf0.9:redis+random+llm",
    "mix:phase:redis*2+llm@100..+stream@0..300",
    "open:bursty:0.2:20000:60000+diurnal:0.01:0.5:100000:mix:rr:redis+llm",
];

/// Workload specs of the paper-scale grid.
const PAPER_SPECS: [&str; 2] = ["mcf", "open:poisson:1.0:mix:rr:redis*2+llm+stream"];

/// Open-loop specs of the serving grid: per-tenant Poisson processes over a
/// mix, which overload a four-deep queue, and one diurnal process.
const SERVING_SPECS: [&str; 2] = [
    "open:poisson:2+poisson:0.5:mix:rr:redis+llm",
    "open:diurnal:0.5:4:50000:mcf",
];

/// FNV-1a over the bytes: a fixed, toolchain-independent 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One `scheme spec digest` line per grid cell, in grid order.
fn fresh_table(cfg: &SystemConfig, schemes: &[Scheme], specs: &[&str]) -> String {
    let mut out = String::new();
    for &scheme in schemes {
        for &name in specs {
            let spec = WorkloadSpec::from_name(name)
                .unwrap_or_else(|| panic!("spec {name} does not parse"));
            let metrics = run_workload_spec(scheme, &spec, cfg)
                .unwrap_or_else(|e| panic!("{scheme}/{name} failed: {e}"));
            let digest = fnv1a(format!("{metrics:?}").as_bytes());
            out.push_str(&format!("{scheme} {name} {digest:016x}\n"));
        }
    }
    out
}

/// Asserts that `fresh` equals the committed table `committed` (read from
/// `path`), naming the diverged cells and printing the replacement table.
fn assert_matches(path: &str, committed: &str, fresh: &str) {
    let committed: Vec<&str> = committed.lines().filter(|l| !l.trim().is_empty()).collect();
    let fresh_lines: Vec<&str> = fresh.lines().collect();
    let mismatched: Vec<String> = fresh_lines
        .iter()
        .zip(committed.iter().chain(std::iter::repeat(&"<missing>")))
        .filter(|(f, c)| f != c)
        .map(|(f, c)| format!("  committed {c}\n  fresh     {f}"))
        .collect();
    assert!(
        mismatched.is_empty() && committed.len() == fresh_lines.len(),
        "RunMetrics digests diverged from {path} \
         ({} of {} cells; committed table has {} lines):\n{}\n\
         If the model change is intended, replace the table with:\n{fresh}",
        mismatched.len(),
        fresh_lines.len(),
        committed.len(),
        mismatched.join("\n"),
    );
}

#[test]
fn run_metrics_match_the_committed_digests() {
    let fresh = fresh_table(&SystemConfig::small_for_tests(), &Scheme::ALL, &SMALL_SPECS);
    assert_matches(
        "tests/data/model_digests.txt",
        include_str!("data/model_digests.txt"),
        &fresh,
    );
}

#[test]
fn paper_scale_run_metrics_match_the_committed_digests() {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 100;
    cfg.warmup_requests = 25;
    let fresh = fresh_table(&cfg, &Scheme::ALL, &PAPER_SPECS);
    assert_matches(
        "tests/data/model_digests_paper.txt",
        include_str!("data/model_digests_paper.txt"),
        &fresh,
    );
}

#[test]
fn serving_run_metrics_match_the_committed_digests() {
    let mut fresh = String::new();
    for policy in [
        AdmissionPolicyKind::Block,
        AdmissionPolicyKind::DropTail,
        AdmissionPolicyKind::FairDrop,
    ] {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.serving_queue_capacity = 4;
        cfg.admission_policy = policy;
        let table = fresh_table(&cfg, &[Scheme::RingOram, Scheme::Palermo], &SERVING_SPECS);
        for line in table.lines() {
            fresh.push_str(&format!("{} {line}\n", policy.name()));
        }
    }
    assert_matches(
        "tests/data/model_digests_serving.txt",
        include_str!("data/model_digests_serving.txt"),
        &fresh,
    );
}

#[test]
fn digest_is_fnv1a() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}
