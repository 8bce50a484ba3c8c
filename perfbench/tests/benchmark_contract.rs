//! The benchmark's contract: the traced driver is faithful to the runner,
//! `BENCHMARK.json` names only workloads and metrics the benchmark has,
//! and the printed metric lines read back through the benchmark's parser.

use palermo_perfbench::layers::{layer_metrics, UntracedTimes};
use palermo_perfbench::report::{is_valid_name, is_valid_unit, Metric};
use palermo_perfbench::traced::run_traced;
use palermo_perfbench::{BenchWorkload, WORKLOADS};
use palermo_sim::{run_workload_spec, Scheme, SystemConfig, WorkloadSpec};
use std::process::Command;

fn small(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.seed = seed;
    cfg
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The text of the JSON array under `key` (brackets excluded). The file
/// nests no arrays inside these three.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\": [")).expect("key present") + key.len() + 5;
    let end = start + json[start..].find(']').expect("array closed");
    &json[start..end]
}

/// Every string value of `field` in a JSON array's objects.
fn strings(array: &str, field: &str) -> Vec<String> {
    let pat = format!("\"{field}\": \"");
    array
        .match_indices(&pat)
        .map(|(i, _)| {
            let rest = &array[i + pat.len()..];
            rest[..rest.find('"').expect("string closed")].to_string()
        })
        .collect()
}

#[test]
fn traced_driver_reproduces_the_runner_on_every_workload() {
    for seed in [7, 0x5EED] {
        for w in WORKLOADS {
            let (scheme, spec) = w.resolve().unwrap();
            let cfg = small(seed);
            let untraced = run_workload_spec(scheme, &spec, &cfg).unwrap();
            let traced = run_traced(scheme, &spec, &cfg).unwrap();
            assert!(traced.matches(&untraced), "{} seed {seed}", w.name);
            assert_eq!(traced.windows.len(), untraced.per_shard.len().max(1));
        }
    }
}

#[test]
fn the_faithfulness_guard_rejects_a_different_run() {
    let w = BenchWorkload::from_name("palermo_mcf").unwrap();
    let (scheme, spec) = w.resolve().unwrap();
    let traced = run_traced(scheme, &spec, &small(7)).unwrap();
    let other_seed = run_workload_spec(scheme, &spec, &small(8)).unwrap();
    assert!(!traced.matches(&other_seed));
    let mut one_latency_off = run_workload_spec(scheme, &spec, &small(7)).unwrap();
    one_latency_off.latencies[0] += 1;
    assert!(!traced.matches(&one_latency_off));
}

#[test]
fn layer_shares_sum_to_one() {
    for w in WORKLOADS {
        let (scheme, spec) = w.resolve().unwrap();
        let cfg = small(7);
        let reference = run_workload_spec(scheme, &spec, &cfg).unwrap();
        let runs = vec![run_traced(scheme, &spec, &cfg).unwrap()];
        let times = UntracedTimes {
            run_ns: vec![runs[0].root_ns as f64],
            pooled_ns: Vec::new(),
        };
        let metrics = layer_metrics(&runs, &reference, &times);
        let shares: Vec<f64> = metrics
            .iter()
            .filter(|m| m.name.ends_with(".share") || m.name == "runner.other_share")
            .map(|m| m.value)
            .collect();
        assert_eq!(shares.len(), 8, "seven layers plus the remainder");
        assert!(shares.iter().all(|&s| s >= 0.0), "{}: {shares:?}", w.name);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn benchmark_json_names_the_benchmarks_workloads() {
    let json = benchmark_json();
    let names = strings(array(&json, "workloads"), "name");
    assert!((2..=8).contains(&names.len()));
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    for w in WORKLOADS {
        assert!(Scheme::from_name(w.scheme).is_some(), "{}", w.scheme);
        let spec = WorkloadSpec::from_name(w.spec).unwrap_or_else(|| panic!("{}", w.spec));
        assert_eq!(WorkloadSpec::from_name(&spec.name()), Some(spec));
    }
}

#[test]
fn benchmark_json_metric_names_and_caps_hold() {
    let json = benchmark_json();
    let e2e = strings(array(&json, "end_to_end"), "name");
    let layers = strings(array(&json, "per_layer"), "name");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    assert!(e2e.iter().any(|n| n == "setup_s"));
    let mut all: Vec<&String> = e2e.iter().chain(&layers).collect();
    for name in &all {
        assert!(is_valid_name(name), "{name}");
    }
    for unit in strings(array(&json, "end_to_end"), "unit")
        .iter()
        .chain(&strings(array(&json, "per_layer"), "unit"))
    {
        assert!(is_valid_unit(unit), "{unit}");
    }
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "metric names are unique");
}

/// Runs the benchmark binary for one second and returns its metric lines
/// and its final JSON line.
fn run_binary(trace: &str) -> (Vec<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_palermo-perfbench"))
        .args(["--workload", "ring_mcf", "--seconds", "1", "--trace", trace])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let json = lines.last().unwrap().clone();
    let metrics = lines[..lines.len() - 1]
        .iter()
        .filter(|l| !l.starts_with('#'))
        .cloned()
        .collect();
    (metrics, json)
}

#[test]
fn printed_metrics_round_trip_and_match_benchmark_json() {
    let json = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (lines, result) = run_binary(trace);
        assert!(result.starts_with("{\"correct\": true, "), "{result}");
        let mut names = Vec::new();
        for line in &lines {
            let m = Metric::parse_line(line).unwrap_or_else(|| panic!("unparsable: {line}"));
            assert_eq!(&m.line(), line);
            assert!(result.contains(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )));
            names.push(m.name);
        }
        assert_eq!(names, strings(array(&json, key), "name"), "{key}");
        let units: Vec<String> = lines
            .iter()
            .map(|l| Metric::parse_line(l).unwrap().unit)
            .collect();
        assert_eq!(units, strings(array(&json, key), "unit"), "{key}");
    }
}
