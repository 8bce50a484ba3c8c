//! Compares a fresh tick-loop bench snapshot against a committed baseline
//! and fails loudly on regressions, missing files, or group-name drift.
//!
//! This is the checker CI runs after regenerating `BENCH_tick_loop.json`
//! (see `bench/README.md` for the snapshot convention):
//!
//! ```text
//! cargo run --release --example bench_compare -- \
//!     --baseline bench/BENCH_tick_loop.json \
//!     --fresh BENCH_tick_loop.json \
//!     --max-regression 0.15 \
//!     --assert-overhead fig03_ring_baseline/ringoram_mcf:fig03_ring_baseline/ringoram_mcf_untagged:0.05:0.5 \
//!     --assert-speedup shard_scaling/palermo_k4_serial:shard_scaling/palermo_k4_pooled:1.5:4
//! ```
//!
//! Both files are JSON lines of `{"group":...,"id":...,"mean_ns":...}`
//! records as written by the `palermo-bench` harness under
//! `PALERMO_BENCH_JSON`. The parser is hand-rolled against that fixed,
//! machine-written schema (the workspace takes no JSON dependency).
//! Duplicate `(group, id)` lines merge by taking the **minimum** mean: the
//! harness appends, so running a bench N times against the same file
//! implements the min-of-N protocol from `bench/README.md` — the minimum is
//! far more stable than any single run on a busy or thermally-throttled
//! machine, and CI regenerates its fresh snapshot that way.
//!
//! Exit is non-zero when:
//! - either file is missing or unreadable (a silently absent baseline
//!   previously downgraded the whole gate to a no-op);
//! - a `(group, id)` present in the baseline is absent from the fresh run
//!   (bench group renames must update the committed snapshot in the same
//!   PR, otherwise the gate compares nothing);
//! - any fresh mean exceeds its baseline by more than `--max-regression`
//!   (relative, e.g. `0.15` = +15%);
//! - an `--assert-overhead <group/id>:<group/base_id>:<max_rel>:<slack_ms>`
//!   check finds `fresh[id] > fresh[base] * (1 + max_rel) + slack_ms`;
//! - an `--assert-speedup <group/slow_id>:<group/fast_id>:<min>:<min_cores>`
//!   check finds `fresh[slow] / fresh[fast] < min` on a host with at least
//!   `min_cores` cores (`std::thread::available_parallelism`); on fewer
//!   cores the check is skipped with a note.
//!
//! The two `--assert-*` flags are repeatable and compare two benches of the
//! same fresh snapshot, so machine variance cancels. Entries only in the
//! fresh run are reported but do not fail: a new bench lands before its
//! first committed snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One `{"group":...,"id":...,"mean_ns":...}` record per line.
type Snapshot = BTreeMap<(String, String), f64>;

/// One `--assert-overhead` or `--assert-speedup` check, written
/// `<group/a>:<group/b>:<x>:<y>`, between two benches of the fresh snapshot.
struct Assertion {
    /// `--assert-overhead`: `a` may exceed `b` by at most `x` (relative)
    /// plus `y` ms. Otherwise `--assert-speedup`: `a / b` must reach `x`
    /// on hosts with at least `y` cores.
    overhead: bool,
    a: (String, String),
    b: (String, String),
    x: f64,
    y: f64,
}

impl Assertion {
    fn parse(flag: &str, spec: &str) -> Result<Assertion, String> {
        let bad = |why: String| format!("{flag} {spec}: {why}");
        let [a, b, x, y] = spec.split(':').collect::<Vec<_>>()[..] else {
            return Err(bad("expected four `:`-separated fields".to_string()));
        };
        let key = |s: &str| {
            s.split_once('/')
                .map(|(group, id)| (group.to_string(), id.to_string()))
                .ok_or_else(|| bad(format!("{s:?} is not group/id")))
        };
        let number = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| bad(format!("{s:?} is not a number: {e}")))
        };
        Ok(Assertion {
            overhead: flag == "--assert-overhead",
            a: key(a)?,
            b: key(b)?,
            x: number(x)?,
            y: number(y)?,
        })
    }

    /// `Ok` with a report line, or `Err` with the failure.
    fn check(&self, fresh: &Snapshot, cores: usize) -> Result<String, String> {
        let mean = |key: &(String, String)| {
            fresh
                .get(key)
                .copied()
                .ok_or_else(|| format!("{}/{}: missing from the fresh snapshot", key.0, key.1))
        };
        let (a, b) = (mean(&self.a)?, mean(&self.b)?);
        let line = format!(
            "{}/{} {:.3} ms vs {}/{} {:.3} ms",
            self.a.0,
            self.a.1,
            a / 1e6,
            self.b.0,
            self.b.1,
            b / 1e6
        );
        if self.overhead {
            let budget = b * (1.0 + self.x) + self.y * 1e6;
            let line = format!(
                "{line}: {:+.1}% (budget {:.3} ms = {}% + {} ms)",
                (a / b - 1.0) * 100.0,
                budget / 1e6,
                self.x * 100.0,
                self.y
            );
            if a <= budget {
                Ok(line)
            } else {
                Err(format!("{line} — over budget"))
            }
        } else {
            let line = format!("{line}: {:.2}x on {cores} cores", a / b);
            if (cores as f64) < self.y {
                Ok(format!(
                    "{line} (skipping the {}x check below {} cores)",
                    self.x, self.y
                ))
            } else if a / b >= self.x {
                Ok(line)
            } else {
                Err(format!("{line} — below {}x", self.x))
            }
        }
    }
}

/// Extracts the JSON string value for `key`, e.g. `"group":"fig03"`.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the JSON numeric value for `key`, e.g. `"mean_ns":3868221.5`.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench snapshot {path}: {e}"))?;
    let mut snapshot = Snapshot::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = string_field(line, "group").and_then(|group| {
            let id = string_field(line, "id")?;
            let mean = number_field(line, "mean_ns")?;
            Some(((group, id), mean))
        });
        match parsed {
            Some((key, mean)) => {
                let slot = snapshot.entry(key).or_insert(f64::INFINITY);
                *slot = slot.min(mean);
            }
            None => {
                return Err(format!(
                    "{path}:{}: malformed bench record: {line}",
                    lineno + 1
                ))
            }
        }
    }
    if snapshot.is_empty() {
        return Err(format!("{path}: no bench records found"));
    }
    Ok(snapshot)
}

fn parse_args() -> Result<(String, String, f64, Vec<Assertion>), String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut max_regression = 0.15f64;
    let mut assertions = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--max-regression" => {
                max_regression = value("--max-regression")?
                    .parse()
                    .map_err(|e| format!("--max-regression: {e}"))?
            }
            flag @ ("--assert-overhead" | "--assert-speedup") => {
                assertions.push(Assertion::parse(flag, &value(flag)?)?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        baseline.ok_or("--baseline <path> is required")?,
        fresh.ok_or("--fresh <path> is required")?,
        max_regression,
        assertions,
    ))
}

fn main() -> ExitCode {
    let (baseline_path, fresh_path, max_regression, assertions) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (baseline, fresh) = match (load(&baseline_path), load(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_compare: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut failures = String::new();
    for (key, base) in &baseline {
        let (group, id) = key;
        match fresh.get(key) {
            None => {
                let _ = writeln!(
                    failures,
                    "{group}/{id}: present in {baseline_path} but missing from \
                     {fresh_path} — bench renamed or dropped without updating \
                     the committed snapshot"
                );
            }
            Some(now) => {
                let ratio = now / base;
                let line = format!(
                    "{group}/{id}: {:.3} ms vs committed {:.3} ms ({:+.1}%)",
                    now / 1e6,
                    base / 1e6,
                    (ratio - 1.0) * 100.0
                );
                if ratio > 1.0 + max_regression {
                    let _ = writeln!(
                        failures,
                        "{line} — exceeds the {:.0}% regression budget",
                        max_regression * 100.0
                    );
                } else {
                    println!("{line}");
                }
            }
        }
    }
    for (group, id) in fresh.keys().filter(|k| !baseline.contains_key(*k)) {
        println!("{group}/{id}: new bench (no committed baseline yet)");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for assertion in &assertions {
        match assertion.check(&fresh, cores) {
            Ok(line) => println!("{line}"),
            Err(line) => {
                let _ = writeln!(failures, "{line}");
            }
        }
    }

    if failures.is_empty() {
        println!(
            "bench_compare: OK ({} benches within budget, {} assertions hold)",
            baseline.len(),
            assertions.len()
        );
        ExitCode::SUCCESS
    } else {
        eprint!("{failures}");
        ExitCode::FAILURE
    }
}
