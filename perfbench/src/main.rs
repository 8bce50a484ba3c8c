//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
//!     [--trace-out <file>]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics, `--trace 1`
//! the per-layer metrics. Every run first checks that the simulator's
//! outputs are correct; the last line printed is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--seconds` defaults to
//! `run_seconds` in `BENCHMARK.json` in the working directory; nothing is
//! read from environment variables.

use palermo_oram::rng::SplitMix64;
use palermo_perfbench::layers::{layer_metrics, UntracedTimes};
use palermo_perfbench::report::{json_u64_field, Metric, Outcome};
use palermo_perfbench::stats::{median, percentile};
use palermo_perfbench::traced::{run_traced, set_up_time, TracedRun};
use palermo_perfbench::{
    bench_config, speed_probe, BenchWorkload, Calibration, DEFAULT_SEED, PROBE_FULL_SPEED,
    WORKLOADS,
};
use palermo_sim::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, PooledShardStepper,
    ReferenceStepper, RunMetrics, Scheme, SerialShardStepper, ShardStepper, ShardedSystem,
    SystemConfig, WorkloadSpec,
};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: palermo-perfbench --workload <name|all> [--seed <u64>] \
[--seconds <n>] [--trace <0|1>] [--trace-out <file>]";

/// `setup_s` is the median of set-ups spread over the whole measured
/// window. After each timed run, set-ups are repeated until they have taken
/// `SETUP_SHARE` of the timed-run time so far, at most `SETUP_MAX_PER_SLOT`
/// at a time; at least `SETUP_MIN_REPS` are made.
const SETUP_SHARE: f64 = 0.15;
const SETUP_MAX_PER_SLOT: usize = 256;
const SETUP_MIN_REPS: usize = 5;

/// Seeds the timed runs of one end-to-end run cycle through.
const SEEDS_PER_RUN: usize = 4;

/// Budget of the stepper-oracle check (measured, warm-up requests): the
/// per-cycle reference stepper is too slow for the full budget.
const ORACLE_BUDGET: (u64, u64) = (60, 15);

struct Args {
    /// `None` for `all`.
    workload: Option<BenchWorkload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, DEFAULT_SEED, None, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = match workload.ok_or("--workload is required")?.as_str() {
        "all" => None,
        name => Some(BenchWorkload::from_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; expected all or one of {names:?}")
        })?),
    };
    let seconds = match seconds {
        Some(s) => s,
        None => run_seconds_from_benchmark_json()?,
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn run_seconds_from_benchmark_json() -> Result<u64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("no --seconds given and BENCHMARK.json is unreadable: {e}"))?;
    json_u64_field(&text, "run_seconds").ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let Some((scheme, spec)) = workload.resolve() else {
        eprintln!(
            "error: workload {} names an unknown scheme or spec",
            workload.name
        );
        return ExitCode::FAILURE;
    };
    println!(
        "# workload {}: {} on {}, seed {}, {} s, trace {}",
        workload.name,
        workload.scheme,
        workload.spec,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        measure_layers(workload.name, scheme, &spec, &args)
    } else {
        measure_end_to_end(scheme, &spec, &args)
    };
    for m in &outcome.metrics {
        println!("{}", m.line());
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The invariants every full-budget run must satisfy.
fn invariants_ok(m: &RunMetrics, measured_requests: u64) -> bool {
    m.tenant_conservation_ok()
        && m.shard_conservation_ok()
        && m.arrival_conservation_ok()
        && m.oram_requests == measured_requests
}

fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(2)
}

/// Records one check, reporting a failure on stderr.
fn check(out: &mut Outcome, ok: bool, what: &str) {
    if !ok {
        eprintln!("check failed: {what}");
    }
    out.check(ok);
}

/// One untimed full-budget run, checked against the invariants.
fn checked_run(
    out: &mut Outcome,
    scheme: Scheme,
    spec: &WorkloadSpec,
    cfg: &SystemConfig,
) -> Option<RunMetrics> {
    let result = run_workload_spec(scheme, spec, cfg);
    let ok = result
        .as_ref()
        .is_ok_and(|m| invariants_ok(m, cfg.measured_requests));
    check(out, ok, "full-budget run satisfies the invariants");
    result.ok().filter(|_| ok)
}

/// The untimed correctness checks: the event-driven stepper against the
/// per-cycle reference, and, for sharded specs, pooled shard stepping
/// against serial.
fn verify(out: &mut Outcome, scheme: Scheme, spec: &WorkloadSpec, cfg: &SystemConfig) {
    let mut small = cfg.clone();
    (small.measured_requests, small.warmup_requests) = ORACLE_BUDGET;
    let fast = run_workload_spec_stepped(scheme, spec, &small, &CalendarStepper);
    let slow = run_workload_spec_stepped(scheme, spec, &small, &ReferenceStepper);
    let oracle_ok = matches!((&fast, &slow), (Ok(a), Ok(b))
        if a == b && invariants_ok(a, small.measured_requests));
    check(out, oracle_ok, "CalendarStepper equals ReferenceStepper");
    if spec.sharded().is_some() {
        let pool = PooledShardStepper::new(pool_threads());
        let shards_ok = ShardedSystem::new(scheme, spec, cfg).and_then(|system| {
            let serial = ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper)?;
            let pooled = ShardStepper::run(&pool, &system, &CalendarStepper)?;
            Ok(serial == pooled && invariants_ok(&serial, cfg.measured_requests))
        });
        check(
            out,
            matches!(shards_ok, Ok(true)),
            "pooled shard stepping equals serial",
        );
    }
}

fn measure_end_to_end(scheme: Scheme, spec: &WorkloadSpec, args: &Args) -> Outcome {
    let cfg = bench_config(args.seed);
    let mut out = Outcome::default();
    verify(&mut out, scheme, spec, &cfg);

    // The timed runs cycle through several seeds drawn from `--seed`, so a
    // run's median spans several input sets rather than resting on one.
    // An untimed full-budget run per seed warms the process up and is the
    // run every timed run of that seed must equal.
    let configs: Vec<SystemConfig> = run_seeds(args.seed).into_iter().map(bench_config).collect();
    let mut firsts = Vec::new();
    for c in &configs {
        let Some(first) = checked_run(&mut out, scheme, spec, c) else {
            return out;
        };
        firsts.push(first);
    }
    // Read before the calibration buffer exists, so it is the simulator's
    // peak alone.
    let peak_rss = peak_rss_mib();
    // An untimed set-up checks that set-up succeeds.
    if time_set_up(&mut out, &mut ProbedTimes::default(), scheme, spec, &cfg).is_none() {
        return out;
    }

    // Each timed run and each set-up is timed between two speed-probe runs
    // (see `ProbedTimes`). Each timed run is also preceded by a
    // calibration-kernel run, whose ratio is reported but not gated.
    let mut calibration = Calibration::new();
    let (mut runs, mut setups) = (ProbedTimes::default(), ProbedTimes::default());
    let mut ratios = Vec::new();
    let mut setup_budget = 0.0;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for (c, first) in configs.iter().zip(&firsts).cycle() {
        let kernel = calibration.run().elapsed.as_secs_f64();
        let run = runs.measure(|| {
            let start = Instant::now();
            run_workload_spec(scheme, spec, c).map(|m| (m, start.elapsed()))
        });
        check(
            &mut out,
            run.as_ref().is_ok_and(|(m, _)| m == first),
            "timed run equals its warm-up run",
        );
        let Ok((_, seconds)) = run else {
            break;
        };
        ratios.push(seconds / kernel);

        setup_budget += SETUP_SHARE * seconds;
        for _ in 0..SETUP_MAX_PER_SLOT {
            if setup_budget <= 0.0 {
                break;
            }
            let Some(s) = time_set_up(&mut out, &mut setups, scheme, spec, &cfg) else {
                break;
            };
            setup_budget -= s;
        }
        setup_budget = f64::min(setup_budget, 0.0);
        if Instant::now() >= deadline {
            break;
        }
    }
    while setups.seconds.len() < SETUP_MIN_REPS {
        if time_set_up(&mut out, &mut setups, scheme, spec, &cfg).is_none() {
            break;
        }
    }

    // Raw host time and the calibration-kernel ratio drift too much on a
    // shared machine to gate on; they are reported beside the metrics. A
    // p90 is only shown once at least ten runs lie beyond it.
    let nan = f64::NAN;
    let requests = cfg.total_requests() as f64;
    let run_ms: Vec<f64> = runs.seconds.iter().map(|s| s * 1e3).collect();
    let p50 = median(&run_ms).unwrap_or(nan);
    let p90 = match percentile(&run_ms, 0.9) {
        Some(p) if run_ms.len() >= 100 => format!(", p90 {p}"),
        _ => String::new(),
    };
    println!(
        "# {} timed runs of {requests} requests: raw run_ms p50 {p50}{p90}, {} kreq/s; \
         calibration-kernel ratio p50 {}; speed probe median {} us",
        run_ms.len(),
        requests / p50,
        median(&ratios).unwrap_or(nan),
        median(&runs.probe).unwrap_or(nan) * 1e6
    );
    println!(
        "# {} set-ups: raw median {} s",
        setups.seconds.len(),
        median(&setups.seconds).unwrap_or(nan)
    );
    out.metrics = vec![
        Metric::new(
            "sim_kreq_per_s",
            runs.full_speed_median().map_or(nan, |s| requests / s / 1e3),
            "kreq/s",
        ),
        Metric::new("setup_s", setups.full_speed_median().unwrap_or(nan), "s"),
        Metric::new("peak_rss_mb", peak_rss.unwrap_or(nan), "MiB"),
    ];
    out
}

/// Host times, each with the mean time of the speed-probe runs made just
/// before and just after it.
#[derive(Default)]
struct ProbedTimes {
    /// Seconds per measurement.
    seconds: Vec<f64>,
    /// The probes' mean seconds around each measurement.
    probe: Vec<f64>,
}

impl ProbedTimes {
    /// Runs `f` between two speed-probe runs and records the time it
    /// returns. Returns `f`'s value with that time in seconds.
    fn measure<T, E>(
        &mut self,
        f: impl FnOnce() -> Result<(T, Duration), E>,
    ) -> Result<(T, f64), E> {
        let before = speed_probe();
        let result = f();
        let after = speed_probe();
        let (value, took) = result?;
        self.seconds.push(took.as_secs_f64());
        self.probe.push((before + after).as_secs_f64() / 2.0);
        Ok((value, took.as_secs_f64()))
    }

    /// Median of the times at full core speed: each is scaled by
    /// `PROBE_FULL_SPEED` ÷ its probes' mean time.
    fn full_speed_median(&self) -> Option<f64> {
        let full_speed = PROBE_FULL_SPEED.as_secs_f64();
        let scaled: Vec<f64> = (self.seconds.iter().zip(&self.probe))
            .map(|(s, p)| s * full_speed / p)
            .collect();
        median(&scaled)
    }
}

/// Times one set-up of the run's state into `setups` and returns its
/// seconds; a failure is recorded.
fn time_set_up(
    out: &mut Outcome,
    setups: &mut ProbedTimes,
    scheme: Scheme,
    spec: &WorkloadSpec,
    cfg: &SystemConfig,
) -> Option<f64> {
    match setups.measure(|| set_up_time(scheme, spec, cfg).map(|d| ((), d))) {
        Ok(((), seconds)) => Some(seconds),
        Err(e) => {
            check(out, false, &format!("set-up: {e}"));
            None
        }
    }
}

/// `--seed` followed by seeds drawn from it.
fn run_seeds(seed: u64) -> Vec<u64> {
    let mut draw = SplitMix64::new(seed);
    std::iter::once(seed)
        .chain(std::iter::repeat_with(|| draw.next_u64()))
        .take(SEEDS_PER_RUN)
        .collect()
}

/// `VmHWM` of this process, MiB (Linux only).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn measure_layers(name: &str, scheme: Scheme, spec: &WorkloadSpec, args: &Args) -> Outcome {
    let cfg = bench_config(args.seed);
    let mut out = Outcome::default();
    verify(&mut out, scheme, spec, &cfg);
    let Some(reference) = checked_run(&mut out, scheme, spec, &cfg) else {
        return out;
    };
    let pool = spec
        .sharded()
        .map(|_| PooledShardStepper::new(pool_threads()));

    // Untraced, pooled (sharded specs only) and traced runs alternate, so
    // the overhead and speed-up ratios compare runs made close together.
    let mut times = UntracedTimes::default();
    let mut runs: Vec<TracedRun> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        let start = Instant::now();
        let untraced = run_workload_spec(scheme, spec, &cfg);
        times.run_ns.push(start.elapsed().as_nanos() as f64);
        check(
            &mut out,
            untraced.as_ref() == Ok(&reference),
            "untraced run equals the first",
        );
        if let Some(pool) = &pool {
            let start = Instant::now();
            let pooled = ShardedSystem::new(scheme, spec, &cfg)
                .and_then(|system| ShardStepper::run(pool, &system, &CalendarStepper));
            times.pooled_ns.push(start.elapsed().as_nanos() as f64);
            check(
                &mut out,
                pooled.as_ref() == Ok(&reference),
                "pooled run equals serial",
            );
        }
        match run_traced(scheme, spec, &cfg) {
            Ok(mut traced) => {
                let same_work = runs.first().is_none_or(|f| {
                    f.counts == traced.counts && f.skip_windows == traced.skip_windows
                });
                check(
                    &mut out,
                    traced.matches(&reference) && same_work,
                    "traced run reproduces the untraced run",
                );
                if !runs.is_empty() {
                    // Only the first run's spans are written out or read.
                    traced.requests = Vec::new();
                    traced.skip_windows = Vec::new();
                }
                runs.push(traced);
            }
            Err(e) => check(&mut out, false, &format!("traced run: {e}")),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let Some(first) = runs.first() else {
        return out;
    };
    if let Some(path) = &args.trace_out {
        let written = std::fs::File::create(path).and_then(|mut f| {
            first.write_json(&mut f, name, args.seed)?;
            std::io::Write::flush(&mut f)
        });
        check(
            &mut out,
            written.is_ok(),
            &format!("writing {}", path.display()),
        );
    }
    println!("# {} traced runs", runs.len());
    out.metrics = layer_metrics(&runs, &reference, &times);
    out
}

/// Runs every workload, one child process each, and prints a combined
/// result whose metric names are prefixed with the workload name.
fn run_all(args: &Args) -> ExitCode {
    if args.trace_out.is_some() {
        eprintln!("error: --trace-out needs a single workload\n{USAGE}");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Outcome::default();
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = output
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        let mut result = None;
        for line in stdout.lines() {
            if line.starts_with('{') {
                result = Some(line);
                continue;
            }
            println!("{line}");
            if let Some(mut m) = Metric::parse_line(line) {
                m.name = format!("{}.{}", w.name, m.name);
                total.metrics.push(m);
            }
        }
        let field = |key| result.and_then(|l| json_u64_field(l, key));
        match (field("attempted"), field("failed")) {
            (Some(attempted), Some(failed)) => {
                total.attempted += attempted;
                total.failed += failed;
            }
            _ => check(&mut total, false, &format!("{} printed no result", w.name)),
        }
        if !output.is_ok_and(|o| o.status.success()) {
            check(
                &mut total,
                false,
                &format!("{} exited with an error", w.name),
            );
        }
    }
    println!("{}", total.json());
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
