//! Per-layer metrics: traced runs folded into one table.
//!
//! Host-time metrics are medians over the traced runs (or, for shares,
//! pooled sums over them, so the shares and `runner.other_share` sum to
//! exactly 1). Work counts come from the first traced run; the caller
//! checks that every traced run counted the same. `model.*` metrics are
//! simulated quantities from the untraced run's `RunMetrics`: a change
//! meant only to speed up the simulator must leave them identical.

use crate::report::Metric;
use crate::stats::{median, percentile_u64};
use crate::traced::{Call, Layer, TracedRun};
use palermo_sim::RunMetrics;

/// Host-time samples taken beside the traced runs.
#[derive(Debug, Clone, Default)]
pub struct UntracedTimes {
    /// Wall time of each untraced run, ns.
    pub run_ns: Vec<f64>,
    /// Wall time of each run with pooled shard stepping, ns (sharded
    /// workloads only; the untraced runs step shards serially).
    pub pooled_ns: Vec<f64>,
}

/// Builds the per-layer table. `runs` must not be empty.
pub fn layer_metrics(
    runs: &[TracedRun],
    reference: &RunMetrics,
    untraced: &UntracedTimes,
) -> Vec<Metric> {
    let first = &runs[0];
    let c = &first.counts;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Median over runs of a per-run host-time figure.
    let med = |f: &dyn Fn(&TracedRun) -> f64| -> f64 {
        median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let ns =
        |r: &TracedRun, calls: &[Call]| -> u64 { calls.iter().map(|&k| r.call(k).total_ns).sum() };
    let root_total: u64 = runs.iter().map(|r| r.root_ns).sum();
    let share = |layer: Layer| ratio(runs.iter().map(|r| r.layer_ns(layer)).sum(), root_total);
    let layer_share_sum: f64 = Layer::ALL.iter().map(|&l| share(l)).sum();

    let mut m = vec![
        Metric::new(
            "workloads.build_ms",
            med(&|r| ns(r, &[Call::StreamBuild]) as f64 / 1e6),
            "ms",
        ),
        Metric::new(
            "workloads.pull_ns_per_req",
            med(&|r| {
                ratio(
                    ns(r, &[Call::StreamPull, Call::LlcAccess, Call::LlcFill]),
                    r.counts.requests_formed,
                )
            }),
            "ns",
        ),
        Metric::new(
            "workloads.accesses_per_req",
            ratio(c.accesses_pulled, c.requests_formed),
            "count",
        ),
        Metric::new(
            "workloads.llc_hit_ratio",
            ratio(c.llc_hits, c.llc_hits + c.llc_misses),
            "ratio",
        ),
        Metric::new("workloads.share", share(Layer::Workloads), "ratio"),
        Metric::new(
            "oram.plan_us",
            med(&|r| ratio(ns(r, &[Call::OramAccess, Call::OramEvict]), r.counts.plans) / 1e3),
            "us",
        ),
        Metric::new("oram.plans", c.plans as f64, "count"),
        Metric::new(
            "oram.background_evicts",
            c.background_evicts as f64,
            "count",
        ),
        Metric::new("oram.nodes_per_plan", ratio(c.plan_nodes, c.plans), "count"),
        Metric::new("oram.share", share(Layer::Oram), "ratio"),
        Metric::new(
            "controller.tick_ns",
            med(&|r| r.call(Call::ControllerTick).mean_ns()),
            "ns",
        ),
        Metric::new(
            "controller.ticks",
            first.call(Call::ControllerTick).count as f64,
            "count",
        ),
        Metric::new(
            "controller.settled_ratio",
            ratio(c.settled_ticks, c.loop_iterations),
            "ratio",
        ),
        Metric::new("controller.ops_issued", c.ops_issued as f64, "count"),
        Metric::new(
            "controller.drain_ns",
            med(&|r| r.call(Call::ControllerDrain).mean_ns()),
            "ns",
        ),
        Metric::new(
            "controller.submit_accept_ratio",
            ratio(c.submit_accepts, c.submit_attempts),
            "ratio",
        ),
        Metric::new("controller.share", share(Layer::Controller), "ratio"),
        Metric::new(
            "dram.tick_ns",
            med(&|r| r.call(Call::DramTick).mean_ns()),
            "ns",
        ),
        Metric::new(
            "dram.ticks",
            first.call(Call::DramTick).count as f64,
            "count",
        ),
        Metric::new(
            "dram.issue_ratio",
            ratio(c.dram_issue_ticks, c.loop_iterations),
            "ratio",
        ),
        Metric::new("dram.share", share(Layer::Dram), "ratio"),
        Metric::new(
            "stepper.advance_ns",
            med(&|r| r.call(Call::StepperAdvance).mean_ns()),
            "ns",
        ),
        Metric::new("stepper.loop_iterations", c.loop_iterations as f64, "count"),
        Metric::new("stepper.cycles_skipped", c.cycles_skipped as f64, "cycles"),
        Metric::new(
            "stepper.skip_ratio",
            ratio(c.cycles_skipped, c.total_cycles),
            "ratio",
        ),
        Metric::new(
            "stepper.skip_window_p50",
            percentile_u64(&first.skip_windows, 0.5).unwrap_or(0.0),
            "cycles",
        ),
        Metric::new(
            "stepper.skip_window_p99",
            percentile_u64(&first.skip_windows, 0.99).unwrap_or(0.0),
            "cycles",
        ),
        Metric::new("stepper.share", share(Layer::Stepper), "ratio"),
        Metric::new("serving.arrivals", reference.arrivals as f64, "count"),
        Metric::new("serving.drops", reference.dropped_arrivals as f64, "count"),
        Metric::new(
            "serving.queue_wait_p50_cycles",
            percentile_u64(&reference.queue_waits, 0.5).unwrap_or(0.0),
            "cycles",
        ),
        Metric::new("serving.share", share(Layer::Serving), "ratio"),
        Metric::new("shard.share", share(Layer::Shard), "ratio"),
        Metric::new(
            "shard.run_ms_max",
            med(&|r| r.shard_run_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6),
            "ms",
        ),
        Metric::new(
            "shard.imbalance",
            med(&|r| {
                let max = r.shard_run_ns.iter().copied().max().unwrap_or(0);
                let sum: u64 = r.shard_run_ns.iter().sum();
                ratio(max * r.shard_run_ns.len() as u64, sum)
            }),
            "ratio",
        ),
        Metric::new(
            "shard.pool_speedup",
            match (median(&untraced.run_ns), median(&untraced.pooled_ns)) {
                (Some(serial), Some(pooled)) => serial / pooled,
                // One system: there is nothing to pool.
                _ => 1.0,
            },
            "ratio",
        ),
        Metric::new("runner.other_share", 1.0 - layer_share_sum, "ratio"),
        Metric::new(
            "trace.overhead_ratio",
            med(&|r| r.root_ns as f64) / median(&untraced.run_ns).unwrap_or(f64::NAN),
            "ratio",
        ),
    ];
    m.extend(model_metrics(reference));
    m
}

/// Simulated-time metrics of the untraced run. Deterministic per seed.
fn model_metrics(r: &RunMetrics) -> Vec<Metric> {
    let latencies = r.end_to_end_latencies();
    // A sharded run's stall cycles add up over shards, so they are shared
    // out over the shards' summed cycles, not over the makespan.
    let stall_base: u64 = if r.per_shard.is_empty() {
        r.cycles
    } else {
        r.per_shard.iter().map(|s| s.cycles).sum()
    };
    vec![
        Metric::new("model.cycles", r.cycles as f64, "cycles"),
        Metric::new(
            "model.accesses_per_kcycle",
            r.workload_accesses as f64 * 1e3 / r.cycles as f64,
            "1/kcycle",
        ),
        Metric::new(
            "model.latency_p50_cycles",
            percentile_u64(&latencies, 0.5).unwrap_or(0.0),
            "cycles",
        ),
        Metric::new(
            "model.latency_p98_cycles",
            percentile_u64(&latencies, 0.98).unwrap_or(0.0),
            "cycles",
        ),
        Metric::new("model.bus_util", r.dram.bandwidth_utilization(), "ratio"),
        Metric::new("model.row_hit_ratio", r.dram.row_hit_rate(), "ratio"),
        Metric::new(
            "model.sync_stall_share",
            r.sync_stall_cycles as f64 / stall_base as f64,
            "ratio",
        ),
    ]
}
