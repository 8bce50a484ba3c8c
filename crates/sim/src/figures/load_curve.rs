//! Latency-vs-offered-load knee curves for open-loop serving.
//!
//! The paper's figures drive every scheme closed-loop (the next request is
//! issued the moment a slot frees up), which measures *capacity* but not
//! *responsiveness under a given demand*. This runner sweeps a Poisson
//! offered load over a grid of arrival rates via
//! [`Experiment::sweep_offered_load`] and reports, per (scheme, rate)
//! point, the achieved throughput and the end-to-end (queue wait + ORAM
//! service) latency percentiles. Plotting p99 against offered rate traces
//! the classic open-loop knee: flat while the system keeps up, then a
//! sharp rise as the admission queue fills, while achieved throughput
//! plateaus at the scheme's saturation rate below the offered rate.
//!
//! Comparing schemes on the same grid shows *where* each scheme's knee
//! sits — a scheme with higher closed-loop throughput saturates at a
//! proportionally higher offered rate.

use crate::experiment::{Executor, Experiment, ResultSet};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::report::{percent, Table};
use palermo_oram::error::{OramError, OramResult};
use palermo_workloads::{ArrivalSpec, OpenLoopSpec, WorkloadSpec};

/// One point of the load curve: one scheme at one offered Poisson rate.
#[derive(Debug, Clone)]
pub struct LoadCurveRow {
    /// The scheme.
    pub scheme: Scheme,
    /// Offered load in requests per kilocycle (the swept arrival rate).
    pub offered_rate: f64,
    /// Achieved throughput in completed requests per kilocycle over the
    /// measured window.
    pub achieved_rate: f64,
    /// Arrivals resolved in the measured window.
    pub arrivals: u64,
    /// Requests completed in the measured window.
    pub completed: u64,
    /// Fraction of measured-window arrivals dropped by the admission
    /// policy.
    pub drop_fraction: f64,
    /// Mean admission-queue wait in cycles.
    pub mean_queue_wait: f64,
    /// Median end-to-end latency (queue wait + service) in cycles.
    pub p50_e2e: u64,
    /// 99th-percentile end-to-end latency in cycles.
    pub p99_e2e: u64,
}

/// Exact `q`-quantile of a sorted sample set (nearest-rank method);
/// 0 when empty.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs the sweep on the given executor, returning one row per
/// (scheme, rate) in scheme-major order with rates in sweep order.
///
/// # Errors
///
/// Propagates configuration and workload-spec build errors, and rejects an
/// empty rate grid or an `inner` spec that is already open-loop (the sweep
/// supplies the arrival process).
pub fn run(
    config: &SystemConfig,
    inner: &WorkloadSpec,
    rates: &[f64],
    schemes: &[Scheme],
    executor: &dyn Executor,
) -> OramResult<Vec<LoadCurveRow>> {
    if rates.is_empty() {
        return Err(OramError::InvalidParams {
            reason: "load_curve needs at least one offered rate".into(),
        });
    }
    if inner.open_loop().is_some() {
        return Err(OramError::InvalidParams {
            reason: "load_curve sweeps the arrival rate itself; pass the inner \
                     (closed-loop) workload spec"
                .into(),
        });
    }
    let results = Experiment::new(config.clone())
        .schemes(schemes.iter().copied())
        .workload_specs([inner.clone()])
        .sweep_offered_load(rates.iter().copied())
        .run(executor)?;
    Ok(rows(&results, inner, rates, schemes))
}

/// Maps already-executed results into load-curve rows, one per
/// (scheme, rate) in scheme-major order — use this instead of [`run`]
/// when the grid has been run elsewhere (no simulation is repeated).
/// (scheme, rate) points missing from the set are skipped.
pub fn rows(
    results: &ResultSet,
    inner: &WorkloadSpec,
    rates: &[f64],
    schemes: &[Scheme],
) -> Vec<LoadCurveRow> {
    let mut out = Vec::new();
    for &scheme in schemes {
        for &rate in rates {
            let wrapped = WorkloadSpec::OpenLoop(OpenLoopSpec::new(
                ArrivalSpec::Poisson {
                    rate_per_kcycle: rate,
                },
                inner.clone(),
            ));
            let Some(record) = results.get_spec(scheme, &wrapped) else {
                continue;
            };
            debug_assert!(record.metrics.arrival_conservation_ok());
            let mut e2e = record.metrics.end_to_end_latencies();
            e2e.sort_unstable();
            out.push(LoadCurveRow {
                scheme,
                offered_rate: record.metrics.offered_rate_per_kcycle().unwrap_or(rate),
                achieved_rate: record.metrics.achieved_rate_per_kcycle(),
                arrivals: record.metrics.arrivals,
                completed: record.metrics.latencies.len() as u64,
                drop_fraction: record.metrics.drop_fraction(),
                mean_queue_wait: record.metrics.mean_queue_wait(),
                p50_e2e: exact_percentile(&e2e, 0.50),
                p99_e2e: exact_percentile(&e2e, 0.99),
            });
        }
    }
    out
}

/// The saturation throughput of a scheme: the highest achieved rate it
/// reaches anywhere on the curve (requests per kilocycle). `None` when the
/// scheme has no rows.
pub fn saturation_rate(rows: &[LoadCurveRow], scheme: Scheme) -> Option<f64> {
    rows.iter()
        .filter(|r| r.scheme == scheme)
        .map(|r| r.achieved_rate)
        .fold(None, |best, rate| {
            Some(best.map_or(rate, |b: f64| b.max(rate)))
        })
}

/// Renders the rows as a text table titled with the inner workload name.
pub fn table(inner: &WorkloadSpec, rows: &[LoadCurveRow]) -> Table {
    let mut t = Table::new(
        format!("Latency vs offered load — {inner}"),
        &[
            "scheme",
            "offered/kcyc",
            "achieved/kcyc",
            "arrivals",
            "compl",
            "dropped",
            "mean qwait",
            "p50 e2e",
            "p99 e2e",
        ],
    );
    for r in rows {
        t.row(&[
            r.scheme.to_string(),
            format!("{:.4}", r.offered_rate),
            format!("{:.4}", r.achieved_rate),
            r.arrivals.to_string(),
            r.completed.to_string(),
            percent(r.drop_fraction),
            format!("{:.0}", r.mean_queue_wait),
            r.p50_e2e.to_string(),
            r.p99_e2e.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SerialExecutor;
    use palermo_workloads::Workload;

    /// A low rate the small test system comfortably keeps up with and a
    /// high rate that saturates it (arrivals every 100 cycles is far
    /// faster than any ORAM access completes).
    const SMOKE_RATES: [f64; 2] = [0.005, 10.0];

    #[test]
    fn curve_shows_the_knee_for_both_schemes() {
        let cfg = super::super::smoke_config();
        let inner = WorkloadSpec::Table2(Workload::Random);
        let schemes = [Scheme::RingOram, Scheme::Palermo];
        let rows = run(&cfg, &inner, &SMOKE_RATES, &schemes, &SerialExecutor).unwrap();
        assert_eq!(rows.len(), schemes.len() * SMOKE_RATES.len());
        for &scheme in &schemes {
            let per: Vec<&LoadCurveRow> = rows.iter().filter(|r| r.scheme == scheme).collect();
            let (low, high) = (per[0], per[1]);
            // Latency is monotone in load with a saturation knee: the tail
            // blows up at overload as the admission queue fills.
            assert!(
                low.p99_e2e < high.p99_e2e,
                "{scheme}: p99 {} !< {}",
                low.p99_e2e,
                high.p99_e2e
            );
            assert!(low.p50_e2e <= high.p50_e2e, "{scheme}: p50 not monotone");
            // At low load the system keeps up (no drops, negligible wait);
            // at overload achieved throughput plateaus below offered.
            assert!(low.drop_fraction == 0.0, "{scheme} dropped at low load");
            assert!(
                high.achieved_rate < high.offered_rate * 0.9,
                "{scheme}: achieved {} did not plateau below offered {}",
                high.achieved_rate,
                high.offered_rate
            );
            assert!(high.drop_fraction > 0.0, "{scheme} overload never dropped");
            let sat = saturation_rate(&rows, scheme).unwrap();
            assert!(sat >= high.achieved_rate);
        }
        assert_eq!(table(&inner, &rows).len(), rows.len());
    }

    #[test]
    fn empty_grids_and_open_inners_are_rejected() {
        let cfg = super::super::smoke_config();
        let inner = WorkloadSpec::Table2(Workload::Random);
        let err = run(&cfg, &inner, &[], &[Scheme::Palermo], &SerialExecutor).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        let open = WorkloadSpec::from_name("open:poisson:0.1:random").unwrap();
        let err = run(&cfg, &open, &[0.1], &[Scheme::Palermo], &SerialExecutor).unwrap_err();
        assert!(err.to_string().contains("inner"), "{err}");
    }
}
