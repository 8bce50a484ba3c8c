//! # palermo-bench
//!
//! The Criterion benchmark harness that regenerates every table and figure
//! of the Palermo evaluation. Each `benches/figNN_*.rs` target measures the
//! wall-clock cost of the corresponding experiment at a reduced request
//! budget *and* prints the experiment's result table once, so running
//! `cargo bench` both exercises the simulator and reproduces the paper's
//! rows (`bench/README.md` records the measured trajectory).
//!
//! The shared helpers here keep the per-bench request budgets small enough
//! for Criterion's repeated sampling while remaining large enough for the
//! qualitative shape (who wins, by roughly what factor) to be stable.

#![warn(missing_docs)]

use palermo_sim::system::SystemConfig;

/// The request budget used inside Criterion measurement loops.
///
/// The 60/15 split is deliberately **pinned**: it is the budget the
/// `fig03_ring_baseline` trajectory in `bench/README.md` is quoted at, so
/// keeping it fixed keeps those numbers comparable over time. The headroom
/// the event-driven core bought is spent on [`report_config`] instead, which
/// sizes the actual experiment tables. Set `PALERMO_BENCH_REQUESTS` to
/// override the measured budget (CI uses a scaled-down value for its quick
/// baseline emission; larger values give lower-variance local runs).
///
/// # Panics
///
/// When `PALERMO_BENCH_REQUESTS` is set to anything but a request count
/// (say `20ms`): measuring the pinned budget instead would compare it
/// against a snapshot taken at the requested one.
pub fn bench_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 60;
    cfg.warmup_requests = 15;
    let budget = std::env::var("PALERMO_BENCH_REQUESTS").ok();
    match parse_request_budget(budget.as_deref()) {
        Ok(Some(measured)) => {
            cfg.measured_requests = measured.max(1);
            cfg.warmup_requests = (measured / 4).max(1);
        }
        Ok(None) => {}
        Err(e) => panic!("{e}"),
    }
    cfg
}

/// The budget used for the one-shot result table printed per bench. Raised
/// from 150/40 to 400/100 measured/warm-up requests once the event-driven
/// core (PR 3) made the per-request cost ~4x cheaper: the printed tables now
/// average over substantially more requests at the same wall-clock cost the
/// seed spent.
pub fn report_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 400;
    cfg.warmup_requests = 100;
    cfg
}

/// Parses a `PALERMO_BENCH_REQUESTS` value: `None` when the variable is
/// unset, the measured-request count when it is one, and an error naming
/// the value otherwise.
fn parse_request_budget(value: Option<&str>) -> Result<Option<u64>, String> {
    value
        .map(|v| {
            v.parse()
                .map_err(|e| format!("PALERMO_BENCH_REQUESTS={v:?} is not a request count: {e}"))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configs_are_small_but_nonempty() {
        assert!(bench_config().measured_requests < report_config().measured_requests);
        assert!(bench_config().measured_requests >= 10);
    }

    #[test]
    fn request_budget_is_a_count_or_a_named_error() {
        assert_eq!(parse_request_budget(None), Ok(None));
        assert_eq!(parse_request_budget(Some("20")), Ok(Some(20)));
        for bad in ["20ms", "", " 20", "-5", "2e1"] {
            let err = parse_request_budget(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
