//! Pluggable execution strategies for a grid of [`RunSpec`]s.
//!
//! Every run in a grid is independent — each one constructs its own ORAM,
//! controller, DRAM model and workload stream from the spec — so a grid is
//! embarrassingly parallel. [`ThreadPoolExecutor`] exploits that with
//! scoped OS threads and *deterministic* result collection: results land in
//! grid order regardless of which worker finishes first, and each run's
//! randomness is derived solely from its spec's seed, so the metrics are
//! byte-identical to a [`SerialExecutor`] run of the same grid. The same
//! worker pool also fans the shards of one sharded run across threads
//! ([`crate::PooledShardStepper`]).

use super::results::RunRecord;
use super::RunSpec;
use palermo_oram::error::OramResult;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An execution strategy for a batch of independent run specs.
pub trait Executor {
    /// Executes every spec, returning the records in spec order.
    ///
    /// # Errors
    ///
    /// Returns the error of the first (in spec order) failing run.
    /// Implementations must preserve spec order in the returned records.
    fn execute(&self, specs: Vec<RunSpec>) -> OramResult<Vec<RunRecord>>;
}

/// Runs every spec in order on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn execute(&self, specs: Vec<RunSpec>) -> OramResult<Vec<RunRecord>> {
        specs.iter().map(RunSpec::run).collect()
    }
}

/// Runs `job(i)` for every `i` in `0..n` on up to `threads` scoped OS
/// threads and returns the results in index order.
///
/// Workers claim indices from a shared atomic counter (dynamic load
/// balancing: long jobs don't serialise behind short ones). Each worker
/// hands its `(index, result)` pairs back through its join handle, and the
/// pairs are sorted by index, so the output order never depends on which
/// worker finishes first. A panicking job re-raises its panic here.
pub(crate) fn run_indexed<T: Send>(
    threads: usize,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, job(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Fans independent runs across a fixed number of OS threads using
/// [`std::thread::scope`] (no external dependencies).
///
/// Workers claim specs dynamically from a shared counter and the pool
/// returns the results in spec order, so the output order — and, because
/// every run is seeded from its spec alone, every metric — is identical to
/// what [`SerialExecutor`] produces.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPoolExecutor {
    threads: usize,
}

impl ThreadPoolExecutor {
    /// Creates an executor with the given worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ThreadPoolExecutor {
            threads: threads.max(1),
        }
    }

    /// Creates an executor with one worker per available core.
    ///
    /// The worker count is the one ambient input the executor takes; it can
    /// only change *scheduling*, never results — `tests/experiment_api.rs`
    /// pins byte-identical `RunMetrics` against [`SerialExecutor`].
    #[allow(
        clippy::disallowed_methods,
        reason = "thread count affects scheduling only; serial-vs-pool byte-identity is pinned by tests"
    )]
    pub fn with_available_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// The number of worker threads this executor will spawn.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ThreadPoolExecutor {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

impl Executor for ThreadPoolExecutor {
    fn execute(&self, specs: Vec<RunSpec>) -> OramResult<Vec<RunRecord>> {
        run_indexed(self.threads, specs.len(), |i| specs[i].run())
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::schemes::Scheme;
    use crate::system::SystemConfig;
    use palermo_oram::error::OramError;
    use palermo_workloads::Workload;

    fn tiny() -> SystemConfig {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 20;
        cfg.warmup_requests = 5;
        cfg
    }

    fn grid() -> Experiment {
        Experiment::new(tiny())
            .schemes([Scheme::PathOram, Scheme::RingOram, Scheme::Palermo])
            .workloads([Workload::Random, Workload::Mcf])
    }

    #[test]
    fn thread_pool_matches_serial_exactly() {
        let serial = grid().run(&SerialExecutor).unwrap();
        let pooled = grid().run(&ThreadPoolExecutor::new(4)).unwrap();
        assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(pooled.iter()) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.metrics.cycles, p.metrics.cycles);
            assert_eq!(s.metrics.latencies, p.metrics.latencies);
            assert_eq!(s.metrics.oram_requests, p.metrics.oram_requests);
            assert_eq!(s.metrics.dram.reads, p.metrics.dram.reads);
        }
    }

    #[test]
    fn thread_pool_handles_more_threads_than_specs() {
        let set = Experiment::new(tiny())
            .schemes([Scheme::Palermo])
            .workloads([Workload::Random])
            .run(&ThreadPoolExecutor::new(16))
            .unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn empty_grid_is_fine() {
        let set = Experiment::new(tiny())
            .run(&ThreadPoolExecutor::new(2))
            .unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn first_error_in_spec_order_wins() {
        let mut bad = tiny();
        bad.protected_bytes = 0; // invalid: zero-sized protected space
        let err = Experiment::new(tiny())
            .schemes([Scheme::Palermo])
            .workloads([Workload::Random])
            .spec(super::super::RunSpec::new(
                Scheme::Palermo,
                Workload::Random,
                bad,
            ))
            .run(&ThreadPoolExecutor::new(2))
            .unwrap_err();
        assert!(matches!(err, OramError::InvalidParams { .. }));
    }

    #[test]
    fn pooled_results_come_back_in_index_order() {
        let squares = run_indexed(3, 50, |i| i * i);
        assert_eq!(squares, (0..50).map(|i| i * i).collect::<Vec<_>>());
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "job 7 failed")]
    fn a_panicking_job_re_raises_its_panic() {
        run_indexed(2, 10, |i| assert!(i != 7, "job {i} failed"));
    }

    #[test]
    fn constructors_clamp_and_report_threads() {
        assert_eq!(ThreadPoolExecutor::new(0).threads(), 1);
        assert!(ThreadPoolExecutor::with_available_parallelism().threads() >= 1);
        assert!(ThreadPoolExecutor::default().threads() >= 1);
    }
}
