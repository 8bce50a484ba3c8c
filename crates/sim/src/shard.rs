//! Sharded multi-controller scale-out: K independent ORAM systems behind
//! one workload.
//!
//! A [`ShardedSystem`] partitions the protected address space across K
//! fully independent ORAM instances — per-shard position map, stash, and
//! DRAM channels — using a [`palermo_workloads::ShardRouter`] to split the
//! access stream. Each shard is driven by the ordinary single-system core
//! loop (through the existing [`Stepper`] machinery) and
//! the per-shard [`RunMetrics`] are merged deterministically, in strict
//! shard-index order, with per-shard and per-tenant attribution both
//! preserved and conservation-checked.
//!
//! Because shards share no mutable state, shard stepping is a pure
//! scheduling choice: [`SerialShardStepper`] runs the shards one after
//! another on the calling thread, [`PooledShardStepper`] fans them across
//! [`std::thread::scope`] workers, and the two are byte-identical by
//! construction (each shard's run depends only on its own derived seed and
//! its own filtered stream). `tests/shard_scaling.rs` pins that identity
//! over a K × scheme grid.
//!
//! # Determinism contract
//!
//! * The *global* workload stream is built once, from the global stream
//!   seed, when the system is constructed. Every shard starts from its own
//!   clone of that untouched stream and filters it through the router, so
//!   the set of accesses a shard sees is independent of how the other
//!   shards are scheduled. Clones share only immutable tables (a graph, a
//!   replayed trace), never cursor or RNG state.
//! * Per-shard protocol seeds are derived from the global seed by SplitMix64
//!   expansion (the same idiom the multi-tenant mix uses per tenant), so
//!   shard i's leaf randomness never depends on K's scheduling.
//! * The merge folds shard results in shard-index order only — no
//!   completion-order or thread-order dependence anywhere.

use crate::experiment::executor::run_indexed;
use crate::experiment::CustomProtocol;
use crate::runner::{prefetch_length, run_core, RunMetrics, ShardMetrics, Stepper, TenantMetrics};
use crate::schemes::Scheme;
use crate::system::SystemConfig;
use palermo_analysis::LatencyHistogram;
use palermo_dram::DramStats;
use palermo_oram::error::{OramError, OramResult};
use palermo_oram::rng::SplitMix64;
use palermo_workloads::{AccessStream, OpenLoopSpec, ShardRouter, ShardStream, WorkloadSpec};
use std::num::NonZeroUsize;

/// K independent ORAM systems over a partitioned address space.
///
/// Constructed from a sharded [`WorkloadSpec`] (`shard:<K>:<router>:<inner>`,
/// optionally wrapped in `open:`); derives one [`SystemConfig`] per shard
/// (protected space, request budget and protocol seed all split
/// deterministically) and runs each shard through the ordinary
/// single-system loop.
#[derive(Debug, Clone)]
pub struct ShardedSystem {
    scheme: Scheme,
    /// The full user-facing spec — every shard's metrics carry this label.
    spec: WorkloadSpec,
    router: ShardRouter,
    shard_configs: Vec<SystemConfig>,
    /// Per-shard serving description: the global arrival processes thinned
    /// by 1/K (each shard sees its slice of the offered load). `None` for
    /// closed-loop specs.
    open: Option<OpenLoopSpec>,
    /// The *global* stream (global hint and seed), built once and never
    /// pulled: every shard runs on its own clone of it.
    prototype: Box<dyn AccessStream>,
    prefetch_length: u32,
}

impl ShardedSystem {
    /// Builds the sharded system implied by a sharded workload spec.
    ///
    /// The inner stream is built once, with the global hint and seed. The
    /// router reads its footprint and tenant partitions (properties of the
    /// spec, not of the access sequence), and the stream is then kept,
    /// unpulled, as the prototype every shard clones. A replayed trace is
    /// therefore read from disk here and only here. Per-shard request
    /// budgets split the global budget conservatively (sums are exact), and
    /// per-shard protocol seeds come from SplitMix64 expansion of the
    /// global seed.
    ///
    /// # Errors
    ///
    /// Rejects non-sharded specs, invalid shard shapes (see
    /// [`palermo_workloads::ShardSpec::validate`]), inner streams that fail
    /// to build (e.g. an unreadable trace file) and router builds the inner
    /// stream cannot support (e.g. a footprint with fewer cache lines than
    /// shards).
    pub fn new(scheme: Scheme, spec: &WorkloadSpec, config: &SystemConfig) -> OramResult<Self> {
        let shard_spec = spec.sharded().ok_or_else(|| OramError::InvalidParams {
            reason: format!("workload spec '{spec}' is not sharded"),
        })?;
        spec.validate()?;
        let prototype = shard_spec
            .inner
            .build(config.stream_footprint_hint(), config.stream_seed())?;
        let router = ShardRouter::new(shard_spec.router, shard_spec.shards, prototype.as_ref())?;

        let k = u64::from(shard_spec.shards);
        let mut seeds = SplitMix64::new(config.seed);
        let shard_configs = (0..shard_spec.shards)
            .map(|i| {
                let mut c = config.clone();
                // A shard's protected space is its slice of the global one,
                // but never smaller than the footprint the router sends it
                // (rounded up to whole cache lines so the line count stays
                // exact).
                let fp = router.shard_footprint_bytes(i);
                c.protected_bytes = (config.protected_bytes / k).max(fp).div_ceil(64) * 64;
                // Split the request budget so the totals conserve exactly:
                // shard i gets floor(n/K) plus one of the n mod K leftovers.
                let i = u64::from(i);
                c.measured_requests =
                    config.measured_requests / k + u64::from(i < config.measured_requests % k);
                c.warmup_requests =
                    config.warmup_requests / k + u64::from(i < config.warmup_requests % k);
                c.seed = seeds.next_u64();
                c
            })
            .collect();

        // An open-loop wrapper offers the global rate to the whole system;
        // each shard serves its 1/K slice of it. Thinning a Poisson process
        // is exact; the bursty/diurnal processes keep their time structure
        // and scale their rates (see `ArrivalSpec::scaled`).
        let open = spec.open_loop().map(|o| OpenLoopSpec {
            arrivals: o
                .arrivals
                .iter()
                .map(|a| a.scaled(1.0 / k as f64))
                .collect(),
            inner: shard_spec.inner.clone(),
        });

        Ok(ShardedSystem {
            scheme,
            spec: spec.clone(),
            router,
            shard_configs,
            open,
            prototype,
            prefetch_length: prefetch_length(scheme, spec, config),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.router.shards()
    }

    /// The scheme every shard runs.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The router partitioning the address space.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The derived per-shard system configuration.
    pub fn shard_config(&self, shard: u32) -> &SystemConfig {
        &self.shard_configs[shard as usize]
    }

    /// Runs one shard to completion: clones the global stream built at
    /// construction, filters it to this shard through the router, and
    /// drives the single-system loop with the shard's derived
    /// configuration. Independent of every other shard by construction,
    /// which is what makes pooled stepping safe.
    ///
    /// # Errors
    ///
    /// Propagates protocol-configuration errors.
    pub fn run_shard(&self, shard: u32, stepper: &dyn Stepper) -> OramResult<RunMetrics> {
        let config = &self.shard_configs[shard as usize];
        let protocol = CustomProtocol::of_scheme(self.scheme, config, self.prefetch_length)?;
        // Every shard filters a fresh clone of the *global* stream, so the
        // union of what the shards consume is exactly the unsharded stream.
        let mut stream = ShardStream::new(self.prototype.clone(), self.router.clone(), shard);
        run_core(
            self.scheme,
            protocol,
            &self.spec,
            self.open.as_ref(),
            &mut stream,
            config,
            stepper,
        )
    }

    /// Merges per-shard runs (in shard-index order) into one aggregate
    /// [`RunMetrics`], preserving per-shard and per-tenant attribution.
    ///
    /// Count-like fields sum; `cycles` and `stash_high_water` take the max
    /// across shards (the makespan); sample vectors concatenate in shard
    /// order; per-tenant metrics merge element-wise (shards tag accesses
    /// with *global* tenant ids). The result satisfies
    /// [`RunMetrics::shard_conservation_ok`] and
    /// [`RunMetrics::tenant_conservation_ok`] by construction.
    fn merge(&self, runs: Vec<RunMetrics>) -> RunMetrics {
        debug_assert_eq!(runs.len(), self.shards() as usize);
        // Every shard runs on the global configuration's hardware.
        let mut merged = RunMetrics::empty(
            self.scheme,
            self.spec.clone(),
            self.prefetch_length,
            &self.shard_configs[0],
        );
        // LLC hit rate is a ratio, not a count: recover the aggregate by
        // weighting each shard's rate with its access volume (falling back
        // to a plain mean over shards when nothing completed anywhere).
        let total_accesses: u64 = runs.iter().map(|r| r.workload_accesses).sum();
        merged.llc_hit_rate = if total_accesses > 0 {
            runs.iter()
                .map(|r| r.llc_hit_rate * r.workload_accesses as f64)
                .sum::<f64>()
                / total_accesses as f64
        } else {
            runs.iter().map(|r| r.llc_hit_rate).sum::<f64>() / runs.len().max(1) as f64
        };
        for (i, run) in runs.into_iter().enumerate() {
            merged.oram_requests += run.oram_requests;
            merged.workload_accesses += run.workload_accesses;
            merged.dummy_requests += run.dummy_requests;
            merged.submitted_requests += run.submitted_requests;
            merged.arrivals += run.arrivals;
            merged.dropped_arrivals += run.dropped_arrivals;
            merged.sync_stall_cycles += run.sync_stall_cycles;
            for (level, stall) in run.sync_stall_by_level.iter().enumerate() {
                merged.sync_stall_by_level[level] += stall;
            }
            // The shards run concurrently in the modelled hardware, so the
            // aggregate window is the shard makespan, not the cycle sum.
            merged.cycles = merged.cycles.max(run.cycles);
            merged.stash_high_water = merged.stash_high_water.max(run.stash_high_water);
            merged.dram = sum_dram(&merged.dram, &run.dram);
            merge_tenants(&mut merged.per_tenant, &run.per_tenant);
            let mut latency = LatencyHistogram::new();
            for &l in &run.latencies {
                latency.record(l);
            }
            merged.per_shard.push(ShardMetrics {
                shard: i as u32,
                oram_requests: run.oram_requests,
                workload_accesses: run.workload_accesses,
                dummy_requests: run.dummy_requests,
                cycles: run.cycles,
                submitted_requests: run.submitted_requests,
                arrivals: run.arrivals,
                dropped_arrivals: run.dropped_arrivals,
                latency,
                stash_high_water: run.stash_high_water,
            });
            merged.latencies.extend(run.latencies);
            merged.behaviour_latency.extend(run.behaviour_latency);
            merged.stash_samples.extend(run.stash_samples);
            merged.queue_waits.extend(run.queue_waits);
        }
        debug_assert!(merged.shard_conservation_ok());
        debug_assert!(merged.tenant_conservation_ok());
        merged
    }
}

/// Accumulates one field-wise DRAM sum (shards own disjoint channels, so
/// every counter adds; the channel count is per shard and identical across
/// shards).
fn sum_dram(a: &DramStats, b: &DramStats) -> DramStats {
    DramStats {
        cycles: a.cycles + b.cycles,
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        row_hits: a.row_hits + b.row_hits,
        row_misses: a.row_misses + b.row_misses,
        row_conflicts: a.row_conflicts + b.row_conflicts,
        data_bus_busy_cycles: a.data_bus_busy_cycles + b.data_bus_busy_cycles,
        queue_occupancy_sum: a.queue_occupancy_sum + b.queue_occupancy_sum,
        read_latency_sum: a.read_latency_sum + b.read_latency_sum,
        channels: if a.channels == 0 {
            b.channels
        } else {
            a.channels
        },
    }
}

/// Element-wise per-tenant merge. Shards tag accesses with global tenant
/// ids, so every shard's vector is indexed identically (length = the inner
/// spec's tenant count, or empty when attribution is off).
fn merge_tenants(into: &mut Vec<TenantMetrics>, from: &[TenantMetrics]) {
    if into.is_empty() {
        into.extend(from.iter().cloned());
        return;
    }
    debug_assert_eq!(into.len(), from.len());
    for (t, s) in into.iter_mut().zip(from) {
        t.submitted += s.submitted;
        t.completed += s.completed;
        t.workload_accesses += s.workload_accesses;
        t.dram_ops += s.dram_ops;
        t.dropped += s.dropped;
        t.latency.merge(&s.latency);
        t.queue_wait.merge(&s.queue_wait);
    }
}

/// How the K shards of a [`ShardedSystem`] are scheduled. Implementations
/// must be byte-identical: shards share no state, so scheduling can never
/// change results, only wall-clock time.
pub trait ShardStepper {
    /// Runs every shard of `system` and returns the merged metrics.
    ///
    /// # Errors
    ///
    /// Returns the error of the first (in shard order) failing shard.
    fn run(&self, system: &ShardedSystem, stepper: &dyn Stepper) -> OramResult<RunMetrics>;
}

/// Runs shards one after another on the calling thread, in shard order.
///
/// This is the default used by the runner's sharded dispatch: it composes
/// safely with outer parallelism (a [`crate::ThreadPoolExecutor`] running
/// many sharded runs never oversubscribes cores), and byte-identity with
/// [`PooledShardStepper`] makes the choice purely one of scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialShardStepper;

impl ShardStepper for SerialShardStepper {
    fn run(&self, system: &ShardedSystem, stepper: &dyn Stepper) -> OramResult<RunMetrics> {
        let runs = (0..system.shards())
            .map(|i| system.run_shard(i, stepper))
            .collect::<OramResult<Vec<_>>>()?;
        Ok(system.merge(runs))
    }
}

/// Fans shards across a fixed number of OS threads using
/// [`std::thread::scope`] — the intra-run parallelism the shards' total
/// independence buys.
///
/// Workers claim shard indices dynamically from the same worker pool as
/// [`crate::ThreadPoolExecutor`], one level down, which returns the results
/// in shard order regardless of which worker finishes first, so the merge
/// sees the same sequence as under [`SerialShardStepper`].
#[derive(Debug, Clone, Copy)]
pub struct PooledShardStepper {
    threads: usize,
}

impl PooledShardStepper {
    /// Creates a pool with the given worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        PooledShardStepper {
            threads: threads.max(1),
        }
    }

    /// Creates a pool with one worker per available core.
    ///
    /// The worker count is the one ambient input the pool takes; it can
    /// only change *scheduling*, never results — `tests/shard_scaling.rs`
    /// pins byte-identical `RunMetrics` against [`SerialShardStepper`].
    pub fn with_available_parallelism() -> Self {
        // audit:allow(ambient-state, thread count affects scheduling only; serial-vs-pool byte-identity is pinned by tests)
        Self::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// The number of worker threads this pool will spawn.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for PooledShardStepper {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

impl ShardStepper for PooledShardStepper {
    fn run(&self, system: &ShardedSystem, stepper: &dyn Stepper) -> OramResult<RunMetrics> {
        let runs = run_indexed(self.threads, system.shards() as usize, |i| {
            system.run_shard(i as u32, stepper)
        })
        .into_iter()
        .collect::<OramResult<Vec<_>>>()?;
        Ok(system.merge(runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CalendarStepper;
    use palermo_workloads::TraceEntry;

    fn tiny() -> SystemConfig {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 30;
        cfg.warmup_requests = 10;
        cfg
    }

    fn sharded(name: &str) -> WorkloadSpec {
        WorkloadSpec::from_name(name).unwrap()
    }

    #[test]
    fn construction_derives_conserving_budgets_and_distinct_seeds() {
        let spec = sharded("shard:3:hash:random");
        let cfg = tiny();
        let system = ShardedSystem::new(Scheme::RingOram, &spec, &cfg).unwrap();
        assert_eq!(system.shards(), 3);
        let measured: u64 = (0..3)
            .map(|i| system.shard_config(i).measured_requests)
            .sum();
        let warmup: u64 = (0..3).map(|i| system.shard_config(i).warmup_requests).sum();
        assert_eq!(measured, cfg.measured_requests);
        assert_eq!(warmup, cfg.warmup_requests);
        let seeds: Vec<u64> = (0..3).map(|i| system.shard_config(i).seed).collect();
        assert!(seeds.windows(2).all(|w| w[0] != w[1]));
        for i in 0..3 {
            let c = system.shard_config(i);
            assert_eq!(c.protected_bytes % 64, 0);
            assert!(c.protected_bytes >= system.router().shard_footprint_bytes(i));
        }
    }

    #[test]
    fn non_sharded_specs_are_rejected() {
        let err = ShardedSystem::new(
            Scheme::RingOram,
            &WorkloadSpec::from_name("random").unwrap(),
            &tiny(),
        )
        .unwrap_err();
        assert!(matches!(err, OramError::InvalidParams { .. }));
    }

    #[test]
    fn merged_metrics_conserve_and_carry_the_full_label() {
        let spec = sharded("shard:2:hash:random");
        let m = crate::runner::run_workload_spec(Scheme::RingOram, &spec, &tiny()).unwrap();
        assert_eq!(m.workload, spec);
        assert_eq!(m.per_shard.len(), 2);
        assert!(m.shard_conservation_ok());
        assert!(m.tenant_conservation_ok());
        assert!(m.arrival_conservation_ok());
        assert!(m.oram_requests > 0);
        assert_eq!(m.latencies.len() as u64, m.oram_requests);
    }

    #[test]
    fn pooled_stepping_is_byte_identical_to_serial() {
        let spec = sharded("shard:2:range:mcf");
        let system = ShardedSystem::new(Scheme::Palermo, &spec, &tiny()).unwrap();
        let serial = ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper).unwrap();
        let pooled =
            ShardStepper::run(&PooledShardStepper::new(4), &system, &CalendarStepper).unwrap();
        assert_eq!(serial, pooled);
    }

    #[test]
    fn open_loop_wrapping_thins_arrivals_across_shards() {
        let spec = sharded("open:poisson:0.5:shard:2:hash:random");
        let m = crate::runner::run_workload_spec(Scheme::RingOram, &spec, &tiny()).unwrap();
        assert!(m.arrivals > 0);
        assert_eq!(m.queue_waits.len(), m.latencies.len());
        assert!(m.shard_conservation_ok());
        assert!(m.arrival_conservation_ok());
    }

    /// Shard `shard` driven by a fresh build of the global stream, as
    /// `run_shard` did before it cloned the prototype.
    fn run_shard_on_a_rebuild(
        system: &ShardedSystem,
        global: &SystemConfig,
        shard: u32,
    ) -> RunMetrics {
        let config = system.shard_config(shard);
        let protocol =
            CustomProtocol::of_scheme(system.scheme, config, system.prefetch_length).unwrap();
        let inner = system
            .spec
            .sharded()
            .unwrap()
            .inner
            .build(global.stream_footprint_hint(), global.stream_seed())
            .unwrap();
        let mut stream = ShardStream::new(inner, system.router.clone(), shard);
        run_core(
            system.scheme,
            protocol,
            &system.spec,
            system.open.as_ref(),
            &mut stream,
            config,
            &CalendarStepper,
        )
        .unwrap()
    }

    #[test]
    fn prototype_clones_match_a_fresh_rebuild_per_shard() {
        let cfg = SystemConfig::small_for_tests();
        for name in [
            "shard:2:hash:pr",
            "shard:3:range:mix:rr:redis+pr",
            "shard:2:tenant:mix:rr:redis+motif",
            "open:poisson:0.5:shard:2:hash:motif",
        ] {
            let system = ShardedSystem::new(Scheme::Palermo, &sharded(name), &cfg).unwrap();
            let rebuilt: Vec<RunMetrics> = (0..system.shards())
                .map(|i| run_shard_on_a_rebuild(&system, &cfg, i))
                .collect();
            for (i, expected) in rebuilt.iter().enumerate() {
                let cloned = system.run_shard(i as u32, &CalendarStepper).unwrap();
                assert_eq!(&cloned, expected, "{name}: shard {i}");
            }
            let rebuilt = system.merge(rebuilt);
            let serial = ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper).unwrap();
            let pooled =
                ShardStepper::run(&PooledShardStepper::new(2), &system, &CalendarStepper).unwrap();
            assert_eq!(serial, rebuilt, "{name}: serial");
            assert_eq!(pooled, rebuilt, "{name}: pooled");
        }
    }

    #[test]
    fn sharded_replays_read_their_trace_once() {
        // Regression: every shard used to re-read the trace file, so a
        // file deleted (or rewritten) after construction broke the run.
        let dir = std::env::temp_dir().join("palermo_shard_replay_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("read_once.trace");
        let entries: Vec<TraceEntry> = (0..4096u64)
            .map(|i| {
                let addr = (i * 7919 % 16_384) * 64;
                if i % 5 == 0 {
                    TraceEntry::write(addr)
                } else {
                    TraceEntry::read(addr)
                }
            })
            .collect();
        palermo_workloads::format::save_text(&path, &entries).unwrap();
        let spec = sharded(&format!("shard:2:hash:replay:{}", path.display()));
        let system = ShardedSystem::new(Scheme::Palermo, &spec, &tiny()).unwrap();
        let first = SerialShardStepper.run(&system, &CalendarStepper).unwrap();
        assert!(first.oram_requests > 0);
        std::fs::remove_file(&path).unwrap();
        let steppers: [&dyn ShardStepper; 2] = [&SerialShardStepper, &PooledShardStepper::new(2)];
        for shard_stepper in steppers {
            assert_eq!(shard_stepper.run(&system, &CalendarStepper).unwrap(), first);
        }
    }

    #[test]
    fn pool_constructors_clamp_and_report_threads() {
        assert_eq!(PooledShardStepper::new(0).threads(), 1);
        assert!(PooledShardStepper::with_available_parallelism().threads() >= 1);
        assert!(PooledShardStepper::default().threads() >= 1);
    }
}
