//! The cycle-exact end-to-end simulation loop.
//!
//! One [`run_workload_spec`] call simulates a single (scheme, workload) pair:
//! the workload's memory accesses are filtered by the LLC, every miss is
//! converted into an ORAM request by the protocol layer, the controller
//! issues the request's DRAM traffic subject to the scheme's scheduling
//! policy, and the DRAM model services it cycle by cycle. Metrics are
//! collected over the post-warm-up window only.
//!
//! # Event-driven time skipping
//!
//! The loop is *event-driven*: after any iteration in which the controller
//! settled and no new plan is about to be staged, the clock jumps straight
//! to the next cycle at which the controller can react to anything — the
//! first DRAM event it does not ignore (the DRAM model's
//! `next_event_cycle()` predicts bank timing expiry, bus free and data
//! return) or the controller's `next_wakeup()` (compute countdown expiry),
//! whichever comes first. Skipped cycles are accounted *exactly* as if they
//! had been ticked (cycle counters, queue occupancy, sync-stall
//! attribution), so all metrics are byte-identical to the per-cycle
//! reference loop; [`ReferenceStepper`] keeps that reference loop alive as a
//! test double and `tests/stepper_equivalence.rs` proves the
//! [`CalendarStepper`] equivalent to it over the full scheme × workload
//! grid.
//!
//! A run that can never finish returns [`OramError::Deadlock`], naming
//! what was stuck, instead of stepping for ever.
//!
//! Anything bigger than one run — grids, sweeps, parallel execution —
//! belongs to the typed [`crate::experiment`] surface built on top of
//! this module.

use crate::experiment::CustomProtocol;
use crate::schemes::Scheme;
use crate::serving::ServingEngine;
use crate::system::SystemConfig;
use palermo_analysis::LatencyHistogram;
use palermo_controller::{memory_energy, EnergyBreakdown, OramController, SYNC_STALL_QUEUE_DEPTH};
use palermo_dram::{DramConfig, DramStats, DramSystem, EnergyCoefficients, CLOCK_HZ};
use palermo_oram::crypto::Payload;
use palermo_oram::error::{OramError, OramResult};
use palermo_oram::hierarchy::HierarchicalOram;
use palermo_oram::params::BLOCK_BYTES;
use palermo_oram::types::{OramOp, PhysAddr};
use palermo_workloads::{AccessStream, Llc, OpenLoopSpec, WorkloadSpec};

/// Metrics attributed to one tenant of the workload stream over the
/// measured window.
///
/// Attribution is at ORAM-request granularity: a request belongs to the
/// tenant whose access missed the LLC and formed it (the LLC hits absorbed
/// on the way ride along). Everything here is integer-accumulated, so two
/// runs observing the same completions produce byte-identical values — the
/// per-tenant determinism tests compare these vectors with `==` across
/// executors and steppers. Controller-injected dummy requests belong to no
/// tenant and only appear in the aggregate [`RunMetrics::dummy_requests`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Tenant index within the workload spec (0-based).
    pub tenant: u32,
    /// Real ORAM requests of this tenant submitted to the controller while
    /// the measured window was open — the tenant's *offered load* over the
    /// window. Submission and completion windows overlap but do not nest
    /// (requests submitted before the window opens may complete inside it,
    /// and late submissions may still be in flight at run end), so this can
    /// fall on either side of `completed`.
    pub submitted: u64,
    /// Real ORAM requests of this tenant completed inside the measured
    /// window. Sums to [`RunMetrics::oram_requests`] across tenants.
    pub completed: u64,
    /// Workload accesses consumed by this tenant's completed requests.
    /// Sums to [`RunMetrics::workload_accesses`] across tenants.
    pub workload_accesses: u64,
    /// Fixed-bucket latency histogram (mean/p50/p95/p99 source; its exact
    /// running sum doubles as the tenant's latency total, which sums to the
    /// aggregate latency total across tenants).
    pub latency: LatencyHistogram,
    /// DRAM bursts issued on behalf of this tenant's completed requests —
    /// the tenant's memory-demand share (who occupies the DRAM, and thereby
    /// who stalls whom).
    pub dram_ops: u64,
    /// Queue-wait histogram (admission-queue residency, arrival to
    /// controller submission) of this tenant's completed requests. Empty
    /// for closed-loop runs, where requests have no arrival time.
    pub queue_wait: LatencyHistogram,
    /// Arrivals of this tenant dropped by the admission policy in the
    /// measured window. Attributed only when the open-loop spec routes one
    /// arrival process per tenant; a single aggregate process leaves this 0
    /// (a dropped arrival never reaches the stream's tenant selection, so
    /// its tenant is unknowable) and only
    /// [`RunMetrics::dropped_arrivals`] counts it.
    pub dropped: u64,
}

impl TenantMetrics {
    /// An empty accumulator for tenant `tenant`.
    pub fn new(tenant: u32) -> Self {
        TenantMetrics {
            tenant,
            submitted: 0,
            completed: 0,
            workload_accesses: 0,
            latency: LatencyHistogram::new(),
            dram_ops: 0,
            queue_wait: LatencyHistogram::new(),
            dropped: 0,
        }
    }

    /// Mean ORAM response latency in cycles (exact, from the histogram's
    /// running sum).
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Median latency estimate in cycles.
    pub fn p50_latency(&self) -> u64 {
        self.latency.p50()
    }

    /// 95th-percentile latency estimate in cycles.
    pub fn p95_latency(&self) -> u64 {
        self.latency.p95()
    }

    /// 99th-percentile tail latency estimate in cycles.
    pub fn p99_latency(&self) -> u64 {
        self.latency.p99()
    }

    fn record_completion(
        &mut self,
        latency: u64,
        accesses: u64,
        dram_ops: u64,
        queue_wait: Option<u64>,
    ) {
        self.completed += 1;
        self.workload_accesses += accesses;
        self.latency.record(latency);
        self.dram_ops += dram_ops;
        if let Some(wait) = queue_wait {
            self.queue_wait.record(wait);
        }
    }
}

/// The aggregate slice of one shard of a sharded run: what that shard's
/// independent ORAM instance contributed to the merged [`RunMetrics`].
///
/// Everything here is integer-accumulated (the histogram is fixed-bucket),
/// so serial and pooled shard stepping produce byte-identical vectors —
/// compared with `==` by the sharding determinism tests. Sums across shards
/// reproduce the merged aggregates ([`RunMetrics::shard_conservation_ok`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard index (0-based, dense).
    pub shard: u32,
    /// Real ORAM requests this shard completed in its measured window.
    pub oram_requests: u64,
    /// Workload accesses consumed by this shard's completed requests.
    pub workload_accesses: u64,
    /// Dummy (background-eviction) requests this shard completed.
    pub dummy_requests: u64,
    /// Cycles this shard's controller/DRAM spent in its measured window.
    /// The merged aggregate takes the max across shards (the makespan).
    pub cycles: u64,
    /// Real requests this shard submitted while measuring.
    pub submitted_requests: u64,
    /// Open-loop arrivals this shard resolved in its window (0 closed-loop).
    pub arrivals: u64,
    /// Open-loop arrivals this shard's admission policy dropped.
    pub dropped_arrivals: u64,
    /// Fixed-bucket service-latency histogram of this shard's completions.
    pub latency: LatencyHistogram,
    /// Highest stash occupancy this shard's hierarchy observed.
    pub stash_high_water: usize,
}

/// Metrics collected over the measured window of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The scheme that was simulated.
    pub scheme: Scheme,
    /// The workload spec that drove it (a Table II workload, a trace
    /// replay, or a multi-tenant mix).
    pub workload: WorkloadSpec,
    /// Real (non-dummy) ORAM requests completed in the measured window.
    pub oram_requests: u64,
    /// Workload memory accesses consumed in the measured window (LLC hits
    /// plus misses). This is the application-progress measure that
    /// end-to-end speedups are computed from: prefetching schemes serve more
    /// accesses per ORAM request because prefetched lines hit in the LLC.
    ///
    /// **Window boundary:** accesses are attributed to the ORAM request they
    /// formed (the run of LLC hits ending in the miss that became the
    /// request) and counted when that request *completes* inside the
    /// measured window — the same completion-side boundary that gates
    /// [`RunMetrics::oram_requests`] and [`RunMetrics::latencies`]. Accesses
    /// pulled for requests still in flight when the window closes are not
    /// counted, keeping `workload_accesses` consistent with the request
    /// count it is divided by.
    pub workload_accesses: u64,
    /// Dummy (background-eviction) requests completed in the measured window.
    pub dummy_requests: u64,
    /// Controller/DRAM cycles spent in the measured window.
    pub cycles: u64,
    /// Per-request ORAM response latencies (cycles), measured window only.
    pub latencies: Vec<u64>,
    /// `(block had been written before, latency)` pairs for the
    /// mutual-information analysis of Fig. 9.
    pub behaviour_latency: Vec<(bool, u64)>,
    /// Data-level stash occupancy samples over the measured window,
    /// as `(progress in [0,1], occupancy)`.
    pub stash_samples: Vec<(f64, usize)>,
    /// Highest stash occupancy observed anywhere in the hierarchy.
    pub stash_high_water: usize,
    /// DRAM statistics accumulated over the measured window.
    pub dram: DramStats,
    /// ORAM-sync stall cycles per sub-ORAM level over the measured window.
    pub sync_stall_by_level: [u64; 3],
    /// Total sync stall cycles over the measured window.
    pub sync_stall_cycles: u64,
    /// LLC hit rate over the whole run (prefetch effectiveness).
    pub llc_hit_rate: f64,
    /// Prefetch length the scheme ran with (1 = no prefetching).
    pub prefetch_length: u32,
    /// Real ORAM requests submitted while the measured window was open —
    /// the offered load over the window (requests straddling either window
    /// edge make this differ from [`RunMetrics::oram_requests`] in both
    /// directions).
    pub submitted_requests: u64,
    /// Per-tenant attribution of the measured window, indexed by tenant id
    /// (length = the spec's tenant count; single-tenant specs have exactly
    /// one entry). Empty when [`SystemConfig::collect_per_tenant`] is off.
    /// Conservation holds by construction: per-tenant `submitted`,
    /// `completed`, `workload_accesses` and latency totals each sum to the
    /// corresponding aggregate ([`RunMetrics::tenant_conservation_ok`]).
    pub per_tenant: Vec<TenantMetrics>,
    /// Open-loop arrivals whose admission was resolved (admitted or
    /// dropped) in the measured window — the *offered* load. 0 for
    /// closed-loop runs.
    pub arrivals: u64,
    /// Open-loop arrivals dropped by the admission policy in the measured
    /// window (never exceeds [`RunMetrics::arrivals`]). 0 for closed-loop
    /// runs and under the `block` policy.
    pub dropped_arrivals: u64,
    /// Per-request admission-queue waits in cycles (arrival to controller
    /// submission), aligned index-for-index with
    /// [`RunMetrics::latencies`]: `queue_waits[i] + latencies[i]` is
    /// request `i`'s end-to-end latency, exactly. Empty for closed-loop
    /// runs.
    pub queue_waits: Vec<u64>,
    /// Per-shard attribution of a sharded run, indexed by shard id in
    /// strict shard order (empty for single-system runs). Count sums
    /// reproduce the aggregates and `cycles`/`stash_high_water` are maxima
    /// ([`RunMetrics::shard_conservation_ok`]).
    pub per_shard: Vec<ShardMetrics>,
    /// Name of the hardware profile the run executed on (from
    /// [`SystemConfig::hardware`]; "ddr4-3200" for the default).
    pub hardware: String,
    /// Energy coefficients of that profile, carried so energy is
    /// derivable from the DRAM counters without re-resolving the profile.
    pub energy: EnergyCoefficients,
    /// The DRAM organisation the run executed on (its bank count feeds
    /// the background-energy term).
    pub dram_config: DramConfig,
}

impl RunMetrics {
    /// All-zero metrics of a run of `scheme` on `workload`, labelled with
    /// its prefetch length and `config`'s hardware; the runner and the
    /// shard merge fill in the rest.
    pub(crate) fn empty(
        scheme: Scheme,
        workload: WorkloadSpec,
        prefetch_length: u32,
        config: &SystemConfig,
    ) -> Self {
        RunMetrics {
            scheme,
            workload,
            oram_requests: 0,
            workload_accesses: 0,
            dummy_requests: 0,
            cycles: 0,
            latencies: Vec::new(),
            behaviour_latency: Vec::new(),
            stash_samples: Vec::new(),
            stash_high_water: 0,
            dram: DramStats::default(),
            sync_stall_by_level: [0; 3],
            sync_stall_cycles: 0,
            llc_hit_rate: 0.0,
            prefetch_length,
            submitted_requests: 0,
            per_tenant: Vec::new(),
            arrivals: 0,
            dropped_arrivals: 0,
            queue_waits: Vec::new(),
            per_shard: Vec::new(),
            hardware: config.hardware.clone(),
            energy: config.energy,
            dram_config: config.dram,
        }
    }

    /// Measured LLC-miss (ORAM-request) throughput in requests per second.
    pub fn requests_per_second(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.oram_requests as f64 / (self.cycles as f64 / CLOCK_HZ)
    }

    /// Measured ORAM requests per cycle (controller service rate).
    pub fn requests_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.oram_requests as f64 / self.cycles as f64
    }

    /// Measured workload accesses per cycle — the end-to-end performance
    /// metric the Fig. 10 / Fig. 13 speedups are computed from (equivalent
    /// to normalised application progress per unit time).
    pub fn accesses_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.workload_accesses as f64 / self.cycles as f64
    }

    /// Mean ORAM response latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
    }

    /// Fraction of completed requests that were dummies.
    pub fn dummy_fraction(&self) -> f64 {
        let total = self.oram_requests + self.dummy_requests;
        if total == 0 {
            return 0.0;
        }
        self.dummy_requests as f64 / total as f64
    }

    /// Tenant `i`'s share of the DRAM bursts issued for completed real
    /// requests in the window (0 when nothing was attributed or `i` is out
    /// of range) — the "who occupies the DRAM" answer behind per-tenant
    /// interference analysis.
    pub fn tenant_dram_share(&self, i: usize) -> f64 {
        let total: u64 = self.per_tenant.iter().map(|t| t.dram_ops).sum();
        if total == 0 {
            return 0.0;
        }
        self.per_tenant
            .get(i)
            .map_or(0.0, |t| t.dram_ops as f64 / total as f64)
    }

    /// Memory energy of the measured window, decomposed by source —
    /// derived on demand from the DRAM counters and the profile's
    /// coefficients, so the determinism contract stays purely integral.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        memory_energy(&self.energy, &self.dram_config, &self.dram)
    }

    /// Total memory energy of the measured window, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_breakdown().total_j()
    }

    /// Memory energy per DRAM access (64-byte burst), joules; 0 when the
    /// window performed no accesses.
    pub fn energy_per_access_j(&self) -> f64 {
        self.energy_breakdown()
            .per_access_j(self.dram.total_accesses())
    }

    /// Tenant `i`'s share of the window's memory energy in joules,
    /// attributed proportionally to its [`TenantMetrics::dram_ops`] count
    /// ([`RunMetrics::tenant_dram_share`]) — the per-tenant bill next to
    /// the per-tenant p99.
    pub fn tenant_energy_j(&self, i: usize) -> f64 {
        self.tenant_dram_share(i) * self.energy_j()
    }

    /// Checks the per-tenant conservation invariant: when per-tenant
    /// attribution ran, the per-tenant `submitted`/`completed`/
    /// `workload_accesses`/latency and queue-wait sums/histogram counts
    /// must sum exactly to the aggregates. Trivially `true` when
    /// attribution was off.
    pub fn tenant_conservation_ok(&self) -> bool {
        if self.per_tenant.is_empty() {
            return true;
        }
        let sum = |f: fn(&TenantMetrics) -> u64| -> u64 { self.per_tenant.iter().map(f).sum() };
        sum(|t| t.completed) == self.oram_requests
            && sum(|t| t.submitted) == self.submitted_requests
            && sum(|t| t.workload_accesses) == self.workload_accesses
            && sum(|t| t.latency.sum()) == self.latencies.iter().sum::<u64>()
            && sum(|t| t.latency.count()) == self.latencies.len() as u64
            && sum(|t| t.queue_wait.sum()) == self.queue_waits.iter().sum::<u64>()
            && sum(|t| t.queue_wait.count()) == self.queue_waits.len() as u64
            && self
                .per_tenant
                .iter()
                .enumerate()
                .all(|(i, t)| t.tenant as usize == i && t.latency.count() == t.completed)
    }

    /// Checks the per-shard conservation invariant of a merged sharded
    /// run: count-like fields sum exactly to the aggregates, the aggregate
    /// `cycles` is the shard makespan (max), `stash_high_water` is the max,
    /// the shard latency histograms account for every recorded latency, and
    /// shard ids are dense in order. Trivially `true` for single-system
    /// runs (no per-shard attribution).
    pub fn shard_conservation_ok(&self) -> bool {
        if self.per_shard.is_empty() {
            return true;
        }
        let sum = |f: fn(&ShardMetrics) -> u64| -> u64 { self.per_shard.iter().map(f).sum() };
        sum(|s| s.oram_requests) == self.oram_requests
            && sum(|s| s.workload_accesses) == self.workload_accesses
            && sum(|s| s.dummy_requests) == self.dummy_requests
            && sum(|s| s.submitted_requests) == self.submitted_requests
            && sum(|s| s.arrivals) == self.arrivals
            && sum(|s| s.dropped_arrivals) == self.dropped_arrivals
            && sum(|s| s.latency.sum()) == self.latencies.iter().sum::<u64>()
            && sum(|s| s.latency.count()) == self.latencies.len() as u64
            && self.per_shard.iter().map(|s| s.cycles).max() == Some(self.cycles)
            && self.per_shard.iter().map(|s| s.stash_high_water).max()
                == Some(self.stash_high_water)
            && self
                .per_shard
                .iter()
                .enumerate()
                .all(|(i, s)| s.shard as usize == i && s.latency.count() == s.oram_requests)
    }

    /// Fraction of measured-window arrivals the admission policy dropped
    /// (0 for closed-loop runs and empty windows).
    pub fn drop_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        self.dropped_arrivals as f64 / self.arrivals as f64
    }

    /// Mean admission-queue wait in cycles over the measured window (0 for
    /// closed-loop runs).
    pub fn mean_queue_wait(&self) -> f64 {
        if self.queue_waits.is_empty() {
            return 0.0;
        }
        self.queue_waits.iter().sum::<u64>() as f64 / self.queue_waits.len() as f64
    }

    /// Per-request end-to-end latencies (queue wait + ORAM service) in
    /// cycles. For closed-loop runs, where requests have no queue wait,
    /// this is just [`RunMetrics::latencies`].
    pub fn end_to_end_latencies(&self) -> Vec<u64> {
        if self.queue_waits.is_empty() {
            return self.latencies.clone();
        }
        self.latencies
            .iter()
            .zip(&self.queue_waits)
            .map(|(&service, &wait)| service + wait)
            .collect()
    }

    /// Offered load in requests per kilocycle — the long-run mean rate of
    /// the workload spec's arrival processes. `None` for closed-loop runs
    /// (a closed loop offers no rate; it saturates the pipeline).
    pub fn offered_rate_per_kcycle(&self) -> Option<f64> {
        self.workload
            .open_loop()
            .map(palermo_workloads::OpenLoopSpec::offered_rate_per_kcycle)
    }

    /// Achieved throughput in completed requests per kilocycle over the
    /// measured window. Under overload this plateaus below the offered
    /// rate — the saturation knee `figures::load_curve` plots.
    pub fn achieved_rate_per_kcycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.oram_requests as f64 * 1000.0 / self.cycles as f64
    }

    /// Checks the arrival-accounting invariants. Closed-loop runs must
    /// carry no arrival state at all; open-loop runs must have drops
    /// bounded by arrivals, exactly one queue wait per recorded latency,
    /// and per-tenant drop attribution bounded by the aggregate.
    pub fn arrival_conservation_ok(&self) -> bool {
        if self.workload.open_loop().is_none() {
            return self.arrivals == 0 && self.dropped_arrivals == 0 && self.queue_waits.is_empty();
        }
        self.dropped_arrivals <= self.arrivals
            && self.queue_waits.len() == self.latencies.len()
            && self.per_tenant.iter().map(|t| t.dropped).sum::<u64>() <= self.dropped_arrivals
    }
}

/// Per-request bookkeeping carried from submission to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlightEntry {
    request_id: u64,
    /// Whether the block had been written before (Fig. 9 behaviour bit).
    found: bool,
    /// Whether this is a controller-injected background eviction.
    is_dummy: bool,
    /// Workload accesses (LLC hits plus the final miss) consumed to form
    /// this request; attributed to the measured window at completion.
    accesses: u64,
    /// Tenant the request belongs to (the tenant of the missing access;
    /// meaningless for dummies).
    tenant: u32,
    /// Open-loop arrival cycle of the request (`None` for closed-loop
    /// requests and dummies). The queue wait is
    /// `FinishedRequest::submitted_at - arrived_at`, so queue wait plus
    /// service latency is the end-to-end latency exactly.
    arrived_at: Option<u64>,
}

/// Bookkeeping for the requests currently in flight, keyed by request id.
///
/// The number of outstanding requests is bounded by the PE-column count
/// plus the one staged plan, so a linear scan over a tiny vector beats
/// hashing on the simulation hot path (every completed request used to pay
/// a `HashMap` insert + remove).
#[derive(Debug, Default)]
struct InFlightTable {
    entries: Vec<InFlightEntry>,
}

impl InFlightTable {
    fn insert(
        &mut self,
        request_id: u64,
        found: bool,
        is_dummy: bool,
        accesses: u64,
        tenant: u32,
        arrived_at: Option<u64>,
    ) {
        self.entries.push(InFlightEntry {
            request_id,
            found,
            is_dummy,
            accesses,
            tenant,
            arrived_at,
        });
    }

    fn remove(&mut self, request_id: u64) -> Option<InFlightEntry> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.request_id == request_id)?;
        Some(self.entries.swap_remove(pos))
    }
}

/// Clock-advance strategy for the simulation loop.
///
/// Every iteration of the simulation loop ([`run_workload_spec_stepped`])
/// performs one reference step (stage/submit, controller tick, DRAM tick,
/// drain completions) and then hands the stepper a chance to advance the
/// clock past provably-idle cycles. [`CalendarStepper`] (the default) must
/// produce [`RunMetrics`] byte-identical to the per-cycle
/// [`ReferenceStepper`]; `tests/stepper_equivalence.rs` enforces this over
/// the full scheme × workload grid.
///
/// `Sync` is a supertrait so one `&dyn Stepper` can drive every shard of a
/// sharded run across `std::thread::scope` threads — steppers are stateless
/// strategies (both implementations are zero-sized), so this costs nothing.
pub trait Stepper: Sync {
    /// Possibly advance time after one reference iteration. `quiescent` is
    /// `true` only when the controller tick settled (no retire, issue pass
    /// fully drained) and the runner will not stage a new plan next
    /// iteration. The DRAM tick may have produced completions or freed queue
    /// space: the stepper asks the controller whether it would react to
    /// them ([`OramController::absorb_completions`],
    /// [`OramController::retry_would_issue`]) before it skips anything. A
    /// caller may pass `false` in more cases than these; the stepper then
    /// skips less, and the metrics do not change.
    ///
    /// `external_next` is the earliest cycle at which a runner-level event
    /// outside the two clock models can change the system — today, the next
    /// open-loop arrival. A skip must never jump past it: an arrival can
    /// make an idle pipeline stage a request, and landing late would shift
    /// the submission (and every metric downstream of it) relative to the
    /// per-cycle reference loop. `None` for closed-loop runs.
    fn advance_idle(
        &self,
        controller: &mut OramController,
        dram: &mut DramSystem,
        quiescent: bool,
        external_next: Option<u64>,
    );
}

/// The seed per-cycle stepper: never skips, ticking every 1.6 GHz cycle.
/// Kept as the oracle [`CalendarStepper`] is checked against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceStepper;

impl Stepper for ReferenceStepper {
    fn advance_idle(
        &self,
        _controller: &mut OramController,
        _dram: &mut DramSystem,
        _quiescent: bool,
        _external_next: Option<u64>,
    ) {
    }
}

/// The settled-window stepper, and the default: after a quiescent
/// iteration it skips the clock past provably-idle cycles and bulk-accounts
/// them exactly as if they had been ticked. While DRAM traffic is still
/// draining it does not hand control back after a single jump: it keeps
/// executing DRAM event ticks *inside* `advance_idle`, replaying the
/// controller's per-cycle accounting in bulk between them. The name is for
/// the calendar of next events it steps through: the DRAM system's
/// per-channel predictions, the controller's countdown wakeup and the next
/// arrival.
///
/// A window ends at the first of:
///
/// - a DRAM completion the controller cannot absorb: the last outstanding
///   read of a plan node ([`OramController::absorb_completions`]);
/// - a freed queue slot a turned-away operation would now take
///   ([`OramController::retry_would_issue`]);
/// - the controller's countdown wakeup or the next open-loop arrival;
/// - an idle DRAM system.
///
/// Correctness rests on the window's freeze argument: with the controller
/// settled and nothing to stage, every controller readiness predicate
/// (dependency counts, predecessor gating, retirement, submission
/// capacity) is a pure function of state that only those events change.
/// Every other DRAM event leaves the controller's next tick inert: a
/// posted-write completion is skipped by its routing step, a read that
/// leaves reads of its node outstanding only decrements a count nothing
/// else reads, and a command that frees no slot a turned-away operation
/// needs makes its retries fail again. The reference loop would have run
/// one inert controller tick per cycle — exactly what
/// [`OramController::skip_cycles_window`] replays, with the stall cycles
/// counted per segment between interior DRAM ticks so the stall-accounting
/// rule always sees the queue depth the reference controller tick would
/// have seen.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalendarStepper;

impl Stepper for CalendarStepper {
    fn advance_idle(
        &self,
        controller: &mut OramController,
        dram: &mut DramSystem,
        quiescent: bool,
        external_next: Option<u64>,
    ) {
        if !quiescent {
            return;
        }
        // Events the controller must run a real tick for, as one absolute
        // bound. The wakeup stays valid across the whole window: skipped
        // cycles decrement every countdown in lock step, so the expiry
        // cycle is invariant.
        let wakeup = controller
            .next_wakeup(dram.cycle())
            .unwrap_or(u64::MAX)
            .min(external_next.unwrap_or(u64::MAX));
        // Controller-side accounting for the whole window folds into two
        // counters: total quiet cycles, and the subset with a DRAM queue
        // depth below the stall threshold (the only per-segment input the
        // stall rule reads — everything else is frozen). One
        // [`OramController::skip_cycles_window`] call flushes them, so the
        // countdown lists are walked once per window instead of once per
        // interior DRAM command.
        let mut total = 0u64;
        let mut stalled = 0u64;
        // Each pass starts right after a DRAM tick: the main loop's, then
        // each event tick below.
        while controller.absorb_completions(dram) && !controller.retry_would_issue(dram) {
            let now = dram.cycle();
            let dram_next = dram.next_event_cycle().unwrap_or(u64::MAX);
            if dram_next >= wakeup {
                // The controller acts first (or simultaneously: the
                // reference loop runs the controller tick before the DRAM
                // tick of the same cycle), or DRAM is idle and the next
                // iteration stages work or ends the run. Stop at the bound.
                if wakeup != u64::MAX && wakeup > now {
                    let seg = wakeup - now;
                    total += seg;
                    stalled += stalled_part(dram, seg);
                    dram.skip_cycles(seg);
                }
                break;
            }
            // The DRAM acts strictly before anything the controller reacts
            // to: account the inert controller cycles through the event
            // (the queue depth is frozen until the tick below), then
            // execute the one DRAM tick the reference loop would have.
            let seg = dram_next - now + 1;
            total += seg;
            stalled += stalled_part(dram, seg);
            let result = dram.skip_to_and_tick(dram_next);
            debug_assert!(result.any(), "DRAM event tick at {dram_next} did nothing");
        }
        controller.skip_cycles_window(total, stalled);
    }
}

/// How many of `seg` inert controller cycles count as ORAM-sync stalls at
/// the DRAM's current queue depth, which stays frozen through the segment.
fn stalled_part(dram: &DramSystem, seg: u64) -> u64 {
    if dram.queued() < SYNC_STALL_QUEUE_DEPTH {
        seg
    } else {
        0
    }
}

fn dram_delta(end: &DramStats, start: &DramStats) -> DramStats {
    DramStats {
        cycles: end.cycles - start.cycles,
        reads: end.reads - start.reads,
        writes: end.writes - start.writes,
        row_hits: end.row_hits - start.row_hits,
        row_misses: end.row_misses - start.row_misses,
        row_conflicts: end.row_conflicts - start.row_conflicts,
        data_bus_busy_cycles: end.data_bus_busy_cycles - start.data_bus_busy_cycles,
        queue_occupancy_sum: end.queue_occupancy_sum - start.queue_occupancy_sum,
        read_latency_sum: end.read_latency_sum - start.read_latency_sum,
        channels: end.channels,
    }
}

/// Simulates one (scheme, workload spec) pair under the given
/// configuration with the default [`CalendarStepper`]. The spec may be a
/// Table II workload, a trace-file replay, a multi-tenant mix, an
/// open-loop serving spec or a sharded spec.
///
/// # Errors
///
/// Propagates protocol-configuration errors and workload-spec build errors
/// (e.g. a missing or malformed trace file).
pub fn run_workload_spec(
    scheme: Scheme,
    spec: &WorkloadSpec,
    config: &SystemConfig,
) -> OramResult<RunMetrics> {
    run_workload_spec_stepped(scheme, spec, config, &CalendarStepper)
}

/// [`run_workload_spec`] with an explicit clock-advance strategy; passing
/// [`ReferenceStepper`] reproduces the seed per-cycle loop for equivalence
/// checking. Prefetch-capable schemes resolve their prefetch length from
/// the spec ([`WorkloadSpec::default_prefetch_length`]) unless
/// [`SystemConfig::prefetch_override`] is set.
///
/// # Errors
///
/// Propagates protocol-configuration and workload-spec build errors.
pub fn run_workload_spec_stepped(
    scheme: Scheme,
    spec: &WorkloadSpec,
    config: &SystemConfig,
    stepper: &dyn Stepper,
) -> OramResult<RunMetrics> {
    // Sharded specs run as K independent systems with deterministically
    // merged metrics. Serial shard stepping is the default here so nesting
    // (a `ThreadPoolExecutor` running many sharded runs) never
    // oversubscribes cores — `crate::shard::PooledShardStepper` is proven
    // byte-identical, so this is purely a scheduling choice.
    if spec.sharded().is_some() {
        let system = crate::shard::ShardedSystem::new(scheme, spec, config)?;
        return crate::shard::ShardStepper::run(
            &crate::shard::SerialShardStepper,
            &system,
            stepper,
        );
    }
    let protocol =
        CustomProtocol::of_scheme(scheme, config, prefetch_length(scheme, spec, config))?;
    run_protocol(scheme, protocol, spec, config, stepper)
}

/// The prefetch length `scheme` runs `spec` with: the configured override,
/// else the spec's default, for prefetch-capable schemes; 1 otherwise.
pub(crate) fn prefetch_length(scheme: Scheme, spec: &WorkloadSpec, config: &SystemConfig) -> u32 {
    if scheme.uses_prefetch() {
        config
            .prefetch_override
            .unwrap_or_else(|| spec.default_prefetch_length())
            .max(1)
    } else {
        1
    }
}

/// Simulates one unsharded spec under an explicit protocol/controller
/// configuration — the lowering shared by the standard scheme wiring above
/// and by [`RunSpec::execute`](crate::experiment::RunSpec::execute) for
/// custom protocols outside the [`Scheme`] set (e.g. PrORAM without the fat
/// tree for Fig. 4). `scheme` only labels the returned metrics.
///
/// # Errors
///
/// Propagates protocol-configuration and workload-spec build errors.
/// Rejects sharded specs: an explicit protocol configuration describes one
/// system, and a sharded run derives one configuration per shard.
pub(crate) fn run_protocol(
    scheme: Scheme,
    protocol: CustomProtocol,
    spec: &WorkloadSpec,
    config: &SystemConfig,
    stepper: &dyn Stepper,
) -> OramResult<RunMetrics> {
    if spec.sharded().is_some() {
        return Err(OramError::InvalidParams {
            reason: format!(
                "sharded spec '{spec}' cannot run under one explicit protocol \
configuration; use run_workload_spec, which derives a configuration per shard"
            ),
        });
    }
    let mut stream = spec.build(config.stream_footprint_hint(), config.stream_seed())?;
    run_core(
        scheme,
        protocol,
        spec,
        spec.open_loop(),
        stream.as_mut(),
        config,
        stepper,
    )
}

/// The simulation loop proper, over an already-built access stream.
///
/// This is the seam the sharded system drives each shard through:
/// `label_spec` only labels the returned metrics (every shard of a sharded
/// run carries the full sharded spec), `open` supplies the (per-shard
/// rate-scaled) serving description explicitly instead of deriving it from
/// the label, and the stream is whatever view the caller built — the whole
/// workload, or one shard's filtered slice of it.
///
/// # Errors
///
/// Propagates protocol-configuration errors, rejects an invalid DRAM or LLC
/// configuration and a controller with no PE column, rejects an open-loop
/// run whose admission queue has capacity 0 or whose arrivals all lie
/// beyond the 64-bit cycle clock, rejects non-Table II streams whose footprint
/// overruns the protected space, and returns [`OramError::Deadlock`] for a
/// run that can never finish.
#[allow(clippy::too_many_lines, reason = "the stepping order is one loop")]
pub(crate) fn run_core(
    scheme: Scheme,
    protocol: CustomProtocol,
    label_spec: &WorkloadSpec,
    open: Option<&OpenLoopSpec>,
    stream: &mut dyn AccessStream,
    config: &SystemConfig,
    stepper: &dyn Stepper,
) -> OramResult<RunMetrics> {
    config
        .dram
        .validate()
        .map_err(|e| OramError::InvalidParams {
            reason: format!("invalid DRAM configuration: {e}"),
        })?;
    config
        .llc
        .validate()
        .map_err(|e| OramError::InvalidParams {
            reason: format!("invalid LLC configuration: {e}"),
        })?;
    if protocol.controller.pe_columns == 0 {
        return Err(OramError::InvalidParams {
            reason: format!("pe_columns must be at least 1 for {scheme}'s controller"),
        });
    }
    if open.is_some() && config.serving_queue_capacity == 0 {
        return Err(OramError::InvalidParams {
            reason: "serving_queue_capacity must be at least 1 for an open-loop run".into(),
        });
    }
    let prefetch_length = protocol.prefetch_length;
    let mut oram = HierarchicalOram::new(protocol.hierarchy)?;
    let mut controller = OramController::new(protocol.controller);
    let mut dram = DramSystem::new(config.dram);
    let mut llc = Llc::new(config.llc);

    // Table II generators scale themselves to the footprint hint, but the
    // data-driven specs cannot: a replay's footprint is whatever the trace
    // recorded, and a mix's is the sum of its tenants. If such a stream
    // overruns the protected space the modulo below would silently wrap it,
    // aliasing tenant partitions / destroying the trace's locality while
    // reporting metrics as if it ran faithfully — reject instead.
    if !matches!(label_spec, WorkloadSpec::Table2(_)) {
        let footprint = stream.footprint_bytes();
        if footprint > config.protected_bytes {
            return Err(OramError::InvalidParams {
                reason: format!(
                    "workload spec '{label_spec}' needs a {footprint}-byte footprint but only \
{} bytes are protected; addresses would wrap and alias (shrink the trace/mix \
or raise protected_bytes)",
                    config.protected_bytes
                ),
            });
        }
    }

    let protected_lines = config.protected_bytes / BLOCK_BYTES;
    let total_requests = config.total_requests();
    let warmup = config.warmup_requests;
    // Single-tenant streams tag everything as tenant 0 by contract, so the
    // hot loop only pays the tagged pull (an extra dyn dispatch per access)
    // when there is more than one tenant to tell apart.
    let pull_tags = config.collect_per_tenant && stream.tenant_count() > 1;

    // Open-loop specs get a serving engine: arrivals land on the simulated
    // clock and requests stage only when an admitted arrival is waiting.
    // Closed-loop specs (`serving == None`) stage greedily, exactly as
    // before.
    let mut serving = open.map(|o| {
        ServingEngine::new(
            o,
            config.serving_queue_capacity,
            config.admission_policy,
            config.seed,
        )
    });
    let mut serving_at_start = serving.as_ref().map(|e| e.counters().clone());

    let mut in_flight = InFlightTable::default();

    let mut submitted: u64 = 0;
    let mut finished_real: u64 = 0;
    let mut pending_plan = None;

    // With no warm-up the measured window opens at cycle 0, before any
    // completion: waiting for the first completion (the old behaviour) left
    // every counter at zero because `finished_real == warmup` can never hold
    // once a real request has already retired.
    let mut measuring = warmup == 0;
    let mut measure_start_cycle = 0u64;
    let mut dram_at_start = dram.stats();
    let mut ctrl_at_start = *controller.stats();

    let mut metrics = RunMetrics::empty(scheme, label_spec.clone(), prefetch_length, config);
    if config.collect_per_tenant {
        metrics.per_tenant = (0..stream.tenant_count())
            .map(|i| TenantMetrics::new(i as u32))
            .collect();
    }

    let sample_every = (config.measured_requests / 100).max(1);

    while finished_real < total_requests {
        // Deliver every open-loop arrival up to the current cycle into the
        // admission queue (a no-op for closed-loop runs).
        let arrivals_advanced_to = dram.cycle();
        if let Some(engine) = serving.as_mut() {
            engine.advance(arrivals_advanced_to);
        }

        // Generate the next ORAM request if the pipeline has room for one.
        if pending_plan.is_none() && submitted < total_requests + config.measured_requests {
            if oram.needs_background_evict() {
                let result = oram.background_evict();
                in_flight.insert(result.plan.request_id, false, true, 0, 0, None);
                pending_plan = Some(result.plan);
            } else if submitted < total_requests {
                // Closed loop stages unconditionally; open loop only when an
                // admitted arrival is waiting in the queue.
                let arrival = match serving.as_mut() {
                    None => Some(None),
                    Some(engine) => engine.pop_ready().map(Some),
                };
                if let Some(arrival) = arrival {
                    // When the spec routes one arrival process per tenant,
                    // the arrival decides whose stream forms the request;
                    // otherwise the stream keeps its own tenant selection.
                    let route = arrival.and_then(|a: crate::serving::Arrival| {
                        serving
                            .as_ref()
                            .is_some_and(ServingEngine::routes_per_tenant)
                            .then_some(a.tenant)
                    });
                    // Pull workload accesses through the LLC until one
                    // misses. An all-hits workload cannot form an ORAM
                    // request, so it would wedge this loop forever; fail
                    // loudly instead. The request belongs to the tenant of
                    // the missing access.
                    let mut accesses_for_request = 0u64;
                    let mut guard = 0u64;
                    let (pa, op, tenant) = loop {
                        let (entry, tenant) = if let Some(t) = route {
                            let tagged = stream.next_tagged_for(t);
                            (tagged.entry, tagged.tenant)
                        } else if pull_tags {
                            let tagged = stream.next_tagged();
                            (tagged.entry, tagged.tenant)
                        } else {
                            (stream.next_access(), 0)
                        };
                        accesses_for_request += 1;
                        let pa = PhysAddr::new(entry.addr.0 % (protected_lines * BLOCK_BYTES));
                        if !llc.access(pa) {
                            break (pa, entry.op, tenant);
                        }
                        guard += 1;
                        if guard > 1_000_000 {
                            return Err(OramError::WorkloadStalled {
                                accesses_scanned: guard,
                            });
                        }
                    };
                    let payload = (op == OramOp::Write).then(|| Payload::from_u64(pa.0));
                    let result = oram.access(pa, op, payload)?;
                    for line in &result.prefetched {
                        llc.fill_line(line.0);
                    }
                    in_flight.insert(
                        result.plan.request_id,
                        result.found,
                        false,
                        accesses_for_request,
                        tenant,
                        arrival.map(|a| a.arrived_at),
                    );
                    pending_plan = Some(result.plan);
                    submitted += 1;
                    if measuring {
                        metrics.submitted_requests += 1;
                        if let Some(tm) = metrics.per_tenant.get_mut(tenant as usize) {
                            tm.submitted += 1;
                        }
                    }
                }
            }
        }

        // Hand the plan to the controller as soon as a PE column frees up.
        if let Some(plan) = pending_plan.take() {
            if let Err(plan) = controller.try_submit(plan, dram.cycle()) {
                pending_plan = Some(plan);
            }
        }

        let ctrl_activity = controller.tick(&mut dram);
        let dram_activity = dram.tick();

        for finished in controller.drain_finished() {
            // A completion for an id the runner never submitted means the
            // controller's bookkeeping is corrupt; surfacing it as dummy
            // traffic (the old fallback) would mask the bug.
            let entry = match in_flight.remove(finished.request_id) {
                Some(entry) => entry,
                None => {
                    debug_assert!(
                        false,
                        "controller retired unknown request id {} — \
                         in-flight table out of sync",
                        finished.request_id
                    );
                    InFlightEntry {
                        request_id: finished.request_id,
                        found: false,
                        is_dummy: finished.is_dummy,
                        accesses: 0,
                        tenant: 0,
                        arrived_at: None,
                    }
                }
            };
            if !entry.is_dummy {
                finished_real += 1;
            }
            if finished_real == warmup && !measuring {
                measuring = true;
                measure_start_cycle = dram.cycle();
                dram_at_start = dram.stats();
                ctrl_at_start = *controller.stats();
                if let Some(engine) = serving.as_mut() {
                    // Bring arrival accounting up to the window-open cycle
                    // (identical across steppers: the warm-up completion
                    // pins this cycle) before snapshotting.
                    engine.advance(dram.cycle());
                    serving_at_start = Some(engine.counters().clone());
                }
            }
            if measuring && finished_real > warmup {
                if entry.is_dummy {
                    metrics.dummy_requests += 1;
                } else {
                    metrics.oram_requests += 1;
                    metrics.workload_accesses += entry.accesses;
                    metrics.latencies.push(finished.latency());
                    let queue_wait = entry
                        .arrived_at
                        .map(|at| finished.submitted_at.saturating_sub(at));
                    if let Some(wait) = queue_wait {
                        metrics.queue_waits.push(wait);
                    }
                    metrics
                        .behaviour_latency
                        .push((entry.found, finished.latency()));
                    if let Some(tm) = metrics.per_tenant.get_mut(entry.tenant as usize) {
                        tm.record_completion(
                            finished.latency(),
                            entry.accesses,
                            finished.dram_ops,
                            queue_wait,
                        );
                    } else {
                        debug_assert!(
                            metrics.per_tenant.is_empty(),
                            "request tagged with tenant {} but only {} tenants attributed",
                            entry.tenant,
                            metrics.per_tenant.len()
                        );
                    }
                    if metrics.oram_requests.is_multiple_of(sample_every) {
                        let progress =
                            metrics.oram_requests as f64 / config.measured_requests as f64;
                        metrics
                            .stash_samples
                            .push((progress, oram.data_stash_len()));
                    }
                }
            }
        }

        // Time skipping: after a settled controller tick, jump to the next
        // cycle at which the controller can react. Falls back to
        // single-stepping whenever a new plan is about to be staged (staging
        // is a zero-time runner-level event the clock models cannot
        // predict).
        let will_stage = pending_plan.is_none()
            && submitted < total_requests + config.measured_requests
            && (oram.needs_background_evict()
                || (submitted < total_requests
                    && serving.as_ref().is_none_or(|e| e.queue_len() > 0)));
        let quiescent = ctrl_activity.settled && !will_stage;
        // Pending arrivals bound the skip while the run still submits
        // (`arrivals_advanced_to` rather than the post-tick cycle, so an
        // arrival landing on the current cycle forces a single step). After
        // the last submission pops stop, so arrival bookkeeping becomes a
        // pure function of the final cycle and the tail can skip freely —
        // the post-loop `advance` settles it.
        let external_next = serving
            .as_ref()
            .filter(|_| submitted < total_requests)
            .and_then(|e| e.next_arrival_cycle(arrivals_advanced_to));
        // An empty queue and no arrival left on the clock would leave the
        // remaining requests unsubmitted forever.
        let stranded = external_next == Some(u64::MAX)
            && serving.as_ref().is_some_and(ServingEngine::exhausted);
        if stranded {
            return Err(OramError::InvalidParams {
                reason: format!(
                    "open-loop spec '{label_spec}' schedules no arrival within the 64-bit \
cycle clock, so its remaining requests could never be submitted"
                ),
            });
        }
        // An inert iteration retires nothing, so requests remain. If it also
        // leaves DRAM idle with nothing to stage, no countdown and no arrival
        // to stage (a staged plan waits for a retirement), it repeats for ever.
        if quiescent
            && !ctrl_activity.any()
            && !dram_activity.any()
            && dram.next_event_cycle().is_none()
            && (pending_plan.is_some() || external_next.is_none_or(|at| at == u64::MAX))
            && controller.next_wakeup(dram.cycle()).is_none()
        {
            return Err(OramError::Deadlock {
                cycle: dram.cycle(),
                requests: controller.unfinished_requests(),
                queue_depths: dram.queue_depths(),
            });
        }
        stepper.advance_idle(&mut controller, &mut dram, quiescent, external_next);
    }

    let dram_end = dram.stats();
    let ctrl_end = controller.stats();
    metrics.cycles = dram.cycle() - measure_start_cycle;
    metrics.dram = dram_delta(&dram_end, &dram_at_start);
    metrics.sync_stall_cycles = ctrl_end.sync_stall_cycles - ctrl_at_start.sync_stall_cycles;
    for i in 0..3 {
        metrics.sync_stall_by_level[i] =
            ctrl_end.sync_stall_by_level[i] - ctrl_at_start.sync_stall_by_level[i];
    }
    metrics.stash_high_water = oram.stash_high_water();
    metrics.llc_hit_rate = llc.hit_rate();
    if let Some(engine) = serving.as_mut() {
        // Settle arrival bookkeeping at the (stepper-identical) final cycle
        // and restrict the counters to the measured window by delta.
        engine.advance(dram.cycle());
        let end = engine.counters();
        let start = serving_at_start.unwrap_or_default();
        metrics.arrivals = end.arrivals - start.arrivals;
        metrics.dropped_arrivals = end.dropped - start.dropped;
        if engine.routes_per_tenant() {
            for tm in &mut metrics.per_tenant {
                let i = tm.tenant as usize;
                tm.dropped =
                    end.dropped_by_tenant[i] - start.dropped_by_tenant.get(i).copied().unwrap_or(0);
            }
        }
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use palermo_workloads::Workload;

    fn tiny() -> SystemConfig {
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 40;
        cfg.warmup_requests = 10;
        cfg
    }

    fn run(scheme: Scheme, workload: Workload, cfg: &SystemConfig) -> OramResult<RunMetrics> {
        run_workload_spec(scheme, &workload.into(), cfg)
    }

    #[test]
    fn palermo_run_produces_consistent_metrics() {
        let m = run(Scheme::Palermo, Workload::Random, &tiny()).unwrap();
        assert_eq!(m.oram_requests, 40);
        assert_eq!(m.latencies.len(), 40);
        assert!(m.cycles > 0);
        assert!(m.mean_latency() > 0.0);
        assert!(m.requests_per_cycle() > 0.0);
        assert!(m.dram.total_accesses() > 0);
        assert!(m.dram.bandwidth_utilization() > 0.0);
        assert!(m.stash_high_water <= 256);
        assert!(!m.stash_samples.is_empty());
    }

    #[test]
    fn palermo_beats_ring_on_random_traffic() {
        let cfg = tiny();
        let ring = run(Scheme::RingOram, Workload::Random, &cfg).unwrap();
        let palermo = run(Scheme::Palermo, Workload::Random, &cfg).unwrap();
        assert!(
            palermo.requests_per_cycle() > ring.requests_per_cycle(),
            "palermo {} vs ring {}",
            palermo.requests_per_cycle(),
            ring.requests_per_cycle()
        );
        assert!(
            palermo.dram.bandwidth_utilization() > ring.dram.bandwidth_utilization(),
            "palermo util {} vs ring util {}",
            palermo.dram.bandwidth_utilization(),
            ring.dram.bandwidth_utilization()
        );
    }

    #[test]
    fn ring_baseline_is_sync_dominated() {
        let m = run(Scheme::RingOram, Workload::Mcf, &tiny()).unwrap();
        assert!(
            m.sync_stall_cycles as f64 > 0.3 * m.cycles as f64,
            "sync stalls {} of {} cycles",
            m.sync_stall_cycles,
            m.cycles
        );
    }

    #[test]
    fn prefetch_scheme_hits_in_llc_on_streaming() {
        let mut cfg = tiny();
        cfg.prefetch_override = Some(8);
        let m = run(Scheme::PalermoPrefetch, Workload::Streaming, &cfg).unwrap();
        assert_eq!(m.prefetch_length, 8);
        assert!(m.llc_hit_rate > 0.5, "llc hit rate {}", m.llc_hit_rate);
    }

    #[test]
    fn dummy_requests_counted_for_proram() {
        let mut cfg = tiny();
        cfg.prefetch_override = Some(8);
        let m = run(Scheme::PrOram, Workload::Streaming, &cfg).unwrap();
        // PrORAM on a perfectly sequential trace with forced leaf grouping
        // must eventually trigger background evictions.
        assert!(m.dummy_fraction() >= 0.0); // counted (may be 0 for tiny runs)
        assert_eq!(m.oram_requests, 40);
    }

    #[test]
    fn all_hit_workload_returns_typed_stall_error() {
        // The whole streaming footprint fits in the LLC, so after the first
        // pass every access hits and no further ORAM request can be formed.
        let mut cfg = SystemConfig::small_for_tests();
        cfg.workload_footprint = 1 << 20;
        cfg.llc.capacity_bytes = 4 << 20;
        cfg.prefetch_override = Some(8);
        cfg.measured_requests = 2300; // more requests than the LLC can miss
        cfg.warmup_requests = 0;
        let err = run(Scheme::PalermoPrefetch, Workload::Streaming, &cfg).unwrap_err();
        assert!(
            matches!(err, OramError::WorkloadStalled { accesses_scanned } if accesses_scanned > 1_000_000),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn invalid_llc_geometry_is_a_typed_error() {
        // 3 MiB over 16 ways of 64-byte lines is 3,072 sets, not a power of
        // two; the LLC model would panic on it.
        let mut cfg = tiny();
        cfg.llc.capacity_bytes = 3 << 20;
        for name in ["random", "shard:2:hash:random"] {
            let spec = WorkloadSpec::from_name(name).expect("spec parses");
            let err = run_workload_spec(Scheme::Palermo, &spec, &cfg).unwrap_err();
            assert!(
                matches!(&err, OramError::InvalidParams { reason }
                    if reason.starts_with("invalid LLC configuration") && reason.contains("3072")),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn in_flight_table_handles_out_of_order_completion() {
        let entry = |request_id, found, is_dummy, accesses, tenant, arrived_at| InFlightEntry {
            request_id,
            found,
            is_dummy,
            accesses,
            tenant,
            arrived_at,
        };
        let mut table = InFlightTable::default();
        table.insert(1, true, false, 4, 0, None);
        table.insert(2, false, true, 0, 0, None);
        table.insert(3, false, false, 1, 2, Some(77));
        assert_eq!(table.remove(2), Some(entry(2, false, true, 0, 0, None)));
        assert_eq!(table.remove(2), None);
        assert_eq!(table.remove(1), Some(entry(1, true, false, 4, 0, None)));
        assert_eq!(
            table.remove(3),
            Some(entry(3, false, false, 1, 2, Some(77)))
        );
        assert_eq!(table.remove(4), None);
    }

    #[test]
    fn zero_warmup_opens_measured_window() {
        // Regression: with `warmup_requests = 0` the old loop only started
        // measuring if a dummy happened to complete before the first real
        // request, so metrics silently stayed empty.
        let mut cfg = SystemConfig::small_for_tests();
        cfg.measured_requests = 30;
        cfg.warmup_requests = 0;
        let m = run(Scheme::Palermo, Workload::Random, &cfg).unwrap();
        assert_eq!(m.oram_requests, cfg.measured_requests);
        assert_eq!(m.latencies.len(), cfg.measured_requests as usize);
        assert!(m.workload_accesses >= m.oram_requests);
        assert!(m.cycles > 0);
        assert!(m.dram.total_accesses() > 0);
    }

    #[test]
    fn single_tenant_run_attributes_everything_to_tenant_zero() {
        let m = run(Scheme::Palermo, Workload::Random, &tiny()).unwrap();
        assert_eq!(m.per_tenant.len(), 1);
        assert!(m.tenant_conservation_ok());
        let t = &m.per_tenant[0];
        assert_eq!(t.tenant, 0);
        assert_eq!(t.completed, m.oram_requests);
        assert_eq!(t.workload_accesses, m.workload_accesses);
        assert!(t.submitted > 0);
        assert_eq!(m.submitted_requests, t.submitted);
        assert_eq!(t.latency.sum(), m.latencies.iter().sum::<u64>());
        assert!((t.mean_latency() - m.mean_latency()).abs() < 1e-9);
        assert!(t.p50_latency() <= t.p95_latency() && t.p95_latency() <= t.p99_latency());
        assert!(t.dram_ops > 0);
        assert_eq!(m.tenant_dram_share(0), 1.0);
        assert_eq!(m.tenant_dram_share(1), 0.0);
    }

    #[test]
    fn disabling_attribution_changes_no_aggregate_metric() {
        let mut cfg = tiny();
        let tagged = run(Scheme::Palermo, Workload::Random, &cfg).unwrap();
        cfg.collect_per_tenant = false;
        let untagged = run(Scheme::Palermo, Workload::Random, &cfg).unwrap();
        assert!(untagged.per_tenant.is_empty());
        assert!(untagged.tenant_conservation_ok());
        // Everything except the per-tenant vector is byte-identical.
        let mut tagged_stripped = tagged.clone();
        tagged_stripped.per_tenant = Vec::new();
        assert_eq!(tagged_stripped, untagged);
    }

    #[test]
    fn open_loop_run_accounts_queue_waits_and_arrivals() {
        let spec = WorkloadSpec::from_name("open:poisson:0.02:random").unwrap();
        let m = run_workload_spec(Scheme::Palermo, &spec, &tiny()).unwrap();
        assert_eq!(m.oram_requests, 40);
        assert_eq!(m.queue_waits.len(), m.latencies.len());
        assert!(m.arrivals > 0);
        assert!(m.arrival_conservation_ok());
        assert!(m.tenant_conservation_ok());
        assert_eq!(m.offered_rate_per_kcycle(), Some(0.02));
        assert!(m.achieved_rate_per_kcycle() > 0.0);
        // Queue wait + service latency = end-to-end latency, per request.
        let e2e = m.end_to_end_latencies();
        for (i, &total) in e2e.iter().enumerate() {
            assert_eq!(total, m.queue_waits[i] + m.latencies[i]);
        }
    }

    #[test]
    fn closed_loop_run_carries_no_arrival_state() {
        let m = run(Scheme::Palermo, Workload::Random, &tiny()).unwrap();
        assert_eq!(m.arrivals, 0);
        assert_eq!(m.dropped_arrivals, 0);
        assert!(m.queue_waits.is_empty());
        assert!(m.arrival_conservation_ok());
        assert_eq!(m.end_to_end_latencies(), m.latencies);
    }

    #[test]
    fn metrics_empty_helpers_are_safe() {
        let m = RunMetrics::empty(
            Scheme::Palermo,
            WorkloadSpec::Table2(Workload::Random),
            1,
            &SystemConfig::paper_default(),
        );
        assert_eq!(m.requests_per_second(), 0.0);
        assert_eq!(m.mean_latency(), 0.0);
        assert_eq!(m.dummy_fraction(), 0.0);
        assert_eq!(m.tenant_dram_share(0), 0.0);
        assert_eq!(m.mean_queue_wait(), 0.0);
        assert_eq!(m.drop_fraction(), 0.0);
        assert_eq!(m.achieved_rate_per_kcycle(), 0.0);
        assert_eq!(m.offered_rate_per_kcycle(), None);
        assert!(m.end_to_end_latencies().is_empty());
        assert!(m.tenant_conservation_ok());
        assert!(m.arrival_conservation_ok());
    }
}
