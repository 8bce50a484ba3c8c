//! Open-loop serving: arrival processes and the bounded admission queue.
//!
//! Closed-loop runs pull the next access the instant an in-flight slot
//! frees, so the simulator always observes the system at exactly 100%
//! load. This module decouples *arrival* from *service*: a seeded
//! [`ArrivalProcess`] places request arrivals on the simulated clock, a
//! bounded queue holds them until the pipeline can take them, and a
//! pluggable [`AdmissionPolicy`] decides what happens when the queue is
//! full. The runner accounts the queue wait of every admitted request
//! separately from its service latency, which is what turns a run into a
//! point on a latency-vs-offered-load curve (`figures::load_curve`).
//!
//! Everything here lives on the *simulated* clock and draws randomness
//! from seeded [`OramRng`] streams expanded per process with
//! [`SplitMix64`], so the same [`OpenLoopSpec`] and seed reproduce the
//! same arrival times bit for bit — across runs, executors, and both
//! steppers (arrivals are never wall-clock events).

use palermo_oram::rng::{OramRng, SplitMix64};
use palermo_workloads::{ArrivalSpec, OpenLoopSpec};
use std::collections::{BTreeMap, VecDeque};

/// Decorrelates the arrival-process RNG streams from the protocol and
/// workload seeds derived from the same [`crate::system::SystemConfig`]
/// seed.
const ARRIVAL_SEED_SALT: u64 = 0xA881_4EA1_0C0F_FEE5;

/// One request arrival generated by an [`ArrivalProcess`], waiting in the
/// admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Simulated cycle at which the request arrived (queue-wait epoch).
    pub arrived_at: u64,
    /// Tenant the arrival is routed to. Meaningful only when the spec has
    /// one process per tenant; with a single aggregate process it is 0 and
    /// the inner stream's own tenant selection decides at pull time.
    pub tenant: u32,
}

/// A deterministic point process on the simulated clock.
///
/// Implementations are seeded state machines: given the cycle of the
/// previous arrival they return the gap (≥ 1 cycle) to the next one, so an
/// arrival sequence depends only on the spec and the seed — never on how
/// often or at which cycles the engine polls.
pub trait ArrivalProcess {
    /// Gap in cycles (≥ 1) between the arrival at `prev_arrival_cycle` and
    /// the next arrival.
    fn next_gap(&mut self, prev_arrival_cycle: u64) -> u64;
}

/// Draws an exponential variate with the given mean, rounded up to whole
/// cycles (never 0, so arrivals from one process are strictly ordered).
fn exp_cycles(rng: &mut OramRng, mean: f64) -> u64 {
    // `next_f64` is uniform in [0, 1); flip it into (0, 1] so ln is finite.
    let u = 1.0 - rng.next_f64();
    let gap = -u.ln() * mean;
    // The `as` cast saturates, so absurd means cannot overflow.
    gap.ceil().max(1.0) as u64
}

/// Memoryless arrivals at a fixed mean rate ([`ArrivalSpec::Poisson`]).
pub struct PoissonProcess {
    mean_gap_cycles: f64,
    rng: OramRng,
}

impl PoissonProcess {
    /// A Poisson process at `rate_per_kcycle` requests per kilocycle.
    pub fn new(rate_per_kcycle: f64, seed: u64) -> Self {
        PoissonProcess {
            mean_gap_cycles: 1000.0 / rate_per_kcycle,
            rng: OramRng::new(seed),
        }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_gap(&mut self, _prev_arrival_cycle: u64) -> u64 {
        exp_cycles(&mut self.rng, self.mean_gap_cycles)
    }
}

/// Markov-modulated on/off arrivals ([`ArrivalSpec::Bursty`]): Poisson at
/// the burst rate while ON, silent while OFF, with exponentially
/// distributed phase durations. Starts in an ON phase at cycle 0.
pub struct BurstyProcess {
    mean_gap_cycles: f64,
    mean_on_cycles: f64,
    mean_off_cycles: f64,
    /// Absolute cycle at which the current phase ends.
    phase_end: u64,
    in_on: bool,
    rng: OramRng,
}

impl BurstyProcess {
    /// A bursty process firing at `rate_per_kcycle` during ON phases.
    pub fn new(rate_per_kcycle: f64, mean_on_cycles: u64, mean_off_cycles: u64, seed: u64) -> Self {
        let mut rng = OramRng::new(seed);
        let mean_on = mean_on_cycles as f64;
        let first_on_end = exp_cycles(&mut rng, mean_on);
        BurstyProcess {
            mean_gap_cycles: 1000.0 / rate_per_kcycle,
            mean_on_cycles: mean_on,
            mean_off_cycles: mean_off_cycles as f64,
            phase_end: first_on_end,
            in_on: true,
            rng,
        }
    }
}

impl ArrivalProcess for BurstyProcess {
    fn next_gap(&mut self, prev_arrival_cycle: u64) -> u64 {
        let mut t = prev_arrival_cycle;
        loop {
            if self.in_on {
                // Memorylessness makes restarting the exponential at `t`
                // (last arrival or ON-phase start) exact.
                let cand = t.saturating_add(exp_cycles(&mut self.rng, self.mean_gap_cycles));
                if cand <= self.phase_end {
                    return cand - prev_arrival_cycle;
                }
                // No arrival fits in the ON phase; enter an OFF phase.
                t = self.phase_end;
                self.in_on = false;
                self.phase_end = t.saturating_add(exp_cycles(&mut self.rng, self.mean_off_cycles));
            } else {
                // Skip the silent OFF phase and start the next ON phase.
                t = self.phase_end;
                self.in_on = true;
                self.phase_end = t.saturating_add(exp_cycles(&mut self.rng, self.mean_on_cycles));
            }
        }
    }
}

/// Rate-curve arrivals ([`ArrivalSpec::Diurnal`]): a non-homogeneous
/// Poisson process whose rate follows a raised cosine between base and
/// peak, sampled by thinning against the peak rate.
pub struct DiurnalProcess {
    base_per_kcycle: f64,
    peak_per_kcycle: f64,
    period_cycles: u64,
    peak_mean_gap_cycles: f64,
    rng: OramRng,
}

impl DiurnalProcess {
    /// A diurnal process cycling between `base` and `peak` requests per
    /// kilocycle over `period_cycles`.
    pub fn new(base_per_kcycle: f64, peak_per_kcycle: f64, period_cycles: u64, seed: u64) -> Self {
        DiurnalProcess {
            base_per_kcycle,
            peak_per_kcycle,
            period_cycles,
            peak_mean_gap_cycles: 1000.0 / peak_per_kcycle,
            rng: OramRng::new(seed),
        }
    }

    /// The instantaneous rate at cycle `t`, requests per kilocycle. The
    /// curve starts at the base (trough) and crests mid-period.
    pub fn rate_at(&self, t: u64) -> f64 {
        let phase = (t % self.period_cycles) as f64 / self.period_cycles as f64;
        let swing = self.peak_per_kcycle - self.base_per_kcycle;
        self.base_per_kcycle + swing * 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos())
    }
}

impl ArrivalProcess for DiurnalProcess {
    fn next_gap(&mut self, prev_arrival_cycle: u64) -> u64 {
        // Thinning: candidate arrivals at the peak rate, each accepted with
        // probability rate(t)/peak. Terminates with probability 1 because
        // the curve is at the peak once per period.
        let mut t = prev_arrival_cycle;
        loop {
            t = t.saturating_add(exp_cycles(&mut self.rng, self.peak_mean_gap_cycles));
            let accept = 1.0 - self.rng.next_f64(); // (0, 1]
            if accept * self.peak_per_kcycle <= self.rate_at(t) {
                return t - prev_arrival_cycle;
            }
        }
    }
}

/// Builds the seeded process a spec describes.
pub fn build_process(spec: &ArrivalSpec, seed: u64) -> Box<dyn ArrivalProcess> {
    match *spec {
        ArrivalSpec::Poisson { rate_per_kcycle } => {
            Box::new(PoissonProcess::new(rate_per_kcycle, seed))
        }
        ArrivalSpec::Bursty {
            rate_per_kcycle,
            mean_on_cycles,
            mean_off_cycles,
        } => Box::new(BurstyProcess::new(
            rate_per_kcycle,
            mean_on_cycles,
            mean_off_cycles,
            seed,
        )),
        ArrivalSpec::Diurnal {
            base_per_kcycle,
            peak_per_kcycle,
            period_cycles,
        } => Box::new(DiurnalProcess::new(
            base_per_kcycle,
            peak_per_kcycle,
            period_cycles,
            seed,
        )),
    }
}

/// What an [`AdmissionPolicy`] does with an arrival that finds the queue
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Backpressure: the arrival (and every arrival behind it, preserving
    /// FIFO order) waits until a pop frees space. Nothing is dropped.
    Defer,
    /// Drop the incoming arrival; the queue is untouched.
    DropIncoming,
    /// Evict the queued entry at `victim` (0 = oldest) and admit the
    /// incoming arrival in its stead.
    Evict {
        /// Index into the queue of the entry to drop.
        victim: usize,
    },
}

/// Decides the fate of arrivals that find the admission queue full.
///
/// Policies see the queue contents read-only and must be deterministic
/// functions of them — the decision is replayed identically by both
/// steppers and all executors.
pub trait AdmissionPolicy {
    /// Called once per full-queue arrival (and again on every retry of a
    /// deferred arrival).
    fn on_full(&mut self, queue: &VecDeque<Arrival>, incoming: &Arrival) -> AdmissionOutcome;
}

/// Backpressure: never drop, stall the arrival stream instead (the
/// open-loop source degrades to closed-loop while the queue is full). The
/// admitted request keeps its original arrival cycle, so the blocked time
/// shows up as queue wait.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockPolicy;

impl AdmissionPolicy for BlockPolicy {
    fn on_full(&mut self, _queue: &VecDeque<Arrival>, _incoming: &Arrival) -> AdmissionOutcome {
        AdmissionOutcome::Defer
    }
}

/// Classic drop-tail: the incoming arrival is discarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropTailPolicy;

impl AdmissionPolicy for DropTailPolicy {
    fn on_full(&mut self, _queue: &VecDeque<Arrival>, _incoming: &Arrival) -> AdmissionOutcome {
        AdmissionOutcome::DropIncoming
    }
}

/// Per-tenant fair drop: when the queue is full, the tenant hogging the
/// most queue slots pays. If the hog (ties broken toward the lowest tenant
/// id) holds strictly more slots than the incoming arrival's tenant, the
/// hog's *newest* queued request is evicted and the incoming one admitted;
/// otherwise the incoming arrival is dropped (which includes the case
/// where the incoming tenant is itself the hog — then fair drop degrades
/// to drop-tail, as it does for single-tenant streams).
#[derive(Debug, Clone, Copy, Default)]
pub struct FairDropPolicy;

impl AdmissionPolicy for FairDropPolicy {
    fn on_full(&mut self, queue: &VecDeque<Arrival>, incoming: &Arrival) -> AdmissionOutcome {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for a in queue {
            *counts.entry(a.tenant).or_insert(0) += 1;
        }
        // BTreeMap iterates in tenant order, so `>` keeps the lowest id on
        // ties — a deterministic choice.
        let mut hog: Option<(u32, usize)> = None;
        for (&tenant, &count) in &counts {
            if hog.is_none_or(|(_, best)| count > best) {
                hog = Some((tenant, count));
            }
        }
        let Some((hog_tenant, hog_count)) = hog else {
            // Full queue with no entries only happens at capacity 0; the
            // incoming arrival cannot be seated anywhere.
            return AdmissionOutcome::DropIncoming;
        };
        let incoming_count = counts.get(&incoming.tenant).copied().unwrap_or(0);
        if hog_count > incoming_count {
            // Newest entry of the hog = highest queue index with its tag.
            // The hog was counted from this queue, so the search always
            // finds it; the fallback only guards the accounting.
            match queue.iter().rposition(|a| a.tenant == hog_tenant) {
                Some(victim) => AdmissionOutcome::Evict { victim },
                None => AdmissionOutcome::DropIncoming,
            }
        } else {
            AdmissionOutcome::DropIncoming
        }
    }
}

/// The admission policies selectable through
/// [`crate::system::SystemConfig`] (a `Copy` enum so the config stays
/// `Copy`; [`AdmissionPolicyKind::build`] instantiates the policy object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicyKind {
    /// [`BlockPolicy`]: backpressure, never drops.
    Block,
    /// [`DropTailPolicy`]: drop the incoming arrival.
    #[default]
    DropTail,
    /// [`FairDropPolicy`]: the queue-hogging tenant pays first.
    FairDrop,
}

impl AdmissionPolicyKind {
    /// Instantiates the policy object.
    pub fn build(self) -> Box<dyn AdmissionPolicy> {
        match self {
            AdmissionPolicyKind::Block => Box::new(BlockPolicy),
            AdmissionPolicyKind::DropTail => Box::new(DropTailPolicy),
            AdmissionPolicyKind::FairDrop => Box::new(FairDropPolicy),
        }
    }

    /// Short stable name (used in labels and docs).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicyKind::Block => "block",
            AdmissionPolicyKind::DropTail => "drop-tail",
            AdmissionPolicyKind::FairDrop => "fair-drop",
        }
    }
}

/// Cumulative admission counters, snapshot-able so the runner can restrict
/// them to the measured window by delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServingCounters {
    /// Arrivals whose admission was resolved (admitted or dropped). A
    /// `Block`-deferred arrival is counted only once it is admitted.
    pub arrivals: u64,
    /// Arrivals dropped (incoming drops plus queue evictions).
    pub dropped: u64,
    /// Drops attributed per tenant — populated only when the spec routes
    /// one arrival process per tenant (with a single aggregate process the
    /// dropped request's tenant is unknowable: tenant selection happens at
    /// pull time, which a dropped arrival never reaches).
    pub dropped_by_tenant: Vec<u64>,
}

impl ServingCounters {
    /// Arrivals that made it into the queue (and were not later evicted).
    pub fn admitted(&self) -> u64 {
        self.arrivals - self.dropped
    }
}

/// One arrival source: a process, its tenant route, and the precomputed
/// cycle of its next arrival.
struct Source {
    process: Box<dyn ArrivalProcess>,
    tenant: u32,
    next_arrival: u64,
}

/// The open-loop serving engine: merged arrival sources feeding a bounded
/// admission queue.
///
/// The runner calls [`ServingEngine::advance`] with the current cycle at
/// the top of every loop iteration, pops admitted arrivals with
/// [`ServingEngine::pop_ready`] when the pipeline can take a request, and
/// folds [`ServingEngine::next_arrival_cycle`] into the stepper's wakeup
/// calculation so time skipping never jumps past a pending arrival.
pub struct ServingEngine {
    sources: Vec<Source>,
    queue: VecDeque<Arrival>,
    capacity: usize,
    policy: Box<dyn AdmissionPolicy>,
    /// Whether arrivals route to specific tenants (one process per tenant).
    route_per_tenant: bool,
    counters: ServingCounters,
}

impl ServingEngine {
    /// Builds the engine for an open-loop spec: one seeded source per
    /// arrival process (seeds expanded with SplitMix64 from the run seed,
    /// salted so arrival randomness is decorrelated from protocol and
    /// workload randomness).
    pub fn new(
        spec: &OpenLoopSpec,
        capacity: usize,
        policy: AdmissionPolicyKind,
        seed: u64,
    ) -> Self {
        let mut sm = SplitMix64::new(seed ^ ARRIVAL_SEED_SALT);
        let route_per_tenant = spec.arrivals.len() > 1;
        let sources = spec
            .arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mut process = build_process(a, sm.next_u64());
                let first = process.next_gap(0);
                Source {
                    process,
                    tenant: i as u32,
                    next_arrival: first,
                }
            })
            .collect();
        ServingEngine {
            sources,
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            policy: policy.build(),
            route_per_tenant,
            counters: ServingCounters {
                dropped_by_tenant: if route_per_tenant {
                    vec![0; spec.arrivals.len()]
                } else {
                    Vec::new()
                },
                ..ServingCounters::default()
            },
        }
    }

    /// Whether arrivals carry a tenant route (one process per tenant).
    pub fn routes_per_tenant(&self) -> bool {
        self.route_per_tenant
    }

    /// Index of the source with the earliest pending arrival (ties broken
    /// toward the lowest tenant index, deterministically).
    fn earliest_source(&self) -> Option<usize> {
        self.sources
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.next_arrival, *i))
            .map(|(i, _)| i)
    }

    /// Resolves the arrival of source `i` and schedules its next one.
    fn resolve(&mut self, i: usize, arrived_at: u64) {
        let s = &mut self.sources[i];
        let gap = s.process.next_gap(arrived_at);
        debug_assert!(gap >= 1, "arrival processes must advance time");
        s.next_arrival = arrived_at.saturating_add(gap.max(1));
    }

    /// Processes every arrival up to and including cycle `now`, in global
    /// arrival-time order. Admission decisions depend only on the arrival
    /// sequence and the pop history, so calling this once per cycle or
    /// once after a multi-cycle skip yields identical state (the runner's
    /// quiescence rules guarantee no pops happen inside a skipped window).
    pub fn advance(&mut self, now: u64) {
        loop {
            let Some(i) = self.earliest_source() else {
                return;
            };
            let at = self.sources[i].next_arrival;
            if at > now {
                return;
            }
            let incoming = Arrival {
                arrived_at: at,
                tenant: self.sources[i].tenant,
            };
            if self.queue.len() < self.capacity {
                self.counters.arrivals += 1;
                self.queue.push_back(incoming);
                self.resolve(i, at);
                continue;
            }
            match self.policy.on_full(&self.queue, &incoming) {
                AdmissionOutcome::Defer => {
                    // Backpressure: this (earliest) arrival and everything
                    // behind it wait; retried on the next advance after a
                    // pop frees space. Not counted until resolved.
                    return;
                }
                AdmissionOutcome::DropIncoming => {
                    self.counters.arrivals += 1;
                    self.counters.dropped += 1;
                    if self.route_per_tenant {
                        self.counters.dropped_by_tenant[incoming.tenant as usize] += 1;
                    }
                    self.resolve(i, at);
                }
                AdmissionOutcome::Evict { victim } => {
                    // A policy naming an out-of-range victim is buggy; fall
                    // back to dropping the evicted-or-incoming arrival so
                    // the conservation identity survives either way.
                    let dropped_tenant = match self.queue.remove(victim) {
                        Some(evicted) => {
                            self.queue.push_back(incoming);
                            evicted.tenant
                        }
                        None => {
                            debug_assert!(
                                false,
                                "admission policy evicted index {victim} outside the queue"
                            );
                            incoming.tenant
                        }
                    };
                    self.counters.arrivals += 1;
                    self.counters.dropped += 1;
                    if self.route_per_tenant {
                        self.counters.dropped_by_tenant[dropped_tenant as usize] += 1;
                    }
                    self.resolve(i, at);
                }
            }
        }
    }

    /// Pops the oldest admitted arrival, if any.
    pub fn pop_ready(&mut self) -> Option<Arrival> {
        self.queue.pop_front()
    }

    /// Admitted arrivals currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The earliest cycle after `now` at which a new arrival occurs — the
    /// wakeup source that keeps time skipping from jumping past an
    /// arrival. Returns `None` while an arrival is `Block`-deferred (its
    /// admission is pop-driven, not time-driven; the pipeline work that
    /// must exist for the queue to be full bounds the skip instead).
    pub fn next_arrival_cycle(&self, now: u64) -> Option<u64> {
        self.sources
            .iter()
            .map(|s| s.next_arrival)
            .filter(|&c| c > now)
            .min()
    }

    /// The cumulative admission counters (snapshot and delta to window).
    pub fn counters(&self) -> &ServingCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palermo_workloads::{MixSpec, Workload, WorkloadSpec};

    fn poisson(rate: f64) -> ArrivalSpec {
        ArrivalSpec::Poisson {
            rate_per_kcycle: rate,
        }
    }

    fn collect_arrivals(process: &mut dyn ArrivalProcess, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut t = 0u64;
        for _ in 0..n {
            t += process.next_gap(t);
            out.push(t);
        }
        out
    }

    #[test]
    fn poisson_mean_gap_matches_the_rate() {
        let mut p = PoissonProcess::new(0.8, 42);
        let arrivals = collect_arrivals(&mut p, 4000);
        let mean_gap = *arrivals.last().unwrap() as f64 / arrivals.len() as f64;
        // Expected mean gap = 1000 / 0.8 = 1250 cycles; allow 10% sampling
        // slack at 4000 draws.
        assert!(
            (mean_gap - 1250.0).abs() < 125.0,
            "observed mean gap {mean_gap}"
        );
        // Strictly increasing (gaps ≥ 1).
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn processes_are_deterministic_in_the_seed() {
        for spec in [
            poisson(0.5),
            ArrivalSpec::Bursty {
                rate_per_kcycle: 2.0,
                mean_on_cycles: 10_000,
                mean_off_cycles: 30_000,
            },
            ArrivalSpec::Diurnal {
                base_per_kcycle: 0.1,
                peak_per_kcycle: 1.0,
                period_cycles: 100_000,
            },
        ] {
            let a = collect_arrivals(build_process(&spec, 7).as_mut(), 500);
            let b = collect_arrivals(build_process(&spec, 7).as_mut(), 500);
            let c = collect_arrivals(build_process(&spec, 8).as_mut(), 500);
            assert_eq!(a, b, "{spec:?} not reproducible");
            assert_ne!(a, c, "{spec:?} ignores its seed");
        }
    }

    #[test]
    fn bursty_duty_cycle_shapes_the_long_run_rate() {
        // 25% duty cycle at rate 2.0 → long-run rate 0.5/kcycle.
        let mut p = BurstyProcess::new(2.0, 50_000, 150_000, 3);
        let arrivals = collect_arrivals(&mut p, 6000);
        let span = *arrivals.last().unwrap() as f64;
        let rate = arrivals.len() as f64 * 1000.0 / span;
        assert!((rate - 0.5).abs() < 0.1, "long-run rate {rate}");
    }

    #[test]
    fn diurnal_rate_curve_crests_mid_period() {
        let p = DiurnalProcess::new(0.2, 1.8, 1_000_000, 1);
        assert!((p.rate_at(0) - 0.2).abs() < 1e-9);
        assert!((p.rate_at(500_000) - 1.8).abs() < 1e-9);
        assert!((p.rate_at(1_000_000) - 0.2).abs() < 1e-9);
        // More arrivals land in the crest half-period than in the trough.
        let mut p = DiurnalProcess::new(0.2, 1.8, 1_000_000, 9);
        let arrivals = collect_arrivals(&mut p, 4000);
        let (mut crest, mut trough) = (0u64, 0u64);
        for a in arrivals {
            let phase = a % 1_000_000;
            if (250_000..750_000).contains(&phase) {
                crest += 1;
            } else {
                trough += 1;
            }
        }
        assert!(crest > trough * 2, "crest {crest} vs trough {trough}");
    }

    fn two_tenant_engine(policy: AdmissionPolicyKind, capacity: usize) -> ServingEngine {
        let spec = OpenLoopSpec::per_tenant(
            vec![poisson(0.5), poisson(0.5)],
            WorkloadSpec::Mix(
                MixSpec::round_robin()
                    .tenant(Workload::Redis.into(), 1)
                    .tenant(Workload::Llm.into(), 1),
            ),
        );
        ServingEngine::new(&spec, capacity, policy, 11)
    }

    #[test]
    fn engine_merges_sources_in_time_order() {
        let mut engine = two_tenant_engine(AdmissionPolicyKind::DropTail, 4096);
        engine.advance(2_000_000);
        let mut prev = 0;
        let mut tenants = [0u64; 2];
        while let Some(a) = engine.pop_ready() {
            assert!(a.arrived_at >= prev, "queue out of arrival order");
            prev = a.arrived_at;
            tenants[a.tenant as usize] += 1;
        }
        assert!(tenants[0] > 0 && tenants[1] > 0);
        let c = engine.counters();
        assert_eq!(c.dropped, 0);
        assert_eq!(c.admitted(), tenants[0] + tenants[1]);
    }

    #[test]
    fn advance_is_insensitive_to_call_granularity() {
        // Same spec/seed, advanced in one jump vs. many small steps, with
        // identical pop schedules: byte-identical arrivals and counters.
        let drain = |mut engine: ServingEngine, steps: &[u64]| {
            let mut popped = Vec::new();
            for &now in steps {
                engine.advance(now);
                // Pop at most one per step, as the runner would.
                if let Some(a) = engine.pop_ready() {
                    popped.push(a);
                }
            }
            engine.advance(5_000_000);
            while let Some(a) = engine.pop_ready() {
                popped.push(a);
            }
            (popped, engine.counters().clone())
        };
        let fine: Vec<u64> = (0..500).map(|i| i * 10_000).collect();
        let coarse: Vec<u64> = (0..50).map(|i| i * 100_000).collect();
        // A large queue so occupancy never reaches capacity: drop decisions
        // then cannot depend on pop timing, which differs between the two
        // schedules by construction.
        let a = drain(
            two_tenant_engine(AdmissionPolicyKind::DropTail, 1 << 20),
            &fine,
        );
        let b = drain(
            two_tenant_engine(AdmissionPolicyKind::DropTail, 1 << 20),
            &coarse,
        );
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn drop_tail_drops_and_counts_per_tenant() {
        let mut engine = two_tenant_engine(AdmissionPolicyKind::DropTail, 4);
        engine.advance(10_000_000);
        assert_eq!(engine.queue_len(), 4);
        let c = engine.counters().clone();
        assert!(c.dropped > 0, "a 4-deep queue at this load must drop");
        assert_eq!(c.arrivals, c.admitted() + c.dropped);
        assert_eq!(c.dropped_by_tenant.iter().sum::<u64>(), c.dropped);
        // Queue never exceeded capacity.
        assert!(engine.queue_len() <= 4);
    }

    #[test]
    fn block_policy_defers_instead_of_dropping() {
        let mut engine = two_tenant_engine(AdmissionPolicyKind::Block, 4);
        engine.advance(10_000_000);
        let c = engine.counters().clone();
        assert_eq!(c.dropped, 0);
        assert_eq!(c.admitted(), 4);
        // The deferred arrival is pop-driven, not time-driven.
        assert_eq!(engine.next_arrival_cycle(10_000_000), None);
        // Popping frees space; the deferred arrival is admitted on the
        // next advance and keeps its original (past) arrival cycle.
        let popped = engine.pop_ready().expect("queue was full");
        engine.advance(10_000_000);
        assert_eq!(engine.counters().admitted(), 5);
        assert_eq!(engine.queue_len(), 4);
        let head = engine.pop_ready().expect("refilled");
        assert!(head.arrived_at >= popped.arrived_at);
        assert!(
            head.arrived_at < 10_000_000,
            "deferred arrival must keep its original arrival cycle"
        );
    }

    #[test]
    fn fair_drop_evicts_the_hogging_tenant() {
        // Tenant 0 hogs 3 of 4 slots; a tenant-1 arrival evicts tenant 0's
        // newest entry rather than being dropped.
        let queue: VecDeque<Arrival> = [(100, 0), (200, 0), (300, 1), (400, 0)]
            .into_iter()
            .map(|(arrived_at, tenant)| Arrival { arrived_at, tenant })
            .collect();
        let mut policy = FairDropPolicy;
        let incoming = Arrival {
            arrived_at: 500,
            tenant: 1,
        };
        assert_eq!(
            policy.on_full(&queue, &incoming),
            AdmissionOutcome::Evict { victim: 3 }
        );
        // The hog itself gets plain drop-tail treatment.
        let incoming_hog = Arrival {
            arrived_at: 500,
            tenant: 0,
        };
        assert_eq!(
            policy.on_full(&queue, &incoming_hog),
            AdmissionOutcome::DropIncoming
        );
        // Balanced occupancy (2 vs 2): no eviction either.
        let balanced: VecDeque<Arrival> = [(100, 0), (200, 0), (300, 1), (400, 1)]
            .into_iter()
            .map(|(arrived_at, tenant)| Arrival { arrived_at, tenant })
            .collect();
        assert_eq!(
            policy.on_full(&balanced, &incoming),
            AdmissionOutcome::DropIncoming
        );
    }

    #[test]
    fn fair_drop_engine_keeps_the_conservation_identity() {
        let mut engine = two_tenant_engine(AdmissionPolicyKind::FairDrop, 4);
        engine.advance(10_000_000);
        let c = engine.counters().clone();
        assert!(c.dropped > 0);
        assert_eq!(c.arrivals, c.admitted() + c.dropped);
        assert_eq!(c.dropped_by_tenant.iter().sum::<u64>(), c.dropped);
    }

    #[test]
    fn next_arrival_cycle_bounds_time_skips() {
        let spec = OpenLoopSpec::new(poisson(0.01), Workload::Mcf.into());
        let mut engine = ServingEngine::new(&spec, 64, AdmissionPolicyKind::DropTail, 5);
        // Sparse stream: mean gap 100k cycles. Before the first arrival the
        // wakeup names its exact cycle.
        let first = engine.next_arrival_cycle(0).expect("a first arrival");
        assert!(first > 0);
        engine.advance(first - 1);
        assert_eq!(engine.queue_len(), 0);
        engine.advance(first);
        assert_eq!(engine.queue_len(), 1);
        let second = engine
            .next_arrival_cycle(first)
            .expect("an endless process");
        assert!(second > first);
    }

    #[test]
    fn aggregate_mode_has_no_per_tenant_drop_attribution() {
        let spec = OpenLoopSpec::new(poisson(5.0), Workload::Mcf.into());
        let mut engine = ServingEngine::new(&spec, 2, AdmissionPolicyKind::DropTail, 5);
        assert!(!engine.routes_per_tenant());
        engine.advance(1_000_000);
        let c = engine.counters();
        assert!(c.dropped > 0);
        assert!(c.dropped_by_tenant.is_empty());
    }
}
