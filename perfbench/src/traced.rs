//! The traced driver: the runner's simulation loop, repeated call for call
//! through public functions, with every call into a simulator layer timed.
//!
//! The loop mirrors `palermo_sim::runner`'s core loop (stage a request
//! through the workload stream and the LLC, plan it in the ORAM hierarchy,
//! submit it to the controller, tick controller and DRAM, drain
//! completions, let the [`CalendarStepper`] skip idle cycles). It keeps
//! only the measured-window metrics needed to prove it faithful:
//! [`TracedRun::matches`] compares them with an untraced run of the same
//! configuration, and a traced run that differs is a failed run.
//!
//! Per-call timings are aggregated (count, total nanoseconds and a log2
//! histogram of durations) because the hot calls run once per loop
//! iteration. Request-level spans (plan, submit, retire) are kept per
//! request id. Both stay in memory; [`TracedRun::write_json`] writes them
//! out.

use palermo_controller::OramController;
use palermo_dram::{DramStats, DramSystem};
use palermo_oram::hierarchy::HierarchicalOram;
use palermo_oram::types::{OramOp, PhysAddr};
use palermo_oram::{OramError, OramResult, Payload};
use palermo_sim::{
    CalendarStepper, RunMetrics, Scheme, ServingEngine, ShardedSystem, Stepper, SystemConfig,
    WorkloadSpec,
};
use palermo_workloads::{AccessStream, Llc, OpenLoopSpec, ShardStream};
use std::hint::black_box;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// A simulator layer, as the per-layer metrics name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Workload generators and the LLC model (`palermo_workloads`).
    Workloads,
    /// ORAM plan generation (`HierarchicalOram`).
    Oram,
    /// The ORAM controller (`OramController`).
    Controller,
    /// The DRAM model (`DramSystem`).
    Dram,
    /// Idle-cycle skipping (`CalendarStepper`, including the DRAM event
    /// ticks it runs inside a skipped window).
    Stepper,
    /// The open-loop serving engine (`ServingEngine`).
    Serving,
    /// Sharded-system construction and shard stream wrapping.
    Shard,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Workloads,
        Layer::Oram,
        Layer::Controller,
        Layer::Dram,
        Layer::Stepper,
        Layer::Serving,
        Layer::Shard,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workloads => "workloads",
            Layer::Oram => "oram",
            Layer::Controller => "controller",
            Layer::Dram => "dram",
            Layer::Stepper => "stepper",
            Layer::Serving => "serving",
            Layer::Shard => "shard",
        }
    }
}

/// A timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `WorkloadSpec::build`.
    StreamBuild,
    /// `AccessStream::next_access` / `next_tagged` / `next_tagged_for`.
    StreamPull,
    /// `Llc::new`.
    LlcNew,
    /// `Llc::access`.
    LlcAccess,
    /// `Llc::fill_line`.
    LlcFill,
    /// Hierarchy configuration and `HierarchicalOram::new`.
    OramNew,
    /// `HierarchicalOram::access`.
    OramAccess,
    /// `HierarchicalOram::background_evict`.
    OramEvict,
    /// `OramController::new`.
    ControllerNew,
    /// `OramController::try_submit`.
    ControllerSubmit,
    /// `OramController::tick`.
    ControllerTick,
    /// `OramController::drain_finished`.
    ControllerDrain,
    /// `DramSystem::new`.
    DramNew,
    /// `DramSystem::tick`.
    DramTick,
    /// `Stepper::advance_idle` on the `CalendarStepper`.
    StepperAdvance,
    /// `ServingEngine::new`.
    ServingNew,
    /// `ServingEngine::advance`.
    ServingAdvance,
    /// `ServingEngine::pop_ready`.
    ServingPop,
    /// `ServingEngine::next_arrival_cycle`.
    ServingNextArrival,
    /// `ShardedSystem::new`.
    ShardNew,
    /// `ShardStream::new`.
    ShardStreamNew,
}

impl Call {
    /// Every call site, in report order.
    pub const ALL: [Call; 21] = [
        Call::StreamBuild,
        Call::StreamPull,
        Call::LlcNew,
        Call::LlcAccess,
        Call::LlcFill,
        Call::OramNew,
        Call::OramAccess,
        Call::OramEvict,
        Call::ControllerNew,
        Call::ControllerSubmit,
        Call::ControllerTick,
        Call::ControllerDrain,
        Call::DramNew,
        Call::DramTick,
        Call::StepperAdvance,
        Call::ServingNew,
        Call::ServingAdvance,
        Call::ServingPop,
        Call::ServingNextArrival,
        Call::ShardNew,
        Call::ShardStreamNew,
    ];

    /// The layer the call belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Call::StreamBuild
            | Call::StreamPull
            | Call::LlcNew
            | Call::LlcAccess
            | Call::LlcFill => Layer::Workloads,
            Call::OramNew | Call::OramAccess | Call::OramEvict => Layer::Oram,
            Call::ControllerNew
            | Call::ControllerSubmit
            | Call::ControllerTick
            | Call::ControllerDrain => Layer::Controller,
            Call::DramNew | Call::DramTick => Layer::Dram,
            Call::StepperAdvance => Layer::Stepper,
            Call::ServingNew
            | Call::ServingAdvance
            | Call::ServingPop
            | Call::ServingNextArrival => Layer::Serving,
            Call::ShardNew | Call::ShardStreamNew => Layer::Shard,
        }
    }

    /// Name used in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Call::StreamBuild => "workloads.build",
            Call::StreamPull => "workloads.pull",
            Call::LlcNew => "workloads.llc_new",
            Call::LlcAccess => "workloads.llc_access",
            Call::LlcFill => "workloads.llc_fill",
            Call::OramNew => "oram.new",
            Call::OramAccess => "oram.access",
            Call::OramEvict => "oram.background_evict",
            Call::ControllerNew => "controller.new",
            Call::ControllerSubmit => "controller.try_submit",
            Call::ControllerTick => "controller.tick",
            Call::ControllerDrain => "controller.drain_finished",
            Call::DramNew => "dram.new",
            Call::DramTick => "dram.tick",
            Call::StepperAdvance => "stepper.advance_idle",
            Call::ServingNew => "serving.new",
            Call::ServingAdvance => "serving.advance",
            Call::ServingPop => "serving.pop_ready",
            Call::ServingNextArrival => "serving.next_arrival_cycle",
            Call::ShardNew => "shard.new",
            Call::ShardStreamNew => "shard.stream_new",
        }
    }
}

/// Buckets of the duration histogram: bucket `b` counts calls that took
/// `[2^(b-1), 2^b)` ns (bucket 0: under 1 ns); the last bucket is open.
pub const HIST_BUCKETS: usize = 40;

/// Aggregate of every call to one call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub count: u64,
    /// Total nanoseconds spent in them.
    pub total_ns: u64,
    /// log2 histogram of call durations (see [`HIST_BUCKETS`]).
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats {
            count: 0,
            total_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl CallStats {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let bucket = (u64::BITS - ns.leading_zeros()) as usize;
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One ORAM request's life on the host clock, in nanoseconds since the
/// traced run started. Spans of one request share its `request_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// Protocol-level request id.
    pub request_id: u64,
    /// Whether the request is a background eviction.
    pub dummy: bool,
    /// When plan generation started (for real requests, after the access
    /// that missed the LLC was pulled).
    pub plan_start_ns: u64,
    /// How long plan generation took.
    pub plan_ns: u64,
    /// When the controller accepted the plan.
    pub submit_ns: Option<u64>,
    /// When the controller handed the finished request back.
    pub retire_ns: Option<u64>,
}

/// Counts taken where the work happens; identical on every run of one
/// configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Real ORAM requests formed from workload accesses.
    pub requests_formed: u64,
    /// Workload accesses pulled (LLC hits plus misses).
    pub accesses_pulled: u64,
    /// Plans generated (real requests plus background evictions).
    pub plans: u64,
    /// Background evictions planned.
    pub background_evicts: u64,
    /// Plan nodes over all plans.
    pub plan_nodes: u64,
    /// `try_submit` calls.
    pub submit_attempts: u64,
    /// `try_submit` calls the controller accepted.
    pub submit_accepts: u64,
    /// Controller ticks whose issue pass settled.
    pub settled_ticks: u64,
    /// DRAM operations the controller issued in its ticks.
    pub ops_issued: u64,
    /// DRAM ticks that issued a command.
    pub dram_issue_ticks: u64,
    /// Runner loop iterations (one controller tick, one DRAM tick and one
    /// stepper call each).
    pub loop_iterations: u64,
    /// Cycles the stepper advanced the clock by.
    pub cycles_skipped: u64,
    /// Cycles simulated in total, warm-up included.
    pub total_cycles: u64,
    /// LLC hits over the whole run.
    pub llc_hits: u64,
    /// LLC misses over the whole run.
    pub llc_misses: u64,
}

/// The measured-window metrics of one system (one shard of a sharded run).
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Controller/DRAM cycles in the window.
    pub cycles: u64,
    /// Real requests completed in the window.
    pub oram_requests: u64,
    /// Workload accesses of those requests.
    pub workload_accesses: u64,
    /// Background evictions completed in the window.
    pub dummy_requests: u64,
    /// Service latencies, in completion order.
    pub latencies: Vec<u64>,
    /// Queue waits, aligned with `latencies` (open loop only).
    pub queue_waits: Vec<u64>,
    /// DRAM statistics over the window.
    pub dram: DramStats,
}

/// Everything one traced run recorded.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Wall time of the whole traced run.
    pub root_ns: u64,
    /// Per-call aggregates, indexed like [`Call::ALL`].
    pub calls: [CallStats; Call::ALL.len()],
    /// Request spans, in plan order.
    pub requests: Vec<RequestSpan>,
    /// Work counts.
    pub counts: WorkCounts,
    /// Cycles skipped by each stepper call that skipped any.
    pub skip_windows: Vec<u64>,
    /// Measured windows, one per shard (one for an unsharded run).
    pub windows: Vec<Window>,
    /// Wall time of each shard's run (one entry for an unsharded run).
    pub shard_run_ns: Vec<u64>,
    /// When the run started; span times are relative to it.
    origin: Instant,
}

/// Per-request bookkeeping from staging to retirement.
struct InFlight {
    request_id: u64,
    is_dummy: bool,
    accesses: u64,
    arrived_at: Option<u64>,
    span: usize,
}

impl TracedRun {
    fn new() -> Self {
        TracedRun {
            root_ns: 0,
            calls: [CallStats::default(); Call::ALL.len()],
            requests: Vec::new(),
            counts: WorkCounts::default(),
            skip_windows: Vec::new(),
            windows: Vec::new(),
            shard_run_ns: Vec::new(),
            origin: Instant::now(),
        }
    }

    /// The aggregate of one call site.
    pub fn call(&self, call: Call) -> &CallStats {
        &self.calls[call as usize]
    }

    /// Nanoseconds spent in calls of one layer.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        Call::ALL
            .iter()
            .filter(|c| c.layer() == layer)
            .map(|&c| self.call(c).total_ns)
            .sum()
    }

    fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.calls[call as usize].record(elapsed_ns(start));
        out
    }

    /// Whether this run reproduced `untraced`, the metrics of an untraced
    /// run of the same configuration: window cycles, request and access
    /// counts, every latency and queue wait, and the DRAM statistics; per
    /// shard for a sharded run.
    pub fn matches(&self, untraced: &RunMetrics) -> bool {
        let w = &self.windows;
        let per_shard_ok = if untraced.per_shard.is_empty() {
            w.len() == 1
        } else {
            w.len() == untraced.per_shard.len()
                && w.iter().zip(&untraced.per_shard).all(|(w, s)| {
                    w.cycles == s.cycles
                        && w.oram_requests == s.oram_requests
                        && w.workload_accesses == s.workload_accesses
                        && w.dummy_requests == s.dummy_requests
                })
        };
        let concat = |f: fn(&Window) -> &Vec<u64>| -> Vec<u64> {
            w.iter().flat_map(|w| f(w).iter().copied()).collect()
        };
        let mut dram = DramStats::default();
        for s in w {
            dram = sum_dram(&dram, &s.dram);
        }
        per_shard_ok
            && w.iter().map(|w| w.cycles).max() == Some(untraced.cycles)
            && w.iter().map(|w| w.oram_requests).sum::<u64>() == untraced.oram_requests
            && w.iter().map(|w| w.workload_accesses).sum::<u64>() == untraced.workload_accesses
            && w.iter().map(|w| w.dummy_requests).sum::<u64>() == untraced.dummy_requests
            && concat(|w| &w.latencies) == untraced.latencies
            && concat(|w| &w.queue_waits) == untraced.queue_waits
            && dram == untraced.dram
    }

    /// Writes the call aggregates and request spans as one JSON document.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_json(&self, out: &mut dyn Write, workload: &str, seed: u64) -> io::Result<()> {
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"root_ns\": {},",
            self.root_ns
        )?;
        writeln!(out, "\"calls\": [")?;
        for (i, call) in Call::ALL.iter().enumerate() {
            let s = self.call(*call);
            let hist: Vec<String> = s.hist.iter().map(u64::to_string).collect();
            let sep = if i + 1 == Call::ALL.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"layer\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"log2_ns_hist\": [{}]}}{sep}",
                call.name(),
                call.layer().name(),
                s.count,
                s.total_ns,
                hist.join(", ")
            )?;
        }
        writeln!(out, "],\n\"requests\": [")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (i, r) in self.requests.iter().enumerate() {
            let sep = if i + 1 == self.requests.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "  {{\"request_id\": {}, \"dummy\": {}, \"plan_start_ns\": {}, \"plan_ns\": {}, \
                 \"submit_ns\": {}, \"retire_ns\": {}}}{sep}",
                r.request_id,
                r.dummy,
                r.plan_start_ns,
                r.plan_ns,
                opt(r.submit_ns),
                opt(r.retire_ns)
            )?;
        }
        writeln!(out, "]}}")
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Field-wise DRAM sum, as the sharded runner merges shards.
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

/// The prefetch length the runner gives `scheme` on `spec`.
fn prefetch_length(scheme: Scheme, spec: &WorkloadSpec, config: &SystemConfig) -> u32 {
    if scheme.uses_prefetch() {
        config
            .prefetch_override
            .unwrap_or_else(|| spec.default_prefetch_length())
            .max(1)
    } else {
        1
    }
}

/// The state of one system before its simulation loop starts: everything
/// the runner constructs, built through the public constructors.
struct SystemState {
    config: SystemConfig,
    stream: Box<dyn AccessStream>,
    oram: HierarchicalOram,
    controller: OramController,
    dram: DramSystem,
    llc: Llc,
    serving: Option<ServingEngine>,
}

/// Builds one [`SystemState`] per shard of a run of `scheme` on `spec`
/// under `config`: one for an unsharded spec, and for a sharded spec one
/// per shard that `ShardedSystem::new` derives. Every constructor call is
/// timed into `run`.
///
/// # Errors
///
/// Propagates configuration and stream-build errors, and rejects open-loop
/// sharded specs, whose per-shard arrival processes the public API does not
/// expose.
fn set_up(
    run: &mut TracedRun,
    scheme: Scheme,
    spec: &WorkloadSpec,
    config: &SystemConfig,
) -> OramResult<Vec<SystemState>> {
    let prefetch = prefetch_length(scheme, spec, config);
    let Some(shard_spec) = spec.sharded() else {
        let stream = run.time(Call::StreamBuild, || {
            spec.build(config.stream_footprint_hint(), config.stream_seed())
        })?;
        let open = spec.open_loop().cloned();
        return Ok(vec![system_state(
            run,
            scheme,
            config.clone(),
            prefetch,
            open,
            stream,
        )?]);
    };
    if spec.open_loop().is_some() {
        return Err(OramError::InvalidParams {
            reason: format!("the traced driver does not support open-loop sharded spec '{spec}'"),
        });
    }
    let system = run.time(Call::ShardNew, || ShardedSystem::new(scheme, spec, config))?;
    (0..system.shards())
        .map(|shard| {
            // Every shard rebuilds the global stream and filters it.
            let inner = run.time(Call::StreamBuild, || {
                shard_spec
                    .inner
                    .build(config.stream_footprint_hint(), config.stream_seed())
            })?;
            let stream = run.time(Call::ShardStreamNew, || {
                ShardStream::new(inner, system.router().clone(), shard)
            });
            let shard_config = system.shard_config(shard).clone();
            system_state(run, scheme, shard_config, prefetch, None, Box::new(stream))
        })
        .collect()
}

fn system_state(
    run: &mut TracedRun,
    scheme: Scheme,
    config: SystemConfig,
    prefetch_length: u32,
    open: Option<OpenLoopSpec>,
    stream: Box<dyn AccessStream>,
) -> OramResult<SystemState> {
    let oram = run.time(Call::OramNew, || {
        let hierarchy = scheme.hierarchy_config(
            config.hierarchy_params()?,
            config.seed,
            prefetch_length,
            config.stash_capacity,
        )?;
        HierarchicalOram::new(hierarchy)
    })?;
    let controller = run.time(Call::ControllerNew, || {
        OramController::new(scheme.controller_config(config.pe_columns))
    });
    let dram = run.time(Call::DramNew, || DramSystem::new(config.dram));
    let llc = run.time(Call::LlcNew, || Llc::new(config.llc));
    let serving = open.as_ref().map(|o| {
        run.time(Call::ServingNew, || {
            ServingEngine::new(
                o,
                config.serving_queue_capacity,
                config.admission_policy,
                config.seed,
            )
        })
    });
    Ok(SystemState {
        config,
        stream,
        oram,
        controller,
        dram,
        llc,
        serving,
    })
}

/// Host time to construct the state of one run of `scheme` on `spec`
/// under `config` through the public constructors (`WorkloadSpec::build`,
/// `HierarchicalOram::new`, `OramController::new`, `DramSystem::new`,
/// `Llc::new`, `ServingEngine::new` for an open-loop spec, and
/// `ShardedSystem::new` for a sharded one). Dropping the state is not
/// timed.
///
/// # Errors
///
/// As [`run_traced`].
pub fn set_up_time(
    scheme: Scheme,
    spec: &WorkloadSpec,
    config: &SystemConfig,
) -> OramResult<Duration> {
    let start = Instant::now();
    let state = set_up(&mut TracedRun::new(), scheme, spec, config)?;
    let elapsed = start.elapsed();
    drop(black_box(state));
    Ok(elapsed)
}

/// Runs `scheme` on `spec` under `config` with every layer call timed.
///
/// # Errors
///
/// Propagates configuration and stream-build errors, and rejects open-loop
/// sharded specs, whose per-shard arrival processes the public API does not
/// expose.
pub fn run_traced(
    scheme: Scheme,
    spec: &WorkloadSpec,
    config: &SystemConfig,
) -> OramResult<TracedRun> {
    let mut run = TracedRun::new();
    for system in set_up(&mut run, scheme, spec, config)? {
        let start = Instant::now();
        let window = run.core(system)?;
        run.windows.push(window);
        run.shard_run_ns.push(elapsed_ns(start));
    }
    run.root_ns = elapsed_ns(run.origin);
    Ok(run)
}

impl TracedRun {
    /// One system's simulation loop: the runner's core loop with its calls
    /// timed. Statement order matches the runner's exactly, since any
    /// reordering could change the simulation.
    #[allow(clippy::too_many_lines)]
    fn core(&mut self, system: SystemState) -> OramResult<Window> {
        let SystemState {
            config,
            mut stream,
            mut oram,
            mut controller,
            mut dram,
            mut llc,
            mut serving,
        } = system;
        let stream = stream.as_mut();
        let stepper = CalendarStepper;
        let origin = self.origin;

        let protected_lines = config.protected_bytes / 64;
        let total_requests = config.total_requests();
        let warmup = config.warmup_requests;
        let pull_tags = config.collect_per_tenant && stream.tenant_count() > 1;
        let routes_per_tenant = serving
            .as_ref()
            .is_some_and(ServingEngine::routes_per_tenant);

        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut submitted = 0u64;
        let mut finished_real = 0u64;
        let mut pending_plan = None;
        let mut measuring = warmup == 0;
        let mut measure_start_cycle = 0u64;
        let mut dram_at_start = dram.stats();
        let mut window = Window {
            cycles: 0,
            oram_requests: 0,
            workload_accesses: 0,
            dummy_requests: 0,
            latencies: Vec::new(),
            queue_waits: Vec::new(),
            dram: DramStats::default(),
        };
        while finished_real < total_requests {
            let arrivals_advanced_to = dram.cycle();
            if let Some(engine) = serving.as_mut() {
                self.time(Call::ServingAdvance, || {
                    engine.advance(arrivals_advanced_to)
                });
            }

            if pending_plan.is_none() && submitted < total_requests + config.measured_requests {
                if oram.needs_background_evict() {
                    let plan_start = elapsed_ns(origin);
                    let result = self.time(Call::OramEvict, || oram.background_evict());
                    self.counts.plans += 1;
                    self.counts.background_evicts += 1;
                    self.counts.plan_nodes += result.plan.nodes.len() as u64;
                    in_flight.push(InFlight {
                        request_id: result.plan.request_id,
                        is_dummy: true,
                        accesses: 0,
                        arrived_at: None,
                        span: self.requests.len(),
                    });
                    self.requests.push(RequestSpan {
                        request_id: result.plan.request_id,
                        dummy: true,
                        plan_start_ns: plan_start,
                        plan_ns: elapsed_ns(origin) - plan_start,
                        submit_ns: None,
                        retire_ns: None,
                    });
                    pending_plan = Some(result.plan);
                } else if submitted < total_requests {
                    let arrival = match serving.as_mut() {
                        None => Some(None),
                        Some(engine) => {
                            self.time(Call::ServingPop, || engine.pop_ready()).map(Some)
                        }
                    };
                    if let Some(arrival) = arrival {
                        let route = arrival.and_then(|a| routes_per_tenant.then_some(a.tenant));
                        let mut accesses = 0u64;
                        let mut guard = 0u64;
                        let (pa, op) = loop {
                            let entry = self.time(Call::StreamPull, || match route {
                                Some(t) => stream.next_tagged_for(t).entry,
                                None if pull_tags => stream.next_tagged().entry,
                                None => stream.next_access(),
                            });
                            accesses += 1;
                            let pa = PhysAddr::new(entry.addr.0 % (protected_lines * 64));
                            if !self.time(Call::LlcAccess, || llc.access(pa)) {
                                break (pa, entry.op);
                            }
                            guard += 1;
                            if guard > 1_000_000 {
                                return Err(OramError::WorkloadStalled {
                                    accesses_scanned: guard,
                                });
                            }
                        };
                        self.counts.accesses_pulled += accesses;
                        let payload = (op == OramOp::Write).then(|| Payload::from_u64(pa.0));
                        let plan_start = elapsed_ns(origin);
                        let result =
                            self.time(Call::OramAccess, || oram.access(pa, op, payload))?;
                        let plan_ns = elapsed_ns(origin) - plan_start;
                        for line in &result.prefetched {
                            self.time(Call::LlcFill, || llc.fill_line(line.0));
                        }
                        self.counts.requests_formed += 1;
                        self.counts.plans += 1;
                        self.counts.plan_nodes += result.plan.nodes.len() as u64;
                        in_flight.push(InFlight {
                            request_id: result.plan.request_id,
                            is_dummy: false,
                            accesses,
                            arrived_at: arrival.map(|a| a.arrived_at),
                            span: self.requests.len(),
                        });
                        self.requests.push(RequestSpan {
                            request_id: result.plan.request_id,
                            dummy: false,
                            plan_start_ns: plan_start,
                            plan_ns,
                            submit_ns: None,
                            retire_ns: None,
                        });
                        pending_plan = Some(result.plan);
                        submitted += 1;
                    }
                }
            }

            if let Some(plan) = pending_plan.take() {
                let request_id = plan.request_id;
                let cycle = dram.cycle();
                self.counts.submit_attempts += 1;
                match self.time(Call::ControllerSubmit, || {
                    controller.try_submit(plan, cycle)
                }) {
                    Ok(()) => {
                        self.counts.submit_accepts += 1;
                        if let Some(f) = in_flight.iter().find(|f| f.request_id == request_id) {
                            self.requests[f.span].submit_ns = Some(elapsed_ns(origin));
                        }
                    }
                    Err(plan) => pending_plan = Some(plan),
                }
            }

            let activity = self.time(Call::ControllerTick, || controller.tick(&mut dram));
            let dram_result = self.time(Call::DramTick, || dram.tick());
            self.counts.settled_ticks += u64::from(activity.settled);
            self.counts.ops_issued += activity.ops_issued;
            self.counts.dram_issue_ticks += u64::from(dram_result.issued);

            let finished = self.time(Call::ControllerDrain, || controller.drain_finished());
            for done in finished {
                let Some(pos) = in_flight
                    .iter()
                    .position(|f| f.request_id == done.request_id)
                else {
                    return Err(OramError::InvalidParams {
                        reason: format!(
                            "controller retired unknown request id {}",
                            done.request_id
                        ),
                    });
                };
                let entry = in_flight.swap_remove(pos);
                self.requests[entry.span].retire_ns = Some(elapsed_ns(origin));
                if !entry.is_dummy {
                    finished_real += 1;
                }
                if finished_real == warmup && !measuring {
                    measuring = true;
                    measure_start_cycle = dram.cycle();
                    dram_at_start = dram.stats();
                    if let Some(engine) = serving.as_mut() {
                        let now = dram.cycle();
                        self.time(Call::ServingAdvance, || engine.advance(now));
                    }
                }
                if measuring && finished_real > warmup {
                    if entry.is_dummy {
                        window.dummy_requests += 1;
                    } else {
                        window.oram_requests += 1;
                        window.workload_accesses += entry.accesses;
                        window.latencies.push(done.latency());
                        if let Some(at) = entry.arrived_at {
                            window
                                .queue_waits
                                .push(done.submitted_at.saturating_sub(at));
                        }
                    }
                }
            }

            let will_stage = pending_plan.is_none()
                && submitted < total_requests + config.measured_requests
                && (oram.needs_background_evict()
                    || (submitted < total_requests
                        && serving.as_ref().is_none_or(|e| e.queue_len() > 0)));
            let quiescent = activity.settled
                && !dram_result.completions
                && !will_stage
                && (!dram_result.issued || !controller.enqueue_blocked());
            let external_next = match serving.as_ref() {
                Some(e) if submitted < total_requests => self
                    .time(Call::ServingNextArrival, || {
                        e.next_arrival_cycle(arrivals_advanced_to)
                    }),
                _ => None,
            };
            let before = dram.cycle();
            self.time(Call::StepperAdvance, || {
                stepper.advance_idle(&mut controller, &mut dram, quiescent, external_next);
            });
            let skipped = dram.cycle() - before;
            self.counts.loop_iterations += 1;
            self.counts.cycles_skipped += skipped;
            if skipped > 0 {
                self.skip_windows.push(skipped);
            }
        }

        window.cycles = dram.cycle() - measure_start_cycle;
        window.dram = dram_delta(&dram.stats(), &dram_at_start);
        self.counts.total_cycles += dram.cycle();
        self.counts.llc_hits += llc.hits();
        self.counts.llc_misses += llc.misses();
        Ok(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_table_indexes_match_discriminants() {
        for (i, call) in Call::ALL.iter().enumerate() {
            assert_eq!(*call as usize, i, "{}", call.name());
        }
        for layer in Layer::ALL {
            assert!(Call::ALL.iter().any(|c| c.layer() == layer));
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = CallStats::default();
        for ns in [0, 1, 2, 3, 4, 1023, 1024, 1 << 50] {
            s.record(ns);
        }
        assert_eq!(s.count, 8);
        assert_eq!(&s.hist[..4], &[1, 1, 2, 1]);
        assert_eq!((s.hist[10], s.hist[11]), (1, 1));
        assert_eq!(s.hist[HIST_BUCKETS - 1], 1);
    }
}
