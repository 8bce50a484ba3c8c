//! The ORAM-controller timing engine.
//!
//! The engine executes [`AccessPlan`]s against the DRAM model. Plans carry
//! their *intra-request* dependencies; the engine adds the *inter-request*
//! ordering required by the scheduling policy:
//!
//! * [`SchedulePolicy::Serial`] — the multi-issue baseline controller used
//!   for PathORAM, RingORAM, PageORAM, PrORAM and IR-ORAM: a request may
//!   only begin once the previous request has finished all of its reads
//!   (writes are posted), so ORAM requests are served one after another.
//! * [`SchedulePolicy::PalermoMesh`] — the Palermo PE mesh: each request
//!   occupies one PE column; a request's `LoadMetadata` at level ℓ may begin
//!   as soon as the *previous* request's tree-modifying phases at level ℓ
//!   (`EarlyReshuffle`, `EvictPath`) have been **issued**, which is the
//!   minimal write-to-read critical section of §IV-B.
//! * [`SchedulePolicy::PalermoSoftware`] — the software-only variant
//!   (Palermo-SW): the same protocol but with coarse-grained synchronisation,
//!   so the per-level hand-off waits for the predecessor's modifications to
//!   **complete** and the position-map check is additionally serialised
//!   behind the predecessor's PosMap1 read.

use crate::stats::ControllerStats;
use palermo_dram::{DramSystem, MemCompletion, MemOpKind, MemRequest};
use palermo_oram::access_plan::{AccessPlan, PhaseKind, PlanNode, PlanNodeId};
use palermo_oram::error::StuckRequest;
use palermo_oram::types::SubOram;
/// Inter-request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Serve ORAM requests one after the other (baseline controllers).
    Serial,
    /// Palermo protocol-hardware co-design: per-level wavefront overlap with
    /// issue-time hand-off.
    PalermoMesh,
    /// Palermo protocol with software-style coarse synchronisation.
    PalermoSoftware,
}

/// Static configuration of the controller engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Scheduling policy.
    pub policy: SchedulePolicy,
    /// Number of PE columns, i.e. ORAM requests that may be in flight
    /// concurrently (Table III uses a 3×8 mesh; the serial baseline
    /// effectively uses one column plus one staged request).
    pub pe_columns: usize,
    /// Maximum DRAM requests the controller may issue per cycle (port width
    /// towards the memory controller).
    pub issue_width: usize,
}

impl ControllerConfig {
    /// The paper's Palermo configuration: 3×8 PE mesh.
    pub fn palermo_default() -> Self {
        ControllerConfig {
            policy: SchedulePolicy::PalermoMesh,
            pe_columns: 8,
            issue_width: 16,
        }
    }

    /// The serial multi-issue baseline controller.
    pub fn serial_default() -> Self {
        ControllerConfig {
            policy: SchedulePolicy::Serial,
            pe_columns: 2,
            issue_width: 16,
        }
    }

    /// The software-only Palermo variant.
    pub fn palermo_sw_default() -> Self {
        ControllerConfig {
            policy: SchedulePolicy::PalermoSoftware,
            pe_columns: 8,
            issue_width: 16,
        }
    }
}

/// A retired ORAM request with its service timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedRequest {
    /// The protocol-level request id (`GlobalID`).
    pub request_id: u64,
    /// Cycle at which the controller accepted the request.
    pub submitted_at: u64,
    /// Cycle at which every phase of the request had finished.
    pub finished_at: u64,
    /// Whether the request was a controller-injected dummy.
    pub is_dummy: bool,
    /// DRAM bursts (reads + writes) issued on behalf of this request —
    /// the request's share of memory demand, used by the per-tenant
    /// attribution in the simulator.
    pub dram_ops: u64,
}

impl FinishedRequest {
    /// End-to-end ORAM response latency in controller cycles.
    pub fn latency(&self) -> u64 {
        self.finished_at.saturating_sub(self.submitted_at)
    }
}

/// Most plan nodes one request may carry: the engine tracks per-request
/// node sets as `u64` bit masks. The hierarchy lowering emits at most four
/// nodes per level.
const MAX_PLAN_NODES: usize = u64::BITS as usize;

/// A cycle in which the controller has pending work but issues nothing is
/// an ORAM-sync stall when fewer than this many DRAM requests are queued:
/// the memory queues are starved, so the controller's ordering, not DRAM,
/// is what holds the work back (the Fig. 3 breakdown).
pub const SYNC_STALL_QUEUE_DEPTH: usize = 4;

/// The DRAM request id of an operation of plan node `node_idx` of request
/// `request_id`. A read completion routes itself back: the DRAM model never
/// keys on ids, and a request cannot retire while one of its reads is
/// outstanding, so the request id names a live in-flight request.
fn dram_id(request_id: u64, node_idx: usize) -> u64 {
    request_id * MAX_PLAN_NODES as u64 + node_idx as u64
}

/// Mask of node indices `0..=idx`.
fn mask_through(idx: usize) -> u64 {
    u64::MAX >> (u64::BITS as usize - 1 - idx)
}

/// Iterates the set bit indices of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            idx
        })
    })
}

#[derive(Debug, Clone)]
struct NodeRuntime {
    /// Issue cursors into the plan node's `reads` and `writes`
    /// (issued-so-far counts): operations issue straight from the plan.
    reads_issued: usize,
    writes_issued: usize,
    outstanding_reads: usize,
    /// Static compute requirement of the node (never mutated after
    /// construction; the running state lives in `compute_expiry`).
    compute_remaining: u32,
    /// Absolute countdown-clock value at which the node's compute finishes,
    /// set when the node enters its request's countdown list. Storing the
    /// deadline instead of a per-tick decremented counter lets the step-2
    /// sweep skip entirely on ticks where no deadline is due, and lets bulk
    /// cycle skips advance one clock instead of every tracked node.
    compute_expiry: u64,
    /// Distinct dependencies not yet complete; the countdown sweep
    /// decrements it as each one completes.
    unmet_deps: u32,
    /// Nodes that list this one among their dependencies.
    dependents: u64,
    complete: bool,
    /// Whether this node sits in its request's countdown list.
    in_countdown: bool,
}

impl NodeRuntime {
    fn new(node: &PlanNode) -> Self {
        NodeRuntime {
            reads_issued: 0,
            writes_issued: 0,
            outstanding_reads: 0,
            compute_remaining: node.compute_cycles,
            compute_expiry: 0,
            unmet_deps: 0,
            dependents: 0,
            // A node with no traffic and no compute completes at submit only
            // when nothing precedes it; otherwise the countdown completes it
            // as soon as its dependencies do.
            complete: node.is_empty() && node.compute_cycles == 0 && node.deps.is_empty(),
            in_countdown: false,
        }
    }

    /// The address of the node's next operation to issue and whether it is
    /// a write: reads go first, then writes.
    fn next_op(&self, node: &PlanNode) -> Option<(u64, bool)> {
        if self.reads_issued < node.reads.len() {
            Some((node.reads[self.reads_issued], false))
        } else if self.writes_issued < node.writes.len() {
            Some((node.writes[self.writes_issued], true))
        } else {
            None
        }
    }
}

/// One ORAM request in flight.
///
/// Node readiness is kept as bit masks (bit `i` = plan node `i`) updated at
/// the events that change it, so the issue pass visits only the nodes that
/// can issue instead of re-deriving every pending node's dependencies and
/// hand-off each tick.
#[derive(Debug, Clone)]
struct InflightRequest {
    plan: AccessPlan,
    nodes: Vec<NodeRuntime>,
    submitted_at: u64,
    /// Per level: the request id of the previous request that also touches
    /// that level (the west sibling in the PE mesh).
    predecessor: [Option<u64>; SubOram::COUNT],
    /// Node indices currently in compute countdown, ascending. Kept in sync
    /// at every state transition so the per-cycle countdown step, the
    /// next-wakeup prediction and bulk skipping touch only these nodes
    /// instead of scanning every node of every request each cycle.
    countdown: Vec<u16>,
    /// Number of nodes not yet complete (retire check).
    incomplete: u16,
    /// Nodes with memory operations left to issue. Pending work is monotone
    /// per node, so bits only ever clear; a fully-drained request is
    /// skipped in O(1).
    pending: u64,
    /// Nodes whose intra-request dependencies have all completed.
    deps_met: u64,
    /// Gate-phase nodes (the first read phase of a level: `LoadMetadata`,
    /// or `ReadPath` where the level has none) whose level has not yet been
    /// seen granted by [`OramController::predecessor_allows`]. A grant is
    /// permanent: every policy's hand-off condition is monotone.
    gate_closed: u64,
    /// Levels whose predecessor changed since their gate was last
    /// evaluated.
    stale_levels: u8,
    /// Ready nodes whose last enqueue attempt a full DRAM queue turned away,
    /// with no queued DRAM request having left its queue since: the same
    /// operation would be turned away again. Cleared whenever a queue
    /// drains.
    dram_rejected: u64,
    /// Per level: the plan's nodes at that level.
    level_nodes: [u64; SubOram::COUNT],
    /// DRAM bursts issued so far on behalf of this request.
    dram_ops: u64,
}

impl InflightRequest {
    /// Builds the runtime state of `plan`, whose level predecessors are
    /// `predecessor`. Gates at levels with a predecessor start closed and
    /// stale: the issue pass evaluates them when it first needs them.
    fn new(
        plan: AccessPlan,
        submitted_at: u64,
        predecessor: [Option<u64>; SubOram::COUNT],
    ) -> Self {
        let mut nodes: Vec<NodeRuntime> = plan.nodes.iter().map(NodeRuntime::new).collect();
        let mut level_nodes = [0u64; SubOram::COUNT];
        let (mut load_metadata, mut read_path) = (0u64, 0u64);
        let (mut complete, mut pending, mut deps_met) = (0u64, 0u64, 0u64);
        for (i, node) in plan.nodes.iter().enumerate() {
            let bit = 1u64 << i;
            level_nodes[node.sub.index()] |= bit;
            match node.phase {
                PhaseKind::LoadMetadata => load_metadata |= bit,
                PhaseKind::ReadPath => read_path |= bit,
                _ => {}
            }
            if !node.is_empty() {
                pending |= bit;
            }
            // Dependencies point backwards, so their completion is known.
            let deps = node.deps.iter().fold(0u64, |m, d| m | 1 << d.0);
            for d in bits(deps) {
                nodes[d].dependents |= bit;
            }
            nodes[i].unmet_deps = (deps & !complete).count_ones();
            if nodes[i].unmet_deps == 0 {
                deps_met |= bit;
            }
            if nodes[i].complete {
                complete |= bit;
            }
        }
        // A level's gate phase is its first read phase: LoadMetadata, or
        // ReadPath where the level has none (the Path family).
        let mut gate_closed = 0u64;
        let mut stale_levels = 0u8;
        for (level, &at_level) in level_nodes.iter().enumerate() {
            if predecessor[level].is_some() {
                let lm = load_metadata & at_level;
                gate_closed |= if lm != 0 { lm } else { read_path & at_level };
                stale_levels |= 1 << level;
            }
        }
        InflightRequest {
            incomplete: (plan.nodes.len() - complete.count_ones() as usize) as u16,
            plan,
            nodes,
            submitted_at,
            predecessor,
            countdown: Vec::new(),
            pending,
            deps_met,
            gate_closed,
            stale_levels,
            dram_rejected: 0,
            level_nodes,
            dram_ops: 0,
        }
    }

    fn node_state(&self, id: PlanNodeId) -> &NodeRuntime {
        &self.nodes[id.0 as usize]
    }

    fn is_finished(&self) -> bool {
        self.incomplete == 0
    }

    /// Adds `node_idx` to the countdown list if it is countdown-eligible
    /// and not already tracked. Plan dependencies always point backwards, so
    /// the ascending order is preserved by inserting at the partition point.
    ///
    /// `base` is the countdown-clock value such that the node's deadline is
    /// `base + compute_remaining` — the clock value of the sweep *before*
    /// the first one that decrements it in the per-cycle reference (the
    /// current clock at every call site except the mid-sweep cascade, which
    /// passes `clock - 1` because the running sweep still counts). Returns
    /// the stored deadline when newly tracked, so the controller can
    /// maintain its running countdown minimum.
    fn track_countdown(&mut self, node_idx: usize, base: u64) -> Option<u64> {
        // Countdown-eligible: memory traffic fully issued and returned, not
        // yet complete, and every dependency complete.
        let node = &self.nodes[node_idx];
        let bit = 1u64 << node_idx;
        if node.complete
            || node.in_countdown
            || node.outstanding_reads > 0
            || self.pending & bit != 0
            || self.deps_met & bit == 0
        {
            return None;
        }
        let idx16 = node_idx as u16;
        let pos = self.countdown.partition_point(|&x| x < idx16);
        self.countdown.insert(pos, idx16);
        self.nodes[node_idx].in_countdown = true;
        let expiry = base + u64::from(self.nodes[node_idx].compute_remaining);
        self.nodes[node_idx].compute_expiry = expiry;
        Some(expiry)
    }

    /// Marks countdown node `node_idx` complete and starts the countdown of
    /// every dependent whose last dependency this was (deadline base
    /// `clock - 1`: the running sweep still counts for them).
    fn complete_node(&mut self, node_idx: usize, clock: u64) {
        self.nodes[node_idx].complete = true;
        self.nodes[node_idx].in_countdown = false;
        self.incomplete -= 1;
        for d in bits(self.nodes[node_idx].dependents) {
            self.nodes[d].unmet_deps -= 1;
            if self.nodes[d].unmet_deps == 0 {
                self.deps_met |= 1 << d;
                self.track_countdown(d, clock - 1);
            }
        }
    }

    /// The levels holding any node of `mask`, as a bit set (bit `i` = level
    /// index `i`).
    fn levels_of(&self, mask: u64) -> u8 {
        self.level_nodes
            .iter()
            .enumerate()
            .fold(0, |levels, (level, &nodes)| {
                levels | u8::from(mask & nodes != 0) << level
            })
    }

    /// The pending nodes that may issue now, and the pending nodes that are
    /// dependency- or hand-off-blocked.
    fn readiness(&self) -> (u64, u64) {
        let ready = self.pending & self.deps_met & !self.gate_closed;
        (ready, self.pending & !ready)
    }

    fn phase_issued(&self, sub: SubOram, phase: PhaseKind) -> bool {
        match self.plan.node_id(sub, phase) {
            Some(id) => self.pending & (1 << id.0) == 0,
            None => true,
        }
    }

    fn phase_complete(&self, sub: SubOram, phase: PhaseKind) -> bool {
        match self.plan.node_id(sub, phase) {
            Some(id) => self.node_state(id).complete,
            None => true,
        }
    }

    /// `true` once every phase that modifies level `sub`'s tree has been
    /// issued (mesh policy) or completed (software policy).
    fn tree_handoff(&self, sub: SubOram, require_complete: bool) -> bool {
        if require_complete {
            self.phase_complete(sub, PhaseKind::EarlyReshuffle)
                && self.phase_complete(sub, PhaseKind::EvictPath)
                && self.phase_complete(sub, PhaseKind::ReadPath)
        } else {
            self.phase_issued(sub, PhaseKind::EarlyReshuffle)
                && self.phase_issued(sub, PhaseKind::EvictPath)
        }
    }

    /// For the serial policy: all reads done, all writes handed to the
    /// memory controller.
    fn ordering_complete(&self) -> bool {
        self.pending == 0 && self.nodes.iter().all(|n| n.outstanding_reads == 0)
    }
}

/// What one [`OramController::tick`] observably did.
///
/// The event-driven runner only skips cycles after a settled tick (see
/// [`TickActivity::settled`]): it proves the controller state frozen except
/// for compute countdowns (predicted by [`OramController::next_wakeup`])
/// and the DRAM events the controller reacts to (see
/// [`OramController::absorb_completions`] and
/// [`OramController::retry_would_issue`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickActivity {
    /// DRAM read completions routed back to a live plan node (posted-write
    /// completions carry no controller state and are not counted).
    pub completions_routed: u64,
    /// Plan nodes whose `complete` flag flipped this tick.
    pub nodes_completed: u64,
    /// DRAM operations issued this tick.
    pub ops_issued: u64,
    /// ORAM requests retired this tick.
    pub requests_retired: u64,
    /// `true` when the controller provably cannot act on the next cycle
    /// without an external event: the issue pass drained every ready node
    /// (it did not stop at the issue-width limit), no request retired, and
    /// whatever remains pending is dependency-blocked or waiting on DRAM.
    /// Combined with [`OramController::next_wakeup`] and the DRAM model's
    /// event prediction this makes the tick skip-eligible even if it was
    /// active.
    pub settled: bool,
}

impl TickActivity {
    /// `true` if the tick changed any controller state.
    pub fn any(&self) -> bool {
        self.completions_routed > 0
            || self.nodes_completed > 0
            || self.ops_issued > 0
            || self.requests_retired > 0
    }
}

/// The cycle-level ORAM controller model.
#[derive(Debug)]
pub struct OramController {
    config: ControllerConfig,
    /// Requests in flight, oldest first.
    inflight: Vec<InflightRequest>,
    /// Most recently submitted request id per level (for sibling chaining).
    last_at_level: [Option<u64>; SubOram::COUNT],
    finished: Vec<FinishedRequest>,
    stats: ControllerStats,
    /// Reused buffer for draining DRAM completions without per-tick allocs.
    completion_buf: Vec<MemCompletion>,
    /// Whether the last tick saw nodes with pending memory operations
    /// (the `any_pending` input to the stall-accounting rule).
    last_any_pending: bool,
    /// Per-level dependency-blocked flags observed by the last tick.
    last_blocked_levels: [bool; SubOram::COUNT],
    /// Whether the last tick had a ready node rejected by a full DRAM queue.
    enqueue_blocked: bool,
    /// Monotone clock counting countdown-bearing cycles: +1 per tick's
    /// step-2 sweep, +`total` per bulk skip. Node deadlines
    /// (`compute_expiry`) live in this clock's domain.
    countdown_clock: u64,
    /// Exact minimum `compute_expiry` over every tracked countdown node
    /// (`u64::MAX` when none are tracked), maintained so
    /// [`OramController::next_wakeup`] answers in O(1) and the step-2 sweep
    /// runs only on ticks where a deadline is actually due: every track
    /// site min-merges the new deadline, and the sweep (which walks every
    /// tracked node when it does run) rebuilds the minimum exactly.
    countdown_min: u64,
    /// Total DRAM queue depth at the end of the last issue pass. Between
    /// passes queues only drain (see [`OramController::tick`]), so an
    /// unchanged depth at the next pass proves no channel freed space.
    queued_after_pass: usize,
}

impl OramController {
    /// Creates an idle controller.
    ///
    /// # Panics
    ///
    /// Panics if `config.pe_columns` is 0: such a controller could accept
    /// no request. The runner rejects a zero-column configuration with an
    /// error before it builds the controller.
    pub fn new(config: ControllerConfig) -> Self {
        assert!(
            config.pe_columns > 0,
            "a controller needs at least one PE column"
        );
        OramController {
            config,
            inflight: Vec::new(),
            last_at_level: [None; SubOram::COUNT],
            finished: Vec::new(),
            stats: ControllerStats::default(),
            completion_buf: Vec::new(),
            last_any_pending: false,
            last_blocked_levels: [false; SubOram::COUNT],
            enqueue_blocked: false,
            countdown_clock: 0,
            countdown_min: u64::MAX,
            queued_after_pass: usize::MAX,
        }
    }

    /// Whether the last tick had a DRAM operation ready to issue but was
    /// turned away by a full channel queue. A column command frees a slot
    /// only in its own channel's queue, so this alone does not mean the
    /// next tick can issue: [`OramController::retry_would_issue`] tells
    /// whether a turned-away operation's channel has room now.
    pub fn enqueue_blocked(&self) -> bool {
        self.enqueue_blocked
    }

    /// Consumes the DRAM completions pending in `dram` if the next tick
    /// would react to none of them: posted-write completions carry no
    /// controller state and are dropped, and a read that leaves reads of its
    /// plan node outstanding only decrements the node's count. Returns
    /// `false` when some read in the batch is the last outstanding read of
    /// its node (it starts the node's countdown and may open a successor's
    /// hand-off gate); the whole batch then stays, unchanged, for the next
    /// tick's step 1 to route.
    ///
    /// Every reader of an outstanding count asks only whether it is zero,
    /// so the next tick acts exactly as it would have after routing an
    /// absorbed batch itself; after a settled tick (see
    /// [`TickActivity::settled`]) that tick stays inert.
    pub fn absorb_completions(&mut self, dram: &mut DramSystem) -> bool {
        let mut batch = std::mem::take(&mut self.completion_buf);
        dram.drain_completed_into(&mut batch);
        // Reads of one node share its DRAM id: a read is its node's last
        // when the node has no more reads outstanding than the batch
        // returns up to and including it.
        let absorbable = batch.iter().enumerate().all(|(i, c)| {
            self.read_target(c).is_none_or(|(idx, node_idx)| {
                let returned = 1 + batch[..i]
                    .iter()
                    .filter(|e| e.kind == MemOpKind::Read && e.id == c.id)
                    .count();
                self.inflight[idx].nodes[node_idx].outstanding_reads > returned
            })
        });
        if absorbable {
            for c in &batch {
                if let Some((idx, node_idx)) = self.read_target(c) {
                    self.inflight[idx].nodes[node_idx].outstanding_reads -= 1;
                }
            }
            batch.clear();
        }
        self.completion_buf = batch;
        absorbable
    }

    /// Whether the next tick's issue pass would enqueue an operation that a
    /// full DRAM queue turned away: some turned-away node's next operation
    /// targets a channel that has room now. Between ticks queues only
    /// drain, so after a settled tick this is the only way an issue pass
    /// with frozen readiness can issue.
    pub fn retry_would_issue(&self, dram: &DramSystem) -> bool {
        self.inflight.iter().any(|req| {
            bits(req.dram_rejected).any(|i| {
                req.nodes[i]
                    .next_op(&req.plan.nodes[i])
                    .is_some_and(|(addr, _)| dram.can_accept(addr))
            })
        })
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Number of ORAM requests currently being serviced.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// The requests in flight, oldest first, each with its unfinished plan
    /// nodes and their reads outstanding at DRAM: what a
    /// [`palermo_oram::OramError::Deadlock`] report names.
    pub fn unfinished_requests(&self) -> Vec<StuckRequest> {
        let stuck = |req: &InflightRequest| StuckRequest {
            request_id: req.plan.request_id,
            unfinished_nodes: (req.nodes.iter().enumerate())
                .filter_map(|(i, node)| (!node.complete).then_some((i, node.outstanding_reads)))
                .collect(),
        };
        self.inflight.iter().map(stuck).collect()
    }

    /// Returns `true` if a new request can be accepted this cycle.
    pub fn can_accept(&self) -> bool {
        self.inflight.len() < self.config.pe_columns
    }

    /// Accumulated controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Offers a plan to the controller. Returns `false` (plan handed back via
    /// the `Err`) when all PE columns are occupied.
    ///
    /// # Panics
    ///
    /// Panics if the plan has more than 64 nodes, or a request id of 2^58
    /// or more (its DRAM ids would overflow).
    pub fn try_submit(&mut self, plan: AccessPlan, cycle: u64) -> Result<(), AccessPlan> {
        if !self.can_accept() {
            return Err(plan);
        }
        assert!(
            plan.nodes.len() <= MAX_PLAN_NODES,
            "plan {} has {} nodes; the controller tracks at most {MAX_PLAN_NODES}",
            plan.request_id,
            plan.nodes.len()
        );
        assert!(
            plan.request_id < u64::MAX / MAX_PLAN_NODES as u64,
            "request id {} leaves no room for a node index in its DRAM ids",
            plan.request_id
        );
        let mut predecessor = [None; SubOram::COUNT];
        for sub in SubOram::ALL {
            if plan.nodes.iter().any(|n| n.sub == sub) {
                predecessor[sub.index()] = self.last_at_level[sub.index()];
                self.last_at_level[sub.index()] = Some(plan.request_id);
            }
        }
        self.stats.requests_accepted += 1;
        let mut req = InflightRequest::new(plan, cycle, predecessor);
        for i in 0..req.nodes.len() {
            if let Some(exp) = req.track_countdown(i, self.countdown_clock) {
                self.countdown_min = self.countdown_min.min(exp);
            }
        }
        self.inflight.push(req);
        Ok(())
    }

    /// Drains requests that retired since the last call.
    pub fn drain_finished(&mut self) -> Vec<FinishedRequest> {
        std::mem::take(&mut self.finished)
    }

    /// The in-flight slot of request `request_id`, found by scanning: there
    /// are at most `pe_columns` slots.
    fn slot_of(&self, request_id: u64) -> Option<usize> {
        self.inflight
            .iter()
            .position(|r| r.plan.request_id == request_id)
    }

    /// The in-flight slot and plan-node index a read completion routes to,
    /// by inverting [`dram_id`]; `None` for a posted-write completion.
    fn read_target(&self, completion: &MemCompletion) -> Option<(usize, usize)> {
        if completion.kind == MemOpKind::Write {
            return None;
        }
        let req_id = completion.id.0 / MAX_PLAN_NODES as u64;
        let node_idx = (completion.id.0 % MAX_PLAN_NODES as u64) as usize;
        Some((self.slot_of(req_id)?, node_idx))
    }

    fn predecessor_allows(&self, req: &InflightRequest, sub: SubOram) -> bool {
        let Some(pred_id) = req.predecessor[sub.index()] else {
            return true;
        };
        let Some(pred_idx) = self.slot_of(pred_id) else {
            return true; // predecessor already retired
        };
        let pred = &self.inflight[pred_idx];
        match self.config.policy {
            SchedulePolicy::Serial => pred.ordering_complete(),
            SchedulePolicy::PalermoMesh => pred.tree_handoff(sub, false),
            SchedulePolicy::PalermoSoftware => {
                // Coarse software locks: wait for the predecessor's tree
                // modifications to complete, and serialise the recursion
                // entry (PosMap2) behind the predecessor's PosMap1 read —
                // the mutex around the PosMap check described in §IV-C.
                let base = pred.tree_handoff(sub, true);
                if sub == SubOram::Pos2 {
                    base && pred.phase_complete(SubOram::Pos1, PhaseKind::ReadPath)
                } else {
                    base
                }
            }
        }
    }

    /// Flags the hand-off gates that read request `idx`'s state for
    /// re-evaluation: those of its successors, the later requests naming it
    /// as a level predecessor. Called whenever the request changes in a way
    /// some policy reads — a node drains, a node's last outstanding read
    /// returns, a node completes, or the request retires.
    fn notify_successors(&mut self, idx: usize) {
        let id = Some(self.inflight[idx].plan.request_id);
        for succ in &mut self.inflight[idx + 1..] {
            for (level, pred) in succ.predecessor.iter().enumerate() {
                if *pred == id {
                    succ.stale_levels |= 1 << level;
                }
            }
        }
    }

    /// Re-evaluates request `idx`'s closed gates whose predecessor changed
    /// since they were last evaluated, for the levels where a pending gate
    /// node has its dependencies met (the only ones a gate can hold back).
    fn refresh_gates(&mut self, idx: usize) {
        let req = &self.inflight[idx];
        let due = req.stale_levels & req.levels_of(req.pending & req.deps_met & req.gate_closed);
        if due == 0 {
            return;
        }
        for sub in SubOram::ALL {
            let level = sub.index();
            if due & (1 << level) == 0 {
                continue;
            }
            let open = self.predecessor_allows(&self.inflight[idx], sub);
            let req = &mut self.inflight[idx];
            req.stale_levels &= !(1 << level);
            if open {
                req.gate_closed &= !req.level_nodes[level];
            }
        }
    }

    /// The naive readiness definition the masks replace: a pending node may
    /// issue when every dependency is complete and, for a gate phase, the
    /// predecessor allows its level. Returns `(ready, blocked)` like
    /// [`InflightRequest::readiness`]; used only by debug assertions guarding
    /// the incremental bookkeeping.
    fn debug_naive_readiness(&self, req: &InflightRequest) -> (u64, u64) {
        let (mut ready, mut blocked) = (0u64, 0u64);
        for (i, node) in req.plan.nodes.iter().enumerate() {
            if req.nodes[i].next_op(node).is_none() {
                continue;
            }
            let deps_done = node.deps.iter().all(|d| req.node_state(*d).complete);
            let gate_phase = match node.phase {
                PhaseKind::LoadMetadata => true,
                PhaseKind::ReadPath => req
                    .plan
                    .node_id(node.sub, PhaseKind::LoadMetadata)
                    .is_none(),
                _ => false,
            };
            if deps_done && (!gate_phase || self.predecessor_allows(req, node.sub)) {
                ready |= 1 << i;
            } else {
                blocked |= 1 << i;
            }
        }
        (ready, blocked)
    }

    /// Advances the controller by one cycle: consumes DRAM completions,
    /// counts down compute latencies, issues ready memory operations and
    /// retires finished requests. The returned [`TickActivity`] tells the
    /// event-driven runner whether any state changed.
    ///
    /// The controller must be the only producer into `dram`'s queues: an
    /// operation a full queue turned away is retried only once the total
    /// queue depth has fallen, which other enqueues could mask. Debug builds
    /// check every retry this skips.
    pub fn tick(&mut self, dram: &mut DramSystem) -> TickActivity {
        let cycle = dram.cycle();
        self.stats.cycles += 1;
        let mut activity = TickActivity::default();

        // 1. Route DRAM read completions back to their plan nodes (posted
        //    writes carry no controller state), starting with any batch
        //    `absorb_completions` left in the buffer.
        let mut completions = std::mem::take(&mut self.completion_buf);
        dram.drain_completed_into(&mut completions);
        for completion in &completions {
            let Some((idx, node_idx)) = self.read_target(completion) else {
                continue;
            };
            let req = &mut self.inflight[idx];
            let node = &mut req.nodes[node_idx];
            node.outstanding_reads = node.outstanding_reads.saturating_sub(1);
            activity.completions_routed += 1;
            if node.outstanding_reads == 0 {
                // Min-merge so the conditional sweep below knows whether
                // this deadline is already due.
                if let Some(exp) = req.track_countdown(node_idx, self.countdown_clock) {
                    self.countdown_min = self.countdown_min.min(exp);
                }
                self.notify_successors(idx);
            }
        }
        completions.clear();
        self.completion_buf = completions;

        // 2. Update node completion states (compute countdown happens once a
        //    node's dependencies are met and its memory traffic is done).
        //    Deadlines are absolute in the countdown clock's domain, so a
        //    tick where the running minimum lies in the future provably
        //    completes nothing and skips the sweep outright. When the sweep
        //    does run, a node completing meets the last dependency of some of
        //    its dependents (dependencies always point backwards), which may
        //    make them countdown-eligible within the same cycle, exactly as
        //    the per-cycle reference's in-order sweep did: `track_countdown`
        //    inserts them behind the current position, so they are reached —
        //    completed or counted — in this same pass, which is why the sweep
        //    rebuilds the exact countdown minimum. (Mid-sweep tracks pass
        //    `clock - 1` as the deadline base: the reference decremented such
        //    nodes in this very sweep.)
        self.countdown_clock += 1;
        let clock = self.countdown_clock;
        if self.countdown_min <= clock {
            let mut countdown_min = u64::MAX;
            for idx in 0..self.inflight.len() {
                let req = &mut self.inflight[idx];
                if req.countdown.is_empty() {
                    continue;
                }
                let completed_before = activity.nodes_completed;
                let mut i = 0;
                while i < req.countdown.len() {
                    let n_idx = req.countdown[i] as usize;
                    let expiry = req.nodes[n_idx].compute_expiry;
                    if expiry > clock {
                        countdown_min = countdown_min.min(expiry);
                        i += 1;
                        continue;
                    }
                    req.countdown.remove(i);
                    req.complete_node(n_idx, clock);
                    activity.nodes_completed += 1;
                }
                if activity.nodes_completed > completed_before {
                    self.notify_successors(idx);
                }
            }
            self.countdown_min = countdown_min;
        }

        // 3. Issue ready memory operations, oldest request first, visiting
        //    each request's ready nodes in ascending index order. Readiness
        //    is read from the request's masks at the moment the pass reaches
        //    it: every event that changes an older request this tick (which
        //    is all a hand-off gate reads) has already flagged the gate.
        let width = self.config.issue_width;
        if dram.queued() != self.queued_after_pass {
            // A queue drained since the last pass: any rejected operation
            // may now be taken, so every request retries.
            for req in &mut self.inflight {
                req.dram_rejected = 0;
            }
        }
        let mut issued_this_cycle = 0usize;
        let mut blocked_levels = 0u8;
        let mut any_pending = false;
        let mut enqueue_blocked = false;
        let mut width_limited = false;
        let mut blocked_any = false;
        let mut leftover_pending = false;
        for idx in 0..self.inflight.len() {
            if issued_this_cycle >= width {
                width_limited = true;
                break;
            }
            // A fully-drained request contributes nothing to issue, stall, or
            // blocked-level state while it waits on completions or compute.
            if self.inflight[idx].pending == 0 {
                continue;
            }
            any_pending = true;
            self.refresh_gates(idx);
            let (ready, blocked) = self.inflight[idx].readiness();
            debug_assert_eq!(
                (ready, blocked),
                self.debug_naive_readiness(&self.inflight[idx]),
                "readiness masks of request {} diverged from the node state",
                self.inflight[idx].plan.request_id
            );
            // Node indices the scan reached: all of them, unless the issue
            // width fills first. The width rule is that of a scan over every
            // node index: it stops at the index after the one that filled
            // the width, and the tick is width-limited if any index (pending
            // or not) or any later request was left unvisited.
            let mut scanned = u64::MAX;
            let mut stop = false;
            for node_idx in bits(ready) {
                let req = &mut self.inflight[idx];
                if req.dram_rejected & (1 << node_idx) != 0 {
                    // Turned away by a full queue, and no queue has drained
                    // since: the attempt would fail again.
                    debug_assert!(
                        req.nodes[node_idx]
                            .next_op(&req.plan.nodes[node_idx])
                            .is_some_and(|(addr, _)| !dram.can_accept(addr)),
                        "skipped a DRAM retry the queue would have taken"
                    );
                    enqueue_blocked = true;
                    leftover_pending = true;
                    continue;
                }
                // Issue as many of this node's operations as the memory
                // controller will take this cycle.
                let plan_node = &req.plan.nodes[node_idx];
                let node = &mut req.nodes[node_idx];
                let id = dram_id(req.plan.request_id, node_idx);
                let mut rejected = false;
                while issued_this_cycle < width {
                    let Some((addr, is_write)) = node.next_op(plan_node) else {
                        break;
                    };
                    let mem_req = if is_write {
                        MemRequest::write(id, addr)
                    } else {
                        MemRequest::read(id, addr)
                    };
                    if !dram.try_enqueue(mem_req) {
                        enqueue_blocked = true;
                        rejected = true;
                        break;
                    }
                    issued_this_cycle += 1;
                    req.dram_ops += 1;
                    if is_write {
                        node.writes_issued += 1;
                        self.stats.dram_writes_issued += 1;
                    } else {
                        node.reads_issued += 1;
                        node.outstanding_reads += 1;
                        self.stats.dram_reads_issued += 1;
                    }
                }
                if rejected {
                    req.dram_rejected |= 1 << node_idx;
                } else {
                    req.dram_rejected &= !(1 << node_idx);
                }
                if node.next_op(plan_node).is_some() {
                    // Ready work left over because the issue width ran out
                    // mid-node (not because DRAM pushed back) means the
                    // controller will issue again next cycle: the tick
                    // cannot settle.
                    leftover_pending = true;
                    if !rejected {
                        width_limited = true;
                    }
                } else {
                    req.pending &= !(1 << node_idx);
                    if req.nodes[node_idx].outstanding_reads == 0 {
                        // A node fully issued with nothing outstanding
                        // (posted writes only) starts its compute countdown
                        // next cycle; the clock already counted this tick's
                        // sweep, so the current value is the correct
                        // deadline base.
                        if let Some(exp) = req.track_countdown(node_idx, self.countdown_clock) {
                            self.countdown_min = self.countdown_min.min(exp);
                        }
                    }
                    // A later request's gate may open in this same tick.
                    self.notify_successors(idx);
                }
                if issued_this_cycle >= width {
                    scanned = mask_through(node_idx);
                    if node_idx + 1 < self.inflight[idx].nodes.len()
                        || idx + 1 < self.inflight.len()
                    {
                        width_limited = true;
                        stop = true;
                    }
                    break;
                }
            }
            let blocked = blocked & scanned;
            if blocked != 0 {
                blocked_any = true;
                blocked_levels |= self.inflight[idx].levels_of(blocked);
            }
            if stop {
                break;
            }
        }

        let queued = dram.queued();
        self.queued_after_pass = queued;
        let blocked_levels: [bool; SubOram::COUNT] =
            std::array::from_fn(|level| blocked_levels & (1 << level) != 0);

        // 4. Stall accounting for the Fig. 3 breakdown: a cycle in which the
        //    controller had work but could not issue anything, while the
        //    memory queues were starved, is an ORAM-sync stall attributed to
        //    the levels whose nodes were dependency-blocked.
        if issued_this_cycle == 0 && any_pending && queued < SYNC_STALL_QUEUE_DEPTH {
            self.stats.sync_stall_cycles += 1;
            for sub in SubOram::ALL {
                if blocked_levels[sub.index()] {
                    self.stats.sync_stall_by_level[sub.index()] += 1;
                }
            }
        } else if issued_this_cycle > 0 {
            self.stats.issue_cycles += 1;
        }
        self.stats.issued_ops += issued_this_cycle as u64;
        activity.ops_issued = issued_this_cycle as u64;
        // Remember the stall-accounting inputs: they stay frozen through any
        // skipped cycles, so skip_cycles_window can replay the rule exactly.
        self.last_any_pending = any_pending;
        self.last_blocked_levels = blocked_levels;
        self.enqueue_blocked = enqueue_blocked;

        // 5. Retire finished requests. A retiring request grants every
        //    hand-off it held.
        let mut idx = 0;
        while idx < self.inflight.len() {
            if self.inflight[idx].is_finished() {
                self.notify_successors(idx);
                let req = self.inflight.remove(idx);
                self.stats.requests_finished += 1;
                activity.requests_retired += 1;
                self.finished.push(FinishedRequest {
                    request_id: req.plan.request_id,
                    submitted_at: req.submitted_at,
                    finished_at: cycle,
                    is_dummy: req.plan.is_dummy,
                    dram_ops: req.dram_ops,
                });
            } else {
                idx += 1;
            }
        }

        // 6. Settling: decide whether the controller can possibly act next
        //    cycle without an external event. A retire may unblock a
        //    predecessor chain (and the runner's staged plan), and a width-
        //    limited issue pass resumes next cycle, so neither settles. For
        //    a settled-but-active tick the in-loop `any_pending` may describe
        //    nodes that fully drained this very cycle, so the saved value is
        //    rebuilt from the post-tick facts gathered during the issue pass:
        //    dependency-blocked nodes survive the tick untouched (their
        //    readiness is frozen until the next event) and leftover pending
        //    ops on a settled tick can only be DRAM-rejected work. Skipped
        //    cycles then account stalls exactly as the per-cycle reference
        //    would have.
        activity.settled = activity.requests_retired == 0 && !width_limited;
        if activity.settled && activity.any() {
            self.last_any_pending = blocked_any || leftover_pending;
        }
        activity
    }

    /// The earliest absolute cycle at which a future [`OramController::tick`]
    /// could change controller state on its own, assuming no DRAM completions
    /// and no new submissions arrive in between — i.e. the tick in which the
    /// nearest running compute countdown reaches zero. `now` is the cycle the
    /// next tick would execute at. Returns `None` when no node is counting
    /// down (the controller is then fully at the mercy of DRAM events).
    ///
    /// A node whose deadline stands `k` clock steps ahead after a quiet tick
    /// completes during the tick at `now + k - 1`; every earlier tick merely
    /// advances the clock, which [`OramController::skip_cycles_window`]
    /// replays in bulk.
    pub fn next_wakeup(&self, now: u64) -> Option<u64> {
        debug_assert_eq!(
            self.countdown_min,
            self.debug_recompute_countdown_min(),
            "running countdown minimum diverged from the node state"
        );
        if self.countdown_min == u64::MAX {
            return None;
        }
        // After a settled tick every tracked deadline is at or past the
        // clock (the sweep just retired everything due); max(1) keeps the
        // prediction safe ("wake immediately") for a deadline landing on
        // the very next sweep.
        debug_assert!(self.countdown_min >= self.countdown_clock);
        let remaining = self.countdown_min - self.countdown_clock;
        Some(now + remaining.max(1) - 1)
    }

    /// O(nodes) recomputation of the running countdown minimum, used only by
    /// debug assertions guarding the incremental bookkeeping.
    fn debug_recompute_countdown_min(&self) -> u64 {
        let mut min = u64::MAX;
        for req in &self.inflight {
            for &n in &req.countdown {
                min = min.min(req.nodes[n as usize].compute_expiry);
            }
        }
        min
    }

    /// Accounts `total` provably-quiet cycles in bulk: cycle and stall
    /// counters advance exactly as if [`OramController::tick`] had run
    /// `total` times with no completions, no issues and no node finishing,
    /// and every running compute countdown advances by `total`.
    ///
    /// `stalled` is how many of those cycles had fewer than
    /// [`SYNC_STALL_QUEUE_DEPTH`] DRAM requests queued. The queue depth is
    /// the only stall-rule input a skip does not freeze (`last_any_pending`,
    /// the blocked-level mask and every countdown stay put), so a stepper
    /// that executes DRAM commands inside one window counts it per segment
    /// and flushes the window with one call.
    ///
    /// Callers must only skip cycles strictly before both
    /// [`OramController::next_wakeup`] and the DRAM model's next event, and
    /// only after a settled tick (see [`TickActivity::settled`]). Deadlines
    /// are absolute, so the whole skip is one addition to the countdown
    /// clock.
    pub fn skip_cycles_window(&mut self, total: u64, stalled: u64) {
        debug_assert!(stalled <= total);
        self.stats.cycles += total;
        if self.last_any_pending && stalled > 0 {
            self.stats.sync_stall_cycles += stalled;
            for sub in SubOram::ALL {
                if self.last_blocked_levels[sub.index()] {
                    self.stats.sync_stall_by_level[sub.index()] += stalled;
                }
            }
        }
        self.countdown_clock += total;
        debug_assert!(
            total == 0
                || self.countdown_min == u64::MAX
                || self.countdown_min > self.countdown_clock,
            "skip of {total} cycles overran the nearest compute deadline"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palermo_dram::DramConfig;
    use palermo_oram::access_plan::AccessPlanBuilder;
    use palermo_oram::types::{OramOp, PhysAddr};

    /// Spreads plan base addresses across DRAM banks and rows the way real
    /// ORAM traffic does (random leaf selection); a regular power-of-two
    /// stride would alias every plan onto one bank and measure bank-conflict
    /// serialisation instead of controller behaviour.
    fn scattered_base(i: u64) -> u64 {
        (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 34) << 6
    }

    fn simple_plan(id: u64, base_addr: u64, reads_per_node: usize) -> AccessPlan {
        let mut b = AccessPlanBuilder::new(id, PhysAddr::new(0), OramOp::Read);
        let mut addr = base_addr;
        let mut mk = |n: usize| {
            let v: Vec<u64> = (0..n).map(|i| addr + i as u64 * 64).collect();
            addr += n as u64 * 64;
            v
        };
        let lm2 = b.push(
            SubOram::Pos2,
            PhaseKind::LoadMetadata,
            mk(reads_per_node),
            vec![],
            vec![],
            0,
        );
        let rp2 = b.push(
            SubOram::Pos2,
            PhaseKind::ReadPath,
            mk(reads_per_node),
            vec![],
            vec![lm2],
            2,
        );
        let er2 = b.push(
            SubOram::Pos2,
            PhaseKind::EarlyReshuffle,
            vec![],
            mk(2),
            vec![lm2],
            0,
        );
        let lm1 = b.push(
            SubOram::Pos1,
            PhaseKind::LoadMetadata,
            mk(reads_per_node),
            vec![],
            vec![rp2],
            0,
        );
        let rp1 = b.push(
            SubOram::Pos1,
            PhaseKind::ReadPath,
            mk(reads_per_node),
            vec![],
            vec![lm1],
            2,
        );
        let lm0 = b.push(
            SubOram::Data,
            PhaseKind::LoadMetadata,
            mk(reads_per_node),
            vec![],
            vec![rp1],
            0,
        );
        let _rp0 = b.push(
            SubOram::Data,
            PhaseKind::ReadPath,
            mk(reads_per_node),
            vec![],
            vec![lm0],
            2,
        );
        let _ = er2;
        b.build()
    }

    fn run_to_completion(
        controller: &mut OramController,
        dram: &mut DramSystem,
        plans: Vec<AccessPlan>,
        limit: u64,
    ) -> Vec<FinishedRequest> {
        drive(controller, dram, plans, limit, false).0
    }

    /// Runs `plans` to completion one cycle at a time. With `absorb`, every
    /// DRAM tick that completes something is followed by
    /// [`OramController::absorb_completions`]; the counts returned are the
    /// batches it absorbed and the batches it left for the next tick.
    fn drive(
        controller: &mut OramController,
        dram: &mut DramSystem,
        plans: Vec<AccessPlan>,
        limit: u64,
        absorb: bool,
    ) -> (Vec<FinishedRequest>, u64, u64) {
        let mut queue: std::collections::VecDeque<AccessPlan> = plans.into();
        let total = queue.len();
        let mut finished = Vec::new();
        let (mut absorbed, mut left) = (0, 0);
        while finished.len() < total {
            if let Some(plan) = queue.pop_front() {
                if let Err(plan) = controller.try_submit(plan, dram.cycle()) {
                    queue.push_front(plan);
                }
            }
            controller.tick(dram);
            if dram.tick().completions && absorb {
                if controller.absorb_completions(dram) {
                    absorbed += 1;
                } else {
                    left += 1;
                }
            }
            finished.extend(controller.drain_finished());
            assert!(dram.cycle() < limit, "simulation did not converge");
        }
        (finished, absorbed, left)
    }

    #[test]
    fn single_plan_completes() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        let finished = run_to_completion(&mut ctrl, &mut dram, vec![simple_plan(0, 0, 4)], 100_000);
        assert_eq!(finished.len(), 1);
        assert!(finished[0].latency() > 0);
        assert_eq!(ctrl.stats().requests_finished, 1);
        assert_eq!(ctrl.inflight(), 0);
        // Every burst the controller issued belongs to the one request.
        assert_eq!(finished[0].dram_ops, ctrl.stats().issued_ops);
        assert!(finished[0].dram_ops > 0);
    }

    #[test]
    fn unfinished_requests_name_their_nodes_and_outstanding_reads() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        assert!(ctrl.try_submit(simple_plan(5, 0, 4), 0).is_ok());
        ctrl.tick(&mut dram);
        // Only the first node is ready, so every read issued is its own.
        let reads = ctrl.stats().dram_reads_issued as usize;
        assert!(reads > 0);
        let stuck = ctrl.unfinished_requests();
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].request_id, 5);
        assert_eq!(
            stuck[0].unfinished_nodes,
            (0..7)
                .map(|i| (i, if i == 0 { reads } else { 0 }))
                .collect::<Vec<_>>()
        );
        while ctrl.inflight() > 0 {
            ctrl.tick(&mut dram);
            dram.tick();
            assert!(dram.cycle() < 100_000, "simulation did not converge");
        }
        assert!(ctrl.unfinished_requests().is_empty());
    }

    #[test]
    fn per_request_dram_ops_sum_to_the_issue_counters() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::palermo_sw_default());
        let plans: Vec<AccessPlan> = (0..6).map(|i| simple_plan(i, i % 3, 4)).collect();
        let finished = run_to_completion(&mut ctrl, &mut dram, plans, 500_000);
        assert_eq!(finished.len(), 6);
        let per_request: u64 = finished.iter().map(|f| f.dram_ops).sum();
        assert_eq!(per_request, ctrl.stats().issued_ops);
        assert_eq!(
            per_request,
            ctrl.stats().dram_reads_issued + ctrl.stats().dram_writes_issued
        );
        assert!(finished.iter().all(|f| f.dram_ops > 0));
    }

    #[test]
    fn serial_policy_orders_requests() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        let plans: Vec<AccessPlan> = (0..4)
            .map(|i| simple_plan(i, scattered_base(i), 4))
            .collect();
        let finished = run_to_completion(&mut ctrl, &mut dram, plans, 500_000);
        assert_eq!(finished.len(), 4);
        // Completion order must match submission order for the serial policy.
        let order: Vec<u64> = finished.iter().map(|f| f.request_id).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn palermo_mesh_overlaps_requests() {
        // The same plan stream must finish in fewer cycles under the mesh
        // policy than under the serial policy — the core co-design claim.
        let run = |config: ControllerConfig| {
            let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
            let mut ctrl = OramController::new(config);
            let plans: Vec<AccessPlan> = (0..24)
                .map(|i| simple_plan(i, scattered_base(i), 16))
                .collect();
            run_to_completion(&mut ctrl, &mut dram, plans, 2_000_000);
            dram.cycle()
        };
        let serial = run(ControllerConfig::serial_default());
        let mesh = run(ControllerConfig::palermo_default());
        assert!(
            (mesh as f64) < serial as f64 * 0.8,
            "mesh {mesh} not faster than serial {serial}"
        );
    }

    #[test]
    fn palermo_sw_is_between_serial_and_mesh() {
        let run = |config: ControllerConfig| {
            let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
            let mut ctrl = OramController::new(config);
            let plans: Vec<AccessPlan> = (0..24)
                .map(|i| simple_plan(i, scattered_base(i), 16))
                .collect();
            run_to_completion(&mut ctrl, &mut dram, plans, 2_000_000);
            dram.cycle()
        };
        let serial = run(ControllerConfig::serial_default());
        let sw = run(ControllerConfig::palermo_sw_default());
        let mesh = run(ControllerConfig::palermo_default());
        assert!(mesh <= sw, "mesh {mesh} vs sw {sw}");
        assert!(sw <= serial, "sw {sw} vs serial {serial}");
    }

    #[test]
    fn capacity_is_respected() {
        let mut ctrl = OramController::new(ControllerConfig {
            policy: SchedulePolicy::PalermoMesh,
            pe_columns: 2,
            issue_width: 8,
        });
        assert!(ctrl.try_submit(simple_plan(0, 0, 2), 0).is_ok());
        assert!(ctrl
            .try_submit(simple_plan(1, scattered_base(1), 2), 0)
            .is_ok());
        assert!(!ctrl.can_accept());
        assert!(ctrl
            .try_submit(simple_plan(2, scattered_base(2), 2), 0)
            .is_err());
        assert_eq!(ctrl.inflight(), 2);
    }

    #[test]
    fn stats_track_issue_and_stall_cycles() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::serial_default());
        run_to_completion(
            &mut ctrl,
            &mut dram,
            vec![simple_plan(0, 0, 8), simple_plan(1, scattered_base(1), 8)],
            200_000,
        );
        let stats = ctrl.stats();
        assert!(stats.dram_reads_issued > 0);
        assert!(stats.dram_writes_issued > 0);
        assert!(stats.cycles > 0);
        assert!(stats.sync_stall_cycles > 0, "serial execution must stall");
        assert_eq!(stats.requests_accepted, 2);
        assert_eq!(stats.requests_finished, 2);
    }

    #[test]
    fn finished_latency_is_consistent() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        let finished = run_to_completion(&mut ctrl, &mut dram, vec![simple_plan(3, 0, 4)], 100_000);
        assert_eq!(finished[0].request_id, 3);
        assert!(finished[0].finished_at >= finished[0].submitted_at);
        assert!(!finished[0].is_dummy);
    }

    /// Runs request 0 (Pos2 LoadMetadata -> ReadPath -> EvictPath with one
    /// write) and request 1 (Pos2 LoadMetadata) under the PE mesh, and
    /// returns the DRAM reads issued by the end of the tick that issued the
    /// EvictPath write. With `reject_first`, a channel queue of depth one is
    /// kept full of outside writes until the EvictPath write has been turned
    /// away once, so the tick that finally issues it carries no other event
    /// of request 0.
    fn reads_issued_with_the_hand_off(reject_first: bool) -> u64 {
        // Block `i` maps to channel `i % 4`: the EvictPath write and the
        // filler share channel 0, every read has a channel of its own.
        let block = |i: u64| vec![i * 64];
        let mut b = AccessPlanBuilder::new(0, PhysAddr::new(0), OramOp::Read);
        let lm = b.push(
            SubOram::Pos2,
            PhaseKind::LoadMetadata,
            block(2),
            vec![],
            vec![],
            0,
        );
        let rp = b.push(
            SubOram::Pos2,
            PhaseKind::ReadPath,
            block(3),
            vec![],
            vec![lm],
            0,
        );
        b.push(
            SubOram::Pos2,
            PhaseKind::EvictPath,
            vec![],
            block(4),
            vec![rp],
            0,
        );
        let first = b.build();
        let mut b = AccessPlanBuilder::new(1, PhysAddr::new(0), OramOp::Read);
        b.push(
            SubOram::Pos2,
            PhaseKind::LoadMetadata,
            block(5),
            vec![],
            vec![],
            0,
        );
        let second = b.build();

        let mut dram_config = DramConfig::ddr4_3200_quad_channel();
        dram_config.queue_capacity = 1;
        let mut dram = DramSystem::new(dram_config);
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        assert!(ctrl.try_submit(first, 0).is_ok());
        assert!(ctrl.try_submit(second, 0).is_ok());
        // Refilling channel 0 from outside the controller keeps the skipped
        // retries exact: the only operation it turns away targets that same
        // channel.
        let mut filler_id = 1 << 40;
        let mut rejected = !reject_first;
        loop {
            if !rejected && dram.try_enqueue(MemRequest::write(filler_id, 1 << 20)) {
                filler_id += 1;
            }
            ctrl.tick(&mut dram);
            rejected |= ctrl.enqueue_blocked();
            dram.tick();
            let stats = ctrl.stats();
            if stats.dram_writes_issued == 1 {
                assert!(rejected, "the EvictPath write was never turned away");
                return stats.dram_reads_issued;
            }
            assert!(
                stats.dram_reads_issued <= 2,
                "request 1's LoadMetadata issued before the hand-off"
            );
            assert!(dram.cycle() < 100_000, "EvictPath never issued");
        }
    }

    #[test]
    fn mesh_hand_off_issues_in_the_same_tick() {
        // The PE mesh hands a level off once the predecessor's
        // tree-modifying phases have issued: request 1's LoadMetadata read
        // issues in the very tick that issues request 0's EvictPath, whether
        // or not that write was first turned away by a full queue.
        for reject_first in [false, true] {
            assert_eq!(
                reads_issued_with_the_hand_off(reject_first),
                3,
                "hand-off tick missed request 1's LoadMetadata (reject_first: {reject_first})"
            );
        }
    }

    #[test]
    fn traffic_free_node_completes_after_its_dependencies() {
        // An EarlyReshuffle whose buckets all sit in the on-chip treetop has
        // no traffic, but it still follows its LoadMetadata: the ReadPath
        // behind it may not issue before the metadata read has returned.
        let mut b = AccessPlanBuilder::new(0, PhysAddr::new(0), OramOp::Read);
        let lm = b.push(
            SubOram::Pos2,
            PhaseKind::LoadMetadata,
            vec![0],
            vec![],
            vec![],
            0,
        );
        let er = b.push(
            SubOram::Pos2,
            PhaseKind::EarlyReshuffle,
            vec![],
            vec![],
            vec![lm],
            0,
        );
        b.push(
            SubOram::Pos2,
            PhaseKind::ReadPath,
            vec![64],
            vec![],
            vec![er],
            0,
        );
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        assert!(ctrl.try_submit(b.build(), 0).is_ok());
        while ctrl.stats().dram_reads_issued < 2 {
            ctrl.tick(&mut dram);
            dram.tick();
            if ctrl.stats().dram_reads_issued == 2 {
                assert!(
                    ctrl.inflight[0].nodes[lm.0 as usize].complete,
                    "ReadPath issued before its LoadMetadata read returned"
                );
            }
            assert!(dram.cycle() < 100_000, "ReadPath never issued");
        }
        while ctrl.inflight() > 0 {
            ctrl.tick(&mut dram);
            dram.tick();
            assert!(dram.cycle() < 100_000, "request never retired");
        }
        assert_eq!(ctrl.drain_finished().len(), 1);
    }

    /// Request 0 with one Pos2 node that reads `reads` and then writes
    /// `writes`.
    fn one_node_plan(reads: Vec<u64>, writes: Vec<u64>) -> AccessPlan {
        let mut b = AccessPlanBuilder::new(0, PhysAddr::new(0), OramOp::Read);
        b.push(
            SubOram::Pos2,
            PhaseKind::EvictPath,
            reads,
            writes,
            vec![],
            0,
        );
        b.build()
    }

    /// A Palermo controller that has issued `one_node_plan(reads, writes)`
    /// in its first tick, with the DRAM system it issued to.
    fn issued(reads: Vec<u64>, writes: Vec<u64>) -> (OramController, DramSystem) {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        assert!(ctrl.try_submit(one_node_plan(reads, writes), 0).is_ok());
        ctrl.tick(&mut dram);
        (ctrl, dram)
    }

    /// Ticks `dram` alone until one of its ticks completes something.
    fn tick_until_completion(dram: &mut DramSystem) {
        while !dram.tick().completions {
            assert!(dram.cycle() < 100_000, "no DRAM completion");
        }
    }

    #[test]
    fn absorbing_drops_posted_writes() {
        // Block `i` maps to channel `i % 4`. The write (block 1) posts at
        // its column command, while the read (block 0, issued in the same
        // cycle on its own channel) is still on its way back.
        let (mut ctrl, mut dram) = issued(vec![0], vec![64]);
        tick_until_completion(&mut dram);
        let before = format!("{:?}", ctrl.inflight);
        assert!(ctrl.absorb_completions(&mut dram));
        assert!(ctrl.completion_buf.is_empty());
        assert!(dram.drain_completed().is_empty());
        assert_eq!(format!("{:?}", ctrl.inflight), before);
        assert_eq!(ctrl.inflight[0].nodes[0].outstanding_reads, 1);
    }

    #[test]
    fn absorbing_a_partial_read_only_decrements_its_node() {
        // Blocks 0 and 4 share channel 0 and return on different cycles.
        let (mut ctrl, mut dram) = issued(vec![0, 256], vec![]);
        tick_until_completion(&mut dram);
        let mut expected = ctrl.inflight.clone();
        expected[0].nodes[0].outstanding_reads -= 1;
        let (stats, countdown_min) = (ctrl.stats, ctrl.countdown_min);
        assert!(ctrl.absorb_completions(&mut dram));
        assert!(ctrl.completion_buf.is_empty());
        assert_eq!(format!("{:?}", ctrl.inflight), format!("{expected:?}"));
        assert_eq!(ctrl.inflight[0].nodes[0].outstanding_reads, 1);
        assert_eq!((ctrl.stats, ctrl.countdown_min), (stats, countdown_min));
    }

    #[test]
    fn a_batch_holding_a_nodes_last_read_is_left_for_the_next_tick() {
        let (mut ctrl, mut dram) = issued(vec![0, 256], vec![]);
        tick_until_completion(&mut dram);
        assert!(ctrl.absorb_completions(&mut dram));
        tick_until_completion(&mut dram);
        let before = format!("{:?}", ctrl.inflight);
        assert!(!ctrl.absorb_completions(&mut dram));
        assert_eq!(ctrl.completion_buf.len(), 1);
        assert!(dram.drain_completed().is_empty());
        assert_eq!(format!("{:?}", ctrl.inflight), before);
        // The next tick routes the batch it was left, which completes the
        // node and with it the request.
        assert_eq!(ctrl.tick(&mut dram).completions_routed, 1);
        assert_eq!(ctrl.drain_finished().len(), 1);

        // Absorbing after every DRAM tick, and leaving the batches it must,
        // retires the same requests at the same cycles with the same
        // statistics as routing every completion in the next tick.
        let configs = [
            ControllerConfig::serial_default(),
            ControllerConfig::palermo_default(),
            ControllerConfig::palermo_sw_default(),
        ];
        for config in configs {
            let run = |absorb: bool| {
                let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
                let mut ctrl = OramController::new(config);
                let plans = (0..8)
                    .map(|i| simple_plan(i, scattered_base(i), 4))
                    .collect();
                let (finished, absorbed, left) =
                    drive(&mut ctrl, &mut dram, plans, 1_000_000, absorb);
                (finished, *ctrl.stats(), absorbed, left)
            };
            let (finished, stats, _, _) = run(false);
            let (absorbing_finished, absorbing_stats, absorbed, left) = run(true);
            assert!(
                absorbed > 0 && left > 0,
                "{config:?}: {absorbed} absorbed, {left} left"
            );
            assert_eq!(absorbing_finished, finished, "{config:?}");
            assert_eq!(absorbing_stats, stats, "{config:?}");
        }
    }

    #[test]
    fn a_retry_is_due_only_once_a_rejected_ops_channel_has_room() {
        // The node's reads (blocks 0 and 4) share channel 0, whose one-deep
        // queue takes only the first. An outside read enqueued a few cycles
        // earlier fills channel 1, which therefore drains first.
        let mut dram_config = DramConfig::ddr4_3200_quad_channel();
        dram_config.queue_capacity = 1;
        let mut dram = DramSystem::new(dram_config);
        assert!(dram.try_enqueue(MemRequest::read(1 << 40, 64)));
        for _ in 0..4 {
            dram.tick();
        }
        let mut ctrl = OramController::new(ControllerConfig::palermo_default());
        assert!(ctrl
            .try_submit(one_node_plan(vec![0, 256], vec![]), dram.cycle())
            .is_ok());
        ctrl.tick(&mut dram);
        assert!(ctrl.enqueue_blocked());
        let mut other_channel_drained = false;
        while !dram.can_accept(0) {
            assert!(
                !ctrl.retry_would_issue(&dram),
                "retry due at cycle {} with channel 0 still full",
                dram.cycle()
            );
            dram.tick();
            other_channel_drained |= dram.can_accept(64);
            assert!(dram.cycle() < 100_000, "channel 0 never drained");
        }
        assert!(other_channel_drained, "channel 1 did not drain first");
        assert!(ctrl.retry_would_issue(&dram));
        let reads = ctrl.stats().dram_reads_issued;
        ctrl.tick(&mut dram);
        assert_eq!(ctrl.stats().dram_reads_issued, reads + 1);
    }
}
