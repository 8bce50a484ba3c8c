//! One DRAM channel: bank state machines plus an FR-FCFS scheduler.
//!
//! Every cycle the channel may issue at most one command on its command bus.
//! The scheduler follows the standard FR-FCFS policy: column commands to
//! already-open rows first (oldest first), then activates, then precharges
//! for conflicting rows. Data-bus occupancy is enforced by spacing column
//! commands at least a burst apart, which bounds the achievable bandwidth at
//! the DDR4 peak and makes the bandwidth-utilisation statistics meaningful.
//!
//! # Per-bank command queues
//!
//! Requests are queued per bank rather than in one channel-wide list. Within
//! a bank, every queued request of the same scheduling class (column to the
//! open row / activate / precharge of a conflicting row) shares one
//! bank-local ready cycle, so each bank caches just its oldest candidate per
//! class (`BankCand`) and publishes the class's bank-local ready cycle into
//! an O(log B) [`MinTree`] (one per class). Channel-global constraints —
//! command-bus spacing, tCCD_L, tRRD, tFAW — are applied at decision time as
//! per-bank-group floors, so issuing on one bank never invalidates another
//! bank's cache: cold banks are written once when touched and never
//! rescanned. A validated geometry makes every bank group an aligned
//! power-of-two block of leaves, so one tree node holds a group's minimum
//! and a pass skips a group with nothing due without visiting its banks.
//! Global age ordering across banks uses a monotone per-channel
//! sequence number stamped at enqueue, which makes "oldest ready first"
//! a min-seq reduction over at most B cached candidates instead of a scan
//! over every queued request.
//!
//! For the event-driven simulation core the channel additionally predicts
//! [`Channel::next_event_cycle`] — the earliest future cycle at which a tick
//! could do anything (issue a command or return read data). Between now and
//! that cycle every tick is a provable no-op, so the caller may replace the
//! intervening ticks with one [`Channel::skip_cycles`] call that performs the
//! identical per-cycle statistics accounting in bulk.

use crate::address::DramCoord;
use crate::config::DramConfig;
use crate::mintree::MinTree;
use crate::request::{MemCompletion, MemOpKind, MemRequest, RowBufferResult};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    next_activate: u64,
    next_precharge: u64,
    next_column: u64,
}

#[derive(Debug, Clone)]
struct QueuedRequest {
    req: MemRequest,
    coord: DramCoord,
    /// Flat bank index, precomputed at enqueue for the scan hot path.
    flat_bank: usize,
    /// Channel-wide arrival sequence number: the FR-FCFS age order across
    /// banks (bank queues are FIFO, so within a bank the front is oldest).
    seq: u64,
    enqueued_at: u64,
    row_result: Option<RowBufferResult>,
}

/// Cached oldest candidate per scheduling class for one bank: `(seq, pos)`
/// of the oldest queued request that is a column hit / a precharge cause.
/// The activate candidate needs no cache — with no open row every queued
/// request wants an activate and the front of the FIFO is the oldest.
/// Refreshed whenever the bank's queue membership or open row changes.
#[derive(Debug, Clone, Copy, Default)]
struct BankCand {
    col: Option<(u64, u32)>,
    pre: Option<(u64, u32)>,
}

/// Per-channel statistics counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Read bursts issued: a read counts when its column command issues,
    /// before its data returns.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Column accesses that found their row open.
    pub row_hits: u64,
    /// Column accesses that only needed an activate.
    pub row_misses: u64,
    /// Column accesses that had to close another row first.
    pub row_conflicts: u64,
    /// Cycles the data bus was transferring data.
    pub data_bus_busy_cycles: u64,
    /// Sum over cycles of the number of queued requests.
    pub queue_occupancy_sum: u64,
    /// Sum of read latencies (enqueue to data return), cycles.
    pub read_latency_sum: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
}

/// What one [`Channel::tick`] observably did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelTickResult {
    /// A command (column, activate or precharge) was issued.
    pub issued: bool,
    /// Completions were produced (read data returned or a write posted).
    pub completions: bool,
}

impl ChannelTickResult {
    /// `true` if the tick changed any channel state.
    pub fn any(&self) -> bool {
        self.issued || self.completions
    }
}

/// A single DRAM channel with its banks, per-bank queues and scheduler.
#[derive(Debug, Clone)]
pub struct Channel {
    config: DramConfig,
    banks: Vec<BankState>,
    /// Per-bank FIFO command queues (seq-ascending by construction).
    bank_queues: Vec<VecDeque<QueuedRequest>>,
    /// Per-bank cached oldest candidate per scheduling class.
    cand: Vec<BankCand>,
    /// Bank-local ready cycle of each bank's column candidate
    /// (`bank.next_column`, or `u64::MAX` with no candidate).
    col_tree: MinTree,
    /// Bank-local ready cycle of each bank's activate candidate
    /// (`bank.next_activate`, or `u64::MAX` with no candidate).
    act_tree: MinTree,
    /// Bank-local ready cycle of each bank's precharge candidate
    /// (`bank.next_precharge`, or `u64::MAX` with no candidate).
    pre_tree: MinTree,
    /// Total queued requests across all bank queues.
    queue_len: usize,
    /// Next arrival sequence number.
    next_seq: u64,
    /// Earliest cycle the next column command may issue (data-bus spacing).
    next_column_cmd: u64,
    /// Cycle and bank group of the last column command (tCCD_L).
    last_column: Option<(u64, u32)>,
    /// Cycle and bank group of the last activate (tRRD).
    last_activate: Option<(u64, u32)>,
    /// Recent activate cycles for the tFAW window.
    recent_activates: VecDeque<u64>,
    /// Reads waiting for their data to come back.
    in_flight_reads: Vec<(u64, MemCompletion)>,
    completed: Vec<MemCompletion>,
    stats: ChannelStats,
    /// Cached earliest cycle at which any *queued* request becomes
    /// actionable. Invalidated (None) by command issues, min-updated in
    /// O(1) by enqueues, and — deliberately — left untouched by read
    /// retirements, which change no bank or bus state.
    queue_next: Option<u64>,
    /// Earliest data-return cycle among in-flight reads (`u64::MAX` when
    /// none). Min-updated on read issue, recomputed on retirement.
    inflight_next: u64,
}

impl Channel {
    /// Creates an idle channel for a configuration that passes
    /// [`DramConfig::validate`] (the per-group tree lookups rely on its
    /// power-of-two bank geometry).
    pub fn new(config: DramConfig) -> Self {
        let banks = config.banks_per_channel() as usize;
        Channel {
            banks: vec![BankState::default(); banks],
            bank_queues: vec![VecDeque::new(); banks],
            cand: vec![BankCand::default(); banks],
            col_tree: MinTree::new(banks),
            act_tree: MinTree::new(banks),
            pre_tree: MinTree::new(banks),
            queue_len: 0,
            next_seq: 0,
            next_column_cmd: 0,
            last_column: None,
            last_activate: None,
            recent_activates: VecDeque::with_capacity(4),
            in_flight_reads: Vec::new(),
            completed: Vec::new(),
            stats: ChannelStats::default(),
            queue_next: Some(u64::MAX),
            inflight_next: u64::MAX,
            config,
        }
    }

    /// Returns `true` if the queue has space for another request.
    pub fn can_accept(&self) -> bool {
        self.queue_len < self.config.queue_capacity
    }

    /// Number of requests currently queued (not yet issued to a bank).
    pub fn queue_len(&self) -> usize {
        self.queue_len
    }

    /// Number of requests queued or waiting for data return.
    pub fn outstanding(&self) -> usize {
        self.queue_len + self.in_flight_reads.len()
    }

    /// Per-channel statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Enqueues a request. Returns `false` (and drops nothing) if the queue
    /// is full; the caller must retry later.
    pub fn enqueue(&mut self, req: MemRequest, coord: DramCoord, cycle: u64) -> bool {
        if !self.can_accept() {
            return false;
        }
        let entry = QueuedRequest {
            req,
            coord,
            flat_bank: coord.flat_bank(&self.config),
            seq: self.next_seq,
            enqueued_at: cycle,
            row_result: None,
        };
        self.next_seq += 1;
        // Enqueueing changes no bank or bus state, so cached predictions for
        // existing entries stay valid; the new entry can only pull the next
        // event earlier. An O(1) min-update keeps issue bursts from forcing
        // a full rescan every cycle.
        if let Some(cached) = self.queue_next {
            let at = self.entry_earliest(&entry);
            self.queue_next = Some(cached.min(at));
        }
        // The newest request only becomes a class candidate when its bank
        // slot was empty (it is the youngest by construction), so the bank
        // cache updates in O(1) without a rescan.
        let b = entry.flat_bank;
        let pos = self.bank_queues[b].len() as u32;
        match self.banks[b].open_row {
            None => {
                if pos == 0 {
                    self.act_tree.set(b, self.banks[b].next_activate);
                }
            }
            Some(row) if row == entry.coord.row => {
                if self.cand[b].col.is_none() {
                    self.cand[b].col = Some((entry.seq, pos));
                    self.col_tree.set(b, self.banks[b].next_column);
                }
            }
            Some(_) => {
                if self.cand[b].pre.is_none() {
                    self.cand[b].pre = Some((entry.seq, pos));
                    self.pre_tree.set(b, self.banks[b].next_precharge);
                }
            }
        }
        self.bank_queues[b].push_back(entry);
        self.queue_len += 1;
        true
    }

    /// Bank group of a flat bank index (banks are bank-group-major).
    /// Channel-global earliest-issue floor for a column command targeting
    /// `group`: command/data-bus spacing plus same-group tCCD_L.
    fn col_floor(&self, group: u32) -> u64 {
        let mut at = self.next_column_cmd;
        if let Some((when, g)) = self.last_column {
            if g == group {
                at = at.max(when + self.config.t_ccd_l);
            }
        }
        at
    }

    /// Channel-global earliest-issue floor for an activate targeting
    /// `group`: the tFAW window plus same/cross-group tRRD.
    fn act_floor(&self, group: u32) -> u64 {
        let mut at = 0;
        if self.recent_activates.len() >= 4 {
            at = self.recent_activates[self.recent_activates.len() - 4] + self.config.t_faw;
        }
        if let Some((when, g)) = self.last_activate {
            let gap = if g == group {
                self.config.t_rrd_l
            } else {
                self.config.t_rrd_s
            };
            at = at.max(when + gap);
        }
        at
    }

    /// The earliest cycle at which `q` could become actionable given the
    /// current (frozen) bank and bus state — the per-entry term of
    /// [`Channel::next_event_cycle`]'s prediction.
    fn entry_earliest(&self, q: &QueuedRequest) -> u64 {
        let bank = &self.banks[q.flat_bank];
        match bank.open_row {
            Some(row) if row == q.coord.row => {
                bank.next_column.max(self.col_floor(q.coord.bank_group))
            }
            Some(_) => bank.next_precharge,
            None => bank.next_activate.max(self.act_floor(q.coord.bank_group)),
        }
    }

    /// Rebuilds bank `b`'s candidate cache and its three tree leaves from
    /// the bank's queue and open row. O(bank queue length + log B); called
    /// only when the bank itself is touched (issue to it, or its open row
    /// changes), never for cold banks.
    fn refresh_bank(&mut self, b: usize) {
        let bank = self.banks[b];
        let queue = &self.bank_queues[b];
        let mut cand = BankCand::default();
        let (col_local, act_local, pre_local) = match bank.open_row {
            None => {
                let act = if queue.is_empty() {
                    u64::MAX
                } else {
                    bank.next_activate
                };
                (u64::MAX, act, u64::MAX)
            }
            Some(row) => {
                for (i, e) in queue.iter().enumerate() {
                    if e.coord.row == row {
                        if cand.col.is_none() {
                            cand.col = Some((e.seq, i as u32));
                        }
                    } else if cand.pre.is_none() {
                        cand.pre = Some((e.seq, i as u32));
                    }
                    if cand.col.is_some() && cand.pre.is_some() {
                        break;
                    }
                }
                let col = if cand.col.is_some() {
                    bank.next_column
                } else {
                    u64::MAX
                };
                let pre = if cand.pre.is_some() {
                    bank.next_precharge
                } else {
                    u64::MAX
                };
                (col, u64::MAX, pre)
            }
        };
        self.cand[b] = cand;
        self.col_tree.set(b, col_local);
        self.act_tree.set(b, act_local);
        self.pre_tree.set(b, pre_local);
    }

    /// Oldest bank candidate whose column command is ready at `cycle`
    /// (FR-FCFS pass 1). Returns the bank and queue position.
    fn pick_column(&self, cycle: u64) -> Option<(usize, u32)> {
        // The tree leaves mirror exactly the per-bank ready test below
        // (`next_column` when a same-row candidate exists, else MAX), so the
        // running minima prune the pass in O(1) and dead groups in O(1) each.
        if self.col_tree.min() > cycle {
            return None;
        }
        let mut best: Option<(u64, usize, u32)> = None;
        let bpg = self.config.banks_per_group as usize;
        for g in 0..self.config.bank_groups as usize {
            if self.col_tree.subtree_min(g * bpg, bpg) > cycle {
                continue;
            }
            // The floor is a per-group constant for this cycle: hoist it out
            // of the bank scan (it is also the only group-dependent term,
            // which keeps the inner loop free of bank→group arithmetic).
            let floor = self.col_floor(g as u32);
            if floor > cycle {
                continue;
            }
            for b in g * bpg..(g + 1) * bpg {
                if let Some((seq, pos)) = self.cand[b].col {
                    if self.banks[b].next_column <= cycle && best.is_none_or(|(s, _, _)| seq < s) {
                        best = Some((seq, b, pos));
                    }
                }
            }
        }
        best.map(|(_, b, pos)| (b, pos))
    }

    /// Oldest bank whose activate is ready at `cycle` (FR-FCFS pass 2).
    fn pick_activate(&self, cycle: u64) -> Option<usize> {
        if self.act_tree.min() > cycle {
            return None;
        }
        let mut best: Option<(u64, usize)> = None;
        let bpg = self.config.banks_per_group as usize;
        for g in 0..self.config.bank_groups as usize {
            if self.act_tree.subtree_min(g * bpg, bpg) > cycle {
                continue;
            }
            let floor = self.act_floor(g as u32);
            if floor > cycle {
                continue;
            }
            for b in g * bpg..(g + 1) * bpg {
                if self.banks[b].open_row.is_some() {
                    continue;
                }
                let seq = match self.bank_queues[b].front() {
                    Some(front) => front.seq,
                    None => continue,
                };
                if self.banks[b].next_activate <= cycle && best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, b));
                }
            }
        }
        best.map(|(_, b)| b)
    }

    /// Oldest bank candidate whose precharge is ready at `cycle`
    /// (FR-FCFS pass 3). Returns the bank and queue position.
    fn pick_precharge(&self, cycle: u64) -> Option<(usize, u32)> {
        if self.pre_tree.min() > cycle {
            return None;
        }
        let mut best: Option<(u64, usize, u32)> = None;
        for b in 0..self.banks.len() {
            if let Some((seq, pos)) = self.cand[b].pre {
                let at = self.banks[b].next_precharge;
                if at <= cycle && best.is_none_or(|(s, _, _)| seq < s) {
                    best = Some((seq, b, pos));
                }
            }
        }
        best.map(|(_, b, pos)| (b, pos))
    }

    /// Earliest cycle at which any queued request becomes actionable: the
    /// per-class tree minima per bank group combined with that group's
    /// channel-global floor. O(groups) — no per-request scan: the
    /// bank-group-major layout makes each group one subtree, whose minimum
    /// is a single node lookup.
    fn compute_next_actionable(&self) -> u64 {
        let mut next = self.pre_tree.min();
        let bpg = self.config.banks_per_group as usize;
        for g in 0..self.config.bank_groups as usize {
            let col = self.col_tree.subtree_min(g * bpg, bpg);
            if col != u64::MAX {
                next = next.min(col.max(self.col_floor(g as u32)));
            }
            let act = self.act_tree.subtree_min(g * bpg, bpg);
            if act != u64::MAX {
                next = next.min(act.max(self.act_floor(g as u32)));
            }
        }
        next
    }

    /// Drains completions accumulated since the last call.
    pub fn drain_completed(&mut self) -> Vec<MemCompletion> {
        std::mem::take(&mut self.completed)
    }

    /// Appends and clears accumulated completions without allocating.
    pub fn drain_completed_into(&mut self, out: &mut Vec<MemCompletion>) {
        out.append(&mut self.completed);
    }

    /// Advances the channel by one cycle, reporting what the tick did.
    ///
    /// When the cached [`Channel::next_event_cycle`] lies in the future the
    /// tick takes an O(1) fast path: the scheduler provably cannot act, so
    /// only the per-cycle queue-occupancy accounting runs — making ticks in
    /// which *other* channels are busy nearly free for this one.
    pub fn tick(&mut self, cycle: u64) -> ChannelTickResult {
        // Fast path: no read data due and no queued request actionable.
        if self.inflight_next > cycle && self.queue_next.is_some_and(|qn| qn > cycle) {
            self.stats.queue_occupancy_sum += self.queue_len as u64;
            return ChannelTickResult::default();
        }
        let mut result = ChannelTickResult::default();
        // Retire reads whose data has returned. Retirement changes no bank
        // or bus state, so the queue-side prediction survives it.
        if self.inflight_next <= cycle {
            let mut i = 0;
            while i < self.in_flight_reads.len() {
                if self.in_flight_reads[i].0 <= cycle {
                    let (_, completion) = self.in_flight_reads.swap_remove(i);
                    self.stats.read_latency_sum += completion.latency();
                    self.completed.push(completion);
                    result.completions = true;
                } else {
                    i += 1;
                }
            }
            self.inflight_next = self
                .in_flight_reads
                .iter()
                .map(|r| r.0)
                .min()
                .unwrap_or(u64::MAX);
        }

        self.stats.queue_occupancy_sum += self.queue_len as u64;
        if self.queue_len == 0 {
            // Re-arm the fast path once the last queued request has issued.
            self.queue_next = Some(u64::MAX);
        } else if self.queue_next.is_none_or(|qn| qn <= cycle) {
            // FR-FCFS over the cached per-bank candidates (pass 1: oldest
            // ready column; pass 2: oldest ready activate; pass 3: oldest
            // ready precharge); when nothing issues, the per-class trees
            // yield the earliest cycle at which any queued request could act
            // — which becomes the queue-side prediction.
            if let Some((b, pos)) = self.pick_column(cycle) {
                result.completions |= self.issue_column(b, pos, cycle);
                result.issued = true;
                self.queue_next = None;
            } else if let Some(b) = self.pick_activate(cycle) {
                self.issue_activate(b, cycle);
                result.issued = true;
                self.queue_next = None;
            } else if let Some((b, pos)) = self.pick_precharge(cycle) {
                self.issue_precharge(b, pos, cycle);
                result.issued = true;
                self.queue_next = None;
            } else {
                self.queue_next = Some(self.compute_next_actionable());
            }
        }
        result
    }

    /// The earliest cycle `>= now` at which a [`Channel::tick`] could do
    /// anything: return read data, or issue a column/activate/precharge
    /// command for some queued request. Returns `None` for a fully idle
    /// channel (empty queue, nothing in flight).
    ///
    /// The prediction is exact as long as the channel state does not change:
    /// every scheduler admission test is a monotone `cycle >= threshold`
    /// condition over frozen bank/bus state, so the minimum threshold over
    /// all queued requests and all three passes is the first cycle at which
    /// the reference per-cycle loop would have acted. The value is cached
    /// and invalidated by any state change.
    pub fn next_event_cycle(&mut self, now: u64) -> Option<u64> {
        let queue_next = match self.queue_next {
            Some(at) => at,
            None => {
                // The per-bank trees make the recompute O(groups).
                let at = self.compute_next_actionable();
                self.queue_next = Some(at);
                at
            }
        };
        let earliest = queue_next.min(self.inflight_next);
        if earliest == u64::MAX {
            None
        } else {
            Some(earliest.max(now))
        }
    }

    /// Accounts `skipped` provably-idle cycles in bulk: exactly the state the
    /// reference loop would have accumulated by calling [`Channel::tick`]
    /// `skipped` times strictly before [`Channel::next_event_cycle`] (each
    /// such tick only adds the frozen queue length to the occupancy sum).
    pub fn skip_cycles(&mut self, skipped: u64) {
        self.stats.queue_occupancy_sum += self.queue_len as u64 * skipped;
    }

    /// Issues a column command; returns `true` if it produced an immediate
    /// completion (writes are posted).
    fn issue_column(&mut self, b: usize, pos: u32, cycle: u64) -> bool {
        let q = self.bank_queues[b]
            .remove(pos as usize)
            // audit:allow(unwrap, a column pick only returns a position the bank cache took from that bank's queue)
            .expect("candidate position from bank cache");
        self.queue_len -= 1;
        let cfg = self.config;
        let bank = &mut self.banks[b];
        let row_result = q.row_result.unwrap_or(RowBufferResult::Hit);
        match row_result {
            RowBufferResult::Hit => self.stats.row_hits += 1,
            RowBufferResult::Miss => self.stats.row_misses += 1,
            RowBufferResult::Conflict => self.stats.row_conflicts += 1,
        }

        self.next_column_cmd = cycle + cfg.t_ccd_s.max(cfg.t_bl);
        self.last_column = Some((cycle, q.coord.bank_group));
        self.stats.data_bus_busy_cycles += cfg.t_bl;

        let completed = match q.req.kind {
            MemOpKind::Read => {
                let data_ready = cycle + cfg.t_cl + cfg.t_bl;
                bank.next_precharge = bank.next_precharge.max(cycle + cfg.t_rtp);
                bank.next_column = bank.next_column.max(cycle + cfg.t_ccd_l);
                self.stats.reads += 1;
                self.inflight_next = self.inflight_next.min(data_ready);
                self.in_flight_reads.push((
                    data_ready,
                    MemCompletion {
                        id: q.req.id,
                        addr: q.req.addr,
                        kind: MemOpKind::Read,
                        enqueued_at: q.enqueued_at,
                        completed_at: data_ready,
                        row_result,
                    },
                ));
                false
            }
            MemOpKind::Write => {
                let burst_end = cycle + cfg.t_cwl + cfg.t_bl;
                bank.next_precharge = bank.next_precharge.max(burst_end + cfg.t_wr);
                bank.next_column = bank.next_column.max(burst_end + cfg.t_wtr);
                self.stats.writes += 1;
                self.completed.push(MemCompletion {
                    id: q.req.id,
                    addr: q.req.addr,
                    kind: MemOpKind::Write,
                    enqueued_at: q.enqueued_at,
                    completed_at: cycle,
                    row_result,
                });
                true
            }
        };
        self.refresh_bank(b);
        completed
    }

    fn issue_activate(&mut self, b: usize, cycle: u64) {
        let cfg = self.config;
        let (row, bank_group) = {
            let q = self.bank_queues[b]
                .front_mut()
                // audit:allow(unwrap, pick_activate only selects banks whose act-tree leaf is finite, which requires a nonempty queue)
                .expect("activate candidate from bank cache");
            if q.row_result.is_none() {
                q.row_result = Some(RowBufferResult::Miss);
            }
            (q.coord.row, q.coord.bank_group)
        };
        let bank = &mut self.banks[b];
        bank.open_row = Some(row);
        bank.next_column = cycle + cfg.t_rcd;
        bank.next_precharge = cycle + cfg.t_ras;
        bank.next_activate = cycle + cfg.t_rc;
        self.last_activate = Some((cycle, bank_group));
        self.recent_activates.push_back(cycle);
        while self.recent_activates.len() > 8 {
            self.recent_activates.pop_front();
        }
        self.stats.activates += 1;
        self.refresh_bank(b);
    }

    fn issue_precharge(&mut self, b: usize, pos: u32, cycle: u64) {
        let cfg = self.config;
        self.bank_queues[b][pos as usize].row_result = Some(RowBufferResult::Conflict);
        let bank = &mut self.banks[b];
        bank.open_row = None;
        bank.next_activate = bank.next_activate.max(cycle + cfg.t_rp);
        self.stats.precharges += 1;
        self.refresh_bank(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapper;

    fn channel_and_mapper() -> (Channel, AddressMapper) {
        let cfg = DramConfig::ddr4_3200_single_channel();
        (Channel::new(cfg), AddressMapper::new(cfg))
    }

    fn run_until_complete(ch: &mut Channel, expected: usize, limit: u64) -> Vec<MemCompletion> {
        let mut done = Vec::new();
        let mut cycle = 0;
        while done.len() < expected && cycle < limit {
            ch.tick(cycle);
            done.extend(ch.drain_completed());
            cycle += 1;
        }
        done
    }

    #[test]
    fn single_read_latency_matches_act_rcd_cl() {
        let (mut ch, m) = channel_and_mapper();
        let addr = 0x10_000;
        assert!(ch.enqueue(MemRequest::read(1, addr), m.map(addr), 0));
        let done = run_until_complete(&mut ch, 1, 1000);
        assert_eq!(done.len(), 1);
        let cfg = DramConfig::ddr4_3200_single_channel();
        // ACT at cycle 0, column at tRCD, data at tRCD + tCL + tBL.
        assert_eq!(done[0].completed_at, cfg.t_rcd + cfg.t_cl + cfg.t_bl);
        assert_eq!(done[0].row_result, RowBufferResult::Miss);
    }

    #[test]
    fn second_read_same_row_is_a_hit() {
        let (mut ch, m) = channel_and_mapper();
        let a = 0x10_000;
        let b = a + 64; // single channel: next burst, same row
        assert!(ch.enqueue(MemRequest::read(1, a), m.map(a), 0));
        assert!(ch.enqueue(MemRequest::read(2, b), m.map(b), 0));
        let done = run_until_complete(&mut ch, 2, 2000);
        assert_eq!(done.len(), 2);
        let second = done.iter().find(|c| c.id.0 == 2).unwrap();
        assert_eq!(second.row_result, RowBufferResult::Hit);
        assert_eq!(ch.stats().row_hits, 1);
        assert_eq!(ch.stats().row_misses, 1);
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let (mut ch, m) = channel_and_mapper();
        let cfg = DramConfig::ddr4_3200_single_channel();
        let a = 0;
        // Same bank, different row: one full row's worth of bursts away
        // times bank interleaving span.
        let b = cfg.row_bytes
            * u64::from(cfg.channels)
            * u64::from(cfg.bank_groups)
            * u64::from(cfg.banks_per_group);
        let (ca, cb) = (m.map(a), m.map(b));
        assert_eq!(ca.flat_bank(&cfg), cb.flat_bank(&cfg));
        assert_ne!(ca.row, cb.row);
        assert!(ch.enqueue(MemRequest::read(1, a), ca, 0));
        assert!(ch.enqueue(MemRequest::read(2, b), cb, 0));
        let done = run_until_complete(&mut ch, 2, 5000);
        let second = done.iter().find(|c| c.id.0 == 2).unwrap();
        assert_eq!(second.row_result, RowBufferResult::Conflict);
        assert!(second.completed_at > done[0].completed_at);
        assert!(ch.stats().precharges >= 1);
    }

    #[test]
    fn writes_complete_as_posted() {
        let (mut ch, m) = channel_and_mapper();
        let addr = 0x40_000;
        assert!(ch.enqueue(MemRequest::write(7, addr), m.map(addr), 0));
        let done = run_until_complete(&mut ch, 1, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, MemOpKind::Write);
        assert_eq!(ch.stats().writes, 1);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let (mut ch, m) = channel_and_mapper();
        let cap = DramConfig::ddr4_3200_single_channel().queue_capacity;
        for i in 0..cap {
            assert!(ch.enqueue(
                MemRequest::read(i as u64, i as u64 * 64),
                m.map(i as u64 * 64),
                0
            ));
        }
        assert!(!ch.can_accept());
        assert!(!ch.enqueue(MemRequest::read(999, 0), m.map(0), 0));
        assert_eq!(ch.queue_len(), cap);
    }

    #[test]
    fn independent_banks_overlap() {
        // Requests to different banks should take far less than the sum of
        // their isolated latencies.
        let (mut ch, m) = channel_and_mapper();
        let cfg = DramConfig::ddr4_3200_single_channel();
        let bank_stride = cfg.row_bytes * u64::from(cfg.channels);
        for i in 0..8u64 {
            let addr = i * bank_stride;
            assert!(ch.enqueue(MemRequest::read(i, addr), m.map(addr), 0));
        }
        let done = run_until_complete(&mut ch, 8, 10_000);
        let last = done.iter().map(|c| c.completed_at).max().unwrap();
        let isolated = cfg.t_rcd + cfg.t_cl + cfg.t_bl;
        assert!(
            last < isolated * 8 / 2,
            "bank-level parallelism missing: {last} cycles for 8 requests"
        );
    }

    #[test]
    fn next_event_cycle_is_never_in_the_past() {
        // Mixed traffic with row hits, conflicts and reads in flight: after
        // every tick the prediction must lie at or after the next cycle, and
        // every tick strictly before the predicted cycle must do nothing.
        let (mut ch, m) = channel_and_mapper();
        let cfg = DramConfig::ddr4_3200_single_channel();
        let conflict_stride = cfg.row_bytes
            * u64::from(cfg.channels)
            * u64::from(cfg.bank_groups)
            * u64::from(cfg.banks_per_group);
        for i in 0..12u64 {
            let addr = (i % 3) * conflict_stride + i * 64;
            assert!(ch.enqueue(MemRequest::read(i, addr), m.map(addr), 0));
        }
        let mut done = 0usize;
        let mut cycle = 0u64;
        while done < 12 {
            let result = ch.tick(cycle);
            done += ch.drain_completed().len();
            if let Some(next) = ch.next_event_cycle(cycle + 1) {
                assert!(
                    next > cycle,
                    "prediction {next} lies before cycle {}",
                    cycle + 1
                );
                if result.any() {
                    // Active tick: prediction freshly recomputed; the gap
                    // until it must be provably idle.
                    for idle in (cycle + 1)..next {
                        let r = ch.tick(idle);
                        assert_eq!(
                            r,
                            ChannelTickResult::default(),
                            "tick at {idle} acted before predicted event {next}"
                        );
                    }
                    cycle = next;
                    continue;
                }
            }
            cycle += 1;
            assert!(cycle < 100_000, "did not converge");
        }
        assert_eq!(ch.outstanding(), 0);
    }

    #[test]
    fn throughput_respects_data_bus_limit() {
        // A long stream of row hits cannot exceed one burst per tBL cycles.
        let (mut ch, m) = channel_and_mapper();
        let mut issued = 0u64;
        let mut completed = 0usize;
        let mut cycle = 0u64;
        let total = 200u64;
        while completed < total as usize {
            while issued < total && ch.can_accept() {
                let addr = issued * 64;
                ch.enqueue(MemRequest::read(issued, addr), m.map(addr), cycle);
                issued += 1;
            }
            ch.tick(cycle);
            completed += ch.drain_completed().len();
            cycle += 1;
            assert!(cycle < 100_000, "stalled");
        }
        let cfg = DramConfig::ddr4_3200_single_channel();
        let min_cycles = total * cfg.t_bl;
        assert!(
            cycle >= min_cycles,
            "exceeded peak bandwidth: {cycle} < {min_cycles}"
        );
        // ...but should stay within ~2x of peak for a pure streaming pattern.
        assert!(
            cycle < min_cycles * 3,
            "streaming far below peak: {cycle} vs {min_cycles}"
        );
    }

    #[test]
    fn rejected_enqueue_then_skip_window_never_jumps_past_the_retry_cycle() {
        // Satellite regression (ISSUE 10): a full queue rejects an enqueue;
        // the caller's retry becomes possible exactly when the next column
        // command frees a slot. The next-event prediction must come due at
        // or before that cycle — a stale cached prediction would let a skip
        // window jump the clock past the retry point, delaying the retried
        // request relative to the per-cycle reference loop.
        let cfg = DramConfig {
            queue_capacity: 4,
            ..DramConfig::ddr4_3200_single_channel()
        };
        let m = AddressMapper::new(cfg);
        let mut ch = Channel::new(cfg);
        for i in 0..4u64 {
            let addr = i * 64;
            assert!(ch.enqueue(MemRequest::read(i, addr), m.map(addr), 0));
        }
        assert!(!ch.enqueue(MemRequest::read(99, 4 * 64), m.map(4 * 64), 0));

        // Drive a reference clone cycle by cycle to find the true first
        // cycle at which space frees (the first column issue).
        let mut reference = ch.clone();
        let mut free_at = None;
        for cycle in 0..10_000 {
            reference.tick(cycle);
            reference.drain_completed();
            if reference.can_accept() {
                free_at = Some(cycle);
                break;
            }
        }
        let free_at = free_at.expect("queue never freed");

        // Now drive the original exactly as the event-driven runner would:
        // jump to each predicted event, tick it, repeat. The clock must
        // visit a cycle <= free_at with capacity available — i.e. the
        // prediction chain never skips over the retry opportunity.
        let mut cycle = 0u64;
        loop {
            let next = ch
                .next_event_cycle(cycle)
                .expect("busy channel must predict an event");
            assert!(
                next >= cycle,
                "prediction {next} went backwards from {cycle}"
            );
            for idle in cycle..next {
                let r = ch.tick(idle);
                assert!(!r.any(), "tick at {idle} acted before predicted {next}");
                assert!(
                    !ch.can_accept() || idle >= free_at,
                    "capacity freed at {idle} without an observable event"
                );
            }
            ch.tick(next);
            ch.drain_completed();
            cycle = next + 1;
            if ch.can_accept() {
                assert!(
                    next <= free_at,
                    "event-driven path freed capacity at {next}, reference at {free_at}: \
                     a skip window would have jumped past the retry cycle"
                );
                break;
            }
            assert!(cycle < 10_000, "did not converge");
        }
        // The retry itself must now succeed.
        assert!(ch.enqueue(MemRequest::read(99, 4 * 64), m.map(4 * 64), cycle));
    }

    #[test]
    fn per_bank_scheduler_matches_reference_single_queue_semantics() {
        // Age ordering across banks: two activate-ready banks must issue in
        // arrival order even though the younger request sits in a different
        // bank queue.
        let (mut ch, m) = channel_and_mapper();
        let cfg = DramConfig::ddr4_3200_single_channel();
        let bank_stride = cfg.row_bytes * u64::from(cfg.channels);
        let (a, b) = (3 * bank_stride, 7 * bank_stride);
        assert!(ch.enqueue(MemRequest::read(1, a), m.map(a), 0));
        assert!(ch.enqueue(MemRequest::read(2, b), m.map(b), 0));
        let done = run_until_complete(&mut ch, 2, 5_000);
        // Same timing parameters per bank: the older request's activate
        // (and data) must come first.
        assert_eq!(done[0].id.0, 1);
        assert_eq!(done[1].id.0, 2);
    }
}
