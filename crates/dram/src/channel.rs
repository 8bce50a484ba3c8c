//! One DRAM channel: bank state machines plus an FR-FCFS scheduler.
//!
//! Every cycle the channel may issue at most one command on its command bus.
//! The scheduler follows the standard FR-FCFS policy: column commands to
//! already-open rows first (oldest first), then activates, then precharges
//! for conflicting rows. Data-bus occupancy is enforced by spacing column
//! commands at least a burst apart, which bounds the achievable bandwidth at
//! the DDR4 peak and makes the bandwidth-utilisation statistics meaningful.
//!
//! # Per-bank queues and class masks
//!
//! Requests are queued per bank rather than in one channel-wide list. A
//! queued request falls in one of three scheduling classes by its bank's
//! state: *column* (its row is open), *activate* (its bank is closed) or
//! *precharge* (another row is open). Every request of one class in one
//! bank shares a bank-local ready cycle (`next_column`, `next_activate` or
//! `next_precharge`), so a bank caches only the `(seq, pos)` of its oldest
//! request per class, and the channel keeps one `u64` mask per class with
//! a bit for each bank that has such a request. Channel-global constraints
//! — command-bus spacing, tCCD_L, tRRD, tFAW — are applied at decision time
//! as per-bank-group floors, so issuing on one bank never invalidates
//! another bank's cache: a bank's cache is rebuilt only when that bank is
//! touched. A pass walks only the set bits of its class mask and picks the
//! oldest candidate whose ready cycle, raised to its group's floor, has
//! come. Age across banks is a monotone per-channel sequence number stamped
//! at enqueue, so "oldest ready first" is a min-seq reduction over at most
//! one candidate per bank instead of a scan over every queued request. The
//! masks cap a channel at 64 banks, which [`DramConfig::validate`] enforces.
//!
//! # Read returns
//!
//! Every read returns its data `tCL + tBL` after its column command, and
//! the channel issues at most one command per cycle, so reads return in
//! issue order: the reads in flight are a FIFO, and a return pops its
//! front.
//!
//! # Next events
//!
//! For the event-driven simulation core the channel additionally predicts
//! [`Channel::next_event_cycle`] — the earliest future cycle at which a tick
//! could do anything (issue a command or return read data). Between now and
//! that cycle every tick is a provable no-op, so the caller may replace the
//! intervening ticks with one [`Channel::skip_cycles`] call that performs the
//! identical per-cycle statistics accounting in bulk.

use crate::address::DramCoord;
use crate::config::DramConfig;
use crate::request::{MemCompletion, MemOpKind, MemRequest, RowBufferResult};
use std::collections::VecDeque;

/// The three FR-FCFS command classes, in pass order. A class indexes the
/// channel's masks and each bank's candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A column command to the open row.
    Column,
    /// An activate of a closed bank.
    Activate,
    /// A precharge of an open bank that a queued request conflicts with.
    Precharge,
}

impl Class {
    const ALL: [Class; 3] = [Class::Column, Class::Activate, Class::Precharge];

    /// The class of a queued request to `row` while its bank has
    /// `open_row` open.
    fn of(open_row: Option<u64>, row: u64) -> Class {
        match open_row {
            None => Class::Activate,
            Some(open) if open == row => Class::Column,
            Some(_) => Class::Precharge,
        }
    }
}

/// The oldest queued request of one class in one bank: its channel-wide
/// sequence number and its position in the bank queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cand {
    seq: u64,
    pos: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    next_activate: u64,
    next_precharge: u64,
    next_column: u64,
    /// Oldest candidate per class, indexed by [`Class`]; meaningful only
    /// where that class's mask holds this bank.
    cand: [Cand; 3],
}

impl BankState {
    /// The bank-local cycle from which `class`'s candidate may issue.
    fn ready(&self, class: Class) -> u64 {
        match class {
            Class::Column => self.next_column,
            Class::Activate => self.next_activate,
            Class::Precharge => self.next_precharge,
        }
    }
}

/// A class's channel-global issue floor for the current bus state: `base`
/// for every bank group, raised to `same` in `group`, the group of the
/// class's last command (tCCD_L / tRRD_L). `same >= base` always.
#[derive(Debug, Clone, Copy)]
struct Floor {
    base: u64,
    group: u32,
    same: u64,
}

impl Floor {
    fn of(&self, group: u32) -> u64 {
        if group == self.group {
            self.same
        } else {
            self.base
        }
    }
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
    /// Per class (indexed by [`Class`]), the banks holding a candidate of
    /// that class: bit `b` is set when bank `b` has one.
    masks: [u64; 3],
    /// log2 of the banks per group: flat bank `b` lies in group
    /// `b >> group_shift`.
    group_shift: u32,
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
    /// Reads waiting for their data, in issue order, which is also the
    /// order their data returns in.
    in_flight_reads: VecDeque<MemCompletion>,
    completed: Vec<MemCompletion>,
    stats: ChannelStats,
    /// Earliest cycle at which any *queued* request becomes actionable
    /// (`u64::MAX` with none queued), kept exact: recomputed after every
    /// scheduling pass, min-updated in O(1) by enqueues, and left untouched
    /// by read returns, which change no bank or bus state.
    queue_next: u64,
}

impl Channel {
    /// Creates an idle channel for a configuration that passes
    /// [`DramConfig::validate`], which bounds the banks the address map
    /// reaches to the 64 bits of a class mask.
    pub fn new(config: DramConfig) -> Self {
        let banks = (config.bank_groups * config.banks_per_group) as usize;
        debug_assert!(banks <= 64, "{banks} banks overflow the class masks");
        Channel {
            banks: vec![BankState::default(); banks],
            bank_queues: vec![VecDeque::new(); banks],
            masks: [0; 3],
            group_shift: config.banks_per_group.trailing_zeros(),
            queue_len: 0,
            next_seq: 0,
            next_column_cmd: 0,
            last_column: None,
            last_activate: None,
            recent_activates: VecDeque::with_capacity(4),
            in_flight_reads: VecDeque::new(),
            completed: Vec::new(),
            stats: ChannelStats::default(),
            queue_next: u64::MAX,
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
        // The newest request is the youngest, so it becomes its class's
        // candidate only when its bank had none: an O(1) update. Enqueueing
        // changes no bank or bus state, so only a new candidate can pull the
        // cached queue-side prediction earlier, by an O(1) min-update.
        let b = entry.flat_bank;
        let class = Class::of(self.banks[b].open_row, entry.coord.row);
        if self.masks[class as usize] & (1 << b) == 0 {
            self.masks[class as usize] |= 1 << b;
            self.banks[b].cand[class as usize] = Cand {
                seq: entry.seq,
                pos: self.bank_queues[b].len() as u32,
            };
            let floor = self.floor(class).of(coord.bank_group);
            self.queue_next = self.queue_next.min(self.banks[b].ready(class).max(floor));
        }
        self.bank_queues[b].push_back(entry);
        self.queue_len += 1;
        self.debug_check_bank(b);
        true
    }

    /// The bank group of flat bank `b` (banks are bank-group-major).
    fn group_of(&self, b: usize) -> u32 {
        (b >> self.group_shift) as u32
    }

    /// `class`'s channel-global issue floor: command/data-bus spacing plus
    /// same-group tCCD_L for a column command, the tFAW window plus
    /// same/cross-group tRRD for an activate, none for a precharge.
    fn floor(&self, class: Class) -> Floor {
        let cfg = &self.config;
        let (base, last, same_gap) = match class {
            Class::Column => (self.next_column_cmd, self.last_column, cfg.t_ccd_l),
            Class::Activate => {
                let n = self.recent_activates.len();
                let faw = if n >= 4 {
                    self.recent_activates[n - 4] + cfg.t_faw
                } else {
                    0
                };
                let rrd = self.last_activate.map_or(0, |(when, _)| when + cfg.t_rrd_s);
                (faw.max(rrd), self.last_activate, cfg.t_rrd_l)
            }
            Class::Precharge => (0, None, 0),
        };
        let (group, same) =
            last.map_or((u32::MAX, base), |(when, g)| (g, base.max(when + same_gap)));
        Floor { base, group, same }
    }

    /// Rebuilds bank `b`'s candidates and mask bits from its queue and open
    /// row. O(bank queue length); called only when the bank itself is
    /// touched (issue to it, or its open row changes), never for cold banks.
    fn refresh_bank(&mut self, b: usize) {
        let open_row = self.banks[b].open_row;
        // A closed bank has only activate candidates, the oldest at the
        // front; an open one has column and precharge candidates.
        let classes = if open_row.is_some() { 2 } else { 1 };
        let mut found = [None; 3];
        let mut count = 0;
        for (pos, e) in self.bank_queues[b].iter().enumerate() {
            let slot = &mut found[Class::of(open_row, e.coord.row) as usize];
            if slot.is_none() {
                *slot = Some(Cand {
                    seq: e.seq,
                    pos: pos as u32,
                });
                count += 1;
                if count == classes {
                    break;
                }
            }
        }
        for (class, cand) in found.into_iter().enumerate() {
            match cand {
                Some(cand) => {
                    self.masks[class] |= 1 << b;
                    self.banks[b].cand[class] = cand;
                }
                None => self.masks[class] &= !(1 << b),
            }
        }
        self.debug_check_bank(b);
    }

    /// Re-derives bank `b`'s candidates from its queue alone — per class,
    /// the request with the smallest sequence number — and asserts that the
    /// class masks and the cached `(seq, pos)` match. Enqueues and refreshes
    /// write no other bank's cache, so checking the bank after each one
    /// covers every write. Runs in debug builds only.
    fn debug_check_bank(&self, b: usize) {
        if !cfg!(debug_assertions) {
            return;
        }
        let bank = &self.banks[b];
        let mut oldest: [Option<Cand>; 3] = [None; 3];
        for (pos, e) in self.bank_queues[b].iter().enumerate() {
            let slot = &mut oldest[Class::of(bank.open_row, e.coord.row) as usize];
            if slot.is_none_or(|c| e.seq < c.seq) {
                *slot = Some(Cand {
                    seq: e.seq,
                    pos: pos as u32,
                });
            }
        }
        let cached = Class::ALL
            .map(|c| ((self.masks[c as usize] >> b) & 1 == 1).then_some(bank.cand[c as usize]));
        assert_eq!(
            cached, oldest,
            "bank {b}: class candidates diverged from its queue"
        );
        let beyond = |m: &u64| m.checked_shr(self.banks.len() as u32).unwrap_or(0);
        assert!(
            self.masks.iter().all(|m| beyond(m) == 0),
            "a mask names a missing bank"
        );
    }

    /// The bank holding the oldest `class` candidate that may issue at
    /// `cycle` (one FR-FCFS pass), with that candidate.
    fn pick(&self, class: Class, cycle: u64) -> Option<(usize, Cand)> {
        let floor = self.floor(class);
        // Every group's floor is at least the base one.
        if floor.base > cycle {
            return None;
        }
        let mut best: Option<(usize, Cand)> = None;
        let mut mask = self.masks[class as usize];
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let bank = &self.banks[b];
            let cand = bank.cand[class as usize];
            if bank.ready(class).max(floor.of(self.group_of(b))) <= cycle
                && best.is_none_or(|(_, c)| cand.seq < c.seq)
            {
                best = Some((b, cand));
            }
        }
        best
    }

    /// Earliest cycle at which any queued request becomes actionable: per
    /// class, the minimum over the banks in its mask of the bank-local
    /// ready cycle raised to the bank group's floor.
    fn compute_next_actionable(&self) -> u64 {
        let mut next = u64::MAX;
        for class in Class::ALL {
            let floor = self.floor(class);
            let mut mask = self.masks[class as usize];
            while mask != 0 {
                let b = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let at = self.banks[b].ready(class).max(floor.of(self.group_of(b)));
                next = next.min(at);
            }
        }
        next
    }

    /// Appends and clears the completions accumulated since the last call.
    pub fn drain_completed_into(&mut self, out: &mut Vec<MemCompletion>) {
        out.append(&mut self.completed);
    }

    /// Cycle at which the oldest in-flight read returns its data
    /// (`u64::MAX` when none is in flight).
    fn inflight_next(&self) -> u64 {
        self.in_flight_reads
            .front()
            .map_or(u64::MAX, |r| r.completed_at)
    }

    /// Advances the channel by one cycle, reporting what the tick did.
    ///
    /// Before the cached queue-side prediction comes due no pass can
    /// issue, so the scheduler runs only from that cycle on; a tick in
    /// which nothing is due only adds to the queue-occupancy sum.
    pub fn tick(&mut self, cycle: u64) -> ChannelTickResult {
        let mut result = ChannelTickResult::default();
        // Retire reads whose data has returned, oldest first. Retirement
        // changes no bank or bus state, so the queue-side prediction
        // survives it.
        while let Some(&read) = self.in_flight_reads.front() {
            if read.completed_at > cycle {
                break;
            }
            self.in_flight_reads.pop_front();
            self.stats.read_latency_sum += read.latency();
            self.completed.push(read);
            result.completions = true;
        }
        self.stats.queue_occupancy_sum += self.queue_len as u64;
        if self.queue_next <= cycle {
            // FR-FCFS over the cached per-bank candidates (pass 1: oldest
            // ready column; pass 2: oldest ready activate; pass 3: oldest
            // ready precharge); then the class masks yield the earliest
            // cycle at which any queued request could act.
            result.issued = if let Some((b, cand)) = self.pick(Class::Column, cycle) {
                result.completions |= self.issue_column(b, cand.pos, cycle);
                true
            } else if let Some((b, _)) = self.pick(Class::Activate, cycle) {
                self.issue_activate(b, cycle);
                true
            } else if let Some((b, cand)) = self.pick(Class::Precharge, cycle) {
                self.issue_precharge(b, cand.pos, cycle);
                true
            } else {
                false
            };
            self.queue_next = self.compute_next_actionable();
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
    /// the reference per-cycle loop would have acted.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        self.earliest_event(self.queue_next, now)
    }

    /// The next event for a queue-side prediction `queue_next`: the earlier
    /// of it and the oldest read's return, no earlier than `now`.
    fn earliest_event(&self, queue_next: u64, now: u64) -> Option<u64> {
        let at = queue_next.min(self.inflight_next());
        (at != u64::MAX).then(|| at.max(now))
    }

    /// [`Channel::next_event_cycle`] predicted afresh from the class masks
    /// instead of the cached queue-side prediction; used only by debug
    /// assertions guarding the caches.
    pub(crate) fn debug_fresh_next_event(&self, now: u64) -> Option<u64> {
        self.earliest_event(self.compute_next_actionable(), now)
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
        #[allow(
            clippy::expect_used,
            reason = "a column pick only returns a position the bank cache took from that bank's queue"
        )]
        let q = self.bank_queues[b]
            .remove(pos as usize)
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

        let completion = MemCompletion {
            id: q.req.id,
            addr: q.req.addr,
            kind: q.req.kind,
            enqueued_at: q.enqueued_at,
            completed_at: cycle,
            row_result,
        };
        let posted = match q.req.kind {
            MemOpKind::Read => {
                bank.next_precharge = bank.next_precharge.max(cycle + cfg.t_rtp);
                bank.next_column = bank.next_column.max(cycle + cfg.t_ccd_l);
                self.stats.reads += 1;
                self.in_flight_reads.push_back(MemCompletion {
                    completed_at: cycle + cfg.t_cl + cfg.t_bl,
                    ..completion
                });
                false
            }
            MemOpKind::Write => {
                let burst_end = cycle + cfg.t_cwl + cfg.t_bl;
                bank.next_precharge = bank.next_precharge.max(burst_end + cfg.t_wr);
                bank.next_column = bank.next_column.max(burst_end + cfg.t_wtr);
                self.stats.writes += 1;
                self.completed.push(completion);
                true
            }
        };
        self.refresh_bank(b);
        posted
    }

    fn issue_activate(&mut self, b: usize, cycle: u64) {
        let cfg = self.config;
        let (row, bank_group) = {
            #[allow(
                clippy::expect_used,
                reason = "an activate pick only returns a bank whose act-mask bit is set, which requires a nonempty queue"
            )]
            let q = self.bank_queues[b]
                .front_mut()
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
            ch.drain_completed_into(&mut done);
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
            let mut drained = Vec::new();
            ch.drain_completed_into(&mut drained);
            done += drained.len();
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
            let mut drained = Vec::new();
            ch.drain_completed_into(&mut drained);
            completed += drained.len();
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
            reference.drain_completed_into(&mut Vec::new());
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
            ch.drain_completed_into(&mut Vec::new());
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
