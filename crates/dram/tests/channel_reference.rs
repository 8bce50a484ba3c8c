//! The channel scheduler against a naive FR-FCFS reference.
//!
//! [`RefChannel`] keeps what the `channel` module doc describes in the
//! plainest form: one channel-wide list of queued requests, scanned oldest
//! first every cycle in three passes — a column command to an open row,
//! then an activate of a closed bank, then a precharge of a bank whose open
//! row a queued request conflicts with. The channel-global floors are
//! checked per request from the raw command history: command/data-bus
//! spacing and tCCD_L after the last column command for columns, tRRD_S/L
//! after the last activate and at most four activates per tFAW window for
//! activates. An activate marks the request it opens a row for as a miss,
//! a precharge marks the request it closes a row for as a conflict, and a
//! column command with no mark is a hit. The bank timings each command sets
//! are those of `Channel`'s issue rules.
//!
//! The property drives random request streams through random geometries,
//! timings and queue capacities that pass [`DramConfig::validate`], once
//! per cycle and once by jumping to [`Channel::next_event_cycle`] with
//! [`Channel::skip_cycles`] between events. Both runs must return exactly
//! the reference's completions, in order, and its [`ChannelStats`].

use palermo_dram::address::DramCoord;
use palermo_dram::channel::{Channel, ChannelStats, ChannelTickResult};
use palermo_dram::{DramConfig, MemCompletion, MemOpKind, MemRequest, RowBufferResult};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, Default)]
struct RefBank {
    open_row: Option<u64>,
    next_activate: u64,
    next_precharge: u64,
    next_column: u64,
}

#[derive(Debug, Clone)]
struct RefEntry {
    req: MemRequest,
    coord: DramCoord,
    enqueued_at: u64,
    row_result: Option<RowBufferResult>,
}

/// The reference channel: one list, oldest first, rescanned every cycle.
struct RefChannel {
    cfg: DramConfig,
    banks: Vec<RefBank>,
    queue: Vec<RefEntry>,
    next_column_cmd: u64,
    last_column: Option<(u64, u32)>,
    last_activate: Option<(u64, u32)>,
    activates: Vec<u64>,
    in_flight: Vec<MemCompletion>,
    completed: Vec<MemCompletion>,
    stats: ChannelStats,
}

impl RefChannel {
    fn new(cfg: DramConfig) -> Self {
        RefChannel {
            cfg,
            banks: vec![RefBank::default(); (cfg.bank_groups * cfg.banks_per_group) as usize],
            queue: Vec::new(),
            next_column_cmd: 0,
            last_column: None,
            last_activate: None,
            activates: Vec::new(),
            in_flight: Vec::new(),
            completed: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    fn bank(&self, c: &DramCoord) -> usize {
        (c.bank_group * self.cfg.banks_per_group + c.bank) as usize
    }

    fn outstanding(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    fn enqueue(&mut self, req: MemRequest, coord: DramCoord, cycle: u64) -> bool {
        if self.queue.len() >= self.cfg.queue_capacity {
            return false;
        }
        self.queue.push(RefEntry {
            req,
            coord,
            enqueued_at: cycle,
            row_result: None,
        });
        true
    }

    fn column_ready(&self, e: &RefEntry, cycle: u64) -> bool {
        let bank = &self.banks[self.bank(&e.coord)];
        bank.open_row == Some(e.coord.row)
            && bank.next_column <= cycle
            && self.next_column_cmd <= cycle
            && self
                .last_column
                .is_none_or(|(at, g)| g != e.coord.bank_group || at + self.cfg.t_ccd_l <= cycle)
    }

    fn activate_ready(&self, e: &RefEntry, cycle: u64) -> bool {
        let bank = &self.banks[self.bank(&e.coord)];
        let in_window = self
            .activates
            .iter()
            .filter(|&&at| at + self.cfg.t_faw > cycle)
            .count();
        bank.open_row.is_none()
            && bank.next_activate <= cycle
            && in_window < 4
            && self.last_activate.is_none_or(|(at, g)| {
                let gap = if g == e.coord.bank_group {
                    self.cfg.t_rrd_l
                } else {
                    self.cfg.t_rrd_s
                };
                at + gap <= cycle
            })
    }

    fn precharge_ready(&self, e: &RefEntry, cycle: u64) -> bool {
        let bank = &self.banks[self.bank(&e.coord)];
        bank.open_row.is_some_and(|row| row != e.coord.row) && bank.next_precharge <= cycle
    }

    fn tick(&mut self, cycle: u64) -> ChannelTickResult {
        let cfg = self.cfg;
        let mut result = ChannelTickResult::default();
        let (mut due, rest): (Vec<_>, Vec<_>) =
            self.in_flight.iter().partition(|r| r.completed_at <= cycle);
        self.in_flight = rest;
        due.sort_by_key(|r| r.completed_at);
        for read in due {
            self.stats.read_latency_sum += read.latency();
            self.completed.push(read);
            result.completions = true;
        }
        self.stats.queue_occupancy_sum += self.queue.len() as u64;

        if let Some(i) = (0..self.queue.len()).find(|&i| self.column_ready(&self.queue[i], cycle)) {
            let e = self.queue.remove(i);
            let b = self.bank(&e.coord);
            let row_result = e.row_result.unwrap_or(RowBufferResult::Hit);
            match row_result {
                RowBufferResult::Hit => self.stats.row_hits += 1,
                RowBufferResult::Miss => self.stats.row_misses += 1,
                RowBufferResult::Conflict => self.stats.row_conflicts += 1,
            }
            self.next_column_cmd = cycle + cfg.t_ccd_s.max(cfg.t_bl);
            self.last_column = Some((cycle, e.coord.bank_group));
            self.stats.data_bus_busy_cycles += cfg.t_bl;
            let mut done = MemCompletion {
                id: e.req.id,
                addr: e.req.addr,
                kind: e.req.kind,
                enqueued_at: e.enqueued_at,
                completed_at: cycle,
                row_result,
            };
            let bank = &mut self.banks[b];
            if e.req.kind == MemOpKind::Read {
                bank.next_precharge = bank.next_precharge.max(cycle + cfg.t_rtp);
                bank.next_column = bank.next_column.max(cycle + cfg.t_ccd_l);
                self.stats.reads += 1;
                done.completed_at = cycle + cfg.t_cl + cfg.t_bl;
                self.in_flight.push(done);
            } else {
                let burst_end = cycle + cfg.t_cwl + cfg.t_bl;
                bank.next_precharge = bank.next_precharge.max(burst_end + cfg.t_wr);
                bank.next_column = bank.next_column.max(burst_end + cfg.t_wtr);
                self.stats.writes += 1;
                self.completed.push(done);
                result.completions = true;
            }
            result.issued = true;
        } else if let Some(i) =
            (0..self.queue.len()).find(|&i| self.activate_ready(&self.queue[i], cycle))
        {
            let e = &mut self.queue[i];
            e.row_result.get_or_insert(RowBufferResult::Miss);
            let (row, group) = (e.coord.row, e.coord.bank_group);
            let b = self.bank(&self.queue[i].coord);
            self.banks[b] = RefBank {
                open_row: Some(row),
                next_activate: cycle + cfg.t_rc,
                next_precharge: cycle + cfg.t_ras,
                next_column: cycle + cfg.t_rcd,
            };
            self.last_activate = Some((cycle, group));
            self.activates.push(cycle);
            self.stats.activates += 1;
            result.issued = true;
        } else if let Some(i) =
            (0..self.queue.len()).find(|&i| self.precharge_ready(&self.queue[i], cycle))
        {
            self.queue[i].row_result = Some(RowBufferResult::Conflict);
            let b = self.bank(&self.queue[i].coord);
            let bank = &mut self.banks[b];
            bank.open_row = None;
            bank.next_activate = bank.next_activate.max(cycle + cfg.t_rp);
            self.stats.precharges += 1;
            result.issued = true;
        }
        result
    }
}

/// SplitMix64: the case generator's random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A random configuration that passes validation: up to 64 banks in any
/// power-of-two split into groups, 1–4 ranks, a few short rows, any queue
/// capacity up to 40, and timings drawn so the cross-constraints hold. The
/// long delays stay within twice the short spacing, the most the channel
/// enforces.
fn random_config(rng: &mut Rng) -> DramConfig {
    let t_rcd = rng.range(1, 24);
    let t_rp = rng.range(1, 24);
    let t_ras = t_rcd + rng.range(0, 30);
    let t_ccd_s = rng.range(1, 6);
    let t_rrd_s = rng.range(1, 6);
    let t_bl = rng.range(1, 8);
    let cfg = DramConfig {
        channels: 1,
        ranks: rng.range(1, 4) as u32,
        bank_groups: 1 << rng.range(0, 3),
        banks_per_group: 1 << rng.range(0, 3),
        rows: 1 << rng.range(1, 4),
        row_bytes: 64 << rng.range(0, 3),
        burst_bytes: 64,
        queue_capacity: rng.range(1, 40) as usize,
        t_cl: rng.range(1, 24),
        t_cwl: rng.range(1, 20),
        t_rcd,
        t_rp,
        t_ras,
        t_rc: t_ras + t_rp + rng.range(0, 10),
        t_ccd_s,
        t_ccd_l: t_ccd_s + rng.range(0, t_ccd_s.max(t_bl)),
        t_rrd_s,
        t_rrd_l: t_rrd_s + rng.range(0, t_rrd_s),
        t_faw: 4 * t_rrd_s + rng.range(0, 20),
        t_wr: rng.range(1, 24),
        t_wtr: rng.range(1, 10),
        t_rtp: rng.range(1, 12),
        t_bl,
    };
    assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
    cfg
}

/// A request and the cycle from which the test offers it to the queue.
type Arrival = (u64, MemRequest, DramCoord);

/// Up to 150 requests in bursts, over a few hot rows per bank so that
/// hits, misses and conflicts all occur.
fn random_stream(rng: &mut Rng, cfg: &DramConfig) -> Vec<Arrival> {
    let n = rng.range(1, 150);
    let mut at = 0;
    (0..n)
        .map(|i| {
            if rng.range(0, 1) == 0 {
                at += rng.range(0, 40);
            }
            let coord = DramCoord {
                channel: 0,
                bank_group: rng.range(0, u64::from(cfg.bank_groups) - 1) as u32,
                bank: rng.range(0, u64::from(cfg.banks_per_group) - 1) as u32,
                row: rng.range(0, cfg.rows.min(4) - 1),
                column: rng.range(0, cfg.columns_per_row() - 1),
            };
            let req = if rng.range(0, 9) < 6 {
                MemRequest::read(i, i * 64)
            } else {
                MemRequest::write(i, i * 64)
            };
            (at, req, coord)
        })
        .collect()
}

/// Offers the waiting requests that have arrived by `cycle`, in order,
/// until the queue turns one away.
fn offer(
    stream: &[Arrival],
    next: &mut usize,
    cycle: u64,
    mut enqueue: impl FnMut(MemRequest, DramCoord) -> bool,
) {
    while let Some(&(at, req, coord)) = stream.get(*next) {
        if at > cycle || !enqueue(req, coord) {
            break;
        }
        *next += 1;
    }
}

const CYCLE_LIMIT: u64 = 1_000_000;

/// Runs the reference and the channel side by side, one tick per cycle,
/// until both are idle with every request offered. Returns the channel's
/// completions, its statistics and the final cycle.
fn run_per_cycle(
    seed: u64,
    cfg: DramConfig,
    stream: &[Arrival],
) -> (Vec<MemCompletion>, ChannelStats, u64) {
    let mut reference = RefChannel::new(cfg);
    let mut channel = Channel::new(cfg);
    let (mut ref_next, mut ch_next) = (0, 0);
    let mut done = Vec::new();
    for cycle in 0..CYCLE_LIMIT {
        offer(stream, &mut ref_next, cycle, |r, c| {
            reference.enqueue(r, c, cycle)
        });
        offer(stream, &mut ch_next, cycle, |r, c| {
            channel.enqueue(r, c, cycle)
        });
        assert_eq!(
            ch_next, ref_next,
            "seed {seed}: enqueues diverged at cycle {cycle}"
        );
        let expected = reference.tick(cycle);
        let got = channel.tick(cycle);
        assert_eq!(got, expected, "seed {seed}: tick {cycle} diverged");
        let before = done.len();
        channel.drain_completed_into(&mut done);
        assert_eq!(
            done[before..],
            reference.completed[before..],
            "seed {seed}: completions at cycle {cycle} diverged"
        );
        assert_eq!(
            channel.stats(),
            reference.stats,
            "seed {seed}: stats at cycle {cycle}"
        );
        if ch_next == stream.len() && reference.outstanding() == 0 {
            assert_eq!(channel.outstanding(), 0, "seed {seed}: channel still busy");
            return (done, channel.stats(), cycle);
        }
    }
    panic!("seed {seed}: the reference did not drain in {CYCLE_LIMIT} cycles");
}

/// Drives the channel the way the event-driven core does: tick at each
/// predicted event or enqueue opportunity, and account the cycles between
/// in one [`Channel::skip_cycles`] call.
fn run_by_events(cfg: DramConfig, stream: &[Arrival]) -> (Vec<MemCompletion>, ChannelStats, u64) {
    let mut channel = Channel::new(cfg);
    let mut next = 0;
    let mut done = Vec::new();
    let mut cycle = 0;
    loop {
        offer(stream, &mut next, cycle, |r, c| {
            channel.enqueue(r, c, cycle)
        });
        channel.tick(cycle);
        channel.drain_completed_into(&mut done);
        let event = channel.next_event_cycle(cycle + 1);
        let arrival = stream
            .get(next)
            .filter(|_| channel.can_accept())
            .map(|&(at, _, _)| at.max(cycle + 1));
        let Some(to) = [event, arrival].into_iter().flatten().min() else {
            return (done, channel.stats(), cycle);
        };
        channel.skip_cycles(to - (cycle + 1));
        cycle = to;
        assert!(cycle < CYCLE_LIMIT, "event-driven run did not drain");
    }
}

fn check_case(seed: u64) {
    let mut rng = Rng(seed);
    let cfg = random_config(&mut rng);
    let stream = random_stream(&mut rng, &cfg);
    let per_cycle = run_per_cycle(seed, cfg, &stream);
    assert_eq!(
        per_cycle.0.len(),
        stream.len(),
        "seed {seed}: lost requests"
    );
    let by_events = run_by_events(cfg, &stream);
    assert_eq!(
        by_events, per_cycle,
        "seed {seed}: event-driven run diverged ({cfg:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn channel_matches_the_naive_fr_fcfs_reference(seed in any::<u64>()) {
        check_case(seed);
    }
}

/// The default Table III geometry under a saturating stream: full queues,
/// all three passes and every floor active at once.
#[test]
fn table_iii_channel_matches_the_reference_under_saturation() {
    let cfg = DramConfig::ddr4_3200_single_channel();
    let mut rng = Rng(0x5EED);
    let stream: Vec<Arrival> = (0..2_000u64)
        .map(|i| {
            let coord = DramCoord {
                channel: 0,
                bank_group: rng.range(0, 3) as u32,
                bank: rng.range(0, 3) as u32,
                row: rng.range(0, 2),
                column: rng.range(0, 127),
            };
            let req = if i % 3 == 0 {
                MemRequest::write(i, i * 64)
            } else {
                MemRequest::read(i, i * 64)
            };
            (i / 4, req, coord)
        })
        .collect();
    let per_cycle = run_per_cycle(0x5EED, cfg, &stream);
    assert_eq!(run_by_events(cfg, &stream), per_cycle);
}
