//! The multi-channel DRAM system presented to the ORAM controller.

use crate::address::AddressMapper;
use crate::channel::{Channel, ChannelTickResult};
use crate::config::DramConfig;
use crate::request::{MemCompletion, MemRequest};
use crate::stats::DramStats;

/// A complete DRAM subsystem: address mapper plus one [`Channel`] per
/// configured channel, advanced in lock step by [`DramSystem::tick`], with
/// each channel's next-event prediction cached beside it.
///
/// ```
/// use palermo_dram::config::DramConfig;
/// use palermo_dram::request::MemRequest;
/// use palermo_dram::system::DramSystem;
///
/// let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
/// assert!(dram.try_enqueue(MemRequest::read(1, 0x1000)));
/// let mut completions = Vec::new();
/// while completions.is_empty() {
///     dram.tick();
///     completions.extend(dram.drain_completed());
/// }
/// assert_eq!(completions[0].id.0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DramSystem {
    config: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    /// Per channel, its exact next-event cycle (`u64::MAX` when idle),
    /// refreshed only when that channel's state changes: an enqueue, or a
    /// tick that came due. One entry per channel, and every shard builds its
    /// own system, so [`DramSystem::next_event_cycle`] is a scan of a few
    /// words.
    next_event: Vec<u64>,
    cycle: u64,
}

impl DramSystem {
    /// Creates an idle DRAM system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation; construct configs with
    /// the provided presets or check [`DramConfig::validate`] first.
    pub fn new(config: DramConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid DRAM configuration: {e}"));
        DramSystem {
            mapper: AddressMapper::new(config),
            channels: (0..config.channels).map(|_| Channel::new(config)).collect(),
            next_event: vec![u64::MAX; config.channels as usize],
            cycle: 0,
            config,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Current memory-clock cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns `true` if the target channel's queue can accept `addr`.
    pub fn can_accept(&self, addr: u64) -> bool {
        let coord = self.mapper.map(addr);
        self.channels[coord.channel as usize].can_accept()
    }

    /// Attempts to enqueue a request; returns `false` if the target
    /// channel's queue is full (the caller retries on a later cycle).
    pub fn try_enqueue(&mut self, req: MemRequest) -> bool {
        let coord = self.mapper.map(req.addr);
        let ch = coord.channel as usize;
        if !self.channels[ch].enqueue(req, coord, self.cycle) {
            return false;
        }
        // The new request can only pull this channel's next event earlier
        // (O(1): the channel min-updates its own prediction on enqueue).
        self.next_event[ch] = self.channels[ch]
            .next_event_cycle(self.cycle)
            .unwrap_or(u64::MAX);
        debug_assert_eq!(
            Some(self.next_event[ch]).filter(|&at| at != u64::MAX),
            self.channels[ch].debug_fresh_next_event(self.cycle),
            "channel {ch}: cached next event diverged from a fresh prediction after an enqueue"
        );
        true
    }

    /// Advances all channels by one memory-clock cycle, reporting what the
    /// tick observably did across channels — the event-driven runner derives
    /// its time-skipping preconditions from the result.
    pub fn tick(&mut self) -> ChannelTickResult {
        self.skip_to_and_tick(self.cycle)
    }

    /// Skips to `event_cycle` (which must be provably quiet for every
    /// channel, i.e. strictly before [`DramSystem::next_event_cycle`] unless
    /// equal to the current cycle) and executes the tick of that cycle, in a
    /// single pass over the channels. Channels whose next event lies
    /// beyond `event_cycle` are *not due*: their per-cycle tick would only
    /// add to the queue-occupancy sum for every cycle through the event, so
    /// the whole stretch folds into one bulk [`Channel::skip_cycles`]
    /// without entering the channel's tick at all. Ends with the clock at
    /// `event_cycle + 1`.
    pub fn skip_to_and_tick(&mut self, event_cycle: u64) -> ChannelTickResult {
        debug_assert!(event_cycle >= self.cycle);
        let gap = event_cycle - self.cycle;
        let mut result = ChannelTickResult::default();
        for (channel, next) in self.channels.iter_mut().zip(&mut self.next_event) {
            // The cached prediction is exact (refreshed on enqueue and
            // whenever a tick can move it), so one beyond the event cycle
            // proves the whole stretch quiet, the tick itself included.
            if *next > event_cycle {
                channel.skip_cycles(gap + 1);
                continue;
            }
            channel.skip_cycles(gap);
            let r = channel.tick(event_cycle);
            result.issued |= r.issued;
            result.completions |= r.completions;
            // The event came due (or the tick acted): refresh the prediction.
            *next = channel
                .next_event_cycle(event_cycle + 1)
                .unwrap_or(u64::MAX);
            // Checked where written; a channel not due keeps its prediction.
            debug_assert_eq!(
                Some(*next).filter(|&at| at != u64::MAX),
                channel.debug_fresh_next_event(event_cycle + 1),
                "cached next event diverged from a fresh prediction after a tick"
            );
        }
        self.cycle = event_cycle + 1;
        result
    }

    /// The earliest cycle `>=` the current cycle at which any channel could
    /// do observable work, or `None` if the whole system is idle: the
    /// minimum of the cached per-channel predictions (see
    /// [`Channel::next_event_cycle`] for the exactness argument).
    pub fn next_event_cycle(&self) -> Option<u64> {
        let next = self.next_event.iter().copied().min()?;
        (next != u64::MAX).then_some(next.max(self.cycle))
    }

    /// Advances the clock by `skipped` provably-idle cycles, performing the
    /// same per-cycle statistics accounting the reference loop would have.
    /// Callers must only skip cycles strictly before
    /// [`DramSystem::next_event_cycle`].
    pub fn skip_cycles(&mut self, skipped: u64) {
        for channel in &mut self.channels {
            channel.skip_cycles(skipped);
        }
        self.cycle += skipped;
    }

    /// Collects all completions produced since the previous call.
    pub fn drain_completed(&mut self) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        self.drain_completed_into(&mut out);
        out
    }

    /// Appends all completions produced since the previous call to `out`
    /// without allocating (the hot-loop variant of
    /// [`DramSystem::drain_completed`]).
    pub fn drain_completed_into(&mut self, out: &mut Vec<MemCompletion>) {
        for channel in &mut self.channels {
            channel.drain_completed_into(out);
        }
    }

    /// Requests currently queued or in flight across all channels.
    pub fn outstanding(&self) -> usize {
        self.channels.iter().map(|c| c.outstanding()).sum()
    }

    /// Requests currently sitting in controller queues.
    pub fn queued(&self) -> usize {
        self.channels.iter().map(|c| c.queue_len()).sum()
    }

    /// Requests currently sitting in each channel's queue, by channel.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.channels.iter().map(|c| c.queue_len()).collect()
    }

    /// Aggregated statistics snapshot.
    pub fn stats(&self) -> DramStats {
        let per_channel: Vec<_> = self.channels.iter().map(|c| c.stats()).collect();
        DramStats::aggregate(self.cycle, &per_channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MemOpKind;

    #[test]
    fn read_write_round_trip_all_channels() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        for i in 0..16u64 {
            assert!(dram.try_enqueue(MemRequest::read(i, i * 64)));
        }
        let mut done = Vec::new();
        for _ in 0..2000 {
            dram.tick();
            done.extend(dram.drain_completed());
            if done.len() == 16 {
                break;
            }
        }
        assert_eq!(done.len(), 16);
        assert!(done.iter().all(|c| c.kind == MemOpKind::Read));
        let stats = dram.stats();
        assert_eq!(stats.reads, 16);
        assert!(stats.bandwidth_utilization() > 0.0);
    }

    #[test]
    fn backpressure_when_queues_full() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_single_channel());
        let cap = dram.config().queue_capacity;
        let mut accepted = 0;
        for i in 0..(cap * 2) as u64 {
            if dram.try_enqueue(MemRequest::write(i, i * 64)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, cap);
        assert!(!dram.can_accept(0));
        assert_eq!(dram.queued(), cap);
    }

    #[test]
    fn more_parallelism_gives_more_bandwidth() {
        // Saturating all four channels must beat trickling one request at a
        // time: the mechanism behind Palermo's speedup, reproduced at the
        // substrate level.
        let run = |max_outstanding: usize| {
            let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
            let total = 400u64;
            let mut issued = 0u64;
            let mut completed = 0usize;
            let mut rng: u64 = 0x1234_5678;
            while completed < total as usize {
                while issued < total && dram.outstanding() < max_outstanding {
                    // Pseudo-random addresses spread over banks.
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let addr = (rng >> 16) % (1 << 28) / 64 * 64;
                    if !dram.try_enqueue(MemRequest::read(issued, addr)) {
                        break;
                    }
                    issued += 1;
                }
                dram.tick();
                completed += dram.drain_completed().len();
                assert!(dram.cycle() < 1_000_000, "stalled");
            }
            dram.cycle()
        };
        let serial_cycles = run(1);
        let parallel_cycles = run(64);
        assert!(
            parallel_cycles * 4 < serial_cycles,
            "parallel {parallel_cycles} vs serial {serial_cycles}"
        );
    }

    #[test]
    fn skip_cycles_matches_ticked_idle_cycles() {
        // Drive the system to a quiet point, then advance one clone tick by
        // tick and the other with a single bulk skip: every statistic and
        // all subsequent behaviour must be identical.
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        for i in 0..8u64 {
            assert!(dram.try_enqueue(MemRequest::read(i, i * 4096)));
        }
        let mut drained = Vec::new();
        // Tick until a quiet cycle with a future event.
        let (mut ticked, mut skipped) = loop {
            let result = dram.tick();
            drained.extend(dram.drain_completed());
            let next = dram.next_event_cycle();
            if !result.any() {
                if let Some(next) = next {
                    if next > dram.cycle() {
                        break (dram.clone(), dram.clone());
                    }
                } else {
                    panic!("system went idle with {} completions", drained.len());
                }
            }
            assert!(dram.cycle() < 10_000, "no quiet window found");
        };
        let next = ticked.next_event_cycle().unwrap();
        let gap = next - ticked.cycle();
        assert!(gap > 0);
        for _ in 0..gap {
            let r = ticked.tick();
            assert!(!r.any(), "reference tick acted inside the skip window");
        }
        skipped.skip_cycles(gap);
        assert_eq!(ticked.cycle(), skipped.cycle());
        assert_eq!(ticked.stats(), skipped.stats());
        // Subsequent behaviour stays in lock step until fully drained.
        for _ in 0..5_000 {
            let a = ticked.tick();
            let b = skipped.tick();
            assert_eq!(a, b);
            assert_eq!(ticked.drain_completed(), skipped.drain_completed());
            if ticked.outstanding() == 0 {
                break;
            }
        }
        assert_eq!(ticked.outstanding(), 0);
        assert_eq!(ticked.stats(), skipped.stats());
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn invalid_config_panics() {
        let cfg = DramConfig {
            channels: 5,
            ..DramConfig::default()
        };
        DramSystem::new(cfg);
    }

    #[test]
    fn stats_track_row_behaviour() {
        let mut dram = DramSystem::new(DramConfig::ddr4_3200_quad_channel());
        // Stream sequentially: should be overwhelmingly row hits.
        for i in 0..256u64 {
            while !dram.try_enqueue(MemRequest::read(i, i * 64)) {
                dram.tick();
            }
        }
        let mut completed = 0usize;
        for _ in 0..20_000 {
            dram.tick();
            completed += dram.drain_completed().len();
            if completed == 256 {
                break;
            }
        }
        let stats = dram.stats();
        assert_eq!(completed, 256);
        assert_eq!(stats.reads, 256);
        assert_eq!(dram.outstanding(), 0);
        assert!(
            stats.row_hit_rate() > 0.8,
            "hit rate {}",
            stats.row_hit_rate()
        );
    }
}
