//! Aggregated DRAM statistics.
//!
//! These are the quantities the paper's figures are built from: bandwidth
//! utilisation (Fig. 3a, Fig. 11), row-buffer hit and bank-conflict rates
//! (Fig. 9 table), average outstanding requests (Fig. 11) and request
//! latencies.

use crate::channel::ChannelStats;
use crate::config::DramConfig;

/// System-wide DRAM statistics, aggregated over all channels.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Total memory-clock cycles simulated.
    pub cycles: u64,
    /// Read bursts issued: a read counts when its column command issues,
    /// before its data returns.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row misses (activate on a precharged bank).
    pub row_misses: u64,
    /// Row conflicts (had to close another row).
    pub row_conflicts: u64,
    /// Data-bus busy cycles summed over channels.
    pub data_bus_busy_cycles: u64,
    /// Sum over cycles of queued requests, summed over channels.
    pub queue_occupancy_sum: u64,
    /// Sum of read latencies in cycles.
    pub read_latency_sum: u64,
    /// Number of channels contributing to the sums.
    pub channels: u32,
}

impl DramStats {
    /// Builds the aggregate from per-channel counters.
    pub fn aggregate(cycles: u64, channels: &[ChannelStats]) -> Self {
        let mut out = DramStats {
            cycles,
            channels: channels.len() as u32,
            ..DramStats::default()
        };
        for ch in channels {
            out.reads += ch.reads;
            out.writes += ch.writes;
            out.row_hits += ch.row_hits;
            out.row_misses += ch.row_misses;
            out.row_conflicts += ch.row_conflicts;
            out.data_bus_busy_cycles += ch.data_bus_busy_cycles;
            out.queue_occupancy_sum += ch.queue_occupancy_sum;
            out.read_latency_sum += ch.read_latency_sum;
        }
        out
    }

    /// Total bursts transferred.
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of peak data-bus bandwidth actually used, in `[0, 1]`.
    pub fn bandwidth_utilization(&self) -> f64 {
        if self.cycles == 0 || self.channels == 0 {
            return 0.0;
        }
        self.data_bus_busy_cycles as f64 / (self.cycles * u64::from(self.channels)) as f64
    }

    /// Achieved bandwidth in GB/s assuming the nominal 1600 MHz clock.
    pub fn achieved_gbps(&self, config: &DramConfig) -> f64 {
        self.bandwidth_utilization() * config.peak_gbps()
    }

    /// Average number of requests waiting in controller queues.
    pub fn avg_queue_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.queue_occupancy_sum as f64 / self.cycles as f64
    }

    /// Row-buffer hit fraction among all column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }

    /// Bank-conflict fraction among all column accesses.
    pub fn bank_conflict_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_conflicts as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DramStats {
        let per_channel = ChannelStats {
            reads: 100,
            writes: 50,
            row_hits: 80,
            row_misses: 40,
            row_conflicts: 30,
            data_bus_busy_cycles: 600,
            queue_occupancy_sum: 5000,
            read_latency_sum: 4600,
            activates: 70,
            precharges: 30,
        };
        DramStats::aggregate(1000, &[per_channel; 4])
    }

    #[test]
    fn aggregation_sums_channels() {
        let s = sample();
        assert_eq!(s.reads, 400);
        assert_eq!(s.writes, 200);
        assert_eq!(s.total_accesses(), 600);
        assert_eq!(s.channels, 4);
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert!((s.bandwidth_utilization() - 2400.0 / 4000.0).abs() < 1e-9);
        assert!((s.avg_queue_occupancy() - 20.0).abs() < 1e-9);
        assert!((s.row_hit_rate() - 80.0 / 150.0).abs() < 1e-9);
        assert!((s.bank_conflict_rate() - 30.0 / 150.0).abs() < 1e-9);
        let cfg = DramConfig::default();
        assert!(s.achieved_gbps(&cfg) > 0.0);
        assert!(s.achieved_gbps(&cfg) <= cfg.peak_gbps());
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = DramStats::default();
        assert_eq!(s.bandwidth_utilization(), 0.0);
        assert_eq!(s.avg_queue_occupancy(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.bank_conflict_rate(), 0.0);
    }
}
