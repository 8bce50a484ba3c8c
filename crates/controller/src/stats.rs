//! Controller-side statistics: issue activity and ORAM-sync stall accounting.

use palermo_oram::types::SubOram;

/// Counters accumulated by the controller engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Controller cycles simulated.
    pub cycles: u64,
    /// ORAM requests accepted.
    pub requests_accepted: u64,
    /// ORAM requests retired.
    pub requests_finished: u64,
    /// DRAM read bursts issued to the memory controller.
    pub dram_reads_issued: u64,
    /// DRAM write bursts issued to the memory controller.
    pub dram_writes_issued: u64,
    /// Total DRAM operations issued.
    pub issued_ops: u64,
    /// Cycles in which at least one DRAM operation was issued.
    pub issue_cycles: u64,
    /// Cycles in which the controller had pending work but could not issue
    /// anything because of protocol dependencies while the memory queues ran
    /// dry — the "ORAM-sync" overhead of Fig. 3(b).
    pub sync_stall_cycles: u64,
    /// Sync stall cycles attributed to each sub-ORAM level (a stalled cycle
    /// may be attributed to several levels if several were blocked).
    pub sync_stall_by_level: [u64; SubOram::COUNT],
}
