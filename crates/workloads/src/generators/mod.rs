//! Workload generators for the Table II cloud services.
//!
//! Each generator is a deterministic, seedable [`AccessStream`] that mimics
//! the memory-access *structure* of the corresponding application class:
//! pointer chasing (`mcf`), streaming sweeps (`lbm`, `stm`), graph traversal
//! (`pr`, `motif`), embedding gathers (`rm1`, `rm2`, `llm`), key-value
//! accesses (`redis`) and uniform random traffic (`rand`). The generators do
//! not attempt cycle-accurate application modelling — the ORAM homogenises
//! DRAM traffic anyway (§VIII-A) — but they do control the two properties the
//! evaluation is sensitive to: spatial locality (for the prefetch studies)
//! and footprint / reuse (for LLC filtering).
//!
//! [`AccessStream`]: crate::trace::AccessStream

pub mod dlrm;
pub mod graph_apps;
pub mod kv;
pub mod llm;
pub mod spec;

use crate::trace::TraceEntry;
use std::collections::VecDeque;

/// A small helper owned by most generators: a refillable queue of upcoming
/// accesses, so generators can think in terms of "bursts" (a row read, a
/// node visit, an embedding gather) while still exposing a one-access-at-a-
/// time stream.
#[derive(Debug, Clone, Default)]
pub(crate) struct AccessBuffer {
    queue: VecDeque<TraceEntry>,
}

impl AccessBuffer {
    pub(crate) fn new() -> Self {
        AccessBuffer {
            queue: VecDeque::new(),
        }
    }

    pub(crate) fn push_read(&mut self, addr: u64) {
        self.queue.push_back(TraceEntry::read(addr));
    }

    pub(crate) fn push_write(&mut self, addr: u64) {
        self.queue.push_back(TraceEntry::write(addr));
    }

    /// Pushes `lines` consecutive cache-line reads starting at `addr`.
    pub(crate) fn push_span_read(&mut self, addr: u64, lines: u64) {
        for i in 0..lines {
            self.push_read(addr + i * 64);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<TraceEntry> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palermo_oram::types::OramOp;

    #[test]
    fn buffer_preserves_order_and_ops() {
        let mut b = AccessBuffer::new();
        b.push_read(0);
        b.push_write(64);
        b.push_span_read(128, 2);
        assert_eq!(b.pop().unwrap().op, OramOp::Read);
        assert_eq!(b.pop().unwrap().op, OramOp::Write);
        assert_eq!(b.pop().unwrap().addr.0, 128);
        assert_eq!(b.pop().unwrap().addr.0, 192);
        assert!(b.pop().is_none());
    }
}
