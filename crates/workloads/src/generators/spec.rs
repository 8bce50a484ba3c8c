//! SPEC CPU2017-style generators: `mcf` (route planning, pointer chasing)
//! and `lbm` (fluid dynamics, structured streaming).

use super::AccessBuffer;
use crate::trace::{AccessStream, TraceEntry};
use palermo_oram::params::BLOCK_BYTES;
use palermo_oram::rng::OramRng;

/// `mcf`: network-simplex route planning. The memory behaviour is dominated
/// by pointer chasing through arc and node structures with occasional short
/// sequential scans of the arc array — moderate spatial locality.
#[derive(Debug, Clone)]
pub struct Mcf {
    footprint: u64,
    rng: OramRng,
    buffer: AccessBuffer,
    cursor: u64,
}

impl Mcf {
    /// Creates the generator over a `footprint`-byte working set.
    pub fn new(footprint: u64, seed: u64) -> Self {
        Mcf {
            footprint: footprint.max(1 << 16),
            rng: OramRng::new(seed),
            buffer: AccessBuffer::new(),
            cursor: 0,
        }
    }

    fn refill(&mut self) {
        // A node visit: read the node record (2 lines at a pointer-chased
        // location), then with some probability scan a short run of arcs.
        let node = self.rng.gen_range(self.footprint / 128) * 128;
        self.buffer.push_span_read(node, 2);
        if self.rng.chance(0.35) {
            let run = 4 + self.rng.gen_range(4);
            self.buffer
                .push_span_read(self.cursor % self.footprint, run);
            self.cursor = (self.cursor + run * BLOCK_BYTES) % self.footprint;
        }
        if self.rng.chance(0.15) {
            self.buffer.push_write(node);
        }
    }
}

impl AccessStream for Mcf {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

/// `lbm`: lattice-Boltzmann fluid dynamics. Sweeps linearly over large
/// lattices reading several neighbouring cells and writing the updated cell
/// — very high spatial locality.
#[derive(Debug, Clone)]
pub struct Lbm {
    footprint: u64,
    cursor: u64,
    buffer: AccessBuffer,
}

impl Lbm {
    /// Creates the generator over a `footprint`-byte lattice.
    pub fn new(footprint: u64, _seed: u64) -> Self {
        Lbm {
            footprint: footprint.max(1 << 16),
            cursor: 0,
            buffer: AccessBuffer::new(),
        }
    }

    fn refill(&mut self) {
        // One cell update: read 3 consecutive lines of the source lattice and
        // write 1 line of the destination lattice (second half of footprint).
        let half = self.footprint / 2;
        let src = self.cursor % half;
        self.buffer.push_span_read(src, 3);
        self.buffer.push_write(half + src);
        self.cursor = (self.cursor + 3 * BLOCK_BYTES) % half;
    }
}

impl AccessStream for Lbm {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::profile;

    #[test]
    fn mcf_has_moderate_locality_and_stays_in_bounds() {
        let mut g = Mcf::new(64 << 20, 1);
        for _ in 0..5000 {
            let e = g.next_access();
            assert!(e.addr.0 < g.footprint_bytes());
        }
        let p = profile(&mut g, 20_000);
        assert!(p.sequential_fraction > 0.2 && p.sequential_fraction < 0.8);
        assert!(p.write_fraction > 0.0 && p.write_fraction < 0.3);
    }

    #[test]
    fn lbm_is_highly_sequential() {
        let mut g = Lbm::new(64 << 20, 1);
        let p = profile(&mut g, 20_000);
        assert!(p.sequential_fraction > 0.45, "{}", p.sequential_fraction);
        assert!(p.write_fraction > 0.2);
        for _ in 0..1000 {
            assert!(g.next_access().addr.0 < g.footprint_bytes());
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = Mcf::new(1 << 24, 9);
        let mut b = Mcf::new(1 << 24, 9);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
