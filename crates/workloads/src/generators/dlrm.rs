//! Deep-learning recommendation model (DLRM) generators: `rm1`
//! (memory-bound, Meta-style, many embedding lookups per sample) and `rm2`
//! (balanced, Alibaba-style, fewer lookups interleaved with dense compute).

use super::AccessBuffer;
use crate::trace::{AccessStream, TraceEntry};
use crate::zipf::{scramble, Zipf};
use palermo_oram::rng::OramRng;

/// Shared embedding-gather engine.
#[derive(Debug, Clone)]
struct EmbeddingTables {
    rows: u64,
    row_bytes: u64,
    sampler: Zipf,
    rng: OramRng,
}

impl EmbeddingTables {
    fn new(rows: u64, row_bytes: u64, skew: f64, seed: u64) -> Self {
        EmbeddingTables {
            rows,
            row_bytes,
            sampler: Zipf::new(rows, skew),
            rng: OramRng::new(seed),
        }
    }

    fn gather(&mut self, buffer: &mut AccessBuffer) {
        let row = scramble(self.sampler.sample(&mut self.rng), self.rows);
        let addr = row * self.row_bytes;
        buffer.push_span_read(addr, self.row_bytes.div_ceil(64));
    }

    fn footprint(&self) -> u64 {
        (self.rows * self.row_bytes).next_power_of_two()
    }
}

/// `rm1`: memory-bound DLRM inference — dozens of sparse embedding lookups
/// per sample dominate, dense layers are negligible.
#[derive(Debug, Clone)]
pub struct DlrmMemBound {
    tables: EmbeddingTables,
    buffer: AccessBuffer,
    lookups_per_sample: u32,
}

impl DlrmMemBound {
    /// Creates the generator with `rows` embedding rows of 128 bytes.
    pub fn new(rows: u64, seed: u64) -> Self {
        DlrmMemBound {
            tables: EmbeddingTables::new(rows.max(1024), 128, 0.9, seed),
            buffer: AccessBuffer::new(),
            lookups_per_sample: 64,
        }
    }

    fn refill(&mut self) {
        for _ in 0..self.lookups_per_sample {
            self.tables.gather(&mut self.buffer);
        }
    }
}

impl AccessStream for DlrmMemBound {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.tables.footprint()
    }
}

/// `rm2`: balanced DLRM — fewer embedding lookups per sample, interleaved
/// with sequential sweeps over MLP weight matrices.
#[derive(Debug, Clone)]
pub struct DlrmBalanced {
    tables: EmbeddingTables,
    buffer: AccessBuffer,
    mlp_cursor: u64,
    mlp_bytes: u64,
    lookups_per_sample: u32,
}

impl DlrmBalanced {
    /// Creates the generator with `rows` embedding rows of 256 bytes and a
    /// 4 MiB dense-weight region.
    pub fn new(rows: u64, seed: u64) -> Self {
        let tables = EmbeddingTables::new(rows.max(1024), 256, 0.8, seed);
        DlrmBalanced {
            mlp_bytes: 4 << 20,
            mlp_cursor: 0,
            buffer: AccessBuffer::new(),
            lookups_per_sample: 16,
            tables,
        }
    }

    fn refill(&mut self) {
        let embedding_footprint = self.tables.footprint();
        for _ in 0..self.lookups_per_sample {
            self.tables.gather(&mut self.buffer);
        }
        // Dense-layer sweep: 32 sequential lines from the weight region,
        // which lives above the embedding tables.
        for i in 0..32u64 {
            let addr = embedding_footprint + (self.mlp_cursor + i * 64) % self.mlp_bytes;
            self.buffer.push_read(addr);
        }
        self.mlp_cursor = (self.mlp_cursor + 32 * 64) % self.mlp_bytes;
    }
}

impl AccessStream for DlrmBalanced {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        (self.tables.footprint() + self.mlp_bytes).next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::profile;

    #[test]
    fn rm1_is_gather_dominated() {
        let mut g = DlrmMemBound::new(1 << 20, 1);
        let p = profile(&mut g, 20_000);
        // Rows are 2 lines, so roughly half the accesses are the second line
        // of a row (sequential), the other half are random row starts.
        assert!(p.sequential_fraction > 0.3 && p.sequential_fraction < 0.7);
        assert_eq!(p.write_fraction, 0.0);
        for _ in 0..1000 {
            assert!(g.next_access().addr.0 < g.footprint_bytes());
        }
    }

    #[test]
    fn rm2_mixes_dense_and_sparse() {
        let mut g = DlrmBalanced::new(1 << 18, 2);
        let p = profile(&mut g, 20_000);
        assert!(p.sequential_fraction > 0.5, "{}", p.sequential_fraction);
        for _ in 0..1000 {
            assert!(g.next_access().addr.0 < g.footprint_bytes());
        }
    }

    #[test]
    fn embedding_popularity_is_skewed() {
        let mut g = DlrmMemBound::new(1 << 16, 3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let e = g.next_access();
            *counts.entry(e.addr.0 / 128).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let avg = 30_000 / counts.len() as u64;
        assert!(max > avg * 5, "max {max} avg {avg}");
    }
}
