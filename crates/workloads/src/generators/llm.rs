//! Large-language-model inference generator (`llm`): GPT-2-style token
//! feature-table reads driven by a Zipfian token stream, plus sequential
//! KV-cache appends.

use super::AccessBuffer;
use crate::trace::{AccessStream, TraceEntry};
use crate::zipf::{scramble, Zipf};
use palermo_oram::rng::OramRng;

/// The `llm` workload of Table II: the sensitive structure is the token
/// embedding table — the sequence of rows read reveals the user's prompt —
/// so that table lives in the protected space.
#[derive(Debug, Clone)]
pub struct LlmInference {
    vocab: u64,
    row_bytes: u64,
    sampler: Zipf,
    rng: OramRng,
    buffer: AccessBuffer,
    kv_cursor: u64,
    kv_bytes: u64,
}

impl LlmInference {
    /// Creates the generator with a `vocab`-entry token table whose rows are
    /// 1536 bytes (GPT-2 small hidden size at fp16).
    pub fn new(vocab: u64, seed: u64) -> Self {
        let vocab = vocab.max(1024);
        LlmInference {
            vocab,
            row_bytes: 1536,
            sampler: Zipf::new(vocab, 0.95),
            rng: OramRng::new(seed),
            buffer: AccessBuffer::new(),
            kv_cursor: 0,
            kv_bytes: 8 << 20,
        }
    }

    fn table_footprint(&self) -> u64 {
        self.vocab * self.row_bytes
    }

    fn refill(&mut self) {
        // One decoded token: read its embedding row...
        let token = scramble(self.sampler.sample(&mut self.rng), self.vocab);
        let row_addr = token * self.row_bytes;
        self.buffer.push_span_read(row_addr, self.row_bytes / 64);
        // ...and append a KV-cache entry (sequential writes above the table).
        let kv_base = self.table_footprint();
        for i in 0..2u64 {
            self.buffer
                .push_write(kv_base + (self.kv_cursor + i * 64) % self.kv_bytes);
        }
        self.kv_cursor = (self.kv_cursor + 2 * 64) % self.kv_bytes;
    }
}

impl AccessStream for LlmInference {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        (self.table_footprint() + self.kv_bytes).next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::profile;

    #[test]
    fn rows_are_read_as_bursts() {
        let mut g = LlmInference::new(50_000, 1);
        let p = profile(&mut g, 20_000);
        // 24 of every 26 accesses walk a row sequentially.
        assert!(p.sequential_fraction > 0.7, "{}", p.sequential_fraction);
        assert!(p.write_fraction > 0.03 && p.write_fraction < 0.15);
    }

    #[test]
    fn token_popularity_is_skewed() {
        let mut g = LlmInference::new(50_000, 2);
        let mut rows = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let e = g.next_access();
            if e.addr.0 < g.table_footprint() {
                *rows.entry(e.addr.0 / g.row_bytes).or_insert(0u64) += 1;
            }
        }
        let max = rows.values().copied().max().unwrap();
        let avg = (rows.values().sum::<u64>() / rows.len() as u64).max(1);
        assert!(max > avg * 4, "max {max} avg {avg}");
    }

    #[test]
    fn addresses_in_footprint() {
        let mut g = LlmInference::new(10_000, 3);
        for _ in 0..5000 {
            assert!(g.next_access().addr.0 < g.footprint_bytes());
        }
    }
}
