//! Key-value and synthetic memory generators: `redis` (Zipfian KV reads and
//! writes), `stm` (perfectly sequential streaming) and `rand` (uniform
//! random).

use super::AccessBuffer;
use crate::trace::{AccessStream, TraceEntry};
use crate::zipf::{scramble, Zipf};
use palermo_oram::rng::OramRng;

/// `redis`: a Zipfian key-value store. Each operation touches the key's
/// index entry and a small value spanning one to four cache lines; 10 % of
/// operations are writes.
#[derive(Debug, Clone)]
pub struct RedisKv {
    keys: u64,
    value_slot_bytes: u64,
    sampler: Zipf,
    rng: OramRng,
    buffer: AccessBuffer,
}

impl RedisKv {
    /// Creates the generator with `keys` keys and 256-byte value slots.
    pub fn new(keys: u64, seed: u64) -> Self {
        let keys = keys.max(1024);
        RedisKv {
            keys,
            value_slot_bytes: 256,
            sampler: Zipf::new(keys, 0.9),
            rng: OramRng::new(seed),
            buffer: AccessBuffer::new(),
        }
    }

    fn refill(&mut self) {
        let key = scramble(self.sampler.sample(&mut self.rng), self.keys);
        // Hash-table index entry.
        let index_addr = key * 16;
        self.buffer.push_read(index_addr);
        // Value area above the index.
        let value_base = self.keys * 16 + key * self.value_slot_bytes;
        let lines = 1 + self.rng.gen_range(self.value_slot_bytes / 64);
        if self.rng.chance(0.1) {
            for i in 0..lines {
                self.buffer.push_write(value_base + i * 64);
            }
        } else {
            self.buffer.push_span_read(value_base, lines);
        }
    }
}

impl AccessStream for RedisKv {
    fn next_access(&mut self) -> TraceEntry {
        loop {
            if let Some(e) = self.buffer.pop() {
                return e;
            }
            self.refill();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        (self.keys * 16 + self.keys * self.value_slot_bytes).next_power_of_two()
    }
}

/// `stm`: the synthetic streaming workload of Fig. 4 — consecutive cache
/// lines are missed one after another, i.e. perfect spatial locality.
#[derive(Debug, Clone)]
pub struct Streaming {
    footprint: u64,
    cursor: u64,
}

impl Streaming {
    /// Creates the generator over a `footprint`-byte region.
    pub fn new(footprint: u64, _seed: u64) -> Self {
        Streaming {
            footprint: footprint.max(1 << 16),
            cursor: 0,
        }
    }
}

impl AccessStream for Streaming {
    fn next_access(&mut self) -> TraceEntry {
        let entry = TraceEntry::read(self.cursor);
        self.cursor = (self.cursor + 64) % self.footprint;
        entry
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

/// `rand`: uniformly random cache-line accesses with a 10 % write mix — the
/// worst case for any prefetch-based optimisation.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    footprint: u64,
    rng: OramRng,
}

impl UniformRandom {
    /// Creates the generator over a `footprint`-byte region.
    pub fn new(footprint: u64, seed: u64) -> Self {
        UniformRandom {
            footprint: footprint.max(1 << 16),
            rng: OramRng::new(seed),
        }
    }
}

impl AccessStream for UniformRandom {
    fn next_access(&mut self) -> TraceEntry {
        let line = self.rng.gen_range(self.footprint / 64);
        let addr = line * 64;
        if self.rng.chance(0.1) {
            TraceEntry::write(addr)
        } else {
            TraceEntry::read(addr)
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
    fn redis_mix_and_bounds() {
        let mut g = RedisKv::new(100_000, 1);
        let p = profile(&mut g, 20_000);
        assert!(p.write_fraction > 0.02 && p.write_fraction < 0.3);
        for _ in 0..2000 {
            assert!(g.next_access().addr.0 < g.footprint_bytes());
        }
    }

    #[test]
    fn streaming_is_perfectly_sequential() {
        let mut g = Streaming::new(1 << 20, 0);
        let p = profile(&mut g, 10_000);
        assert!(p.sequential_fraction > 0.99);
        assert_eq!(p.write_fraction, 0.0);
    }

    #[test]
    fn streaming_wraps_around() {
        let mut g = Streaming::new(1 << 16, 0);
        let mut max_addr = 0;
        for _ in 0..3000 {
            max_addr = max_addr.max(g.next_access().addr.0);
        }
        assert!(max_addr < 1 << 16);
    }

    #[test]
    fn random_has_no_locality() {
        let mut g = UniformRandom::new(256 << 20, 42);
        let p = profile(&mut g, 20_000);
        assert!(p.sequential_fraction < 0.01, "{}", p.sequential_fraction);
        assert!(p.write_fraction > 0.05 && p.write_fraction < 0.15);
        assert!(p.distinct_lines > 19_000);
    }
}
