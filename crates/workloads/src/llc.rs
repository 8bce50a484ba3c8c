//! A set-associative last-level cache model.
//!
//! The ORAM controller serves LLC *misses*; everything that hits in the LLC
//! never reaches the oblivious memory. The cache model is what makes the
//! prefetch-based schemes (PrORAM, LAORAM, Palermo+Prefetch) meaningful in
//! the simulator: lines they prefetch are inserted here, and subsequent
//! accesses to them are filtered out exactly as in the paper's evaluation.

use palermo_oram::params::BLOCK_BYTES;
use palermo_oram::types::PhysAddr;

/// LLC geometry. Lines are [`BLOCK_BYTES`] long, the ORAM block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes (Table III: 8 MB shared L3).
    pub capacity_bytes: u64,
    /// Associativity (Table III: 16 ways).
    pub ways: u32,
}

impl Default for LlcConfig {
    fn default() -> Self {
        LlcConfig {
            capacity_bytes: 8 << 20,
            ways: 16,
        }
    }
}

impl LlcConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / u64::from(self.ways) / BLOCK_BYTES
    }

    /// Validates that the geometry is consistent: the capacity must divide
    /// exactly into `ways × BLOCK_BYTES` rows and imply a power-of-two set
    /// count.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("ways must be non-zero".into());
        }
        // A capacity that is not a multiple of ways x line size used to be
        // accepted silently: integer division rounded the set count down,
        // modelling a smaller cache than configured.
        let row_bytes = u64::from(self.ways) * BLOCK_BYTES;
        if !self.capacity_bytes.is_multiple_of(row_bytes) {
            return Err(format!(
                "capacity {} B is not a multiple of ways x line size ({row_bytes} B); \
the truncated geometry would silently model a smaller cache",
                self.capacity_bytes
            ));
        }
        let sets = self.sets();
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a non-zero power of two"));
        }
        Ok(())
    }
}

/// A set-associative LLC with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Llc {
    config: LlcConfig,
    /// Per set: lines ordered most-recently-used first.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: LlcConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid LLC configuration: {e}"));
        Llc {
            sets: vec![Vec::with_capacity(config.ways as usize); config.sets() as usize],
            hits: 0,
            misses: 0,
            config,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets()) as usize
    }

    fn sets(&self) -> u64 {
        self.sets.len() as u64
    }

    /// Performs a demand access. Returns `true` on a hit. Misses allocate
    /// the line (the ORAM fill is modelled by the caller's miss handling).
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        let line = addr.cache_line().0;
        let set = self.set_of(line);
        let ways = self.config.ways as usize;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&l| l == line) {
            let hit_line = entries.remove(pos);
            entries.insert(0, hit_line);
            self.hits += 1;
            true
        } else {
            entries.insert(0, line);
            entries.truncate(ways);
            self.misses += 1;
            false
        }
    }

    /// Inserts a line without counting a demand access (prefetch fill).
    pub fn fill_line(&mut self, line: u64) {
        let set = self.set_of(line);
        let ways = self.config.ways as usize;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&l| l == line) {
            let l = entries.remove(pos);
            entries.insert(0, l);
        } else {
            entries.insert(0, line);
            entries.truncate(ways);
        }
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Demand hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 4 sets x 2 ways x 64 B = 512 B.
        Llc::new(LlcConfig {
            capacity_bytes: 512,
            ways: 2,
        })
    }

    #[test]
    fn default_geometry_matches_table_iii() {
        let cfg = LlcConfig::default();
        assert_eq!(cfg.sets(), 8192);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn hit_after_miss() {
        let mut llc = tiny();
        assert!(!llc.access(PhysAddr::new(0)));
        assert!(llc.access(PhysAddr::new(0)));
        assert!(llc.access(PhysAddr::new(32)), "same line");
        assert_eq!(llc.misses(), 1);
        assert_eq!(llc.hits(), 2);
        assert!((llc.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut llc = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        assert!(!llc.access(PhysAddr::new(0)));
        assert!(!llc.access(PhysAddr::new(4 * 64)));
        assert!(!llc.access(PhysAddr::new(8 * 64))); // evicts line 0
        assert!(!llc.access(PhysAddr::new(0)), "line 0 was evicted");
        assert!(llc.access(PhysAddr::new(8 * 64)), "line 8 still resident");
    }

    #[test]
    fn prefetch_fill_avoids_future_miss() {
        let mut llc = tiny();
        llc.fill_line(2);
        assert!(llc.access(PhysAddr::new(128)));
        assert_eq!(llc.misses(), 0);
    }

    #[test]
    fn fill_does_not_duplicate() {
        let mut llc = tiny();
        llc.fill_line(3);
        llc.fill_line(3);
        assert!(llc.access(PhysAddr::new(3 * 64)));
        assert_eq!(llc.hits(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid LLC configuration")]
    fn invalid_geometry_panics() {
        Llc::new(LlcConfig {
            capacity_bytes: 100,
            ways: 3,
        });
    }

    #[test]
    #[should_panic(expected = "not a multiple of ways x line size")]
    fn truncating_capacity_is_rejected() {
        // Regression: 520 B over 2 ways of 64 B lines rounds down to 4 sets
        // (a power of two!), so the old validation accepted a geometry that
        // silently modelled a 512 B cache.
        Llc::new(LlcConfig {
            capacity_bytes: 520,
            ways: 2,
        });
    }

    #[test]
    fn exact_geometry_still_validates() {
        assert!(LlcConfig {
            capacity_bytes: 512,
            ways: 2,
        }
        .validate()
        .is_ok());
    }
}
