//! Deterministic pseudo-random number generation for leaf selection.
//!
//! The ORAM protocol's security rests on leaves being chosen "independently
//! and uniformly at random". For a *simulator* the additional requirement is
//! reproducibility: the same seed must produce the same access trace so that
//! experiments can be re-run bit-identically. We therefore ship a small,
//! well-known generator (SplitMix64 for seeding, Xoshiro256\*\* for the
//! stream) instead of depending on an external crate whose output could
//! change between versions.

use crate::types::LeafId;

/// SplitMix64: used to expand a single `u64` seed into generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[allow(clippy::disallowed_methods, reason = "PRNG steps wrap by definition")]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256\*\*: the workhorse generator for leaf selection and synthetic
/// workload generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator deterministically from a single `u64`.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // Avoid the all-zero state, which is a fixed point.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Returns the next 64-bit output.
    #[allow(clippy::disallowed_methods, reason = "PRNG steps wrap by definition")]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The random source used by ORAM protocol instances.
///
/// ```
/// use palermo_oram::rng::OramRng;
/// let mut a = OramRng::new(42);
/// let mut b = OramRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OramRng {
    inner: Xoshiro256,
}

impl OramRng {
    /// Creates a new generator from a seed.
    pub fn new(seed: u64) -> Self {
        OramRng {
            inner: Xoshiro256::from_seed(seed),
        }
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Returns a uniform value in `[0, bound)` using Lemire's multiply-shift
    /// reduction (no modulo bias for the bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniformly random leaf of a tree with `num_leaves` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves` is zero.
    pub fn uniform_leaf(&mut self, num_leaves: u64) -> LeafId {
        LeafId(self.gen_range(num_leaves))
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let threshold = (p * (u64::MAX as f64)) as u64;
        self.next_u64() < threshold
    }

    /// Returns a floating-point value uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 0 from the SplitMix64 reference code.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = OramRng::new(7);
        let mut b = OramRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = OramRng::new(1);
        let mut b = OramRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = OramRng::new(3);
        for bound in [1u64, 2, 3, 7, 1024, 1_000_000] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn gen_range_zero_panics() {
        OramRng::new(0).gen_range(0);
    }

    #[test]
    fn uniform_leaf_covers_range() {
        let mut rng = OramRng::new(11);
        let leaves = 16u64;
        let mut seen = vec![false; leaves as usize];
        for _ in 0..2000 {
            seen[rng.uniform_leaf(leaves).0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all leaves should be reachable");
    }

    #[test]
    fn uniform_leaf_is_roughly_uniform() {
        let mut rng = OramRng::new(5);
        let leaves = 8u64;
        let n = 80_000;
        let mut counts = vec![0u64; leaves as usize];
        for _ in 0..n {
            counts[rng.uniform_leaf(leaves).0 as usize] += 1;
        }
        let expected = n as f64 / leaves as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 7 degrees of freedom; 99.9th percentile is ~24.3.
        assert!(chi2 < 24.3, "chi-square too large: {chi2}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = OramRng::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((1_900..3_200).contains(&hits), "p=0.25 hits: {hits}");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = OramRng::new(13);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
