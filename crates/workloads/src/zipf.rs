//! Zipfian and uniform samplers for synthetic workload generation.

use palermo_oram::rng::OramRng;

/// A Zipfian sampler over `[0, n)` with skew `s`, using the rejection-free
/// approximate inversion method of Gray et al. (the standard approach in
/// YCSB-style generators).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// `1 + 0.5^theta`: the bound on `u * zetan` below which rank 1 is drawn.
    rank1_bound: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a sampler over `[0, n)` with skew `theta` (0 = uniform,
    /// typical hot-spot workloads use 0.8–0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta >= 1.0` (the method requires θ < 1).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be non-zero");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        // For n <= 2 the Gray et al. denominator `1 - zeta(2)/zeta(n)` is
        // exactly zero (zeta(2.min(n)) == zeta(n)), which used to produce a
        // NaN/inf eta — latent only because `sample` short-circuits those
        // populations before touching eta. Define eta as 0 there instead so
        // the sampler state is finite for every valid population.
        let eta_denominator = 1.0 - zeta2 / zetan;
        let eta = if eta_denominator == 0.0 {
            0.0
        } else {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / eta_denominator
        };
        Zipf {
            n,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation is exact but O(n); cap the work and extrapolate
        // with the integral approximation for very large populations.
        const EXACT_LIMIT: u64 = 100_000;
        let exact_n = n.min(EXACT_LIMIT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > exact_n && theta < 1.0 {
            // Integral of x^-theta from EXACT_LIMIT to n.
            sum +=
                ((n as f64).powf(1.0 - theta) - (exact_n as f64).powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Draws one sample (rank 0 is the hottest item).
    pub fn sample(&self, rng: &mut OramRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The population size.
    pub fn population(&self) -> u64 {
        self.n
    }
}

/// Scrambles a rank into a stable pseudo-random item id so the hottest items
/// are not clustered at the low end of the address space.
///
/// The mapping is a true bijection on `[0, n)`: a two-round Feistel network
/// over the enclosing power-of-two domain, cycle-walked back into `[0, n)`
/// (each walk step applies the same permutation, so distinct ranks can never
/// collide). The previous multiply-shift-modulo "roughly bijective" mapping
/// collided heavily, silently merging distinct hot ranks into one address
/// and shrinking the effective footprint of every Zipf-backed generator.
///
/// # Panics
///
/// Panics if `n` is zero. Ranks outside `[0, n)` are first folded into the
/// enclosing power-of-two domain (callers always pass `rank < n`).
pub fn scramble(rank: u64, n: u64) -> u64 {
    assert!(n > 0, "scramble population must be non-zero");
    debug_assert!(rank < n, "rank {rank} outside population {n}");
    if n == 1 {
        return 0;
    }
    // Enclosing power-of-two domain 2^bits >= n (bits >= 1).
    let bits = 64 - (n - 1).leading_zeros();
    let domain_mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let right_bits = bits - bits / 2; // low half, >= high half
    let right_mask = (1u64 << right_bits) - 1;
    let left_mask = domain_mask >> right_bits;
    let mix = |x: u64, c: u64| -> u64 {
        let mut z = x.wrapping_add(c).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 29;
        z.wrapping_mul(0x94D0_49BB_1331_11EB)
    };
    let mut x = rank & domain_mask;
    loop {
        // Two unbalanced Feistel rounds: each XOR-step is invertible given
        // the untouched half, so the whole round pair permutes the domain.
        let mut left = x >> right_bits;
        let mut right = x & right_mask;
        right ^= mix(left, 0x9E37_79B9_7F4A_7C15) & right_mask;
        left ^= mix(right, 0xD1B5_4A32_D192_ED03) & left_mask;
        x = (left << right_bits) | right;
        // Cycle-walk: 2^bits < 2n, so this loops back into [0, n) after
        // fewer than two iterations in expectation.
        if x < n {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = OramRng::new(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn skewed_distribution_is_head_heavy() {
        let z = Zipf::new(10_000, 0.95);
        let mut rng = OramRng::new(2);
        let samples: Vec<u64> = (0..50_000).map(|_| z.sample(&mut rng)).collect();
        let head = samples.iter().filter(|&&s| s < 100).count();
        // With theta = 0.95 the top 1 % of items should absorb well over a
        // third of the accesses.
        assert!(
            head > samples.len() / 3,
            "head fraction too small: {head}/{}",
            samples.len()
        );
    }

    #[test]
    fn zero_theta_is_roughly_uniform() {
        let z = Zipf::new(64, 0.0);
        let mut rng = OramRng::new(3);
        let mut counts = vec![0u64; 64];
        for _ in 0..64_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 2.5, "max {max} min {min}");
    }

    #[test]
    fn single_item_population() {
        let z = Zipf::new(1, 0.5);
        let mut rng = OramRng::new(4);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.population(), 1);
    }

    #[test]
    fn tiny_populations_have_finite_state_and_sane_samples() {
        // Regression: `Zipf::new(1, θ)` used to compute eta as x / 0 = NaN
        // (and n = 2 as 0 / 0), latent only because `sample` short-circuits
        // those populations. The state must be finite for every valid n.
        for n in [1u64, 2, 3, 4] {
            for theta in [0.0, 0.5, 0.9, 0.99] {
                let z = Zipf::new(n, theta);
                assert!(
                    z.eta.is_finite(),
                    "eta not finite for n={n} theta={theta}: {}",
                    z.eta
                );
                assert!(z.zetan.is_finite());
                let mut rng = OramRng::new(n ^ 0xBEEF);
                for _ in 0..1000 {
                    assert!(z.sample(&mut rng) < n, "n={n} theta={theta}");
                }
            }
        }
    }

    #[test]
    fn sample_matches_the_inline_formula() {
        // The rank-1 bound is precomputed in `new`; draws must equal the
        // Gray et al. formula with `0.5^theta` evaluated on every call.
        let mut params = OramRng::new(0x5A5A);
        for _ in 0..200 {
            let n = 1 + params.gen_range(1 << 20);
            let theta = params.next_f64() * 0.99;
            let z = Zipf::new(n, theta);
            let seed = params.next_u64();
            let (mut a, mut b) = (OramRng::new(seed), OramRng::new(seed));
            for _ in 0..500 {
                let inline = if n == 1 {
                    0
                } else {
                    let u = b.next_f64();
                    let uz = u * z.zetan;
                    if uz < 1.0 {
                        0
                    } else if uz < 1.0 + 0.5f64.powf(theta) {
                        1
                    } else {
                        let rank = (n as f64 * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64;
                        rank.min(n - 1)
                    }
                };
                assert_eq!(z.sample(&mut a), inline, "n={n} theta={theta}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn theta_one_rejected() {
        Zipf::new(10, 1.0);
    }

    #[test]
    fn scramble_stays_in_range_and_spreads() {
        let n = 1 << 20;
        let mut seen_high = false;
        for rank in 0..1000u64 {
            let s = scramble(rank, n);
            assert!(s < n);
            if s > n / 2 {
                seen_high = true;
            }
        }
        assert!(
            seen_high,
            "scramble should spread hot ranks across the space"
        );
    }

    #[test]
    fn scramble_is_injective_over_the_hot_prefix() {
        use std::collections::HashSet;
        // Regression: the old multiply-shift-modulo mapping collided
        // heavily (merging distinct hot ranks into one address). The first
        // min(n, 10^5) ranks must map injectively for power-of-two and
        // ragged populations alike.
        for n in [
            1u64,
            2,
            3,
            64,
            1000,
            12_345,
            1 << 17,
            (1 << 17) + 1,
            1 << 40,
        ] {
            let probe = n.min(100_000);
            let mut seen = HashSet::with_capacity(probe as usize);
            for rank in 0..probe {
                let s = scramble(rank, n);
                assert!(s < n, "scramble({rank}, {n}) = {s} out of range");
                assert!(
                    seen.insert(s),
                    "scramble({rank}, {n}) = {s} collides with an earlier rank"
                );
            }
        }
    }

    #[test]
    fn scramble_is_a_full_permutation_on_small_populations() {
        use std::collections::HashSet;
        for n in [1u64, 2, 5, 8, 129, 4096] {
            let image: HashSet<u64> = (0..n).map(|r| scramble(r, n)).collect();
            assert_eq!(image.len() as u64, n, "n={n}");
        }
    }
}
