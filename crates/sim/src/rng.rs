//! Deterministic randomness for the simulator.
//!
//! All stochastic behaviour (workload sampling, duty-cycling, jitter)
//! flows through [`SimRng`], seeded explicitly, so every experiment is
//! exactly reproducible.
//!
//! The generator is a hand-rolled xoshiro256** seeded via SplitMix64
//! (the reference seeding procedure), so the crate has no external
//! dependencies and the stream is stable across toolchains.

/// A seedable deterministic RNG with simulation-friendly helpers.
///
/// # Examples
///
/// ```
/// use tiered_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.range(0..100), b.range(0..100));
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step — used only to expand the 64-bit seed into the
/// 256-bit xoshiro state (never produces the output stream itself).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed(seed: u64) -> SimRng {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Draws one raw 64-bit value from the stream.
    ///
    /// Consumes exactly one generator step — the same amount as one
    /// [`SimRng::f64`] call — so samplers built on either primitive keep
    /// downstream draws at identical stream positions.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// The core xoshiro256** step: full-period 64-bit output.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample from `range`.
    ///
    /// Uses rejection sampling (Lemire-style threshold) so the result is
    /// exactly uniform over the span, not merely modulo-reduced.
    #[inline]
    pub fn range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample an empty range");
        let span = range.end - range.start;
        if span == 1 {
            return range.start;
        }
        // Reject draws from the tail that would bias `% span`.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return range.start + x % span;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits → the maximum precision an f64 mantissa can hold.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Draws an index with probability proportional to its weight. The
    /// caller passes the weights' sum `total` (`weights.iter().sum()`),
    /// since it draws from the same weights many times.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `total` is not positive.
    #[inline]
    pub fn weighted_index_summed(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.range(0..1_000_000), b.range(0..1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32)
            .filter(|_| a.range(0..u64::MAX) == b.range(0..u64::MAX))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn raw_u64_and_f64_consume_one_step_each() {
        // `u64()` and `f64()` must stay interchangeable in stream cost:
        // one generator step per call.
        let mut a = SimRng::seed(31);
        let mut b = SimRng::seed(31);
        let _ = a.u64();
        let _ = b.f64();
        assert_eq!(a.u64(), b.u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(3);
        for _ in 0..50 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.1));
        }
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = SimRng::seed(17);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn range_covers_small_spans_uniformly() {
        let mut rng = SimRng::seed(23);
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            counts[rng.range(0..4) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1_700..2_300).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn weighted_index_summed_respects_zero_weights() {
        let mut rng = SimRng::seed(11);
        for _ in 0..200 {
            let i = rng.weighted_index_summed(&[0.0, 5.0, 0.0], 5.0);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_index_summed_roughly_proportional() {
        let mut rng = SimRng::seed(13);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[rng.weighted_index_summed(&[1.0, 3.0], 4.0)] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((0.70..0.80).contains(&frac), "frac={frac}");
    }
}
