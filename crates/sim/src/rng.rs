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
        self.u53() as f64 * (1.0 / TWO_POW_53)
    }

    /// The 53 high bits of one step: the integer `f64()` scales into
    /// `[0, 1)`, so a float compare of `f64()` against a constant is an
    /// integer compare of `u53()` against a precomputed bound.
    #[inline]
    pub fn u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// The draw [`SimRng::u53`] would make, with its step kept only
    /// where `keep` is all ones: `keep == 0` returns the value but leaves
    /// the stream where it was. The next state is computed either way and
    /// selected with an and/or mask on each state word, so a caller whose
    /// draw depends on data (which region it picked) takes no branch.
    #[inline]
    pub fn u53_if(&mut self, keep: u64) -> u64 {
        let mut next = self.clone();
        let u = next.u53();
        for (s, n) in self.state.iter_mut().zip(next.state) {
            *s = (n & keep) | (*s & !keep);
        }
        u
    }

    /// The integer bound of [`SimRng::chance`]: `chance(p)` is exactly
    /// `u53() < chance_bound(p)`. Scaling `p` by `2^53` is exact, and an
    /// integer is below a real number exactly when it is below that
    /// number's ceiling. `p <= 0` (or NaN) gives 0, never; `p >= 1` gives
    /// at least `2^53`, always.
    pub fn chance_bound(p: f64) -> u64 {
        (p * TWO_POW_53).ceil() as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

/// `2^53` as `f64`: the number of distinct [`SimRng::u53`] draws.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// A draw of an index with probability proportional to its weight,
/// decided by integer compares.
///
/// The float formula it reproduces scales one `f64()` draw by the
/// weights' sum (`iter().sum()`), then subtracts the weights in order
/// until the remainder falls below the next one; the last index takes
/// whatever is left. Every step of that is monotone in the 53-bit draw
/// `u`, so "index `k` or later" holds from some boundary `u` on. The
/// boundaries are found once, by binary search of the exact formula over
/// `[0, 2^53]`, and [`WeightedIndex::sample`] counts the boundaries its
/// draw reaches: the index comes out as data, with no branch the
/// predictor could miss when the weights are close.
///
/// # Examples
///
/// ```
/// use tiered_sim::{SimRng, WeightedIndex};
///
/// let choice = WeightedIndex::new(&[0.0, 5.0, 0.0]);
/// let mut rng = SimRng::seed(11);
/// assert!((0..100).all(|_| choice.sample(&mut rng) == 1));
/// ```
#[derive(Clone, Debug)]
pub struct WeightedIndex {
    /// `bounds[k - 1]`: the first draw that picks index `k` or later;
    /// `2^53` (no draw) when none does.
    bounds: Box<[u64]>,
}

impl WeightedIndex {
    /// The choice among `weights.len()` indices.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or does not sum to a positive value.
    pub fn new(weights: &[f64]) -> WeightedIndex {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let bounds = (1..weights.len())
            .map(|k| {
                let (mut lo, mut hi) = (0u64, 1u64 << 53);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if float_index(mid, weights, total) >= k {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            })
            .collect();
        WeightedIndex { bounds }
    }

    /// The boundaries, one per index after the first: a 53-bit draw
    /// picks the number of boundaries it is at or above.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Draws one index. Consumes exactly one generator step, as one
    /// `f64()` does, whatever the number of weights.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.u53();
        self.bounds.iter().map(|&b| usize::from(u >= b)).sum()
    }
}

/// The index the float formula picks for the 53-bit draw `u`.
fn float_index(u: u64, weights: &[f64], total: f64) -> usize {
    let mut x = u as f64 * (1.0 / TWO_POW_53) * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
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
    fn u53_if_steps_only_when_kept() {
        let mut a = SimRng::seed(29);
        let mut b = a.clone();
        let peeked = a.u53_if(0);
        assert_eq!(a.u53(), peeked, "a dropped step leaves the stream");
        assert_eq!(b.u53_if(!0), peeked);
        assert_eq!(a.u64(), b.u64(), "a kept step is one plain step");
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let choice = WeightedIndex::new(&[0.0, 5.0, 0.0]);
        let mut rng = SimRng::seed(11);
        for _ in 0..200 {
            assert_eq!(choice.sample(&mut rng), 1);
        }
    }

    #[test]
    fn weighted_index_roughly_proportional() {
        let choice = WeightedIndex::new(&[1.0, 3.0]);
        let mut rng = SimRng::seed(13);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[choice.sample(&mut rng)] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((0.70..0.80).contains(&frac), "frac={frac}");
    }

    #[test]
    fn weighted_index_matches_the_float_formula() {
        // Boundaries sit where the float formula changes its pick, and a
        // sweep of draws (plus each boundary's neighbours) agrees with it.
        for weights in [
            &[1.0, 3.0][..],
            &[0.55, 0.45],
            &[0.2, 0.0, 0.3, 0.5],
            &[1.0],
        ] {
            let total: f64 = weights.iter().sum();
            let choice = WeightedIndex::new(weights);
            let pick = |u: u64| choice.bounds().iter().filter(|&&b| u >= b).count();
            let mut rng = SimRng::seed(19);
            let edges = choice
                .bounds()
                .iter()
                .flat_map(|&b| [b.saturating_sub(1), b, b + 1]);
            for u in edges.chain((0..10_000).map(|_| rng.u53())) {
                if u < 1 << 53 {
                    assert_eq!(pick(u), float_index(u, weights, total), "{weights:?} u={u}");
                }
            }
        }
    }
}
