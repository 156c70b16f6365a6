//! A Zipf(s) sampler over `[0, n)` built on a Walker alias table.
//!
//! Datacenter access skew is classically Zipf-like; the workload
//! generators use this within their active windows to concentrate traffic
//! on the hottest pages.
//!
//! Sampling is O(1): one raw `u64` draw is split into a bucket index (the
//! high part of a 128-bit fixed-point product) and an acceptance coin (the
//! low 64 bits), then resolved against the precomputed threshold/alias
//! pair of that bucket. The previous implementation binary-searched a
//! cumulative-weight table — O(log n) per draw and a cache miss per probe
//! step — which dominated the simulator's access-generation cost at large
//! window sizes. Both implementations consume exactly one RNG step per
//! draw, so every *other* consumer of the stream sees identical values;
//! only the rank a given draw maps to differs (the distribution itself is
//! unchanged — see the chi-square goodness-of-fit tests below).

use tiered_sim::SimRng;

/// Samples ranks from a Zipf distribution: `P(k) ∝ 1 / (k+1)^s`.
///
/// Built once per region; sampling is O(1) via the Walker alias method.
///
/// # Examples
///
/// ```
/// use tiered_sim::SimRng;
/// use tiered_workloads::ZipfSampler;
///
/// let zipf = ZipfSampler::new(1000, 0.9);
/// let mut rng = SimRng::seed(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Per-bucket acceptance threshold in 2^64 fixed point: a coin below
    /// it keeps the bucket's own rank, otherwise the alias rank is taken.
    thresh: Vec<u64>,
    /// The donor rank paired with each bucket.
    alias: Vec<u32>,
}

impl ZipfSampler {
    /// Creates a sampler over `n` items with skew `s` (`s = 0` is uniform;
    /// typical web skew is `0.7–1.1`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `u32::MAX`, or `s` is
    /// negative/NaN.
    pub fn new(n: u64, s: f64) -> ZipfSampler {
        assert!(n > 0, "zipf over an empty domain");
        assert!(n <= u32::MAX as u64, "zipf domain too large for u32 ranks");
        assert!(s >= 0.0 && s.is_finite(), "invalid skew {s}");
        let n = n as usize;
        let mut weights = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            let w = 1.0 / ((k + 1) as f64).powf(s);
            total += w;
            weights.push(w);
        }
        // Walker's method: scale weights to mean 1, then pair each
        // under-full bucket with one over-full donor.
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut thresh = vec![u64::MAX; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(s_i), Some(l_i)) = (small.pop(), large.last().copied()) {
            // `as u64` saturates, so a threshold of exactly 1.0 maps to
            // u64::MAX (always accept) rather than wrapping.
            thresh[s_i as usize] = (scaled[s_i as usize] * TWO_POW_64) as u64;
            alias[s_i as usize] = l_i;
            let leftover = (scaled[l_i as usize] + scaled[s_i as usize]) - 1.0;
            scaled[l_i as usize] = leftover;
            if leftover < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        // Buckets left on either worklist hold exactly weight 1 (modulo
        // float error) and keep their always-accept defaults.
        ZipfSampler { thresh, alias }
    }

    /// Draws one rank in `[0, n)`; rank 0 is the hottest.
    ///
    /// O(1): one RNG step, one table probe, no branch on the draw. The
    /// accept/alias choice is a coin flip the branch predictor cannot
    /// learn (at high skew most buckets are mixed), so it is made with a
    /// conditional move instead of a jump.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let x = rng.u64();
        // Fixed-point split of one draw: high 64 bits of x*n select the
        // bucket, the low 64 bits are the acceptance coin.
        let prod = x as u128 * self.thresh.len() as u128;
        let bucket = (prod >> 64) as usize;
        let coin = prod as u64;
        let accept = coin < self.thresh[bucket];
        std::hint::select_unpredictable(accept, bucket as u64, u64::from(self.alias[bucket]))
    }
}

/// `2^64` as f64, for fixed-point threshold conversion.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(zipf: &ZipfSampler, draws: usize, seed: u64) -> Vec<u32> {
        let mut rng = SimRng::seed(seed);
        let mut h = vec![0u32; zipf.thresh.len()];
        for _ in 0..draws {
            h[zipf.sample(&mut rng) as usize] += 1;
        }
        h
    }

    /// The exact Zipf pmf the sampler must reproduce.
    fn exact_pmf(n: u64, s: f64) -> Vec<f64> {
        let mut p: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = p.iter().sum();
        for v in &mut p {
            *v /= total;
        }
        p
    }

    /// Chi-square goodness-of-fit of `draws` samples against `pmf`,
    /// merging consecutive ranks into bins until each expected count is
    /// at least `min_expected` (the textbook validity condition). Returns
    /// the normal-approximation z-score `(chi2 - dof) / sqrt(2 dof)`.
    fn chi_square_z(zipf: &ZipfSampler, pmf: &[f64], draws: usize, seed: u64) -> f64 {
        let h = histogram(zipf, draws, seed);
        let min_expected = 10.0;
        let mut chi2 = 0.0;
        let mut bins = 0usize;
        let mut observed = 0.0;
        let mut expected = 0.0;
        for (count, p) in h.iter().zip(pmf) {
            observed += *count as f64;
            expected += p * draws as f64;
            if expected >= min_expected {
                chi2 += (observed - expected) * (observed - expected) / expected;
                bins += 1;
                observed = 0.0;
                expected = 0.0;
            }
        }
        // Fold any under-full tail remainder into the last bin.
        if expected > 0.0 {
            chi2 += (observed - expected) * (observed - expected) / expected;
            bins += 1;
        }
        assert!(bins >= 2, "degenerate binning");
        let dof = (bins - 1) as f64;
        (chi2 - dof) / (2.0 * dof).sqrt()
    }

    #[test]
    fn samples_stay_in_domain() {
        let zipf = ZipfSampler::new(10, 1.0);
        let mut rng = SimRng::seed(1);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn skew_zero_is_roughly_uniform() {
        let zipf = ZipfSampler::new(8, 0.0);
        let h = histogram(&zipf, 80_000, 2);
        for &c in &h {
            let frac = c as f64 / 80_000.0;
            assert!((0.10..0.15).contains(&frac), "frac={frac}");
        }
    }

    #[test]
    fn high_skew_concentrates_on_low_ranks() {
        let zipf = ZipfSampler::new(1000, 1.2);
        let h = histogram(&zipf, 100_000, 3);
        let head: u32 = h[..10].iter().sum();
        assert!(
            head as f64 / 100_000.0 > 0.5,
            "top-10 got only {head} of 100k"
        );
        // Rank 0 strictly hotter than rank 100.
        assert!(h[0] > h[100]);
    }

    #[test]
    fn zipf_ratio_matches_theory() {
        // P(0)/P(1) = 2^s for Zipf(s).
        let zipf = ZipfSampler::new(100, 1.0);
        let h = histogram(&zipf, 400_000, 4);
        let ratio = h[0] as f64 / h[1] as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn alias_table_matches_exact_pmf_chi_square() {
        // Goodness-of-fit across the skews and domain sizes the workload
        // profiles actually use, plus a 1M-rank stress domain. A z-score
        // of 4 on the chi-square normal approximation would reject a
        // correct sampler ~0.003% of the time; the seeds are fixed, so
        // the test is deterministic either way.
        for &s in &[0.0, 0.8, 1.1] {
            for &n in &[10u64, 1_000, 1_000_000] {
                let zipf = ZipfSampler::new(n, s);
                let pmf = exact_pmf(n, s);
                let z = chi_square_z(&zipf, &pmf, 200_000, 0xC0FFEE ^ n ^ s.to_bits());
                assert!(z < 4.0, "chi-square z={z:.2} for n={n} s={s}");
            }
        }
    }

    #[test]
    fn seeded_samplers_produce_identical_streams() {
        let zipf = ZipfSampler::new(50_000, 0.9);
        let mut a = SimRng::seed(99);
        let mut b = SimRng::seed(99);
        for _ in 0..10_000 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn sample_consumes_exactly_one_rng_step() {
        // Downstream stream positions must be unaffected by how many
        // ranks were drawn before — one step per draw, like the old CDF
        // sampler's single `f64()` call.
        let zipf = ZipfSampler::new(1_000, 0.8);
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        let _ = zipf.sample(&mut a);
        let _ = b.u64();
        assert_eq!(a.u64(), b.u64());
    }

    /// The branchy accept/alias choice `sample` used before it went
    /// branchless, kept as the reference it must match draw for draw.
    fn sample_branchy(zipf: &ZipfSampler, rng: &mut SimRng) -> u64 {
        let x = rng.u64();
        let prod = x as u128 * zipf.thresh.len() as u128;
        let bucket = (prod >> 64) as usize;
        let coin = prod as u64;
        if coin < zipf.thresh[bucket] {
            bucket as u64
        } else {
            zipf.alias[bucket] as u64
        }
    }

    #[test]
    fn branchless_sample_matches_branchy_reference() {
        for &n in &[10u64, 2_433, 1_000_000] {
            for &s in &[0.0, 0.8, 1.1] {
                let zipf = ZipfSampler::new(n, s);
                let mut a = SimRng::seed(0xA11A5 ^ n);
                let mut b = a.clone();
                let mut aliased = 0u32;
                for i in 0..100_000 {
                    let bucket = ((a.clone().u64() as u128 * n as u128) >> 64) as u64;
                    let got = zipf.sample(&mut a);
                    let want = sample_branchy(&zipf, &mut b);
                    assert_eq!(got, want, "draw {i} at n={n} s={s}");
                    aliased += u32::from(got != bucket);
                }
                // Both arms are exercised wherever the table is not flat.
                if s > 0.0 {
                    assert!(aliased > 0, "no alias draws at n={n} s={s}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_rejected() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid skew")]
    fn negative_skew_rejected() {
        ZipfSampler::new(10, -1.0);
    }
}
