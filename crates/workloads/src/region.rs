//! Windowed memory regions: the access-locality model behind the
//! synthetic workloads.
//!
//! Each region is a contiguous range of virtual pages of one type. At any
//! instant a *window* (a fraction of the region) is "hot": accesses are
//! Zipf-distributed within it. The window slides slowly over the region,
//! which produces exactly the phenomena the paper characterises:
//!
//! * a bounded fraction of memory is touched within a 1–2 minute interval
//!   (paper Figure 7/8 — the window size),
//! * pages cool down and are re-accessed minutes later (Figure 11 — the
//!   window's cycle period),
//! * usage patterns stay steady over time (Figure 9).

use std::cell::Cell;

use tiered_mem::{PageType, Vpn};
use tiered_sim::{AccessKind, SimRng, SEC};

use crate::zipf::ZipfSampler;

/// Optional growth of a region's allocated footprint over time (e.g. Web's
/// anon usage growing while file caches are discarded, Figure 9a).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Growth {
    /// Fraction of the region allocated at time zero.
    pub initial_frac: f64,
    /// Pages added per simulated second until the region is full.
    pub pages_per_sec: f64,
}

/// Static description of a windowed region.
#[derive(Clone, PartialEq, Debug)]
pub struct RegionSpec {
    /// First virtual page of the region.
    pub base_vpn: u64,
    /// Region size in pages.
    pub pages: u64,
    /// Page type materialised on first touch.
    pub page_type: PageType,
    /// Fraction of the (allocated) region inside the hot window.
    pub window_frac: f64,
    /// How long the window rests before sliding.
    pub dwell_ns: u64,
    /// Pages the window slides per dwell.
    pub step_pages: u64,
    /// Zipf skew of accesses within the window (0 = uniform).
    pub zipf_skew: f64,
    /// Fraction of accesses that are stores.
    pub store_frac: f64,
    /// Footprint growth over time, if any.
    pub growth: Option<Growth>,
    /// Fraction of accesses aimed at the *newest* allocated pages (the
    /// allocation frontier) instead of the sliding window. Newly
    /// allocated memory is hot in datacenter services (paper §5.2) — and
    /// it is exactly what default Linux strands on the CXL node during
    /// an allocation surge.
    pub frontier_weight: f64,
    /// Size of the frontier as a fraction of the allocated footprint.
    pub frontier_frac: f64,
    /// Probability of a one-off touch to a uniformly random page of the
    /// whole region (the long tail of sporadic accesses — what instant
    /// promotion wastes migrations on and TPP's active-LRU filter
    /// ignores, §5.3).
    pub tail_weight: f64,
}

impl RegionSpec {
    /// A steady region with sensible defaults: 30 s dwell, window sliding
    /// 5% of itself per dwell, mild skew, read-mostly.
    pub fn steady(base_vpn: u64, pages: u64, page_type: PageType, window_frac: f64) -> RegionSpec {
        let window = ((pages as f64 * window_frac) as u64).max(1);
        RegionSpec {
            base_vpn,
            pages,
            page_type,
            window_frac,
            dwell_ns: 30 * SEC,
            step_pages: (window / 20).max(1),
            zipf_skew: 0.8,
            store_frac: 0.2,
            growth: None,
            frontier_weight: 0.0,
            frontier_frac: 0.05,
            tail_weight: 0.0,
        }
    }
}

/// Snapshot of the window geometry, together with the span of time
/// `[valid_from, valid_from + valid_len)` it holds for.
///
/// The geometry only changes when the dwell step advances or the growth
/// formula adds a page — at most a handful of times per simulated second,
/// versus millions of accesses. Caching the derived values with their
/// validity window keeps every division and float operation off the
/// per-access path (a steady access does one compare) while producing
/// bit-identical results: the cached values come from exactly the
/// arithmetic the accessors used to run per call.
#[derive(Clone, Copy, Debug, Default)]
struct Geometry {
    valid_from: u64,
    /// Zero (the default) for a snapshot that holds at no instant.
    valid_len: u64,
    allocated: u64,
    window: u64,
    start: u64,
    /// Size of the allocation frontier, in pages.
    frontier: u64,
}

/// Runtime sampler for one region.
#[derive(Clone, Debug)]
pub struct WindowedRegion {
    spec: RegionSpec,
    zipf: ZipfSampler,
    /// `(pages * initial_frac) as u64`, hoisted out of the growth formula.
    initial_pages: u64,
    geo: Cell<Geometry>,
}

impl WindowedRegion {
    /// Builds the sampler for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or `window_frac` is outside `(0, 1]`.
    pub fn new(spec: RegionSpec) -> WindowedRegion {
        assert!(spec.pages > 0, "empty region");
        assert!(
            spec.window_frac > 0.0 && spec.window_frac <= 1.0,
            "window_frac {} out of (0,1]",
            spec.window_frac
        );
        let max_window = ((spec.pages as f64 * spec.window_frac) as u64).max(1);
        let zipf = ZipfSampler::new(max_window, spec.zipf_skew);
        let initial_pages = match spec.growth {
            None => spec.pages,
            Some(g) => (spec.pages as f64 * g.initial_frac) as u64,
        };
        WindowedRegion {
            spec,
            zipf,
            initial_pages,
            geo: Cell::new(Geometry::default()),
        }
    }

    /// The window geometry at `now_ns`, recomputed only when `now_ns`
    /// falls outside the cached snapshot's validity window.
    #[inline]
    fn geometry(&self, now_ns: u64) -> Geometry {
        let geo = self.geo.get();
        // One unsigned compare tests both bounds of the window.
        if now_ns.wrapping_sub(geo.valid_from) < geo.valid_len {
            return geo;
        }
        let geo = self.compute_geometry(now_ns);
        self.geo.set(geo);
        geo
    }

    /// The geometry at `now_ns` from scratch, and how long it holds.
    ///
    /// Without growth it holds for the whole dwell step. A growing region
    /// changes whenever the float growth formula adds a page, so its
    /// snapshot holds only at `now_ns` itself (every access of one op
    /// shares it) until the region is full. Growth is monotone in time,
    /// so a region full at `now_ns` stays full, and the snapshot holds
    /// from `now_ns` to the end of the step.
    #[cold]
    fn compute_geometry(&self, now_ns: u64) -> Geometry {
        let step = now_ns / self.spec.dwell_ns;
        let allocated = match self.spec.growth {
            None => self.spec.pages,
            Some(g) => {
                let grown = (now_ns as f64 / SEC as f64 * g.pages_per_sec) as u64;
                (self.initial_pages + grown).min(self.spec.pages).max(1)
            }
        };
        let window = ((allocated as f64 * self.spec.window_frac) as u64).max(1);
        let start = (self.spec.pages / 2 + step.wrapping_mul(self.spec.step_pages)) % allocated;
        let frontier = ((allocated as f64 * self.spec.frontier_frac) as u64).max(1);
        // `step * dwell_ns <= now_ns`, so only the end can overflow.
        let step_start = step * self.spec.dwell_ns;
        let step_end = step_start.saturating_add(self.spec.dwell_ns);
        let (valid_from, valid_until) = match self.spec.growth {
            None => (step_start, step_end),
            Some(_) if allocated == self.spec.pages => (now_ns, step_end),
            Some(_) => (now_ns, now_ns.saturating_add(1)),
        };
        Geometry {
            valid_from,
            valid_len: valid_until - valid_from,
            allocated,
            window,
            start,
            frontier,
        }
    }

    /// The region's static description.
    pub fn spec(&self) -> &RegionSpec {
        &self.spec
    }

    /// Pages allocated (touchable) at `now_ns`, honouring growth.
    pub fn allocated_pages(&self, now_ns: u64) -> u64 {
        self.geometry(now_ns).allocated
    }

    /// Current hot-window size in pages.
    pub fn window_pages(&self, now_ns: u64) -> u64 {
        self.geometry(now_ns).window
    }

    /// First page offset of the hot window at `now_ns`.
    ///
    /// The window starts mid-region (not at offset 0) so the hot set is
    /// decoupled from allocation order from the first instant — hot pages
    /// are *not* conveniently the pages that happened to land on the
    /// local node during warm-up.
    pub fn window_start(&self, now_ns: u64) -> u64 {
        self.geometry(now_ns).start
    }

    /// Time for the window to cycle the entire (full-size) region once —
    /// the region's re-access period (Figure 11).
    pub fn cycle_ns(&self) -> u64 {
        (self.spec.pages / self.spec.step_pages.max(1)).max(1) * self.spec.dwell_ns
    }

    /// Whether `vpn` belongs to this region.
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn.0 >= self.spec.base_vpn && vpn.0 < self.spec.base_vpn + self.spec.pages
    }

    /// Draws one access at `now_ns`.
    #[inline]
    pub fn sample(&self, now_ns: u64, rng: &mut SimRng) -> (Vpn, AccessKind) {
        let geo = self.geometry(now_ns);
        let allocated = geo.allocated;
        let offset = if self.spec.tail_weight > 0.0 && rng.chance(self.spec.tail_weight) {
            // Sporadic one-off touch anywhere in the region.
            rng.range(0..allocated)
        } else if self.spec.frontier_weight > 0.0 && rng.chance(self.spec.frontier_weight) {
            // Hot allocation frontier: the newest pages.
            allocated - 1 - rng.range(0..geo.frontier)
        } else {
            window_offset(self.zipf.sample(rng), geo.window, geo.start, allocated)
        };
        let vpn = Vpn(self.spec.base_vpn + offset);
        let kind = if rng.chance(self.spec.store_frac) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        (vpn, kind)
    }
}

/// The region offset of window rank `rank`: `(start + rank % window) %
/// allocated`, without the divisions.
///
/// The sampler spans the full-size window, so `rank < window` whenever
/// the region is fully allocated and only a growing region folds the
/// rank (a branch steady state never takes). Then `start < allocated` and
/// `rank < window <= allocated` bound the sum below `2 * allocated`, so
/// one conditional subtract wraps it.
#[inline]
fn window_offset(rank: u64, window: u64, start: u64, allocated: u64) -> u64 {
    let rank = if rank < window { rank } else { rank % window };
    let pos = start + rank;
    if pos >= allocated {
        pos - allocated
    } else {
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tiered_sim::MINUTE;

    fn region(window_frac: f64) -> WindowedRegion {
        WindowedRegion::new(RegionSpec::steady(
            1000,
            10_000,
            PageType::Anon,
            window_frac,
        ))
    }

    #[test]
    fn samples_stay_inside_region() {
        let r = region(0.3);
        let mut rng = SimRng::seed(1);
        for t in [0u64, SEC, MINUTE, 10 * MINUTE] {
            for _ in 0..1000 {
                let (vpn, _) = r.sample(t, &mut rng);
                assert!(r.contains(vpn), "{vpn} outside region at t={t}");
            }
        }
    }

    #[test]
    fn coverage_within_interval_tracks_window_frac() {
        // Unique pages touched in a 2-minute interval should approximate
        // window_frac plus a little drift — the Figure 7 quantity.
        let r = region(0.30);
        let mut rng = SimRng::seed(2);
        let mut touched = HashSet::new();
        // ~200k accesses spread over 2 minutes.
        for i in 0..200_000u64 {
            let t = i * (2 * MINUTE / 200_000);
            let (vpn, _) = r.sample(t, &mut rng);
            touched.insert(vpn);
        }
        let frac = touched.len() as f64 / 10_000.0;
        assert!(
            (0.25..0.45).contains(&frac),
            "2-min coverage {frac} far from window 0.30"
        );
    }

    #[test]
    fn window_slides_over_time() {
        let r = region(0.2);
        let s0 = r.window_start(0);
        let s1 = r.window_start(r.spec().dwell_ns);
        assert_ne!(s0, s1);
        // One dwell moves the start by exactly step_pages, modulo the
        // allocated span (plain `s1 - s0` underflows when the window
        // wraps).
        let allocated = r.allocated_pages(0);
        let dist = (s1 + allocated - s0) % allocated;
        assert_eq!(dist, r.spec().step_pages % allocated);
    }

    /// `(allocated, window, start)` at `now_ns`, straight from the spec
    /// with the per-call arithmetic the geometry cache must reproduce.
    fn reference_geometry(spec: &RegionSpec, now_ns: u64) -> (u64, u64, u64) {
        let step = now_ns / spec.dwell_ns;
        let allocated = match spec.growth {
            None => spec.pages,
            Some(g) => {
                let initial = (spec.pages as f64 * g.initial_frac) as u64;
                let grown = (now_ns as f64 / SEC as f64 * g.pages_per_sec) as u64;
                (initial + grown).min(spec.pages).max(1)
            }
        };
        let window = ((allocated as f64 * spec.window_frac) as u64).max(1);
        let start = (spec.pages / 2 + step.wrapping_mul(spec.step_pages)) % allocated;
        (allocated, window, start)
    }

    /// The draw `sample` made with the `%`-based offset formula.
    fn reference_sample(r: &WindowedRegion, now_ns: u64, rng: &mut SimRng) -> (Vpn, AccessKind) {
        let spec = r.spec();
        let (allocated, window, start) = reference_geometry(spec, now_ns);
        let offset = if spec.tail_weight > 0.0 && rng.chance(spec.tail_weight) {
            rng.range(0..allocated)
        } else if spec.frontier_weight > 0.0 && rng.chance(spec.frontier_weight) {
            let frontier = ((allocated as f64 * spec.frontier_frac) as u64).max(1);
            allocated - 1 - rng.range(0..frontier)
        } else {
            let rank = r.zipf.sample(rng) % window;
            (start + rank) % allocated
        };
        let kind = if rng.chance(spec.store_frac) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        (Vpn(spec.base_vpn + offset), kind)
    }

    fn growing_spec() -> RegionSpec {
        let mut spec = RegionSpec::steady(0, 10_000, PageType::Anon, 0.3);
        spec.growth = Some(Growth {
            initial_frac: 0.2,
            pages_per_sec: 37.5,
        });
        spec
    }

    /// Asserts that `cached` (warm) reports what the reference arithmetic
    /// gives at `t`.
    fn assert_geometry_at(cached: &WindowedRegion, t: u64) {
        let (allocated, window, start) = reference_geometry(cached.spec(), t);
        assert_eq!(cached.allocated_pages(t), allocated, "t={t}");
        assert_eq!(cached.window_pages(t), window, "t={t}");
        assert_eq!(cached.window_start(t), start, "t={t}");
    }

    #[test]
    fn cached_geometry_matches_fresh_computation() {
        // A long-lived region (warm cache, hits and misses interleaved)
        // must report exactly what a cold region reports at every instant.
        let spec = growing_spec();
        let cached = WindowedRegion::new(spec.clone());
        for i in 0..2_000u64 {
            // Sub-dwell strides so most queries hit the cache, with
            // occasional jumps (including backwards) forcing misses.
            let t = (i % 7) * SEC / 2 + (i / 7) * 11 * SEC;
            let fresh = WindowedRegion::new(spec.clone());
            assert_eq!(cached.allocated_pages(t), fresh.allocated_pages(t), "t={t}");
            assert_eq!(cached.window_pages(t), fresh.window_pages(t), "t={t}");
            assert_eq!(cached.window_start(t), fresh.window_start(t), "t={t}");
            assert_geometry_at(&cached, t);
        }
    }

    #[test]
    fn cached_geometry_is_exact_at_dwell_boundaries() {
        // The last instant of each step and the first of the next, in
        // both orders, on a steady and a (by then full) growing region.
        let steady = RegionSpec::steady(0, 10_000, PageType::File, 0.2);
        for spec in [steady, growing_spec()] {
            let cached = WindowedRegion::new(spec.clone());
            let dwell = spec.dwell_ns;
            for k in 1..40u64 {
                for t in [k * dwell - 1, k * dwell, k * dwell - 1, k * dwell + 1] {
                    assert_geometry_at(&cached, t);
                }
            }
        }
    }

    #[test]
    fn cached_geometry_is_exact_across_the_instant_growth_completes() {
        let spec = growing_spec();
        let fresh = |t| WindowedRegion::new(spec.clone()).allocated_pages(t);
        // First instant the region is full (growth is monotone).
        let (mut lo, mut hi) = (0u64, 10_000 * SEC);
        assert!(fresh(lo) < spec.pages && fresh(hi) == spec.pages);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fresh(mid) == spec.pages {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let full_at = hi;
        let cached = WindowedRegion::new(spec.clone());
        // Opening the window at the full instant, then querying backwards
        // across it, must not serve the full geometry to the growing past.
        for t in [
            full_at,
            full_at - 1,
            full_at,
            full_at + SEC,
            full_at - 1,
            full_at - SEC,
            full_at + 1,
        ] {
            assert_geometry_at(&cached, t);
        }
        assert_eq!(cached.allocated_pages(full_at - 1), spec.pages - 1);
    }

    #[test]
    fn frozen_window_caches_for_all_time() {
        let mut spec = RegionSpec::steady(0, 5_000, PageType::Anon, 0.4);
        spec.dwell_ns = u64::MAX;
        let cached = WindowedRegion::new(spec);
        for t in [0, 1, SEC, u64::MAX / 2, u64::MAX - 1, u64::MAX, 3, u64::MAX] {
            assert_geometry_at(&cached, t);
        }
        let mut grow = growing_spec();
        grow.dwell_ns = u64::MAX;
        let cached = WindowedRegion::new(grow);
        for t in [0, 1, 300 * SEC, u64::MAX - 1, u64::MAX, 5 * SEC, u64::MAX] {
            assert_geometry_at(&cached, t);
        }
    }

    #[test]
    fn division_free_offset_matches_modulo_formula() {
        let mut rng = SimRng::seed(0x0FF5E7);
        for _ in 0..200_000 {
            let allocated = rng.range(1..1 << 40);
            let window = rng.range(1..allocated + 1);
            let start = rng.range(0..allocated);
            // Ranks span the full-size window, which a growing region's
            // current window may be smaller than.
            let rank = rng.range(0..window * 4);
            assert_eq!(
                window_offset(rank, window, start, allocated),
                (start + rank % window) % allocated,
                "rank={rank} window={window} start={start} allocated={allocated}"
            );
        }
    }

    #[test]
    fn samples_match_the_modulo_reference_stream() {
        // Growth, frontier and tail modes all on, over times spanning the
        // growth phase, its completion and several dwell steps.
        let mut spec = growing_spec();
        spec.dwell_ns = 7 * SEC;
        spec.frontier_weight = 0.3;
        spec.tail_weight = 0.01;
        let region = WindowedRegion::new(spec);
        let mut a = SimRng::seed(0x5A3);
        let mut b = a.clone();
        for i in 0..100_000u64 {
            let t = i * 4 * SEC / 1_000;
            assert_eq!(
                region.sample(t, &mut a),
                reference_sample(&region, t, &mut b),
                "draw {i} t={t}"
            );
        }
        assert_eq!(a.u64(), b.u64());
    }

    #[test]
    fn cycle_period_is_pages_over_step() {
        let r = region(0.2);
        let expected = (10_000 / r.spec().step_pages) * r.spec().dwell_ns;
        assert_eq!(r.cycle_ns(), expected);
    }

    #[test]
    fn growth_expands_allocated_footprint() {
        let mut spec = RegionSpec::steady(0, 1000, PageType::Anon, 0.5);
        spec.growth = Some(Growth {
            initial_frac: 0.1,
            pages_per_sec: 10.0,
        });
        let r = WindowedRegion::new(spec);
        assert_eq!(r.allocated_pages(0), 100);
        assert_eq!(r.allocated_pages(10 * SEC), 200);
        assert_eq!(r.allocated_pages(1000 * SEC), 1000); // capped
    }

    #[test]
    fn store_fraction_respected() {
        let mut spec = RegionSpec::steady(0, 100, PageType::File, 0.5);
        spec.store_frac = 1.0;
        let r = WindowedRegion::new(spec);
        let mut rng = SimRng::seed(3);
        for _ in 0..100 {
            let (_, kind) = r.sample(0, &mut rng);
            assert_eq!(kind, AccessKind::Store);
        }
    }

    #[test]
    fn zipf_concentrates_within_window() {
        let mut spec = RegionSpec::steady(0, 10_000, PageType::Anon, 0.5);
        spec.zipf_skew = 1.1;
        spec.dwell_ns = u64::MAX; // freeze the window
        let r = WindowedRegion::new(spec);
        let mut rng = SimRng::seed(4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            let (vpn, _) = r.sample(0, &mut rng);
            *counts.entry(vpn).or_insert(0u32) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let head: u32 = freqs.iter().take(50).sum();
        assert!(head as f64 / 100_000.0 > 0.3, "no skew: head={head}");
    }

    #[test]
    #[should_panic(expected = "window_frac")]
    fn invalid_window_rejected() {
        WindowedRegion::new(RegionSpec::steady(0, 10, PageType::Anon, 0.0));
    }
}
