//! Free-page watermarks, including TPP's decoupled allocation/demotion
//! watermarks (paper §5.2).
//!
//! Default Linux couples allocation and reclamation around a single set of
//! `min`/`low`/`high` watermarks: reclaim starts below `low`, stops at
//! `high`, and allocations stall (or spill to a remote node) below `min`.
//! TPP adds a `demote_scale_factor` (default 2% of node capacity) so that
//! background demotion *starts earlier* and *reclaims further*, leaving a
//! headroom of free pages for new allocations and promotions.

/// Classic Linux zone watermarks, in pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Watermarks {
    /// Below `min`, allocations on this node fail and spill to the next
    /// node in the fallback list (direct-reclaim territory).
    pub min: u64,
    /// Below `low`, the background reclaimer (kswapd) wakes up.
    pub low: u64,
    /// Reclaim stops once free pages reach `high`.
    pub high: u64,
}

impl Watermarks {
    /// Derives watermarks for a node of `capacity` pages, approximating the
    /// Linux defaults (`watermark_scale_factor` of roughly 0.1% capacity
    /// per gap, floored so tiny test nodes still have distinct levels).
    ///
    /// # Examples
    ///
    /// ```
    /// use tiered_mem::Watermarks;
    /// let wm = Watermarks::for_capacity(262_144); // 1 GiB of 4 KiB pages
    /// assert!(wm.min < wm.low && wm.low < wm.high);
    /// ```
    pub fn for_capacity(capacity: u64) -> Watermarks {
        let gap = (capacity / 1000).max(4);
        let min = gap;
        Watermarks {
            min,
            low: min + gap,
            high: min + 2 * gap,
        }
    }

    /// Watermarks that never trigger (all zero); useful for nodes whose
    /// allocations are not performance-critical in tests.
    pub fn disabled() -> Watermarks {
        Watermarks {
            min: 0,
            low: 0,
            high: 0,
        }
    }

    /// Whether an ordinary allocation may proceed with `free` pages left.
    ///
    /// Mirrors the kernel fast path: allocation is allowed while free pages
    /// stay above `min` (kswapd is woken separately below `low`).
    #[inline]
    pub fn allows_allocation(&self, free: u64) -> bool {
        free > self.min
    }

    /// Whether background reclaim should be running with `free` pages left.
    #[inline]
    pub fn needs_reclaim(&self, free: u64) -> bool {
        free < self.low
    }

    /// Whether reclaim has restored enough headroom to stop.
    #[inline]
    pub fn reclaim_satisfied(&self, free: u64) -> bool {
        free >= self.high
    }
}

/// TPP's decoupled watermark set (paper §5.2).
///
/// * Allocations are governed by the classic watermarks (`base`).
/// * Background **demotion** triggers once free pages drop below
///   `demote_trigger` (a `demote_scale_factor` fraction of capacity,
///   default 2%) and keeps going until `demote_target`, which sits *above*
///   the allocation watermark — this is the decoupling that maintains free
///   headroom for new allocations and promotions.
/// * **Promotions** ignore the allocation watermark entirely and are only
///   bounded by `min`, so hot pages are never trapped on the CXL node just
///   because the local node is moderately busy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TppWatermarks {
    /// The classic watermark triple allocations check against.
    pub base: Watermarks,
    /// Demotion starts when free pages fall below this (2% of capacity by
    /// default).
    pub demote_trigger: u64,
    /// Demotion continues until free pages reach this (above the trigger).
    pub demote_target: u64,
}

/// Default `demote_scale_factor` in basis points (2% = 200 bp), matching
/// the `/proc/sys/vm/demote_scale_factor` default from the paper.
pub const DEFAULT_DEMOTE_SCALE_BP: u32 = 200;

impl TppWatermarks {
    /// Builds the decoupled watermark set for a node of `capacity` pages
    /// with the given `demote_scale_factor` in basis points (1/100 of a
    /// percent; the paper's default 2% is 200 bp).
    ///
    /// The demotion target is 1.5× the trigger so the reclaimer always
    /// frees more than the bare trigger level, maintaining headroom.
    ///
    /// # Examples
    ///
    /// ```
    /// use tiered_mem::{TppWatermarks, DEFAULT_DEMOTE_SCALE_BP};
    /// let wm = TppWatermarks::for_capacity(100_000, DEFAULT_DEMOTE_SCALE_BP);
    /// assert_eq!(wm.demote_trigger, 2000); // 2% of capacity
    /// assert!(wm.demote_target > wm.demote_trigger);
    /// ```
    pub fn for_capacity(capacity: u64, demote_scale_bp: u32) -> TppWatermarks {
        let base = Watermarks::for_capacity(capacity);
        let trigger = (capacity * demote_scale_bp as u64 / 10_000).max(base.high);
        TppWatermarks {
            base,
            demote_trigger: trigger,
            demote_target: trigger + trigger / 2,
        }
    }

    /// Whether background demotion should run with `free` pages left.
    #[inline]
    pub fn needs_demotion(&self, free: u64) -> bool {
        free < self.demote_trigger
    }

    /// Whether a promotion into this node may proceed with `free` pages
    /// left. Promotions bypass the allocation watermark (paper §5.3) and
    /// only respect the hard `min` floor.
    #[inline]
    pub fn allows_promotion(&self, free: u64) -> bool {
        free > self.base.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_ordering_holds_for_all_sizes() {
        for cap in [16u64, 100, 1000, 262_144, 26_214_400] {
            let wm = Watermarks::for_capacity(cap);
            assert!(wm.min < wm.low, "cap={cap}");
            assert!(wm.low < wm.high, "cap={cap}");
            assert!(
                wm.high < cap.max(16),
                "cap={cap}: high {} too large",
                wm.high
            );
        }
    }

    #[test]
    fn allocation_and_reclaim_predicates() {
        let wm = Watermarks::for_capacity(10_000);
        assert!(wm.allows_allocation(wm.min + 1));
        assert!(!wm.allows_allocation(wm.min));
        assert!(wm.needs_reclaim(wm.low - 1));
        assert!(!wm.needs_reclaim(wm.low));
        assert!(wm.reclaim_satisfied(wm.high));
        assert!(!wm.reclaim_satisfied(wm.high - 1));
    }

    #[test]
    fn tpp_trigger_is_two_percent_by_default() {
        let wm = TppWatermarks::for_capacity(1_000_000, DEFAULT_DEMOTE_SCALE_BP);
        assert_eq!(wm.demote_trigger, 20_000);
        assert_eq!(wm.demote_target, 30_000);
    }

    #[test]
    fn tpp_demotion_watermark_sits_above_allocation_watermark() {
        // The paper requires demotion_watermark > allocation_watermark so
        // reclaim keeps running after allocations resume.
        for cap in [10_000u64, 1_000_000, 25_000_000] {
            let wm = TppWatermarks::for_capacity(cap, DEFAULT_DEMOTE_SCALE_BP);
            assert!(wm.demote_trigger >= wm.base.high);
            assert!(wm.demote_target > wm.demote_trigger);
        }
    }

    #[test]
    fn tpp_trigger_never_below_classic_high() {
        // With a tiny scale factor the trigger degrades to the classic high
        // watermark rather than below it.
        let wm = TppWatermarks::for_capacity(10_000, 1);
        assert_eq!(wm.demote_trigger, wm.base.high);
    }

    #[test]
    fn promotion_bypasses_allocation_watermark() {
        let wm = TppWatermarks::for_capacity(100_000, DEFAULT_DEMOTE_SCALE_BP);
        // Free count between min and low: ordinary allocation is allowed
        // only above min, promotion likewise — but promotion stays allowed
        // even when free < demote_trigger (node under demotion pressure).
        let free = wm.base.min + 1;
        assert!(wm.allows_promotion(free));
        assert!(wm.needs_demotion(free));
        assert!(!wm.allows_promotion(wm.base.min));
    }

    #[test]
    fn disabled_watermarks_never_trigger() {
        let wm = Watermarks::disabled();
        assert!(wm.allows_allocation(1));
        assert!(!wm.needs_reclaim(0));
        assert!(wm.reclaim_satisfied(0));
    }
}
