//! The Chameleon Worker: turns interval sample tables into per-page
//! activeness history (paper §3.1).
//!
//! For each page the Worker keeps a 64-bit bitmap; bit 0 is the most
//! recent interval. At every interval boundary all bitmaps shift left one
//! bit and sampled pages get bit 0 set — giving 64 intervals of history
//! per page, exactly as the paper describes.

use std::collections::HashMap;

use tiered_mem::{PageKey, PageType};

use crate::collector::PageSamples;

/// Per-page activeness history.
#[derive(Clone, Copy, Debug)]
pub struct PageHistory {
    /// Interval activeness bits; bit 0 = most recent interval.
    pub bitmap: u64,
    /// The page's type as of the latest sample.
    pub page_type: PageType,
    /// Interval index when the page was first observed.
    pub first_interval: u32,
    /// Lifetime sampled loads.
    pub loads: u64,
    /// Lifetime sampled stores.
    pub stores: u64,
}

impl PageHistory {
    /// Whether the page was active in any of the most recent `k`
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than 64.
    pub(crate) fn active_within(&self, k: u32) -> bool {
        assert!((1..=64).contains(&k), "window {k} out of 1..=64");
        let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        self.bitmap & mask != 0
    }

    /// If the page just became active (bit 0 set, bit 1 clear), how many
    /// intervals it had been cold — `None` if it is not a fresh
    /// re-activation or was never active before.
    pub(crate) fn reaccess_gap(&self) -> Option<u32> {
        if self.bitmap & 1 == 0 || self.bitmap & 2 != 0 {
            return None;
        }
        let earlier = self.bitmap >> 1;
        if earlier == 0 {
            return None; // first activity ever observed
        }
        Some(earlier.trailing_zeros() + 1)
    }
}

/// The Worker: interval processing and history store.
#[derive(Clone, Debug)]
pub struct Worker {
    pages: HashMap<PageKey, PageHistory>,
    intervals: u32,
    /// Bits of history consumed per interval. 1 (the default) records
    /// activeness only; more bits record a saturating per-interval access
    /// frequency at the cost of shorter history (64 / bits intervals) —
    /// the paper's configurable trade-off (§3.1).
    bits_per_interval: u32,
}

impl Default for Worker {
    fn default() -> Worker {
        Worker::new()
    }
}

impl Worker {
    /// Creates an empty worker with 1 bit per interval (activeness only).
    pub(crate) fn new() -> Worker {
        Worker::with_bits(1)
    }

    /// Creates a worker recording `bits` per interval (1–8): each
    /// interval stores `min(samples, 2^bits - 1)` instead of a single
    /// activeness bit.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub(crate) fn with_bits(bits: u32) -> Worker {
        assert!(
            (1..=8).contains(&bits),
            "bits_per_interval {bits} out of 1..=8"
        );
        Worker {
            pages: HashMap::new(),
            intervals: 0,
            bits_per_interval: bits,
        }
    }

    /// Bits of history consumed per interval.
    pub fn bits_per_interval(&self) -> u32 {
        self.bits_per_interval
    }

    /// Recorded access frequency of `key` in the most recent interval
    /// (saturated at `2^bits - 1`).
    pub fn last_interval_frequency(&self, key: PageKey) -> u64 {
        let mask = (1u64 << self.bits_per_interval) - 1;
        self.pages.get(&key).map_or(0, |h| h.bitmap & mask)
    }

    /// Number of distinct pages ever observed.
    pub fn tracked_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterates all `(page, history)` entries.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&PageKey, &PageHistory)> {
        self.pages.iter()
    }

    /// Processes one interval's samples: shift every history left by
    /// `bits_per_interval` and record this interval's activity (a single
    /// bit, or a saturating sample count in frequency mode).
    pub(crate) fn process_interval(&mut self, samples: HashMap<PageKey, PageSamples>) {
        let bits = self.bits_per_interval;
        let cap = (1u64 << bits) - 1;
        for h in self.pages.values_mut() {
            h.bitmap <<= bits;
        }
        for (key, s) in samples {
            let entry = self.pages.entry(key).or_insert(PageHistory {
                bitmap: 0,
                page_type: s.page_type.unwrap_or(PageType::Anon),
                first_interval: self.intervals,
                loads: 0,
                stores: 0,
            });
            entry.bitmap |= s.total().clamp(1, cap);
            if let Some(t) = s.page_type {
                entry.page_type = t;
            }
            entry.loads += s.loads;
            entry.stores += s.stores;
        }
        self.intervals += 1;
    }

    /// Number of tracked pages (optionally restricted to one accounting
    /// class: `Some(true)` = anon, `Some(false)` = file) active within
    /// the last `k` intervals.
    ///
    /// Divide by a *resident-page* count from the system under test to
    /// get an unbiased hot fraction — the tracked-page denominator of
    /// [`Worker::hot_fraction`] only contains pages the sampler ever
    /// saw, which over-estimates hotness at sparse sampling rates.
    pub fn hot_pages(&self, k: u32, class: Option<bool>) -> u64 {
        let window_bits = (k * self.bits_per_interval).min(64);
        let mut hot = 0u64;
        for h in self.pages.values() {
            if let Some(want_anon) = class {
                if h.page_type.is_anon() != want_anon {
                    continue;
                }
            }
            if h.active_within(window_bits) {
                hot += 1;
            }
        }
        hot
    }

    /// Fraction of tracked pages (optionally restricted to one accounting
    /// class) active within the last `k` intervals — the Figure 7/8
    /// quantity, relative to pages the sampler has observed.
    pub fn hot_fraction(&self, k: u32, class: Option<bool>) -> f64 {
        let mut total = 0u64;
        let mut hot = 0u64;
        let window_bits = (k * self.bits_per_interval).min(64);
        for h in self.pages.values() {
            if let Some(want_anon) = class {
                if h.page_type.is_anon() != want_anon {
                    continue;
                }
            }
            total += 1;
            if h.active_within(window_bits) {
                hot += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hot as f64 / total as f64
        }
    }

    /// Count of tracked pages per accounting class `(anon, file)` — the
    /// Figure 9 usage split.
    pub(crate) fn usage_by_class(&self) -> (u64, u64) {
        let mut anon = 0;
        let mut file = 0;
        for h in self.pages.values() {
            if h.page_type.is_anon() {
                anon += 1;
            } else {
                file += 1;
            }
        }
        (anon, file)
    }

    /// Histogram of re-access gaps among pages that became active this
    /// interval: `out[g-1]` counts pages that had been cold for `g`
    /// intervals (Figure 11's raw data). `max_gap` bounds the histogram.
    pub(crate) fn reaccess_histogram(&self, max_gap: u32) -> Vec<u64> {
        let mut out = vec![0u64; max_gap as usize];
        for h in self.pages.values() {
            if let Some(gap) = h.reaccess_gap() {
                if gap <= max_gap {
                    out[(gap - 1) as usize] += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{Pid, Vpn};

    fn key(v: u64) -> PageKey {
        PageKey::new(Pid(1), Vpn(v))
    }

    fn samples(keys: &[(u64, PageType)]) -> HashMap<PageKey, PageSamples> {
        keys.iter()
            .map(|&(v, t)| {
                (
                    key(v),
                    PageSamples {
                        loads: 1,
                        stores: 0,
                        page_type: Some(t),
                        last_ns: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn bitmap_shifts_each_interval() {
        let mut w = Worker::new();
        w.process_interval(samples(&[(1, PageType::Anon)]));
        w.process_interval(HashMap::new());
        w.process_interval(HashMap::new());
        let h = w.pages.get(&key(1)).unwrap();
        assert_eq!(h.bitmap, 0b100);
        assert!(!h.active_within(2));
        assert!(h.active_within(3));
    }

    #[test]
    fn hot_fraction_by_class() {
        let mut w = Worker::new();
        w.process_interval(samples(&[
            (1, PageType::Anon),
            (2, PageType::Anon),
            (3, PageType::File),
        ]));
        // Next interval only page 1 is hot.
        w.process_interval(samples(&[(1, PageType::Anon)]));
        assert_eq!(w.hot_fraction(1, Some(true)), 0.5); // 1 of 2 anon
        assert_eq!(w.hot_fraction(1, Some(false)), 0.0);
        assert_eq!(w.hot_fraction(2, None), 1.0); // all active within 2
    }

    #[test]
    fn reaccess_gap_detects_cold_period() {
        let mut w = Worker::new();
        w.process_interval(samples(&[(7, PageType::File)])); // active
        w.process_interval(HashMap::new()); // cold
        w.process_interval(HashMap::new()); // cold
        w.process_interval(samples(&[(7, PageType::File)])); // re-accessed
        let h = w.pages.get(&key(7)).unwrap();
        assert_eq!(h.bitmap, 0b1001);
        assert_eq!(h.reaccess_gap(), Some(3));
        let hist = w.reaccess_histogram(8);
        assert_eq!(hist[2], 1);
        assert_eq!(hist.iter().sum::<u64>(), 1);
    }

    #[test]
    fn continuously_hot_page_is_not_a_reaccess() {
        let mut w = Worker::new();
        w.process_interval(samples(&[(7, PageType::Anon)]));
        w.process_interval(samples(&[(7, PageType::Anon)]));
        assert_eq!(w.pages.get(&key(7)).unwrap().reaccess_gap(), None);
    }

    #[test]
    fn first_ever_activity_is_not_a_reaccess() {
        let mut w = Worker::new();
        w.process_interval(HashMap::new());
        w.process_interval(samples(&[(9, PageType::Anon)]));
        assert_eq!(w.pages.get(&key(9)).unwrap().reaccess_gap(), None);
    }

    #[test]
    fn usage_split_counts_types() {
        let mut w = Worker::new();
        w.process_interval(samples(&[
            (1, PageType::Anon),
            (2, PageType::Tmpfs),
            (3, PageType::File),
        ]));
        assert_eq!(w.usage_by_class(), (1, 2));
    }

    #[test]
    fn frequency_mode_records_sample_counts() {
        let mut w = Worker::with_bits(4);
        let mut s = HashMap::new();
        s.insert(
            key(1),
            PageSamples {
                loads: 9,
                stores: 2,
                page_type: Some(PageType::Anon),
                last_ns: 0,
            },
        );
        w.process_interval(s);
        assert_eq!(w.last_interval_frequency(key(1)), 11);
        // Saturation at 2^4 - 1.
        let mut s = HashMap::new();
        s.insert(
            key(1),
            PageSamples {
                loads: 99,
                stores: 0,
                page_type: Some(PageType::Anon),
                last_ns: 0,
            },
        );
        w.process_interval(s);
        assert_eq!(w.last_interval_frequency(key(1)), 15);
        // Hot within 2 intervals still works with wide slots.
        assert_eq!(w.hot_fraction(2, None), 1.0);
        // After two empty intervals the page is cold within 2.
        w.process_interval(HashMap::new());
        w.process_interval(HashMap::new());
        assert_eq!(w.hot_fraction(2, None), 0.0);
        assert_eq!(w.hot_fraction(4, None), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of 1..=8")]
    fn invalid_bit_width_rejected() {
        Worker::with_bits(9);
    }

    #[test]
    fn history_survives_64_interval_window() {
        let mut w = Worker::new();
        w.process_interval(samples(&[(1, PageType::Anon)]));
        for _ in 0..63 {
            w.process_interval(HashMap::new());
        }
        let h = w.pages.get(&key(1)).unwrap();
        assert!(h.active_within(64));
        // One more shift and the bit falls off the end.
        w.process_interval(HashMap::new());
        assert!(!w.pages.get(&key(1)).unwrap().active_within(64));
    }
}
