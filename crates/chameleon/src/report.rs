//! Characterization reports: the data series behind the paper's Figures
//! 7–11, computed from Worker histories.

use tiered_sim::TimeSeries;

use crate::worker::Worker;

/// Page-temperature classes used by heatmap summaries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Temperature {
    /// Active in the most recent interval.
    Hot,
    /// Inactive in the latest interval but active within the history
    /// window.
    Warm,
    /// No activity in the whole retained history.
    Cold,
}

/// Counts of pages per temperature class, split by accounting class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Heatmap {
    /// Hot anon pages.
    pub hot_anon: u64,
    /// Warm anon pages.
    pub warm_anon: u64,
    /// Cold anon pages.
    pub cold_anon: u64,
    /// Hot file-backed pages.
    pub hot_file: u64,
    /// Warm file-backed pages.
    pub warm_file: u64,
    /// Cold file-backed pages.
    pub cold_file: u64,
}

impl Heatmap {
    /// Builds the heatmap from the worker's current histories. `warm_k`
    /// is the look-back window (in intervals) separating warm from cold.
    pub(crate) fn from_worker(worker: &Worker, warm_k: u32) -> Heatmap {
        let mut map = Heatmap::default();
        for (_, h) in worker.iter() {
            let temp = if h.active_within(1) {
                Temperature::Hot
            } else if h.active_within(warm_k) {
                Temperature::Warm
            } else {
                Temperature::Cold
            };
            match (h.page_type.is_anon(), temp) {
                (true, Temperature::Hot) => map.hot_anon += 1,
                (true, Temperature::Warm) => map.warm_anon += 1,
                (true, Temperature::Cold) => map.cold_anon += 1,
                (false, Temperature::Hot) => map.hot_file += 1,
                (false, Temperature::Warm) => map.warm_file += 1,
                (false, Temperature::Cold) => map.cold_file += 1,
            }
        }
        map
    }
}

/// Rolling characterization series, sampled once per interval: the exact
/// quantities plotted in Figures 7 (total vs hot), 8 (per-type hotness)
/// and 9 (per-type usage over time).
#[derive(Clone, Debug)]
pub struct UsageSeries {
    /// Pages tracked in total.
    pub total_pages: TimeSeries,
    /// Fraction of pages active within 1 interval.
    pub hot_frac_1: TimeSeries,
    /// Fraction of pages active within 2 intervals.
    pub hot_frac_2: TimeSeries,
    /// Fraction of anon pages active within 2 intervals.
    pub anon_hot_frac: TimeSeries,
    /// Fraction of file pages active within 2 intervals.
    pub file_hot_frac: TimeSeries,
    /// Anon share of tracked pages.
    pub anon_share: TimeSeries,
}

impl UsageSeries {
    /// Creates empty series.
    pub(crate) fn new() -> UsageSeries {
        UsageSeries {
            total_pages: TimeSeries::new("total_pages"),
            hot_frac_1: TimeSeries::new("hot_frac_1"),
            hot_frac_2: TimeSeries::new("hot_frac_2"),
            anon_hot_frac: TimeSeries::new("anon_hot_frac_2"),
            file_hot_frac: TimeSeries::new("file_hot_frac_2"),
            anon_share: TimeSeries::new("anon_share"),
        }
    }

    /// Samples the worker state at `now_ns`.
    pub(crate) fn sample(&mut self, now_ns: u64, worker: &Worker) {
        let (anon, file) = worker.usage_by_class();
        let total = anon + file;
        self.total_pages.record(now_ns, total as f64);
        self.hot_frac_1.record(now_ns, worker.hot_fraction(1, None));
        self.hot_frac_2.record(now_ns, worker.hot_fraction(2, None));
        self.anon_hot_frac
            .record(now_ns, worker.hot_fraction(2, Some(true)));
        self.file_hot_frac
            .record(now_ns, worker.hot_fraction(2, Some(false)));
        self.anon_share.record(
            now_ns,
            if total == 0 {
                0.0
            } else {
                anon as f64 / total as f64
            },
        );
    }
}

impl Default for UsageSeries {
    fn default() -> UsageSeries {
        UsageSeries::new()
    }
}

/// A complete textual characterization report, in the spirit of the
/// reports the Chameleon tool emits after profiling a service.
///
/// # Examples
///
/// ```
/// use chameleon::{Chameleon, ChameleonConfig, TextReport};
/// let profiler = Chameleon::new(ChameleonConfig::default());
/// let report = TextReport::from_profiler("web", &profiler);
/// assert!(report.to_string().contains("web"));
/// ```
#[derive(Clone, Debug)]
pub struct TextReport {
    name: String,
    tracked: usize,
    sampled: u64,
    seen: u64,
    hot1: f64,
    hot2: f64,
    anon_hot: f64,
    file_hot: f64,
    heatmap: Heatmap,
    cdf: Vec<f64>,
}

impl TextReport {
    /// Builds the report from a profiler's current state.
    pub fn from_profiler(name: impl Into<String>, profiler: &crate::Chameleon) -> TextReport {
        let w = profiler.worker();
        TextReport {
            name: name.into(),
            tracked: w.tracked_pages(),
            sampled: profiler.collector().events_sampled(),
            seen: profiler.collector().events_seen(),
            hot1: w.hot_fraction(1, None),
            hot2: w.hot_fraction(2, None),
            anon_hot: w.hot_fraction(2, Some(true)),
            file_hot: w.hot_fraction(2, Some(false)),
            heatmap: profiler.heatmap(8),
            cdf: profiler.reaccess_cdf(),
        }
    }
}

impl std::fmt::Display for TextReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== Chameleon report: {} ==", self.name)?;
        writeln!(
            f,
            "sampling: {} of {} events ({:.3}%)",
            self.sampled,
            self.seen,
            100.0 * self.sampled as f64 / self.seen.max(1) as f64
        )?;
        writeln!(f, "tracked pages: {}", self.tracked)?;
        writeln!(
            f,
            "hot (of tracked): {:.1}% within 1 interval, {:.1}% within 2",
            self.hot1 * 100.0,
            self.hot2 * 100.0
        )?;
        writeln!(
            f,
            "by type (2 intervals): anon {:.1}%, file {:.1}%",
            self.anon_hot * 100.0,
            self.file_hot * 100.0
        )?;
        writeln!(
            f,
            "heatmap anon h/w/c: {}/{}/{}  file h/w/c: {}/{}/{}",
            self.heatmap.hot_anon,
            self.heatmap.warm_anon,
            self.heatmap.cold_anon,
            self.heatmap.hot_file,
            self.heatmap.warm_file,
            self.heatmap.cold_file
        )?;
        write!(f, "re-access cdf:")?;
        for (g, frac) in self.cdf.iter().enumerate().take(8) {
            write!(f, " <= {}: {:.0}%", g + 1, frac * 100.0)?;
        }
        writeln!(f)
    }
}

/// Cumulative re-access distribution (Figure 11): `cdf[g-1]` = fraction of
/// observed re-accesses whose cold gap was ≤ `g` intervals.
pub fn reaccess_cdf(histogram: &[u64]) -> Vec<f64> {
    let total: u64 = histogram.iter().sum();
    let mut out = Vec::with_capacity(histogram.len());
    let mut acc = 0u64;
    for &c in histogram {
        acc += c;
        out.push(if total == 0 {
            0.0
        } else {
            acc as f64 / total as f64
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::PageSamples;
    use std::collections::HashMap;
    use tiered_mem::{PageKey, PageType, Pid, Vpn};

    fn samples(keys: &[(u64, PageType)]) -> HashMap<PageKey, PageSamples> {
        keys.iter()
            .map(|&(v, t)| {
                (
                    PageKey::new(Pid(1), Vpn(v)),
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
    fn heatmap_classifies_hot_warm_cold() {
        let mut w = Worker::new();
        // Interval 0: pages 1 (anon) and 2 (file) active.
        w.process_interval(samples(&[(1, PageType::Anon), (2, PageType::File)]));
        // Interval 1: only page 1 active.
        w.process_interval(samples(&[(1, PageType::Anon)]));
        let map = Heatmap::from_worker(&w, 4);
        assert_eq!(map.hot_anon, 1);
        assert_eq!(map.warm_file, 1);
        // With a 1-interval warm window, page 2 would look cold... but
        // warm_k=1 equals the hot test, so it degrades to cold.
        let tight = Heatmap::from_worker(&w, 1);
        assert_eq!(tight.cold_file, 1);
    }

    #[test]
    fn usage_series_tracks_shares() {
        let mut w = Worker::new();
        w.process_interval(samples(&[
            (1, PageType::Anon),
            (2, PageType::File),
            (3, PageType::File),
        ]));
        let mut series = UsageSeries::new();
        series.sample(1000, &w);
        assert_eq!(series.total_pages.values(), vec![3.0]);
        assert_eq!(series.hot_frac_1.values(), vec![1.0]);
        let share = series.anon_share.values()[0];
        assert!((share - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let cdf = reaccess_cdf(&[5, 0, 3, 2]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf[0] - 0.5).abs() < 1e-12);
        assert!((cdf[3] - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn cdf_of_empty_histogram_is_zero() {
        assert_eq!(reaccess_cdf(&[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn text_report_renders_all_sections() {
        let profiler = crate::Chameleon::new(crate::ChameleonConfig::default());
        let report = TextReport::from_profiler("test-service", &profiler);
        let text = report.to_string();
        assert!(text.contains("test-service"));
        assert!(text.contains("tracked pages: 0"));
        assert!(text.contains("re-access cdf:"));
        assert!(text.contains("heatmap"));
    }
}
