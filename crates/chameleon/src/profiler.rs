//! The Chameleon façade: Collector + Worker fed the simulated access
//! stream through [`Chameleon::observe`].
//!
//! Attach a [`Chameleon`] to a system run and it produces the paper's
//! characterization artefacts: per-interval hotness (Fig 7), per-type
//! hotness (Fig 8), usage over time (Fig 9), and the re-access-interval
//! CDF (Fig 11).

use tiered_sim::{Access, Periodic, MINUTE};

use crate::collector::{Collector, CollectorConfig};
use crate::report::{reaccess_cdf, Heatmap, UsageSeries};
use crate::worker::Worker;

/// Chameleon configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChameleonConfig {
    /// Sampling front-end configuration.
    pub collector: CollectorConfig,
    /// Worker interval (paper default: 1 minute). Scale this down
    /// together with simulation time for small experiments.
    pub interval_ns: u64,
    /// Longest re-access gap (in intervals) tracked by the CDF.
    pub max_gap_intervals: u32,
}

impl Default for ChameleonConfig {
    fn default() -> ChameleonConfig {
        ChameleonConfig {
            collector: CollectorConfig::default(),
            interval_ns: MINUTE,
            max_gap_intervals: 16,
        }
    }
}

/// The user-space memory characterization tool, simulated.
#[derive(Clone, Debug)]
pub struct Chameleon {
    config: ChameleonConfig,
    collector: Collector,
    worker: Worker,
    interval: Periodic,
    series: UsageSeries,
    reaccess_hist: Vec<u64>,
}

impl Chameleon {
    /// Creates a profiler with the given configuration.
    pub fn new(config: ChameleonConfig) -> Chameleon {
        Chameleon {
            config,
            collector: Collector::new(config.collector),
            worker: Worker::new(),
            interval: Periodic::new(config.interval_ns),
            series: UsageSeries::new(),
            reaccess_hist: vec![0; config.max_gap_intervals as usize],
        }
    }

    /// A profiler with paper-default settings.
    pub fn with_defaults() -> Chameleon {
        Chameleon::new(ChameleonConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &ChameleonConfig {
        &self.config
    }

    /// The sampling front-end (for overhead statistics).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The history store (for custom queries).
    pub fn worker(&self) -> &Worker {
        &self.worker
    }

    /// Per-interval characterization series collected so far.
    pub fn series(&self) -> &UsageSeries {
        &self.series
    }

    /// Current heatmap with a `warm_k`-interval warm window.
    pub fn heatmap(&self, warm_k: u32) -> Heatmap {
        Heatmap::from_worker(&self.worker, warm_k)
    }

    /// Cumulative re-access CDF over all completed intervals (Figure 11);
    /// `cdf[g-1]` = fraction of re-accesses after a cold gap ≤ `g`
    /// intervals.
    pub fn reaccess_cdf(&self) -> Vec<f64> {
        reaccess_cdf(&self.reaccess_hist)
    }

    /// Intervals processed so far.
    pub fn intervals(&self) -> u32 {
        self.worker.intervals_processed()
    }

    /// Forces an interval boundary at `now_ns` (used at run teardown so a
    /// partial final interval still contributes).
    pub fn flush_interval(&mut self, now_ns: u64) {
        self.interval.reset(now_ns);
        let table = self.collector.take_interval();
        self.worker.process_interval(table);
        for (i, c) in self
            .worker
            .reaccess_histogram(self.config.max_gap_intervals)
            .into_iter()
            .enumerate()
        {
            self.reaccess_hist[i] += c;
        }
        self.series.sample(now_ns, &self.worker);
    }

    /// Feeds the profiler one access issued at `now_ns`. A run feeds it
    /// every access with `system.run_observed(d, |now, a| profiler.observe(now, a))`.
    pub fn observe(&mut self, now_ns: u64, access: &Access) {
        // Close out any elapsed interval first: an access at the boundary
        // belongs to the new interval.
        if self.interval.fire(now_ns) > 0 {
            self.flush_interval(now_ns);
        }
        self.collector.observe(now_ns, access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{PageType, Pid, Vpn};
    use tiered_sim::{AccessKind, SEC};

    fn fast_config() -> ChameleonConfig {
        ChameleonConfig {
            collector: CollectorConfig {
                sample_period: 1,
                cores: 4,
                core_groups: 1,
                mini_interval_ns: SEC,
            },
            interval_ns: SEC,
            max_gap_intervals: 8,
        }
    }

    fn touch(c: &mut Chameleon, now: u64, vpn: u64, t: PageType) {
        let a = Access {
            pid: Pid(1),
            vpn: Vpn(vpn),
            kind: AccessKind::Load,
            page_type: t,
        };
        c.observe(now, &a);
    }

    #[test]
    fn intervals_roll_over_with_time() {
        let mut c = Chameleon::new(fast_config());
        touch(&mut c, 100, 1, PageType::Anon);
        assert_eq!(c.intervals(), 0);
        touch(&mut c, SEC, 2, PageType::Anon); // crosses the boundary
        assert_eq!(c.intervals(), 1);
        assert_eq!(c.worker().tracked_pages(), 1); // page 1 only; 2 pending
        touch(&mut c, 2 * SEC, 3, PageType::Anon);
        assert_eq!(c.intervals(), 2);
        assert_eq!(c.worker().tracked_pages(), 2);
    }

    #[test]
    fn reaccess_cdf_accumulates_over_run() {
        let mut c = Chameleon::new(fast_config());
        // Page 5 hot in interval 0, cold for 2 intervals, hot again.
        touch(&mut c, 100, 5, PageType::File);
        c.flush_interval(SEC);
        c.flush_interval(2 * SEC);
        c.flush_interval(3 * SEC);
        touch(&mut c, 3 * SEC + 100, 5, PageType::File);
        c.flush_interval(4 * SEC);
        let cdf = c.reaccess_cdf();
        // Gap of 3 intervals: cdf below index 2 is 0, at and after is 1.
        assert_eq!(cdf[1], 0.0);
        assert_eq!(cdf[2], 1.0);
    }

    #[test]
    fn series_samples_once_per_interval() {
        let mut c = Chameleon::new(fast_config());
        for i in 0..5u64 {
            touch(&mut c, i * SEC / 2, 1, PageType::Anon);
        }
        assert_eq!(c.series().total_pages.len() as u32, c.intervals());
    }

    #[test]
    fn heatmap_reflects_recent_activity() {
        let mut c = Chameleon::new(fast_config());
        touch(&mut c, 0, 1, PageType::Anon);
        touch(&mut c, 1, 2, PageType::Tmpfs);
        c.flush_interval(SEC);
        let map = c.heatmap(4);
        assert_eq!(map.hot_anon, 1);
        assert_eq!(map.hot_file, 1);
    }
}
