//! The Chameleon Collector: PEBS-style sampling of the memory access
//! stream (paper §3.1).
//!
//! On real hardware the Collector programs the PMU to sample
//! `MEM_LOAD_RETIRED.L3_MISS` (loads) and `MEM_INST_RETIRED.ALL_STORES`
//! (stores), one record every `sample_period` events, duty-cycling across
//! core groups to bound overhead. Here the "PMU" is the simulator's
//! resolved access stream; the sampling maths are the same:
//!
//! * one sample per `sample_period` events (paper default: 200),
//! * cores are divided into groups; only one group is sampled per
//!   `mini_interval` (paper default: 5 s),
//! * samples land in one of two hash tables; the full one is handed to
//!   the Worker at each interval boundary (double buffering).

use std::collections::HashMap;

use tiered_mem::{PageKey, PageType};
use tiered_sim::{Access, AccessKind, SEC};

/// Collector configuration.
#[derive(Clone, Copy, Debug)]
pub struct CollectorConfig {
    /// Events per sample (1 in N). Paper default: 200.
    pub sample_period: u64,
    /// Number of simulated CPU cores.
    pub cores: u32,
    /// Number of duty-cycling core groups. Paper's Collector enables
    /// sampling on one group at a time.
    pub core_groups: u32,
    /// How long each group is sampled before rotating. Paper default: 5 s.
    pub mini_interval_ns: u64,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            sample_period: 200,
            cores: 32,
            core_groups: 4,
            mini_interval_ns: 5 * SEC,
        }
    }
}

/// Aggregated samples for one virtual page within one interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageSamples {
    /// Sampled demand loads.
    pub loads: u64,
    /// Sampled demand stores.
    pub stores: u64,
    /// Page type seen on the most recent sample.
    pub page_type: Option<PageType>,
    /// Time of the most recent sample.
    pub last_ns: u64,
}

impl PageSamples {
    /// Total sampled events.
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }
}

/// The sampling front-end.
#[derive(Clone, Debug)]
pub struct Collector {
    config: CollectorConfig,
    event_counter: u64,
    sampled_events: u64,
    tables: [HashMap<PageKey, PageSamples>; 2],
    active: usize,
}

impl Collector {
    /// Creates a collector.
    ///
    /// # Panics
    ///
    /// Panics if any config field is zero or `core_groups > cores`.
    pub fn new(config: CollectorConfig) -> Collector {
        assert!(config.sample_period > 0, "sample_period must be positive");
        assert!(
            config.cores > 0 && config.core_groups > 0,
            "need cores and groups"
        );
        assert!(config.core_groups <= config.cores, "more groups than cores");
        assert!(
            config.mini_interval_ns > 0,
            "mini_interval must be positive"
        );
        Collector {
            config,
            event_counter: 0,
            sampled_events: 0,
            tables: [HashMap::new(), HashMap::new()],
            active: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// Total hardware events observed (sampled or not).
    pub fn events_seen(&self) -> u64 {
        self.event_counter
    }

    /// Total events actually sampled.
    pub fn events_sampled(&self) -> u64 {
        self.sampled_events
    }

    /// Observes one memory access event, possibly recording a sample.
    pub fn observe(&mut self, now_ns: u64, access: &Access) {
        self.event_counter += 1;
        // PMU overflow: every Nth event produces a PEBS record.
        if !self.event_counter.is_multiple_of(self.config.sample_period) {
            return;
        }
        // Duty cycling: the event fires on some core; only the currently
        // enabled core group is sampled. Core assignment is a
        // deterministic spread of events over cores.
        let core = (self.event_counter / self.config.sample_period) % self.config.cores as u64;
        let cores_per_group = (self.config.cores / self.config.core_groups).max(1);
        let group_of_core = (core / cores_per_group as u64) % self.config.core_groups as u64;
        let enabled_group =
            (now_ns / self.config.mini_interval_ns) % self.config.core_groups as u64;
        if group_of_core != enabled_group {
            return;
        }
        self.sampled_events += 1;
        let entry = self.tables[self.active]
            .entry(PageKey::new(access.pid, access.vpn))
            .or_default();
        match access.kind {
            AccessKind::Load => entry.loads += 1,
            AccessKind::Store => entry.stores += 1,
        }
        entry.page_type = Some(access.page_type);
        entry.last_ns = now_ns;
    }

    /// Swaps the double buffer and returns the finished interval's table
    /// (called by the Worker at each interval boundary).
    pub fn take_interval(&mut self) -> HashMap<PageKey, PageSamples> {
        let finished = self.active;
        self.active ^= 1;
        std::mem::take(&mut self.tables[finished])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{Pid, Vpn};

    fn access(vpn: u64, kind: AccessKind) -> Access {
        Access {
            pid: Pid(1),
            vpn: Vpn(vpn),
            kind,
            page_type: PageType::Anon,
        }
    }

    fn always_on() -> CollectorConfig {
        CollectorConfig {
            sample_period: 1,
            cores: 4,
            core_groups: 1,
            mini_interval_ns: SEC,
        }
    }

    #[test]
    fn sampling_rate_is_one_in_n() {
        let mut c = Collector::new(CollectorConfig {
            sample_period: 200,
            cores: 4,
            core_groups: 1, // no duty cycling
            mini_interval_ns: SEC,
        });
        for i in 0..200_000u64 {
            c.observe(0, &access(i % 64, AccessKind::Load));
        }
        assert_eq!(c.events_seen(), 200_000);
        assert_eq!(c.events_sampled(), 1000);
    }

    #[test]
    fn duty_cycling_reduces_samples_proportionally() {
        let make = |groups| {
            let mut c = Collector::new(CollectorConfig {
                sample_period: 10,
                cores: 8,
                core_groups: groups,
                mini_interval_ns: SEC,
            });
            for i in 0..100_000u64 {
                c.observe(0, &access(i % 64, AccessKind::Load));
            }
            c.events_sampled()
        };
        let full = make(1);
        let quarter = make(4);
        let ratio = quarter as f64 / full as f64;
        assert!((0.2..0.3).contains(&ratio), "duty-cycle ratio {ratio}");
    }

    #[test]
    fn group_rotation_follows_mini_interval() {
        let mut c = Collector::new(CollectorConfig {
            sample_period: 1,
            cores: 4,
            core_groups: 4,
            mini_interval_ns: 100,
        });
        // With 4 groups and period 1, the sampled core rotates with the
        // counter while the enabled group rotates with time; over many
        // mini-intervals every page gets sampled.
        for t in 0..400u64 {
            c.observe(t, &access(0, AccessKind::Load));
        }
        assert!(c.events_sampled() > 0);
        assert!(c.events_sampled() < 400);
    }

    #[test]
    fn loads_and_stores_counted_separately() {
        let mut c = Collector::new(always_on());
        c.observe(5, &access(7, AccessKind::Load));
        c.observe(6, &access(7, AccessKind::Load));
        c.observe(7, &access(7, AccessKind::Store));
        let table = c.take_interval();
        let s = table[&PageKey::new(Pid(1), Vpn(7))];
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.total(), 3);
        assert_eq!(s.last_ns, 7);
        assert_eq!(s.page_type, Some(PageType::Anon));
    }

    #[test]
    fn double_buffering_isolates_intervals() {
        let mut c = Collector::new(always_on());
        c.observe(0, &access(1, AccessKind::Load));
        let first = c.take_interval();
        assert_eq!(first.len(), 1);
        c.observe(1, &access(2, AccessKind::Load));
        let second = c.take_interval();
        assert!(second.contains_key(&PageKey::new(Pid(1), Vpn(2))));
        assert!(!second.contains_key(&PageKey::new(Pid(1), Vpn(1))));
    }

    #[test]
    #[should_panic(expected = "more groups than cores")]
    fn invalid_grouping_rejected() {
        Collector::new(CollectorConfig {
            sample_period: 1,
            cores: 2,
            core_groups: 4,
            mini_interval_ns: 1,
        });
    }
}
