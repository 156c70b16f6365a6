//! Integration tests for the Chameleon characterization pipeline: the
//! §3 observations must reproduce from the synthetic workloads through
//! the full profiler stack (sampled collection, interval bitmaps,
//! reports).

use chameleon::{Chameleon, ChameleonConfig, CollectorConfig};
use tiered_sim::SEC;
use tpp::experiment::PolicyChoice;
use tpp::{configs, System};

const WS: u64 = 5_000;
const INTERVAL: u64 = 8 * SEC;

fn profile_workload(profile: &tiered_workloads::WorkloadProfile) -> Chameleon {
    // Dense sampling: at the test's tiny scale the production 1-in-200
    // rate would track only the hottest pages and bias every fraction
    // upward (see `Worker::hot_pages`). With 1-in-1 sampling every
    // materialised page is tracked, so tracked ~ resident.
    let mut profiler = Chameleon::new(ChameleonConfig {
        collector: CollectorConfig {
            sample_period: 1,
            cores: 16,
            core_groups: 1,
            mini_interval_ns: INTERVAL / 8,
        },
        interval_ns: INTERVAL,
        max_gap_intervals: 16,
    });
    let mut system = System::new(
        configs::all_local(profile.working_set_pages()),
        PolicyChoice::Linux.build(),
        Box::new(profile.build()),
        9,
    )
    .unwrap();
    system.run_observed(6 * INTERVAL, |now, a| profiler.observe(now, a));
    profiler.flush_interval(system.now_ns());
    profiler
}

#[test]
fn web_anon_is_hotter_than_file() {
    // Paper §3.4 / Figure 8: anon pages are hotter than file pages.
    let profiler = profile_workload(&tiered_workloads::web(WS));
    let w = profiler.worker();
    let anon_hot = w.hot_fraction(2, Some(true));
    let file_hot = w.hot_fraction(2, Some(false));
    assert!(
        anon_hot > file_hot + 0.05,
        "web anon hot {anon_hot:.3} must exceed file hot {file_hot:.3}"
    );
}

#[test]
fn significant_memory_stays_cold() {
    // Paper §3.3 / Figure 7: a large fraction of allocated memory is not
    // touched within short windows.
    for profile in [tiered_workloads::web(WS), tiered_workloads::cache1(WS)] {
        let profiler = profile_workload(&profile);
        let hot = profiler.worker().hot_fraction(2, None);
        assert!(
            hot < 0.75,
            "{}: {hot:.3} of memory hot within 2 intervals — too hot",
            profile.name
        );
        assert!(
            hot > 0.05,
            "{}: {hot:.3} — nothing hot at all",
            profile.name
        );
    }
}

#[test]
fn warehouse_files_are_nearly_all_cold() {
    // Paper §3.4: almost all of Data Warehouse's file pages remain cold.
    let profiler = profile_workload(&tiered_workloads::data_warehouse(WS));
    let file_hot = profiler.worker().hot_fraction(2, Some(false));
    assert!(file_hot < 0.25, "dw file hot {file_hot:.3}");
}

#[test]
fn cache_reaccesses_arrive_within_few_intervals() {
    // Paper §3.7 / Figure 11: Web/Cache cold pages are re-accessed within
    // ~10 minutes (a handful of intervals at simulation scale).
    let profiler = profile_workload(&tiered_workloads::cache1(WS));
    let cdf = profiler.reaccess_cdf();
    let within_8 = cdf.get(7).copied().unwrap_or(0.0);
    assert!(
        within_8 > 0.5,
        "cache1 should re-access most cold pages quickly, cdf(8)={within_8:.3}"
    );
}

#[test]
fn collector_samples_at_configured_rate() {
    // Sampling overhead stays proportional to 1/sample_period with duty
    // cycling applied on top — checked with production-like settings.
    let profile = tiered_workloads::cache1(WS);
    let mut profiler = Chameleon::new(ChameleonConfig {
        collector: CollectorConfig {
            sample_period: 20,
            cores: 16,
            core_groups: 4,
            mini_interval_ns: INTERVAL / 8,
        },
        interval_ns: INTERVAL,
        max_gap_intervals: 16,
    });
    let mut system = System::new(
        configs::all_local(profile.working_set_pages()),
        PolicyChoice::Linux.build(),
        Box::new(profile.build()),
        9,
    )
    .unwrap();
    system.run_observed(2 * INTERVAL, |now, a| profiler.observe(now, a));
    let seen = profiler.collector().events_seen() as f64;
    let sampled = profiler.collector().events_sampled() as f64;
    let rate = sampled / seen;
    // 1/20 sampling × 1/4 duty cycle = 1.25%.
    assert!(
        (0.005..0.03).contains(&rate),
        "sampling rate {rate:.4} out of expected band"
    );
}

#[test]
fn usage_series_tracks_workload_composition() {
    // Paper Figure 9d: Data Warehouse is anon-dominated (~85%).
    let profiler = profile_workload(&tiered_workloads::data_warehouse(WS));
    let share = profiler
        .series()
        .anon_share
        .values()
        .last()
        .copied()
        .unwrap_or(0.0);
    assert!(
        (0.6..1.0).contains(&share),
        "dw anon share {share:.3}, expected anon-dominated"
    );
}
