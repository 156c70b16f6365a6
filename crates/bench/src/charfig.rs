//! Characterization figures (paper §2–3): the memory-hierarchy latency
//! table (Figure 2/5) and the Chameleon workload characterization
//! (Figures 7, 8, 9, 10, 11).
//!
//! Each workload runs on an all-local machine under the default policy
//! with a Chameleon profiler attached — the same methodology as the
//! paper's production characterization, with one Chameleon interval
//! standing in for one minute. Each workload's run is one
//! [`Job::Characterize`]; Figures 7–11 are plans over the same four
//! jobs, so the executor runs them once for all five figures.

use chameleon::{Chameleon, ChameleonConfig, CollectorConfig};
use tiered_mem::NodeKind;
use tiered_sim::LatencyModel;
use tiered_workloads::WorkloadProfile;
use tpp::RunMetrics;

use crate::evalfig::baseline_spec;
use crate::executor::{Job, Outcome, Plan};
use crate::scale::{pct, Scale, Table};

/// One workload's characterization artefacts.
pub struct Characterization {
    /// Workload name.
    pub name: String,
    /// The profiler state after the run.
    pub profiler: Chameleon,
    /// Runner metrics (throughput etc.).
    pub metrics: RunMetrics,
    /// Resident anon pages at run end (unbiased hot-fraction denominator).
    pub resident_anon: u64,
    /// Resident file pages at run end.
    pub resident_file: u64,
}

/// Runs `profile` on an all-local machine under the default policy with
/// a profiler attached, for `scale.profile_duration_ns`.
pub(crate) fn characterize(profile: &WorkloadProfile, scale: &Scale) -> Characterization {
    let mut system = baseline_spec(profile, scale)
        .build_system()
        .expect("all-local machines are always supported");
    // Sampling density scales with the compressed timescale: one 30 s
    // interval stands in for the paper's 1 minute, but the simulated
    // access rate is far below production's, so the production 1-in-200
    // rate would see only the very hottest pages. 1-in-5 restores the
    // paper's per-interval detection probability for hot-window pages.
    let mut profiler = Chameleon::new(ChameleonConfig {
        collector: CollectorConfig {
            sample_period: 5,
            cores: 32,
            core_groups: 4,
            mini_interval_ns: (scale.profile_interval_ns / 12).max(1),
        },
        interval_ns: scale.profile_interval_ns,
        max_gap_intervals: 16,
    });
    system.run_observed(scale.profile_duration_ns, |now, a| profiler.observe(now, a));
    profiler.flush_interval(system.now_ns());
    let (resident_anon, resident_file) = system.memory().node_usage(tiered_mem::NodeId(0));
    Characterization {
        name: profile.name.clone(),
        profiler,
        metrics: system.metrics().clone(),
        resident_anon,
        resident_file,
    }
}

/// The plan of a characterization figure: the characterizations of all
/// four production workloads, in workload order, rendered by `fig`.
/// Figures 7–11 read the same four runs, so a `repro` run with several
/// of them runs each once.
pub fn characterized(scale: &Scale, fig: fn(&[&Characterization]) -> Table) -> Plan {
    let jobs = tiered_workloads::all_production(scale.ws_pages)
        .into_iter()
        .map(|profile| Job::Characterize(profile, *scale))
        .collect();
    Plan::new(jobs, move |outcomes| {
        let chars: Vec<&Characterization> = outcomes
            .iter()
            .map(|o| match o {
                Outcome::Characterization(c) => c,
                _ => unreachable!("characterize jobs yield characterizations"),
            })
            .collect();
        fig(&chars)
    })
}

/// Figure 2/5: the memory-tier latency hierarchy of the simulated
/// machine.
pub fn fig2() -> Table {
    let lat = LatencyModel::datacenter();
    let rows = vec![
        vec![
            "local DRAM".to_string(),
            format!("{} ns", NodeKind::LocalDram.default_latency_ns()),
            "CPU-attached, fast tier".to_string(),
        ],
        vec![
            "CXL-Memory".to_string(),
            format!("{} ns", NodeKind::Cxl.default_latency_ns()),
            "CPU-less node, NUMA-like (+50-100 ns)".to_string(),
        ],
        vec![
            "NUMA hint fault".to_string(),
            format!("{} ns", lat.hint_fault_ns),
            "minor-fault handler".to_string(),
        ],
        vec![
            "page migration".to_string(),
            format!("{} ns/page", lat.migrate_page_ns),
            "node-to-node copy (TPP demotion/promotion)".to_string(),
        ],
        vec![
            "swap-out".to_string(),
            format!("{} ns/page", lat.swap_out_page_ns),
            "paging device write (default reclaim)".to_string(),
        ],
        vec![
            "swap-in / disk read".to_string(),
            format!("{} ns/page", lat.swap_in_total_ns()),
            "major fault".to_string(),
        ],
    ];
    Table::new(
        "Figure 2/5 — memory-tier latency hierarchy",
        &["tier / operation", "latency", "notes"],
        rows,
    )
}

/// Figure 7: total tracked memory vs. memory accessed within 1- and
/// 2-interval windows.
pub fn fig7(chars: &[&Characterization]) -> Table {
    let rows: Vec<Vec<String>> = chars
        .iter()
        .map(|c| {
            let w = c.profiler.worker();
            let resident = (c.resident_anon + c.resident_file).max(1);
            vec![
                c.name.clone(),
                format!("{resident}"),
                pct(w.hot_pages(1, None) as f64 / resident as f64),
                pct(w.hot_pages(2, None) as f64 / resident as f64),
            ]
        })
        .collect();
    Table::new(
        "Figure 7 — pages accessed within short windows (1 interval ~ 1 paper-minute)",
        &[
            "workload",
            "resident pages",
            "hot (1 interval)",
            "hot (2 intervals)",
        ],
        rows,
    )
}

/// Figure 8: per-type hotness within a 2-interval window.
pub fn fig8(chars: &[&Characterization]) -> Table {
    let rows: Vec<Vec<String>> = chars
        .iter()
        .map(|c| {
            let w = c.profiler.worker();
            vec![
                c.name.clone(),
                pct(w.hot_pages(2, Some(true)) as f64 / c.resident_anon.max(1) as f64),
                pct(w.hot_pages(2, Some(false)) as f64 / c.resident_file.max(1) as f64),
            ]
        })
        .collect();
    Table::new(
        "Figure 8 — anon vs file hotness (2-interval window)",
        &["workload", "anon hot", "file hot"],
        rows,
    )
}

/// Figure 9: page-type usage over time (anon/file shares of *resident*
/// memory, from the system's per-second node-usage series, thinned to one
/// row per 30 s).
pub fn fig9(chars: &[&Characterization]) -> Table {
    let mut rows = Vec::new();
    for c in chars {
        let anon = c.metrics.local_anon_pages.points();
        let file = c.metrics.local_file_pages.points();
        for (i, (&(t, a), &(_, f))) in anon.iter().zip(file.iter()).enumerate() {
            if i % 30 != 0 {
                continue;
            }
            let total = (a + f).max(1.0);
            rows.push(vec![
                c.name.clone(),
                format!("{}", t / tiered_sim::SEC),
                pct(a / total),
                pct(f / total),
                format!("{total:.0}"),
            ]);
        }
    }
    Table::new(
        "Figure 9 — page-type usage over time",
        &[
            "workload",
            "t (s)",
            "anon share",
            "file share",
            "resident pages",
        ],
        rows,
    )
}

/// Figure 10: throughput vs. page-type utilisation (per-interval pairs,
/// throughput normalised to the workload's own maximum).
pub fn fig10(chars: &[&Characterization]) -> Table {
    let mut rows = Vec::new();
    for c in chars {
        let tp = c.metrics.throughput.points();
        let anon = c.metrics.local_anon_pages.points();
        let file = c.metrics.local_file_pages.points();
        let max_tp = c.metrics.throughput.max().unwrap_or(1.0).max(1e-9);
        for (i, &(t, ops)) in tp.iter().enumerate() {
            if i % 30 != 0 {
                continue; // thin the table to one row per ~30 s
            }
            let a = anon.get(i).map(|&(_, v)| v).unwrap_or(0.0);
            let f = file.get(i).map(|&(_, v)| v).unwrap_or(0.0);
            rows.push(vec![
                c.name.clone(),
                format!("{}", t / tiered_sim::SEC),
                format!("{a:.0}"),
                format!("{f:.0}"),
                pct(ops / max_tp),
            ]);
        }
    }
    Table::new(
        "Figure 10 — throughput vs page-type utilisation",
        &[
            "workload",
            "t (s)",
            "anon pages",
            "file pages",
            "throughput (of max)",
        ],
        rows,
    )
}

/// Figure 11: re-access-interval CDF per workload (gap measured in
/// profiler intervals ~ paper minutes).
pub fn fig11(chars: &[&Characterization]) -> Table {
    let mut rows = Vec::new();
    for c in chars {
        let cdf = c.profiler.reaccess_cdf();
        for (gap, frac) in cdf.iter().enumerate().take(10) {
            rows.push(vec![c.name.clone(), format!("{}", gap + 1), pct(*frac)]);
        }
    }
    Table::new(
        "Figure 11 — re-access interval CDF (gap in intervals ~ minutes)",
        &["workload", "cold gap ≤", "fraction of re-accesses"],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_figures_share_four_jobs() {
        let scale = Scale {
            ws_pages: 1_500,
            profile_interval_ns: tiered_sim::SEC,
            profile_duration_ns: 4 * tiered_sim::SEC,
            ..Scale::quick()
        };
        let plans: Vec<Plan> = [fig7, fig8, fig9, fig10, fig11]
            .into_iter()
            .map(|fig| characterized(&scale, fig))
            .collect();
        let batch = crate::executor::run(&plans, 2);
        assert_eq!((batch.jobs_run(), batch.jobs_reused()), (4, 16));
        for plan in plans {
            assert!(!batch.table(plan).rows.is_empty());
        }
    }

    #[test]
    fn fig2_lists_all_tiers() {
        let rows = fig2().rows;
        assert_eq!(rows.len(), 6);
        assert!(rows[0][0].contains("DRAM"));
    }
}
