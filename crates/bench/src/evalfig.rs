//! Evaluation figures (paper §6): Figures 15–19 and Table 1.
//!
//! Every function returns its paper-shaped [`Table`].
//!
//! Figures no longer run cells inline: they *enumerate* the full grid as
//! [`CellSpec`] values first and hand the batch to
//! `crate::executor::run_cells`, which runs each distinct cell once,
//! fanned over `scale.jobs` worker threads. Results come back in spec
//! order, so tables (and the CSV exports behind them) are byte-identical
//! at any job count.

use tiered_mem::VmEvent;
use tiered_sim::SEC;
use tiered_workloads::WorkloadProfile;
use tpp::configs::{MachineSpec, Shape};
use tpp::experiment::{CellSpec, ExperimentResult, PolicyChoice};
use tpp::policy::TppConfig;

use crate::executor::run_cells;
use crate::scale::{pct, Scale, Table};

/// One workload's comparison: the all-local baseline plus one result per
/// evaluated policy.
struct Comparison {
    /// Workload name.
    workload: String,
    /// The all-from-local-memory baseline (default kernel, single node).
    baseline: ExperimentResult,
    /// Policy results on the tiered machine.
    cells: Vec<ExperimentResult>,
}

/// The spec for the all-local baseline every comparison is relative to.
pub(crate) fn baseline_spec(profile: &WorkloadProfile, scale: &Scale) -> CellSpec {
    cell(profile, Shape::AllLocal, PolicyChoice::Linux, scale)
}

/// The spec of `profile` on the `shape` machine sized to its working set,
/// under `choice`, at `scale`.
pub(crate) fn cell(
    profile: &WorkloadProfile,
    shape: Shape,
    choice: PolicyChoice,
    scale: &Scale,
) -> CellSpec {
    let machine = MachineSpec::new(shape, profile.working_set_pages());
    CellSpec::new(
        profile.clone(),
        machine,
        choice,
        scale.duration_ns,
        scale.seed,
    )
}

/// Enumerates one comparison group: the baseline spec followed by one
/// spec per policy on the `shape` machine.
fn comparison_specs(
    profile: &WorkloadProfile,
    shape: Shape,
    policies: &[PolicyChoice],
    scale: &Scale,
) -> Vec<CellSpec> {
    let mut specs = vec![baseline_spec(profile, scale)];
    for choice in policies {
        specs.push(cell(profile, shape, choice.clone(), scale));
    }
    specs
}

/// Runs comparison groups as one flat batch on `scale.jobs` workers and
/// regroups the results. Each group is `[baseline, cell, cell, ...]` as
/// produced by [`comparison_specs`].
fn run_comparisons(groups: Vec<Vec<CellSpec>>, scale: &Scale) -> Vec<Comparison> {
    let shapes: Vec<(String, usize)> = groups
        .iter()
        .map(|g| (g[0].profile.name.clone(), g.len()))
        .collect();
    let flat: Vec<CellSpec> = groups.into_iter().flatten().collect();
    let mut results = run_cells(scale, &flat).into_iter();
    shapes
        .into_iter()
        .map(|(workload, n)| {
            let mut cells: Vec<ExperimentResult> = (0..n)
                .map(|_| {
                    results
                        .next()
                        .expect("one result per spec")
                        .expect("policy was pre-validated for this machine")
                })
                .collect();
            let baseline = cells.remove(0);
            Comparison {
                workload,
                baseline,
                cells,
            }
        })
        .collect()
}

fn traffic_perf_rows(comparisons: &[Comparison]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for c in comparisons {
        for r in &c.cells {
            let demote_rate = r.demoted() as f64 / (r.duration_ns as f64 / SEC as f64);
            let reclaim_rate =
                r.vmstat.get(VmEvent::PgSteal) as f64 / (r.duration_ns as f64 / SEC as f64);
            rows.push(vec![
                c.workload.clone(),
                r.policy.clone(),
                pct(r.local_traffic),
                pct(1.0 - r.local_traffic),
                pct(r.anon_resident_local),
                pct(r.relative_throughput(&c.baseline)),
                format!("{demote_rate:.0}"),
                format!("{reclaim_rate:.0}"),
                format!("{}", r.promoted()),
            ]);
        }
    }
    rows
}

const TRAFFIC_HEADER: [&str; 9] = [
    "workload",
    "policy",
    "local traffic",
    "CXL traffic",
    "anon on local",
    "throughput vs all-local",
    "demote/s",
    "pageout/s",
    "promoted",
];

/// Figure 15: default production environment (2:1), default Linux vs TPP
/// on all four workloads.
pub fn fig15(scale: &Scale) -> Table {
    let groups: Vec<Vec<CellSpec>> = tiered_workloads::all_production(scale.ws_pages)
        .iter()
        .map(|p| {
            comparison_specs(
                p,
                Shape::Ratio(2, 1),
                &[PolicyChoice::Linux, PolicyChoice::Tpp],
                scale,
            )
        })
        .collect();
    Table::new(
        "Figure 15 — 2:1 local:CXL, default Linux vs TPP",
        &TRAFFIC_HEADER,
        traffic_perf_rows(&run_comparisons(groups, scale)),
    )
}

/// Figure 16: large memory expansion (1:4) for the Cache workloads.
pub fn fig16(scale: &Scale) -> Table {
    let profiles = [
        tiered_workloads::cache1(scale.ws_pages),
        tiered_workloads::cache2(scale.ws_pages),
    ];
    let groups: Vec<Vec<CellSpec>> = profiles
        .iter()
        .map(|p| {
            comparison_specs(
                p,
                Shape::Ratio(1, 4),
                &[PolicyChoice::Linux, PolicyChoice::Tpp],
                scale,
            )
        })
        .collect();
    Table::new(
        "Figure 16 — 1:4 local:CXL (80% of working set on CXL)",
        &TRAFFIC_HEADER,
        traffic_perf_rows(&run_comparisons(groups, scale)),
    )
}

/// Figure 17: ablation of allocation/reclamation decoupling (Cache1,
/// 1:4).
pub fn fig17(scale: &Scale) -> Table {
    let profile = tiered_workloads::cache1(scale.ws_pages);
    let coupled = TppConfig {
        decouple: false,
        ..TppConfig::default()
    };
    let groups = vec![comparison_specs(
        &profile,
        Shape::Ratio(1, 4),
        &[PolicyChoice::TppCustom(coupled), PolicyChoice::Tpp],
        scale,
    )];
    let comparison = run_comparisons(groups, scale).pop().expect("one group");
    let mut rows = Vec::new();
    for (label, r) in [
        ("coupled", &comparison.cells[0]),
        ("decoupled", &comparison.cells[1]),
    ] {
        let alloc_p95 = r.metrics.alloc_local_rate.percentile(0.95).unwrap_or(0.0);
        let promo_mean = r.metrics.promotion_rate.mean().unwrap_or(0.0);
        let promo_p99 = r.metrics.promotion_rate.percentile(0.99).unwrap_or(0.0);
        rows.push(vec![
            label.to_string(),
            format!("{alloc_p95:.0}"),
            format!("{promo_mean:.0}"),
            format!("{promo_p99:.0}"),
            pct(1.0 - r.local_traffic),
            pct(r.relative_throughput(&comparison.baseline)),
        ]);
    }
    Table::new(
        "Figure 17 — decoupling allocation & reclamation (Cache1, 1:4)",
        &[
            "variant",
            "local alloc p95 (pages/s)",
            "promo mean (pages/s)",
            "promo p99 (pages/s)",
            "CXL traffic",
            "throughput vs all-local",
        ],
        rows,
    )
}

/// Figure 18: ablation of the active-LRU promotion filter (Cache1, 1:4).
pub fn fig18(scale: &Scale) -> Table {
    let profile = tiered_workloads::cache1(scale.ws_pages);
    let instant = TppConfig {
        active_lru_filter: false,
        ..TppConfig::default()
    };
    let groups = vec![comparison_specs(
        &profile,
        Shape::Ratio(1, 4),
        &[PolicyChoice::TppCustom(instant), PolicyChoice::Tpp],
        scale,
    )];
    let comparison = run_comparisons(groups, scale).pop().expect("one group");
    let mut rows = Vec::new();
    for (label, r) in [
        ("instant promotion", &comparison.cells[0]),
        ("active-LRU filter", &comparison.cells[1]),
    ] {
        rows.push(vec![
            label.to_string(),
            format!("{}", r.promoted()),
            format!("{}", r.vmstat.get(VmEvent::PgPromoteCandidateDemoted)),
            pct(r.vmstat.promote_success_rate()),
            format!("{}", r.demoted()),
            pct(r.local_traffic),
            pct(r.relative_throughput(&comparison.baseline)),
        ]);
    }
    Table::new(
        "Figure 18 — active-LRU-based hot-page detection (Cache1, 1:4)",
        &[
            "variant",
            "promoted",
            "demoted-then-promoted (ping-pong)",
            "promo success rate",
            "demoted",
            "local traffic",
            "throughput vs all-local",
        ],
        rows,
    )
}

/// Table 1: page-type-aware allocation (caches to CXL).
pub fn table1(scale: &Scale) -> Table {
    let aware = TppConfig {
        cache_to_cxl: true,
        ..TppConfig::default()
    };
    let cells = [
        (
            tiered_workloads::web(scale.ws_pages),
            "2:1",
            Shape::Ratio(2, 1),
        ),
        (
            tiered_workloads::cache1(scale.ws_pages),
            "1:4",
            Shape::Ratio(1, 4),
        ),
        (
            tiered_workloads::cache2(scale.ws_pages),
            "1:4",
            Shape::Ratio(1, 4),
        ),
    ];
    let config_labels: Vec<&'static str> = cells.iter().map(|(_, l, _)| *l).collect();
    let groups: Vec<Vec<CellSpec>> = cells
        .iter()
        .map(|(profile, _, shape)| {
            comparison_specs(profile, *shape, &[PolicyChoice::TppCustom(aware)], scale)
        })
        .collect();
    let out = run_comparisons(groups, scale);
    let mut rows = Vec::new();
    for (comparison, config_label) in out.iter().zip(config_labels) {
        let r = &comparison.cells[0];
        rows.push(vec![
            comparison.workload.clone(),
            config_label.to_string(),
            pct(r.local_traffic),
            pct(1.0 - r.local_traffic),
            pct(r.relative_throughput(&comparison.baseline)),
        ]);
    }
    Table::new(
        "Table 1 — page-type-aware allocation (caches to CXL)",
        &[
            "application",
            "configuration",
            "local traffic",
            "CXL traffic",
            "perf w.r.t baseline",
        ],
        rows,
    )
}

/// Figure 19: TPP vs NUMA balancing vs AutoTiering (Web on 2:1; Cache1 on
/// 1:4 where AutoTiering cannot run, so it is evaluated on 2:1 as in the
/// paper).
pub fn fig19(scale: &Scale) -> Table {
    let web = tiered_workloads::web(scale.ws_pages);
    let cache1 = tiered_workloads::cache1(scale.ws_pages);

    // One flat batch: the web group, the cache1 group, the paper's
    // AutoTiering-on-1:4 probe (expected to refuse), and AutoTiering's
    // 2:1 fallback row. Spec order fixes result order.
    let mut specs = comparison_specs(
        &web,
        Shape::Ratio(2, 1),
        &[
            PolicyChoice::Linux,
            PolicyChoice::NumaBalancing,
            PolicyChoice::AutoTiering,
            PolicyChoice::Tpp,
        ],
        scale,
    );
    let web_len = specs.len();
    specs.extend(comparison_specs(
        &cache1,
        Shape::Ratio(1, 4),
        &[PolicyChoice::NumaBalancing, PolicyChoice::Tpp],
        scale,
    ));
    for shape in [Shape::Ratio(1, 4), Shape::Ratio(2, 1)] {
        specs.push(cell(&cache1, shape, PolicyChoice::AutoTiering, scale));
    }

    let results = run_cells(scale, &specs);
    let ok = |i: usize| results[i].as_ref().expect("policy supports its machine");
    // AutoTiering refuses 1:4 — reproduce the paper's observation, then
    // fall back to 2:1 for its row.
    let unsupported = results[web_len + 3]
        .as_ref()
        .expect_err("AutoTiering refuses 1:4");
    // (baseline, cell, config) per row, in spec order.
    let cache_rows = [
        (web_len, web_len + 1, "1:4"),
        (web_len, web_len + 2, "1:4"),
        (web_len, web_len + 4, "2:1 (cannot run 1:4)"),
    ];
    let rows = (1..web_len)
        .map(|i| (0, i, "2:1"))
        .chain(cache_rows)
        .map(|(base, i, config)| {
            let r = ok(i);
            vec![
                r.workload.clone(),
                r.policy.clone(),
                config.to_string(),
                pct(r.local_traffic),
                pct(r.relative_throughput(ok(base))),
                format!("{}", r.promoted()),
                format!("{}", r.vmstat.get(VmEvent::NumaHintFaultsLocal)),
            ]
        })
        .collect();
    let mut table = Table::new(
        "Figure 19 — TPP vs NUMA balancing vs AutoTiering",
        &[
            "workload",
            "policy",
            "config",
            "local traffic",
            "throughput vs all-local",
            "promoted",
            "wasted local hint faults",
        ],
        rows,
    );
    table.note = Some(unsupported.to_string());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full-figure runs are exercised by the integration tests and the
    // `repro` binary at quick scale; here we only check plumbing.
    #[test]
    fn traffic_rows_shape() {
        let scale = Scale {
            duration_ns: 2 * SEC,
            ws_pages: 1500,
            ..Scale::quick()
        };
        let profile = tiered_workloads::uniform(scale.ws_pages);
        let groups = vec![comparison_specs(
            &profile,
            Shape::Ratio(2, 1),
            &[PolicyChoice::Tpp],
            &scale,
        )];
        let cmp = run_comparisons(groups, &scale);
        let rows = traffic_perf_rows(&cmp);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), TRAFFIC_HEADER.len());
    }

    #[test]
    fn comparison_groups_are_job_count_invariant() {
        // Each side gets its own `Scale`, so each starts with an empty
        // cell cache and really runs every cell.
        let scale = |jobs| Scale {
            duration_ns: 2 * SEC,
            ws_pages: 1500,
            jobs,
            ..Scale::quick()
        };
        let (scale_seq, scale_par) = (scale(1), scale(4));
        let groups = |scale: &Scale| {
            let profile = tiered_workloads::uniform(scale.ws_pages);
            vec![comparison_specs(
                &profile,
                Shape::Ratio(2, 1),
                &[PolicyChoice::Linux, PolicyChoice::Tpp],
                scale,
            )]
        };
        let seq = run_comparisons(groups(&scale_seq), &scale_seq);
        let par = run_comparisons(groups(&scale_par), &scale_par);
        for scale in [&scale_seq, &scale_par] {
            assert_eq!(scale.cells.cells_run(), 3);
            assert_eq!(scale.cells.cells_reused(), 0);
        }
        let flatten = |cs: &[Comparison]| {
            cs.iter()
                .flat_map(|c| {
                    std::iter::once(&c.baseline)
                        .chain(c.cells.iter())
                        .map(|r| (r.policy.clone(), r.throughput, r.vmstat.clone()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(flatten(&seq), flatten(&par));
    }
}
