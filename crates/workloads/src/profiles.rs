//! The four production-workload profiles from the paper (§3.2), calibrated
//! to the characterization it reports, plus a simple uniform workload for
//! quick starts.
//!
//! Calibration targets (fraction of each type's allocation touched within
//! a two-minute interval, paper Figures 7–8):
//!
//! | workload | anon hot | file hot | anon share | notes |
//! |---|---|---|---|---|
//! | Web            | ~35% | ~14% | grows to ~60% | file-I/O warm-up; anon grows (Fig 9a) |
//! | Cache1         | ~40% | ~25% | ~22% | tmpfs look-ups; fixed anon pool |
//! | Cache2         | ~43% | ~45% | ~23% | more file touched per look-up |
//! | Data Warehouse | ~20% | ~5%  | ~85% | churny anon; write-once files |
//!
//! A region's two-minute coverage ≈ `window_frac + step_frac × (120 s /
//! dwell)`; its re-access period (Figure 11) is `dwell / step_frac`. The
//! constants below encode both.

use tiered_mem::{PageType, Pid};
use tiered_sim::SEC;

use crate::region::{Growth, RegionSpec};
use crate::synthetic::{TransientSpec, WarmupSpec, WorkloadProfile};

/// Base VPN of each workload's anon region.
pub const ANON_BASE_VPN: u64 = 0;
/// Base VPN of each workload's file/tmpfs region.
pub const FILE_BASE_VPN: u64 = 1 << 32;

fn region(
    base: u64,
    pages: u64,
    page_type: PageType,
    window_frac: f64,
    step_frac_per_dwell: f64,
    zipf: f64,
    store: f64,
) -> RegionSpec {
    let pages = pages.max(8);
    RegionSpec {
        base_vpn: base,
        pages,
        page_type,
        window_frac,
        dwell_ns: 30 * SEC,
        step_pages: ((pages as f64 * step_frac_per_dwell) as u64).max(1),
        zipf_skew: zipf,
        store_frac: store,
        growth: None,
        frontier_weight: 0.0,
        frontier_frac: 0.05,
        tail_weight: 0.0,
    }
}

/// **Web**: JIT VM serving user requests. Heavy file I/O during warm-up
/// fills memory with file caches; anon usage then grows while caches are
/// discarded (Fig 9a). Anon pages are much hotter than file pages.
pub fn web(ws_pages: u64) -> WorkloadProfile {
    let anon_pages = ws_pages * 62 / 100;
    let file_pages = ws_pages * 38 / 100;
    let mut anon = region(
        ANON_BASE_VPN,
        anon_pages,
        PageType::Anon,
        0.15,
        0.05,
        0.9,
        0.30,
    );
    // Anon footprint starts at ~35% and surges to full size in ~12
    // seconds of simulated time — the paper's post-restart transient
    // (Figure 9a) compressed to the simulation's timescale. The surge
    // outpaces default Linux's throttled reclaim (one scan batch per
    // kswapd wakeup) and strands anon pages on the CXL node (§6.2.1).
    anon.growth = Some(Growth {
        initial_frac: 0.35,
        pages_per_sec: anon_pages as f64 * 0.65 / 12.0,
    });
    // Nearly half of Web's anon traffic hits recently allocated pages
    // (request state, JIT caches): hot *new* memory is what gets trapped
    // on the CXL node under default Linux (§6.2.1).
    anon.frontier_weight = 0.45;
    anon.frontier_frac = 0.08;
    let file = region(
        FILE_BASE_VPN,
        file_pages,
        PageType::File,
        0.06,
        0.02,
        0.6,
        0.30,
    );
    WorkloadProfile {
        name: "web".into(),
        pid: Pid(1),
        regions: vec![anon, file],
        region_weights: vec![0.72, 0.28],
        accesses_per_op: 6,
        cpu_ns_per_op: 25_000,
        warmup: Some(WarmupSpec {
            region_indices: vec![1],
            pages_per_op: 64,
            cpu_ns_per_op: 8_000,
            interleave: false,
        }),
        transient: Some(TransientSpec {
            allocs_per_op: 0.25,
            touches_per_page: 2,
            lifetime_ns: 45 * SEC,
            range_pages: (ws_pages / 8).max(16),
        }),
    }
}

/// **Cache1**: first-tier distributed cache. Look-ups hit a large tmpfs
/// store; a fixed anon pool processes queries. Anons are the hottest pages
/// per capita (40% vs 25% per two minutes).
pub fn cache1(ws_pages: u64) -> WorkloadProfile {
    let anon_pages = ws_pages * 22 / 100;
    let tmpfs_pages = ws_pages * 78 / 100;
    let anon = region(
        ANON_BASE_VPN,
        anon_pages,
        PageType::Anon,
        0.20,
        0.05,
        0.9,
        0.15,
    );
    let mut tmpfs = region(
        FILE_BASE_VPN,
        tmpfs_pages,
        PageType::Tmpfs,
        0.13,
        0.03,
        0.7,
        0.05,
    );
    tmpfs.tail_weight = 0.0008; // sporadic one-off look-ups across the store
    WorkloadProfile {
        name: "cache1".into(),
        pid: Pid(2),
        regions: vec![anon, tmpfs],
        region_weights: vec![0.55, 0.45],
        accesses_per_op: 6,
        cpu_ns_per_op: 25_000,
        warmup: Some(WarmupSpec {
            region_indices: vec![1, 0],
            pages_per_op: 64,
            cpu_ns_per_op: 8_000,
            interleave: true,
        }),
        transient: Some(TransientSpec {
            allocs_per_op: 0.10,
            touches_per_page: 2,
            lifetime_ns: 30 * SEC,
            range_pages: (ws_pages / 16).max(16),
        }),
    }
}

/// **Cache2**: second-tier cache. More file pages are touched per look-up,
/// so anon and file hotness are nearly equal over two minutes (43% vs
/// 45%), though anon still leads within one minute.
pub fn cache2(ws_pages: u64) -> WorkloadProfile {
    let anon_pages = ws_pages * 23 / 100;
    let tmpfs_pages = ws_pages * 77 / 100;
    let anon = region(
        ANON_BASE_VPN,
        anon_pages,
        PageType::Anon,
        0.37,
        0.015,
        0.8,
        0.20,
    );
    let mut tmpfs = region(
        FILE_BASE_VPN,
        tmpfs_pages,
        PageType::Tmpfs,
        0.15,
        0.075,
        0.7,
        0.05,
    );
    tmpfs.tail_weight = 0.0008;
    WorkloadProfile {
        name: "cache2".into(),
        pid: Pid(3),
        regions: vec![anon, tmpfs],
        region_weights: vec![0.45, 0.55],
        accesses_per_op: 6,
        cpu_ns_per_op: 25_000,
        warmup: Some(WarmupSpec {
            region_indices: vec![1, 0],
            pages_per_op: 64,
            cpu_ns_per_op: 8_000,
            interleave: true,
        }),
        transient: Some(TransientSpec {
            allocs_per_op: 0.10,
            touches_per_page: 2,
            lifetime_ns: 30 * SEC,
            range_pages: (ws_pages / 16).max(16),
        }),
    }
}

/// **Data Warehouse**: batch compute engine. Anon-dominated (85%), with
/// mostly *newly allocated* anon pages (heavy churn, §3.7) and write-once
/// file pages holding intermediate results.
pub fn data_warehouse(ws_pages: u64) -> WorkloadProfile {
    let anon_pages = ws_pages * 85 / 100;
    let file_pages = ws_pages * 15 / 100;
    let anon = region(
        ANON_BASE_VPN,
        anon_pages,
        PageType::Anon,
        0.10,
        0.025,
        0.7,
        0.50,
    );
    let file = region(
        FILE_BASE_VPN,
        file_pages,
        PageType::File,
        0.03,
        0.005,
        0.0,
        0.90,
    );
    WorkloadProfile {
        name: "data_warehouse".into(),
        pid: Pid(4),
        regions: vec![anon, file],
        region_weights: vec![0.88, 0.12],
        accesses_per_op: 8,
        cpu_ns_per_op: 30_000,
        warmup: None,
        transient: Some(TransientSpec {
            allocs_per_op: 0.80,
            touches_per_page: 3,
            lifetime_ns: 45 * SEC,
            range_pages: (ws_pages / 4).max(32),
        }),
    }
}

/// **KV store** (beyond the paper's four): a point-lookup service with a
/// very skewed key popularity (Zipf 1.1) over a large in-memory table.
/// The hottest few percent of pages dominate traffic, which makes this
/// the best case for promotion quality: getting a small set of pages
/// onto the local node captures most of the benefit.
pub fn kv_store(ws_pages: u64) -> WorkloadProfile {
    let table_pages = ws_pages * 88 / 100;
    let log_pages = ws_pages * 12 / 100;
    let mut table = region(
        ANON_BASE_VPN,
        table_pages,
        PageType::Anon,
        0.55,
        0.005,
        1.1,
        0.10,
    );
    table.tail_weight = 0.0005; // occasional miss-path scans
                                // Append-only log: written once, rarely re-read.
    let log = region(
        FILE_BASE_VPN,
        log_pages,
        PageType::File,
        0.04,
        0.02,
        0.0,
        0.95,
    );
    WorkloadProfile {
        name: "kv_store".into(),
        pid: Pid(5),
        regions: vec![table, log],
        region_weights: vec![0.9, 0.1],
        accesses_per_op: 4,
        cpu_ns_per_op: 15_000,
        warmup: Some(WarmupSpec {
            region_indices: vec![0],
            pages_per_op: 64,
            cpu_ns_per_op: 8_000,
            interleave: false,
        }),
        transient: Some(TransientSpec {
            allocs_per_op: 0.05,
            touches_per_page: 2,
            lifetime_ns: 20 * SEC,
            range_pages: (ws_pages / 32).max(16),
        }),
    }
}

/// **Batch analytics** (beyond the paper's four): sequential scan passes
/// over a large dataset — a fast-moving window with little short-term
/// re-use. The worst case for promotion (pages cool before any second
/// touch) and the best case for *not* paying promotion traffic.
pub fn batch_analytics(ws_pages: u64) -> WorkloadProfile {
    let data_pages = ws_pages * 80 / 100;
    let out_pages = ws_pages * 20 / 100;
    // Tiny window sweeping fast: a scan front.
    let data = region(
        ANON_BASE_VPN,
        data_pages,
        PageType::Anon,
        0.04,
        0.20,
        0.0,
        0.15,
    );
    let out = region(
        FILE_BASE_VPN,
        out_pages,
        PageType::File,
        0.05,
        0.05,
        0.0,
        0.90,
    );
    WorkloadProfile {
        name: "batch_analytics".into(),
        pid: Pid(6),
        regions: vec![data, out],
        region_weights: vec![0.85, 0.15],
        accesses_per_op: 10,
        cpu_ns_per_op: 40_000,
        warmup: None,
        transient: None,
    }
}

/// **THP-friendly** (beyond the paper's four): a service whose hot set is
/// large, dense, and anon — the best case for transparent huge pages. The
/// single region is a multiple of the 512-page huge window, the hot window
/// covers contiguous aligned spans, and there is almost no short-lived
/// churn, so fault-time THP allocation and khugepaged collapse both find
/// fully resident, warm windows to work with.
pub fn thp_friendly(ws_pages: u64) -> WorkloadProfile {
    // Round the footprint to whole 512-page huge windows so every aligned
    // window can be fully resident.
    let anon_pages = (ws_pages.max(1024) / 512) * 512;
    let mut anon = region(
        ANON_BASE_VPN,
        anon_pages,
        PageType::Anon,
        0.45,
        0.01,
        0.6,
        0.30,
    );
    // Dense sequential touching inside the window: low skew plus a strong
    // allocation frontier means freshly faulted windows fill quickly.
    anon.frontier_weight = 0.25;
    anon.frontier_frac = 0.10;
    WorkloadProfile {
        name: "thp_friendly".into(),
        pid: Pid(7),
        regions: vec![anon],
        region_weights: vec![1.0],
        accesses_per_op: 8,
        cpu_ns_per_op: 20_000,
        warmup: Some(WarmupSpec {
            region_indices: vec![0],
            pages_per_op: 64,
            cpu_ns_per_op: 8_000,
            interleave: false,
        }),
        transient: None,
    }
}

/// **Fragmenter** (beyond the paper's four): heavy short-lifetime anon
/// churn sprayed across a wide range — the worst case for huge pages.
/// Free memory decays into scattered base-page holes, which starves
/// fault-time THP allocation and gives kcompactd work to do.
pub fn fragmenter(ws_pages: u64) -> WorkloadProfile {
    let anon_pages = ws_pages * 40 / 100;
    let anon = region(
        ANON_BASE_VPN,
        anon_pages,
        PageType::Anon,
        0.25,
        0.05,
        0.8,
        0.40,
    );
    WorkloadProfile {
        name: "fragmenter".into(),
        pid: Pid(8),
        regions: vec![anon],
        region_weights: vec![1.0],
        accesses_per_op: 4,
        cpu_ns_per_op: 15_000,
        warmup: None,
        transient: Some(TransientSpec {
            // Most ops allocate; pages die young and are scattered over a
            // range ~1.5x the steady footprint, maximising hole scatter.
            allocs_per_op: 1.50,
            touches_per_page: 2,
            lifetime_ns: 10 * SEC,
            range_pages: (ws_pages * 3 / 2).max(64),
        }),
    }
}

/// A simple single-region anon workload with a 50% hot window — handy for
/// quick starts and unit tests.
pub fn uniform(ws_pages: u64) -> WorkloadProfile {
    let anon = region(
        ANON_BASE_VPN,
        ws_pages,
        PageType::Anon,
        0.5,
        0.02,
        0.5,
        0.25,
    );
    WorkloadProfile {
        name: "uniform".into(),
        pid: Pid(9),
        regions: vec![anon],
        region_weights: vec![1.0],
        accesses_per_op: 4,
        cpu_ns_per_op: 20_000,
        warmup: None,
        transient: None,
    }
}

/// All four production profiles at the given scale, in paper order.
pub fn all_production(ws_pages: u64) -> Vec<WorkloadProfile> {
    vec![
        web(ws_pages),
        cache1(ws_pages),
        cache2(ws_pages),
        data_warehouse(ws_pages),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tiered_mem::Vpn;
    use tiered_sim::{SimRng, Workload, WorkloadEvent, MINUTE};

    /// How long a region's window takes to slide once over its pages.
    fn cycle_ns(spec: &RegionSpec) -> u64 {
        (spec.pages / spec.step_pages.max(1)).max(1) * spec.dwell_ns
    }

    /// Drives a profile for `duration` of simulated time and returns the
    /// unique pages touched per type in the final 2-minute window.
    ///
    /// Simulated time advances 1 ms per op — a deliberate time-dilation so
    /// debug-mode tests stay fast. Coverage is insensitive to this: the
    /// ~720k accesses landing in the final window still saturate every hot
    /// set many times over, so unique-page coverage measures the window
    /// geometry, not the access rate.
    fn coverage(profile: &WorkloadProfile, duration: u64) -> (f64, f64) {
        let mut w = profile.build();
        let mut rng = SimRng::seed(99);
        let mut now = 0u64;
        let window_start = duration.saturating_sub(2 * MINUTE);
        let mut anon: HashSet<Vpn> = HashSet::new();
        let mut file: HashSet<Vpn> = HashSet::new();
        while now < duration {
            let op = w.next_op(now, &mut rng);
            now += 1_000_000; // 1 ms per op (time dilation, see above)
            if now < window_start {
                continue;
            }
            for e in &op.events {
                if let WorkloadEvent::Access(a) = e {
                    // Ignore transient churn for region-coverage checks.
                    if a.vpn.0 >= crate::synthetic::TRANSIENT_BASE_VPN {
                        continue;
                    }
                    if a.page_type.is_anon() {
                        anon.insert(a.vpn);
                    } else {
                        file.insert(a.vpn);
                    }
                }
            }
        }
        let anon_pages = profile.regions[0].pages as f64;
        let file_pages = profile.regions.get(1).map_or(1.0, |r| r.pages as f64);
        (
            anon.len() as f64 / anon_pages,
            file.len() as f64 / file_pages,
        )
    }

    #[test]
    fn web_hotness_matches_paper() {
        let (anon, file) = coverage(&web(20_000), 10 * MINUTE);
        assert!(
            (0.25..0.50).contains(&anon),
            "web anon 2-min hot {anon}, paper ~0.35"
        );
        assert!(
            (0.08..0.22).contains(&file),
            "web file 2-min hot {file}, paper ~0.14"
        );
        assert!(anon > file, "anon must be hotter than file");
    }

    #[test]
    fn cache1_hotness_matches_paper() {
        let (anon, file) = coverage(&cache1(20_000), 8 * MINUTE);
        assert!(
            (0.30..0.55).contains(&anon),
            "cache1 anon {anon}, paper ~0.40"
        );
        assert!(
            (0.15..0.35).contains(&file),
            "cache1 file {file}, paper ~0.25"
        );
        assert!(anon > file);
    }

    #[test]
    fn cache2_hotness_is_roughly_balanced() {
        let (anon, file) = coverage(&cache2(20_000), 8 * MINUTE);
        assert!(
            (0.33..0.55).contains(&anon),
            "cache2 anon {anon}, paper ~0.43"
        );
        assert!(
            (0.33..0.58).contains(&file),
            "cache2 file {file}, paper ~0.45"
        );
    }

    #[test]
    fn warehouse_is_mostly_cold() {
        let (anon, file) = coverage(&data_warehouse(20_000), 8 * MINUTE);
        assert!((0.12..0.30).contains(&anon), "dw anon {anon}, paper ~0.20");
        assert!(file < 0.12, "dw file {file}, paper ~all cold");
    }

    #[test]
    fn type_shares_match_paper() {
        for (p, anon_share) in [
            (web(10_000), 0.62),
            (cache1(10_000), 0.22),
            (cache2(10_000), 0.23),
            (data_warehouse(10_000), 0.85),
        ] {
            let anon = p.regions[0].pages as f64;
            let total: u64 = p.regions.iter().map(|r| r.pages).sum();
            let share = anon / total as f64;
            assert!(
                (share - anon_share).abs() < 0.02,
                "{}: anon share {share} vs {anon_share}",
                p.name
            );
        }
    }

    #[test]
    fn web_reaccess_is_fast_warehouse_slow() {
        // Figure 11: Web re-accesses ~80% of cold pages within 10 minutes;
        // Data Warehouse mostly allocates fresh pages instead.
        let web_anon = cycle_ns(&web(10_000).regions[0]);
        let dw_anon = cycle_ns(&data_warehouse(10_000).regions[0]);
        assert!(web_anon <= 11 * MINUTE, "web cycle {web_anon}");
        assert!(dw_anon > web_anon);
    }

    #[test]
    fn all_profiles_build_and_run() {
        let mut rng = SimRng::seed(1);
        for p in all_production(4_000).into_iter().chain([uniform(1_000)]) {
            let mut w = p.build();
            let mut accesses = 0usize;
            for i in 0..200u64 {
                let op = w.next_op(i * 1_000_000, &mut rng);
                accesses += op.access_count();
            }
            assert!(accesses > 200, "{} produced too few accesses", w.name());
            assert!(w.working_set_pages() > 900, "{}", w.name());
        }
    }

    #[test]
    fn distinct_pids_per_workload() {
        let mut profiles = all_production(1_000);
        profiles.push(kv_store(1_000));
        profiles.push(batch_analytics(1_000));
        profiles.push(thp_friendly(1_000));
        profiles.push(fragmenter(1_000));
        profiles.push(uniform(1_000));
        let pids: HashSet<_> = profiles.iter().map(|p| p.pid).collect();
        assert_eq!(pids.len(), profiles.len());
    }

    #[test]
    fn thp_friendly_footprint_is_huge_window_aligned() {
        for ws in [1_000, 6_000, 24_000, 100_000] {
            let p = thp_friendly(ws);
            assert_eq!(p.regions[0].pages % 512, 0, "ws {ws}");
            assert!(p.transient.is_none(), "no churn in the THP best case");
        }
    }

    #[test]
    fn fragmenter_churns_more_than_it_keeps() {
        let p = fragmenter(10_000);
        let t = p.transient.as_ref().expect("fragmenter must churn");
        assert!(t.allocs_per_op >= 1.0, "churn rate {}", t.allocs_per_op);
        assert!(
            t.range_pages > p.regions[0].pages,
            "churn range must be wider than the steady footprint"
        );
    }

    #[test]
    fn kv_store_is_extremely_skewed() {
        // Most traffic lands on a small fraction of the table.
        let mut w = kv_store(10_000).build();
        let mut rng = SimRng::seed(4);
        while w.in_warmup() {
            w.next_op(0, &mut rng);
        }
        let mut counts: std::collections::HashMap<Vpn, u32> = std::collections::HashMap::new();
        for i in 0..30_000u64 {
            let op = w.next_op(i * 500_000, &mut rng);
            for e in &op.events {
                if let WorkloadEvent::Access(a) = e {
                    if a.page_type.is_anon() && a.vpn.0 < 1 << 32 {
                        *counts.entry(a.vpn).or_default() += 1;
                    }
                }
            }
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().map(|&c| c as u64).sum();
        let head: u64 = freqs
            .iter()
            .take(freqs.len() / 20 + 1)
            .map(|&c| c as u64)
            .sum();
        assert!(
            head as f64 / total as f64 > 0.3,
            "top-5% of pages got only {:.2} of traffic",
            head as f64 / total as f64
        );
    }

    #[test]
    fn batch_analytics_scans_with_little_reuse() {
        // The scan front moves quickly: the window cycles the dataset in
        // a handful of dwells.
        let data = &batch_analytics(10_000).regions[0];
        let cycle = cycle_ns(data);
        assert!(cycle <= 6 * data.dwell_ns, "scan cycle too slow: {cycle}");
    }
}
