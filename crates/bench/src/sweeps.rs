//! Extension experiments beyond the paper's figures: parameter sweeps
//! over the design choices DESIGN.md calls out, plus the in-memory-swap
//! comparison the related-work section (§7) argues qualitatively.
//!
//! * [`sweep_demote_scale`] — sensitivity to `demote_scale_factor`
//!   (how much free headroom the demotion daemon maintains),
//! * [`sweep_cxl_latency`] — sensitivity to the CXL device latency
//!   (ASIC target vs. FPGA prototype vs. worse),
//! * [`sweep_ratio`] — the local:CXL capacity curve between the paper's
//!   2:1 and 1:4 end points,
//! * [`sweep_thp`] — transparent huge pages (`never`/`madvise`/`always`)
//!   under default Linux vs. TPP,
//! * [`zswap_comparison`] — TPP vs. in-memory swapping (zswap/zram).
//!
//! Like the evaluation figures, sweeps enumerate their whole grid as
//! [`CellSpec`]s (the shared all-local baseline is always spec 0) and run
//! the batch on `scale.jobs` executor workers; rows are derived from the
//! results in spec order, so the tables are identical at any job count.
//! The Cache1 sweeps perturb the 1:4 machine one
//! [`MachineSpec`](tpp::configs::MachineSpec) knob at a time, so each
//! point at the knob's default is the Figure 16 cell and runs once per
//! `repro` run.

use tiered_mem::{Memory, NodeKind};
use tpp::configs::Shape;
use tpp::experiment::{CellSpec, ExperimentResult, PolicyChoice};
use tpp::{configs, System};

use crate::evalfig::{baseline_spec, cell};
use crate::executor::{parallel_map, run_cells};
use crate::scale::{pct, print_table, Scale};

/// Runs `specs` on the executor and unwraps every cell (sweep grids only
/// contain supported machine/policy pairs).
fn run_all(specs: &[CellSpec], scale: &Scale) -> Vec<ExperimentResult> {
    run_cells(scale, specs)
        .into_iter()
        .map(|r| r.expect("sweep cells use supported machine/policy pairs"))
        .collect()
}

/// Sweep `demote_scale_factor` (basis points) on Cache1 1:4 under TPP.
///
/// The paper fixes 2% (200 bp); this shows why: too little headroom and
/// promotions starve, too much and the local node wastes capacity.
pub fn sweep_demote_scale(scale: &Scale) -> Vec<Vec<String>> {
    let profile = tiered_workloads::cache1(scale.ws_pages);
    let points = [25u32, 100, 200, 400, 800];
    let mut specs = vec![baseline_spec(&profile, scale)];
    for bp in points {
        let mut spec = cell(&profile, Shape::Ratio(1, 4), PolicyChoice::Tpp, scale);
        spec.machine.demote_scale_bp = bp;
        specs.push(spec);
    }
    let results = run_all(&specs, scale);
    let base = &results[0];
    let mut rows = Vec::new();
    for (bp, r) in points.iter().zip(&results[1..]) {
        rows.push(vec![
            format!("{:.2}%", *bp as f64 / 100.0),
            pct(r.local_traffic),
            format!("{}", r.promoted()),
            format!("{}", r.demoted()),
            pct(r.vmstat.promote_success_rate()),
            pct(r.relative_throughput(base)),
        ]);
    }
    print_table(
        "Sweep — demote_scale_factor (Cache1, 1:4, TPP)",
        &[
            "demote_scale_factor",
            "local traffic",
            "promoted",
            "demoted",
            "promo success",
            "throughput vs all-local",
        ],
        &rows,
    );
    rows
}

/// Sweep the CXL device latency on Cache1 1:4: the ASIC target (~185 ns),
/// the paper's FPGA prototype (+250 ns), and worse.
pub fn sweep_cxl_latency(scale: &Scale) -> Vec<Vec<String>> {
    let profile = tiered_workloads::cache1(scale.ws_pages);
    let points = [
        ("ASIC target (185 ns)", 185u64),
        ("FPGA prototype (350 ns)", 350),
        ("slow device (500 ns)", 500),
    ];
    let mut specs = vec![baseline_spec(&profile, scale)];
    let mut labels = Vec::new();
    for (label, latency) in points {
        for choice in [PolicyChoice::Linux, PolicyChoice::Tpp] {
            let mut spec = cell(&profile, Shape::Ratio(1, 4), choice, scale);
            spec.machine.cxl_latency_ns = latency;
            specs.push(spec);
            labels.push(label);
        }
    }
    let results = run_all(&specs, scale);
    let base = &results[0];
    let mut rows = Vec::new();
    for (label, r) in labels.iter().zip(&results[1..]) {
        rows.push(vec![
            label.to_string(),
            r.policy.clone(),
            pct(r.local_traffic),
            pct(r.relative_throughput(base)),
        ]);
    }
    print_table(
        "Sweep — CXL latency sensitivity (Cache1, 1:4)",
        &[
            "CXL device",
            "policy",
            "local traffic",
            "throughput vs all-local",
        ],
        &rows,
    );
    rows
}

/// Sweep the local:CXL capacity ratio from 2:1 down to 1:5.
pub fn sweep_ratio(scale: &Scale) -> Vec<Vec<String>> {
    let profile = tiered_workloads::cache1(scale.ws_pages);
    let points = [
        ("2:1", 2u64, 1u64),
        ("1:1", 1, 1),
        ("1:2", 1, 2),
        ("1:4", 1, 4),
        ("1:5", 1, 5),
    ];
    let mut specs = vec![baseline_spec(&profile, scale)];
    let mut labels = Vec::new();
    for (label, local_parts, cxl_parts) in points {
        for choice in [PolicyChoice::Linux, PolicyChoice::Tpp] {
            let shape = Shape::Ratio(local_parts, cxl_parts);
            specs.push(cell(&profile, shape, choice, scale));
            labels.push(label);
        }
    }
    let results = run_all(&specs, scale);
    let base = &results[0];
    let mut rows = Vec::new();
    for (label, r) in labels.iter().zip(&results[1..]) {
        rows.push(vec![
            label.to_string(),
            r.policy.clone(),
            pct(r.local_traffic),
            pct(r.relative_throughput(base)),
        ]);
    }
    print_table(
        "Sweep — local:CXL capacity ratio (Cache1)",
        &[
            "ratio",
            "policy",
            "local traffic",
            "throughput vs all-local",
        ],
        &rows,
    );
    rows
}

/// Topology grid: Cache1 and Web across the multi-socket/multi-CXL
/// presets (`2s2c`, `pooled`, `3tier`), default Linux vs. TPP.
///
/// The "nearest demote" column is the share of demotions that landed on
/// the demoting socket's *nearest* lower-tier node (its distance-derived
/// first choice) — the distance-aware placement the topology engine is
/// for. `-` means the policy never demoted.
pub fn sweep_topology(scale: &Scale) -> Vec<Vec<String>> {
    use tiered_mem::NodeId;
    let profiles = [
        tiered_workloads::cache1(scale.ws_pages),
        tiered_workloads::web(scale.ws_pages),
    ];
    let presets = configs::topology_preset_names();
    // Specs 0..profiles.len() are the per-workload all-local baselines;
    // the grid cells follow in (preset, workload, policy) order.
    let mut specs: Vec<CellSpec> = profiles.iter().map(|p| baseline_spec(p, scale)).collect();
    let mut cells = Vec::new();
    for &preset in presets {
        for (pi, profile) in profiles.iter().enumerate() {
            for choice in [PolicyChoice::Linux, PolicyChoice::Tpp] {
                specs.push(cell(profile, Shape::Preset(preset), choice, scale));
                cells.push((preset, pi));
            }
        }
    }
    let results = run_all(&specs, scale);
    let mut rows = Vec::new();
    for (((preset, pi), spec), r) in cells
        .iter()
        .zip(&specs[profiles.len()..])
        .zip(&results[profiles.len()..])
    {
        let base = &results[*pi];
        // Re-derive each socket's nearest target from the preset machine
        // (results carry only the migration matrix).
        let machine = spec.machine.build();
        let (mut near, mut out) = (0u64, 0u64);
        for &socket in machine.local_nodes().iter() {
            let nearest = machine
                .node(socket)
                .demotion_target()
                .expect("presets give every socket a lower tier");
            for to in 0..r.node_count {
                if to != socket.index() {
                    out += r.migrations_between(socket, NodeId(to as u8));
                }
            }
            near += r.migrations_between(socket, nearest);
        }
        let near_share = if out == 0 {
            "-".to_string()
        } else {
            pct(near as f64 / out as f64)
        };
        rows.push(vec![
            preset.to_string(),
            r.workload.clone(),
            r.policy.clone(),
            pct(r.local_traffic),
            format!("{}", r.demoted()),
            near_share,
            pct(r.relative_throughput(base)),
        ]);
    }
    print_table(
        "Sweep — topology presets (Cache1/Web, Linux vs TPP)",
        &[
            "preset",
            "workload",
            "policy",
            "local traffic",
            "demoted",
            "nearest demote",
            "throughput vs all-local",
        ],
        &rows,
    );
    rows
}

/// Transparent-huge-page grid: Cache1 (the paper's demotion-heavy 1:4
/// configuration) and the THP-friendly profile, default Linux vs. TPP,
/// across the three `ThpMode`s.
///
/// `never` must reproduce the base-page numbers exactly: no compound
/// page is created and neither huge-page daemon runs, on the same buddy
/// allocator every mode uses. `madvise` enables the khugepaged and
/// kcompactd daemons; `always` adds fault-time THP allocation. The
/// counters show where huge pages come from (fault vs. collapse) and
/// what tiering does to them: TPP demotes compound units whole when the
/// CXL node has an aligned free block and splits them otherwise, so
/// demotion-heavy cells report nonzero `thp_split`.
pub fn sweep_thp(scale: &Scale) -> Vec<Vec<String>> {
    use tiered_mem::{ThpMode, VmEvent};
    let profiles = [
        tiered_workloads::cache1(scale.ws_pages),
        tiered_workloads::thp_friendly(scale.ws_pages),
    ];
    let modes = [ThpMode::Never, ThpMode::Madvise, ThpMode::Always];
    // Specs 0..profiles.len() are the per-workload all-local baselines;
    // grid cells follow in (workload, policy, mode) order.
    let mut specs: Vec<CellSpec> = profiles.iter().map(|p| baseline_spec(p, scale)).collect();
    let mut cells = Vec::new();
    for (pi, profile) in profiles.iter().enumerate() {
        for choice in [PolicyChoice::Linux, PolicyChoice::Tpp] {
            for mode in modes {
                let mut spec = cell(profile, Shape::Ratio(1, 4), choice.clone(), scale);
                spec.machine.thp = mode;
                specs.push(spec);
                cells.push((pi, mode));
            }
        }
    }
    let results = run_all(&specs, scale);
    let mut rows = Vec::new();
    for ((pi, mode), r) in cells.iter().zip(&results[profiles.len()..]) {
        let base = &results[*pi];
        rows.push(vec![
            r.workload.clone(),
            r.policy.clone(),
            mode.to_string(),
            format!("{}", r.vmstat.get(VmEvent::ThpFaultAlloc)),
            format!("{}", r.vmstat.get(VmEvent::ThpCollapseAlloc)),
            format!("{}", r.vmstat.get(VmEvent::ThpSplit)),
            format!(
                "{}/{}",
                r.vmstat.get(VmEvent::CompactSuccess),
                r.vmstat.get(VmEvent::CompactFail)
            ),
            pct(r.relative_throughput(base)),
        ]);
    }
    print_table(
        "Sweep — transparent huge pages (Cache1/THP-friendly, 1:4, Linux vs TPP)",
        &[
            "workload",
            "policy",
            "thp",
            "thp_fault_alloc",
            "collapsed",
            "split",
            "compact ok/fail",
            "throughput vs all-local",
        ],
        &rows,
    );
    rows
}

/// TPP vs. in-memory swapping (zswap/zram-style): the §7 argument.
///
/// Both configurations expose the same DRAM and CXL capacity, used two
/// different ways:
///
/// * **CXL as a swap pool** ([`PolicyChoice::InMemorySwap`]): the machine
///   has only the local DRAM as memory; the CXL capacity backs a fast
///   in-memory swap device. Every access to cold data takes a page fault
///   and a pool round trip.
/// * **CXL as memory** ([`PolicyChoice::Tpp`]): the CXL capacity is a
///   CPU-less NUMA node; cold pages are directly addressable there.
pub fn zswap_comparison(scale: &Scale) -> Vec<Vec<String>> {
    let profile = tiered_workloads::cache1(scale.ws_pages);
    let mut specs = vec![
        baseline_spec(&profile, scale),
        // CXL as an in-memory swap pool.
        cell(
            &profile,
            Shape::SwapPool(1, 4),
            PolicyChoice::InMemorySwap,
            scale,
        ),
    ];
    // CXL as addressable memory under TPP (and default Linux for scale).
    for choice in [PolicyChoice::Linux, PolicyChoice::Tpp] {
        specs.push(cell(&profile, Shape::Ratio(1, 4), choice, scale));
    }
    let results = run_all(&specs, scale);
    let base = &results[0];
    let mut rows = Vec::new();
    for (i, r) in results[1..].iter().enumerate() {
        let label = if i == 0 {
            "CXL as swap pool (inmem_swap)".to_string()
        } else {
            format!("CXL as memory ({})", r.policy)
        };
        rows.push(vec![
            label,
            pct(r.local_traffic),
            format!("{}", r.swap_outs()),
            format!("{}", r.vmstat.get(tiered_mem::VmEvent::PswpIn)),
            format!("{}", r.demoted()),
            pct(r.relative_throughput(base)),
        ]);
    }
    print_table(
        "Extra — CXL as swap pool vs CXL as memory (Cache1, same capacities)",
        &[
            "configuration",
            "local traffic",
            "pool outs",
            "pool ins (faults)",
            "demoted",
            "throughput vs all-local",
        ],
        &rows,
    );
    rows
}

/// Co-location experiment: a latency-sensitive cache and a batch Data
/// Warehouse job share one 2:1 machine. TPP arbitrates the shared local
/// node transparently; default Linux lets whoever allocated first keep
/// it.
///
/// The two workloads are lanes of one [`System::colocated`] run sharing
/// one machine, so this experiment cannot be expressed as independent
/// [`CellSpec`] cells; the two policy variants are still fanned out with
/// [`parallel_map`] (each worker builds and runs its own system locally).
pub fn colocation(scale: &Scale) -> Vec<Vec<String>> {
    let choices = [PolicyChoice::Linux, PolicyChoice::Tpp];
    let per_choice: Vec<Vec<Vec<String>>> = parallel_map(scale.jobs, choices.len(), |ci| {
        let choice = &choices[ci];
        let cache = tiered_workloads::cache1(scale.ws_pages / 2);
        let warehouse = tiered_workloads::data_warehouse(scale.ws_pages / 2);
        let total_ws = cache.working_set_pages() + warehouse.working_set_pages();
        let mut system = System::colocated(
            configs::two_to_one(total_ws),
            choice.build(),
            vec![Box::new(cache.build()), Box::new(warehouse.build())],
            scale.seed,
        )
        .expect("2:1 supported");
        system.run(scale.duration_ns);
        let half = scale.duration_ns / 2;
        (0..system.lane_count())
            .map(|i| {
                let m = system.lane_metrics(i);
                vec![
                    choice.label().to_string(),
                    system.lane_name(i).to_string(),
                    format!("{:.0}", m.steady_throughput(half, u64::MAX)),
                    pct(m.local_traffic_fraction()),
                    format!("{}", m.p99_op_latency_ns() / 1000),
                ]
            })
            .collect()
    });
    let rows: Vec<Vec<String>> = per_choice.into_iter().flatten().collect();
    print_table(
        "Extra — co-located cache1 + data_warehouse on one 2:1 machine",
        &[
            "policy",
            "workload",
            "ops/s",
            "local traffic",
            "p99 op latency (µs)",
        ],
        &rows,
    );
    rows
}

/// Verifies the §5.1/§6.2.1 reclaim-rate claim with a mechanism probe:
/// fill the local node with cold swap-backed (tmpfs) pages, run each
/// policy's background daemon for one simulated second of wakeups, and
/// measure how many pages it can move out. The ~44× gap between paging
/// (130 µs/page) and migration (3 µs/page) emerges from the device
/// model.
pub fn reclaim_rate_comparison(_scale: &Scale) -> Vec<Vec<String>> {
    use tiered_mem::{NodeId, PageType, Pid, Vpn};
    use tiered_sim::{LatencyModel, MS};
    use tpp::policy::PolicyCtx;

    let build = || {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 40_000)
            .node(NodeKind::Cxl, 80_000)
            .swap_pages(200_000)
            .build();
        m.create_process(Pid(1));
        // Fill local with cold tmpfs pages (must swap under the default
        // kernel; migratable under TPP).
        for i in 0..39_980u64 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Tmpfs)
                .unwrap();
        }
        m
    };
    let lat = LatencyModel::datacenter();
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for choice in [PolicyChoice::Linux, PolicyChoice::Tpp] {
        let mut m = build();
        let mut policy = choice.build();
        // One simulated second of daemon wakeups (20 ticks at 50 ms),
        // with sustained allocation pressure: every page the daemon
        // frees is instantly consumed by a new cold allocation, so the
        // eviction *mechanism* runs at full capability the whole time
        // (the paper's surge scenario).
        let mut next_vpn = 1_000_000u64;
        let mut evicted_total = 0u64;
        for t in 0..20u64 {
            let before = m.frames().used_pages(NodeId(0));
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: t * 50 * MS,
            };
            policy.tick(&mut ctx);
            evicted_total += before.saturating_sub(m.frames().used_pages(NodeId(0)));
            while m.free_pages(NodeId(0)) > 20 {
                m.alloc_and_map(NodeId(0), Pid(1), Vpn(next_vpn), PageType::Tmpfs)
                    .expect("refill allocation");
                next_vpn += 1;
            }
        }
        rates.push(evicted_total as f64);
        rows.push(vec![
            choice.label().to_string(),
            format!("{evicted_total}"),
            format!("{}", m.swap().used_slots()),
            format!("{}", m.vmstat().demoted_total()),
        ]);
    }
    let ratio = if rates[0] > 0.0 {
        rates[1] / rates[0]
    } else {
        f64::INFINITY
    };
    rows.push(vec![
        "tpp / linux".to_string(),
        format!("{ratio:.0}x"),
        String::new(),
        String::new(),
    ]);
    print_table(
        "Extra — reclaim mechanism rate probe (cold tmpfs, 1 s of daemon wakeups; paper: ~44x)",
        &["policy", "pages evicted/s", "in swap", "demoted"],
        &rows,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_sim::SEC;

    #[test]
    fn sweep_points_at_knob_defaults_reuse_one_cell() {
        let scale = Scale {
            ws_pages: 1_500,
            duration_ns: 2 * SEC,
            ..Scale::quick()
        };
        let counts = |s: &Scale| (s.cells.cells_run(), s.cells.cells_reused());
        sweep_demote_scale(&scale);
        assert_eq!(counts(&scale), (6, 0));
        // The all-local baseline and the 185 ns TPP point (the 200 bp
        // point above) are already in the cache.
        sweep_cxl_latency(&scale);
        assert_eq!(counts(&scale), (11, 2));
        // So are Cache1's baseline and its `never` Linux and TPP points
        // (the 185 ns points).
        sweep_thp(&scale);
        assert_eq!(counts(&scale), (22, 5));
    }
}
