//! Topology-engine integration tests: distance-aware placement on
//! multi-socket/multi-CXL machines, edge cases under multi-node fallback,
//! and determinism of the topology experiment grid.

use tiered_mem::{Memory, NodeId, NodeKind, PageType, Pfn, Pid, Vpn};
use tiered_sim::{LatencyModel, MS, SEC};
use tpp::configs;
use tpp::experiment::{run_cell, PolicyChoice};
use tpp::policy::{PlacementPolicy, PolicyCtx, Tpp};

fn quickish() -> (u64, u64, u64) {
    // (ws_pages, duration_ns, seed) — matches tpp-bench's quick scale.
    (6_000, 60 * SEC, 42)
}

#[test]
fn demotion_lands_on_the_nearest_cxl_node() {
    // 3tier: DRAM's demotion order is [direct expander, switched pool].
    let (ws, dur, seed) = quickish();
    let profile = tiered_workloads::cache1(ws);
    let r = run_cell(
        &profile,
        configs::three_tier(ws),
        &PolicyChoice::Tpp,
        dur,
        seed,
    )
    .unwrap();
    let near = r.migrations_between(NodeId(0), NodeId(1));
    let far = r.migrations_between(NodeId(0), NodeId(2));
    assert!(near > 0, "TPP never demoted under pressure");
    assert!(
        near > far,
        "demotions should prefer the nearest CXL node (near {near} vs far {far})"
    );
}

#[test]
fn each_socket_demotes_to_its_own_expander() {
    let (ws, dur, seed) = quickish();
    let profile = tiered_workloads::cache1(ws);
    let r = run_cell(
        &profile,
        configs::two_socket_two_cxl(ws),
        &PolicyChoice::Tpp,
        dur,
        seed,
    )
    .unwrap();
    // The single-process workload homes on socket A (node 0); its
    // demotions must prefer expander A (node 2) over expander B (node 3).
    let own = r.migrations_between(NodeId(0), NodeId(2));
    let cross = r.migrations_between(NodeId(0), NodeId(3));
    assert!(own > 0, "socket A never demoted");
    assert!(
        own > cross,
        "socket A should prefer its own expander (own {own} vs cross {cross})"
    );
}

#[test]
fn promotion_targets_the_accessing_socket() {
    // A task homed on socket B: its hot CXL pages must promote to B's
    // DRAM, not node 0.
    let mut m = configs::two_socket_two_cxl(4_000);
    m.create_process(Pid(7));
    m.set_home_node(Pid(7), NodeId(1));
    let pfn = m
        .alloc_and_map(NodeId(3), Pid(7), Vpn(0), PageType::Anon)
        .unwrap();
    let lat = LatencyModel::datacenter();
    let mut p = Tpp::new();
    let mut ctx = PolicyCtx {
        memory: &mut m,
        latency: &lat,
        now_ns: 0,
    };
    // Anon pages start on the active LRU, so one hint fault promotes.
    let cost = p.on_hint_fault(&mut ctx, pfn);
    assert!(cost > 0, "hot page should promote");
    let new = m.space(Pid(7)).translate(Vpn(0)).unwrap().pfn().unwrap();
    assert_eq!(
        m.frames().frame(new).node(),
        NodeId(1),
        "promotion must land on the accessing socket"
    );
    m.validate();
}

#[test]
fn tpp_at_least_linux_on_every_preset() {
    let (ws, dur, seed) = quickish();
    for &preset in configs::topology_preset_names() {
        let profile = tiered_workloads::cache1(ws);
        let linux = run_cell(
            &profile,
            configs::topology_preset(preset, ws),
            &PolicyChoice::Linux,
            dur,
            seed,
        )
        .unwrap();
        let tpp = run_cell(
            &profile,
            configs::topology_preset(preset, ws),
            &PolicyChoice::Tpp,
            dur,
            seed,
        )
        .unwrap();
        assert!(
            tpp.throughput >= linux.throughput,
            "TPP below default Linux on preset {preset}: {} < {}",
            tpp.throughput,
            linux.throughput
        );
    }
}

#[test]
fn zero_capacity_node_is_skipped_by_fallback_and_demotion() {
    // A zero-capacity expander can never satisfy its watermarks, so both
    // the allocation fallback chain and the demotion order skip it.
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 64)
        .node(NodeKind::Cxl, 0)
        .node(NodeKind::CxlSwitched, 512)
        .swap_pages(1024)
        .build();
    m.create_process(Pid(1));
    let lat = LatencyModel::datacenter();
    let mut p = Tpp::new();
    // More pages than the local node holds: faults must fall through the
    // empty node to the pool without an OOM panic.
    for i in 0..120u64 {
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::Anon);
    }
    assert_eq!(m.frames().used_pages(NodeId(1)), 0);
    assert!(m.frames().used_pages(NodeId(2)) > 0);
    // Demotion pressure: pages must flow 0 → 2, never through node 1.
    for t in 0..10u64 {
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: t * 50 * MS,
        };
        p.tick(&mut ctx);
    }
    assert_eq!(m.migrations_between(NodeId(0), NodeId(1)), 0);
    assert!(m.migrations_between(NodeId(0), NodeId(2)) > 0);
    m.validate();
}

#[test]
fn swap_exhaustion_during_reclaim_does_not_panic() {
    // Default-Linux reclaim with an 8-slot swap device: the daemon fills
    // swap, further evictions fail (`SwapError::Full`), and the pass must
    // stop cleanly instead of panicking.
    use tpp::policy::LinuxDefault;
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 64)
        .node(NodeKind::Cxl, 64)
        .swap_pages(8)
        .build();
    m.create_process(Pid(1));
    let lat = LatencyModel::datacenter();
    let mut p = LinuxDefault::new();
    // Cold swap-backed pages on both nodes, well below the low watermark.
    for i in 0..60u64 {
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Tmpfs)
            .unwrap();
    }
    for i in 0..60u64 {
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(1_000 + i), PageType::Tmpfs)
            .unwrap();
    }
    for t in 0..10u64 {
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: t * 50 * MS,
        };
        p.tick(&mut ctx);
    }
    assert_eq!(m.swap().used_slots(), 8, "swap should be exhausted");
    m.validate();
}

#[test]
fn multi_node_fallback_spreads_allocations_without_oom() {
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 64)
        .node(NodeKind::Cxl, 64)
        .node(NodeKind::CxlSwitched, 128)
        .swap_pages(0)
        .build();
    m.create_process(Pid(1));
    let lat = LatencyModel::datacenter();
    let mut p = Tpp::new();
    let mut placed: Vec<Pfn> = Vec::new();
    for i in 0..200u64 {
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        placed.push(p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::Anon).pfn);
    }
    assert_eq!(placed.len(), 200);
    for node in [NodeId(0), NodeId(1), NodeId(2)] {
        assert!(
            m.frames().used_pages(node) > 0,
            "fallback should reach {node:?}"
        );
    }
    m.validate();
}

#[test]
fn topology_sweep_rows_are_jobs_invariant() {
    // One batch per side, so the parallel run reuses no cells.
    let scale = tpp_bench::Scale {
        ws_pages: 2_000,
        duration_ns: 20 * SEC,
        ..tpp_bench::Scale::quick()
    };
    let table = |jobs| {
        let plan = tpp_bench::sweeps::sweep_topology(&scale);
        let batch = tpp_bench::executor::run(std::slice::from_ref(&plan), jobs);
        assert_eq!(batch.jobs_reused(), 0);
        batch.table(plan)
    };
    assert_eq!(table(1), table(4));
}
