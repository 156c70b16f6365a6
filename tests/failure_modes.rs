//! Failure-injection tests: swap exhaustion, migration-target exhaustion,
//! and simulated OOM semantics.

use tiered_mem::{Memory, NodeId, NodeKind, PageType, Pid, VmEvent, Vpn};
use tiered_sim::{LatencyModel, SEC};
use tpp::experiment::PolicyChoice;
use tpp::policy::{PlacementPolicy, PolicyCtx, Tpp};
use tpp::{configs, System};

#[test]
fn file_heavy_workload_survives_without_swap() {
    // Clean file pages can always be dropped, so a page-cache-heavy
    // workload runs fine even with a zero-capacity swap device.
    let profile = tiered_workloads::cache1(2_000);
    let ws = profile.working_set_pages();
    let total = ws * 105 / 100;
    let mut builder = Memory::builder();
    builder
        .node(NodeKind::LocalDram, total / 3)
        .node(NodeKind::Cxl, total - total / 3)
        .swap_pages(0);
    let mut system = System::new(
        builder.build(),
        PolicyChoice::Tpp.build(),
        Box::new(profile.build()),
        5,
    )
    .unwrap();
    system.run(10 * SEC);
    assert!(system.metrics().ops_completed > 1_000);
    assert_eq!(system.memory().swap().used_slots(), 0);
    system.memory().validate();
}

#[test]
fn tpp_falls_back_to_legacy_reclaim_when_cxl_is_full() {
    // Demotion's migration target can fill up; TPP then falls back to the
    // default reclaim mechanism per page (paper §5.1) and counts it.
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 512)
        .node(NodeKind::Cxl, 64)
        .swap_pages(4096)
        .build();
    m.create_process(tiered_mem::Pid(1));
    // Fill the CXL node completely.
    for i in 0..64u64 {
        m.alloc_and_map(
            tiered_mem::NodeId(1),
            tiered_mem::Pid(1),
            tiered_mem::Vpn(10_000 + i),
            tiered_mem::PageType::Anon,
        )
        .unwrap();
    }
    // Pressure the local node with cold tmpfs pages (past the demotion
    // trigger watermark).
    for i in 0..506u64 {
        m.alloc_and_map(
            tiered_mem::NodeId(0),
            tiered_mem::Pid(1),
            tiered_mem::Vpn(i),
            tiered_mem::PageType::Tmpfs,
        )
        .unwrap();
    }
    let lat = LatencyModel::datacenter();
    let mut policy = Tpp::new();
    for t in 0..10u64 {
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: t * 50_000_000,
        };
        policy.tick(&mut ctx);
    }
    assert!(
        m.vmstat().get(VmEvent::PgDemoteFallback) > 0,
        "fallback path never fired"
    );
    assert!(m.swap().used_slots() > 0, "fallback should page out");
    m.validate();
}

#[test]
#[should_panic(expected = "simulated OOM")]
fn anon_workload_with_no_swap_and_no_room_oo_ms() {
    // An anon-only workload bigger than all memory with zero swap has
    // nowhere to go: the simulator reports OOM by panicking.
    let profile = tiered_workloads::uniform(4_000); // anon-only
    let mut builder = Memory::builder();
    builder
        .node(NodeKind::LocalDram, 1_000)
        .node(NodeKind::Cxl, 1_000)
        .swap_pages(0);
    let mut system = System::new(
        builder.build(),
        PolicyChoice::Linux.build(),
        Box::new(profile.build()),
        5,
    )
    .unwrap();
    system.run(30 * SEC);
}

#[test]
fn numa_balancing_survives_swap_exhaustion() {
    // With a tiny swap device, reclaim stalls but the system keeps
    // running by spilling to the CXL node.
    let profile = tiered_workloads::cache1(2_000);
    let ws = profile.working_set_pages();
    let total = ws * 110 / 100;
    let mut builder = Memory::builder();
    builder
        .node(NodeKind::LocalDram, total / 5)
        .node(NodeKind::Cxl, total - total / 5)
        .swap_pages(32);
    let mut system = System::new(
        builder.build(),
        PolicyChoice::NumaBalancing.build(),
        Box::new(profile.build()),
        5,
    )
    .unwrap();
    system.run(10 * SEC);
    assert!(system.metrics().ops_completed > 1_000);
    // The swap device saturated (or nearly).
    assert!(system.memory().swap().used_slots() <= 32);
    system.memory().validate();
}

#[test]
fn zero_capacity_cxl_nodes_are_tolerated_and_skipped() {
    // A zero-capacity node (hot-removed or not-yet-onlined expander)
    // builds fine; every allocation on it fails with NoMemory, so the
    // fallback chain flows past it instead of the machine being
    // unconstructible. (`configs` still floors capacities so presets
    // never produce one by accident.)
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 16)
        .node(NodeKind::Cxl, 0)
        .build();
    m.create_process(Pid(1));
    assert!(matches!(
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon),
        Err(tiered_mem::AllocError::NoMemory { .. })
    ));
    // More faults than local DRAM holds: the only fallback target is the
    // empty node, so the overflow must report OOM, not panic.
    let mut placed = 0;
    for i in 0..32u64 {
        let node = m.fallback_order(NodeId(0)).iter().copied().find_map(|n| {
            m.alloc_and_map(n, Pid(1), Vpn(i), PageType::Anon)
                .ok()
                .map(|_| n)
        });
        match node {
            Some(n) => {
                assert_eq!(n, NodeId(0), "allocations must skip the empty node");
                placed += 1;
            }
            None => break,
        }
    }
    assert_eq!(placed, 16);
    assert_eq!(m.frames().used_pages(NodeId(1)), 0);
    m.validate();
}

#[test]
fn oversubscribed_machine_with_swap_just_thrashes() {
    // Hot set larger than all memory, but swap exists: the system
    // survives by thrashing (and throughput shows it).
    let profile = tiered_workloads::uniform(6_000); // hot window ~3,000 pages
    let baseline = {
        let mut s = System::new(
            configs::all_local(6_000),
            PolicyChoice::Linux.build(),
            Box::new(profile.build()),
            5,
        )
        .unwrap();
        s.run(10 * SEC);
        s.metrics().steady_throughput(5 * SEC, u64::MAX)
    };
    let mut builder = Memory::builder();
    builder
        .node(NodeKind::LocalDram, 800)
        .node(NodeKind::Cxl, 800)
        .swap_pages(20_000);
    let mut system = System::new(
        builder.build(),
        PolicyChoice::Linux.build(),
        Box::new(profile.build()),
        5,
    )
    .unwrap();
    system.run(10 * SEC);
    let thrashed = system.metrics().steady_throughput(5 * SEC, u64::MAX);
    assert!(
        system.memory().vmstat().get(VmEvent::PswpIn) > 100,
        "no thrashing observed"
    );
    assert!(
        thrashed < baseline * 0.8,
        "oversubscription should hurt: {thrashed:.0} vs {baseline:.0}"
    );
    system.memory().validate();
}
