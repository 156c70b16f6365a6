//! The shared migration engine, fault path and daemon schedule seen
//! through each policy: compound promotion under NUMA balancing, the
//! failure reason of a compound promotion into a fragmented node,
//! khugepaged under every policy, the fault counted once after a stall,
//! and page-type-aware placement (spill, stall and multi-socket
//! fallback).

use tiered_mem::{
    Memory, NodeId, NodeKind, PageFlags, PageLocation, PageType, Pid, ThpMode, TraceEvent, VmEvent,
    Vpn, HUGE_PAGE_FRAMES,
};
use tiered_sim::LatencyModel;
use tpp::configs;
use tpp::experiment::PolicyChoice;
use tpp::policy::{
    AutoTiering, LinuxDefault, NumaBalancing, PlacementPolicy, PolicyCtx, Tpp, TppConfig,
    COMPOUND_MIGRATE_FACTOR,
};

fn thp_machine(mode: ThpMode) -> Memory {
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 2048)
        .node(NodeKind::Cxl, 2048)
        .swap_pages(4096)
        .thp_mode(mode)
        .build();
    m.create_process(Pid(1));
    m
}

fn mapped_pfn(m: &Memory, pid: Pid, vpn: Vpn) -> tiered_mem::Pfn {
    match m.space(pid).translate(vpn) {
        Some(PageLocation::Mapped(pfn)) => pfn,
        other => panic!("{pid}:{vpn} is not mapped ({other:?})"),
    }
}

#[test]
fn numa_balancing_promotes_a_hinted_compound_head_whole() {
    let mut m = thp_machine(ThpMode::Always);
    let head = m
        .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
        .unwrap();
    let lat = LatencyModel::datacenter();
    let mut ctx = PolicyCtx {
        memory: &mut m,
        latency: &lat,
        now_ns: 0,
    };
    let cost = NumaBalancing::new().on_hint_fault(&mut ctx, head);
    assert_eq!(cost, lat.migrate_page_ns * COMPOUND_MIGRATE_FACTOR);
    for fail in [
        VmEvent::PgPromoteFailLowMem,
        VmEvent::PgPromoteFailBusy,
        VmEvent::PgPromoteFailSystem,
    ] {
        assert_eq!(m.vmstat().get(fail), 0, "{}", fail.name());
    }
    assert_eq!(m.vmstat().promoted_total(), 1);
    let new_head = mapped_pfn(&m, Pid(1), Vpn(0));
    assert!(m.frames().frame(new_head).flags().contains(PageFlags::HEAD));
    for i in 0..HUGE_PAGE_FRAMES {
        let pfn = mapped_pfn(&m, Pid(1), Vpn(i));
        assert_eq!(m.frames().frame(pfn).node(), NodeId(0), "vpn {i}");
    }
    m.validate();
}

#[test]
fn autotiering_reports_a_fragmented_target_as_low_memory() {
    let mut m = thp_machine(ThpMode::Always);
    // Half the DRAM node is free, but in single pages: no aligned block
    // can take a compound.
    for i in 0..2048 {
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
            .unwrap();
    }
    for i in (0..2048).step_by(2) {
        m.release(Pid(1), Vpn(i));
    }
    let head = m
        .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(8192), PageType::Anon)
        .unwrap();
    for _ in 0..4 {
        m.frames_mut().frame_mut(head).touch_hotness();
    }
    let lat = LatencyModel::datacenter();
    let mut ctx = PolicyCtx {
        memory: &mut m,
        latency: &lat,
        now_ns: 0,
    };
    assert_eq!(AutoTiering::new().on_hint_fault(&mut ctx, head), 0);
    assert_eq!(m.vmstat().get(VmEvent::PgPromoteAttempt), 1);
    assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailLowMem), 1);
    assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailBusy), 0);
    m.validate();
}

#[test]
fn every_policy_collapses_a_populated_window_under_madvise() {
    for choice in [
        PolicyChoice::Linux,
        PolicyChoice::NumaBalancing,
        PolicyChoice::AutoTiering,
        PolicyChoice::Tpp,
        PolicyChoice::InMemorySwap,
    ] {
        let mut m = thp_machine(ThpMode::Madvise);
        // One fully populated, aligned anon window; one referenced page
        // passes khugepaged's warm gate.
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
            if i == 3 {
                m.frames_mut()
                    .frame_mut(pfn)
                    .flags_mut()
                    .insert(PageFlags::REFERENCED);
            }
        }
        let lat = LatencyModel::datacenter();
        let mut policy = choice.build();
        policy.tick(&mut PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        });
        assert!(
            m.vmstat().get(VmEvent::ThpCollapseAlloc) >= 1,
            "{} did not run khugepaged",
            choice.label()
        );
        m.validate();
    }
}

/// Maps `page_type` pages of `pid` on `node`, from `*next_vpn` up, until
/// only `free` pages are left there.
fn fill_until(
    m: &mut Memory,
    node: NodeId,
    pid: Pid,
    next_vpn: &mut u64,
    page_type: PageType,
    free: u64,
) {
    while m.free_pages(node) > free {
        m.alloc_and_map(node, pid, Vpn(*next_vpn), page_type)
            .unwrap();
        *next_vpn += 1;
    }
}

/// Fills `node` down to its `min` watermark: allocations no longer
/// pass it, but it still has free frames.
fn fill_to_min(m: &mut Memory, node: NodeId, pid: Pid, next_vpn: &mut u64, page_type: PageType) {
    let min = m.node(node).watermarks().base.min;
    assert!(min > 0, "node {node} has no min watermark");
    fill_until(m, node, pid, next_vpn, page_type, min);
}

/// A cache-to-CXL TPP.
fn tpp_cache_to_cxl() -> Tpp {
    Tpp::with_config(TppConfig {
        cache_to_cxl: true,
        ..TppConfig::default()
    })
}

/// Faults `pid:*next_vpn` as a file page through `policy`, advances
/// `*next_vpn` and returns the node the page landed on.
fn file_fault(
    policy: &mut dyn PlacementPolicy,
    m: &mut Memory,
    pid: Pid,
    next_vpn: &mut u64,
) -> NodeId {
    let lat = LatencyModel::datacenter();
    let ctx = &mut PolicyCtx {
        memory: m,
        latency: &lat,
        now_ns: 0,
    };
    let out = policy.handle_fault(ctx, pid, Vpn(*next_vpn), PageType::File);
    *next_vpn += 1;
    m.frames().frame(out.pfn).node()
}

/// How many `alloc_spill_below_watermark` decisions `m`'s trace holds
/// since it was last taken.
fn spills(m: &mut Memory) -> usize {
    m.take_trace()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::Decision {
                    reason: "alloc_spill_below_watermark",
                    ..
                }
            )
        })
        .count()
}

#[test]
fn a_fault_placed_after_a_stall_counts_one_pgfault() {
    // No swap and anon pages only: direct reclaim on node 0 frees
    // nothing, so the retry must pass over the full node 0 and place the
    // page on node 1, which is below `min` but not empty.
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 1024)
        .node(NodeKind::Cxl, 1024)
        .swap_pages(0)
        .build();
    m.create_process(Pid(1));
    let mut vpn = 0;
    fill_until(&mut m, NodeId(0), Pid(1), &mut vpn, PageType::Anon, 0);
    fill_to_min(&mut m, NodeId(1), Pid(1), &mut vpn, PageType::Anon);
    let before = m.vmstat().get(VmEvent::PgFault);
    let lat = LatencyModel::datacenter();
    let out = LinuxDefault::new().handle_fault(
        &mut PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        },
        Pid(1),
        Vpn(vpn),
        PageType::Anon,
    );
    assert_eq!(m.frames().frame(out.pfn).node(), NodeId(1));
    assert_eq!(m.vmstat().get(VmEvent::PgAllocStall), 1);
    assert_eq!(m.vmstat().get(VmEvent::PgFault) - before, 1);
    m.validate();
}

#[test]
fn cache_to_cxl_spills_a_file_to_the_local_node_and_records_it() {
    let mut m = configs::ratio(3_000, 2, 1);
    m.create_process(Pid(1));
    let mut vpn = 0;
    fill_to_min(&mut m, NodeId(1), Pid(1), &mut vpn, PageType::Anon);
    m.enable_trace();
    assert_eq!(
        file_fault(&mut tpp_cache_to_cxl(), &mut m, Pid(1), &mut vpn),
        NodeId(0)
    );
    assert_eq!(spills(&mut m), 1);
    assert_eq!(m.vmstat().get(VmEvent::PgAllocStall), 0);
    m.validate();
}

#[test]
fn cache_to_cxl_stalls_into_reclaim_on_the_home_node_then_tries_cxl_first() {
    // Both nodes at `min`; the local node holds clean file pages that
    // direct reclaim can drop.
    let mut m = configs::ratio(3_000, 2, 1);
    m.create_process(Pid(1));
    let mut vpn = 0;
    fill_to_min(&mut m, NodeId(0), Pid(1), &mut vpn, PageType::File);
    fill_to_min(&mut m, NodeId(1), Pid(1), &mut vpn, PageType::Anon);
    let local_free = m.free_pages(NodeId(0));
    m.enable_trace();
    let node = file_fault(&mut tpp_cache_to_cxl(), &mut m, Pid(1), &mut vpn);
    let stalls: Vec<NodeId> = m
        .take_trace()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::AllocStall { node } => Some(node),
            _ => None,
        })
        .collect();
    assert_eq!(stalls, [NodeId(0)]);
    assert!(m.free_pages(NodeId(0)) > local_free, "no reclaim on node 0");
    assert_eq!(node, NodeId(1));
    m.validate();
}

#[test]
fn cache_to_cxl_places_files_on_the_home_sockets_expander() {
    // 2s2c: node 1 is socket B's DRAM, node 3 its own expander; node 2 is
    // socket A's expander, the first CXL node by id.
    let mut m = configs::two_socket_two_cxl(4_000);
    m.create_process(Pid(2));
    m.set_home_node(Pid(2), NodeId(1));
    let mut tpp = tpp_cache_to_cxl();
    let mut vpn = 0;
    assert_eq!(file_fault(&mut tpp, &mut m, Pid(2), &mut vpn), NodeId(3));
    // With node 3 below `min`, the demotion target is the next expander
    // with headroom, socket A's.
    fill_to_min(&mut m, NodeId(3), Pid(2), &mut vpn, PageType::Anon);
    assert_eq!(file_fault(&mut tpp, &mut m, Pid(2), &mut vpn), NodeId(2));
    // With both expanders below `min`, the file prefers node 3 and spills
    // along node 3's zonelist (3, 1, 0, 2): to socket B's DRAM, then to
    // socket A's. Each spill is recorded.
    assert_eq!(
        m.fallback_order(NodeId(3)).as_slice(),
        &[NodeId(3), NodeId(1), NodeId(0), NodeId(2)]
    );
    fill_to_min(&mut m, NodeId(2), Pid(2), &mut vpn, PageType::Anon);
    m.enable_trace();
    assert_eq!(file_fault(&mut tpp, &mut m, Pid(2), &mut vpn), NodeId(1));
    fill_to_min(&mut m, NodeId(1), Pid(2), &mut vpn, PageType::Anon);
    assert_eq!(file_fault(&mut tpp, &mut m, Pid(2), &mut vpn), NodeId(0));
    assert_eq!(spills(&mut m), 2);
    m.validate();
}
