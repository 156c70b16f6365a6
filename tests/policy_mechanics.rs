//! The shared migration engine and daemon schedule seen through each
//! policy: compound promotion under NUMA balancing, the failure reason of
//! a compound promotion into a fragmented node, khugepaged under every
//! policy, and page-type-aware placement on a multi-socket machine.

use tiered_mem::{
    Memory, NodeId, NodeKind, PageFlags, PageLocation, PageType, Pid, ThpMode, VmEvent, Vpn,
    HUGE_PAGE_FRAMES,
};
use tiered_sim::{LatencyModel, SimRng};
use tpp::configs;
use tpp::experiment::PolicyChoice;
use tpp::policy::{
    AutoTiering, NumaBalancing, PlacementPolicy, PolicyCtx, Tpp, TppConfig, COMPOUND_MIGRATE_FACTOR,
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
    let (lat, mut rng) = (LatencyModel::datacenter(), SimRng::seed(1));
    let mut ctx = PolicyCtx {
        memory: &mut m,
        latency: &lat,
        now_ns: 0,
        rng: &mut rng,
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
    let (lat, mut rng) = (LatencyModel::datacenter(), SimRng::seed(1));
    let mut ctx = PolicyCtx {
        memory: &mut m,
        latency: &lat,
        now_ns: 0,
        rng: &mut rng,
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
        let (lat, mut rng) = (LatencyModel::datacenter(), SimRng::seed(1));
        let mut policy = choice.build();
        policy.tick(&mut PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
            rng: &mut rng,
        });
        assert!(
            m.vmstat().get(VmEvent::ThpCollapseAlloc) >= 1,
            "{} did not run khugepaged",
            choice.label()
        );
        m.validate();
    }
}

#[test]
fn cache_to_cxl_places_files_on_the_home_sockets_expander() {
    // 2s2c: node 1 is socket B's DRAM, node 3 its own expander; node 2 is
    // socket A's expander, the first CXL node by id.
    let mut m = configs::two_socket_two_cxl(4_000);
    m.create_process(Pid(2));
    m.set_home_node(Pid(2), NodeId(1));
    let (lat, mut rng) = (LatencyModel::datacenter(), SimRng::seed(1));
    let mut tpp = Tpp::with_config(TppConfig {
        cache_to_cxl: true,
        ..TppConfig::default()
    });
    let out = tpp.handle_fault(
        &mut PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
            rng: &mut rng,
        },
        Pid(2),
        Vpn(0),
        PageType::File,
    );
    assert_eq!(m.frames().frame(out.pfn).node(), NodeId(3));
    m.validate();
}
