//! Multi-node topologies: demotion-target selection by distance (paper
//! §5.1: "If there are multiple CXL-nodes, the demotion target is chosen
//! based on the node distances") and behaviour with several tiers.

use tiered_mem::{Memory, NodeId, NodeKind, PageType, Pid, Vpn};
use tiered_sim::{LatencyModel, SEC};
use tpp::experiment::PolicyChoice;
use tpp::policy::{PlacementPolicy, PolicyCtx, Tpp};
use tpp::{configs, System};

fn three_tier_machine() -> Memory {
    // One local node, two CXL nodes of increasing distance and latency.
    Memory::builder()
        .node(NodeKind::LocalDram, 512)
        .node_with_latency(NodeKind::Cxl, 1024, 185)
        .node_with_latency(NodeKind::Cxl, 2048, 260)
        .swap_pages(8192)
        .build()
}

#[test]
fn demotion_targets_follow_distance() {
    let m = three_tier_machine();
    // Local demotes to the nearest CXL node; CXL nodes are terminal.
    assert_eq!(m.node(NodeId(0)).demotion_target(), Some(NodeId(1)));
    assert_eq!(m.node(NodeId(1)).demotion_target(), None);
    assert_eq!(m.node(NodeId(2)).demotion_target(), None);
}

#[test]
fn tpp_demotes_to_the_nearest_cxl_node() {
    let mut m = three_tier_machine();
    m.create_process(Pid(1));
    // Fill the local node with cold file pages.
    for i in 0..506 {
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
            .unwrap();
    }
    let lat = LatencyModel::datacenter();
    let mut policy = Tpp::new();
    for t in 0..20u64 {
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: t * 50_000_000,
        };
        policy.tick(&mut ctx);
    }
    assert!(m.vmstat().demoted_total() > 0);
    // Everything demoted landed on node 1 (nearest), not node 2.
    assert!(m.frames().used_pages(NodeId(1)) > 0);
    assert_eq!(m.frames().used_pages(NodeId(2)), 0);
    m.validate();
}

#[test]
fn full_system_runs_on_three_tiers() {
    let profile = tiered_workloads::uniform(2_500);
    let mut system = System::new(
        three_tier_machine(),
        Box::new(Tpp::new()),
        Box::new(profile.build()),
        5,
    )
    .unwrap();
    system.run(20 * SEC);
    assert!(system.metrics().ops_completed > 1_000);
    system.memory().validate();
}

#[test]
fn higher_cxl_latency_hurts_linux_more_than_tpp() {
    // Latency-sensitivity: with a slow (FPGA-prototype-like, +250 ns) CXL
    // device, the gap between TPP and default Linux widens — TPP keeps
    // hot pages off the slow tier.
    let profile = tiered_workloads::cache1(4_000);
    let ws = profile.working_set_pages();
    let machine = |latency: u64| {
        let total = ws * 105 / 100;
        let local = total / 5;
        Memory::builder()
            .node(NodeKind::LocalDram, local)
            .node_with_latency(NodeKind::Cxl, total - local, latency)
            .swap_pages(ws * 4)
            .build()
    };
    let base = tpp::experiment::run_cell(
        &profile,
        configs::all_local(ws),
        &PolicyChoice::Linux,
        40 * SEC,
        3,
    )
    .unwrap();
    let run = |lat: u64, choice: &PolicyChoice| {
        tpp::experiment::run_cell(&profile, machine(lat), choice, 40 * SEC, 3)
            .unwrap()
            .relative_throughput(&base)
    };
    let linux_fast = run(185, &PolicyChoice::Linux);
    let linux_slow = run(400, &PolicyChoice::Linux);
    let tpp_slow = run(400, &PolicyChoice::Tpp);
    assert!(
        linux_slow < linux_fast - 0.02,
        "slower CXL must hurt Linux: {linux_slow:.3} vs {linux_fast:.3}"
    );
    assert!(
        tpp_slow > linux_slow + 0.05,
        "TPP must shield the slow tier: {tpp_slow:.3} vs {linux_slow:.3}"
    );
}
