//! Micro-benchmarks for the policy hot paths: fault handling, demotion
//! and kswapd passes, promotion via hint faults, hint-PTE scanning, the
//! khugepaged collapse scan and the kcompactd compaction pass. Runs with
//! `harness = false` on the in-tree [`tpp_bench::microbench`] harness.

use tpp_bench::microbench::{bench, bench_with_setup};

use tiered_mem::{Memory, NodeId, NodeKind, PageType, Pid, ThpMode, Vpn, HUGE_PAGE_FRAMES};
use tiered_sim::LatencyModel;
use tpp::policy::{
    kcompactd_pass, khugepaged_pass, HintSampler, HugeState, LinuxDefault, PlacementPolicy,
    PolicyCtx, SampleScope, Tpp, KCOMPACTD_BUDGET, KHUGEPAGED_BUDGET,
};

fn machine(local: u64, cxl: u64) -> Memory {
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, local)
        .node(NodeKind::Cxl, cxl)
        .swap_pages(4 * (local + cxl))
        .build();
    m.create_process(Pid(1));
    m
}

fn bench_fault_path() {
    let lat = LatencyModel::datacenter();
    {
        let mut m = machine(1 << 16, 1 << 16);
        let mut policy = LinuxDefault::new();
        let mut vpn = 0u64;
        bench("policy/linux_fault_fastpath", || {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            let out = policy.handle_fault(&mut ctx, Pid(1), Vpn(vpn), PageType::Anon);
            std::hint::black_box(out.pfn);
            m.release(Pid(1), Vpn(vpn));
            vpn += 1;
        });
    }
    {
        let mut m = machine(1 << 16, 1 << 16);
        let mut policy = Tpp::new();
        let mut vpn = 0u64;
        bench("policy/tpp_fault_fastpath", || {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            let out = policy.handle_fault(&mut ctx, Pid(1), Vpn(vpn), PageType::Anon);
            std::hint::black_box(out.pfn);
            m.release(Pid(1), Vpn(vpn));
            vpn += 1;
        });
    }
}

fn bench_demotion_tick() {
    // TPP's tick on a local node filled to 73 free pages of 4,096, 8
    // below its demotion trigger of 81, so the demoter wakes and migrates
    // one batch to CXL. The machines are dropped after the bench, off the
    // clock.
    let lat = LatencyModel::datacenter();
    let mut used = Vec::new();
    bench_with_setup(
        "policy/tpp_demotion_tick_under_pressure",
        || {
            let mut m = machine(4096, 16384);
            let trigger = m.node(NodeId(0)).watermarks().demote_trigger;
            for i in 0..4096 - trigger + 8 {
                m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                    .unwrap();
            }
            (m, Tpp::new())
        },
        |(mut m, mut policy)| {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            policy.tick(&mut ctx);
            std::hint::black_box(m.vmstat().demoted_total());
            used.push(m);
        },
    );
    assert!(used.iter().all(|m| m.vmstat().demoted_total() > 0));
}

fn bench_kswapd_pass() {
    // Default Linux's tick on a local node filled to 4 free pages of
    // 4,096, below its low watermark of 8, so kswapd wakes and reclaims
    // one batch. The machines are dropped after the bench, off the clock.
    let lat = LatencyModel::datacenter();
    let mut used = Vec::new();
    bench_with_setup(
        "policy/kswapd_pass",
        || {
            let mut m = machine(4096, 16384);
            for i in 0..4092u64 {
                m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                    .unwrap();
            }
            (m, LinuxDefault::new())
        },
        |(mut m, mut policy)| {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            policy.tick(&mut ctx);
            std::hint::black_box(m.free_pages(NodeId(0)));
            used.push(m);
        },
    );
    assert!(used.iter().all(|m| m.free_pages(NodeId(0)) > 4));
}

fn bench_promotion_hint_fault() {
    let lat = LatencyModel::datacenter();
    bench_with_setup(
        "policy/tpp_promotion_hint_fault",
        || {
            let mut m = machine(8192, 8192);
            // Anon pages on the CXL node (start on the active list,
            // so the filter lets them through).
            let pfns: Vec<_> = (0..1024u64)
                .map(|i| {
                    m.alloc_and_map(NodeId(1), Pid(1), Vpn(i), PageType::Anon)
                        .unwrap()
                })
                .collect();
            (m, Tpp::new(), pfns)
        },
        |(mut m, mut policy, pfns)| {
            for pfn in pfns {
                let mut ctx = PolicyCtx {
                    memory: &mut m,
                    latency: &lat,
                    now_ns: 0,
                };
                std::hint::black_box(policy.on_hint_fault(&mut ctx, pfn));
            }
        },
    );
}

fn bench_sampler() {
    let mut m = machine(1 << 15, 1 << 15);
    for i in 0..16384u64 {
        let node = if i % 2 == 0 { NodeId(0) } else { NodeId(1) };
        m.alloc_and_map(node, Pid(1), Vpn(i), PageType::Anon)
            .unwrap();
    }
    let mut sampler = HintSampler::new(SampleScope::CxlOnly, 4096);
    bench("policy/hint_sampler_scan_16k_pages", || {
        std::hint::black_box(sampler.scan(&mut m));
    });

    // One scan's budget against a 1M-page process: the per-wakeup cost
    // must track the budget, not the address-space size.
    let mut m = machine(1 << 19, 1 << 19);
    for i in 0..1u64 << 20 {
        let node = if i % 2 == 0 { NodeId(0) } else { NodeId(1) };
        m.alloc_and_map(node, Pid(1), Vpn(i), PageType::Anon)
            .unwrap();
    }
    let mut sampler = HintSampler::new(SampleScope::CxlOnly, 4096);
    bench("policy/hint_sampler_scan_1m_pages", || {
        std::hint::black_box(sampler.scan(&mut m));
    });
}

fn bench_khugepaged() {
    // A 2:1 THP-always machine holding ~45k VPNs in 88 scattered windows,
    // each one page short of collapsible: every wakeup scans its full
    // default budget and collapses nothing, so the state stays fixed.
    let lat = LatencyModel::datacenter();
    let mut m = Memory::builder()
        .node(NodeKind::LocalDram, 40_960)
        .node(NodeKind::Cxl, 20_480)
        .thp_mode(ThpMode::Always)
        .build();
    m.create_process(Pid(1));
    for w in 0..88u64 {
        let node = NodeId(if w % 3 == 2 { 1 } else { 0 });
        let base = w * 3 * HUGE_PAGE_FRAMES;
        for i in 0..HUGE_PAGE_FRAMES - 1 {
            let pfn = m
                .alloc_and_map(node, Pid(1), Vpn(base + i), PageType::Anon)
                .unwrap();
            m.frames_mut().frame_mut(pfn).touch_hotness();
        }
    }
    let mut state = HugeState::default();
    bench("policy/khugepaged_pass_fragmented_thp", || {
        std::hint::black_box(khugepaged_pass(&mut state, &mut m, &lat, KHUGEPAGED_BUDGET));
    });
}

fn bench_kcompactd() {
    // A THP-always local node of 16 windows, filled with base pages and
    // then thinned to every 16th page: no free order-9 block is left, so
    // kcompactd wakes and relocates pages from the low windows into free
    // frames at the top. Every pass starts from a fresh copy of that
    // machine and cursor; the machines are dropped after the bench, off
    // the clock.
    let lat = LatencyModel::datacenter();
    let mut used = Vec::new();
    bench_with_setup(
        "policy/kcompactd_pass_fragmented_thp",
        || {
            let mut m = Memory::builder()
                .node(NodeKind::LocalDram, 16 * HUGE_PAGE_FRAMES)
                .thp_mode(ThpMode::Always)
                .build();
            m.create_process(Pid(1));
            for i in 0..16 * HUGE_PAGE_FRAMES {
                m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                    .unwrap();
            }
            for i in (0..16 * HUGE_PAGE_FRAMES).filter(|i| i % 16 != 0) {
                m.release(Pid(1), Vpn(i));
            }
            (m, HugeState::default())
        },
        |(mut m, mut state)| {
            let migrated = kcompactd_pass(&mut state, &mut m, &lat, NodeId(0), KCOMPACTD_BUDGET);
            used.push((std::hint::black_box(migrated), m));
        },
    );
    assert!(used.iter().all(|&(migrated, _)| migrated > 0));
}

fn main() {
    bench_fault_path();
    bench_demotion_tick();
    bench_kswapd_pass();
    bench_promotion_hint_fault();
    bench_sampler();
    bench_khugepaged();
    bench_kcompactd();
}
