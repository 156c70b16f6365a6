//! The default Linux kernel policy (paper §4.1): coupled allocation and
//! reclamation around the classic watermarks, paging out to the swap
//! device, allocation spilling to the next NUMA node under pressure — and
//! no promotion mechanism at all, so pages allocated to the CXL node stay
//! there forever.

use tiered_mem::{
    Memory, NodeId, PageFlags, PageKey, PageLocation, PageType, Pfn, Pid, ThpMode, TraceEvent, Vpn,
    HUGE_PAGE_FRAMES,
};
use tiered_sim::LatencyModel;

use super::engine::{all_nodes, direct_reclaim, Daemons};
use super::reclaim::{select_victims_into, DaemonBudget, ReclaimScratch};
use super::{FaultOutcome, PlacementPolicy, PolicyCtx};

/// Default Linux page placement.
#[derive(Clone, Debug)]
pub struct LinuxDefault {
    daemons: Daemons,
}

impl LinuxDefault {
    /// Creates the policy.
    pub fn new() -> LinuxDefault {
        LinuxDefault {
            daemons: Daemons::new(None),
        }
    }
}

impl Default for LinuxDefault {
    fn default() -> LinuxDefault {
        LinuxDefault::new()
    }
}

impl PlacementPolicy for LinuxDefault {
    fn name(&self) -> &str {
        "linux"
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let prefer = ctx.memory.home_node(pid);
        fault_with_fallback(ctx, pid, vpn, page_type, prefer, "linux")
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        // kswapd: one pass per node whose reclaimer is (or becomes) awake.
        let nodes = all_nodes(ctx.memory);
        self.daemons.run(ctx, nodes);
    }
}

// ---------------------------------------------------------------------
// Shared mechanics, reused by the other policies.
// ---------------------------------------------------------------------

/// Cost charged to a faulting task for materialising a page of
/// `page_type` (`was_swapped` selects the swap-in path).
///
/// File pages are read from the filesystem on (re-)fault — a device read,
/// not a zero-fill — which is why dropping page cache that will be
/// re-accessed is expensive, and why TPP's keep-it-in-memory demotion
/// wins (§5.1).
pub(crate) fn materialise_cost_ns(
    latency: &LatencyModel,
    page_type: PageType,
    was_swapped: bool,
) -> u64 {
    if was_swapped {
        latency.swap_in_total_ns()
    } else {
        match page_type {
            PageType::File => latency.major_fault_ns + latency.swap_in_page_ns,
            PageType::Anon | PageType::Tmpfs => latency.minor_fault_ns,
        }
    }
}

/// The default-kernel fault path: try each node in fallback order above
/// its `min` watermark; fall back to direct reclaim on the preferred node
/// when everything is below `min`. `policy` attributes the spill/stall
/// decision events emitted along the way.
pub(crate) fn fault_with_fallback(
    ctx: &mut PolicyCtx<'_>,
    pid: Pid,
    vpn: Vpn,
    page_type: PageType,
    prefer: NodeId,
    policy: &'static str,
) -> FaultOutcome {
    let was_swapped = matches!(
        ctx.memory.space(pid).translate(vpn),
        Some(PageLocation::Swapped(_))
    );
    let base_cost = materialise_cost_ns(ctx.latency, page_type, was_swapped);
    let order = ctx.memory.fallback_order(prefer);
    // THP at fault time (`ThpMode::Always`): an anon first-touch fault
    // whose aligned 512-page window is entirely unmapped gets a compound
    // page on the first node in fallback order that has watermark room
    // for the whole block. Fragmentation (no aligned free block) or
    // pressure falls through to the base-page path below.
    if ctx.memory.thp_mode() == ThpMode::Always && page_type.is_anon() && !was_swapped {
        let base = Vpn(vpn.0 & !(HUGE_PAGE_FRAMES - 1));
        if window_unmapped(ctx.memory, pid, base) {
            for node in &order {
                let free = ctx.memory.free_pages(*node);
                let wm = ctx.memory.node(*node).watermarks().base;
                if !wm.allows_allocation(free.saturating_sub(HUGE_PAGE_FRAMES - 1)) {
                    continue;
                }
                if let Ok(head) = ctx.memory.alloc_huge_and_map(*node, pid, base, page_type) {
                    ctx.memory.record(TraceEvent::Fault {
                        page: PageKey::new(pid, vpn),
                        major: false,
                    });
                    if *node != prefer {
                        ctx.memory.record(TraceEvent::Decision {
                            policy,
                            reason: "alloc_spill_below_watermark",
                            page: Some(PageKey::new(pid, vpn)),
                        });
                    }
                    return FaultOutcome {
                        pfn: Pfn(head.0 + (vpn.0 - base.0) as u32),
                        cost_ns: base_cost,
                    };
                }
            }
        }
    }
    for node in &order {
        let wm = ctx.memory.node(*node).watermarks().base;
        if !wm.allows_allocation(ctx.memory.free_pages(*node)) {
            continue;
        }
        if let Some(pfn) = try_place(ctx.memory, *node, pid, vpn, page_type, was_swapped) {
            if *node != prefer {
                // Allocation spilled past the preferred node's watermark —
                // the §4.1 failure mode TPP's headroom exists to avoid.
                ctx.memory.record(TraceEvent::Decision {
                    policy,
                    reason: "alloc_spill_below_watermark",
                    page: Some(PageKey::new(pid, vpn)),
                });
            }
            return FaultOutcome {
                pfn,
                cost_ns: base_cost,
            };
        }
    }
    // Every node is under its min watermark: direct reclaim on the
    // preferred node, charged to the task.
    ctx.memory.record(TraceEvent::AllocStall { node: prefer });
    ctx.memory.record(TraceEvent::Decision {
        policy,
        reason: "alloc_stall_direct_reclaim",
        page: Some(PageKey::new(pid, vpn)),
    });
    let reclaim_cost = direct_reclaim(ctx.memory, prefer, 32, 32 * 8, |memory, pfn| {
        evict_page(memory, ctx.latency, pfn)
    });
    for node in &order {
        if let Some(pfn) = try_place(ctx.memory, *node, pid, vpn, page_type, was_swapped) {
            return FaultOutcome {
                pfn,
                cost_ns: base_cost + reclaim_cost,
            };
        }
    }
    panic!("simulated OOM: no node can host {pid}:{vpn} even after direct reclaim");
}

/// Whether the whole aligned 512-page window at `base` is unmapped (a
/// swap entry counts as mapped — swapped pages must come back as base
/// pages so their contents survive).
fn window_unmapped(memory: &Memory, pid: Pid, base: Vpn) -> bool {
    let space = memory.space(pid);
    (0..HUGE_PAGE_FRAMES).all(|i| space.translate(Vpn(base.0 + i)).is_none())
}

/// Attempts the actual placement on `node` (swap-in or fresh mapping).
pub(crate) fn try_place(
    memory: &mut Memory,
    node: NodeId,
    pid: Pid,
    vpn: Vpn,
    page_type: PageType,
    was_swapped: bool,
) -> Option<Pfn> {
    memory.record(TraceEvent::Fault {
        page: PageKey::new(pid, vpn),
        major: was_swapped,
    });
    let res = if was_swapped {
        memory.swap_in(pid, vpn, node, page_type)
    } else {
        memory.alloc_and_map(node, pid, vpn, page_type)
    };
    res.ok()
}

/// Evicts one page the default-kernel way. Returns the daemon time spent,
/// or `None` if the page could not be evicted (swap full).
///
/// * anon and tmpfs pages are written to swap,
/// * dirty file pages pay a writeback before being dropped,
/// * clean file pages are dropped for free.
pub(crate) fn evict_page(memory: &mut Memory, latency: &LatencyModel, pfn: Pfn) -> Option<u64> {
    let frame = memory.frames().frame(pfn);
    let page_type = frame.page_type();
    let dirty = frame.flags().contains(PageFlags::DIRTY);
    let node = frame.node();
    let page = frame.owner().expect("eviction victim is allocated");
    match page_type {
        PageType::Anon | PageType::Tmpfs => match memory.swap_out(pfn) {
            Ok(_) => {
                memory.record(TraceEvent::ReclaimSteal { page, node });
                Some(latency.swap_out_page_ns)
            }
            Err(_) => None,
        },
        PageType::File => {
            memory.drop_file_page(pfn);
            memory.record(TraceEvent::ReclaimSteal { page, node });
            Some(if dirty {
                latency.swap_out_page_ns
            } else {
                latency.scan_page_ns
            })
        }
    }
}

/// One kswapd wakeup on `node`, with wake/sleep hysteresis carried in
/// `active`: kswapd wakes when free pages drop below `low` and keeps
/// processing one scan batch per wakeup until free pages reach a boosted
/// target slightly *above* `high` — which is what lets NUMA balancing's
/// `free > high` promotion check occasionally pass on a busy node.
///
/// Each wakeup processes a *single* batch (`SWAP_CLUSTER_MAX`-style),
/// bounded by both the scan and time budgets — the kernel's
/// priority-based throttling, and what allocation surges outrun (§4.1:
/// "with high allocation rate, reclamation may fail to cope up").
pub(crate) fn kswapd_pass(
    memory: &mut Memory,
    latency: &LatencyModel,
    node: NodeId,
    budget: DaemonBudget,
    active: &mut bool,
) -> u64 {
    let wm = memory.node(node).watermarks().base;
    let free = memory.free_pages(node);
    let boost_target = wm.high + (wm.high - wm.low).max(1);
    if !*active {
        if !wm.needs_reclaim(free) {
            return 0;
        }
        *active = true;
        memory.record(TraceEvent::WatermarkCross {
            node,
            level: "low",
            free,
            below: true,
        });
        memory.record(TraceEvent::DaemonWake {
            daemon: "kswapd",
            node: Some(node),
        });
    } else if free >= boost_target {
        *active = false;
        memory.record(TraceEvent::WatermarkCross {
            node,
            level: "high_boost",
            free,
            below: false,
        });
        return 0;
    }
    let mut time_left = budget.time_ns;
    let mut reclaimed = 0u64;
    let want = (boost_target.saturating_sub(free)).min(32) as usize;
    let mut scratch = ReclaimScratch::from_pool(memory);
    select_victims_into(memory, node, want, budget.scan_pages as usize, &mut scratch);
    for i in 0..scratch.victims.len() {
        let pfn = scratch.victims[i];
        match evict_page(memory, latency, pfn) {
            Some(cost) if cost <= time_left => {
                time_left -= cost;
                reclaimed += 1;
            }
            Some(_) | None => break,
        }
    }
    scratch.into_pool(memory);
    reclaimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::NodeKind;
    use tiered_mem::VmEvent;

    fn ctx_parts() -> (Memory, LatencyModel) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 256)
            .swap_pages(1024)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter())
    }

    fn fault(
        policy: &mut LinuxDefault,
        m: &mut Memory,
        lat: &LatencyModel,
        vpn: u64,
        t: PageType,
    ) -> FaultOutcome {
        let mut ctx = PolicyCtx {
            memory: m,
            latency: lat,
            now_ns: 0,
        };
        policy.handle_fault(&mut ctx, Pid(1), Vpn(vpn), t)
    }

    #[test]
    fn faults_fill_local_node_first() {
        let (mut m, lat) = ctx_parts();
        let mut p = LinuxDefault::new();
        let out = fault(&mut p, &mut m, &lat, 0, PageType::Anon);
        assert_eq!(m.frames().frame(out.pfn).node(), NodeId(0));
        assert_eq!(out.cost_ns, lat.minor_fault_ns);
    }

    #[test]
    fn file_faults_pay_a_disk_read() {
        let (mut m, lat) = ctx_parts();
        let mut p = LinuxDefault::new();
        let out = fault(&mut p, &mut m, &lat, 0, PageType::File);
        assert_eq!(out.cost_ns, lat.major_fault_ns + lat.swap_in_page_ns);
    }

    #[test]
    fn allocation_spills_to_cxl_below_min_watermark() {
        let (mut m, lat) = ctx_parts();
        let mut p = LinuxDefault::new();
        let min = m.node(NodeId(0)).watermarks().base.min;
        // Fill the local node down to its min watermark.
        let fill = 64 - min;
        for i in 0..fill {
            fault(&mut p, &mut m, &lat, i, PageType::Anon);
        }
        assert_eq!(m.free_pages(NodeId(0)), min);
        let out = fault(&mut p, &mut m, &lat, 10_000, PageType::Anon);
        assert_eq!(m.frames().frame(out.pfn).node(), NodeId(1));
        assert!(m.vmstat().get(VmEvent::PgAllocRemote) >= 1);
        m.validate();
    }

    #[test]
    fn kswapd_reclaims_to_high_watermark() {
        let (mut m, lat) = ctx_parts();
        let mut p = LinuxDefault::new();
        // Fill local with cold anon pages.
        let min = m.node(NodeId(0)).watermarks().base.min;
        for i in 0..(64 - min) {
            fault(&mut p, &mut m, &lat, i, PageType::Anon);
        }
        let wm = m.node(NodeId(0)).watermarks().base;
        assert!(wm.needs_reclaim(m.free_pages(NodeId(0))));
        // Run several daemon ticks.
        for _ in 0..20 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.tick(&mut ctx);
        }
        assert!(m.free_pages(NodeId(0)) >= wm.high);
        assert!(m.swap().used_slots() > 0, "anon reclaim must use swap");
        assert!(m.vmstat().get(VmEvent::PswpOut) > 0);
        m.validate();
    }

    #[test]
    fn kswapd_budget_limits_swap_rate_per_tick() {
        let (mut m, lat) = ctx_parts();
        let mut p = LinuxDefault::new();
        let min = m.node(NodeId(0)).watermarks().base.min;
        for i in 0..(64 - min) {
            fault(&mut p, &mut m, &lat, i, PageType::Anon);
        }
        let before = m.vmstat().get(VmEvent::PswpOut);
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.tick(&mut ctx);
        let per_tick = m.vmstat().get(VmEvent::PswpOut) - before;
        // 5 ms budget at 130 µs/page ≈ 38 pages max.
        assert!(per_tick <= 40, "swapped {per_tick} pages in one tick");
    }

    #[test]
    fn clean_file_pages_drop_dirty_ones_pay_writeback() {
        let (mut m, lat) = ctx_parts();
        m.create_process(Pid(2));
        let clean = m
            .alloc_and_map(NodeId(0), Pid(2), Vpn(1), PageType::File)
            .unwrap();
        let dirty = m
            .alloc_and_map(NodeId(0), Pid(2), Vpn(2), PageType::File)
            .unwrap();
        m.frames_mut()
            .frame_mut(dirty)
            .flags_mut()
            .insert(PageFlags::DIRTY);
        let c1 = evict_page(&mut m, &lat, clean).unwrap();
        let c2 = evict_page(&mut m, &lat, dirty).unwrap();
        assert!(c2 > c1 * 100);
        assert_eq!(m.vmstat().get(VmEvent::PgDropFile), 2);
        assert_eq!(m.swap().used_slots(), 0);
    }

    #[test]
    fn tmpfs_pages_must_swap_not_drop() {
        let (mut m, lat) = ctx_parts();
        m.create_process(Pid(2));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(2), Vpn(1), PageType::Tmpfs)
            .unwrap();
        evict_page(&mut m, &lat, pfn).unwrap();
        assert_eq!(m.swap().used_slots(), 1);
        assert_eq!(m.vmstat().get(VmEvent::PswpOut), 1);
    }

    #[test]
    fn swap_in_after_reclaim_round_trips() {
        let (mut m, lat) = ctx_parts();
        let mut p = LinuxDefault::new();
        fault(&mut p, &mut m, &lat, 7, PageType::Anon);
        let pfn = match m.space(Pid(1)).translate(Vpn(7)) {
            Some(PageLocation::Mapped(pfn)) => pfn,
            other => panic!("unexpected {other:?}"),
        };
        m.swap_out(pfn).unwrap();
        let out = fault(&mut p, &mut m, &lat, 7, PageType::Anon);
        assert_eq!(out.cost_ns, lat.swap_in_total_ns());
        assert!(m.space(Pid(1)).translate(Vpn(7)).unwrap().pfn().is_some());
        let _ = out;
        m.validate();
    }

    #[test]
    fn no_promotion_mechanism_exists() {
        // Linux default never reacts to hint faults (it installs none).
        let (mut m, lat) = ctx_parts();
        let mut p = LinuxDefault::new();
        let out = fault(&mut p, &mut m, &lat, 1, PageType::Anon);
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        assert_eq!(p.on_hint_fault(&mut ctx, out.pfn), 0);
    }

    fn thp_parts(mode: ThpMode) -> (Memory, LatencyModel) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .swap_pages(1024)
            .thp_mode(mode)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter())
    }

    #[test]
    fn always_mode_anon_faults_allocate_compound_pages() {
        let (mut m, lat) = thp_parts(ThpMode::Always);
        let mut p = LinuxDefault::new();
        let out = fault(&mut p, &mut m, &lat, 700, PageType::Anon);
        assert_eq!(m.vmstat().get(VmEvent::ThpFaultAlloc), 1);
        let head = m.compound_head(out.pfn);
        assert!(m.frames().frame(head).flags().contains(PageFlags::HEAD));
        // The faulting VPN resolves inside the window, and its neighbours
        // were mapped along with it.
        assert_eq!(out.cost_ns, lat.minor_fault_ns);
        assert!(matches!(
            m.space(Pid(1)).translate(Vpn(513)),
            Some(PageLocation::Mapped(_))
        ));
        m.validate();
    }

    #[test]
    fn always_mode_file_faults_stay_base_pages() {
        let (mut m, lat) = thp_parts(ThpMode::Always);
        let mut p = LinuxDefault::new();
        let out = fault(&mut p, &mut m, &lat, 0, PageType::File);
        assert!(!m
            .frames()
            .frame(out.pfn)
            .flags()
            .intersects(PageFlags::HEAD | PageFlags::TAIL));
        assert_eq!(m.vmstat().get(VmEvent::ThpFaultAlloc), 0);
    }

    #[test]
    fn madvise_mode_faults_stay_base_pages() {
        let (mut m, lat) = thp_parts(ThpMode::Madvise);
        let mut p = LinuxDefault::new();
        let out = fault(&mut p, &mut m, &lat, 0, PageType::Anon);
        assert!(!m
            .frames()
            .frame(out.pfn)
            .flags()
            .intersects(PageFlags::HEAD | PageFlags::TAIL));
        assert_eq!(m.vmstat().get(VmEvent::ThpFaultAlloc), 0);
    }

    #[test]
    fn partially_mapped_windows_fall_back_to_base_pages() {
        let (mut m, lat) = thp_parts(ThpMode::Always);
        let mut p = LinuxDefault::new();
        // Pre-map one page of the target window as a base page.
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(520), PageType::Anon)
            .unwrap();
        let out = fault(&mut p, &mut m, &lat, 700, PageType::Anon);
        assert!(!m
            .frames()
            .frame(out.pfn)
            .flags()
            .intersects(PageFlags::HEAD | PageFlags::TAIL));
        assert_eq!(m.vmstat().get(VmEvent::ThpFaultAlloc), 0);
        m.validate();
    }
}
