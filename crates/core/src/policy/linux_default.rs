//! The default Linux kernel policy (paper §4.1): coupled allocation and
//! reclamation around the classic watermarks, paging out to the swap
//! device, allocation spilling to the next NUMA node under pressure — and
//! no promotion mechanism at all, so pages allocated to the CXL node stay
//! there forever.

use tiered_mem::{PageType, Pid, Vpn};

use super::engine::{all_nodes, fault, Daemons, SWAP_DEVICE};
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
        let home = ctx.memory.home_node(pid);
        fault(ctx, pid, vpn, page_type, home, "linux", &SWAP_DEVICE)
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        // kswapd: one pass per node whose reclaimer is (or becomes) awake.
        let nodes = all_nodes(ctx.memory);
        self.daemons.run(ctx, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{Memory, NodeId, NodeKind, PageFlags, PageLocation, ThpMode, VmEvent};
    use tiered_sim::LatencyModel;

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
