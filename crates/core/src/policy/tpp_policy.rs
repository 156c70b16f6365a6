//! **TPP: Transparent Page Placement** — the paper's contribution (§5).
//!
//! Four mechanisms compose the policy:
//!
//! 1. **Migration for lightweight reclamation** (§5.1): when the local
//!    node is pressured, cold pages from the inactive LRU tails (anon
//!    *and* file) are *migrated* to the CXL node instead of paged out —
//!    orders of magnitude cheaper than swap, with the legacy reclaim path
//!    as a per-page fallback. CXL nodes keep the default swap-based
//!    reclaim.
//! 2. **Decoupled allocation and reclamation watermarks** (§5.2):
//!    demotion triggers at `demote_scale_factor` (2%) of capacity and
//!    runs until the higher `demotion_watermark`, while allocations only
//!    check the classic watermark — so the local node always keeps a
//!    headroom of free pages for new (short-lived, hot) allocations and
//!    for promotions.
//! 3. **Reactive, hysteretic page promotion** (§5.3): hint-PTE sampling
//!    restricted to CXL nodes; a faulting page found on the *inactive*
//!    LRU is only marked accessed (moving it to the active list), and is
//!    promoted on its *next* hint fault if still hot — cutting ping-pong
//!    traffic. Promotion ignores the allocation watermark.
//! 4. **Page-type-aware allocation** (§5.4, optional): file/tmpfs caches
//!    prefer the CXL node their home socket demotes to, while anon pages
//!    keep local preference. Only the preferred node changes: the fault
//!    takes the shared path, spilling along the CXL node's zonelist when
//!    it is below `min` and stalling into direct reclaim on the home node
//!    when every node is.
//!
//! [`TppConfig`] holds the three switches the paper's evaluation varies:
//! `decouple` (mechanism 2, the Figure 17 ablation), `active_lru_filter`
//! (mechanism 3, the Figure 18 ablation) and `cache_to_cxl` (mechanism
//! 4, Table 1). Everything else runs at fixed values: the demotion daemon
//! with [`DaemonBudget::demoter`], and kswapd on CXL nodes, the huge-page
//! daemons and the hint sampler with the schedule every policy shares.

use tiered_mem::telemetry::{PromoteFailReason, PromoteSkipReason};
use tiered_mem::{NodeId, PageFlags, PageType, Pfn, Pid, TraceEvent, Vpn, HUGE_PAGE_FRAMES};

use super::engine::{
    demote, demotion_target, fault, hinted_cxl_page, promote, reclaim_pass, Daemons, SWAP_DEVICE,
};
use super::reclaim::DaemonBudget;
use super::sampler::SampleScope;
use super::{FaultOutcome, PlacementPolicy, PolicyCtx};

/// The three switches of [`Tpp`] the paper's evaluation varies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TppConfig {
    /// Decoupled allocation/demotion watermarks (§5.2). Disable to
    /// reproduce the Figure 17 ablation.
    pub decouple: bool,
    /// Active-LRU promotion filter (§5.3). Disable to reproduce the
    /// Figure 18 ablation (instant promotion on every hint fault).
    pub active_lru_filter: bool,
    /// Page-type-aware allocation (§5.4): prefer caches on CXL.
    pub cache_to_cxl: bool,
}

impl Default for TppConfig {
    fn default() -> TppConfig {
        TppConfig {
            decouple: true,
            active_lru_filter: true,
            cache_to_cxl: false,
        }
    }
}

/// Transparent Page Placement.
#[derive(Clone, Debug)]
pub struct Tpp {
    config: TppConfig,
    daemons: Daemons,
}

impl Tpp {
    /// Creates TPP with the paper's default configuration.
    pub fn new() -> Tpp {
        Tpp::with_config(TppConfig::default())
    }

    /// Creates TPP with explicit switches (ablations, page-type-aware
    /// allocation). Hint sampling is CXL-only by construction
    /// (`NUMA_BALANCING_TIERED`).
    pub fn with_config(config: TppConfig) -> Tpp {
        Tpp {
            config,
            daemons: Daemons::new(Some(SampleScope::CxlOnly)),
        }
    }

    /// The demotion daemon: one pass over `node`.
    fn demote_pass(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) {
        let wm = *ctx.memory.node(node).watermarks();
        let free = ctx.memory.free_pages(node);
        let (trigger_hit, target_free) = if self.config.decouple {
            (wm.needs_demotion(free), wm.demote_target)
        } else {
            // Ablation: coupled to the classic watermarks like default
            // Linux reclaim.
            (wm.base.needs_reclaim(free), wm.base.high)
        };
        if !trigger_hit {
            return;
        }
        // Which watermark fired distinguishes §5.2 decoupled demotion
        // from the coupled (Figure 17 ablation) trigger.
        ctx.memory.record(TraceEvent::WatermarkCross {
            node,
            level: if self.config.decouple {
                "demote_trigger"
            } else {
                "low"
            },
            free,
            below: true,
        });
        ctx.memory.record(TraceEvent::DaemonWake {
            daemon: "demoter",
            node: Some(node),
        });
        let Some(target) = demotion_target(ctx.memory, node) else {
            // Terminal tier: fall back to default reclaim.
            ctx.memory.record(TraceEvent::Decision {
                policy: "tpp",
                reason: "terminal_tier_default_reclaim",
                page: None,
            });
            self.daemons.kswapd(ctx, node);
            return;
        };
        // Unlike swapping, demoted pages stay in memory, so TPP scans
        // inactive *anon* pages as well as file pages (§5.1).
        reclaim_pass(
            ctx,
            node,
            target_free,
            DaemonBudget::demoter(),
            |ctx, pfn| demote(ctx, pfn, target),
        );
    }
}

impl Default for Tpp {
    fn default() -> Tpp {
        Tpp::new()
    }
}

impl PlacementPolicy for Tpp {
    fn name(&self) -> &str {
        "tpp"
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let home = ctx.memory.home_node(pid);
        // Page-type-aware allocation (§5.4): caches prefer the CXL node
        // the home socket demotes to, and spill along its zonelist.
        let prefer = if self.config.cache_to_cxl && page_type.is_file_backed() {
            demotion_target(ctx.memory, home).unwrap_or(home)
        } else {
            home
        };
        fault(ctx, pid, vpn, page_type, prefer, "tpp", &SWAP_DEVICE)
    }

    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> u64 {
        let Some(page) = hinted_cxl_page(ctx.memory, pfn) else {
            // CXL-only sampling should make this impossible; it is
            // counted as overhead if it ever happens.
            return 0;
        };
        // Apt identification of trapped hot pages (§5.3): a page on the
        // inactive LRU may be an infrequently accessed page — mark it
        // accessed (activating it) and promote only if it is found hot
        // again on its next hint fault.
        if self.config.active_lru_filter {
            match ctx.memory.frames().frame(pfn).lru_kind() {
                Some(kind) if !kind.is_active() => {
                    ctx.memory.activate_page(pfn);
                    ctx.memory.record(TraceEvent::PromoteSkip {
                        page,
                        reason: PromoteSkipReason::Inactive,
                    });
                    return 0;
                }
                Some(_) => {}
                None => return 0, // isolated elsewhere
            }
        }
        let flags = ctx.memory.frames().frame(pfn).flags();
        let demoted = flags.contains(PageFlags::DEMOTED);
        ctx.memory
            .record(TraceEvent::PromoteCandidate { page, demoted });
        // Promote to the accessing socket's DRAM (§5.3): the faulting
        // task's home node, not a hard-coded node 0.
        let target = ctx.memory.home_node(page.pid);
        // A hinted compound head promotes the whole 512-page unit in one
        // decision (hint sampling is head-granular), so the watermark is
        // checked for the whole block.
        let need = if flags.contains(PageFlags::HEAD) {
            HUGE_PAGE_FRAMES
        } else {
            1
        };
        // Promotion ignores the allocation watermark (§5.3) — only the
        // hard min floor gates it. Decoupled demotion keeps free pages
        // above that essentially always.
        let wm = ctx.memory.node(target).watermarks();
        if !wm.allows_promotion(ctx.memory.free_pages(target).saturating_sub(need - 1)) {
            ctx.memory.record(TraceEvent::PromoteFail {
                page,
                reason: PromoteFailReason::LowMem,
            });
            return 0;
        }
        promote(ctx, pfn, target).unwrap_or(0)
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        // Demotion daemon on local nodes.
        for node in ctx.memory.local_nodes() {
            self.demote_pass(ctx, node);
        }
        // Default reclaim on CXL nodes (allocation there is not
        // performance-critical, §5.1).
        let cxl = ctx.memory.cxl_nodes();
        self.daemons.run(ctx, cxl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::VmEvent;
    use tiered_mem::{LruKind, Memory, NodeKind};
    use tiered_sim::{LatencyModel, MS};

    fn setup(local: u64, cxl: u64) -> (Memory, LatencyModel) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, local)
            .node(NodeKind::Cxl, cxl)
            .swap_pages(4096)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter())
    }

    fn tick(p: &mut Tpp, m: &mut Memory, lat: &LatencyModel, now: u64) {
        let mut ctx = PolicyCtx {
            memory: m,
            latency: lat,
            now_ns: now,
        };
        p.tick(&mut ctx);
    }

    #[test]
    fn demotion_migrates_cold_pages_and_tags_them() {
        let (mut m, lat) = setup(256, 1024);
        let mut p = Tpp::new();
        // Fill local past the demotion trigger.
        let trigger = m.node(NodeId(0)).watermarks().demote_trigger;
        for i in 0..(256 - trigger + 8).min(255) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                .unwrap();
        }
        assert!(m
            .node(NodeId(0))
            .watermarks()
            .needs_demotion(m.free_pages(NodeId(0))));
        for t in 0..10 {
            tick(&mut p, &mut m, &lat, t * 50 * MS);
        }
        let demoted = m.vmstat().demoted_total();
        assert!(demoted > 0, "nothing was demoted");
        assert_eq!(m.swap().used_slots(), 0, "TPP must migrate, not swap");
        // Demoted pages carry PG_demoted.
        let tagged = m
            .frames()
            .allocated_on(NodeId(1))
            .filter(|&f| m.frames().frame(f).flags().contains(PageFlags::DEMOTED))
            .count() as u64;
        assert_eq!(tagged, demoted);
        // Decoupling: free pages now exceed the demotion target.
        assert!(m.free_pages(NodeId(0)) >= m.node(NodeId(0)).watermarks().demote_target);
        m.validate();
    }

    #[test]
    fn demotion_scans_anon_pages_too() {
        let (mut m, lat) = setup(256, 1024);
        let mut p = Tpp::new();
        for i in 0..250 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        for t in 0..20 {
            tick(&mut p, &mut m, &lat, t * 50 * MS);
        }
        assert!(m.vmstat().get(VmEvent::PgDemoteAnon) > 0);
        assert_eq!(m.swap().used_slots(), 0);
        m.validate();
    }

    #[test]
    fn inactive_page_is_activated_not_promoted_then_promoted_when_hot() {
        let (mut m, lat) = setup(64, 64);
        let mut p = Tpp::new();
        // A file page on the CXL node starts on the inactive list.
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::File)
            .unwrap();
        assert_eq!(
            m.frames().frame(pfn).lru_kind(),
            Some(LruKind::FileInactive)
        );
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        // First hint fault: activated, not promoted.
        assert_eq!(p.on_hint_fault(&mut ctx, pfn), 0);
        assert_eq!(m.frames().frame(pfn).lru_kind(), Some(LruKind::FileActive));
        assert_eq!(m.frames().frame(pfn).node(), NodeId(1));
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteSkipInactive), 1);
        // Second hint fault: found on the active LRU → promoted.
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let cost = p.on_hint_fault(&mut ctx, pfn);
        assert_eq!(cost, lat.migrate_page_ns);
        let new = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert_eq!(m.frames().frame(new).node(), NodeId(0));
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteSuccessFile), 1);
        m.validate();
    }

    #[test]
    fn disabling_the_filter_promotes_instantly() {
        let (mut m, lat) = setup(64, 64);
        let mut p = Tpp::with_config(TppConfig {
            active_lru_filter: false,
            ..TppConfig::default()
        });
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::File)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        assert!(p.on_hint_fault(&mut ctx, pfn) > 0);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteSuccessFile), 1);
    }

    #[test]
    fn promotion_ignores_allocation_watermark() {
        let (mut m, lat) = setup(64, 64);
        let mut p = Tpp::new();
        // Fill local down to just above min: ordinary NUMA balancing
        // would refuse (it checks high), TPP promotes.
        let min = m.node(NodeId(0)).watermarks().base.min;
        for i in 0..(64 - min - 1) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(1000 + i), PageType::Anon)
                .unwrap();
        }
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        // Anon pages start active → no filter skip.
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let cost = p.on_hint_fault(&mut ctx, pfn);
        assert!(cost > 0, "promotion should bypass the allocation watermark");
        assert_eq!(m.vmstat().promoted_total(), 1);
        m.validate();
    }

    #[test]
    fn promotion_clears_demoted_flag_and_counts_pingpong() {
        let (mut m, lat) = setup(64, 64);
        let mut p = Tpp::new();
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let demoted = m.migrate_page(pfn, NodeId(1)).unwrap();
        m.frames_mut()
            .frame_mut(demoted)
            .flags_mut()
            .insert(PageFlags::DEMOTED);
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        assert!(p.on_hint_fault(&mut ctx, demoted) > 0);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteCandidateDemoted), 1);
        let new = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert!(!m.frames().frame(new).flags().contains(PageFlags::DEMOTED));
    }

    #[test]
    fn cache_to_cxl_places_files_remotely_and_anons_locally() {
        let (mut m, lat) = setup(64, 64);
        let mut p = Tpp::with_config(TppConfig {
            cache_to_cxl: true,
            ..TppConfig::default()
        });
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let f = p.handle_fault(&mut ctx, Pid(1), Vpn(0), PageType::Tmpfs);
        let a = p.handle_fault(&mut ctx, Pid(1), Vpn(1), PageType::Anon);
        assert_eq!(m.frames().frame(f.pfn).node(), NodeId(1));
        assert_eq!(m.frames().frame(a.pfn).node(), NodeId(0));
        m.validate();
    }

    #[test]
    fn demotion_skips_full_target_for_one_with_headroom() {
        // Local DRAM, a nearly-full direct CXL expander, and a roomy
        // switch-attached pool: demotions should skip the pressured CXL
        // node and land on the pool.
        // No swap: the full expander stays full (its kswapd cannot evict),
        // so the skip decision is exercised on every pass.
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 256)
            .node(NodeKind::Cxl, 64)
            .node(NodeKind::CxlSwitched, 1024)
            .swap_pages(0)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = Tpp::new();
        // Exhaust the direct expander's allocation headroom.
        let min = m.node(NodeId(1)).watermarks().base.min;
        for i in 0..(64 - min) {
            m.alloc_and_map(NodeId(1), Pid(1), Vpn(10_000 + i), PageType::Anon)
                .unwrap();
        }
        for i in 0..250 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        for t in 0..10 {
            tick(&mut p, &mut m, &lat, t * 50 * MS);
        }
        assert!(m.vmstat().demoted_total() > 0);
        assert!(
            m.migrations_between(NodeId(0), NodeId(2)) > 0,
            "demotion should fall through to the pool with headroom"
        );
        assert_eq!(m.migrations_between(NodeId(0), NodeId(1)), 0);
        m.validate();
    }

    #[test]
    fn coupled_ablation_behaves_like_late_reclaim() {
        let (mut m, lat) = setup(256, 1024);
        let mut p = Tpp::with_config(TppConfig {
            decouple: false,
            ..TppConfig::default()
        });
        // Fill to just below the demote trigger but above the classic low
        // watermark: decoupled TPP would demote; coupled must not.
        let trigger = m.node(NodeId(0)).watermarks().demote_trigger;
        for i in 0..(256 - trigger - 1) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                .unwrap();
        }
        tick(&mut p, &mut m, &lat, 0);
        assert_eq!(
            m.vmstat().demoted_total(),
            0,
            "coupled TPP must not demote early"
        );
        let low = m.node(NodeId(0)).watermarks().base.low;
        let more = m.free_pages(NodeId(0)) - low + 1;
        for i in 0..more {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(5000 + i), PageType::File)
                .unwrap();
        }
        tick(&mut p, &mut m, &lat, 50 * MS);
        assert!(m.vmstat().demoted_total() > 0, "below low it must demote");
        m.validate();
    }

    use crate::policy::COMPOUND_MIGRATE_FACTOR;
    use tiered_mem::{ThpMode, HUGE_PAGE_FRAMES};

    fn thp_setup(local: u64, cxl: u64) -> (Memory, LatencyModel) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, local)
            .node(NodeKind::Cxl, cxl)
            .swap_pages(4096)
            .thp_mode(ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter())
    }

    #[test]
    fn compound_promotion_moves_the_whole_unit() {
        let (mut m, lat) = thp_setup(2048, 2048);
        let mut p = Tpp::new();
        let head = m
            .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        // Heads start on the active LRU, so the §5.3 filter passes.
        let cost = p.on_hint_fault(&mut ctx, head);
        assert_eq!(
            cost,
            lat.migrate_page_ns * COMPOUND_MIGRATE_FACTOR,
            "a compound promotion is one decision at compound cost"
        );
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = m.space(Pid(1)).translate(Vpn(i)).unwrap().pfn().unwrap();
            assert_eq!(m.frames().frame(pfn).node(), NodeId(0));
        }
        assert_eq!(m.vmstat().promoted_total(), 1);
        assert_eq!(m.vmstat().get(VmEvent::ThpSplit), 0);
        m.validate();
    }

    #[test]
    fn compound_demotion_migrates_whole_when_target_has_an_aligned_block() {
        let (mut m, lat) = thp_setup(2048, 4096);
        let mut p = Tpp::new();
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        // Push the local node below its demotion trigger with hot base
        // pages; the untouched compound is the coldest victim.
        let trigger = m.node(NodeId(0)).watermarks().demote_trigger;
        let mut vpn = 100_000;
        while m.free_pages(NodeId(0)) >= trigger {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(vpn), PageType::Anon)
                .unwrap();
            m.frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .insert(PageFlags::REFERENCED);
            vpn += 1;
        }
        for t in 0..20 {
            tick(&mut p, &mut m, &lat, t * 50 * MS);
        }
        let new_head = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        let frame = m.frames().frame(new_head);
        assert_eq!(frame.node(), NodeId(1), "the compound should demote");
        assert!(frame.flags().contains(PageFlags::HEAD), "still one unit");
        assert!(frame.flags().contains(PageFlags::DEMOTED));
        assert_eq!(m.vmstat().get(VmEvent::ThpSplit), 0);
        let _ = head;
        m.validate();
    }

    #[test]
    fn compound_demotion_splits_when_target_has_no_aligned_block() {
        // A 511-page CXL node can never hold an aligned order-9 block, so
        // every compound demotion must take the split-on-demote path.
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 511)
            .swap_pages(4096)
            .thp_mode(ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = Tpp::new();
        m.alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let trigger = m.node(NodeId(0)).watermarks().demote_trigger;
        let mut vpn = 100_000;
        while m.free_pages(NodeId(0)) >= trigger {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(vpn), PageType::Anon)
                .unwrap();
            m.frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .insert(PageFlags::REFERENCED);
            vpn += 1;
        }
        for t in 0..10 {
            tick(&mut p, &mut m, &lat, t * 50 * MS);
        }
        assert!(
            m.vmstat().get(VmEvent::ThpSplit) >= 1,
            "demotion into a fragmented tier must split"
        );
        m.validate();
    }
}
