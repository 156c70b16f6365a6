//! Default NUMA balancing (AutoNUMA) on a tiered machine (paper §4.2).
//!
//! NUMA balancing samples *every* node (wasting hint faults on local
//! pages), promotes pages only when the local node sits above its *high*
//! watermark, and cannot demote anything to a CPU-less node — so reclaim
//! still pages out to swap, and under memory pressure promotion simply
//! stops and hot pages stay trapped on the CXL node.

use tiered_mem::telemetry::PromoteFailReason;
use tiered_mem::{PageType, Pid, TraceEvent, Vpn};

use super::engine::{all_nodes, hinted_cxl_page, promote, Daemons};
use super::linux_default::{fault_with_fallback, LinuxDefaultConfig};
use super::sampler::{SampleScope, SamplerConfig};
use super::{FaultOutcome, PlacementPolicy, PolicyCtx};

/// Configuration for [`NumaBalancing`].
#[derive(Clone, Copy, Debug)]
pub struct NumaBalancingConfig {
    /// The underlying default-kernel knobs (reclaim stays unchanged).
    pub linux: LinuxDefaultConfig,
    /// Hint-PTE scanner settings (scope is forced to all nodes).
    pub sampler: SamplerConfig,
}

impl Default for NumaBalancingConfig {
    fn default() -> NumaBalancingConfig {
        NumaBalancingConfig {
            linux: LinuxDefaultConfig::default(),
            sampler: SamplerConfig::scaled(SampleScope::AllNodes),
        }
    }
}

/// NUMA balancing page placement.
#[derive(Clone, Debug)]
pub struct NumaBalancing {
    config: NumaBalancingConfig,
    daemons: Daemons,
}

impl NumaBalancing {
    /// Creates the policy with default knobs.
    pub fn new() -> NumaBalancing {
        NumaBalancing::with_config(NumaBalancingConfig::default())
    }

    /// Creates the policy with explicit knobs.
    pub fn with_config(mut config: NumaBalancingConfig) -> NumaBalancing {
        // Default NUMA balancing has no notion of tiers: it samples all
        // nodes no matter what the caller asked for.
        config.sampler.scope = SampleScope::AllNodes;
        let linux = config.linux;
        NumaBalancing {
            config,
            daemons: Daemons::new(linux.kswapd_budget, linux.huge, Some(config.sampler)),
        }
    }
}

impl Default for NumaBalancing {
    fn default() -> NumaBalancing {
        NumaBalancing::new()
    }
}

impl PlacementPolicy for NumaBalancing {
    fn name(&self) -> &str {
        "numa_balancing"
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let prefer = ctx.memory.home_node(pid);
        fault_with_fallback(ctx, pid, vpn, page_type, prefer, "numa_balancing")
    }

    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: tiered_mem::Pfn) -> u64 {
        // A hint fault on a local page is pure sampling overhead.
        let Some(page) = hinted_cxl_page(ctx.memory, pfn) else {
            return 0;
        };
        // Promote toward the accessing task's socket, not a fixed node 0.
        let target = ctx.memory.home_node(page.pid);
        ctx.memory.record(TraceEvent::PromoteCandidate {
            page,
            demoted: false,
        });
        // Default NUMA balancing refuses to migrate unless the target is
        // comfortably above its high watermark — this is exactly how hot
        // pages get trapped on the CXL node under pressure (§4.2).
        let wm = ctx.memory.node(target).watermarks().base;
        if ctx.memory.free_pages(target) <= wm.high {
            ctx.memory.record(TraceEvent::PromoteFail {
                page,
                reason: PromoteFailReason::LowMem,
            });
            ctx.memory.record(TraceEvent::Decision {
                policy: "numa_balancing",
                reason: "target_below_high_watermark_page_trapped",
                page: Some(page),
            });
            return 0;
        }
        promote(ctx, pfn, target).unwrap_or(0)
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        let nodes = all_nodes(ctx.memory);
        self.daemons.run(ctx, nodes);
    }

    fn tick_period_ns(&self) -> u64 {
        self.config.linux.tick_period_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::VmEvent;
    use tiered_mem::{Memory, NodeId, NodeKind, PageFlags, PageLocation};
    use tiered_sim::{LatencyModel, SimRng};

    fn setup() -> (Memory, LatencyModel, SimRng, NumaBalancing) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 128)
            .build();
        m.create_process(Pid(1));
        (
            m,
            LatencyModel::datacenter(),
            SimRng::seed(1),
            NumaBalancing::new(),
        )
    }

    #[test]
    fn promotes_cxl_page_when_local_has_headroom() {
        let (mut m, lat, mut rng, mut p) = setup();
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
            rng: &mut rng,
        };
        let cost = p.on_hint_fault(&mut ctx, pfn);
        assert_eq!(cost, lat.migrate_page_ns);
        let new = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert_eq!(m.frames().frame(new).node(), NodeId(0));
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteSuccessAnon), 1);
        m.validate();
    }

    #[test]
    fn promotion_stops_when_local_is_under_pressure() {
        let (mut m, lat, mut rng, mut p) = setup();
        // Fill local down to (high watermark) free pages.
        let high = m.node(NodeId(0)).watermarks().base.high;
        for i in 0..(64 - high) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(100 + i), PageType::Anon)
                .unwrap();
        }
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
            rng: &mut rng,
        };
        assert_eq!(p.on_hint_fault(&mut ctx, pfn), 0);
        // Page remains trapped on the CXL node.
        assert_eq!(m.frames().frame(pfn).node(), NodeId(1));
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailLowMem), 1);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteAttempt), 0);
    }

    #[test]
    fn local_hint_faults_are_counted_as_overhead() {
        let (mut m, lat, mut rng, mut p) = setup();
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
            rng: &mut rng,
        };
        assert_eq!(p.on_hint_fault(&mut ctx, pfn), 0);
        assert_eq!(m.vmstat().get(VmEvent::NumaHintFaultsLocal), 1);
        assert_eq!(m.frames().frame(pfn).node(), NodeId(0));
    }

    #[test]
    fn sampler_marks_local_pages_too() {
        let (mut m, lat, mut rng, mut p) = setup();
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(1), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 2 * tiered_sim::SEC,
            rng: &mut rng,
        };
        p.tick(&mut ctx);
        let hinted = |m: &Memory, node: NodeId| {
            m.frames()
                .allocated_on(node)
                .filter(|&f| m.frames().frame(f).flags().contains(PageFlags::HINTED))
                .count()
        };
        assert_eq!(
            hinted(&m, NodeId(0)),
            1,
            "default NUMA balancing samples local nodes"
        );
        assert_eq!(hinted(&m, NodeId(1)), 1);
    }

    #[test]
    fn reclaim_still_swaps_out() {
        let (mut m, lat, mut rng, mut p) = setup();
        let min = m.node(NodeId(0)).watermarks().base.min;
        for i in 0..(64 - min) {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
                rng: &mut rng,
            };
            p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::Tmpfs);
        }
        for _ in 0..10 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
                rng: &mut rng,
            };
            p.tick(&mut ctx);
        }
        assert!(
            m.swap().used_slots() > 0,
            "no demotion path exists; swap must be used"
        );
        // Nothing was migrated to the CXL node by reclaim.
        assert_eq!(m.vmstat().demoted_total(), 0);
        let _ = m.space(Pid(1)).translate(Vpn(0)) == Some(PageLocation::Mapped(tiered_mem::Pfn(0)));
        m.validate();
    }
}
