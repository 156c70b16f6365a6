//! The AutoTiering baseline (Kim et al., ATC '21), as characterised by the
//! TPP paper (§6.4, §7):
//!
//! * background **migration-based demotion** driven by timer-decayed
//!   access-frequency counters (faster than paging, but the decay pass
//!   costs CPU and mis-ranks infrequently accessed pages),
//! * **optimised NUMA-balancing promotion** (CXL-only sampling) gated on
//!   a **fixed-size reserved buffer** on the local node — once a surge of
//!   CXL accesses drains the buffer, promotion fails,
//! * allocation and reclamation stay **coupled** to the classic
//!   watermarks (no free-page headroom is maintained),
//! * the paper could not run it on 1:4 local:CXL configurations at all
//!   ("frequently crashes right after the warm up phase"), which
//!   [`PlacementPolicy::validate_config`] reproduces as a hard error.

use tiered_mem::telemetry::{PromoteFailReason, PromoteSkipReason};
use tiered_mem::{Memory, NodeId, PageFlags, PageType, Pfn, Pid, TraceEvent, Vpn};
use tiered_sim::{Periodic, SEC};

use super::engine::{
    demote, demotion_target, fault, hinted_cxl_page, promote, reclaim_pass, split, Daemons, Victim,
    SWAP_DEVICE,
};
use super::reclaim::DaemonBudget;
use super::sampler::SampleScope;
use super::{preferred_local_node, FaultOutcome, PlacementPolicy, PolicyCtx, UnsupportedConfig};

/// Minimum hotness counter for a page to be promotion-worthy.
const HOTNESS_THRESHOLD: u8 = 2;
/// Period of the hotness-decay timer.
const DECAY_PERIOD_NS: u64 = 2 * SEC;
/// Reserved promotion buffer, as a fraction of local-node capacity.
const PROMO_BUFFER_FRAC: f64 = 0.02;

/// AutoTiering page placement.
#[derive(Clone, Debug)]
pub struct AutoTiering {
    decay_timer: Periodic,
    /// Remaining promotion-buffer tokens; refilled by demotions.
    buffer_tokens: u64,
    buffer_capacity: u64,
    initialised: bool,
    daemons: Daemons,
}

impl AutoTiering {
    /// Creates the policy. Its hint sampler is CXL-only (the "optimised"
    /// NUMA balancing).
    pub fn new() -> AutoTiering {
        AutoTiering {
            decay_timer: Periodic::new(DECAY_PERIOD_NS),
            buffer_tokens: 0,
            buffer_capacity: 0,
            initialised: false,
            daemons: Daemons::new(Some(SampleScope::CxlOnly)),
        }
    }

    /// Current promotion-buffer tokens (for tests and observability).
    pub fn buffer_tokens(&self) -> u64 {
        self.buffer_tokens
    }

    fn ensure_buffer(&mut self, memory: &Memory) {
        if !self.initialised {
            let local = preferred_local_node(memory);
            self.buffer_capacity = (memory.capacity(local) as f64 * PROMO_BUFFER_FRAC) as u64;
            self.buffer_tokens = self.buffer_capacity;
            self.initialised = true;
        }
    }

    /// Demotion pass on `node`: migrate cold (hotness-zero) inactive pages
    /// to the CXL node. Coupled to the *classic* watermarks — demotion
    /// only starts below `low` and stops at `high`, so no headroom is
    /// maintained beyond what default Linux would keep. Every demoted page
    /// refills one promotion-buffer token.
    fn demote_pass(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) {
        let wm = ctx.memory.node(node).watermarks().base;
        if !wm.needs_reclaim(ctx.memory.free_pages(node)) {
            return;
        }
        let Some(target) = demotion_target(ctx.memory, node) else {
            return;
        };
        let before = ctx.memory.vmstat().demoted_total();
        reclaim_pass(ctx, node, wm.high, DaemonBudget::demoter(), |ctx, pfn| {
            let frame = ctx.memory.frames().frame(pfn);
            // Timer-based criterion: only cold-by-counter pages move.
            if frame.hotness() > 1 {
                Victim::Skipped
            } else if frame.flags().contains(PageFlags::HEAD) {
                // AutoTiering always splits a compound before demoting
                // (split-on-demote): its per-page hotness ranking has no
                // notion of compound units, so the base pages re-enter the
                // cold end of the LRU and move individually.
                split(ctx, pfn)
            } else {
                demote(ctx, pfn, target)
            }
        });
        let demoted = ctx.memory.vmstat().demoted_total() - before;
        self.buffer_tokens = (self.buffer_tokens + demoted).min(self.buffer_capacity);
    }
}

impl Default for AutoTiering {
    fn default() -> AutoTiering {
        AutoTiering::new()
    }
}

impl PlacementPolicy for AutoTiering {
    fn name(&self) -> &str {
        "autotiering"
    }

    fn validate_config(&self, memory: &Memory) -> Result<(), UnsupportedConfig> {
        let local: u64 = memory
            .local_nodes()
            .iter()
            .map(|&n| memory.capacity(n))
            .sum();
        let cxl: u64 = memory.cxl_nodes().iter().map(|&n| memory.capacity(n)).sum();
        if cxl > local * 3 {
            return Err(UnsupportedConfig {
                policy: self.name().into(),
                reason: format!(
                    "local:CXL ratio 1:{} exceeds 1:3 — the paper reports AutoTiering \
                     crashing after warm-up on 1:4 configurations",
                    cxl.checked_div(local).unwrap_or(u64::MAX)
                ),
            });
        }
        Ok(())
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        self.ensure_buffer(ctx.memory);
        let home = ctx.memory.home_node(pid);
        fault(ctx, pid, vpn, page_type, home, "autotiering", &SWAP_DEVICE)
    }

    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> u64 {
        self.ensure_buffer(ctx.memory);
        let Some(page) = hinted_cxl_page(ctx.memory, pfn) else {
            return 0;
        };
        // Frequency criterion: only pages hot by counter are candidates.
        // Previously a silent return — the trace makes the skip visible.
        if ctx.memory.frames().frame(pfn).hotness() < HOTNESS_THRESHOLD {
            ctx.memory.record(TraceEvent::PromoteSkip {
                page,
                reason: PromoteSkipReason::Cold,
            });
            return 0;
        }
        ctx.memory.record(TraceEvent::PromoteCandidate {
            page,
            demoted: false,
        });
        let target = ctx.memory.home_node(page.pid);
        let wm = ctx.memory.node(target).watermarks().base;
        let free = ctx.memory.free_pages(target);
        // The reserved buffer is the only headroom: promotions need a
        // token (or genuine free space above the high watermark).
        if self.buffer_tokens == 0 && free <= wm.high {
            ctx.memory.record(TraceEvent::PromoteFail {
                page,
                reason: PromoteFailReason::LowMem,
            });
            ctx.memory.record(TraceEvent::Decision {
                policy: "autotiering",
                reason: "promotion_buffer_exhausted",
                page: Some(page),
            });
            return 0;
        }
        if free <= wm.min {
            ctx.memory.record(TraceEvent::PromoteFail {
                page,
                reason: PromoteFailReason::LowMem,
            });
            return 0;
        }
        // A hinted compound head promotes as one unit; it still consumes
        // a single buffer token — the buffer models reserved *decisions*,
        // not pages.
        let Some(cost) = promote(ctx, pfn, target) else {
            return 0;
        };
        self.buffer_tokens = self.buffer_tokens.saturating_sub(1);
        cost
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.ensure_buffer(ctx.memory);
        // Hotness decay: the "timer-based hot page detection" that costs
        // CPU — every allocated frame is visited.
        if self.decay_timer.fire(ctx.now_ns) > 0 {
            for frame in ctx.memory.frames_mut().allocated_frames_mut() {
                frame.decay_hotness();
            }
        }
        // Migration-based demotion from local nodes.
        for node in ctx.memory.local_nodes() {
            self.demote_pass(ctx, node);
        }
        // CXL nodes reclaim the default way if ever pressured.
        let cxl = ctx.memory.cxl_nodes();
        self.daemons.run(ctx, cxl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::COMPOUND_MIGRATE_FACTOR;
    use tiered_mem::NodeKind;
    use tiered_mem::VmEvent;
    use tiered_sim::LatencyModel;

    fn setup(local: u64, cxl: u64) -> (Memory, LatencyModel, AutoTiering) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, local)
            .node(NodeKind::Cxl, cxl)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter(), AutoTiering::new())
    }

    #[test]
    fn rejects_one_to_four_configs() {
        let (m, ..) = setup(64, 256);
        let p = AutoTiering::new();
        let err = p.validate_config(&m).unwrap_err();
        assert!(err.reason.contains("1:4"));
        // 2:1 is fine.
        let (m2, ..) = setup(128, 64);
        assert!(p.validate_config(&m2).is_ok());
    }

    #[test]
    fn promotion_requires_hotness_threshold() {
        let (mut m, lat, mut p) = setup(64, 64);
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        // Cold by counter: not promoted.
        assert_eq!(p.on_hint_fault(&mut ctx, pfn), 0);
        assert_eq!(ctx.memory.frames().frame(pfn).node(), NodeId(1));
        // Heat it up.
        ctx.memory.frames_mut().frame_mut(pfn).touch_hotness();
        ctx.memory.frames_mut().frame_mut(pfn).touch_hotness();
        let cost = p.on_hint_fault(&mut ctx, pfn);
        assert_eq!(cost, lat.migrate_page_ns);
        m.validate();
    }

    #[test]
    fn buffer_exhaustion_halts_promotion_under_pressure() {
        let (mut m, lat, mut p) = setup(64, 64);
        // Local filled to its high watermark: only buffer tokens allow
        // promotion.
        let high = m.node(NodeId(0)).watermarks().base.high;
        for i in 0..(64 - high) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(1000 + i), PageType::Anon)
                .unwrap();
        }
        // Hot CXL pages.
        let pfns: Vec<Pfn> = (0..8)
            .map(|i| {
                let pfn = m
                    .alloc_and_map(NodeId(1), Pid(1), Vpn(i), PageType::Anon)
                    .unwrap();
                for _ in 0..4 {
                    m.frames_mut().frame_mut(pfn).touch_hotness();
                }
                pfn
            })
            .collect();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.ensure_buffer(ctx.memory);
        p.buffer_tokens = 2; // nearly drained
        let mut promoted = 0;
        for pfn in pfns {
            if p.on_hint_fault(&mut ctx, pfn) > 0 {
                promoted += 1;
            }
        }
        assert_eq!(promoted, 2, "only the buffered tokens may promote");
        assert!(m.vmstat().get(VmEvent::PgPromoteFailLowMem) >= 6);
    }

    #[test]
    fn demotion_migrates_cold_pages_instead_of_swapping() {
        let (mut m, lat, mut p) = setup(64, 256);
        let low = m.node(NodeId(0)).watermarks().base.low;
        for i in 0..(64 - low + 4).min(63) {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Tmpfs)
                .unwrap();
        }
        for _ in 0..5 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.tick(&mut ctx);
        }
        assert!(
            m.frames().used_pages(NodeId(1)) > 0,
            "cold pages should move to CXL"
        );
        assert_eq!(m.swap().used_slots(), 0, "migration should beat swap");
        m.validate();
    }

    #[test]
    fn decay_halves_hotness_counters() {
        let (mut m, lat, mut p) = setup(64, 64);
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        for _ in 0..8 {
            m.frames_mut().frame_mut(pfn).touch_hotness();
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 3 * SEC,
        };
        p.tick(&mut ctx);
        assert_eq!(m.frames().frame(pfn).hotness(), 4);
    }

    #[test]
    fn demotion_splits_compounds_first() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .thp_mode(tiered_mem::ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = AutoTiering::new();
        m.alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        // Push below the classic low watermark (AutoTiering stays coupled)
        // with hot base pages; the cold compound is the first victim.
        let low = m.node(NodeId(0)).watermarks().base.low;
        let mut vpn = 100_000;
        while m.free_pages(NodeId(0)) >= low {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(vpn), PageType::Anon)
                .unwrap();
            m.frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .insert(PageFlags::REFERENCED);
            vpn += 1;
        }
        for _ in 0..10 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.tick(&mut ctx);
        }
        assert!(
            m.vmstat().get(VmEvent::ThpSplit) >= 1,
            "AutoTiering must split-on-demote"
        );
        assert!(
            m.frames().used_pages(NodeId(1)) > 0,
            "the split base pages should demote individually"
        );
        m.validate();
    }

    #[test]
    fn compound_promotion_moves_the_whole_unit() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .thp_mode(tiered_mem::ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut p = AutoTiering::new();
        let head = m
            .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        // Hot by counter, so the frequency criterion passes.
        for _ in 0..4 {
            m.frames_mut().frame_mut(head).touch_hotness();
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let cost = p.on_hint_fault(&mut ctx, head);
        assert_eq!(cost, lat.migrate_page_ns * COMPOUND_MIGRATE_FACTOR);
        let new_head = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert_eq!(m.frames().frame(new_head).node(), NodeId(0));
        assert!(m.frames().frame(new_head).flags().contains(PageFlags::HEAD));
        m.validate();
    }
}
