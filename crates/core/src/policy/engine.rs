//! The migration engine and the daemon schedule every policy shares.
//!
//! Promotion, demotion and reclaim are the same page-moving mechanics in
//! every policy; the policies differ only in *when* they admit a page.
//! This module is the one place that moves pages and schedules daemons:
//!
//! * [`hinted_cxl_page`] and [`promote`]: the hint-fault prologue and
//!   compound-aware, event-recording, hop-priced promotion;
//! * [`demotion_target`] and [`demote`]: the nearest lower tier with
//!   headroom, and migration-based demotion with split and eviction
//!   fallbacks;
//! * [`reclaim_pass`] and [`direct_reclaim`]: the budgeted daemon reclaim
//!   loop and the escalating-scan reclaim on the fault path, each driving
//!   a caller-supplied per-victim step;
//! * [`Daemons`]: per-node kswapd, the huge-page daemons and the hint
//!   sampler, run in that order at the end of every tick.

use tiered_mem::telemetry::PromoteFailReason;
use tiered_mem::{Memory, MigrateError, NodeId, NodeList, PageFlags, PageKey, Pfn, TraceEvent};
use tiered_sim::Periodic;

use super::huge::{run_huge_daemons, HugeConfig, HugeState, COMPOUND_MIGRATE_FACTOR};
use super::linux_default::{evict_page, kswapd_pass};
use super::reclaim::{select_victims_into, DaemonBudget, ReclaimScratch, VictimClass};
use super::sampler::{HintSampler, SamplerConfig};
use super::PolicyCtx;

/// The owner of the hinted page at `pfn` when it sits on a CPU-less node.
/// A hint fault on a CPU-attached node is pure sampling overhead: it is
/// recorded as such and yields `None`.
pub(crate) fn hinted_cxl_page(memory: &mut Memory, pfn: Pfn) -> Option<PageKey> {
    let frame = memory.frames().frame(pfn);
    let (node, page) = (
        frame.node(),
        frame.owner().expect("hint fault on a free frame"),
    );
    if memory.node(node).is_cpu_less() {
        return Some(page);
    }
    memory.record(TraceEvent::HintFaultLocal { page, node });
    None
}

/// Promotes the page at `pfn` to `target`: a compound head moves as one
/// unit, a base page alone. Promotion clears `PG_demoted` (§5.5).
///
/// Returns the synchronous migration cost charged to the faulting task,
/// or `None` when migration failed; the failure is recorded as `LowMem`
/// when the target had no room and `Busy` otherwise.
pub(crate) fn promote(ctx: &mut PolicyCtx<'_>, pfn: Pfn, target: NodeId) -> Option<u64> {
    let frame = ctx.memory.frames().frame(pfn);
    let (from, page_type) = (frame.node(), frame.page_type());
    let page = frame.owner().expect("promotion of a free frame");
    let compound = frame.flags().contains(PageFlags::HEAD);
    ctx.memory.record(TraceEvent::PromoteAttempt {
        page,
        from,
        to: target,
    });
    match migrate(ctx.memory, pfn, target, compound) {
        Ok(new_pfn) => {
            let flags = ctx.memory.frames_mut().frame_mut(new_pfn).flags_mut();
            flags.remove(PageFlags::DEMOTED);
            ctx.memory.record(TraceEvent::PromoteSuccess {
                page,
                from,
                to: target,
                page_type,
            });
            Some(migrate_cost(ctx, from, target, compound))
        }
        Err(e) => {
            let reason = match e {
                MigrateError::DstNoMemory { .. } => PromoteFailReason::LowMem,
                _ => PromoteFailReason::Busy,
            };
            ctx.memory.record(TraceEvent::PromoteFail { page, reason });
            None
        }
    }
}

/// The nearest lower tier below `node` with allocation headroom (§5.2);
/// when every candidate is pressured, the nearest one still takes the
/// pages (its own daemon cascades or reclaims them). `None` on a
/// terminal tier.
pub(crate) fn demotion_target(memory: &Memory, node: NodeId) -> Option<NodeId> {
    let order = memory.node(node).demotion_order();
    order
        .iter()
        .copied()
        .find(|&t| {
            let wm = memory.node(t).watermarks().base;
            wm.allows_allocation(memory.free_pages(t))
        })
        .or_else(|| order.first().copied())
}

/// What a reclaim step did with one victim.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Victim {
    /// Moved or evicted, at this much daemon time (ns).
    Moved(u64),
    /// Passed over: costs nothing and is not progress.
    Skipped,
    /// The page could not be moved or evicted: the batch ends here.
    Failed,
    /// The mechanism can take no more pages: the pass ends here.
    Exhausted,
}

/// Demotes the victim at `pfn` to `target` and tags it `PG_demoted` for
/// the ping-pong detector (§5.5).
///
/// A compound page migrates whole when the target can supply an aligned
/// block; otherwise it is split so its base pages take the ordinary path
/// on later passes. A base page whose migration fails (e.g. the target is
/// full) falls back to default reclaim.
pub(crate) fn demote(ctx: &mut PolicyCtx<'_>, pfn: Pfn, target: NodeId) -> Victim {
    let frame = ctx.memory.frames().frame(pfn);
    let (from, page_type) = (frame.node(), frame.page_type());
    let page = frame.owner().expect("demotion victim is allocated");
    let compound = frame.flags().contains(PageFlags::HEAD);
    match migrate(ctx.memory, pfn, target, compound) {
        Ok(new_pfn) => {
            let flags = ctx.memory.frames_mut().frame_mut(new_pfn).flags_mut();
            flags.insert(PageFlags::DEMOTED);
            ctx.memory.record(TraceEvent::Demote {
                page,
                from,
                to: target,
                page_type,
            });
            Victim::Moved(migrate_cost(ctx, from, target, compound))
        }
        Err(_) if compound => split(ctx, pfn),
        Err(_) => {
            ctx.memory
                .record(TraceEvent::DemoteFallback { page, node: from });
            evict_page(ctx.memory, ctx.latency, pfn).map_or(Victim::Failed, Victim::Moved)
        }
    }
}

/// Splits the compound headed by `pfn` so its base pages re-enter the
/// cold end of the LRU; priced as one base-page migration.
pub(crate) fn split(ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> Victim {
    ctx.memory.split_huge_page(pfn);
    Victim::Moved(ctx.latency.migrate_page_ns)
}

fn migrate(memory: &mut Memory, pfn: Pfn, to: NodeId, compound: bool) -> Result<Pfn, MigrateError> {
    if compound {
        memory.migrate_huge(pfn, to)
    } else {
        memory.migrate_page(pfn, to)
    }
}

/// Hop-priced cost of one migration, ×[`COMPOUND_MIGRATE_FACTOR`] for a
/// compound unit.
fn migrate_cost(ctx: &PolicyCtx<'_>, from: NodeId, to: NodeId, compound: bool) -> u64 {
    let unit = ctx
        .latency
        .migrate_cost_ns(ctx.memory.migrate_hops(from, to));
    if compound {
        unit * COMPOUND_MIGRATE_FACTOR
    } else {
        unit
    }
}

/// One budgeted daemon reclaim pass on `node`: selects up to 64 victims
/// at a time from the inactive tails and hands each to `step`, charging
/// its cost to `budget.time_ns`. The pass ends once `node` has
/// `target_free` free pages, the time budget is spent, or a batch makes
/// no progress.
pub(crate) fn reclaim_pass(
    ctx: &mut PolicyCtx<'_>,
    node: NodeId,
    target_free: u64,
    budget: DaemonBudget,
    mut step: impl FnMut(&mut PolicyCtx<'_>, Pfn) -> Victim,
) {
    let mut time_left = budget.time_ns;
    let mut scratch = ReclaimScratch::from_pool(ctx.memory);
    'pass: while ctx.memory.free_pages(node) < target_free && time_left > 0 {
        let want = (target_free - ctx.memory.free_pages(node)).min(64) as usize;
        select_victims_into(
            ctx.memory,
            node,
            want,
            budget.scan_pages as usize,
            VictimClass::AnonAndFile,
            &mut scratch,
        );
        let mut progressed = false;
        for &pfn in &scratch.victims {
            match step(ctx, pfn) {
                Victim::Moved(cost) if cost <= time_left => {
                    time_left -= cost;
                    progressed = true;
                }
                Victim::Moved(_) | Victim::Exhausted => break 'pass,
                Victim::Skipped => {}
                Victim::Failed => break,
            }
        }
        if !progressed {
            break;
        }
    }
    scratch.into_pool(ctx.memory);
}

/// Synchronous reclaim of up to `want` pages on `node` for an allocating
/// task; returns the latency charged to it. `evict` frees one victim and
/// returns its cost, or `None` if it could not.
///
/// The scan budget starts at `scan` and escalates 8× (the kernel's
/// reclaim-priority analogue) until a page is freed or the whole node has
/// been scanned: reclaim on the fault path must make forward progress or
/// the allocation OOMs.
pub(crate) fn direct_reclaim(
    memory: &mut Memory,
    node: NodeId,
    want: usize,
    mut scan: usize,
    mut evict: impl FnMut(&mut Memory, Pfn) -> Option<u64>,
) -> u64 {
    let node_pages = memory.capacity(node) as usize;
    let mut cost = 0;
    let mut scratch = ReclaimScratch::from_pool(memory);
    loop {
        select_victims_into(
            memory,
            node,
            want,
            scan,
            VictimClass::AnonAndFile,
            &mut scratch,
        );
        let mut freed = false;
        for &pfn in &scratch.victims {
            if let Some(c) = evict(memory, pfn) {
                cost += c;
                freed = true;
            }
        }
        if freed || scan >= node_pages {
            break;
        }
        scan = (scan * 8).min(node_pages);
    }
    scratch.into_pool(memory);
    cost
}

/// One policy's daemon schedule: per-node kswapd with its wake/sleep
/// hysteresis, the huge-page daemons (inert under `ThpMode::Never`), and
/// the hint sampler with its timer where the policy samples.
#[derive(Clone, Debug)]
pub(crate) struct Daemons {
    kswapd_budget: DaemonBudget,
    kswapd_active: Vec<bool>,
    huge: HugeConfig,
    huge_state: HugeState,
    sampler: Option<(HintSampler, Periodic)>,
}

impl Daemons {
    pub(crate) fn new(
        kswapd_budget: DaemonBudget,
        huge: HugeConfig,
        sampler: Option<SamplerConfig>,
    ) -> Daemons {
        Daemons {
            kswapd_budget,
            kswapd_active: Vec::new(),
            huge,
            huge_state: HugeState::default(),
            sampler: sampler.map(|c| (HintSampler::new(c), Periodic::new(c.period_ns))),
        }
    }

    /// One kswapd wakeup on `node`.
    pub(crate) fn kswapd(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) {
        self.kswapd_active.resize(ctx.memory.node_count(), false);
        let active = &mut self.kswapd_active[node.index()];
        kswapd_pass(ctx.memory, ctx.latency, node, self.kswapd_budget, active);
    }

    /// The shared end of every tick: kswapd on `nodes`, then the huge-page
    /// daemons, then the hint sampler when its timer fires.
    pub(crate) fn run(&mut self, ctx: &mut PolicyCtx<'_>, nodes: NodeList) {
        for node in nodes {
            self.kswapd(ctx, node);
        }
        run_huge_daemons(ctx, &self.huge, &mut self.huge_state);
        if let Some((sampler, timer)) = &mut self.sampler {
            if timer.fire(ctx.now_ns) > 0 {
                sampler.scan(ctx.memory);
            }
        }
    }
}

/// Every node of the machine, in id order.
pub(crate) fn all_nodes(memory: &Memory) -> NodeList {
    memory.nodes().map(|n| n.id()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeKind, PageType, Pid, ThpMode, VmEvent, Vpn};
    use tiered_sim::{LatencyModel, SimRng};

    fn machine(local: u64, cxl: u64, mode: ThpMode) -> Memory {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, local)
            .node(NodeKind::Cxl, cxl)
            .thp_mode(mode)
            .build();
        m.create_process(Pid(1));
        m
    }

    /// Runs `f` with a policy context over `m`.
    fn with_ctx<R>(m: &mut Memory, f: impl FnOnce(&mut PolicyCtx<'_>) -> R) -> R {
        let (lat, mut rng) = (LatencyModel::datacenter(), SimRng::seed(1));
        f(&mut PolicyCtx {
            memory: m,
            latency: &lat,
            now_ns: 0,
            rng: &mut rng,
        })
    }

    #[test]
    fn promotion_failures_map_to_low_memory_or_busy() {
        // A full target: the destination has no frame (`DstNoMemory`).
        let mut m = machine(8, 8, ThpMode::Never);
        for i in 0..8 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(100 + i), PageType::Anon)
                .unwrap();
        }
        let pfn = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        assert_eq!(with_ctx(&mut m, |ctx| promote(ctx, pfn, NodeId(0))), None);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailLowMem), 1);
        // Any other failure is contention: a compound tail cannot move
        // on its own (`CompoundPage`).
        let mut m = machine(2048, 2048, ThpMode::Always);
        let head = m
            .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let tail = Pfn(head.0 + 1);
        assert_eq!(with_ctx(&mut m, |ctx| promote(ctx, tail, NodeId(0))), None);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteFailBusy), 1);
        assert_eq!(m.vmstat().get(VmEvent::PgPromoteAttempt), 1);
        m.validate();
    }

    #[test]
    fn compound_promotion_costs_the_compound_factor() {
        let lat = LatencyModel::datacenter();
        let mut m = machine(2048, 2048, ThpMode::Always);
        let head = m
            .alloc_huge_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let base = m
            .alloc_and_map(NodeId(1), Pid(1), Vpn(4096), PageType::Anon)
            .unwrap();
        let costs = with_ctx(&mut m, |ctx| {
            (promote(ctx, head, NodeId(0)), promote(ctx, base, NodeId(0)))
        });
        assert_eq!(
            costs,
            (
                Some(lat.migrate_page_ns * COMPOUND_MIGRATE_FACTOR),
                Some(lat.migrate_page_ns)
            )
        );
        assert_eq!(m.vmstat().promoted_total(), 2);
        m.validate();
    }

    #[test]
    fn promotion_clears_the_demoted_tag() {
        let mut m = machine(64, 64, ThpMode::Never);
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let Victim::Moved(_) = with_ctx(&mut m, |ctx| demote(ctx, pfn, NodeId(1))) else {
            panic!("demotion to an empty node failed");
        };
        let demoted = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert!(m
            .frames()
            .frame(demoted)
            .flags()
            .contains(PageFlags::DEMOTED));
        assert!(with_ctx(&mut m, |ctx| promote(ctx, demoted, NodeId(0))).is_some());
        let promoted = m.space(Pid(1)).translate(Vpn(0)).unwrap().pfn().unwrap();
        assert!(!m
            .frames()
            .frame(promoted)
            .flags()
            .contains(PageFlags::DEMOTED));
        m.validate();
    }

    /// A node whose 256 pages are all allocated (file pages, all victims).
    fn full_node() -> Memory {
        let mut m = machine(256, 256, ThpMode::Never);
        for i in 0..256 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                .unwrap();
        }
        m
    }

    /// Runs one reclaim pass toward 128 free pages with a 1 ms budget;
    /// returns how many victims `step` saw.
    fn steps_until_exit(step: impl Fn(usize) -> Victim) -> usize {
        let mut m = full_node();
        let budget = DaemonBudget {
            scan_pages: 1024,
            time_ns: 1_000_000,
        };
        let mut seen = 0;
        with_ctx(&mut m, |ctx| {
            reclaim_pass(ctx, NodeId(0), 128, budget, |_, _| {
                seen += 1;
                step(seen)
            })
        });
        seen
    }

    #[test]
    fn reclaim_pass_stops_when_the_time_budget_is_spent() {
        // Four charges of 300 µs: the fourth overruns the 1 ms budget.
        assert_eq!(steps_until_exit(|_| Victim::Moved(300_000)), 4);
        assert_eq!(steps_until_exit(|_| Victim::Exhausted), 1);
    }

    #[test]
    fn reclaim_pass_stops_when_a_batch_makes_no_progress() {
        // Nothing is freed, so every batch asks for 64 victims: a batch of
        // skips ends the pass; a failure ends its batch, and the pass too
        // when nothing before it progressed.
        assert_eq!(steps_until_exit(|_| Victim::Skipped), 64);
        assert_eq!(steps_until_exit(|_| Victim::Failed), 1);
        // One charged victim per batch keeps the pass going until the
        // budget is spent: 10 batches of one 100 µs charge and one failure.
        let progress_then_fail = |n| {
            if n % 2 == 1 {
                Victim::Moved(100_000)
            } else {
                Victim::Failed
            }
        };
        assert_eq!(steps_until_exit(progress_then_fail), 20);
    }
}
