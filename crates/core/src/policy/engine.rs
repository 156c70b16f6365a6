//! The page-fault path, the migration engine and the daemon schedule
//! every policy shares.
//!
//! Faulting, promotion, demotion and reclaim are the same mechanics in
//! every policy; the policies differ only in *when* they admit a page.
//! This module is the one place that places, moves and evicts pages and
//! schedules daemons:
//!
//! * [`fault`]: the one page-fault path (fault-time THP, watermark spill
//!   along the zonelist of the node the policy prefers, and on a stall
//!   direct reclaim on the task's home node), with a [`SwapBacking`] that
//!   prices swap-ins and supplies the reclaim step; [`SWAP_DEVICE`] is
//!   the backing of every policy that swaps to a device;
//! * [`hinted_cxl_page`] and [`promote`]: the hint-fault prologue and
//!   compound-aware, event-recording, hop-priced promotion;
//! * [`demotion_target`] and [`demote`]: the nearest lower tier with
//!   headroom, and migration-based demotion with split and eviction
//!   fallbacks;
//! * [`evict_page`]: eviction the default-kernel way (swap out, write
//!   back, drop);
//! * [`reclaim_pass`] and [`direct_reclaim`]: the budgeted daemon reclaim
//!   loop and the escalating-scan reclaim on the fault path, each driving
//!   a caller-supplied per-victim step;
//! * [`Daemons`]: per-node kswapd, the huge-page daemons and the hint
//!   sampler, run in that order at the end of every tick.

use tiered_mem::telemetry::PromoteFailReason;
use tiered_mem::{
    Memory, MigrateError, NodeId, NodeList, PageFlags, PageKey, PageLocation, PageType, Pfn, Pid,
    ThpMode, TraceEvent, Vpn, HUGE_PAGE_FRAMES,
};
use tiered_sim::{LatencyModel, Periodic, MS, SEC};

use super::huge::{run_huge_daemons, HugeState, COMPOUND_MIGRATE_FACTOR};
use super::reclaim::{select_victims_into, DaemonBudget, ReclaimScratch};
use super::sampler::{HintSampler, SampleScope, PAGES_PER_SCAN};
use super::{FaultOutcome, PolicyCtx};

/// The daemon wakeup period every policy ticks at (50 ms).
pub(crate) const TICK_PERIOD_NS: u64 = 50 * MS;

/// How often the hint sampler scans (once per simulated second).
const SAMPLE_PERIOD_NS: u64 = SEC;

/// Cost charged to a faulting task for materialising a page of
/// `page_type` that is not in swap.
///
/// File pages are read from the filesystem on (re-)fault — a device read,
/// not a zero-fill — which is why dropping page cache that will be
/// re-accessed is expensive, and why TPP's keep-it-in-memory demotion
/// wins (§5.1).
fn materialise_cost_ns(latency: &LatencyModel, page_type: PageType) -> u64 {
    match page_type {
        PageType::File => latency.major_fault_ns + latency.swap_in_page_ns,
        PageType::Anon | PageType::Tmpfs => latency.minor_fault_ns,
    }
}

/// Where a policy's swapped-out pages live: what bringing one back costs
/// the faulting task, and the direct-reclaim step a stalled fault runs on
/// a node (returning the latency charged to the task).
pub(crate) struct SwapBacking {
    pub(crate) swap_in_ns: fn(&LatencyModel) -> u64,
    pub(crate) reclaim: fn(&mut PolicyCtx<'_>, NodeId) -> u64,
}

/// The swap device of Linux, NUMA balancing, AutoTiering and TPP: a
/// major fault plus a device read to swap in, and up to 32 pages evicted
/// with [`evict_page`] from a 256-page scan to reclaim.
pub(crate) const SWAP_DEVICE: SwapBacking = SwapBacking {
    swap_in_ns: LatencyModel::swap_in_total_ns,
    reclaim: swap_reclaim,
};

/// The page-fault path: try each node in `prefer`'s fallback order (its
/// zonelist), above its `min` watermark; a page placed past `prefer`
/// records a spill. When every node is below `min`, the task stalls:
/// `swap`'s reclaim step runs on the task's home node, charged to the
/// task, and the fallback order is retried. A swapped-out page costs
/// `swap`'s swap-in to bring back. `policy` attributes the spill/stall
/// decision events emitted along the way.
///
/// # Panics
///
/// Simulated OOM: no node can host the page even after direct reclaim.
pub(crate) fn fault(
    ctx: &mut PolicyCtx<'_>,
    pid: Pid,
    vpn: Vpn,
    page_type: PageType,
    prefer: NodeId,
    policy: &'static str,
    swap: &SwapBacking,
) -> FaultOutcome {
    let was_swapped = matches!(
        ctx.memory.space(pid).translate(vpn),
        Some(PageLocation::Swapped(_))
    );
    let base_cost = if was_swapped {
        (swap.swap_in_ns)(ctx.latency)
    } else {
        materialise_cost_ns(ctx.latency, page_type)
    };
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
    // task's home node, charged to the task.
    let home = ctx.memory.home_node(pid);
    ctx.memory.record(TraceEvent::AllocStall { node: home });
    ctx.memory.record(TraceEvent::Decision {
        policy,
        reason: "alloc_stall_direct_reclaim",
        page: Some(PageKey::new(pid, vpn)),
    });
    let reclaim_cost = (swap.reclaim)(ctx, home);
    for node in &order {
        // A node with no free frame cannot take the page; trying it would
        // count a fault that placed nothing.
        if ctx.memory.free_pages(*node) == 0 {
            continue;
        }
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
fn try_place(
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

/// [`SWAP_DEVICE`]'s direct-reclaim step.
fn swap_reclaim(ctx: &mut PolicyCtx<'_>, node: NodeId) -> u64 {
    let latency = ctx.latency;
    direct_reclaim(ctx.memory, node, 32, 32 * 8, |memory, pfn| {
        evict_page(memory, latency, pfn)
    })
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
    match ctx.memory.migrate_page(pfn, target) {
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
    match ctx.memory.migrate_page(pfn, target) {
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
        select_victims_into(memory, node, want, scan, &mut scratch);
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
/// hysteresis and [`DaemonBudget::kswapd`], the huge-page daemons (inert
/// under `ThpMode::Never`), and the hint sampler scanning
/// [`PAGES_PER_SCAN`] pages once per simulated second where the policy
/// samples.
#[derive(Clone, Debug)]
pub(crate) struct Daemons {
    kswapd_active: Vec<bool>,
    huge_state: HugeState,
    sampler: Option<(HintSampler, Periodic)>,
}

impl Daemons {
    /// The schedule of a policy that samples hint PTEs in `sampler`'s
    /// scope, or not at all.
    pub(crate) fn new(sampler: Option<SampleScope>) -> Daemons {
        let sampler = sampler.map(|scope| {
            (
                HintSampler::new(scope, PAGES_PER_SCAN),
                Periodic::new(SAMPLE_PERIOD_NS),
            )
        });
        Daemons {
            kswapd_active: Vec::new(),
            huge_state: HugeState::default(),
            sampler,
        }
    }

    /// One kswapd wakeup on `node`, with wake/sleep hysteresis: kswapd
    /// wakes when free pages drop below `low` and keeps processing one
    /// scan batch per wakeup until free pages reach a boosted target
    /// slightly *above* `high` — which is what lets NUMA balancing's
    /// `free > high` promotion check occasionally pass on a busy node.
    ///
    /// Each wakeup processes a *single* batch (`SWAP_CLUSTER_MAX`-style),
    /// bounded by both the scan and time budgets of
    /// [`DaemonBudget::kswapd`] — the kernel's priority-based throttling,
    /// and what allocation surges outrun (§4.1: "with high allocation
    /// rate, reclamation may fail to cope up").
    pub(crate) fn kswapd(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) {
        self.kswapd_active.resize(ctx.memory.node_count(), false);
        let active = &mut self.kswapd_active[node.index()];
        let memory = &mut *ctx.memory;
        let wm = memory.node(node).watermarks().base;
        let free = memory.free_pages(node);
        let boost_target = wm.high + (wm.high - wm.low).max(1);
        if !*active {
            if !wm.needs_reclaim(free) {
                return;
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
            return;
        }
        let budget = DaemonBudget::kswapd();
        let mut time_left = budget.time_ns;
        let want = (boost_target.saturating_sub(free)).min(32) as usize;
        let mut scratch = ReclaimScratch::from_pool(memory);
        select_victims_into(memory, node, want, budget.scan_pages as usize, &mut scratch);
        for &pfn in &scratch.victims {
            match evict_page(memory, ctx.latency, pfn) {
                Some(cost) if cost <= time_left => time_left -= cost,
                Some(_) | None => break,
            }
        }
        scratch.into_pool(memory);
    }

    /// The shared end of every tick: kswapd on `nodes`, then the huge-page
    /// daemons, then the hint sampler when its timer fires.
    pub(crate) fn run(&mut self, ctx: &mut PolicyCtx<'_>, nodes: NodeList) {
        for node in nodes {
            self.kswapd(ctx, node);
        }
        run_huge_daemons(ctx, &mut self.huge_state);
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
    use tiered_mem::{NodeKind, VmEvent};

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
        let lat = LatencyModel::datacenter();
        f(&mut PolicyCtx {
            memory: m,
            latency: &lat,
            now_ns: 0,
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

    /// A 64/256-page machine with 1,024 swap slots and one process.
    fn swap_machine() -> (Memory, LatencyModel) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 256)
            .swap_pages(1024)
            .build();
        m.create_process(Pid(2));
        (m, LatencyModel::datacenter())
    }

    #[test]
    fn clean_file_pages_drop_dirty_ones_pay_writeback() {
        let (mut m, lat) = swap_machine();
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
        let (mut m, lat) = swap_machine();
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(2), Vpn(1), PageType::Tmpfs)
            .unwrap();
        evict_page(&mut m, &lat, pfn).unwrap();
        assert_eq!(m.swap().used_slots(), 1);
        assert_eq!(m.vmstat().get(VmEvent::PswpOut), 1);
    }
}
