//! An in-memory-swap baseline (zswap/zram-style), the alternative the
//! paper's related-work section argues against (§7): cold pages are
//! "swapped" into a fast in-memory pool (here: CXL-backed, so swap I/O
//! costs are copy-like rather than disk-like), but **every access to a
//! swapped-out page takes a page fault** and must be brought back before
//! use.
//!
//! The paper's point, which the evaluation here reproduces: when
//! CXL-Memory is part of the main memory (TPP), less frequently accessed
//! pages can live there and still be accessed directly with no fault;
//! with in-memory swapping, pages of intermediate temperature bounce
//! through the fault path on every cold re-access, which hurts workloads
//! that touch pages at varied frequencies.

use tiered_mem::{Memory, NodeList, PageKey, PageLocation, PageType, Pfn, Pid, TraceEvent, Vpn};

use super::engine::{all_nodes, direct_reclaim, reclaim_pass, Daemons, Victim};
use super::linux_default::{materialise_cost_ns, try_place};
use super::reclaim::DaemonBudget;
use super::{FaultOutcome, PlacementPolicy, PolicyCtx};

/// Cost of compressing/copying one page out to the in-memory pool.
const SWAP_OUT_NS: u64 = 4_000;
/// Cost of bringing one page back (fault handling + copy).
const SWAP_IN_NS: u64 = 6_000;
/// Pool reclaim daemon budget (generous: in-memory swap is cheap).
const POOL_BUDGET: DaemonBudget = DaemonBudget {
    scan_pages: 512,
    time_ns: 5_000_000,
};

/// zswap-style placement: reclaim to a fast in-memory pool, fault pages
/// back on access, no migration and no NUMA awareness.
#[derive(Clone, Debug)]
pub struct InMemorySwap {
    /// No kswapd (the pool reclaimer replaces it); the huge-page daemons
    /// run with default knobs.
    daemons: Daemons,
}

impl InMemorySwap {
    /// Creates the policy.
    pub(crate) fn new() -> InMemorySwap {
        InMemorySwap {
            daemons: Daemons::new(None),
        }
    }
}

impl Default for InMemorySwap {
    fn default() -> InMemorySwap {
        InMemorySwap::new()
    }
}

/// Swaps the victim at `pfn` into the in-memory pool (zram holds any
/// page, file pages included). Returns whether the pool took it.
fn swap_to_pool(memory: &mut Memory, pfn: Pfn) -> bool {
    let frame = memory.frames().frame(pfn);
    let (page, node) = (frame.owner().expect("victim is allocated"), frame.node());
    let swapped = memory.swap_out(pfn).is_ok();
    if swapped {
        memory.record(TraceEvent::ReclaimSteal { page, node });
    }
    swapped
}

impl PlacementPolicy for InMemorySwap {
    fn name(&self) -> &str {
        "inmem_swap"
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let prefer = ctx.memory.home_node(pid);
        let was_swapped = matches!(
            ctx.memory.space(pid).translate(vpn),
            Some(PageLocation::Swapped(_))
        );
        // Swap-ins come back fast (in-memory pool), everything else costs
        // what it normally costs.
        let base_cost = if was_swapped {
            ctx.latency.hint_fault_ns + SWAP_IN_NS
        } else {
            materialise_cost_ns(ctx.latency, page_type, false)
        };
        for node in ctx.memory.fallback_order(prefer) {
            let wm = ctx.memory.node(node).watermarks().base;
            if !wm.allows_allocation(ctx.memory.free_pages(node)) {
                continue;
            }
            if let Some(pfn) = try_place(ctx.memory, node, pid, vpn, page_type, was_swapped) {
                return FaultOutcome {
                    pfn,
                    cost_ns: base_cost,
                };
            }
        }
        // Synchronous reclaim into the pool (fast), escalating the scan
        // budget like direct reclaim does until at least one page frees.
        ctx.memory.record(TraceEvent::AllocStall { node: prefer });
        ctx.memory.record(TraceEvent::Decision {
            policy: "inmem_swap",
            reason: "alloc_stall_sync_pool_reclaim",
            page: Some(PageKey::new(pid, vpn)),
        });
        let cost = base_cost
            + direct_reclaim(ctx.memory, prefer, 32, 512, |memory, pfn| {
                swap_to_pool(memory, pfn).then_some(SWAP_OUT_NS)
            });
        for node in ctx.memory.fallback_order(prefer) {
            if let Some(pfn) = try_place(ctx.memory, node, pid, vpn, page_type, was_swapped) {
                return FaultOutcome { pfn, cost_ns: cost };
            }
        }
        panic!("simulated OOM under in-memory swap: {pid}:{vpn}");
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        for node in all_nodes(ctx.memory) {
            let wm = ctx.memory.node(node).watermarks().base;
            if !wm.needs_reclaim(ctx.memory.free_pages(node)) {
                continue;
            }
            ctx.memory.record(TraceEvent::DaemonWake {
                daemon: "pool_reclaim",
                node: Some(node),
            });
            reclaim_pass(ctx, node, wm.high, POOL_BUDGET, |ctx, pfn| {
                if swap_to_pool(ctx.memory, pfn) {
                    Victim::Moved(SWAP_OUT_NS)
                } else {
                    Victim::Exhausted
                }
            });
        }
        self.daemons.run(ctx, NodeList::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::VmEvent;
    use tiered_mem::{Memory, NodeId, NodeKind};
    use tiered_sim::LatencyModel;

    fn setup() -> (Memory, LatencyModel, InMemorySwap) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 64)
            .swap_pages(1024)
            .build();
        m.create_process(Pid(1));
        (m, LatencyModel::datacenter(), InMemorySwap::new())
    }

    #[test]
    fn reclaim_swaps_everything_including_files() {
        let (mut m, lat, mut p) = setup();
        let min = m.node(NodeId(0)).watermarks().base.min;
        for i in 0..(64 - min) {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::File);
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        p.tick(&mut ctx);
        assert!(
            m.swap().used_slots() > 0,
            "files should land in the pool too"
        );
        assert_eq!(m.vmstat().get(VmEvent::PgDropFile), 0);
        m.validate();
    }

    #[test]
    fn swapped_page_faults_back_cheaply() {
        let (mut m, lat, mut p) = setup();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let out = p.handle_fault(&mut ctx, Pid(1), Vpn(7), PageType::Anon);
        m.swap_out(out.pfn).unwrap();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let back = p.handle_fault(&mut ctx, Pid(1), Vpn(7), PageType::Anon);
        // Much cheaper than a disk swap-in, costlier than a plain touch.
        assert!(back.cost_ns < lat.swap_in_total_ns() / 2);
        assert!(back.cost_ns >= SWAP_IN_NS);
        m.validate();
    }

    #[test]
    fn no_migration_ever_happens() {
        let (mut m, lat, mut p) = setup();
        for i in 0..50 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.handle_fault(&mut ctx, Pid(1), Vpn(i), PageType::Anon);
        }
        for _ in 0..5 {
            let mut ctx = PolicyCtx {
                memory: &mut m,
                latency: &lat,
                now_ns: 0,
            };
            p.tick(&mut ctx);
        }
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateSuccess), 0);
        assert_eq!(m.vmstat().demoted_total(), 0);
    }
}
