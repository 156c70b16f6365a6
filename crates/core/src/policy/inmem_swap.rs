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

use tiered_mem::{Memory, NodeList, PageType, Pfn, Pid, TraceEvent, Vpn};

use super::engine::{all_nodes, direct_reclaim, fault, reclaim_pass, Daemons, SwapBacking, Victim};
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
    /// run as under every policy.
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

/// The in-memory pool as swap backing: swap-ins come back fast (a hint
/// fault plus a copy), and direct reclaim into the pool takes up to 32
/// pages from a 512-page scan. Pages not in swap cost what they normally
/// cost.
const POOL: SwapBacking = SwapBacking {
    swap_in_ns: |latency| latency.hint_fault_ns + SWAP_IN_NS,
    reclaim: |ctx, node| {
        direct_reclaim(ctx.memory, node, 32, 512, |memory, pfn| {
            swap_to_pool(memory, pfn).then_some(SWAP_OUT_NS)
        })
    },
};

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
        let home = ctx.memory.home_node(pid);
        fault(ctx, pid, vpn, page_type, home, "inmem_swap", &POOL)
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
    use tiered_mem::{NodeId, NodeKind, PageFlags, ThpMode, VmEvent};
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

    #[test]
    fn always_mode_anon_first_touch_allocates_a_compound_page() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .swap_pages(1024)
            .thp_mode(ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let lat = LatencyModel::datacenter();
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let out = InMemorySwap::new().handle_fault(&mut ctx, Pid(1), Vpn(700), PageType::Anon);
        assert_eq!(m.vmstat().get(VmEvent::ThpFaultAlloc), 1);
        let head = m.compound_head(out.pfn);
        assert!(m.frames().frame(head).flags().contains(PageFlags::HEAD));
        m.validate();
    }

    #[test]
    fn a_fault_with_every_node_at_min_reclaims_into_the_pool() {
        let (mut m, lat, mut p) = setup();
        let mut vpn = 0;
        for node in [NodeId(0), NodeId(1)] {
            let min = m.node(node).watermarks().base.min;
            while m.free_pages(node) > min {
                m.alloc_and_map(node, Pid(1), Vpn(vpn), PageType::Anon)
                    .unwrap();
                vpn += 1;
            }
        }
        let mut ctx = PolicyCtx {
            memory: &mut m,
            latency: &lat,
            now_ns: 0,
        };
        let out = p.handle_fault(&mut ctx, Pid(1), Vpn(10_000), PageType::Anon);
        assert_eq!(m.vmstat().get(VmEvent::PgAllocStall), 1);
        assert!(m.vmstat().get(VmEvent::PswpOut) > 0);
        assert!(m.swap().used_slots() > 0);
        assert!(out.cost_ns >= lat.minor_fault_ns + SWAP_OUT_NS);
        m.validate();
    }
}
