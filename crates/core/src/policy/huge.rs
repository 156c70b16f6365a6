//! Huge-page background machinery shared by the policies: a
//! **khugepaged**-style collapse scanner that assembles aligned runs of
//! warm base pages into compound pages, and a **kcompactd**-style
//! compaction daemon that defragments nodes back to allocable
//! order-[`MAX_PAGE_ORDER`] blocks.
//!
//! Both daemons are complete no-ops when the machine runs with
//! [`ThpMode::Never`], so existing base-page experiments are untouched.
//! Under [`ThpMode::Madvise`] there is no fault-time THP allocation, but
//! khugepaged still collapses eligible windows in the background — the
//! kernel's behaviour for madvised regions, applied here to every anon
//! mapping. [`ThpMode::Always`] adds fault-time allocation on top (see
//! the shared fault path, `engine::fault`).

use tiered_mem::{
    Memory, NodeId, PageFlags, Pfn, PidTable, ThpMode, TraceEvent, Vpn, HUGE_PAGE_FRAMES,
    MAX_PAGE_ORDER,
};
use tiered_sim::LatencyModel;

use super::reclaim::DaemonBudget;
use super::PolicyCtx;

/// Cost multiplier for migrating a compound page as one unit, relative to
/// one base-page migration.
///
/// Moving 2 MiB is one decision, one PTE batch, and one long sequential
/// copy — far cheaper than 512 independent page migrations (which is the
/// entire point of migrating compounds whole), but clearly more than one.
/// The same factor prices khugepaged's 512-page collapse copy.
pub const COMPOUND_MIGRATE_FACTOR: u64 = 8;

/// khugepaged's per-wakeup budget: `scan_pages` counts base pages
/// examined (one 512-page window per eligibility check), `time_ns` pays
/// for scan work and collapse copies. Four windows' worth of eligibility
/// checks per wakeup — khugepaged is deliberately slow in the kernel too.
pub const KHUGEPAGED_BUDGET: DaemonBudget = DaemonBudget {
    scan_pages: 4 * HUGE_PAGE_FRAMES as u32,
    time_ns: 5_000_000,
};

/// kcompactd's per-node per-wakeup budget: `scan_pages` bounds the
/// migration scanner, `time_ns` pays for page relocations.
pub const KCOMPACTD_BUDGET: DaemonBudget = DaemonBudget {
    scan_pages: 4096,
    time_ns: 5_000_000,
};

/// Fragmentation gate in milli-units (0..=1000): compaction only runs
/// when the node's unusable-free-space index for order
/// [`MAX_PAGE_ORDER`] exceeds this (kernel `sysctl_extfrag_threshold`).
const FRAG_THRESHOLD_MILLI: u32 = 500;

/// Cursor and scratch state of the huge-page daemons, owned by each
/// policy instance.
#[derive(Clone, Debug, Default)]
pub struct HugeState {
    /// khugepaged's per-process window cursor (`khugepaged_scan.address`
    /// analogue): successive wakeups resume where the last stopped. It is
    /// the rank of the next window among the process's occupied windows,
    /// not an address.
    khugepaged_cursor: PidTable<u64>,
    /// Per-node migration-scanner position, as a node-relative PFN.
    compact_cursor: Vec<u32>,
    /// Reused buffer for the windows one wakeup visits in a process.
    window_scratch: Vec<Vpn>,
}

/// Runs one wakeup of both huge-page daemons: khugepaged over every
/// process with [`KHUGEPAGED_BUDGET`], then kcompactd over every node
/// with [`KCOMPACTD_BUDGET`]. No-op under [`ThpMode::Never`].
pub(crate) fn run_huge_daemons(ctx: &mut PolicyCtx<'_>, state: &mut HugeState) {
    if ctx.memory.thp_mode() == ThpMode::Never {
        return;
    }
    khugepaged_pass(state, ctx.memory, ctx.latency, KHUGEPAGED_BUDGET);
    for i in 0..ctx.memory.node_count() {
        kcompactd_pass(
            state,
            ctx.memory,
            ctx.latency,
            NodeId(i as u8),
            KCOMPACTD_BUDGET,
        );
    }
}

/// One khugepaged wakeup: walks each process's mapped address space in
/// aligned 512-page windows from a persistent cursor and collapses every
/// eligible window ([`Memory::collapse_candidate`]) into a compound page.
/// Returns the number of windows collapsed.
pub fn khugepaged_pass(
    state: &mut HugeState,
    memory: &mut Memory,
    latency: &LatencyModel,
    budget: DaemonBudget,
) -> u64 {
    if memory.thp_mode() == ThpMode::Never {
        return 0;
    }
    let mut scanned = 0u64;
    let mut time_left = budget.time_ns;
    let mut collapsed = 0u64;
    for pid in memory.pids() {
        if scanned >= budget.scan_pages as u64 || time_left == 0 {
            break;
        }
        let space = memory.space(pid);
        let windows = space.window_count();
        if windows == 0 {
            continue;
        }
        let start = (*state.khugepaged_cursor.get(pid).unwrap_or(&0) as usize) % windows;
        // Gather the windows in scan order, from the cursor rank and
        // wrapping once; collapses below need `memory` mutably.
        state.window_scratch.clear();
        state.window_scratch.extend(
            space
                .window_bases()
                .skip(start)
                .chain(space.window_bases())
                .take(windows),
        );
        let mut idx = start;
        for &base in &state.window_scratch {
            if scanned >= budget.scan_pages as u64 || time_left == 0 {
                break;
            }
            idx = (idx + 1) % windows;
            scanned += HUGE_PAGE_FRAMES;
            time_left = time_left.saturating_sub(latency.scan_page_ns * HUGE_PAGE_FRAMES);
            if let Some(node) = memory.collapse_candidate(pid, base) {
                if memory.collapse_range(pid, base, node).is_ok() {
                    collapsed += 1;
                    time_left =
                        time_left.saturating_sub(latency.migrate_page_ns * COMPOUND_MIGRATE_FACTOR);
                }
            }
        }
        state.khugepaged_cursor.insert(pid, idx as u64);
    }
    collapsed
}

/// One kcompactd wakeup on `node`. Returns the number of pages relocated.
///
/// The daemon only wakes when the node can no longer serve an
/// order-[`MAX_PAGE_ORDER`] allocation *and* its unusable-free-space
/// index exceeds one half (`FRAG_THRESHOLD_MILLI`) — i.e. there is
/// enough free memory, it is just scattered. It then runs the two
/// classic scanners toward each other:
///
/// * the **migration scanner** walks node-relative PFNs upward from a
///   persistent cursor looking for movable base pages (LRU-linked, not
///   compound, not pinned),
/// * the **free scanner** walks downward from the top of the node
///   grabbing free frames with [`tiered_mem::FrameTable::reserve_page`],
///   skipping windows that are already pristine max-order blocks.
///
/// Each pair is relocated with [`Memory::compact_relocate`]; the pass
/// ends when a budget runs dry or the scanners meet, and records one
/// [`TraceEvent::Compact`] whose `success` says whether a max-order block
/// exists afterwards.
pub fn kcompactd_pass(
    state: &mut HugeState,
    memory: &mut Memory,
    latency: &LatencyModel,
    node: NodeId,
    budget: DaemonBudget,
) -> u64 {
    if memory.thp_mode() == ThpMode::Never {
        return 0;
    }
    let frag = memory.frames().unusable_free_index(node, MAX_PAGE_ORDER);
    let triggered = memory.frames().free_blocks(node, MAX_PAGE_ORDER) == 0
        && memory.free_pages(node) >= HUGE_PAGE_FRAMES
        && frag * 1000.0 > FRAG_THRESHOLD_MILLI as f64;
    if !triggered {
        return 0;
    }
    memory.record(TraceEvent::DaemonWake {
        daemon: "kcompactd",
        node: Some(node),
    });
    let range = memory.frames().pfn_range(node);
    let start = range.start;
    let cap = range.end - range.start;
    if state.compact_cursor.len() < memory.node_count() {
        state.compact_cursor.resize(memory.node_count(), 0);
    }
    let mut mig = state.compact_cursor[node.index()].min(cap);
    let mut free_rel = cap;
    let mut migrated = 0u64;
    let mut time_left = budget.time_ns;
    let mut scan_left = budget.scan_pages as u64;
    while time_left >= latency.migrate_page_ns && scan_left > 0 && mig < free_rel {
        // Migration scanner: the next movable base page at or above `mig`.
        let mut src = None;
        while mig < free_rel && scan_left > 0 {
            let pfn = Pfn(start + mig);
            mig += 1;
            scan_left -= 1;
            let f = memory.frames().frame(pfn);
            if f.is_allocated()
                && f.lru_kind().is_some()
                && !f.flags().intersects(
                    PageFlags::HEAD
                        | PageFlags::TAIL
                        | PageFlags::ISOLATED
                        | PageFlags::UNEVICTABLE,
                )
            {
                src = Some(pfn);
                break;
            }
        }
        let Some(src) = src else { break };
        // Free scanner: the next grabbable free frame below `free_rel`.
        let mut dst = None;
        while free_rel > mig {
            free_rel -= 1;
            let pfn = Pfn(start + free_rel);
            if memory.frames().frame(pfn).is_allocated() {
                continue;
            }
            // Don't cannibalise a window that is already a pristine
            // max-order block — that would undo the daemon's own work.
            let window_head = Pfn(start + (free_rel & !(HUGE_PAGE_FRAMES as u32 - 1)));
            let head_frame = memory.frames().frame(window_head);
            if head_frame.flags().contains(PageFlags::BUDDY) && head_frame.order() == MAX_PAGE_ORDER
            {
                continue;
            }
            if memory.frames_mut().reserve_page(pfn) {
                dst = Some(pfn);
                break;
            }
        }
        let Some(dst) = dst else { break };
        memory.compact_relocate(src, dst);
        migrated += 1;
        time_left = time_left.saturating_sub(latency.migrate_page_ns);
    }
    state.compact_cursor[node.index()] = if mig >= free_rel { 0 } else { mig };
    let success = memory.frames().free_blocks(node, MAX_PAGE_ORDER) > 0;
    memory.record(TraceEvent::Compact {
        node,
        migrated,
        success,
    });
    migrated
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeKind, PageLocation, PageType, Pid, VmEvent};

    fn thp_machine(mode: ThpMode, pages: u64) -> Memory {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, pages)
            .thp_mode(mode)
            .build();
        m.create_process(Pid(1));
        m
    }

    #[test]
    fn khugepaged_collapses_a_warm_resident_window() {
        let mut m = thp_machine(ThpMode::Madvise, 2048);
        for i in 0..HUGE_PAGE_FRAMES {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        // Warm gate: one referenced page suffices.
        let pfn = match m.space(Pid(1)).translate(Vpn(3)).unwrap() {
            PageLocation::Mapped(pfn) => pfn,
            other => panic!("unexpected {other:?}"),
        };
        m.frames_mut()
            .frame_mut(pfn)
            .flags_mut()
            .insert(PageFlags::REFERENCED);
        let mut state = HugeState::default();
        let lat = LatencyModel::datacenter();
        let collapsed = khugepaged_pass(&mut state, &mut m, &lat, DaemonBudget::demoter());
        assert_eq!(collapsed, 1);
        assert_eq!(m.vmstat().get(VmEvent::ThpCollapseAlloc), 1);
        let head = match m.space(Pid(1)).translate(Vpn(0)).unwrap() {
            PageLocation::Mapped(pfn) => pfn,
            other => panic!("unexpected {other:?}"),
        };
        assert!(m.frames().frame(head).flags().contains(PageFlags::HEAD));
        m.validate();
    }

    #[test]
    fn khugepaged_is_a_noop_under_never() {
        let mut m = thp_machine(ThpMode::Never, 2048);
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
            m.frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .insert(PageFlags::REFERENCED);
        }
        let mut state = HugeState::default();
        let lat = LatencyModel::datacenter();
        assert_eq!(
            khugepaged_pass(&mut state, &mut m, &lat, DaemonBudget::demoter()),
            0
        );
        assert_eq!(m.vmstat().get(VmEvent::ThpCollapseAlloc), 0);
    }

    #[test]
    fn khugepaged_cursor_resumes_across_wakeups() {
        let mut m = thp_machine(ThpMode::Always, 4096);
        // Three fully resident warm windows.
        for w in 0..3u64 {
            for i in 0..HUGE_PAGE_FRAMES {
                let pfn = m
                    .alloc_and_map(NodeId(0), Pid(1), Vpn(w * 4096 + i), PageType::Anon)
                    .unwrap();
                m.frames_mut().frame_mut(pfn).touch_hotness();
            }
        }
        let mut state = HugeState::default();
        let lat = LatencyModel::datacenter();
        // One window's worth of scan budget per wakeup.
        let budget = DaemonBudget {
            scan_pages: HUGE_PAGE_FRAMES as u32,
            time_ns: 5_000_000,
        };
        for _ in 0..3 {
            assert_eq!(khugepaged_pass(&mut state, &mut m, &lat, budget), 1);
        }
        assert_eq!(m.vmstat().get(VmEvent::ThpCollapseAlloc), 3);
        assert_eq!(khugepaged_pass(&mut state, &mut m, &lat, budget), 0);
        m.validate();
    }

    #[test]
    fn khugepaged_rank_cursor_wraps_after_the_space_shrinks() {
        let mut m = thp_machine(ThpMode::Always, 4096);
        let w = HUGE_PAGE_FRAMES;
        // Four sparse windows below two full warm ones, every page
        // inserted in shuffled order.
        let sparse = [0, 5 * w, 9 * w, 12 * w];
        let full = [20 * w, 31 * w];
        let mut vpns: Vec<u64> = sparse.iter().flat_map(|&b| b..b + 3).collect();
        vpns.extend(full.iter().flat_map(|&b| b..b + w));
        let n = vpns.len();
        let map_warm = |m: &mut Memory, vpn: u64| {
            let pfn = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(vpn), PageType::Anon)
                .unwrap();
            m.frames_mut().frame_mut(pfn).touch_hotness();
        };
        for k in 0..n {
            map_warm(&mut m, vpns[(k * 7919) % n]);
        }
        let huge = |m: &Memory, base: u64| match m.space(Pid(1)).translate(Vpn(base)) {
            Some(PageLocation::Mapped(pfn)) => {
                m.frames().frame(pfn).flags().contains(PageFlags::HEAD)
            }
            _ => false,
        };
        let mut state = HugeState::default();
        let lat = LatencyModel::datacenter();
        let one = DaemonBudget {
            scan_pages: w as u32,
            time_ns: 5_000_000,
        };
        // Ranks 0..4 are the sparse windows: nothing to collapse.
        for _ in 0..4 {
            assert_eq!(khugepaged_pass(&mut state, &mut m, &lat, one), 0);
        }
        // Six windows shrink to three, so cursor rank 4 wraps to rank 1.
        for &base in &sparse[1..] {
            for vpn in base..base + 3 {
                m.release(Pid(1), Vpn(vpn));
            }
        }
        assert_eq!(m.space(Pid(1)).window_count(), 3);
        assert_eq!(khugepaged_pass(&mut state, &mut m, &lat, one), 1);
        assert!(huge(&m, full[0]) && !huge(&m, full[1]));
        // Fill the first window; a two-window pass from rank 2 collapses
        // the last window, then wraps to rank 0 and collapses it too.
        for vpn in 3..w {
            map_warm(&mut m, vpn);
        }
        let two = DaemonBudget {
            scan_pages: 2 * w as u32,
            ..one
        };
        assert_eq!(khugepaged_pass(&mut state, &mut m, &lat, two), 2);
        assert!(huge(&m, 0) && huge(&m, full[1]));
        m.validate();
    }

    #[test]
    fn kcompactd_reassembles_a_max_order_block() {
        let mut m = thp_machine(ThpMode::Always, 2048);
        // Fill the node with base pages, then free every other one: 1024
        // free pages, none of them mergeable — worst-case fragmentation.
        for i in 0..2048 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        for i in (0..2048).step_by(2) {
            m.release(Pid(1), Vpn(i));
        }
        assert_eq!(m.frames().free_blocks(NodeId(0), MAX_PAGE_ORDER), 0);
        assert!(m.frames().unusable_free_index(NodeId(0), MAX_PAGE_ORDER) > 0.99);
        let mut state = HugeState::default();
        let lat = LatencyModel::datacenter();
        let moved = kcompactd_pass(
            &mut state,
            &mut m,
            &lat,
            NodeId(0),
            DaemonBudget {
                scan_pages: 4096,
                time_ns: 100_000_000,
            },
        );
        assert!(moved > 0, "compaction relocated nothing");
        assert!(
            m.frames().free_blocks(NodeId(0), MAX_PAGE_ORDER) > 0,
            "no max-order block after compaction"
        );
        assert_eq!(m.vmstat().get(VmEvent::CompactSuccess), 1);
        assert_eq!(m.vmstat().get(VmEvent::CompactFail), 0);
        m.validate();
    }

    #[test]
    fn kcompactd_does_not_wake_without_fragmentation() {
        let mut m = thp_machine(ThpMode::Always, 2048);
        for i in 0..64 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        let mut state = HugeState::default();
        let lat = LatencyModel::datacenter();
        // Max-order blocks still exist: no wakeup, no events.
        assert_eq!(
            kcompactd_pass(&mut state, &mut m, &lat, NodeId(0), DaemonBudget::demoter()),
            0
        );
        assert_eq!(m.vmstat().get(VmEvent::CompactSuccess), 0);
        assert_eq!(m.vmstat().get(VmEvent::CompactFail), 0);
    }

    #[test]
    fn compact_fail_is_counted_when_the_budget_is_too_small() {
        let mut m = thp_machine(ThpMode::Always, 2048);
        for i in 0..2048 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        for i in (0..2048).step_by(2) {
            m.release(Pid(1), Vpn(i));
        }
        let mut state = HugeState::default();
        let lat = LatencyModel::datacenter();
        // Room for only a handful of relocations: the pass runs but
        // cannot finish a block.
        kcompactd_pass(
            &mut state,
            &mut m,
            &lat,
            NodeId(0),
            DaemonBudget {
                scan_pages: 16,
                time_ns: 100_000_000,
            },
        );
        assert_eq!(m.vmstat().get(VmEvent::CompactFail), 1);
        assert_eq!(m.frames().free_blocks(NodeId(0), MAX_PAGE_ORDER), 0);
        m.validate();
    }
}
