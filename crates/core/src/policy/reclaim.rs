//! Shared LRU reclaim scanning: victim selection with second-chance
//! semantics and active-list aging, used by every policy's background
//! daemon.

use tiered_mem::{LruKind, Memory, NodeId, PageFlags, Pfn, TraceEvent, VmEvent};

/// Per-tick resource budget of a background daemon.
///
/// `scan_pages` models the kernel's priority-based scan throttling (a
/// kswapd wakeup only walks a bounded slice of the LRU); `time_ns` models
/// the daemon's CPU slice, which the *cost of the eviction mechanism*
/// (swap-out vs. migration) is paid from. The interplay of these two
/// budgets reproduces the paper's ~44× reclaim-rate gap between paging
/// and migration without hard-coding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DaemonBudget {
    /// Maximum pages scanned per wakeup.
    pub scan_pages: u32,
    /// Maximum daemon CPU per wakeup, in nanoseconds.
    pub time_ns: u64,
}

impl DaemonBudget {
    /// The throttled budget default Linux kswapd runs with (the kernel's
    /// priority-based scanning walks only a small LRU slice per wakeup).
    pub(crate) fn kswapd() -> DaemonBudget {
        DaemonBudget {
            scan_pages: 96,
            time_ns: 5_000_000,
        }
    }

    /// The budget of TPP's demotion daemon — same CPU slice, larger scan
    /// window (migration is cheap enough to act on what it scans).
    pub(crate) fn demoter() -> DaemonBudget {
        DaemonBudget {
            scan_pages: 2048,
            time_ns: 5_000_000,
        }
    }
}

/// Reusable buffers for [`select_victims_into`].
///
/// Background daemons scan every tick; holding the victim and rotation
/// lists across calls removes two heap allocations per tick per node.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReclaimScratch {
    /// Victims selected by the last scan, coldest first.
    pub(crate) victims: Vec<Pfn>,
    kind_victims: Vec<Pfn>,
}

impl ReclaimScratch {
    /// Borrows buffers from `memory`'s scratch pool.
    pub(crate) fn from_pool(memory: &mut Memory) -> ReclaimScratch {
        ReclaimScratch {
            victims: memory.take_pfn_scratch(),
            kind_victims: memory.take_pfn_scratch(),
        }
    }

    /// Hands the buffers back to `memory`'s scratch pool for reuse.
    pub(crate) fn into_pool(self, memory: &mut Memory) {
        memory.put_pfn_scratch(self.victims);
        memory.put_pfn_scratch(self.kind_victims);
    }
}

/// Scans up to `scan_budget` pages from `node`'s inactive tails and
/// leaves up to `want` reclaim victims in `scratch.victims`, coldest
/// first. The file inactive list is scanned before the anon one; every
/// policy scans both (TPP's demotion keeps pages in memory, §5.1).
///
/// Second-chance semantics mirror `shrink_inactive_list`:
/// * `REFERENCED` pages get their bit cleared and rotate away from the
///   tail (referenced anon pages are promoted to the active list),
/// * `UNEVICTABLE` pages rotate away untouched,
/// * everything else is a victim.
///
/// Victims remain linked at the tail of their list; the caller evicts
/// them via `migrate_page`, `swap_out`, or `drop_file_page` (each of
/// which maintains LRU consistency itself).
pub(crate) fn select_victims_into(
    memory: &mut Memory,
    node: NodeId,
    want: usize,
    scan_budget: usize,
    scratch: &mut ReclaimScratch,
) {
    let ReclaimScratch {
        victims,
        kind_victims,
    } = scratch;
    victims.clear();
    let mut scanned = 0usize;
    for kind in [LruKind::FileInactive, LruKind::AnonInactive] {
        // Age the matching active list first if inactive has run dry, so
        // reclaim always has something to look at (inactive/active
        // rebalancing, `inactive_is_low` analogue).
        balance_inactive(memory, node, kind);
        kind_victims.clear();
        let list_len = memory.node(node).lru.len(kind) as usize;
        let mut remaining = list_len;
        let scanned_before = scanned;
        while victims.len() + kind_victims.len() < want && scanned < scan_budget && remaining > 0 {
            let Some(pfn) = take_tail(memory, node, kind) else {
                break;
            };
            scanned += 1;
            remaining -= 1;
            let flags = memory.frames().frame(pfn).flags();
            if flags.contains(PageFlags::UNEVICTABLE) {
                relink_front(memory, node, kind, pfn);
            } else if flags.contains(PageFlags::REFERENCED) {
                memory
                    .frames_mut()
                    .frame_mut(pfn)
                    .flags_mut()
                    .remove(PageFlags::REFERENCED);
                if kind.is_anon() {
                    // Referenced anon pages are activated, not rotated.
                    relink_front(memory, node, kind.counterpart(), pfn);
                    memory.vmstat_mut().count(VmEvent::PgActivate);
                } else {
                    relink_front(memory, node, kind, pfn);
                }
            } else {
                kind_victims.push(pfn);
            }
        }
        // Put victims back at the tail, coldest at the very end.
        for &pfn in kind_victims.iter().rev() {
            relink_back(memory, node, kind, pfn);
        }
        // One batched scan event per list: `pgscan` advances by exactly
        // the number of pages this loop visited.
        if scanned > scanned_before {
            memory.record(TraceEvent::ReclaimScan {
                node,
                pages: (scanned - scanned_before) as u64,
            });
        }
        victims.append(kind_victims);
        if victims.len() >= want || scanned >= scan_budget {
            break;
        }
    }
}

/// Moves pages from the active tail to the inactive head until the
/// inactive list holds at least a third of the class, clearing
/// `REFERENCED` along the way (`shrink_active_list` analogue).
fn age_active_list(memory: &mut Memory, node: NodeId, inactive: LruKind, batch: usize) {
    let active = inactive.counterpart();
    for _ in 0..batch {
        let Some(pfn) = take_tail(memory, node, active) else {
            break;
        };
        let frame = memory.frames_mut().frame_mut(pfn);
        let was_ref = frame.flags_mut().test_and_clear(PageFlags::REFERENCED);
        if was_ref {
            // Recently used: one more round on the active list.
            relink_front(memory, node, active, pfn);
        } else {
            relink_front(memory, node, inactive, pfn);
            memory.vmstat_mut().count(VmEvent::PgDeactivate);
        }
    }
}

fn balance_inactive(memory: &mut Memory, node: NodeId, inactive: LruKind) {
    let active_len = memory.node(node).lru.len(inactive.counterpart());
    let inactive_len = memory.node(node).lru.len(inactive);
    if inactive_len * 2 < active_len {
        let deficit = (active_len / 3).saturating_sub(inactive_len) as usize;
        age_active_list(memory, node, inactive, deficit.min(512));
    }
}

fn take_tail(memory: &mut Memory, node: NodeId, kind: LruKind) -> Option<Pfn> {
    let (lru, frames) = memory.lru_and_frames_mut(node);
    lru.pop_back(frames, kind)
}

fn relink_front(memory: &mut Memory, node: NodeId, kind: LruKind, pfn: Pfn) {
    let (lru, frames) = memory.lru_and_frames_mut(node);
    lru.push_front(frames, kind, pfn);
}

fn relink_back(memory: &mut Memory, node: NodeId, kind: LruKind, pfn: Pfn) {
    let (lru, frames) = memory.lru_and_frames_mut(node);
    lru.push_back(frames, kind, pfn);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeKind, PageType, Pid, Vpn};

    /// The victims one [`select_victims_into`] call selects.
    fn scan_victims(memory: &mut Memory, node: NodeId, want: usize, scan: usize) -> Vec<Pfn> {
        let mut scratch = ReclaimScratch::default();
        select_victims_into(memory, node, want, scan, &mut scratch);
        scratch.victims
    }

    fn setup(n_file: u64, n_anon: u64) -> (Memory, Vec<Pfn>, Vec<Pfn>) {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, n_file + n_anon + 8)
            .node(NodeKind::Cxl, 16)
            .build();
        m.create_process(Pid(1));
        let files = (0..n_file)
            .map(|i| {
                m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                    .unwrap()
            })
            .collect();
        let anons = (0..n_anon)
            .map(|i| {
                let pfn = m
                    .alloc_and_map(NodeId(0), Pid(1), Vpn(1000 + i), PageType::Anon)
                    .unwrap();
                // New anon pages start active; deactivate them so the
                // inactive list has content for these tests.
                m.deactivate_page(pfn);
                pfn
            })
            .collect();
        (m, files, anons)
    }

    #[test]
    fn coldest_file_pages_selected_first() {
        let (mut m, files, _) = setup(8, 0);
        let victims = scan_victims(&mut m, NodeId(0), 3, 64);
        // Files were pushed to the front in order, so the coldest (tail)
        // is the first allocated.
        assert_eq!(victims, files[..3].to_vec());
        // Victims are still on the LRU.
        for &v in &victims {
            assert!(m.frames().frame(v).lru_kind().is_some());
        }
        m.validate();
    }

    #[test]
    fn referenced_pages_get_second_chance() {
        let (mut m, files, _) = setup(4, 0);
        // Mark the two coldest as referenced.
        for &pfn in &files[..2] {
            m.frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .insert(PageFlags::REFERENCED);
        }
        let victims = scan_victims(&mut m, NodeId(0), 2, 64);
        assert_eq!(victims, vec![files[2], files[3]]);
        // Referenced bits were consumed.
        for &pfn in &files[..2] {
            assert!(!m
                .frames()
                .frame(pfn)
                .flags()
                .contains(PageFlags::REFERENCED));
            assert_eq!(
                m.frames().frame(pfn).lru_kind(),
                Some(LruKind::FileInactive)
            );
        }
        m.validate();
    }

    #[test]
    fn referenced_anon_pages_are_activated() {
        let (mut m, _, anons) = setup(0, 4);
        m.frames_mut()
            .frame_mut(anons[0])
            .flags_mut()
            .insert(PageFlags::REFERENCED);
        let victims = scan_victims(&mut m, NodeId(0), 1, 64);
        assert_eq!(victims, vec![anons[1]]);
        assert_eq!(
            m.frames().frame(anons[0]).lru_kind(),
            Some(LruKind::AnonActive)
        );
        m.validate();
    }

    #[test]
    fn unevictable_pages_are_skipped() {
        let (mut m, files, _) = setup(3, 0);
        m.frames_mut()
            .frame_mut(files[0])
            .flags_mut()
            .insert(PageFlags::UNEVICTABLE);
        let victims = scan_victims(&mut m, NodeId(0), 3, 64);
        assert_eq!(victims, vec![files[1], files[2]]);
        m.validate();
    }

    #[test]
    fn scan_budget_caps_work() {
        let (mut m, files, _) = setup(16, 0);
        // Every page referenced: with a scan budget of 4, nothing is
        // selected and only 4 pages are scanned.
        for &pfn in &files {
            m.frames_mut()
                .frame_mut(pfn)
                .flags_mut()
                .insert(PageFlags::REFERENCED);
        }
        let before = m.vmstat().get(VmEvent::PgScan);
        let victims = scan_victims(&mut m, NodeId(0), 8, 4);
        assert!(victims.is_empty());
        assert_eq!(m.vmstat().get(VmEvent::PgScan) - before, 4);
        m.validate();
    }

    #[test]
    fn file_victims_preferred_over_anon() {
        let (mut m, files, anons) = setup(2, 4);
        let victims = scan_victims(&mut m, NodeId(0), 3, 64);
        assert_eq!(victims.len(), 3);
        assert_eq!(&victims[..2], &files[..2]);
        assert_eq!(victims[2], anons[0]);
        m.validate();
    }

    #[test]
    fn aging_refills_inactive_from_active() {
        let mut m = Memory::builder().node(NodeKind::LocalDram, 32).build();
        m.create_process(Pid(1));
        // New anon pages land on the *active* list.
        for i in 0..8 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        assert_eq!(m.node(NodeId(0)).lru.len(LruKind::AnonInactive), 0);
        // select_victims_into internally rebalances, so victims appear even
        // though everything started active.
        let victims = scan_victims(&mut m, NodeId(0), 2, 64);
        assert_eq!(victims.len(), 2);
        assert!(m.node(NodeId(0)).lru.len(LruKind::AnonInactive) > 0);
        m.validate();
    }

    #[test]
    fn budgets_have_expected_asymmetry() {
        assert!(DaemonBudget::demoter().scan_pages > DaemonBudget::kswapd().scan_pages * 8);
        assert_eq!(
            DaemonBudget::demoter().time_ns,
            DaemonBudget::kswapd().time_ns
        );
    }
}
