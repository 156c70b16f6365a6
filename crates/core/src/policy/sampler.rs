//! NUMA hint-fault sampling: the kernel scanner that poisons PTEs so the
//! next access takes a minor fault (paper §4.2).
//!
//! A kernel task periodically walks a window of each process's address
//! space and marks resident pages `HINTED`. When the application touches
//! a hinted page the runner raises a hint fault and the policy decides
//! whether to promote.
//!
//! TPP's crucial tweak (§5.3) is the [`SampleScope::CxlOnly`] mode:
//! sampling local-node pages is pure overhead on a tiered machine, so
//! TPP restricts the scanner to CPU-less nodes. Default NUMA balancing
//! samples everything.

use tiered_mem::{Memory, PageFlags, PageLocation, PidTable, VmEvent};

/// Which nodes the scanner installs hint PTEs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SampleScope {
    /// All nodes (default NUMA balancing): local pages generate useless
    /// hint faults, costing CPU.
    AllNodes,
    /// Only CPU-less (CXL) nodes — TPP's `NUMA_BALANCING_TIERED` mode.
    CxlOnly,
}

/// Scanner configuration.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Pages marked per scan period (the kernel's 256 MB default window,
    /// scaled to simulation size).
    pub pages_per_scan: u32,
    /// Scan period in nanoseconds.
    pub period_ns: u64,
    /// Node scope.
    pub scope: SampleScope,
}

impl SamplerConfig {
    /// A scanner suitable for the simulation scale: 4096 pages per second.
    pub(crate) fn scaled(scope: SampleScope) -> SamplerConfig {
        SamplerConfig {
            pages_per_scan: 4096,
            period_ns: tiered_sim::SEC,
            scope,
        }
    }
}

/// The hint-PTE scanner. Keeps one cursor per process so successive scans
/// cover successive windows of the address space, like
/// `task_numa_work`'s `mm->numa_scan_offset`. The cursor is a rank among
/// the process's VPNs in ascending order, not an address.
#[derive(Clone, Debug)]
pub struct HintSampler {
    config: SamplerConfig,
    cursors: PidTable<u64>,
    /// Reused per-scan buffer for the VPNs one scan visits in a process.
    visit: Vec<tiered_mem::Vpn>,
}

impl HintSampler {
    /// Creates a scanner.
    pub fn new(config: SamplerConfig) -> HintSampler {
        HintSampler {
            config,
            cursors: PidTable::new(),
            visit: Vec::new(),
        }
    }

    /// Runs one scan pass: marks up to `pages_per_scan` resident pages
    /// (within scope) as `HINTED`, advancing per-process cursors.
    /// Returns the number of PTEs updated.
    pub fn scan(&mut self, memory: &mut Memory) -> u32 {
        let mut marked = 0u32;
        let budget = self.config.pages_per_scan;
        let pids = memory.pids();
        if pids.is_empty() {
            return 0;
        }
        let per_pid = (budget / pids.len() as u32).max(1);
        for pid in pids {
            let space = memory.space(pid);
            let len = space.total_pages() as usize;
            if len == 0 {
                continue;
            }
            let start = *self.cursors.get(pid).unwrap_or(&0) as usize % len;
            // Gather the VPNs this scan may visit, from the cursor rank and
            // wrapping once; marking below needs `memory` mutably.
            self.visit.clear();
            self.visit.extend(
                space
                    .vpns_from_rank(start)
                    .chain(space.vpns_from_rank(0))
                    .take(len.min(per_pid as usize)),
            );
            let mut idx = start;
            for &vpn in &self.visit {
                if marked >= budget {
                    break;
                }
                idx = (idx + 1) % len;
                let Some(PageLocation::Mapped(pfn)) = memory.space(pid).translate(vpn) else {
                    continue;
                };
                let in_scope = match self.config.scope {
                    SampleScope::AllNodes => true,
                    SampleScope::CxlOnly => {
                        memory.node(memory.frames().frame(pfn).node()).is_cpu_less()
                    }
                };
                if !in_scope {
                    continue;
                }
                // Compound pages are sampled at head granularity: hinting
                // a tail could never fire (tails carry no LRU standing and
                // the head decides placement for the whole unit).
                if memory.frames().frame(pfn).flags().contains(PageFlags::TAIL) {
                    continue;
                }
                let frame = memory.frames_mut().frame_mut(pfn);
                if !frame.flags().contains(PageFlags::HINTED) {
                    frame.flags_mut().insert(PageFlags::HINTED);
                    marked += 1;
                    memory.vmstat_mut().count(VmEvent::NumaPteUpdates);
                }
            }
            self.cursors.insert(pid, idx as u64);
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeId, NodeKind, PageType, Pid, Vpn};

    fn machine() -> Memory {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 64)
            .build();
        m.create_process(Pid(1));
        for i in 0..16 {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        for i in 16..32 {
            m.alloc_and_map(NodeId(1), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        m
    }

    fn hinted_on(m: &Memory, node: NodeId) -> usize {
        m.frames()
            .allocated_on(node)
            .filter(|&p| m.frames().frame(p).flags().contains(PageFlags::HINTED))
            .count()
    }

    #[test]
    fn cxl_only_scope_never_marks_local_pages() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 1000,
            period_ns: 1,
            scope: SampleScope::CxlOnly,
        });
        let marked = s.scan(&mut m);
        assert_eq!(marked, 16);
        assert_eq!(hinted_on(&m, NodeId(0)), 0);
        assert_eq!(hinted_on(&m, NodeId(1)), 16);
    }

    #[test]
    fn all_nodes_scope_marks_everything() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 1000,
            period_ns: 1,
            scope: SampleScope::AllNodes,
        });
        assert_eq!(s.scan(&mut m), 32);
        assert_eq!(hinted_on(&m, NodeId(0)), 16);
        assert_eq!(m.vmstat().get(tiered_mem::VmEvent::NumaPteUpdates), 32);
    }

    #[test]
    fn budget_limits_marks_and_cursor_resumes() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 8,
            period_ns: 1,
            scope: SampleScope::AllNodes,
        });
        assert_eq!(s.scan(&mut m), 8);
        // Second scan continues where the first stopped — no page is
        // double-marked while others are unvisited.
        assert_eq!(s.scan(&mut m), 8);
        let total = hinted_on(&m, NodeId(0)) + hinted_on(&m, NodeId(1));
        assert_eq!(total, 16);
    }

    #[test]
    fn already_hinted_pages_are_not_recounted() {
        let mut m = machine();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 1000,
            period_ns: 1,
            scope: SampleScope::AllNodes,
        });
        assert_eq!(s.scan(&mut m), 32);
        assert_eq!(s.scan(&mut m), 0);
    }

    /// The hinted pages among `vpns`, in order, clearing their marks.
    fn take_hinted(m: &mut Memory, vpns: &[Vpn]) -> Vec<Vpn> {
        let mut out = Vec::new();
        for &vpn in vpns {
            if let Some(PageLocation::Mapped(pfn)) = m.space(Pid(1)).translate(vpn) {
                let flags = m.frames_mut().frame_mut(pfn).flags_mut();
                if flags.contains(PageFlags::HINTED) {
                    flags.remove(PageFlags::HINTED);
                    out.push(vpn);
                }
            }
        }
        out
    }

    #[test]
    fn rank_cursor_wraps_after_the_space_shrinks() {
        let mut m = Memory::builder().node(NodeKind::LocalDram, 64).build();
        m.create_process(Pid(1));
        // 48 VPNs over three huge-page windows, inserted in shuffled order.
        let mut vpns: Vec<Vpn> = (0..48u64).map(|i| Vpn((i * 29) % 48 * 23)).collect();
        for &vpn in &vpns {
            m.alloc_and_map(NodeId(0), Pid(1), vpn, PageType::Anon)
                .unwrap();
        }
        vpns.sort_unstable();
        let mut s = HintSampler::new(SamplerConfig {
            pages_per_scan: 20,
            period_ns: 1,
            scope: SampleScope::AllNodes,
        });
        s.scan(&mut m);
        assert_eq!(take_hinted(&mut m, &vpns), vpns[..20]);
        s.scan(&mut m);
        assert_eq!(take_hinted(&mut m, &vpns), vpns[20..40]);
        // Shrink to 30 pages: cursor rank 40 wraps to rank 10.
        for &vpn in &vpns[30..] {
            m.release(Pid(1), vpn);
        }
        s.scan(&mut m);
        assert_eq!(take_hinted(&mut m, &vpns), vpns[10..30]);
        s.scan(&mut m);
        assert_eq!(take_hinted(&mut m, &vpns), vpns[..20]);
        // This scan wraps within itself: ranks 20..30, then 0..10.
        s.scan(&mut m);
        let want: Vec<Vpn> = vpns[..10].iter().chain(&vpns[20..30]).copied().collect();
        assert_eq!(take_hinted(&mut m, &vpns), want);
        m.validate();
    }

    #[test]
    fn empty_machine_scans_nothing() {
        let mut m = Memory::builder().node(NodeKind::LocalDram, 8).build();
        let mut s = HintSampler::new(SamplerConfig::scaled(SampleScope::AllNodes));
        assert_eq!(s.scan(&mut m), 0);
    }
}
