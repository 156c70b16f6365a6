//! `/proc/vmstat`-style event counters, including every counter the TPP
//! paper adds for observability (§5.5).
//!
//! The paper introduces demotion counters (`pgdemote_anon`,
//! `pgdemote_file`), promotion counters split by page type, the
//! `pgpromote_candidate_demoted` ping-pong detector, and a separate counter
//! for each promotion-failure reason. All of those exist here, alongside
//! the classic fault/reclaim/swap events the evaluation plots are built
//! from.

use std::fmt;

/// Declares [`VmEvent`] from one `Variant = "name"` entry per counter,
/// in counter-file order. Generates the enum, `COUNT`, `ALL` and
/// `name()`.
macro_rules! vm_events {
    ($($(#[$meta:meta])* $variant:ident = $name:literal,)*) => {
        /// A countable memory-management event.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        #[repr(usize)]
        pub enum VmEvent {
            $($(#[$meta])* $variant,)*
        }

        impl VmEvent {
            /// Number of distinct events.
            pub const COUNT: usize = [$($name),*].len();

            /// All events, in counter-file order.
            pub const ALL: [VmEvent; VmEvent::COUNT] = [$(VmEvent::$variant),*];

            /// The `/proc/vmstat`-style name of this counter.
            pub fn name(self) -> &'static str {
                match self {
                    $(VmEvent::$variant => $name,)*
                }
            }
        }
    };
}

vm_events! {
    /// Any page fault (first touch or swap-in).
    PgFault = "pgfault",
    /// Major fault requiring a swap-in.
    PgMajFault = "pgmajfault",
    /// Page allocated on the faulting CPU's local node.
    PgAllocLocal = "pgalloc_local",
    /// Page allocation spilled to a remote (CXL) node.
    PgAllocRemote = "pgalloc_remote",
    /// Allocation stalled in direct reclaim.
    PgAllocStall = "allocstall",
    /// Pages reclaimed (freed or swapped) by background reclaim.
    PgSteal = "pgsteal",
    /// Pages scanned by the reclaimer.
    PgScan = "pgscan",
    /// Pages moved inactive → active.
    PgActivate = "pgactivate",
    /// Pages moved active → inactive.
    PgDeactivate = "pgdeactivate",
    /// Pages written to the swap device.
    PswpOut = "pswpout",
    /// Pages read back from the swap device.
    PswpIn = "pswpin",
    /// Clean file pages dropped without I/O.
    PgDropFile = "pgdrop_file",
    /// Anonymous pages demoted to a lower tier (TPP counter).
    PgDemoteAnon = "pgdemote_anon",
    /// File pages demoted to a lower tier (TPP counter).
    PgDemoteFile = "pgdemote_file",
    /// Demotion attempt that fell back to the legacy reclaim path.
    PgDemoteFallback = "pgdemote_fallback",
    /// NUMA hint PTE updates installed by the sampling scanner.
    NumaPteUpdates = "numa_pte_updates",
    /// NUMA hint faults taken.
    NumaHintFaults = "numa_hint_faults",
    /// NUMA hint faults on the local node (wasted sampling work).
    NumaHintFaultsLocal = "numa_hint_faults_local",
    /// Pages that became promotion candidates.
    PgPromoteCandidate = "pgpromote_candidate",
    /// Promotion candidates that carried `PG_demoted` — the ping-pong
    /// detector (a high value means thrashing across nodes).
    PgPromoteCandidateDemoted = "pgpromote_candidate_demoted",
    /// Promotion attempts actually issued (candidate passed all filters).
    PgPromoteAttempt = "pgpromote_attempt",
    /// Anonymous pages successfully promoted.
    PgPromoteSuccessAnon = "pgpromote_success_anon",
    /// File pages successfully promoted.
    PgPromoteSuccessFile = "pgpromote_success_file",
    /// Promotion failed: destination node low on memory.
    PgPromoteFailLowMem = "pgpromote_fail_lowmem",
    /// Promotion failed: page was busy/isolated (abnormal refcount).
    PgPromoteFailBusy = "pgpromote_fail_busy",
    /// Promotion failed: whole system low on memory.
    PgPromoteFailSystem = "pgpromote_fail_system",
    /// Promotion skipped: faulted page was on an inactive LRU (TPP's
    /// active-LRU filter held it back and marked it accessed instead).
    PgPromoteSkipInactive = "pgpromote_skip_inactive",
    /// Pages migrated successfully (any direction).
    PgMigrateSuccess = "pgmigrate_success",
    /// Page migrations that failed.
    PgMigrateFail = "pgmigrate_fail",
    /// File refaults of previously evicted pages (workingset detection).
    WorkingsetRefault = "workingset_refault",
    /// Refaulted pages judged part of the workingset and activated
    /// directly.
    WorkingsetActivate = "workingset_activate",
    /// Transparent huge pages allocated directly at fault time.
    ThpFaultAlloc = "thp_fault_alloc",
    /// Transparent huge pages assembled by the khugepaged-style collapse
    /// scanner.
    ThpCollapseAlloc = "thp_collapse_alloc",
    /// Compound pages split back into base pages.
    ThpSplit = "thp_split",
    /// Compaction passes that freed at least one huge-page-sized block.
    CompactSuccess = "compact_success",
    /// Compaction passes that finished without freeing a huge block.
    CompactFail = "compact_fail",
}

/// A snapshot-friendly set of vmstat counters.
///
/// # Examples
///
/// ```
/// use tiered_mem::{VmEvent, VmStat};
///
/// let mut vs = VmStat::new();
/// vs.count(VmEvent::PgDemoteAnon);
/// vs.count_n(VmEvent::PgDemoteFile, 3);
/// assert_eq!(vs.get(VmEvent::PgDemoteAnon), 1);
/// assert_eq!(vs.demoted_total(), 4);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmStat {
    counters: [u64; VmEvent::COUNT],
}

impl Default for VmStat {
    fn default() -> VmStat {
        VmStat {
            counters: [0; VmEvent::COUNT],
        }
    }
}

impl VmStat {
    /// Creates a zeroed counter set.
    pub fn new() -> VmStat {
        VmStat::default()
    }

    /// Increments `event` by one.
    #[inline]
    pub fn count(&mut self, event: VmEvent) {
        self.counters[event as usize] += 1;
    }

    /// Increments `event` by `n`.
    #[inline]
    pub fn count_n(&mut self, event: VmEvent, n: u64) {
        self.counters[event as usize] += n;
    }

    /// Current value of `event`.
    #[inline]
    pub fn get(&self, event: VmEvent) -> u64 {
        self.counters[event as usize]
    }

    /// Total pages demoted (anon + file).
    pub fn demoted_total(&self) -> u64 {
        self.get(VmEvent::PgDemoteAnon) + self.get(VmEvent::PgDemoteFile)
    }

    /// Total pages promoted (anon + file).
    pub fn promoted_total(&self) -> u64 {
        self.get(VmEvent::PgPromoteSuccessAnon) + self.get(VmEvent::PgPromoteSuccessFile)
    }

    /// Fraction of promotion attempts that succeeded (1.0 when none were
    /// attempted).
    pub fn promote_success_rate(&self) -> f64 {
        let attempts = self.get(VmEvent::PgPromoteAttempt);
        if attempts == 0 {
            1.0
        } else {
            self.promoted_total() as f64 / attempts as f64
        }
    }

    /// Difference `self - earlier` for rate computations over an interval.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any counter in `earlier` exceeds the
    /// corresponding counter in `self`.
    pub fn delta_since(&self, earlier: &VmStat) -> VmStat {
        let mut out = VmStat::new();
        for i in 0..VmEvent::COUNT {
            debug_assert!(self.counters[i] >= earlier.counters[i]);
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        out
    }

    /// Iterates `(event, value)` pairs in counter-file order.
    pub fn iter(&self) -> impl Iterator<Item = (VmEvent, u64)> + '_ {
        VmEvent::ALL.iter().map(move |&e| (e, self.get(e)))
    }
}

impl fmt::Display for VmStat {
    /// Renders in `/proc/vmstat` format: one `name value` pair per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (event, value) in self.iter() {
            writeln!(f, "{} {}", event.name(), value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_events_have_unique_names_and_indices() {
        let mut names = std::collections::HashSet::new();
        let mut indices = std::collections::HashSet::new();
        for e in VmEvent::ALL {
            assert!(names.insert(e.name()), "duplicate name {}", e.name());
            assert!(indices.insert(e as usize), "duplicate index for {e:?}");
            assert!((e as usize) < VmEvent::COUNT);
        }
        assert_eq!(names.len(), VmEvent::COUNT);
    }

    #[test]
    fn counting_and_aggregates() {
        let mut vs = VmStat::new();
        vs.count_n(VmEvent::PgPromoteSuccessAnon, 8);
        vs.count_n(VmEvent::PgPromoteSuccessFile, 2);
        vs.count_n(VmEvent::PgPromoteAttempt, 20);
        vs.count_n(VmEvent::PgPromoteFailLowMem, 7);
        vs.count_n(VmEvent::PgPromoteFailBusy, 2);
        vs.count(VmEvent::PgPromoteFailSystem);
        assert_eq!(vs.promoted_total(), 10);
        assert!((vs.promote_success_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn success_rate_with_no_attempts_is_one() {
        assert_eq!(VmStat::new().promote_success_rate(), 1.0);
    }

    #[test]
    fn delta_since_subtracts_counterwise() {
        let mut a = VmStat::new();
        a.count_n(VmEvent::PgSteal, 10);
        let snapshot = a.clone();
        a.count_n(VmEvent::PgSteal, 5);
        a.count(VmEvent::PswpOut);
        let d = a.delta_since(&snapshot);
        assert_eq!(d.get(VmEvent::PgSteal), 5);
        assert_eq!(d.get(VmEvent::PswpOut), 1);
        assert_eq!(d.get(VmEvent::PgFault), 0);
    }

    #[test]
    fn display_is_proc_vmstat_shaped() {
        let mut vs = VmStat::new();
        vs.count(VmEvent::PgDemoteAnon);
        let text = vs.to_string();
        assert!(text.contains("pgdemote_anon 1\n"));
        assert!(text.contains("pgpromote_candidate_demoted 0\n"));
        assert_eq!(text.lines().count(), VmEvent::COUNT);
    }
}
