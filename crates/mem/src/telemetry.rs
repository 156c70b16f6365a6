//! Structured event tracing for the memory subsystem.
//!
//! The TPP paper's observability story (§5.5) is counter-based: vmstat
//! tells you *how many* pages were demoted or ping-ponged, but not *which*
//! pages, *when*, or *why*. This module adds the event layer underneath
//! the counters: every mutation path records a [`TraceEvent`], and each
//! event knows which vmstat counters it implies
//! ([`TraceEvent::count_into`]), so the trace and the counters can never
//! disagree — [`crate::Memory::record`] bumps both from a single call.
//!
//! A traced `Memory` ([`crate::Memory::enable_trace`]) keeps every
//! record in memory until [`crate::Memory::take_trace`] hands them out;
//! an untraced one keeps nothing, so its fast path is a single branch.
//! [`write_jsonl`] writes records as JSONL. The JSON writer is
//! hand-rolled: the build environment cannot reach the crates registry,
//! so no `serde`/`tracing` dependency is allowed.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::types::{NodeId, PageKey, PageType};
use crate::vmstat::{VmEvent, VmStat};

/// Why a promotion attempt failed (one JSON/counter bucket per reason,
/// mirroring the paper's per-reason failure counters).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PromoteFailReason {
    /// Destination node below its allocation watermark.
    LowMem,
    /// Page busy/isolated (abnormal refcount in the kernel).
    Busy,
    /// System-wide condition (e.g. promotion rate limit exhausted).
    System,
}

impl PromoteFailReason {
    /// Stable lowercase name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            PromoteFailReason::LowMem => "lowmem",
            PromoteFailReason::Busy => "busy",
            PromoteFailReason::System => "system",
        }
    }

    fn vm_event(self) -> VmEvent {
        match self {
            PromoteFailReason::LowMem => VmEvent::PgPromoteFailLowMem,
            PromoteFailReason::Busy => VmEvent::PgPromoteFailBusy,
            PromoteFailReason::System => VmEvent::PgPromoteFailSystem,
        }
    }
}

/// Why a promotion candidate was skipped before an attempt was issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PromoteSkipReason {
    /// TPP's active-LRU filter: the page was on an inactive list and got
    /// a second chance (activation) instead of a migration.
    Inactive,
    /// Hotness below the policy's promotion threshold (AutoTiering-style
    /// frequency filter). Traced but not counted: no vmstat counter
    /// corresponds to a cold skip.
    Cold,
}

impl PromoteSkipReason {
    /// Stable lowercase name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            PromoteSkipReason::Inactive => "inactive",
            PromoteSkipReason::Cold => "cold",
        }
    }
}

/// One structured trace event. Emitted by [`crate::Memory::record`],
/// which also bumps the vmstat counters the event implies, so the two
/// views stay consistent by construction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TraceEvent {
    /// Page fault handled by a policy (one per placement attempt, to
    /// match the `pgfault` counter's semantics).
    Fault {
        /// Faulting page.
        page: PageKey,
        /// Whether the fault required a swap-in.
        major: bool,
    },
    /// NUMA hint fault taken on a sampled page.
    HintFault {
        /// Faulting page.
        page: PageKey,
        /// Node the page resides on.
        node: NodeId,
    },
    /// Hint fault on a CPU-attached node — wasted sampling work.
    HintFaultLocal {
        /// Faulting page.
        page: PageKey,
        /// Node the page resides on.
        node: NodeId,
    },
    /// Page allocated on a CPU-attached node.
    AllocLocal {
        /// Newly mapped page.
        page: PageKey,
        /// Node that supplied the frame.
        node: NodeId,
    },
    /// Page allocation landed on a CPU-less (CXL) node.
    AllocRemote {
        /// Newly mapped page.
        page: PageKey,
        /// Node that supplied the frame.
        node: NodeId,
    },
    /// Allocation stalled in direct reclaim.
    AllocStall {
        /// Node that could not satisfy the allocation.
        node: NodeId,
    },
    /// Successful migration (any direction).
    Migrate {
        /// Migrated page.
        page: PageKey,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// Migration failed (destination out of memory).
    MigrateFail {
        /// Page that stayed put.
        page: PageKey,
        /// Destination that rejected it.
        to: NodeId,
    },
    /// Page became a promotion candidate.
    PromoteCandidate {
        /// Candidate page.
        page: PageKey,
        /// Whether the page carried `PG_demoted` — the ping-pong
        /// detector of §5.5.
        demoted: bool,
    },
    /// Promotion attempt issued (candidate passed all filters).
    PromoteAttempt {
        /// Promoted page.
        page: PageKey,
        /// Source (CXL) node.
        from: NodeId,
        /// Destination (local) node.
        to: NodeId,
    },
    /// Promotion succeeded.
    PromoteSuccess {
        /// Promoted page.
        page: PageKey,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Page class (anon vs file-backed) for the split counters.
        page_type: PageType,
    },
    /// Promotion failed, with the reason bucket.
    PromoteFail {
        /// Page that stayed on the slow tier.
        page: PageKey,
        /// Failure reason.
        reason: PromoteFailReason,
    },
    /// Promotion candidate skipped before an attempt.
    PromoteSkip {
        /// Skipped page.
        page: PageKey,
        /// Skip reason.
        reason: PromoteSkipReason,
    },
    /// Page demoted to a lower tier.
    Demote {
        /// Demoted page.
        page: PageKey,
        /// Source (local) node.
        from: NodeId,
        /// Destination (CXL) node.
        to: NodeId,
        /// Page class for the split counters.
        page_type: PageType,
    },
    /// Demotion failed and fell back to the legacy reclaim path.
    DemoteFallback {
        /// Page that will be reclaimed instead.
        page: PageKey,
        /// Node the page was on.
        node: NodeId,
    },
    /// Reclaim scanner visited pages on a node (one event per scan batch).
    ReclaimScan {
        /// Scanned node.
        node: NodeId,
        /// Pages visited in this batch.
        pages: u64,
    },
    /// Reclaim stole (evicted) a page.
    ReclaimSteal {
        /// Evicted page.
        page: PageKey,
        /// Node it was stolen from.
        node: NodeId,
    },
    /// Page written to the swap device.
    SwapOut {
        /// Swapped page.
        page: PageKey,
        /// Node the frame was freed from.
        node: NodeId,
    },
    /// Page read back from the swap device (major fault).
    SwapIn {
        /// Restored page.
        page: PageKey,
        /// Node that received it.
        node: NodeId,
    },
    /// Clean file page dropped without I/O.
    FileDrop {
        /// Dropped page.
        page: PageKey,
        /// Node it was dropped from.
        node: NodeId,
    },
    /// khugepaged assembled a run of base pages into a compound page.
    Collapse {
        /// The compound's head page (pid + lowest vpn of the run).
        page: PageKey,
        /// Node the compound was assembled on.
        node: NodeId,
        /// Base pages in the new compound.
        pages: u64,
    },
    /// A compound page was shattered back into base pages.
    Split {
        /// The former head page.
        page: PageKey,
        /// Node the compound lived on.
        node: NodeId,
        /// Base pages released by the split.
        pages: u64,
    },
    /// A compaction pass finished on a node.
    Compact {
        /// Compacted node.
        node: NodeId,
        /// Base pages relocated by the migration scanner.
        migrated: u64,
        /// Whether the pass produced at least one free max-order block.
        success: bool,
    },
    /// Free-page count crossed a named watermark on a node.
    WatermarkCross {
        /// Node whose watermark was crossed.
        node: NodeId,
        /// Watermark name (`"min"`, `"low"`, `"high"`, `"demote"`, …).
        level: &'static str,
        /// Free pages at the crossing.
        free: u64,
        /// `true` when free fell below the watermark, `false` when it
        /// recovered above it.
        below: bool,
    },
    /// A reclaim/demotion daemon woke up.
    DaemonWake {
        /// Daemon name (`"kswapd"`, `"demoter"`, …).
        daemon: &'static str,
        /// Node the daemon serves, if per-node.
        node: Option<NodeId>,
    },
    /// Free-form policy decision with a policy-supplied reason.
    Decision {
        /// Policy name (matches `PlacementPolicy::name`).
        policy: &'static str,
        /// Decision reason, stable for aggregation.
        reason: &'static str,
        /// Page the decision concerned, if any.
        page: Option<PageKey>,
    },
}

impl TraceEvent {
    /// Stable lowercase event name used in JSONL output and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::HintFault { .. } => "hint_fault",
            TraceEvent::HintFaultLocal { .. } => "hint_fault_local",
            TraceEvent::AllocLocal { .. } => "alloc_local",
            TraceEvent::AllocRemote { .. } => "alloc_remote",
            TraceEvent::AllocStall { .. } => "alloc_stall",
            TraceEvent::Migrate { .. } => "migrate",
            TraceEvent::MigrateFail { .. } => "migrate_fail",
            TraceEvent::PromoteCandidate { .. } => "promote_candidate",
            TraceEvent::PromoteAttempt { .. } => "promote_attempt",
            TraceEvent::PromoteSuccess { .. } => "promote_success",
            TraceEvent::PromoteFail { .. } => "promote_fail",
            TraceEvent::PromoteSkip { .. } => "promote_skip",
            TraceEvent::Demote { .. } => "demote",
            TraceEvent::DemoteFallback { .. } => "demote_fallback",
            TraceEvent::ReclaimScan { .. } => "reclaim_scan",
            TraceEvent::ReclaimSteal { .. } => "reclaim_steal",
            TraceEvent::SwapOut { .. } => "swap_out",
            TraceEvent::SwapIn { .. } => "swap_in",
            TraceEvent::FileDrop { .. } => "file_drop",
            TraceEvent::Collapse { .. } => "collapse",
            TraceEvent::Split { .. } => "split",
            TraceEvent::Compact { .. } => "compact",
            TraceEvent::WatermarkCross { .. } => "watermark_cross",
            TraceEvent::DaemonWake { .. } => "daemon_wake",
            TraceEvent::Decision { .. } => "decision",
        }
    }

    /// Bumps every vmstat counter this event implies. This is the single
    /// source of truth for the event ↔ counter mapping: `Memory::record`
    /// calls it, so a traced counter can never drift from its events.
    pub fn count_into(&self, vmstat: &mut VmStat) {
        match *self {
            TraceEvent::Fault { major, .. } => {
                vmstat.count(VmEvent::PgFault);
                // Major faults are counted by the swap-in path itself.
                let _ = major;
            }
            TraceEvent::HintFault { .. } => vmstat.count(VmEvent::NumaHintFaults),
            TraceEvent::HintFaultLocal { .. } => vmstat.count(VmEvent::NumaHintFaultsLocal),
            TraceEvent::AllocLocal { .. } => vmstat.count(VmEvent::PgAllocLocal),
            TraceEvent::AllocRemote { .. } => vmstat.count(VmEvent::PgAllocRemote),
            TraceEvent::AllocStall { .. } => vmstat.count(VmEvent::PgAllocStall),
            TraceEvent::Migrate { .. } => vmstat.count(VmEvent::PgMigrateSuccess),
            TraceEvent::MigrateFail { .. } => vmstat.count(VmEvent::PgMigrateFail),
            TraceEvent::PromoteCandidate { demoted, .. } => {
                vmstat.count(VmEvent::PgPromoteCandidate);
                if demoted {
                    vmstat.count(VmEvent::PgPromoteCandidateDemoted);
                }
            }
            TraceEvent::PromoteAttempt { .. } => vmstat.count(VmEvent::PgPromoteAttempt),
            TraceEvent::PromoteSuccess { page_type, .. } => {
                if page_type.is_anon() {
                    vmstat.count(VmEvent::PgPromoteSuccessAnon);
                } else {
                    vmstat.count(VmEvent::PgPromoteSuccessFile);
                }
            }
            TraceEvent::PromoteFail { reason, .. } => vmstat.count(reason.vm_event()),
            TraceEvent::PromoteSkip { reason, .. } => {
                if reason == PromoteSkipReason::Inactive {
                    vmstat.count(VmEvent::PgPromoteSkipInactive);
                }
            }
            TraceEvent::Demote { page_type, .. } => {
                if page_type.is_anon() {
                    vmstat.count(VmEvent::PgDemoteAnon);
                } else {
                    vmstat.count(VmEvent::PgDemoteFile);
                }
            }
            TraceEvent::DemoteFallback { .. } => vmstat.count(VmEvent::PgDemoteFallback),
            TraceEvent::ReclaimScan { pages, .. } => vmstat.count_n(VmEvent::PgScan, pages),
            TraceEvent::ReclaimSteal { .. } => vmstat.count(VmEvent::PgSteal),
            TraceEvent::SwapOut { .. } => vmstat.count(VmEvent::PswpOut),
            TraceEvent::SwapIn { .. } => {
                vmstat.count(VmEvent::PswpIn);
                vmstat.count(VmEvent::PgMajFault);
            }
            TraceEvent::FileDrop { .. } => vmstat.count(VmEvent::PgDropFile),
            TraceEvent::Collapse { .. } => vmstat.count(VmEvent::ThpCollapseAlloc),
            TraceEvent::Split { .. } => vmstat.count(VmEvent::ThpSplit),
            TraceEvent::Compact { success, .. } => {
                if success {
                    vmstat.count(VmEvent::CompactSuccess);
                } else {
                    vmstat.count(VmEvent::CompactFail);
                }
            }
            TraceEvent::WatermarkCross { .. }
            | TraceEvent::DaemonWake { .. }
            | TraceEvent::Decision { .. } => {}
        }
    }

    /// The page this event concerns, if any.
    pub fn page(&self) -> Option<PageKey> {
        match *self {
            TraceEvent::Fault { page, .. }
            | TraceEvent::HintFault { page, .. }
            | TraceEvent::HintFaultLocal { page, .. }
            | TraceEvent::AllocLocal { page, .. }
            | TraceEvent::AllocRemote { page, .. }
            | TraceEvent::Migrate { page, .. }
            | TraceEvent::MigrateFail { page, .. }
            | TraceEvent::PromoteCandidate { page, .. }
            | TraceEvent::PromoteAttempt { page, .. }
            | TraceEvent::PromoteSuccess { page, .. }
            | TraceEvent::PromoteFail { page, .. }
            | TraceEvent::PromoteSkip { page, .. }
            | TraceEvent::Demote { page, .. }
            | TraceEvent::DemoteFallback { page, .. }
            | TraceEvent::ReclaimSteal { page, .. }
            | TraceEvent::SwapOut { page, .. }
            | TraceEvent::SwapIn { page, .. }
            | TraceEvent::FileDrop { page, .. }
            | TraceEvent::Collapse { page, .. }
            | TraceEvent::Split { page, .. } => Some(page),
            TraceEvent::Decision { page, .. } => page,
            TraceEvent::AllocStall { .. }
            | TraceEvent::ReclaimScan { .. }
            | TraceEvent::Compact { .. }
            | TraceEvent::WatermarkCross { .. }
            | TraceEvent::DaemonWake { .. } => None,
        }
    }
}

/// A [`TraceEvent`] stamped with simulation time.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceRecord {
    /// Simulation timestamp in nanoseconds.
    pub ts_ns: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one JSON object (no trailing newline).
    ///
    /// The format is flat and stable: `ts` and `event` first, then the
    /// event's fields. Written by hand because the build environment has
    /// no access to serde.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"ts\":{},\"event\":\"{}\"",
            self.ts_ns,
            self.event.name()
        );
        if let Some(page) = self.event.page() {
            let _ = write!(s, ",\"pid\":{},\"vpn\":{}", page.pid.0, page.vpn.0);
        }
        match self.event {
            TraceEvent::Fault { major, .. } => {
                let _ = write!(s, ",\"major\":{major}");
            }
            TraceEvent::HintFault { node, .. }
            | TraceEvent::HintFaultLocal { node, .. }
            | TraceEvent::AllocLocal { node, .. }
            | TraceEvent::AllocRemote { node, .. }
            | TraceEvent::AllocStall { node }
            | TraceEvent::DemoteFallback { node, .. }
            | TraceEvent::ReclaimSteal { node, .. }
            | TraceEvent::SwapOut { node, .. }
            | TraceEvent::SwapIn { node, .. }
            | TraceEvent::FileDrop { node, .. } => {
                let _ = write!(s, ",\"node\":{}", node.0);
            }
            TraceEvent::Migrate { from, to, .. } | TraceEvent::PromoteAttempt { from, to, .. } => {
                let _ = write!(s, ",\"from\":{},\"to\":{}", from.0, to.0);
            }
            TraceEvent::MigrateFail { to, .. } => {
                let _ = write!(s, ",\"to\":{}", to.0);
            }
            TraceEvent::PromoteCandidate { demoted, .. } => {
                let _ = write!(s, ",\"demoted\":{demoted}");
            }
            TraceEvent::PromoteSuccess {
                from,
                to,
                page_type,
                ..
            }
            | TraceEvent::Demote {
                from,
                to,
                page_type,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"from\":{},\"to\":{},\"page_type\":\"{}\"",
                    from.0,
                    to.0,
                    page_type_name(page_type)
                );
            }
            TraceEvent::PromoteFail { reason, .. } => {
                let _ = write!(s, ",\"reason\":\"{}\"", reason.as_str());
            }
            TraceEvent::PromoteSkip { reason, .. } => {
                let _ = write!(s, ",\"reason\":\"{}\"", reason.as_str());
            }
            TraceEvent::ReclaimScan { node, pages } => {
                let _ = write!(s, ",\"node\":{},\"pages\":{pages}", node.0);
            }
            TraceEvent::Collapse { node, pages, .. } | TraceEvent::Split { node, pages, .. } => {
                let _ = write!(s, ",\"node\":{},\"pages\":{pages}", node.0);
            }
            TraceEvent::Compact {
                node,
                migrated,
                success,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{},\"migrated\":{migrated},\"success\":{success}",
                    node.0
                );
            }
            TraceEvent::WatermarkCross {
                node,
                level,
                free,
                below,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{},\"level\":\"{}\",\"free\":{free},\"below\":{below}",
                    node.0,
                    escape_json(level)
                );
            }
            TraceEvent::DaemonWake { daemon, node } => {
                let _ = write!(s, ",\"daemon\":\"{}\"", escape_json(daemon));
                if let Some(node) = node {
                    let _ = write!(s, ",\"node\":{}", node.0);
                }
            }
            TraceEvent::Decision { policy, reason, .. } => {
                let _ = write!(
                    s,
                    ",\"policy\":\"{}\",\"reason\":\"{}\"",
                    escape_json(policy),
                    escape_json(reason)
                );
            }
        }
        s.push('}');
        s
    }
}

fn page_type_name(t: PageType) -> &'static str {
    match t {
        PageType::Anon => "anon",
        PageType::File => "file",
        PageType::Tmpfs => "tmpfs",
    }
}

/// Minimal JSON string escaping for the reason/name strings we emit.
/// Reasons are `&'static str` written in this repo, so this only guards
/// against accidental quotes/backslashes/control characters.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The vmstat counters that are bumped exclusively through
/// [`crate::Memory::record`], i.e. the counters a complete trace fully
/// reconstructs via [`replay_counters`]. Counters outside this list
/// (LRU activity, working-set, PTE-scan counts) are plain counts with no
/// per-event record.
pub const TRACED_COUNTERS: &[VmEvent] = &[
    VmEvent::PgFault,
    VmEvent::PgMajFault,
    VmEvent::NumaHintFaults,
    VmEvent::NumaHintFaultsLocal,
    VmEvent::PgAllocLocal,
    VmEvent::PgAllocRemote,
    VmEvent::PgAllocStall,
    VmEvent::PgMigrateSuccess,
    VmEvent::PgMigrateFail,
    VmEvent::PgPromoteCandidate,
    VmEvent::PgPromoteCandidateDemoted,
    VmEvent::PgPromoteAttempt,
    VmEvent::PgPromoteSuccessAnon,
    VmEvent::PgPromoteSuccessFile,
    VmEvent::PgPromoteFailLowMem,
    VmEvent::PgPromoteFailBusy,
    VmEvent::PgPromoteFailSystem,
    VmEvent::PgPromoteSkipInactive,
    VmEvent::PgDemoteAnon,
    VmEvent::PgDemoteFile,
    VmEvent::PgDemoteFallback,
    VmEvent::PgScan,
    VmEvent::PgSteal,
    VmEvent::PswpOut,
    VmEvent::PswpIn,
    VmEvent::PgDropFile,
];

/// Replays a trace's counter side effects into a fresh [`VmStat`].
///
/// For a trace that covers a whole run, every counter in
/// [`TRACED_COUNTERS`] must match the machine's final vmstat exactly —
/// this is the parity check behind `repro --trace`.
pub fn replay_counters(records: &[TraceRecord]) -> VmStat {
    let mut vm = VmStat::new();
    for r in records {
        r.event.count_into(&mut vm);
    }
    vm
}

/// Writes `records` to `out` as JSONL: one [`TraceRecord::to_json`]
/// object per line.
///
/// # Errors
///
/// Propagates the first write error of `out`.
pub fn write_jsonl(records: &[TraceRecord], out: &mut impl Write) -> io::Result<()> {
    for r in records {
        writeln!(out, "{}", r.to_json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pid, Vpn};

    fn key(pid: u32, vpn: u64) -> PageKey {
        PageKey::new(Pid(pid), Vpn(vpn))
    }

    #[test]
    fn every_event_has_a_stable_name_and_json_shape() {
        let events = [
            TraceEvent::Fault {
                page: key(1, 2),
                major: true,
            },
            TraceEvent::HintFault {
                page: key(1, 2),
                node: NodeId(1),
            },
            TraceEvent::HintFaultLocal {
                page: key(1, 2),
                node: NodeId(0),
            },
            TraceEvent::AllocLocal {
                page: key(1, 2),
                node: NodeId(0),
            },
            TraceEvent::AllocRemote {
                page: key(1, 2),
                node: NodeId(1),
            },
            TraceEvent::AllocStall { node: NodeId(0) },
            TraceEvent::Migrate {
                page: key(1, 2),
                from: NodeId(0),
                to: NodeId(1),
            },
            TraceEvent::MigrateFail {
                page: key(1, 2),
                to: NodeId(1),
            },
            TraceEvent::PromoteCandidate {
                page: key(1, 2),
                demoted: true,
            },
            TraceEvent::PromoteAttempt {
                page: key(1, 2),
                from: NodeId(1),
                to: NodeId(0),
            },
            TraceEvent::PromoteSuccess {
                page: key(1, 2),
                from: NodeId(1),
                to: NodeId(0),
                page_type: PageType::Anon,
            },
            TraceEvent::PromoteFail {
                page: key(1, 2),
                reason: PromoteFailReason::LowMem,
            },
            TraceEvent::PromoteSkip {
                page: key(1, 2),
                reason: PromoteSkipReason::Inactive,
            },
            TraceEvent::Demote {
                page: key(1, 2),
                from: NodeId(0),
                to: NodeId(1),
                page_type: PageType::File,
            },
            TraceEvent::DemoteFallback {
                page: key(1, 2),
                node: NodeId(0),
            },
            TraceEvent::ReclaimScan {
                node: NodeId(0),
                pages: 32,
            },
            TraceEvent::ReclaimSteal {
                page: key(1, 2),
                node: NodeId(0),
            },
            TraceEvent::SwapOut {
                page: key(1, 2),
                node: NodeId(1),
            },
            TraceEvent::SwapIn {
                page: key(1, 2),
                node: NodeId(0),
            },
            TraceEvent::FileDrop {
                page: key(1, 2),
                node: NodeId(0),
            },
            TraceEvent::Collapse {
                page: key(1, 2),
                node: NodeId(0),
                pages: 512,
            },
            TraceEvent::Split {
                page: key(1, 2),
                node: NodeId(1),
                pages: 512,
            },
            TraceEvent::Compact {
                node: NodeId(0),
                migrated: 64,
                success: true,
            },
            TraceEvent::WatermarkCross {
                node: NodeId(0),
                level: "demote",
                free: 17,
                below: true,
            },
            TraceEvent::DaemonWake {
                daemon: "kswapd",
                node: Some(NodeId(1)),
            },
            TraceEvent::Decision {
                policy: "tpp",
                reason: "ping_pong",
                page: Some(key(1, 2)),
            },
        ];
        let mut names = std::collections::HashSet::new();
        for (i, event) in events.iter().enumerate() {
            assert!(
                names.insert(event.name()),
                "duplicate name {}",
                event.name()
            );
            let json = TraceRecord {
                ts_ns: i as u64,
                event: *event,
            }
            .to_json();
            assert!(
                json.starts_with(&format!("{{\"ts\":{i},\"event\":\"")),
                "{json}"
            );
            assert!(json.ends_with('}'), "{json}");
            // Balanced quotes: every key/value string is closed.
            assert_eq!(json.matches('"').count() % 2, 0, "{json}");
        }
    }

    #[test]
    fn count_into_maps_events_to_expected_counters() {
        let mut vs = VmStat::new();
        TraceEvent::Demote {
            page: key(1, 1),
            from: NodeId(0),
            to: NodeId(1),
            page_type: PageType::Anon,
        }
        .count_into(&mut vs);
        TraceEvent::PromoteCandidate {
            page: key(1, 1),
            demoted: true,
        }
        .count_into(&mut vs);
        TraceEvent::SwapIn {
            page: key(1, 1),
            node: NodeId(0),
        }
        .count_into(&mut vs);
        TraceEvent::ReclaimScan {
            node: NodeId(0),
            pages: 5,
        }
        .count_into(&mut vs);
        TraceEvent::Decision {
            policy: "x",
            reason: "y",
            page: None,
        }
        .count_into(&mut vs);
        assert_eq!(vs.get(VmEvent::PgDemoteAnon), 1);
        assert_eq!(vs.get(VmEvent::PgPromoteCandidate), 1);
        assert_eq!(vs.get(VmEvent::PgPromoteCandidateDemoted), 1);
        assert_eq!(vs.get(VmEvent::PswpIn), 1);
        assert_eq!(vs.get(VmEvent::PgMajFault), 1);
        assert_eq!(vs.get(VmEvent::PgScan), 5);
    }

    #[test]
    fn huge_page_events_map_to_thp_counters() {
        let mut vs = VmStat::new();
        TraceEvent::Collapse {
            page: key(1, 0),
            node: NodeId(0),
            pages: 512,
        }
        .count_into(&mut vs);
        TraceEvent::Split {
            page: key(1, 0),
            node: NodeId(1),
            pages: 512,
        }
        .count_into(&mut vs);
        TraceEvent::Compact {
            node: NodeId(0),
            migrated: 3,
            success: true,
        }
        .count_into(&mut vs);
        TraceEvent::Compact {
            node: NodeId(0),
            migrated: 0,
            success: false,
        }
        .count_into(&mut vs);
        assert_eq!(vs.get(VmEvent::ThpCollapseAlloc), 1);
        assert_eq!(vs.get(VmEvent::ThpSplit), 1);
        assert_eq!(vs.get(VmEvent::CompactSuccess), 1);
        assert_eq!(vs.get(VmEvent::CompactFail), 1);
    }

    #[test]
    fn write_jsonl_emits_one_line_per_record() {
        let records = [
            TraceRecord {
                ts_ns: 7,
                event: TraceEvent::SwapOut {
                    page: key(3, 9),
                    node: NodeId(1),
                },
            },
            TraceRecord {
                ts_ns: 8,
                event: TraceEvent::AllocStall { node: NodeId(0) },
            },
        ];
        let mut out = Vec::new();
        write_jsonl(&records, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"ts\":7,\"event\":\"swap_out\",\"pid\":3,\"vpn\":9,\"node\":1}\n\
             {\"ts\":8,\"event\":\"alloc_stall\",\"node\":0}\n"
        );
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
