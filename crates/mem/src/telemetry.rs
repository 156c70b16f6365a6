//! Structured event tracing for the memory subsystem.
//!
//! The TPP paper's observability story (§5.5) is counter-based: vmstat
//! tells you *how many* pages were demoted or ping-ponged, but not *which*
//! pages, *when*, or *why*. This module adds the event layer underneath
//! the counters: every mutation path records a [`TraceEvent`], and each
//! event knows which vmstat counters it implies
//! (`TraceEvent::count_into`), so the trace and the counters can never
//! disagree — [`crate::Memory::record`] bumps both from a single call.
//!
//! A traced `Memory` ([`crate::Memory::enable_trace`]) keeps every
//! record in memory until [`crate::Memory::take_trace`] hands them out;
//! an untraced one keeps nothing, so its fast path is a single branch.
//! [`write_jsonl`] writes records as JSONL. The JSON writer is
//! hand-rolled: the build environment cannot reach the crates registry,
//! so no `serde`/`tracing` dependency is allowed.
//!
//! Each event is declared once, in the `trace_events!` list below. A
//! line's shape comes from that entry: `ts` and the entry's name, then
//! its fields in declaration order, each printed by its type's
//! `JsonField` impl (a [`PageKey`] as `"pid"` and `"vpn"`, an absent
//! `Option` as nothing).

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
    pub(crate) fn as_str(self) -> &'static str {
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
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            PromoteSkipReason::Inactive => "inactive",
            PromoteSkipReason::Cold => "cold",
        }
    }
}

/// Declares [`TraceEvent`] from one entry per event: its doc comment,
/// variant, JSONL name, and fields with their docs. Generates the enum,
/// `name()` and `write_fields()`, which prints every field in
/// declaration order as its type's [`JsonField`] says.
macro_rules! trace_events {
    ($(
        $(#[$meta:meta])*
        $variant:ident = $name:literal {
            $($(#[$field_meta:meta])* $field:ident: $ty:ty),* $(,)?
        }
    ),* $(,)?) => {
        /// One structured trace event. Emitted by [`crate::Memory::record`],
        /// which also bumps the vmstat counters the event implies, so the two
        /// views stay consistent by construction.
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub enum TraceEvent {
            $($(#[$meta])* $variant { $($(#[$field_meta])* $field: $ty),* },)*
        }

        impl TraceEvent {
            /// Stable lowercase event name used in JSONL output and summaries.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Appends `,"field":value` for every field, in declaration order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $($field.write_json(stringify!($field), out);)*
                    })*
                }
            }
        }
    };
}

trace_events! {
    /// Page fault handled by a policy (one per placement attempt, to
    /// match the `pgfault` counter's semantics).
    Fault = "fault" {
        /// Faulting page.
        page: PageKey,
        /// Whether the fault required a swap-in.
        major: bool,
    },
    /// NUMA hint fault taken on a sampled page.
    HintFault = "hint_fault" {
        /// Faulting page.
        page: PageKey,
        /// Node the page resides on.
        node: NodeId,
    },
    /// Hint fault on a CPU-attached node — wasted sampling work.
    HintFaultLocal = "hint_fault_local" {
        /// Faulting page.
        page: PageKey,
        /// Node the page resides on.
        node: NodeId,
    },
    /// Page allocated on a CPU-attached node.
    AllocLocal = "alloc_local" {
        /// Newly mapped page.
        page: PageKey,
        /// Node that supplied the frame.
        node: NodeId,
    },
    /// Page allocation landed on a CPU-less (CXL) node.
    AllocRemote = "alloc_remote" {
        /// Newly mapped page.
        page: PageKey,
        /// Node that supplied the frame.
        node: NodeId,
    },
    /// Allocation stalled in direct reclaim.
    AllocStall = "alloc_stall" {
        /// Node that could not satisfy the allocation.
        node: NodeId,
    },
    /// Successful migration (any direction).
    Migrate = "migrate" {
        /// Migrated page.
        page: PageKey,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// Migration failed (destination out of memory).
    MigrateFail = "migrate_fail" {
        /// Page that stayed put.
        page: PageKey,
        /// Destination that rejected it.
        to: NodeId,
    },
    /// Page became a promotion candidate.
    PromoteCandidate = "promote_candidate" {
        /// Candidate page.
        page: PageKey,
        /// Whether the page carried `PG_demoted` — the ping-pong
        /// detector of §5.5.
        demoted: bool,
    },
    /// Promotion attempt issued (candidate passed all filters).
    PromoteAttempt = "promote_attempt" {
        /// Promoted page.
        page: PageKey,
        /// Source (CXL) node.
        from: NodeId,
        /// Destination (local) node.
        to: NodeId,
    },
    /// Promotion succeeded.
    PromoteSuccess = "promote_success" {
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
    PromoteFail = "promote_fail" {
        /// Page that stayed on the slow tier.
        page: PageKey,
        /// Failure reason.
        reason: PromoteFailReason,
    },
    /// Promotion candidate skipped before an attempt.
    PromoteSkip = "promote_skip" {
        /// Skipped page.
        page: PageKey,
        /// Skip reason.
        reason: PromoteSkipReason,
    },
    /// Page demoted to a lower tier.
    Demote = "demote" {
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
    DemoteFallback = "demote_fallback" {
        /// Page that will be reclaimed instead.
        page: PageKey,
        /// Node the page was on.
        node: NodeId,
    },
    /// Reclaim scanner visited pages on a node (one event per scan batch).
    ReclaimScan = "reclaim_scan" {
        /// Scanned node.
        node: NodeId,
        /// Pages visited in this batch.
        pages: u64,
    },
    /// Reclaim stole (evicted) a page.
    ReclaimSteal = "reclaim_steal" {
        /// Evicted page.
        page: PageKey,
        /// Node it was stolen from.
        node: NodeId,
    },
    /// Page written to the swap device.
    SwapOut = "swap_out" {
        /// Swapped page.
        page: PageKey,
        /// Node the frame was freed from.
        node: NodeId,
    },
    /// Page read back from the swap device (major fault).
    SwapIn = "swap_in" {
        /// Restored page.
        page: PageKey,
        /// Node that received it.
        node: NodeId,
    },
    /// Clean file page dropped without I/O.
    FileDrop = "file_drop" {
        /// Dropped page.
        page: PageKey,
        /// Node it was dropped from.
        node: NodeId,
    },
    /// khugepaged assembled a run of base pages into a compound page.
    Collapse = "collapse" {
        /// The compound's head page (pid + lowest vpn of the run).
        page: PageKey,
        /// Node the compound was assembled on.
        node: NodeId,
        /// Base pages in the new compound.
        pages: u64,
    },
    /// A compound page was shattered back into base pages.
    Split = "split" {
        /// The former head page.
        page: PageKey,
        /// Node the compound lived on.
        node: NodeId,
        /// Base pages released by the split.
        pages: u64,
    },
    /// A compaction pass finished on a node.
    Compact = "compact" {
        /// Compacted node.
        node: NodeId,
        /// Base pages relocated by the migration scanner.
        migrated: u64,
        /// Whether the pass produced at least one free max-order block.
        success: bool,
    },
    /// Free-page count crossed a named watermark on a node.
    WatermarkCross = "watermark_cross" {
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
    DaemonWake = "daemon_wake" {
        /// Daemon name (`"kswapd"`, `"demoter"`, …).
        daemon: &'static str,
        /// Node the daemon serves, if per-node.
        node: Option<NodeId>,
    },
    /// Free-form policy decision with a policy-supplied reason.
    Decision = "decision" {
        /// Page the decision concerned, if any.
        page: Option<PageKey>,
        /// Policy name (matches `PlacementPolicy::name`).
        policy: &'static str,
        /// Decision reason, stable for aggregation.
        reason: &'static str,
    },
}

impl TraceEvent {
    /// Bumps every vmstat counter this event implies. This is the single
    /// source of truth for the event ↔ counter mapping: `Memory::record`
    /// calls it, so a traced counter can never drift from its events.
    pub(crate) fn count_into(&self, vmstat: &mut VmStat) {
        match *self {
            TraceEvent::Fault { .. } => {
                vmstat.count(VmEvent::PgFault);
                // Major faults are counted by the swap-in path itself.
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
    /// event's fields in declaration order, each printed by its type's
    /// [`JsonField`]. Written by hand because the build environment has
    /// no access to serde.
    pub(crate) fn to_json(self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"ts\":{},\"event\":\"{}\"",
            self.ts_ns,
            self.event.name()
        );
        self.event.write_fields(&mut s);
        s.push('}');
        s
    }
}

/// How one event field prints in a JSONL line: `,"key":value`.
trait JsonField {
    fn write_json(&self, key: &str, out: &mut String);
}

impl JsonField for u64 {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
}

impl JsonField for bool {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
}

impl JsonField for NodeId {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{}", self.0);
    }
}

impl JsonField for &'static str {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{}\"", escape_json(self));
    }
}

impl JsonField for PageType {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{self}\"");
    }
}

impl JsonField for PromoteFailReason {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{}\"", self.as_str());
    }
}

impl JsonField for PromoteSkipReason {
    fn write_json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{}\"", self.as_str());
    }
}

/// A page prints as its two parts, `"pid":…,"vpn":…`, not under its key.
impl JsonField for PageKey {
    fn write_json(&self, _key: &str, out: &mut String) {
        let _ = write!(out, ",\"pid\":{},\"vpn\":{}", self.pid.0, self.vpn.0);
    }
}

/// An absent value prints nothing.
impl<T: JsonField> JsonField for Option<T> {
    fn write_json(&self, key: &str, out: &mut String) {
        if let Some(value) = self {
            value.write_json(key, out);
        }
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
/// (LRU activity, working-set, PTE-scan and fault-time THP counts) are
/// plain counts with no per-event record.
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
    VmEvent::ThpCollapseAlloc,
    VmEvent::ThpSplit,
    VmEvent::CompactSuccess,
    VmEvent::CompactFail,
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

/// Writes `records` to `out` as JSONL: one `TraceRecord::to_json`
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

    /// One of each event shape with its exact JSONL line at `ts` = its
    /// index: all 26 variants, then a `DaemonWake` without a node and a
    /// pageless `Decision` whose policy needs escaping.
    fn every_event() -> [(TraceEvent, &'static str); 28] {
        [
            (
                TraceEvent::Fault {
                    page: key(1, 2),
                    major: true,
                },
                r#"{"ts":0,"event":"fault","pid":1,"vpn":2,"major":true}"#,
            ),
            (
                TraceEvent::HintFault {
                    page: key(1, 2),
                    node: NodeId(1),
                },
                r#"{"ts":1,"event":"hint_fault","pid":1,"vpn":2,"node":1}"#,
            ),
            (
                TraceEvent::HintFaultLocal {
                    page: key(1, 2),
                    node: NodeId(0),
                },
                r#"{"ts":2,"event":"hint_fault_local","pid":1,"vpn":2,"node":0}"#,
            ),
            (
                TraceEvent::AllocLocal {
                    page: key(1, 2),
                    node: NodeId(0),
                },
                r#"{"ts":3,"event":"alloc_local","pid":1,"vpn":2,"node":0}"#,
            ),
            (
                TraceEvent::AllocRemote {
                    page: key(1, 2),
                    node: NodeId(1),
                },
                r#"{"ts":4,"event":"alloc_remote","pid":1,"vpn":2,"node":1}"#,
            ),
            (
                TraceEvent::AllocStall { node: NodeId(0) },
                r#"{"ts":5,"event":"alloc_stall","node":0}"#,
            ),
            (
                TraceEvent::Migrate {
                    page: key(1, 2),
                    from: NodeId(0),
                    to: NodeId(1),
                },
                r#"{"ts":6,"event":"migrate","pid":1,"vpn":2,"from":0,"to":1}"#,
            ),
            (
                TraceEvent::MigrateFail {
                    page: key(1, 2),
                    to: NodeId(1),
                },
                r#"{"ts":7,"event":"migrate_fail","pid":1,"vpn":2,"to":1}"#,
            ),
            (
                TraceEvent::PromoteCandidate {
                    page: key(1, 2),
                    demoted: true,
                },
                r#"{"ts":8,"event":"promote_candidate","pid":1,"vpn":2,"demoted":true}"#,
            ),
            (
                TraceEvent::PromoteAttempt {
                    page: key(1, 2),
                    from: NodeId(1),
                    to: NodeId(0),
                },
                r#"{"ts":9,"event":"promote_attempt","pid":1,"vpn":2,"from":1,"to":0}"#,
            ),
            (
                TraceEvent::PromoteSuccess {
                    page: key(1, 2),
                    from: NodeId(1),
                    to: NodeId(0),
                    page_type: PageType::Anon,
                },
                r#"{"ts":10,"event":"promote_success","pid":1,"vpn":2,"from":1,"to":0,"page_type":"anon"}"#,
            ),
            (
                TraceEvent::PromoteFail {
                    page: key(1, 2),
                    reason: PromoteFailReason::LowMem,
                },
                r#"{"ts":11,"event":"promote_fail","pid":1,"vpn":2,"reason":"lowmem"}"#,
            ),
            (
                TraceEvent::PromoteSkip {
                    page: key(1, 2),
                    reason: PromoteSkipReason::Inactive,
                },
                r#"{"ts":12,"event":"promote_skip","pid":1,"vpn":2,"reason":"inactive"}"#,
            ),
            (
                TraceEvent::Demote {
                    page: key(1, 2),
                    from: NodeId(0),
                    to: NodeId(1),
                    page_type: PageType::File,
                },
                r#"{"ts":13,"event":"demote","pid":1,"vpn":2,"from":0,"to":1,"page_type":"file"}"#,
            ),
            (
                TraceEvent::DemoteFallback {
                    page: key(1, 2),
                    node: NodeId(0),
                },
                r#"{"ts":14,"event":"demote_fallback","pid":1,"vpn":2,"node":0}"#,
            ),
            (
                TraceEvent::ReclaimScan {
                    node: NodeId(0),
                    pages: 32,
                },
                r#"{"ts":15,"event":"reclaim_scan","node":0,"pages":32}"#,
            ),
            (
                TraceEvent::ReclaimSteal {
                    page: key(1, 2),
                    node: NodeId(0),
                },
                r#"{"ts":16,"event":"reclaim_steal","pid":1,"vpn":2,"node":0}"#,
            ),
            (
                TraceEvent::SwapOut {
                    page: key(1, 2),
                    node: NodeId(1),
                },
                r#"{"ts":17,"event":"swap_out","pid":1,"vpn":2,"node":1}"#,
            ),
            (
                TraceEvent::SwapIn {
                    page: key(1, 2),
                    node: NodeId(0),
                },
                r#"{"ts":18,"event":"swap_in","pid":1,"vpn":2,"node":0}"#,
            ),
            (
                TraceEvent::FileDrop {
                    page: key(1, 2),
                    node: NodeId(0),
                },
                r#"{"ts":19,"event":"file_drop","pid":1,"vpn":2,"node":0}"#,
            ),
            (
                TraceEvent::Collapse {
                    page: key(1, 2),
                    node: NodeId(0),
                    pages: 512,
                },
                r#"{"ts":20,"event":"collapse","pid":1,"vpn":2,"node":0,"pages":512}"#,
            ),
            (
                TraceEvent::Split {
                    page: key(1, 2),
                    node: NodeId(1),
                    pages: 512,
                },
                r#"{"ts":21,"event":"split","pid":1,"vpn":2,"node":1,"pages":512}"#,
            ),
            (
                TraceEvent::Compact {
                    node: NodeId(0),
                    migrated: 64,
                    success: true,
                },
                r#"{"ts":22,"event":"compact","node":0,"migrated":64,"success":true}"#,
            ),
            (
                TraceEvent::WatermarkCross {
                    node: NodeId(0),
                    level: "demote",
                    free: 17,
                    below: true,
                },
                r#"{"ts":23,"event":"watermark_cross","node":0,"level":"demote","free":17,"below":true}"#,
            ),
            (
                TraceEvent::DaemonWake {
                    daemon: "kswapd",
                    node: Some(NodeId(1)),
                },
                r#"{"ts":24,"event":"daemon_wake","daemon":"kswapd","node":1}"#,
            ),
            (
                TraceEvent::Decision {
                    policy: "tpp",
                    reason: "ping_pong",
                    page: Some(key(1, 2)),
                },
                r#"{"ts":25,"event":"decision","pid":1,"vpn":2,"policy":"tpp","reason":"ping_pong"}"#,
            ),
            (
                TraceEvent::DaemonWake {
                    daemon: "demoter",
                    node: None,
                },
                r#"{"ts":26,"event":"daemon_wake","daemon":"demoter"}"#,
            ),
            (
                TraceEvent::Decision {
                    policy: "a\"b",
                    reason: "cold",
                    page: None,
                },
                r#"{"ts":27,"event":"decision","policy":"a\"b","reason":"cold"}"#,
            ),
        ]
    }

    #[test]
    fn every_event_has_a_stable_name_and_json_shape() {
        let mut names = std::collections::HashSet::new();
        for (i, (event, line)) in every_event().into_iter().enumerate() {
            names.insert(event.name());
            let record = TraceRecord {
                ts_ns: i as u64,
                event,
            };
            assert_eq!(record.to_json(), line);
        }
        // Every variant has its own name.
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn every_counter_an_event_bumps_is_traced() {
        // Every shape above, plus the other side of each branch in
        // `count_into`.
        let other_branches = [
            TraceEvent::PromoteSuccess {
                page: key(1, 2),
                from: NodeId(1),
                to: NodeId(0),
                page_type: PageType::Tmpfs,
            },
            TraceEvent::PromoteFail {
                page: key(1, 2),
                reason: PromoteFailReason::Busy,
            },
            TraceEvent::PromoteFail {
                page: key(1, 2),
                reason: PromoteFailReason::System,
            },
            TraceEvent::Demote {
                page: key(1, 2),
                from: NodeId(0),
                to: NodeId(1),
                page_type: PageType::Anon,
            },
            TraceEvent::Compact {
                node: NodeId(0),
                migrated: 0,
                success: false,
            },
        ];
        let records: Vec<TraceRecord> = every_event()
            .map(|(event, _)| event)
            .into_iter()
            .chain(other_branches)
            .map(|event| TraceRecord { ts_ns: 0, event })
            .collect();
        for (counter, value) in replay_counters(&records).iter() {
            assert!(
                value == 0 || TRACED_COUNTERS.contains(&counter),
                "{} is bumped by an event but missing from TRACED_COUNTERS",
                counter.name()
            );
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
