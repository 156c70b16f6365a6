//! Page-placement policies: the decision layer on top of the
//! [`tiered_mem`] mechanics.
//!
//! Five policies are provided, mirroring the paper's evaluation matrix
//! plus one extra baseline:
//!
//! * [`LinuxDefault`] — coupled allocation/reclamation, paging to swap
//!   (§4.1: the baseline whose pitfalls motivate TPP),
//! * [`NumaBalancing`] — hint-fault promotion gated on local watermarks,
//!   no demotion to CPU-less nodes (§4.2),
//! * [`AutoTiering`] — timer-based hotness demotion plus optimised NUMA
//!   balancing with a fixed reserved promotion buffer (§6.4),
//! * [`Tpp`] — the paper's contribution (§5): migration-based demotion,
//!   decoupled allocation/demotion watermarks, active-LRU-filtered
//!   promotion from CXL-only sampling, and optional page-type-aware
//!   allocation,
//! * [`InMemorySwap`] — a zswap/zram-style extra baseline the paper's
//!   related-work section argues against (§7).
//!
//! The policies share one layer of mechanics, the `engine` module: the
//! page-fault path, promotion, demotion-target selection, demotion,
//! eviction, the budgeted reclaim loops and the daemon schedule (kswapd,
//! huge-page daemons, hint sampler). Every policy faults through
//! `engine::fault`, passing only its swap-in cost and its direct-reclaim
//! step. A policy keeps only its admission gates — when a page may move
//! — and its own daemon pass, which runs before the shared schedule on
//! every tick.

mod autotiering;
mod engine;
mod huge;
mod inmem_swap;
mod linux_default;
mod numa_balancing;
mod reclaim;
mod sampler;
mod tpp_policy;

pub use autotiering::AutoTiering;
pub use huge::{
    kcompactd_pass, khugepaged_pass, HugeState, COMPOUND_MIGRATE_FACTOR, KCOMPACTD_BUDGET,
    KHUGEPAGED_BUDGET,
};
pub use inmem_swap::InMemorySwap;
pub use linux_default::LinuxDefault;
pub use numa_balancing::NumaBalancing;
pub use reclaim::DaemonBudget;
pub use sampler::{HintSampler, SampleScope};
pub use tpp_policy::{Tpp, TppConfig};

use std::error::Error;
use std::fmt;

use tiered_mem::{Memory, NodeId, PageType, Pfn, Pid, Vpn};
use tiered_sim::LatencyModel;

/// Everything a policy may touch while making a decision.
pub struct PolicyCtx<'a> {
    /// The machine's memory subsystem.
    pub memory: &'a mut Memory,
    /// Operation cost model.
    pub latency: &'a LatencyModel,
    /// Current simulated time.
    pub now_ns: u64,
}

/// A policy rejected the machine configuration (e.g. AutoTiering on a 1:4
/// local:CXL split, which the paper reports crashing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedConfig {
    /// The policy that refused.
    pub policy: String,
    /// Why.
    pub reason: String,
}

impl fmt::Display for UnsupportedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cannot run on this machine: {}",
            self.policy, self.reason
        )
    }
}

impl Error for UnsupportedConfig {}

/// Outcome of a fault handled by a policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The frame now backing the page.
    pub pfn: Pfn,
    /// Extra latency charged to the faulting task (fault handling, any
    /// direct reclaim or swap I/O on the critical path).
    pub cost_ns: u64,
}

/// A page-placement policy.
///
/// The system runner invokes:
///
/// * [`PlacementPolicy::handle_fault`] when an access misses the page
///   table (first touch or swapped-out page),
/// * [`PlacementPolicy::on_hint_fault`] when an access trips a NUMA hint
///   PTE,
/// * [`PlacementPolicy::tick`] periodically (every
///   [`PlacementPolicy::tick_period_ns`]) for background daemons —
///   reclaim, demotion, hint-PTE sampling.
pub trait PlacementPolicy {
    /// Policy name, e.g. `"tpp"`.
    fn name(&self) -> &str;

    /// Checks whether the policy can run on this machine at all.
    ///
    /// # Errors
    ///
    /// [`UnsupportedConfig`] when it cannot (the paper's AutoTiering
    /// crashes on 1:4 local:CXL configurations).
    fn validate_config(&self, memory: &Memory) -> Result<(), UnsupportedConfig> {
        let _ = memory;
        Ok(())
    }

    /// Places a faulting page (first touch or swap-in) and returns the
    /// frame plus the latency charged to the faulting task.
    ///
    /// # Panics
    ///
    /// Implementations panic if memory is exhausted beyond recovery
    /// (simulated OOM) — experiment configurations are sized to avoid
    /// this.
    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome;

    /// Handles a NUMA hint fault on the mapped page `pfn`; returns the
    /// extra latency charged to the faulting task (fault handling plus
    /// any synchronous promotion migration).
    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> u64 {
        let _ = (ctx, pfn);
        0
    }

    /// Runs background work (kswapd/kdemoted wakeup, hint-PTE sampling).
    fn tick(&mut self, ctx: &mut PolicyCtx<'_>);

    /// How often [`PlacementPolicy::tick`] should run: every policy here
    /// wakes its daemons every 50 ms (`engine::TICK_PERIOD_NS`).
    fn tick_period_ns(&self) -> u64 {
        engine::TICK_PERIOD_NS
    }
}

/// The local node a task's allocations prefer: the first CPU-attached
/// node (the paper's evaluation machines have exactly one).
///
/// # Panics
///
/// Panics if the machine has no CPU-attached node.
pub(crate) fn preferred_local_node(memory: &Memory) -> NodeId {
    *memory
        .local_nodes()
        .first()
        .expect("machine has no CPU-attached node")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_config_displays() {
        let e = UnsupportedConfig {
            policy: "autotiering".into(),
            reason: "1:4 split".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("autotiering"));
        assert!(msg.contains("1:4"));
    }

    #[test]
    fn preferred_local_node_is_first_dram_node() {
        use tiered_mem::NodeKind;
        let m = Memory::builder()
            .node(NodeKind::LocalDram, 16)
            .node(NodeKind::Cxl, 16)
            .build();
        assert_eq!(preferred_local_node(&m), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "no CPU-attached node")]
    fn cxl_only_machine_has_no_local() {
        use tiered_mem::NodeKind;
        let m = Memory::builder().node(NodeKind::Cxl, 16).build();
        preferred_local_node(&m);
    }
}
