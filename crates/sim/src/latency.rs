//! The latency/cost model of the simulated machine (paper Figure 2).
//!
//! Per-tier *access* latency lives on each [`tiered_mem::MemoryNode`];
//! this module carries the costs of memory-management *operations* —
//! faults, migrations, swap I/O — whose relative magnitudes drive every
//! result in the paper:
//!
//! * migrating a page to a CXL node is **orders of magnitude cheaper**
//!   than paging it out to a swap device (§5.1: TPP's reclaim is ~44×
//!   faster than default Linux's),
//! * a NUMA hint fault is a minor fault (~1 µs), tolerable at CXL-node
//!   sampling rates but pure overhead when local nodes are sampled too.

use tiered_mem::{Memory, NodeId};

/// Costs (in nanoseconds) of memory-management operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Handling a first-touch minor page fault.
    pub minor_fault_ns: u64,
    /// Handling a NUMA hint (PROT_NONE) minor fault.
    pub hint_fault_ns: u64,
    /// Handling a major fault *excluding* the swap-device read.
    pub major_fault_ns: u64,
    /// Reading one page back from the swap device.
    pub swap_in_page_ns: u64,
    /// Writing one page out to the swap device (reclaim page-out path).
    pub swap_out_page_ns: u64,
    /// Migrating one page between memory nodes (copy + PTE fix-up).
    pub migrate_page_ns: u64,
    /// Scanning one page during LRU reclaim scan.
    pub scan_page_ns: u64,
    /// How many cache-line misses one workload-level page access stands
    /// for. Datacenter services are memory-bound: a single logical
    /// "touch" of a hot page corresponds to a burst of LLC misses, so the
    /// per-access stall charged to the op is `node_latency ×
    /// access_bundle`. This is the knob that makes tier placement matter
    /// to throughput at the paper's magnitude (all-CXL ≈ 20–25% slower).
    pub access_bundle: u64,
}

impl LatencyModel {
    /// The default model used across the evaluation.
    ///
    /// Swap-out at ~130 µs/page vs. migration at ~3 µs/page yields the
    /// ~44× reclaim-rate gap the paper measures between default Linux and
    /// TPP — as an emergent consequence of device speeds, not a constant.
    pub fn datacenter() -> LatencyModel {
        LatencyModel {
            minor_fault_ns: 1_500,
            hint_fault_ns: 1_200,
            major_fault_ns: 4_000,
            swap_in_page_ns: 90_000,
            swap_out_page_ns: 130_000,
            migrate_page_ns: 3_000,
            scan_page_ns: 120,
            access_bundle: 16,
        }
    }

    /// Effective major-fault cost (handler + device read).
    #[inline]
    pub fn swap_in_total_ns(&self) -> u64 {
        self.major_fault_ns + self.swap_in_page_ns
    }

    /// Cost of migrating one page over a path of `hops` link hops
    /// (`tiered_mem::Memory::migrate_hops`): the copy is re-driven once
    /// per hop, so a switch-attached pool pays proportionally more.
    /// `hops <= 1` is exactly [`LatencyModel::migrate_page_ns`].
    #[inline]
    pub fn migrate_cost_ns(&self, hops: u32) -> u64 {
        self.migrate_page_ns * hops.max(1) as u64
    }
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel::datacenter()
    }
}

/// Reads the access latency for `node` out of the machine description.
///
/// Thin helper so call sites don't repeat the node lookup.
#[inline]
pub fn access_latency_ns(memory: &Memory, node: NodeId) -> u64 {
    memory.node(node).latency_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::NodeKind;

    #[test]
    fn migration_is_much_cheaper_than_swap() {
        let m = LatencyModel::datacenter();
        let ratio = m.swap_out_page_ns as f64 / m.migrate_page_ns as f64;
        // The paper reports TPP reclaiming ~44x faster than default Linux.
        assert!((30.0..60.0).contains(&ratio), "swap/migrate ratio {ratio}");
    }

    #[test]
    fn access_latency_reads_node_config() {
        let mem = Memory::builder()
            .node(NodeKind::LocalDram, 16)
            .node_with_latency(NodeKind::Cxl, 16, 250)
            .build();
        assert_eq!(access_latency_ns(&mem, NodeId(0)), 100);
        assert_eq!(access_latency_ns(&mem, NodeId(1)), 250);
    }

    #[test]
    fn default_is_datacenter() {
        assert_eq!(LatencyModel::default(), LatencyModel::datacenter());
    }

    #[test]
    fn migrate_cost_scales_with_hops() {
        let m = LatencyModel::datacenter();
        assert_eq!(m.migrate_cost_ns(0), m.migrate_page_ns);
        assert_eq!(m.migrate_cost_ns(1), m.migrate_page_ns);
        assert_eq!(m.migrate_cost_ns(2), 2 * m.migrate_page_ns);
    }
}
