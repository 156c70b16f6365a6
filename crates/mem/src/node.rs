//! Memory node descriptions: CPU-attached local DRAM vs. CPU-less
//! CXL-attached expanders.

use crate::lru::NodeLru;
use crate::types::{NodeId, NodeList};
use crate::watermark::{TppWatermarks, DEFAULT_DEMOTE_SCALE_BP};

/// The technology class of a memory node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// DRAM directly attached to a CPU socket: the fast tier.
    LocalDram,
    /// CXL-attached memory: appears as a CPU-less NUMA node with
    /// NUMA-like extra latency (paper §2).
    Cxl,
    /// CXL memory behind a switch (a shared/pooled expander): still a
    /// CPU-less NUMA node, but every access pays one or more extra
    /// switch hops on top of direct-attached CXL latency.
    CxlSwitched,
}

impl NodeKind {
    /// Whether this node has no CPUs (pages here are always "remote").
    #[inline]
    pub(crate) fn is_cpu_less(self) -> bool {
        matches!(self, NodeKind::Cxl | NodeKind::CxlSwitched)
    }

    /// Default idle load-to-use latency for this tier in nanoseconds.
    ///
    /// Local DRAM ~100 ns; CXL ~185 ns (the paper's target: NUMA-like,
    /// 50–100 ns over local DRAM); switch-attached CXL adds roughly one
    /// more NUMA hop's worth of latency per switch traversal.
    pub fn default_latency_ns(self) -> u64 {
        match self {
            NodeKind::LocalDram => 100,
            NodeKind::Cxl => 185,
            NodeKind::CxlSwitched => 270,
        }
    }

    /// Memory-tier rank: demotions move pages to a node of strictly
    /// greater rank (local DRAM → direct CXL → switched CXL pool).
    #[inline]
    pub(crate) fn tier_rank(self) -> u8 {
        match self {
            NodeKind::LocalDram => 0,
            NodeKind::Cxl => 1,
            NodeKind::CxlSwitched => 2,
        }
    }
}

/// Static + runtime state of one memory node (capacity lives in the frame
/// table; this carries policy-relevant configuration and the LRU lists).
#[derive(Clone, Debug)]
pub struct MemoryNode {
    id: NodeId,
    kind: NodeKind,
    latency_ns: u64,
    watermarks: TppWatermarks,
    /// Candidate demotion targets, nearest first (distance-derived,
    /// paper §5.1/§5.2). Empty for terminal tiers. Demoters pick the
    /// first entry with allocation headroom.
    demotion_order: NodeList,
    /// The LRU lists of this node.
    pub lru: NodeLru,
}

impl MemoryNode {
    /// Creates a node of `kind` with `capacity` pages' worth of watermarks
    /// and the default latency for its tier.
    pub(crate) fn new(id: NodeId, kind: NodeKind, capacity: u64) -> MemoryNode {
        MemoryNode {
            id,
            kind,
            latency_ns: kind.default_latency_ns(),
            watermarks: TppWatermarks::for_capacity(capacity, DEFAULT_DEMOTE_SCALE_BP),
            demotion_order: NodeList::new(),
            lru: NodeLru::new(id),
        }
    }

    /// The node id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this node is CPU-less (a CXL expander).
    #[inline]
    pub fn is_cpu_less(&self) -> bool {
        self.kind.is_cpu_less()
    }

    /// Idle access latency in nanoseconds.
    #[inline]
    pub fn latency_ns(&self) -> u64 {
        self.latency_ns
    }

    /// Overrides the access latency (for modelling different CXL device
    /// generations, FPGA prototypes, etc.).
    pub(crate) fn set_latency_ns(&mut self, ns: u64) {
        self.latency_ns = ns;
    }

    /// The watermark set of this node.
    #[inline]
    pub fn watermarks(&self) -> &TppWatermarks {
        &self.watermarks
    }

    /// Replaces the watermark set (e.g. to change `demote_scale_factor`).
    pub(crate) fn set_watermarks(&mut self, wm: TppWatermarks) {
        self.watermarks = wm;
    }

    /// Where demotions from this node should go by default: the nearest
    /// lower-tier node (the head of [`MemoryNode::demotion_order`]).
    #[inline]
    pub fn demotion_target(&self) -> Option<NodeId> {
        self.demotion_order.first().copied()
    }

    /// Candidate demotion targets, nearest lower tier first. Empty for
    /// terminal tiers.
    #[inline]
    pub fn demotion_order(&self) -> &NodeList {
        &self.demotion_order
    }

    /// Replaces the demotion order (nearest first).
    pub(crate) fn set_demotion_order(&mut self, order: NodeList) {
        self.demotion_order = order;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_properties() {
        assert!(!NodeKind::LocalDram.is_cpu_less());
        assert!(NodeKind::Cxl.is_cpu_less());
        assert!(NodeKind::Cxl.default_latency_ns() > NodeKind::LocalDram.default_latency_ns());
        let extra = NodeKind::Cxl.default_latency_ns() - NodeKind::LocalDram.default_latency_ns();
        // Paper: CXL adds ~50–100 ns over normal DRAM access.
        assert!(
            (50..=100).contains(&extra),
            "extra latency {extra} out of range"
        );
    }

    #[test]
    fn switched_cxl_is_a_slower_lower_tier() {
        assert!(NodeKind::CxlSwitched.is_cpu_less());
        assert!(NodeKind::CxlSwitched.default_latency_ns() > NodeKind::Cxl.default_latency_ns());
        assert!(NodeKind::CxlSwitched.tier_rank() > NodeKind::Cxl.tier_rank());
        assert!(NodeKind::Cxl.tier_rank() > NodeKind::LocalDram.tier_rank());
    }

    #[test]
    fn demotion_order_backs_the_single_target_api() {
        let mut node = MemoryNode::new(NodeId(0), NodeKind::LocalDram, 1_000);
        assert!(node.demotion_order().is_empty());
        let order: NodeList = [NodeId(1), NodeId(2)].into_iter().collect();
        node.set_demotion_order(order);
        assert_eq!(node.demotion_target(), Some(NodeId(1)));
        node.set_demotion_order(NodeList::new());
        assert_eq!(node.demotion_target(), None);
    }

    #[test]
    fn node_construction_and_overrides() {
        let mut node = MemoryNode::new(NodeId(1), NodeKind::Cxl, 10_000);
        assert_eq!(node.id(), NodeId(1));
        assert!(node.is_cpu_less());
        assert_eq!(node.latency_ns(), 185);
        node.set_latency_ns(250); // FPGA prototype latency
        assert_eq!(node.latency_ns(), 250);
        assert_eq!(node.demotion_target(), None);
    }

    #[test]
    fn watermarks_scale_with_capacity() {
        // Distinct ids: a machine never holds two `NodeId(0)` nodes, and
        // `Memory::builder` debug-asserts exactly that.
        let small = MemoryNode::new(NodeId(0), NodeKind::LocalDram, 1_000);
        let large = MemoryNode::new(NodeId(1), NodeKind::LocalDram, 1_000_000);
        assert!(large.watermarks().demote_trigger > small.watermarks().demote_trigger);
    }
}
