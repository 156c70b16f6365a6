//! Machine topology: nodes, NUMA distances, and link properties.
//!
//! The paper's machines are multi-NUMA: allocation falls back by node
//! distance, demotion targets the *nearest* lower-tier node with headroom
//! (§5.2), and promotion pulls pages to the accessing CPU's socket. A
//! [`Topology`] describes such a machine — N nodes of any [`NodeKind`]
//! (CPU sockets, direct-attached CXL expanders, switch-attached CXL
//! pools), a symmetric NUMA distance matrix, and per-link latency /
//! bandwidth / hop counts — and *derives* the orders the placement
//! policies consume:
//!
//! * [`Topology::fallback_order`] — allocation fallback, nearest first,
//! * [`Topology::demotion_order`] — lower-tier candidates, nearest first,
//! * [`Topology::migrate_hops`] — link hops a page copy traverses.
//!
//! The default distance matrix is `10` on the diagonal and
//! `10 + 10·|i−j|` off it, which makes the derived orders on machines
//! built through `Memory::builder().node(..)` identical to the id-delta
//! ordering used before topologies existed — existing two-node results
//! are bit-for-bit unchanged.

use crate::node::NodeKind;
use crate::types::{NodeId, NodeList};

/// Distance of a node to itself, matching Linux's `LOCAL_DISTANCE`.
pub const LOCAL_DISTANCE: u16 = 10;

/// Properties of the link attaching a node to the memory fabric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Link {
    /// Link hops between a CPU and this node (1 = direct attach; each
    /// CXL switch traversal adds one). Migration cost scales with the
    /// larger hop count of the two endpoints.
    pub hops: u8,
    /// Nominal link bandwidth in GB/s (descriptive; the simulator charges
    /// latency per operation, bandwidth bounds live in daemon budgets).
    pub gbps: u32,
}

impl Link {
    /// Default link for a node kind: DDR channels for sockets, a x8 CXL
    /// link for direct expanders, one extra switch hop for pools.
    pub(crate) fn for_kind(kind: NodeKind) -> Link {
        match kind {
            NodeKind::LocalDram => Link { hops: 1, gbps: 120 },
            NodeKind::Cxl => Link { hops: 1, gbps: 32 },
            NodeKind::CxlSwitched => Link { hops: 2, gbps: 28 },
        }
    }
}

/// One node of a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TopoNode {
    kind: NodeKind,
    capacity: u64,
    latency_ns: Option<u64>,
    link: Link,
}

/// A machine description: memory nodes plus the NUMA distance matrix
/// placement decisions are derived from.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Topology {
    nodes: Vec<TopoNode>,
    /// Sparse symmetric distance overrides `(a, b, distance)` with
    /// `a < b`; everything else uses the id-delta default.
    overrides: Vec<(u8, u8, u16)>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Appends a node of `kind` with `capacity` pages, default latency
    /// and link. Returns the new node's id (ids are dense, in insertion
    /// order).
    pub fn node(&mut self, kind: NodeKind, capacity: u64) -> NodeId {
        self.node_full(kind, capacity, None, Link::for_kind(kind))
    }

    /// Appends a node with an explicit idle access latency.
    pub fn node_with_latency(&mut self, kind: NodeKind, capacity: u64, latency_ns: u64) -> NodeId {
        self.node_full(kind, capacity, Some(latency_ns), Link::for_kind(kind))
    }

    /// Appends a node with full control over latency and link properties.
    pub(crate) fn node_full(
        &mut self,
        kind: NodeKind,
        capacity: u64,
        latency_ns: Option<u64>,
        link: Link,
    ) -> NodeId {
        assert!(
            self.nodes.len() < NodeList::CAPACITY,
            "machine has more than {} nodes",
            NodeList::CAPACITY
        );
        self.nodes.push(TopoNode {
            kind,
            capacity,
            latency_ns,
            link,
        });
        NodeId((self.nodes.len() - 1) as u8)
    }

    /// Whether the topology has no nodes yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids, in order (dense: `0..len`).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u8))
    }

    /// The technology class of `node`.
    pub(crate) fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// Capacity of `node` in pages.
    pub(crate) fn capacity(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].capacity
    }

    /// Idle access latency of `node`: the explicit override if one was
    /// given, else the kind default.
    pub(crate) fn resolved_latency_ns(&self, node: NodeId) -> u64 {
        let n = &self.nodes[node.index()];
        n.latency_ns.unwrap_or_else(|| n.kind.default_latency_ns())
    }

    /// Link properties of `node`.
    pub(crate) fn link(&self, node: NodeId) -> Link {
        self.nodes[node.index()].link
    }

    /// Sets the (symmetric) NUMA distance between two distinct nodes.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-distance is fixed at
    /// [`LOCAL_DISTANCE`]) or either id is out of range.
    pub fn set_distance(&mut self, a: NodeId, b: NodeId, distance: u16) {
        assert!(a != b, "self-distance is fixed at {LOCAL_DISTANCE}");
        assert!(a.index() < self.nodes.len() && b.index() < self.nodes.len());
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if let Some(entry) = self
            .overrides
            .iter_mut()
            .find(|(x, y, _)| *x == lo && *y == hi)
        {
            entry.2 = distance;
        } else {
            self.overrides.push((lo, hi, distance));
        }
    }

    /// NUMA distance between two nodes: an explicit override if set, else
    /// `10 + 10·|a−b|` (`10` on the diagonal) — the id-delta default that
    /// reproduces pre-topology behaviour.
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> u16 {
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.overrides
            .iter()
            .find(|(x, y, _)| *x == lo && *y == hi)
            .map(|(_, _, d)| *d)
            .unwrap_or(LOCAL_DISTANCE + LOCAL_DISTANCE * (hi - lo) as u16)
    }

    /// Allocation fallback order from `from`: every node, nearest first
    /// (ties broken by id, so `from` itself always sorts first).
    pub(crate) fn fallback_order(&self, from: NodeId) -> NodeList {
        let mut ids: NodeList = self.ids().collect();
        ids.sort_by_key(|n| (self.distance(from, n), n.0));
        ids
    }

    /// Demotion candidates from `from`: nodes of strictly lower tier
    /// (greater [`NodeKind::tier_rank`]), nearest first. Empty for
    /// terminal tiers. Demoters pick the first entry with allocation
    /// headroom (§5.2), falling back to the head.
    pub(crate) fn demotion_order(&self, from: NodeId) -> NodeList {
        let rank = self.kind(from).tier_rank();
        let mut ids: NodeList = self
            .ids()
            .filter(|&n| self.kind(n).tier_rank() > rank)
            .collect();
        ids.sort_by_key(|n| (self.distance(from, n), n.0));
        ids
    }

    /// Link hops a page copy between `a` and `b` traverses: the larger
    /// hop count of the two endpoints. Direct-attached pairs copy in one
    /// hop; a switch-attached pool adds one per switch traversal.
    pub(crate) fn migrate_hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.link(a).hops.max(self.link(b).hops) as u32
    }

    /// First CPU-attached node, by id — the conventional default home
    /// node for processes without an explicit socket binding.
    pub(crate) fn first_local(&self) -> Option<NodeId> {
        self.ids().find(|&n| !self.kind(n).is_cpu_less())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Topology {
        let mut t = Topology::new();
        t.node(NodeKind::LocalDram, 64);
        t.node(NodeKind::Cxl, 256);
        t
    }

    #[test]
    fn default_distances_mirror_id_delta() {
        let mut t = two_node();
        t.node(NodeKind::Cxl, 64);
        assert_eq!(t.distance(NodeId(0), NodeId(0)), 10);
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 20);
        assert_eq!(t.distance(NodeId(0), NodeId(2)), 30);
        assert_eq!(t.distance(NodeId(2), NodeId(0)), 30, "symmetric");
        assert_eq!(t.distance(NodeId(1), NodeId(2)), 20);
    }

    #[test]
    fn overrides_are_symmetric_and_reorder_fallback() {
        let mut t = Topology::new();
        t.node(NodeKind::LocalDram, 64); // 0
        t.node(NodeKind::LocalDram, 64); // 1: other socket
        t.node(NodeKind::Cxl, 64); // 2: socket 0's expander
        t.set_distance(NodeId(0), NodeId(1), 21);
        t.set_distance(NodeId(0), NodeId(2), 14);
        assert_eq!(t.distance(NodeId(2), NodeId(0)), 14);
        // Own expander now sorts before the remote socket.
        assert_eq!(
            t.fallback_order(NodeId(0)).as_slice(),
            &[NodeId(0), NodeId(2), NodeId(1)]
        );
    }

    #[test]
    fn fallback_order_matches_pre_topology_sort() {
        let mut t = two_node();
        t.node(NodeKind::Cxl, 64);
        assert_eq!(
            t.fallback_order(NodeId(0)).as_slice(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(
            t.fallback_order(NodeId(2)).as_slice(),
            &[NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn demotion_order_is_nearest_lower_tier_first() {
        let mut t = Topology::new();
        t.node(NodeKind::LocalDram, 64); // 0
        t.node(NodeKind::Cxl, 64); // 1
        t.node(NodeKind::CxlSwitched, 64); // 2
        assert_eq!(
            t.demotion_order(NodeId(0)).as_slice(),
            &[NodeId(1), NodeId(2)]
        );
        // Direct CXL can spill further down into the pool…
        assert_eq!(t.demotion_order(NodeId(1)).as_slice(), &[NodeId(2)]);
        // …but the pool is terminal.
        assert!(t.demotion_order(NodeId(2)).is_empty());
    }

    #[test]
    fn same_tier_nodes_are_not_demotion_targets() {
        let mut t = two_node();
        t.node(NodeKind::Cxl, 64);
        assert_eq!(
            t.demotion_order(NodeId(0)).as_slice(),
            &[NodeId(1), NodeId(2)]
        );
        assert!(t.demotion_order(NodeId(1)).is_empty());
    }

    #[test]
    fn hops_and_latency_resolution() {
        let mut t = Topology::new();
        t.node(NodeKind::LocalDram, 64);
        t.node_with_latency(NodeKind::Cxl, 64, 250);
        t.node(NodeKind::CxlSwitched, 64);
        assert_eq!(t.resolved_latency_ns(NodeId(0)), 100);
        assert_eq!(t.resolved_latency_ns(NodeId(1)), 250);
        assert_eq!(t.resolved_latency_ns(NodeId(2)), 270);
        assert_eq!(t.migrate_hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(t.migrate_hops(NodeId(0), NodeId(2)), 2);
        assert_eq!(t.link(NodeId(1)).gbps, 32);
    }

    #[test]
    fn first_local_skips_cpu_less_nodes() {
        let mut t = Topology::new();
        t.node(NodeKind::Cxl, 64);
        t.node(NodeKind::LocalDram, 64);
        assert_eq!(t.first_local(), Some(NodeId(1)));
        let empty = Topology::new();
        assert_eq!(empty.first_local(), None);
    }

    #[test]
    #[should_panic(expected = "self-distance")]
    fn self_distance_is_immutable() {
        let mut t = two_node();
        t.set_distance(NodeId(0), NodeId(0), 99);
    }
}
