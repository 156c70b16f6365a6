//! Machine configurations matching the paper's evaluation setups (§6.1):
//! an all-local baseline, the 2:1 production target, and the 1:4 memory
//! expansion configuration — plus multi-socket/multi-CXL topology presets
//! built on [`tiered_mem::Topology`].
//!
//! Every machine is described by a [`MachineSpec`], a plain value with
//! one [`MachineSpec::build`]; the free functions below build the
//! common specs directly.

use tiered_mem::{Memory, NodeKind, ThpMode, Topology, DEFAULT_DEMOTE_SCALE_BP};

/// Headroom factor: the paper's workloads consume 95–98% of system
/// capacity, so machines are sized ~5% above the working set.
const CAPACITY_SLACK_PCT: u64 = 105;

/// How a machine's capacity is laid out, before it is sized to a
/// working set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Shape {
    /// The "all from local" baseline: a single CPU-attached node large
    /// enough to hold the entire working set comfortably.
    AllLocal,
    /// Local DRAM plus one CXL node in a `local : cxl` capacity split,
    /// sized so the total is ~105% of the working set.
    Ratio(u64, u64),
    /// A multi-node topology preset, by a name from
    /// [`topology_preset_names`].
    Preset(&'static str),
    /// Only the local DRAM of `Ratio(local, cxl)`; the CXL share of the
    /// capacity backs an in-memory swap pool instead of a node.
    SwapPool(u64, u64),
}

/// A machine as a plain value: its shape, the working set it is sized
/// for, and the knobs the sweeps vary. The knobs hold concrete numbers
/// (the defaults are the substrate's), so two specs that build the same
/// machine compare equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MachineSpec {
    /// Capacity layout.
    pub shape: Shape,
    /// Working-set pages the capacities are sized against.
    pub ws_pages: u64,
    /// Transparent-huge-page mode.
    pub thp: ThpMode,
    /// Idle access latency of every direct-attached CXL node, ns.
    pub cxl_latency_ns: u64,
    /// `demote_scale_factor` of every node, in basis points.
    pub demote_scale_bp: u32,
}

impl MachineSpec {
    /// The `shape` machine for `ws_pages`, with THP off and the default
    /// CXL latency and `demote_scale_factor`.
    pub fn new(shape: Shape, ws_pages: u64) -> MachineSpec {
        MachineSpec {
            shape,
            ws_pages,
            thp: ThpMode::Never,
            cxl_latency_ns: NodeKind::Cxl.default_latency_ns(),
            demote_scale_bp: DEFAULT_DEMOTE_SCALE_BP,
        }
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics on a `Ratio`/`SwapPool` part of zero or an unknown preset
    /// name.
    pub fn build(&self) -> Memory {
        let ws = self.ws_pages;
        let total = ws * CAPACITY_SLACK_PCT / 100;
        let mut swap_pages = ws * 4;
        let mut t = Topology::new();
        match self.shape {
            Shape::AllLocal => {
                t.node(NodeKind::LocalDram, (ws * 120 / 100).max(64));
            }
            Shape::Ratio(local_parts, cxl_parts) => {
                let (local, cxl) = split(total, local_parts, cxl_parts);
                t.node(NodeKind::LocalDram, local.max(64));
                t.node_with_latency(NodeKind::Cxl, cxl.max(64), self.cxl_latency_ns);
            }
            Shape::SwapPool(local_parts, cxl_parts) => {
                let (local, cxl) = split(total, local_parts, cxl_parts);
                t.node(NodeKind::LocalDram, local.max(64));
                swap_pages = cxl + ws;
            }
            Shape::Preset("2s2c") => {
                let (dram, cxl) = ((total / 3).max(64), (total / 6).max(64));
                let a = t.node(NodeKind::LocalDram, dram);
                let b = t.node(NodeKind::LocalDram, dram);
                let xa = t.node_with_latency(NodeKind::Cxl, cxl, self.cxl_latency_ns);
                let xb = t.node_with_latency(NodeKind::Cxl, cxl, self.cxl_latency_ns);
                t.set_distance(a, b, 21);
                t.set_distance(a, xa, 14);
                t.set_distance(b, xb, 14);
                t.set_distance(a, xb, 24);
                t.set_distance(b, xa, 24);
                t.set_distance(xa, xb, 28);
            }
            Shape::Preset("pooled") => {
                let d = t.node(NodeKind::LocalDram, (total / 3).max(64));
                let p = t.node(NodeKind::CxlSwitched, (total - total / 3).max(64));
                t.set_distance(d, p, 30);
            }
            Shape::Preset("3tier") => {
                let d = t.node(NodeKind::LocalDram, (total * 2 / 5).max(64));
                let n = t.node_with_latency(
                    NodeKind::Cxl,
                    (total * 2 / 5).max(64),
                    self.cxl_latency_ns,
                );
                let f = t.node(NodeKind::CxlSwitched, (total - total * 2 / 5 * 2).max(64));
                t.set_distance(d, n, 14);
                t.set_distance(d, f, 30);
                t.set_distance(n, f, 20);
            }
            Shape::Preset(other) => {
                panic!("unknown topology preset {other:?} (try 2s2c, pooled, 3tier)")
            }
        }
        Memory::builder()
            .topology(t)
            .swap_pages(swap_pages)
            .demote_scale_bp(self.demote_scale_bp)
            .thp_mode(self.thp)
            .build()
    }
}

/// Splits `total` pages `local_parts : cxl_parts` into (local, cxl).
fn split(total: u64, local_parts: u64, cxl_parts: u64) -> (u64, u64) {
    assert!(local_parts > 0 && cxl_parts > 0, "both tiers need capacity");
    let local = total * local_parts / (local_parts + cxl_parts);
    (local, total - local)
}

/// The "all from local" baseline ([`Shape::AllLocal`]).
pub fn all_local(ws_pages: u64) -> Memory {
    MachineSpec::new(Shape::AllLocal, ws_pages).build()
}

/// A machine with `local_parts : cxl_parts` capacity split
/// ([`Shape::Ratio`]).
pub fn ratio(ws_pages: u64, local_parts: u64, cxl_parts: u64) -> Memory {
    MachineSpec::new(Shape::Ratio(local_parts, cxl_parts), ws_pages).build()
}

/// The production target: local:CXL = 2:1 (§6.2.1).
pub fn two_to_one(ws_pages: u64) -> Memory {
    ratio(ws_pages, 2, 1)
}

/// The memory-expansion stress setup: local:CXL = 1:4, i.e. the local
/// node holds only ~20% of the working set (§6.2.2).
pub fn one_to_four(ws_pages: u64) -> Memory {
    ratio(ws_pages, 1, 4)
}

/// `2s2c`: two CPU sockets, each with a direct-attached CXL expander.
///
/// Node layout: 0 = DRAM socket A, 1 = DRAM socket B, 2 = expander on A,
/// 3 = expander on B. Distances follow a real two-socket board: the own
/// expander (14) is closer than the peer socket (21), the peer's expander
/// (24) is further still. Each socket's demotions must therefore land on
/// *its own* expander, not a shared node 1.
pub fn two_socket_two_cxl(ws_pages: u64) -> Memory {
    topology_preset("2s2c", ws_pages)
}

/// `pooled`: one socket backed by a switch-attached CXL memory pool.
///
/// The pool is a [`NodeKind::CxlSwitched`] node: higher access latency,
/// two link hops per migration, and a larger NUMA distance (30) than a
/// direct expander would have.
pub fn pooled(ws_pages: u64) -> Memory {
    topology_preset("pooled", ws_pages)
}

/// `3tier`: DRAM → direct CXL expander → switch-attached pool.
///
/// Demotions cascade: the DRAM node's nearest lower tier is the direct
/// expander (distance 14), which in turn demotes into the pool (20); the
/// pool is terminal and falls back to default reclaim.
pub fn three_tier(ws_pages: u64) -> Memory {
    topology_preset("3tier", ws_pages)
}

/// The topology preset names accepted by [`topology_preset`], in the
/// order the `repro topology` experiments run them.
pub fn topology_preset_names() -> &'static [&'static str] {
    &["2s2c", "pooled", "3tier"]
}

/// Builds a machine from a topology preset name ([`Shape::Preset`]).
///
/// # Panics
///
/// Panics on a name not in [`topology_preset_names`].
pub fn topology_preset(name: &str, ws_pages: u64) -> Memory {
    let name = topology_preset_names()
        .iter()
        .find(|&&n| n == name)
        .unwrap_or_else(|| panic!("unknown topology preset {name:?} (try 2s2c, pooled, 3tier)"));
    MachineSpec::new(Shape::Preset(name), ws_pages).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{NodeId, TppWatermarks};

    #[test]
    fn ratios_split_capacity_as_labelled() {
        let m = two_to_one(30_000);
        let local = m.capacity(NodeId(0));
        let cxl = m.capacity(NodeId(1));
        let r = local as f64 / cxl as f64;
        assert!((1.9..2.1).contains(&r), "2:1 ratio got {r}");

        let m = one_to_four(30_000);
        let r = m.capacity(NodeId(1)) as f64 / m.capacity(NodeId(0)) as f64;
        assert!((3.9..4.1).contains(&r), "1:4 ratio got {r}");
    }

    #[test]
    fn total_capacity_slightly_exceeds_working_set() {
        for m in [two_to_one(50_000), one_to_four(50_000)] {
            let total = m.total_capacity();
            assert!(total > 50_000);
            assert!(total < 60_000);
        }
    }

    #[test]
    fn all_local_is_single_node() {
        let m = all_local(10_000);
        assert_eq!(m.node_count(), 1);
        assert!(m.capacity(NodeId(0)) >= 12_000);
        assert!(m.cxl_nodes().is_empty());
    }

    #[test]
    fn tiny_working_sets_get_floor_capacity() {
        let m = ratio(100, 1, 4);
        assert!(m.capacity(NodeId(0)) >= 64);
    }

    #[test]
    fn two_socket_preset_demotes_to_own_expander() {
        let m = two_socket_two_cxl(40_000);
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.local_nodes().as_slice(), &[NodeId(0), NodeId(1)]);
        // Socket A prefers its own expander, then the peer's.
        assert_eq!(
            m.node(NodeId(0)).demotion_order().as_slice(),
            &[NodeId(2), NodeId(3)]
        );
        assert_eq!(
            m.node(NodeId(1)).demotion_order().as_slice(),
            &[NodeId(3), NodeId(2)]
        );
        // Allocation fallback from socket B: itself, peer socket, own
        // expander order by distance (B=10, A=21, xB=14, xA=24).
        assert_eq!(
            m.fallback_order(NodeId(1)).as_slice(),
            &[NodeId(1), NodeId(3), NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn pooled_preset_is_switch_attached() {
        let m = pooled(10_000);
        assert_eq!(m.node_count(), 2);
        assert!(m.node(NodeId(1)).is_cpu_less());
        assert_eq!(m.migrate_hops(NodeId(0), NodeId(1)), 2);
        assert!(m.node(NodeId(1)).latency_ns() > 200);
    }

    #[test]
    fn three_tier_preset_cascades_demotions() {
        let m = three_tier(20_000);
        assert_eq!(m.node_count(), 3);
        assert_eq!(
            m.node(NodeId(0)).demotion_order().as_slice(),
            &[NodeId(1), NodeId(2)]
        );
        assert_eq!(m.node(NodeId(1)).demotion_order().as_slice(), &[NodeId(2)]);
        assert!(m.node(NodeId(2)).demotion_order().is_empty());
    }

    #[test]
    fn preset_dispatch_matches_names() {
        for &name in topology_preset_names() {
            let m = topology_preset(name, 5_000);
            assert!(m.total_capacity() > 0);
        }
    }

    /// What a run can observe of a machine: per-node capacity, latency
    /// and watermarks, the swap size and the THP mode.
    fn observable(m: &Memory) -> (Vec<(u64, u64, TppWatermarks)>, u64, ThpMode) {
        let nodes = (0..m.node_count())
            .map(|i| {
                let n = m.node(NodeId(i as u8));
                (m.capacity(NodeId(i as u8)), n.latency_ns(), *n.watermarks())
            })
            .collect();
        (nodes, m.swap().capacity(), m.thp_mode())
    }

    #[test]
    fn knobs_at_their_defaults_build_the_one_to_four_machine() {
        // The dsf sweep's 200 bp point, the latency sweep's 185 ns point
        // and the THP sweep's `never` point are all the 1:4 machine.
        let ws = 24_000;
        let base = MachineSpec::new(Shape::Ratio(1, 4), ws);
        for spec in [
            MachineSpec {
                demote_scale_bp: 200,
                ..base
            },
            MachineSpec {
                cxl_latency_ns: 185,
                ..base
            },
            MachineSpec {
                thp: ThpMode::Never,
                ..base
            },
        ] {
            assert_eq!(spec, base);
            assert_eq!(observable(&spec.build()), observable(&one_to_four(ws)));
        }
        for spec in [
            MachineSpec {
                demote_scale_bp: 400,
                ..base
            },
            MachineSpec {
                cxl_latency_ns: 350,
                ..base
            },
            MachineSpec {
                thp: ThpMode::Always,
                ..base
            },
        ] {
            assert_ne!(spec, base);
            assert_ne!(observable(&spec.build()), observable(&one_to_four(ws)));
        }
    }

    #[test]
    fn swap_pool_keeps_the_local_node_and_pools_the_rest() {
        let ws = 10_000;
        let pool = MachineSpec::new(Shape::SwapPool(1, 4), ws).build();
        let tiered = one_to_four(ws);
        assert_eq!(pool.node_count(), 1);
        assert_eq!(pool.capacity(NodeId(0)), tiered.capacity(NodeId(0)));
        assert_eq!(pool.swap().capacity(), tiered.capacity(NodeId(1)) + ws);
    }

    #[test]
    #[should_panic(expected = "unknown topology preset")]
    fn unknown_preset_panics() {
        topology_preset("4s4c", 1_000);
    }
}
