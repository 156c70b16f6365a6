//! The machine-wide memory subsystem façade: frame table + nodes +
//! address spaces + swap device + vmstat, with the mechanical operations
//! (map, unmap, migrate, swap in/out, drop) that placement *policies*
//! orchestrate.
//!
//! `Memory` deliberately contains **no policy**: it never decides *when*
//! to reclaim, demote, or promote — only *how*. Watermark checks are
//! exposed as data; the `tpp` crate's policies make the decisions.

use std::collections::HashMap;
use std::fmt;

use crate::error::{AllocError, MigrateError, SwapError};
use crate::flags::PageFlags;
use crate::frame::{FrameTable, HUGE_PAGE_FRAMES, MAX_PAGE_ORDER};
use crate::lru::LruKind;
use crate::node::{MemoryNode, NodeKind};
use crate::page_table::{AddressSpace, PageLocation};
use crate::pid_table::PidTable;
use crate::swap::{SwapDevice, SwapSlot};
use crate::telemetry::{TraceEvent, TraceRecord};
use crate::topology::Topology;
use crate::types::{NodeId, NodeList, PageKey, PageType, Pfn, Pid, ThpMode, Vpn};
use crate::vmstat::{VmEvent, VmStat};
use crate::watermark::{TppWatermarks, DEFAULT_DEMOTE_SCALE_BP};

/// Shadow entry left behind by an evicted file page (the kernel's
/// workingset-detection radix-tree shadows): records *when* (in
/// per-node eviction ticks) the page was pushed out, so a refault can
/// compute its refault distance.
#[derive(Clone, Copy, Debug)]
struct Shadow {
    node: NodeId,
    eviction_clock: u64,
}

/// Builder for [`Memory`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
///
/// # Examples
///
/// ```
/// use tiered_mem::{Memory, NodeKind};
///
/// let memory = Memory::builder()
///     .node(NodeKind::LocalDram, 1024)
///     .node(NodeKind::Cxl, 4096)
///     .swap_pages(8192)
///     .build();
/// assert_eq!(memory.node_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemoryBuilder {
    topology: Topology,
    swap_pages: Option<u64>,
    demote_scale_bp: u32,
    thp_mode: ThpMode,
}

impl MemoryBuilder {
    /// Creates a builder with no nodes and the default 2%
    /// `demote_scale_factor`.
    pub(crate) fn new() -> MemoryBuilder {
        MemoryBuilder {
            topology: Topology::new(),
            swap_pages: None,
            demote_scale_bp: DEFAULT_DEMOTE_SCALE_BP,
            thp_mode: ThpMode::Never,
        }
    }

    /// Adds a memory node of `kind` with `capacity` pages.
    pub fn node(&mut self, kind: NodeKind, capacity: u64) -> &mut MemoryBuilder {
        self.topology.node(kind, capacity);
        self
    }

    /// Adds a memory node with an explicit access latency (ns).
    pub fn node_with_latency(
        &mut self,
        kind: NodeKind,
        capacity: u64,
        latency_ns: u64,
    ) -> &mut MemoryBuilder {
        self.topology.node_with_latency(kind, capacity, latency_ns);
        self
    }

    /// Replaces the machine description wholesale with an explicit
    /// [`Topology`] (custom distance matrix, link properties, switch
    /// hops). Any nodes added through [`MemoryBuilder::node`] so far are
    /// discarded.
    pub fn topology(&mut self, topology: Topology) -> &mut MemoryBuilder {
        self.topology = topology;
        self
    }

    /// Sets the swap device capacity in pages (default: 4× total memory).
    pub fn swap_pages(&mut self, pages: u64) -> &mut MemoryBuilder {
        self.swap_pages = Some(pages);
        self
    }

    /// Sets `demote_scale_factor` in basis points (default 200 = 2%).
    pub fn demote_scale_bp(&mut self, bp: u32) -> &mut MemoryBuilder {
        self.demote_scale_bp = bp;
        self
    }

    /// Sets the machine's transparent-huge-page mode (default
    /// [`ThpMode::Never`]). The mode decides whether faults, khugepaged
    /// and kcompactd build compound pages; the buddy allocator underneath
    /// is the same in every mode.
    pub fn thp_mode(&mut self, mode: ThpMode) -> &mut MemoryBuilder {
        self.thp_mode = mode;
        self
    }

    /// Builds the memory subsystem.
    ///
    /// Placement orders are derived from the topology's distance matrix
    /// (paper §5.1/§5.2): the allocation fallback order walks nodes
    /// nearest-first, and every node's demotion order lists lower-tier
    /// nodes nearest-first (terminal tiers get an empty order and reclaim
    /// to swap).
    ///
    /// # Panics
    ///
    /// Panics if no node was configured.
    pub fn build(&self) -> Memory {
        let topo = &self.topology;
        assert!(!topo.is_empty(), "at least one memory node required");
        // The NodeId-indexed fast-path arrays (here and in the `tpp`
        // crate's `System`) assume ids are unique and densely numbered —
        // which `Topology` guarantees by construction.
        debug_assert!(
            topo.ids().enumerate().all(|(i, id)| id.index() == i),
            "node ids must be unique and densely numbered"
        );
        let capacities: Vec<u64> = topo.ids().map(|id| topo.capacity(id)).collect();
        let frames = FrameTable::new(&capacities);
        let nodes: Vec<MemoryNode> = topo
            .ids()
            .map(|id| {
                let cap = topo.capacity(id);
                let mut n = MemoryNode::new(id, topo.kind(id), cap);
                n.set_watermarks(TppWatermarks::for_capacity(cap, self.demote_scale_bp));
                n.set_latency_ns(topo.resolved_latency_ns(id));
                n.set_demotion_order(topo.demotion_order(id));
                n
            })
            .collect();
        let total: u64 = capacities.iter().sum();
        let swap = SwapDevice::new(self.swap_pages.unwrap_or(total * 4));
        let node_count = nodes.len();
        let fallback: Vec<NodeList> = topo.ids().map(|id| topo.fallback_order(id)).collect();
        Memory {
            frames,
            nodes,
            topology: topo.clone(),
            fallback,
            spaces: PidTable::new(),
            home_nodes: PidTable::new(),
            swap,
            vmstat: VmStat::new(),
            migration_matrix: vec![0; node_count * node_count],
            shadows: HashMap::new(),
            eviction_clocks: vec![0; node_count],
            trace: None,
            trace_now_ns: 0,
            scratch_pfn_bufs: Vec::new(),
            thp_mode: self.thp_mode,
        }
    }
}

/// The complete memory subsystem of one simulated machine.
pub struct Memory {
    frames: FrameTable,
    nodes: Vec<MemoryNode>,
    /// The machine description the placement orders were derived from.
    topology: Topology,
    /// Per-node allocation fallback order, indexed by source node
    /// (precomputed from the topology; the fault path reads it hot).
    fallback: Vec<NodeList>,
    spaces: PidTable<AddressSpace>,
    /// Home (socket) node per process; faults and promotions prefer it.
    /// Processes without an entry default to the first CPU-attached node.
    home_nodes: PidTable<NodeId>,
    swap: SwapDevice,
    vmstat: VmStat,
    /// Flattened src→dst page-migration counts (`from * n + to`), bumped
    /// on every successful migration recorded through [`Memory::record`].
    migration_matrix: Vec<u64>,
    /// Workingset shadows for dropped file pages.
    shadows: HashMap<PageKey, Shadow>,
    /// Per-node eviction clocks (file pages dropped so far).
    eviction_clocks: Vec<u64>,
    /// Records kept since [`Memory::enable_trace`]; `None` when untraced.
    trace: Option<Vec<TraceRecord>>,
    /// Simulation time stamped onto kept records.
    trace_now_ns: u64,
    /// Pool of reusable `Pfn` buffers for per-tick scans (reclaim,
    /// demotion). Pure capacity reuse — never observable state.
    scratch_pfn_bufs: Vec<Vec<Pfn>>,
    /// The machine's transparent-huge-page mode.
    thp_mode: ThpMode,
}

// Each worker of a parallel run builds and owns its machine, so `Memory`
// must stay `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Memory>();
};

impl Clone for Memory {
    /// Clones the full memory state. The trace is *not* cloned — tracing
    /// is enabled per run, so the clone starts untraced.
    fn clone(&self) -> Memory {
        Memory {
            frames: self.frames.clone(),
            nodes: self.nodes.clone(),
            topology: self.topology.clone(),
            fallback: self.fallback.clone(),
            spaces: self.spaces.clone(),
            home_nodes: self.home_nodes.clone(),
            swap: self.swap.clone(),
            vmstat: self.vmstat.clone(),
            migration_matrix: self.migration_matrix.clone(),
            shadows: self.shadows.clone(),
            eviction_clocks: self.eviction_clocks.clone(),
            trace: None,
            trace_now_ns: self.trace_now_ns,
            scratch_pfn_bufs: Vec::new(),
            thp_mode: self.thp_mode,
        }
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("frames", &self.frames)
            .field("nodes", &self.nodes)
            .field("topology", &self.topology)
            .field("spaces", &self.spaces)
            .field("swap", &self.swap)
            .field("vmstat", &self.vmstat)
            .field("shadows", &self.shadows)
            .field("eviction_clocks", &self.eviction_clocks)
            .field("traced", &self.trace.is_some())
            .field("trace_now_ns", &self.trace_now_ns)
            .field("thp_mode", &self.thp_mode)
            .finish_non_exhaustive()
    }
}

impl Memory {
    /// Starts building a memory subsystem.
    pub fn builder() -> MemoryBuilder {
        MemoryBuilder::new()
    }

    // ----- topology ------------------------------------------------------

    /// Number of memory nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Shared access to a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    #[inline]
    pub fn node(&self, id: NodeId) -> &MemoryNode {
        &self.nodes[id.index()]
    }

    /// Iterates all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &MemoryNode> {
        self.nodes.iter()
    }

    /// Ids of all CPU-attached (local) nodes.
    pub fn local_nodes(&self) -> NodeList {
        self.nodes
            .iter()
            .filter(|n| !n.is_cpu_less())
            .map(|n| n.id())
            .collect()
    }

    /// Ids of all CPU-less (CXL) nodes.
    pub fn cxl_nodes(&self) -> NodeList {
        self.nodes
            .iter()
            .filter(|n| n.is_cpu_less())
            .map(|n| n.id())
            .collect()
    }

    /// The machine description this memory was built from.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The allocation fallback order starting from `from`: `from` itself,
    /// then remaining nodes nearest-first by NUMA distance (the zonelist
    /// analogue), precomputed from the topology.
    #[inline]
    pub fn fallback_order(&self, from: NodeId) -> NodeList {
        self.fallback[from.index()]
    }

    /// Link hops a page copy between `a` and `b` traverses (≥ 1; a
    /// switch-attached pool adds one per switch traversal).
    #[inline]
    pub fn migrate_hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.topology.migrate_hops(a, b)
    }

    /// The home (socket) node of `pid`: its explicit binding if one was
    /// set, else the first CPU-attached node. Faults prefer it and
    /// promotions pull pages to it (§5.3: "the CPUs that access them").
    ///
    /// # Panics
    ///
    /// Panics if `pid` has no binding and the machine has no CPU-attached
    /// node.
    pub fn home_node(&self, pid: Pid) -> NodeId {
        self.home_nodes.get(pid).copied().unwrap_or_else(|| {
            self.topology
                .first_local()
                .expect("machine has no CPU-attached node")
        })
    }

    /// Binds `pid` to a home socket node (multi-socket machines). The
    /// process does not have to be registered yet.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or CPU-less.
    pub fn set_home_node(&mut self, pid: Pid, node: NodeId) {
        assert!(node.index() < self.nodes.len(), "unknown {node}");
        assert!(
            !self.nodes[node.index()].is_cpu_less(),
            "{node} is CPU-less and cannot be a home node"
        );
        self.home_nodes.insert(pid, node);
    }

    /// Successful page migrations from `from` to `to` so far (the src→dst
    /// migration matrix; demotions and promotions are distinguished by
    /// direction across tiers).
    #[inline]
    pub fn migrations_between(&self, from: NodeId, to: NodeId) -> u64 {
        self.migration_matrix[from.index() * self.nodes.len() + to.index()]
    }

    /// The full src→dst migration matrix, flattened row-major
    /// (`from * node_count + to`).
    #[inline]
    pub fn migration_matrix(&self) -> &[u64] {
        &self.migration_matrix
    }

    /// Borrows an empty, reusable `Pfn` buffer from the scratch pool.
    ///
    /// Per-tick scans (reclaim victim selection, demotion batches) hand
    /// the buffer back via [`Memory::put_pfn_scratch`] when done, so the
    /// steady state allocates nothing. Forgetting to return a buffer is
    /// harmless — the next taker just allocates a fresh one.
    pub fn take_pfn_scratch(&mut self) -> Vec<Pfn> {
        self.scratch_pfn_bufs.pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool (cleared, capacity kept).
    pub fn put_pfn_scratch(&mut self, mut buf: Vec<Pfn>) {
        buf.clear();
        self.scratch_pfn_bufs.push(buf);
    }

    /// Free pages on `node`.
    #[inline]
    pub fn free_pages(&self, node: NodeId) -> u64 {
        self.frames.free_pages(node)
    }

    /// Capacity of `node` in pages.
    #[inline]
    pub fn capacity(&self, node: NodeId) -> u64 {
        self.frames.capacity(node)
    }

    /// Total capacity across all nodes.
    pub fn total_capacity(&self) -> u64 {
        (0..self.node_count())
            .map(|i| self.frames.capacity(NodeId(i as u8)))
            .sum()
    }

    /// Shared access to the frame table.
    #[inline]
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// Mutable access to the frame table (for policies that tweak flags or
    /// hotness counters directly).
    #[inline]
    pub fn frames_mut(&mut self) -> &mut FrameTable {
        &mut self.frames
    }

    /// Splits the borrow into one node's LRU lists and the frame table,
    /// which is what every intrusive LRU operation needs
    /// (`lru.pop_back(frames, …)` etc.).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    #[inline]
    pub fn lru_and_frames_mut(
        &mut self,
        node: NodeId,
    ) -> (&mut crate::lru::NodeLru, &mut FrameTable) {
        (&mut self.nodes[node.index()].lru, &mut self.frames)
    }

    /// Shared access to the swap device.
    #[inline]
    pub fn swap(&self) -> &SwapDevice {
        &self.swap
    }

    /// The vmstat counters.
    #[inline]
    pub fn vmstat(&self) -> &VmStat {
        &self.vmstat
    }

    /// Mutable access to the vmstat counters (policies count their own
    /// decision events here).
    #[inline]
    pub fn vmstat_mut(&mut self) -> &mut VmStat {
        &mut self.vmstat
    }

    /// The machine's transparent-huge-page mode.
    #[inline]
    pub fn thp_mode(&self) -> ThpMode {
        self.thp_mode
    }

    // ----- telemetry ------------------------------------------------------

    /// Turns tracing on: every subsequent [`Memory::record`] call also
    /// keeps a timestamped record until [`Memory::take_trace`]. Counters
    /// are bumped either way.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// Hands out the records kept so far, oldest first; tracing stays on.
    /// Empty when tracing was never enabled.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Sets the simulation time stamped onto subsequently emitted trace
    /// records. Run loops call this once per event-loop step.
    #[inline]
    pub fn set_trace_now(&mut self, now_ns: u64) {
        self.trace_now_ns = now_ns;
    }

    /// Records one structured event: bumps every vmstat counter the event
    /// implies (`TraceEvent::count_into`) and, if tracing is on, keeps
    /// the record stamped with the current trace time.
    ///
    /// This is the single entry point for counted mutations, so the trace
    /// and the counters agree by construction.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        event.count_into(&mut self.vmstat);
        if let TraceEvent::Migrate { from, to, .. } = event {
            // Exactly one `Migrate` is recorded per successful
            // `migrate_page` (demotions/promotions add their own events
            // on top), so counting it here yields an un-double-counted
            // src→dst matrix.
            self.migration_matrix[from.index() * self.nodes.len() + to.index()] += 1;
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord {
                ts_ns: self.trace_now_ns,
                event,
            });
        }
    }

    // ----- processes ------------------------------------------------------

    /// Registers a new process.
    ///
    /// # Panics
    ///
    /// Panics if the pid already exists.
    pub fn create_process(&mut self, pid: Pid) {
        let prev = self.spaces.insert(pid, AddressSpace::new(pid));
        assert!(prev.is_none(), "{pid} already exists");
    }

    /// Shared access to a process' address space.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    #[inline]
    pub fn space(&self, pid: Pid) -> &AddressSpace {
        self.spaces
            .get(pid)
            .unwrap_or_else(|| panic!("unknown {pid}"))
    }

    /// Mutable access to a process' address space.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    #[inline]
    fn owner_space(&mut self, pid: Pid) -> &mut AddressSpace {
        self.spaces
            .get_mut(pid)
            .unwrap_or_else(|| panic!("unknown {pid}"))
    }

    /// All registered pids, in ascending order.
    pub fn pids(&self) -> Vec<Pid> {
        self.spaces.iter().map(|(pid, _)| pid).collect()
    }

    /// Destroys a process, releasing every resident page and swap slot.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    pub fn destroy_process(&mut self, pid: Pid) {
        let space = self
            .spaces
            .remove(pid)
            .unwrap_or_else(|| panic!("unknown {pid}"));
        self.home_nodes.remove(pid);
        self.shadows.retain(|key, _| key.pid != pid);
        for (_, loc) in space.iter() {
            match loc {
                PageLocation::Mapped(pfn) => {
                    self.unlink_frame(pfn);
                }
                PageLocation::Swapped(slot) => {
                    let _ = self.swap.discard(slot);
                }
            }
        }
    }

    // ----- page lifecycle -------------------------------------------------

    /// Allocates a frame on `node` and maps it at `(pid, vpn)`.
    ///
    /// Follows the kernel's LRU insertion convention: new anonymous pages
    /// join the **active** anon list, new file pages join the **inactive**
    /// file list. No watermark check is performed — callers (policies)
    /// decide whether the node is allowed to host the page.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoMemory`] if the node is full,
    /// [`AllocError::InvalidNode`] if it does not exist.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown or the vpn is already backed.
    pub fn alloc_and_map(
        &mut self,
        node: NodeId,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> Result<Pfn, AllocError> {
        let space = self
            .spaces
            .get_mut(pid)
            .unwrap_or_else(|| panic!("unknown {pid}"));
        assert!(
            space.translate(vpn).is_none(),
            "{pid}:{vpn} is already backed"
        );
        let key = PageKey::new(pid, vpn);
        let pfn = self.frames.alloc(node, key, page_type)?;
        space.map(vpn, pfn);
        // Workingset detection (`workingset_refault`): a file page that
        // was evicted recently — within roughly one active-list-worth of
        // evictions — was part of the workingset and rejoins the LRU as
        // an *active* page instead of starting cold.
        let mut active = page_type.is_anon();
        if let Some(shadow) = self.shadows.remove(&key) {
            if page_type.is_file_backed() {
                self.vmstat.count(VmEvent::WorkingsetRefault);
                let distance =
                    self.eviction_clocks[shadow.node.index()].saturating_sub(shadow.eviction_clock);
                let active_file = self.nodes[shadow.node.index()].lru.len(LruKind::FileActive)
                    + self.nodes[node.index()].lru.len(LruKind::FileActive);
                if distance <= active_file {
                    active = true;
                    self.vmstat.count(VmEvent::WorkingsetActivate);
                }
            }
        }
        let kind = LruKind::for_page(page_type, active);
        self.nodes[node.index()]
            .lru
            .push_front(&mut self.frames, kind, pfn);
        self.record_alloc(key, node);
        Ok(pfn)
    }

    /// Records a fresh allocation of `page` on `node`, local or remote.
    fn record_alloc(&mut self, page: PageKey, node: NodeId) {
        if self.nodes[node.index()].is_cpu_less() {
            self.record(TraceEvent::AllocRemote { page, node });
        } else {
            self.record(TraceEvent::AllocLocal { page, node });
        }
    }

    /// Unmaps `(pid, vpn)` and releases whatever backed it (frame or swap
    /// slot). Returns `true` if something was released.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    pub fn release(&mut self, pid: Pid, vpn: Vpn) -> bool {
        if let Some(PageLocation::Mapped(pfn)) = self.space(pid).translate(vpn) {
            self.split_if_compound(pfn);
        }
        match self.owner_space(pid).unmap(vpn) {
            Some(PageLocation::Mapped(pfn)) => {
                self.unlink_frame(pfn);
                true
            }
            Some(PageLocation::Swapped(slot)) => {
                let _ = self.swap.discard(slot);
                true
            }
            None => false,
        }
    }

    /// Migrates the page at `pfn` to `dst`, preserving owner mapping, page
    /// type, flags, hotness, and LRU position class (a page on an active
    /// list lands on the head of `dst`'s matching active list, etc.).
    ///
    /// A compound head moves as one unit: a block of the head's order is
    /// reserved on `dst` and every member is moved into it, under one
    /// [`TraceEvent::Migrate`] (the src→dst matrix counts compounds once,
    /// like base pages).
    ///
    /// Returns the new frame (the new head for a compound) on success.
    ///
    /// # Errors
    ///
    /// * [`MigrateError::NotAllocated`] — the frame is free.
    /// * [`MigrateError::CompoundPage`] — the frame is a compound tail.
    /// * [`MigrateError::SameNode`] — `dst` already holds the page.
    /// * [`MigrateError::Unevictable`] — the page is pinned.
    /// * [`MigrateError::Busy`] — the page is isolated by another path.
    /// * [`MigrateError::DstNoMemory`] — `dst` has no free block of the
    ///   page's order (callers typically split a compound and retry
    ///   page-by-page); the source is left untouched.
    pub fn migrate_page(&mut self, pfn: Pfn, dst: NodeId) -> Result<Pfn, MigrateError> {
        let frame = self.frames.frame(pfn);
        let owner = frame.owner().ok_or(MigrateError::NotAllocated { pfn })?;
        let (src, flags, kind) = (frame.node(), frame.flags(), frame.lru_kind());
        // Only a head moves a whole block. Deciding that on the flags
        // keeps base pages on the allocator's order-0 fast path instead of
        // indexing it with a loaded order.
        let order = if flags.contains(PageFlags::HEAD) {
            frame.order()
        } else {
            0
        };
        if flags.contains(PageFlags::TAIL) {
            return Err(MigrateError::CompoundPage { pfn });
        }
        if src == dst {
            return Err(MigrateError::SameNode { node: dst });
        }
        if flags.contains(PageFlags::UNEVICTABLE) {
            return Err(MigrateError::Unevictable { pfn });
        }
        if flags.contains(PageFlags::ISOLATED) {
            return Err(MigrateError::Busy { pfn });
        }
        let reserved = if self.frames.has_node(dst) {
            self.frames.reserve_block(dst, order)
        } else {
            None
        };
        let Some(new) = reserved else {
            self.record(TraceEvent::MigrateFail {
                page: owner,
                to: dst,
            });
            return Err(MigrateError::DstNoMemory { node: dst });
        };
        for i in 0..1u32 << order {
            self.move_frame(Pfn(pfn.0 + i), Pfn(new.0 + i), !PageFlags::ACTIVE);
        }
        self.frames.frame_mut(new).order = order;
        if let Some(kind) = kind {
            self.nodes[dst.index()]
                .lru
                .push_front(&mut self.frames, kind, new);
        }
        self.record(TraceEvent::Migrate {
            page: owner,
            from: src,
            to: dst,
        });
        Ok(new)
    }

    /// Moves the page in `src` into the reserved frame `dst`: unlinks and
    /// frees `src`, claims `dst` for the same owner and type, carries
    /// `flags & keep`, hotness and last access over, and remaps the PTE.
    /// Returns the LRU list `src` was on; relinking `dst` is the caller's.
    #[inline(always)]
    fn move_frame(&mut self, src: Pfn, dst: Pfn, keep: PageFlags) -> Option<LruKind> {
        let f = self.frames.frame(src);
        let (page_type, flags, kind) = (f.page_type(), f.flags(), f.lru_kind());
        let (hotness, last_access) = (f.hotness(), f.last_access_ns());
        let (owner, _) = self.unlink_frame(src);
        self.frames.claim(dst, owner, page_type);
        let f = self.frames.frame_mut(dst);
        *f.flags_mut() = flags & keep;
        f.set_hotness(hotness);
        f.set_last_access_ns(last_access);
        self.owner_space(owner.pid).map(owner.vpn, dst);
        kind
    }

    /// Unlinks `pfn` from its LRU list (if on one) and frees it, returning
    /// its former owner and node. Rewriting the PTE is the caller's.
    #[inline(always)]
    fn unlink_frame(&mut self, pfn: Pfn) -> (PageKey, NodeId) {
        let node = self.frames.frame(pfn).node();
        self.nodes[node.index()].lru.remove(&mut self.frames, pfn);
        (self.frames.free(pfn), node)
    }

    // ----- compound (huge) pages -------------------------------------------

    /// The head frame of the compound page containing `pfn` — identity
    /// for frames that are heads already. Compound alignment is
    /// node-relative, like every buddy computation.
    #[inline]
    pub fn compound_head(&self, pfn: Pfn) -> Pfn {
        let start = self.frames.pfn_range(self.frames.frame(pfn).node()).start;
        let rel = pfn.0 - start;
        Pfn(start + (rel & !(HUGE_PAGE_FRAMES as u32 - 1)))
    }

    /// Splits the compound page containing `pfn`, if any, so that one
    /// base page can be handled alone (the kernel's split-on-partial-unmap).
    fn split_if_compound(&mut self, pfn: Pfn) {
        if self
            .frames
            .frame(pfn)
            .flags()
            .intersects(PageFlags::HEAD | PageFlags::TAIL)
        {
            let head = self.compound_head(pfn);
            self.split_huge_page(head);
        }
    }

    /// Marks the claimed block at `head` as one compound page: `HEAD` and
    /// the order on the head frame, `TAIL` on the rest.
    fn make_compound(&mut self, head: Pfn) {
        for i in 0..HUGE_PAGE_FRAMES as u32 {
            let flag = if i == 0 {
                PageFlags::HEAD
            } else {
                PageFlags::TAIL
            };
            self.frames
                .frame_mut(Pfn(head.0 + i))
                .flags_mut()
                .insert(flag);
        }
        self.frames.frame_mut(head).order = MAX_PAGE_ORDER;
    }

    /// Allocates one 2 MiB compound page (an order-[`MAX_PAGE_ORDER`]
    /// block) on `node` and maps its [`HUGE_PAGE_FRAMES`] base pages at
    /// `base_vpn..base_vpn + 512` — the THP fault-time allocation.
    ///
    /// The head frame carries [`PageFlags::HEAD`] and the compound order;
    /// tails carry [`PageFlags::TAIL`] and stay off the LRU lists (only
    /// the head is linked, so LRU aging and demotion treat the compound
    /// as one unit). Counts `thp_fault_alloc`.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoMemory`] if the node has no free aligned block of
    /// sufficient order, [`AllocError::InvalidNode`] if it does not
    /// exist. On error nothing is allocated — the caller falls back to a
    /// base-page fault.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown, `page_type` is not anonymous,
    /// `base_vpn` is not 512-page aligned, or any page of the window is
    /// already backed.
    pub fn alloc_huge_and_map(
        &mut self,
        node: NodeId,
        pid: Pid,
        base_vpn: Vpn,
        page_type: PageType,
    ) -> Result<Pfn, AllocError> {
        assert!(page_type.is_anon(), "compound pages are anonymous-only");
        assert_eq!(
            base_vpn.0 % HUGE_PAGE_FRAMES,
            0,
            "compound mappings must be {HUGE_PAGE_FRAMES}-page aligned"
        );
        if !self.frames.has_node(node) {
            return Err(AllocError::InvalidNode { node });
        }
        let space = self.space(pid);
        for i in 0..HUGE_PAGE_FRAMES {
            let vpn = Vpn(base_vpn.0 + i);
            assert!(
                space.translate(vpn).is_none(),
                "{pid}:{vpn} is already backed"
            );
        }
        let head = self
            .frames
            .reserve_block(node, MAX_PAGE_ORDER)
            .ok_or(AllocError::NoMemory { node })?;
        for i in 0..HUGE_PAGE_FRAMES {
            let key = PageKey::new(pid, Vpn(base_vpn.0 + i));
            self.frames.claim(Pfn(head.0 + i as u32), key, page_type);
        }
        self.make_compound(head);
        let space = self.owner_space(pid);
        for i in 0..HUGE_PAGE_FRAMES {
            space.map(Vpn(base_vpn.0 + i), Pfn(head.0 + i as u32));
        }
        self.nodes[node.index()]
            .lru
            .push_front(&mut self.frames, LruKind::AnonActive, head);
        self.vmstat.count(VmEvent::ThpFaultAlloc);
        self.record_alloc(PageKey::new(pid, base_vpn), node);
        Ok(head)
    }

    /// Shatters the compound page headed by `head` back into base pages,
    /// returning how many pages the compound held.
    ///
    /// Every page keeps its frame, owner, flags, and hotness; the former
    /// tails join the **cold end** of the head's LRU list (they never had
    /// individual LRU standing, so they are the first reclaim candidates
    /// after a split). Counts `thp_split`.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a compound head.
    pub fn split_huge_page(&mut self, head: Pfn) -> u64 {
        let (pages, node, kind, owner) = {
            let frame = self.frames.frame(head);
            assert!(
                frame.flags().contains(PageFlags::HEAD),
                "{head} is not a compound head"
            );
            (
                1u64 << frame.order(),
                frame.node(),
                frame.lru_kind().expect("compound head must be LRU-linked"),
                frame.owner().expect("compound head must be allocated"),
            )
        };
        {
            let f = self.frames.frame_mut(head);
            f.flags_mut().remove(PageFlags::HEAD);
            f.order = 0;
        }
        for i in 1..pages {
            let tail = Pfn(head.0 + i as u32);
            self.frames
                .frame_mut(tail)
                .flags_mut()
                .remove(PageFlags::TAIL);
            self.nodes[node.index()]
                .lru
                .push_back(&mut self.frames, kind, tail);
        }
        self.record(TraceEvent::Split {
            page: owner,
            node,
            pages,
        });
        pages
    }

    /// Whether the 512-page window at `base_vpn` is eligible for
    /// khugepaged collapse, and if so on which node the compound should
    /// be assembled: every page resident, anonymous, un-pinned, not
    /// already compound, all on one node, and at least one of them warm
    /// (referenced or with hotness history). Returns that common node.
    pub fn collapse_candidate(&self, pid: Pid, base_vpn: Vpn) -> Option<NodeId> {
        debug_assert_eq!(base_vpn.0 % HUGE_PAGE_FRAMES, 0);
        let space = self.spaces.get(pid)?;
        let mut node = None;
        let mut warm = false;
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = match space.translate(Vpn(base_vpn.0 + i)) {
                Some(PageLocation::Mapped(pfn)) => pfn,
                _ => return None,
            };
            let frame = self.frames.frame(pfn);
            if !frame.page_type().is_anon() {
                return None;
            }
            if frame.flags().intersects(
                PageFlags::HEAD | PageFlags::TAIL | PageFlags::ISOLATED | PageFlags::UNEVICTABLE,
            ) {
                return None;
            }
            match node {
                None => node = Some(frame.node()),
                Some(n) if n != frame.node() => return None,
                _ => {}
            }
            warm = warm || frame.flags().contains(PageFlags::REFERENCED) || frame.hotness() > 0;
        }
        if warm {
            node
        } else {
            None
        }
    }

    /// Collapses the 512 resident base pages at `base_vpn` into one
    /// compound page on `node` (the khugepaged assembly step): a fresh
    /// aligned block is reserved, every base page is copied into it in
    /// window order, and the old scattered frames are freed. Referenced,
    /// dirty, and hotness state is carried per page; hint-fault marks are
    /// not (hint sampling restarts at head granularity). Counts
    /// `thp_collapse_alloc`.
    ///
    /// Callers are expected to have validated the window with
    /// [`Memory::collapse_candidate`].
    ///
    /// # Errors
    ///
    /// [`AllocError::NoMemory`] if `node` cannot supply an aligned block;
    /// the window is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `base_vpn` is misaligned or any page of the window is
    /// not resident.
    pub fn collapse_range(
        &mut self,
        pid: Pid,
        base_vpn: Vpn,
        node: NodeId,
    ) -> Result<Pfn, AllocError> {
        assert_eq!(
            base_vpn.0 % HUGE_PAGE_FRAMES,
            0,
            "compound mappings must be {HUGE_PAGE_FRAMES}-page aligned"
        );
        let new_head = self
            .frames
            .reserve_block(node, MAX_PAGE_ORDER)
            .ok_or(AllocError::NoMemory { node })?;
        for i in 0..HUGE_PAGE_FRAMES {
            let vpn = Vpn(base_vpn.0 + i);
            let old = match self.space(pid).translate(vpn) {
                Some(PageLocation::Mapped(pfn)) => pfn,
                other => panic!("{pid}:{vpn} not resident during collapse (found {other:?})"),
            };
            let new = Pfn(new_head.0 + i as u32);
            self.move_frame(old, new, PageFlags::REFERENCED | PageFlags::DIRTY);
        }
        self.make_compound(new_head);
        self.nodes[node.index()]
            .lru
            .push_front(&mut self.frames, LruKind::AnonActive, new_head);
        self.record(TraceEvent::Collapse {
            page: PageKey::new(pid, base_vpn),
            node,
            pages: HUGE_PAGE_FRAMES,
        });
        Ok(new_head)
    }

    /// Moves the movable base page `src` into the already-reserved frame
    /// `dst` on the same node — the compaction daemon's migration step.
    /// `dst` must have been taken off the free lists with
    /// [`FrameTable::reserve_page`]. The page keeps its LRU class but
    /// rejoins at the cold end.
    ///
    /// # Panics
    ///
    /// Panics if `src` is free or off-LRU, `dst` is on a different node,
    /// or `src` is pinned/compound (not movable).
    pub fn compact_relocate(&mut self, src: Pfn, dst: Pfn) {
        let f = self.frames.frame(src);
        let node = f.node();
        assert_eq!(
            self.frames.frame(dst).node(),
            node,
            "compaction is intra-node"
        );
        assert!(
            !f.flags().intersects(
                PageFlags::HEAD | PageFlags::TAIL | PageFlags::ISOLATED | PageFlags::UNEVICTABLE
            ),
            "{src} is not movable"
        );
        let kind = self
            .move_frame(src, dst, !PageFlags::ACTIVE)
            .expect("compaction moves LRU-resident pages");
        self.nodes[node.index()]
            .lru
            .push_back(&mut self.frames, kind, dst);
    }

    /// Pages `pfn` out to the swap device, freeing the frame.
    ///
    /// # Errors
    ///
    /// [`SwapError::Full`] if the device has no slot; the page is left
    /// resident.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    pub fn swap_out(&mut self, pfn: Pfn) -> Result<SwapSlot, SwapError> {
        // Compound pages are not swapped as a unit; split first, then the
        // caller's chosen member pages out alone.
        self.split_if_compound(pfn);
        let owner = self
            .frames
            .frame(pfn)
            .owner()
            .unwrap_or_else(|| panic!("swap_out of free {pfn}"));
        let slot = self.swap.swap_out(owner)?;
        let (_, node) = self.unlink_frame(pfn);
        self.owner_space(owner.pid).set_swapped(owner.vpn, slot);
        self.record(TraceEvent::SwapOut { page: owner, node });
        Ok(slot)
    }

    /// Brings a swapped-out page back in on `node` (major fault path).
    ///
    /// The page joins the inactive LRU of its class.
    ///
    /// # Errors
    ///
    /// [`AllocError`] if `node` cannot supply a frame (the swap slot is
    /// left intact so the fault can be retried elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `(pid, vpn)` is not currently swapped out.
    pub fn swap_in(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        node: NodeId,
        page_type: PageType,
    ) -> Result<Pfn, AllocError> {
        let slot = match self.spaces.get(pid).and_then(|s| s.translate(vpn)) {
            Some(PageLocation::Swapped(slot)) => slot,
            other => panic!("{pid}:{vpn} is not swapped out (found {other:?})"),
        };
        let pfn = self.frames.alloc(node, PageKey::new(pid, vpn), page_type)?;
        self.swap
            .swap_in(slot)
            .expect("swap slot vanished while mapped");
        self.owner_space(pid).map(vpn, pfn);
        let kind = LruKind::for_page(page_type, false);
        self.nodes[node.index()]
            .lru
            .push_front(&mut self.frames, kind, pfn);
        self.record(TraceEvent::SwapIn {
            page: PageKey::new(pid, vpn),
            node,
        });
        Ok(pfn)
    }

    /// Drops a clean file page without I/O (page-cache eviction). The next
    /// access will re-fault and re-read it.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free or not file-backed.
    pub fn drop_file_page(&mut self, pfn: Pfn) {
        assert!(
            self.frames.frame(pfn).page_type().is_file_backed(),
            "{pfn} is anon; anon pages must be swapped, not dropped"
        );
        let (owner, node) = self.unlink_frame(pfn);
        self.owner_space(owner.pid).unmap(owner.vpn);
        self.eviction_clocks[node.index()] += 1;
        self.shadows.insert(
            owner,
            Shadow {
                node,
                eviction_clock: self.eviction_clocks[node.index()],
            },
        );
        self.record(TraceEvent::FileDrop { page: owner, node });
    }

    // ----- LRU convenience (counted) ---------------------------------------

    /// Activates a page (inactive → active), counting `pgactivate`.
    pub fn activate_page(&mut self, pfn: Pfn) {
        let nid = self.frames.frame(pfn).node();
        if self.frames.frame(pfn).lru_kind().map(|k| k.is_active()) == Some(false) {
            self.nodes[nid.index()].lru.activate(&mut self.frames, pfn);
            self.vmstat.count(VmEvent::PgActivate);
        }
    }

    /// Deactivates a page (active → inactive), counting `pgdeactivate`.
    pub fn deactivate_page(&mut self, pfn: Pfn) {
        let nid = self.frames.frame(pfn).node();
        if self.frames.frame(pfn).lru_kind().map(|k| k.is_active()) == Some(true) {
            self.nodes[nid.index()]
                .lru
                .deactivate(&mut self.frames, pfn);
            self.vmstat.count(VmEvent::PgDeactivate);
        }
    }

    /// Rotates a referenced page to the MRU end of its current list.
    pub fn rotate_page(&mut self, pfn: Pfn) {
        let nid = self.frames.frame(pfn).node();
        if self.frames.frame(pfn).lru_kind().is_some() {
            self.nodes[nid.index()]
                .lru
                .move_to_front(&mut self.frames, pfn);
        }
    }

    // ----- statistics -------------------------------------------------------

    /// Resident pages per node split `(anon, file)` — the per-node usage
    /// figure the paper's plots are built on.
    pub fn node_usage(&self, node: NodeId) -> (u64, u64) {
        let lru = &self.nodes[node.index()].lru;
        (lru.anon_total(), lru.file_total())
    }

    /// Exhaustive cross-structure invariant check, used by tests and
    /// property tests after every operation sequence.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn validate(&self) {
        // 0. Buddy free-list structure (link integrity, alignment,
        //    per-order counts, free totals).
        self.frames.validate_free_lists();
        // 1. Per-node frame accounting.
        for n in &self.nodes {
            let cap = self.frames.capacity(n.id());
            let free = self.frames.free_pages(n.id());
            let used = self.frames.used_pages(n.id());
            assert_eq!(free + used, cap, "accounting leak on {}", n.id());
            // 2. LRU linkage.
            n.lru.validate(&self.frames);
            // 3. Every allocated frame on this node is on one of its lists
            //    (the simulator never leaves pages floating off-LRU between
            //    operations) and its class matches its type — except
            //    compound tails, which are represented on the LRU solely
            //    by their head. Compound shape is checked along the way.
            let mut tails = 0u64;
            for pfn in self.frames.allocated_on(n.id()) {
                let frame = self.frames.frame(pfn);
                if frame.flags().contains(PageFlags::TAIL) {
                    assert!(frame.lru_kind().is_none(), "tail {pfn} on an LRU list");
                    tails += 1;
                }
                if frame.flags().contains(PageFlags::HEAD) {
                    assert_eq!(frame.order(), MAX_PAGE_ORDER, "head {pfn} with wrong order");
                    let start = self.frames.pfn_range(n.id()).start;
                    assert_eq!(
                        ((pfn.0 - start) as u64) % HUGE_PAGE_FRAMES,
                        0,
                        "misaligned compound head {pfn}"
                    );
                    let owner = frame.owner().expect("head must be allocated");
                    for i in 1..HUGE_PAGE_FRAMES {
                        let tail = self.frames.frame(Pfn(pfn.0 + i as u32));
                        assert!(
                            tail.flags().contains(PageFlags::TAIL),
                            "compound {pfn} missing tail {i}"
                        );
                        let t = tail.owner().expect("tail must be allocated");
                        assert_eq!(t.pid, owner.pid, "mixed-pid compound at {pfn}");
                        assert_eq!(
                            t.vpn.0,
                            owner.vpn.0 + i,
                            "non-contiguous compound vpns at {pfn}"
                        );
                    }
                }
            }
            let mut on_lists = 0u64;
            for kind in LruKind::ALL {
                on_lists += n.lru.len(kind);
            }
            assert_eq!(
                on_lists,
                used - tails,
                "{}: {} pages off-LRU",
                n.id(),
                used - tails - on_lists
            );
        }
        // 4. Page-table ↔ frame-owner bijection, and each space's leaf
        //    live counts ↔ its entries.
        let mut mapped = 0u64;
        for (pid, space) in self.spaces.iter() {
            space.validate();
            for (vpn, loc) in space.iter() {
                match loc {
                    PageLocation::Mapped(pfn) => {
                        mapped += 1;
                        let frame = self.frames.frame(pfn);
                        assert_eq!(
                            frame.owner(),
                            Some(PageKey::new(pid, vpn)),
                            "rmap mismatch at {pfn}"
                        );
                    }
                    PageLocation::Swapped(slot) => {
                        assert_eq!(
                            self.swap.peek(slot),
                            Some(PageKey::new(pid, vpn)),
                            "swap slot mismatch at {slot:?}"
                        );
                    }
                }
            }
        }
        let used_total: u64 = (0..self.node_count())
            .map(|i| self.frames.used_pages(NodeId(i as u8)))
            .sum();
        assert_eq!(mapped, used_total, "orphaned frames exist");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Memory {
        Memory::builder()
            .node(NodeKind::LocalDram, 64)
            .node(NodeKind::Cxl, 128)
            .swap_pages(256)
            .build()
    }

    #[test]
    fn builder_assigns_demotion_targets_by_distance() {
        let m = Memory::builder()
            .node(NodeKind::LocalDram, 16)
            .node(NodeKind::Cxl, 16)
            .node(NodeKind::Cxl, 16)
            .build();
        assert_eq!(m.node(NodeId(0)).demotion_target(), Some(NodeId(1)));
        assert_eq!(m.node(NodeId(1)).demotion_target(), None);
        assert_eq!(m.local_nodes().as_slice(), &[NodeId(0)]);
        assert_eq!(m.cxl_nodes().as_slice(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn fallback_order_is_distance_sorted() {
        let m = Memory::builder()
            .node(NodeKind::LocalDram, 16)
            .node(NodeKind::Cxl, 16)
            .node(NodeKind::Cxl, 16)
            .build();
        assert_eq!(
            m.fallback_order(NodeId(0)).as_slice(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(
            m.fallback_order(NodeId(2)).as_slice(),
            &[NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn explicit_topology_drives_orders_and_latencies() {
        let mut t = Topology::new();
        t.node(NodeKind::LocalDram, 16); // 0
        t.node(NodeKind::LocalDram, 16); // 1: other socket
        t.node(NodeKind::Cxl, 16); // 2: socket 1's expander
        t.set_distance(NodeId(0), NodeId(1), 21);
        t.set_distance(NodeId(1), NodeId(2), 14);
        t.set_distance(NodeId(0), NodeId(2), 24);
        let m = Memory::builder().topology(t).build();
        // Socket 1 prefers its own expander over the remote socket.
        assert_eq!(
            m.fallback_order(NodeId(1)).as_slice(),
            &[NodeId(1), NodeId(2), NodeId(0)]
        );
        assert_eq!(m.node(NodeId(0)).demotion_target(), Some(NodeId(2)));
        assert_eq!(m.node(NodeId(2)).latency_ns(), 185);
        assert_eq!(m.topology().distance(NodeId(0), NodeId(1)), 21);
    }

    #[test]
    fn migration_matrix_counts_by_direction() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let down = m.migrate_page(pfn, NodeId(1)).unwrap();
        let _up = m.migrate_page(down, NodeId(0)).unwrap();
        let pfn2 = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(1), PageType::Anon)
            .unwrap();
        m.migrate_page(pfn2, NodeId(1)).unwrap();
        assert_eq!(m.migrations_between(NodeId(0), NodeId(1)), 2);
        assert_eq!(m.migrations_between(NodeId(1), NodeId(0)), 1);
        assert_eq!(m.migration_matrix().iter().sum::<u64>(), 3);
        // Clones carry the matrix (it is counter state, like vmstat).
        let c = m.clone();
        assert_eq!(c.migrations_between(NodeId(0), NodeId(1)), 2);
    }

    #[test]
    fn clone_starts_untraced_and_take_trace_drains() {
        let mut m = two_node();
        m.enable_trace();
        m.create_process(Pid(1));
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let mut c = m.clone();
        c.alloc_and_map(NodeId(0), Pid(1), Vpn(1), PageType::Anon)
            .unwrap();
        assert!(c.take_trace().is_empty(), "a clone starts untraced");
        assert_eq!(m.take_trace().len(), 1);
        assert!(m.take_trace().is_empty(), "take_trace drains");
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(2), PageType::Anon)
            .unwrap();
        assert_eq!(m.take_trace().len(), 1, "tracing stays on");
    }

    #[test]
    fn home_nodes_default_to_first_local() {
        let mut t = Topology::new();
        t.node(NodeKind::Cxl, 16); // 0: expander first, deliberately
        t.node(NodeKind::LocalDram, 16); // 1
        t.node(NodeKind::LocalDram, 16); // 2
        let mut m = Memory::builder().topology(t).build();
        assert_eq!(m.home_node(Pid(1)), NodeId(1));
        m.set_home_node(Pid(1), NodeId(2));
        assert_eq!(m.home_node(Pid(1)), NodeId(2));
        assert_eq!(m.home_node(Pid(9)), NodeId(1), "unbound pids default");
    }

    #[test]
    fn sparse_pids_map_release_and_destroy() {
        let mut m = two_node();
        let pids = [Pid(u32::MAX), Pid(0), Pid(2)];
        for pid in pids {
            m.create_process(pid);
            m.validate();
        }
        assert_eq!(m.pids(), [Pid(0), Pid(2), Pid(u32::MAX)]);
        for pid in pids {
            for vpn in [Vpn(0), Vpn(1)] {
                m.alloc_and_map(NodeId(0), pid, vpn, PageType::Anon)
                    .unwrap();
                m.validate();
            }
        }
        for pid in pids {
            assert!(m.release(pid, Vpn(0)));
            m.validate();
            assert_eq!(m.space(pid).resident_pages(), 1);
        }
        assert_eq!(m.free_pages(NodeId(0)), 64 - 3);
        m.destroy_process(Pid(2));
        m.validate();
        assert_eq!(m.pids(), [Pid(0), Pid(u32::MAX)]);
        m.destroy_process(Pid(u32::MAX));
        m.validate();
        m.destroy_process(Pid(0));
        m.validate();
        assert!(m.pids().is_empty());
        assert_eq!(m.free_pages(NodeId(0)), 64);
    }

    #[test]
    #[should_panic(expected = "CPU-less")]
    fn cpu_less_home_node_rejected() {
        let mut m = two_node();
        m.set_home_node(Pid(1), NodeId(1));
    }

    #[test]
    fn alloc_and_map_places_new_pages_on_correct_lru() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let anon = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let file = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(1), PageType::File)
            .unwrap();
        // Kernel convention: new anon → active, new file → inactive.
        assert_eq!(m.frames().frame(anon).lru_kind(), Some(LruKind::AnonActive));
        assert_eq!(
            m.frames().frame(file).lru_kind(),
            Some(LruKind::FileInactive)
        );
        assert_eq!(m.vmstat().get(VmEvent::PgAllocLocal), 2);
        m.validate();
    }

    #[test]
    fn remote_allocation_counts_as_remote() {
        let mut m = two_node();
        m.create_process(Pid(1));
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        assert_eq!(m.vmstat().get(VmEvent::PgAllocRemote), 1);
        assert_eq!(m.vmstat().get(VmEvent::PgAllocLocal), 0);
    }

    #[test]
    fn migrate_preserves_mapping_type_flags_and_lru_class() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(7), PageType::Anon)
            .unwrap();
        m.frames_mut()
            .frame_mut(pfn)
            .flags_mut()
            .insert(PageFlags::DEMOTED);
        let new = m.migrate_page(pfn, NodeId(1)).unwrap();
        assert_ne!(pfn, new);
        assert_eq!(m.frames().frame(new).node(), NodeId(1));
        assert_eq!(m.frames().frame(new).page_type(), PageType::Anon);
        assert!(m.frames().frame(new).flags().contains(PageFlags::DEMOTED));
        // Still on an *active* anon list, now on node 1.
        assert_eq!(m.frames().frame(new).lru_kind(), Some(LruKind::AnonActive));
        assert_eq!(
            m.space(Pid(1)).translate(Vpn(7)),
            Some(PageLocation::Mapped(new))
        );
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateSuccess), 1);
        m.validate();
    }

    #[test]
    fn migrate_to_full_node_fails_cleanly() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 4)
            .node(NodeKind::Cxl, 1)
            .build();
        m.create_process(Pid(1));
        // Fill the CXL node.
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(100), PageType::Anon)
            .unwrap();
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let err = m.migrate_page(pfn, NodeId(1)).unwrap_err();
        assert_eq!(err, MigrateError::DstNoMemory { node: NodeId(1) });
        // Source untouched.
        assert_eq!(
            m.space(Pid(1)).translate(Vpn(0)),
            Some(PageLocation::Mapped(pfn))
        );
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateFail), 1);
        m.validate();
    }

    #[test]
    fn migrate_same_node_and_unevictable_rejected() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        assert_eq!(
            m.migrate_page(pfn, NodeId(0)),
            Err(MigrateError::SameNode { node: NodeId(0) })
        );
        m.frames_mut()
            .frame_mut(pfn)
            .flags_mut()
            .insert(PageFlags::UNEVICTABLE);
        assert_eq!(
            m.migrate_page(pfn, NodeId(1)),
            Err(MigrateError::Unevictable { pfn })
        );
    }

    #[test]
    fn swap_out_and_in_round_trip() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(3), PageType::Anon)
            .unwrap();
        let slot = m.swap_out(pfn).unwrap();
        assert_eq!(m.free_pages(NodeId(0)), 64);
        assert_eq!(
            m.space(Pid(1)).translate(Vpn(3)),
            Some(PageLocation::Swapped(slot))
        );
        m.validate();
        let back = m
            .swap_in(Pid(1), Vpn(3), NodeId(0), PageType::Anon)
            .unwrap();
        assert_eq!(
            m.space(Pid(1)).translate(Vpn(3)),
            Some(PageLocation::Mapped(back))
        );
        assert_eq!(m.vmstat().get(VmEvent::PswpOut), 1);
        assert_eq!(m.vmstat().get(VmEvent::PswpIn), 1);
        assert_eq!(m.vmstat().get(VmEvent::PgMajFault), 1);
        m.validate();
    }

    #[test]
    fn drop_file_page_unmaps_entirely() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(3), PageType::File)
            .unwrap();
        m.drop_file_page(pfn);
        assert_eq!(m.space(Pid(1)).translate(Vpn(3)), None);
        assert_eq!(m.vmstat().get(VmEvent::PgDropFile), 1);
        m.validate();
    }

    #[test]
    #[should_panic(expected = "anon pages must be swapped")]
    fn drop_anon_page_panics() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(3), PageType::Anon)
            .unwrap();
        m.drop_file_page(pfn);
    }

    #[test]
    fn destroy_process_releases_everything() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn0 = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.alloc_and_map(NodeId(1), Pid(1), Vpn(1), PageType::File)
            .unwrap();
        m.swap_out(pfn0).unwrap();
        m.destroy_process(Pid(1));
        assert_eq!(m.free_pages(NodeId(0)), 64);
        assert_eq!(m.free_pages(NodeId(1)), 128);
        assert_eq!(m.swap().used_slots(), 0);
        assert!(m.pids().is_empty());
    }

    #[test]
    fn activate_deactivate_rotate_count_events() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::File)
            .unwrap();
        m.activate_page(pfn);
        assert_eq!(m.frames().frame(pfn).lru_kind(), Some(LruKind::FileActive));
        m.activate_page(pfn); // idempotent, no double count
        assert_eq!(m.vmstat().get(VmEvent::PgActivate), 1);
        m.deactivate_page(pfn);
        assert_eq!(m.vmstat().get(VmEvent::PgDeactivate), 1);
        m.rotate_page(pfn);
        m.validate();
    }

    #[test]
    fn workingset_refault_reactivates_recent_evictions() {
        let mut m = two_node();
        m.create_process(Pid(1));
        let pfn = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(3), PageType::File)
            .unwrap();
        // Keep an active file page around so the refault distance test
        // has a non-empty active list to compare against.
        let keeper = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(4), PageType::File)
            .unwrap();
        m.activate_page(keeper);
        m.drop_file_page(pfn);
        // Refault immediately: distance 0 <= active_file → activated.
        let back = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(3), PageType::File)
            .unwrap();
        assert_eq!(m.frames().frame(back).lru_kind(), Some(LruKind::FileActive));
        assert_eq!(m.vmstat().get(VmEvent::WorkingsetRefault), 1);
        assert_eq!(m.vmstat().get(VmEvent::WorkingsetActivate), 1);
        m.validate();
    }

    #[test]
    fn distant_refault_stays_inactive() {
        let mut m = Memory::builder().node(NodeKind::LocalDram, 64).build();
        m.create_process(Pid(1));
        let victim = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::File)
            .unwrap();
        m.drop_file_page(victim);
        // Push the eviction clock far past the (empty) active list.
        for i in 1..20u64 {
            let p = m
                .alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::File)
                .unwrap();
            m.drop_file_page(p);
        }
        let back = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::File)
            .unwrap();
        assert_eq!(
            m.frames().frame(back).lru_kind(),
            Some(LruKind::FileInactive)
        );
        assert_eq!(m.vmstat().get(VmEvent::WorkingsetActivate), 0);
        assert!(m.vmstat().get(VmEvent::WorkingsetRefault) >= 1);
    }

    #[test]
    fn node_usage_splits_by_class() {
        let mut m = two_node();
        m.create_process(Pid(1));
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(1), PageType::Tmpfs)
            .unwrap();
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(2), PageType::File)
            .unwrap();
        assert_eq!(m.node_usage(NodeId(0)), (1, 2));
    }

    // ---- compound (huge) pages -------------------------------------

    #[test]
    fn never_mode_churn_then_release_restores_the_seeded_blocks() {
        // The buddy allocator runs in every THP mode: base-page churn on
        // a `Never` machine splits and merges blocks, and releasing every
        // page merges each node back into the blocks it was seeded with.
        let caps = [1000, 1517];
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, caps[0])
            .node(NodeKind::Cxl, caps[1])
            .build();
        assert_eq!(m.thp_mode(), ThpMode::Never);
        let seeded = FrameTable::new(&caps);
        m.create_process(Pid(1));
        let mut live: Vec<Vpn> = Vec::new();
        let mut state: u64 = 0x2545_f491;
        for i in 0..5_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pick = (state >> 8) as usize;
            if state % 4 < 2 || live.is_empty() {
                let node = NodeId((pick & 1) as u8);
                if m.alloc_and_map(node, Pid(1), Vpn(i), PageType::Anon)
                    .is_ok()
                {
                    live.push(Vpn(i));
                }
            } else if state % 4 == 2 {
                assert!(m.release(Pid(1), live.swap_remove(pick % live.len())));
            } else if let Some(PageLocation::Mapped(pfn)) =
                m.space(Pid(1)).translate(live[pick % live.len()])
            {
                let dst = NodeId(1 - m.frames().frame(pfn).node().0);
                let _ = m.migrate_page(pfn, dst);
            }
        }
        m.validate();
        assert!(!live.is_empty());
        for vpn in live.drain(..) {
            assert!(m.release(Pid(1), vpn));
        }
        m.validate();
        for node in [NodeId(0), NodeId(1)] {
            assert_eq!(m.free_pages(node), m.capacity(node));
            for order in 0..=MAX_PAGE_ORDER {
                assert_eq!(
                    m.frames().free_blocks(node, order),
                    seeded.free_blocks(node, order),
                    "{node} order {order}"
                );
            }
        }
    }

    fn thp_two_node() -> Memory {
        Memory::builder()
            .node(NodeKind::LocalDram, 2048)
            .node(NodeKind::Cxl, 2048)
            .swap_pages(4096)
            .thp_mode(ThpMode::Always)
            .build()
    }

    #[test]
    fn alloc_huge_maps_whole_window_under_one_lru_entry() {
        let mut m = thp_two_node();
        assert_eq!(m.thp_mode(), ThpMode::Always);
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(512), PageType::Anon)
            .unwrap();
        let hf = m.frames().frame(head);
        assert!(hf.flags().contains(PageFlags::HEAD));
        assert_eq!(hf.order(), MAX_PAGE_ORDER);
        assert_eq!(hf.lru_kind(), Some(LruKind::AnonActive));
        // Every window page translates to its own frame; tails are
        // allocated but off-LRU.
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = Pfn(head.0 + i as u32);
            assert_eq!(
                m.space(Pid(1)).translate(Vpn(512 + i)),
                Some(PageLocation::Mapped(pfn))
            );
            if i > 0 {
                assert!(m.frames().frame(pfn).flags().contains(PageFlags::TAIL));
                assert_eq!(m.frames().frame(pfn).lru_kind(), None);
            }
        }
        assert_eq!(m.free_pages(NodeId(0)), 2048 - 512);
        assert_eq!(m.node(NodeId(0)).lru.anon_total(), 1);
        assert_eq!(m.vmstat().get(VmEvent::ThpFaultAlloc), 1);
        m.validate();
        assert_eq!(m.compound_head(Pfn(head.0 + 100)), head);
    }

    #[test]
    fn split_huge_page_round_trip_is_lossless() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.frames_mut()
            .frame_mut(Pfn(head.0 + 7))
            .flags_mut()
            .insert(PageFlags::DIRTY);
        assert_eq!(m.split_huge_page(head), HUGE_PAGE_FRAMES);
        assert_eq!(m.vmstat().get(VmEvent::ThpSplit), 1);
        // All 512 pages now independently LRU-resident, mappings intact,
        // per-page state kept.
        assert_eq!(m.node(NodeId(0)).lru.anon_total(), HUGE_PAGE_FRAMES);
        assert!(m
            .frames()
            .frame(Pfn(head.0 + 7))
            .flags()
            .contains(PageFlags::DIRTY));
        for i in 0..HUGE_PAGE_FRAMES {
            let pfn = Pfn(head.0 + i as u32);
            assert!(!m
                .frames()
                .frame(pfn)
                .flags()
                .intersects(PageFlags::HEAD | PageFlags::TAIL));
            assert_eq!(
                m.space(Pid(1)).translate(Vpn(i)),
                Some(PageLocation::Mapped(pfn))
            );
        }
        m.validate();
        // Base pages are individually migratable again.
        m.migrate_page(Pfn(head.0 + 3), NodeId(1)).unwrap();
        m.validate();
    }

    #[test]
    fn compound_head_migrates_whole_and_tail_is_rejected() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let tail = Pfn(head.0 + 9);
        assert_eq!(
            m.migrate_page(tail, NodeId(1)),
            Err(MigrateError::CompoundPage { pfn: tail })
        );
        let new_head = m.migrate_page(head, NodeId(1)).unwrap();
        assert!(m.frames().frame(new_head).flags().contains(PageFlags::HEAD));
        let new_tail = Pfn(new_head.0 + 9);
        assert!(m.frames().frame(new_tail).flags().contains(PageFlags::TAIL));
        assert_eq!(
            m.migrate_page(new_tail, NodeId(0)),
            Err(MigrateError::CompoundPage { pfn: new_tail })
        );
        m.validate();
    }

    #[test]
    fn compound_head_same_node_busy_and_unevictable_rejected() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        assert_eq!(
            m.migrate_page(head, NodeId(0)),
            Err(MigrateError::SameNode { node: NodeId(0) })
        );
        for (flag, err) in [
            (PageFlags::ISOLATED, MigrateError::Busy { pfn: head }),
            (
                PageFlags::UNEVICTABLE,
                MigrateError::Unevictable { pfn: head },
            ),
        ] {
            m.frames_mut().frame_mut(head).flags_mut().insert(flag);
            assert_eq!(m.migrate_page(head, NodeId(1)), Err(err));
            m.frames_mut().frame_mut(head).flags_mut().remove(flag);
        }
        // Rejections leave the compound in place and count no migration.
        assert_eq!(m.free_pages(NodeId(1)), 2048);
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateSuccess), 0);
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateFail), 0);
        m.validate();
    }

    #[test]
    fn migrate_page_moves_a_compound_as_one_unit() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.frames_mut().frame_mut(head).set_hotness(5);
        let new_head = m.migrate_page(head, NodeId(1)).unwrap();
        assert_eq!(m.frames().frame(new_head).node(), NodeId(1));
        assert!(m.frames().frame(new_head).flags().contains(PageFlags::HEAD));
        assert_eq!(m.frames().frame(new_head).order(), MAX_PAGE_ORDER);
        assert_eq!(m.frames().frame(new_head).hotness(), 5);
        assert_eq!(
            m.frames().frame(new_head).lru_kind(),
            Some(LruKind::AnonActive)
        );
        // One migration decision → one matrix bump, not 512.
        assert_eq!(m.migrations_between(NodeId(0), NodeId(1)), 1);
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateSuccess), 1);
        assert_eq!(m.free_pages(NodeId(0)), 2048);
        for i in 0..HUGE_PAGE_FRAMES {
            assert_eq!(
                m.space(Pid(1)).translate(Vpn(i)),
                Some(PageLocation::Mapped(Pfn(new_head.0 + i as u32)))
            );
        }
        m.validate();
    }

    #[test]
    fn compound_migration_fails_cleanly_without_an_aligned_block() {
        let mut m = Memory::builder()
            .node(NodeKind::LocalDram, 1024)
            // 511 pages: free memory exists but no aligned order-9 block
            // can ever be assembled on this node.
            .node(NodeKind::Cxl, 511)
            .thp_mode(ThpMode::Always)
            .build();
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let err = m.migrate_page(head, NodeId(1)).unwrap_err();
        assert_eq!(err, MigrateError::DstNoMemory { node: NodeId(1) });
        assert_eq!(m.vmstat().get(VmEvent::PgMigrateFail), 1);
        // Source untouched.
        assert!(m.frames().frame(head).flags().contains(PageFlags::HEAD));
        m.validate();
    }

    #[test]
    fn release_of_one_member_splits_the_compound_first() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        assert!(m.release(Pid(1), Vpn(40)));
        assert_eq!(m.vmstat().get(VmEvent::ThpSplit), 1);
        assert_eq!(m.space(Pid(1)).translate(Vpn(40)), None);
        assert_eq!(
            m.space(Pid(1)).translate(Vpn(41)),
            Some(PageLocation::Mapped(Pfn(head.0 + 41)))
        );
        assert_eq!(m.free_pages(NodeId(0)), 2048 - 511);
        m.validate();
    }

    #[test]
    fn swap_out_of_a_member_splits_the_compound_first() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        let head = m
            .alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        let victim = Pfn(head.0 + 100);
        let slot = m.swap_out(victim).unwrap();
        assert_eq!(m.vmstat().get(VmEvent::ThpSplit), 1);
        assert_eq!(
            m.space(Pid(1)).translate(Vpn(100)),
            Some(PageLocation::Swapped(slot))
        );
        m.validate();
    }

    #[test]
    fn collapse_assembles_scattered_base_pages() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        // Scatter 512 base pages (interleaved with a neighbour window so
        // the PFN run is not naturally aligned or contiguous).
        for i in 0..HUGE_PAGE_FRAMES {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(4096 + i), PageType::Anon)
                .unwrap();
        }
        // Not warm yet → no candidate.
        assert_eq!(m.collapse_candidate(Pid(1), Vpn(0)), None);
        let pfn0 = match m.space(Pid(1)).translate(Vpn(0)) {
            Some(PageLocation::Mapped(p)) => p,
            _ => unreachable!(),
        };
        m.frames_mut()
            .frame_mut(pfn0)
            .flags_mut()
            .insert(PageFlags::REFERENCED);
        assert_eq!(m.collapse_candidate(Pid(1), Vpn(0)), Some(NodeId(0)));
        // A misaligned or partially-mapped window is never a candidate.
        assert_eq!(m.collapse_candidate(Pid(1), Vpn(512)), None);
        let head = m.collapse_range(Pid(1), Vpn(0), NodeId(0)).unwrap();
        assert_eq!(m.vmstat().get(VmEvent::ThpCollapseAlloc), 1);
        assert!(m.frames().frame(head).flags().contains(PageFlags::HEAD));
        assert!(m
            .frames()
            .frame(head)
            .flags()
            .contains(PageFlags::REFERENCED));
        for i in 0..HUGE_PAGE_FRAMES {
            assert_eq!(
                m.space(Pid(1)).translate(Vpn(i)),
                Some(PageLocation::Mapped(Pfn(head.0 + i as u32)))
            );
        }
        // Compound windows are not re-collapsible.
        assert_eq!(m.collapse_candidate(Pid(1), Vpn(0)), None);
        m.validate();
    }

    #[test]
    fn collapse_then_split_restores_base_page_state() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        for i in 0..HUGE_PAGE_FRAMES {
            m.alloc_and_map(NodeId(0), Pid(1), Vpn(i), PageType::Anon)
                .unwrap();
        }
        let dirty_pfn = match m.space(Pid(1)).translate(Vpn(3)) {
            Some(PageLocation::Mapped(p)) => p,
            _ => unreachable!(),
        };
        m.frames_mut()
            .frame_mut(dirty_pfn)
            .flags_mut()
            .insert(PageFlags::DIRTY | PageFlags::REFERENCED);
        m.frames_mut().frame_mut(dirty_pfn).set_hotness(9);
        let head = m.collapse_range(Pid(1), Vpn(0), NodeId(0)).unwrap();
        m.split_huge_page(head);
        let back = match m.space(Pid(1)).translate(Vpn(3)) {
            Some(PageLocation::Mapped(p)) => p,
            _ => unreachable!(),
        };
        let f = m.frames().frame(back);
        assert!(f.flags().contains(PageFlags::DIRTY));
        assert!(f.flags().contains(PageFlags::REFERENCED));
        assert_eq!(f.hotness(), 9);
        m.validate();
    }

    #[test]
    fn destroy_process_releases_compounds() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        m.alloc_huge_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(4096), PageType::Anon)
            .unwrap();
        m.destroy_process(Pid(1));
        assert_eq!(m.free_pages(NodeId(0)), 2048);
        m.validate();
    }

    #[test]
    fn compact_relocate_moves_a_page_into_a_reserved_frame() {
        let mut m = thp_two_node();
        m.create_process(Pid(1));
        // Land two base pages, then free-list-surgery a destination.
        let a = m
            .alloc_and_map(NodeId(0), Pid(1), Vpn(0), PageType::Anon)
            .unwrap();
        m.alloc_and_map(NodeId(0), Pid(1), Vpn(1), PageType::Anon)
            .unwrap();
        let dst = Pfn(1000);
        assert!(m.frames_mut().reserve_page(dst));
        m.compact_relocate(a, dst);
        assert_eq!(
            m.space(Pid(1)).translate(Vpn(0)),
            Some(PageLocation::Mapped(dst))
        );
        assert_eq!(m.frames().frame(dst).lru_kind(), Some(LruKind::AnonActive));
        assert!(!m.frames().frame(a).is_allocated());
        m.validate();
    }
}
