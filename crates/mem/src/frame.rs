//! The frame table: per-page physical metadata for every memory node.
//!
//! Like the kernel's `struct page` array, each physical frame has one
//! metadata entry, indexed by PFN. Nodes own contiguous PFN ranges. The
//! frame table also keeps the per-node, per-order buddy free lists and
//! free-page counts that watermark logic consults.
//!
//! # Buddy orders
//!
//! The allocator is order-aware: each node keeps one intrusive free list
//! per order `0..=`[`MAX_PAGE_ORDER`], seeds its free space as maximal
//! aligned blocks, splits larger blocks on demand and eagerly merges
//! buddies on free, exactly like the kernel's `mm/page_alloc.c`. There is
//! one allocator whatever the THP mode: `ThpMode::Never` only stops the
//! simulator asking for compound pages. Block alignment is
//! *node-relative*: a node's PFN range starts wherever the previous node
//! ended, so the buddy of relative frame `r` at order `o` is
//! `r ^ (1 << o)`, not an absolute PFN xor.

use crate::error::AllocError;
use crate::flags::PageFlags;
use crate::lru::LruKind;
use crate::types::{NodeId, PageKey, PageType, Pfn};

/// The largest buddy order: an order-[`MAX_PAGE_ORDER`] block is
/// `1 << MAX_PAGE_ORDER` = 512 contiguous base pages = one 2 MiB THP.
pub const MAX_PAGE_ORDER: u8 = 9;

/// Number of distinct buddy orders (`0..=MAX_PAGE_ORDER`).
const NR_ORDERS: usize = MAX_PAGE_ORDER as usize + 1;

/// Base pages in one 2 MiB huge page (an order-[`MAX_PAGE_ORDER`] block).
pub const HUGE_PAGE_FRAMES: u64 = 1 << MAX_PAGE_ORDER;

/// Allocation state of a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameState {
    /// The frame is free (on a buddy free list, or briefly reserved off
    /// it while a compound allocation is assembled).
    Free,
    /// The frame backs a virtual page.
    Allocated {
        /// The (process, virtual page) this frame backs. The simulator
        /// models private mappings, so each frame has exactly one owner —
        /// this doubles as the reverse map used by migration.
        owner: PageKey,
    },
}

/// Per-frame metadata (`struct page` analogue).
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    state: FrameState,
    page_type: PageType,
    flags: PageFlags,
    node: NodeId,
    /// Intrusive LRU linkage; `Pfn::NONE` when unlinked.
    pub(crate) lru_prev: u32,
    pub(crate) lru_next: u32,
    pub(crate) lru: Option<LruKind>,
    /// Intrusive buddy free-list linkage; `Pfn::NONE` when unlinked.
    pub(crate) free_prev: u32,
    pub(crate) free_next: u32,
    /// Buddy order while the frame heads a free block; compound order
    /// while the frame heads an allocated compound page.
    pub(crate) order: u8,
    /// Decaying access-frequency counter (used by the AutoTiering
    /// baseline's timer-based hotness detection).
    hotness: u8,
    /// Simulation time of the last access, for reports.
    last_access_ns: u64,
}

impl Frame {
    fn unused(node: NodeId) -> Frame {
        Frame {
            state: FrameState::Free,
            page_type: PageType::Anon,
            flags: PageFlags::empty(),
            node,
            lru_prev: Pfn::NONE,
            lru_next: Pfn::NONE,
            lru: None,
            free_prev: Pfn::NONE,
            free_next: Pfn::NONE,
            order: 0,
            hotness: 0,
            last_access_ns: 0,
        }
    }

    /// Whether the frame currently backs a page.
    #[inline]
    pub fn is_allocated(&self) -> bool {
        matches!(self.state, FrameState::Allocated { .. })
    }

    /// The owner of the frame, if allocated.
    #[inline]
    pub fn owner(&self) -> Option<PageKey> {
        match self.state {
            FrameState::Allocated { owner } => Some(owner),
            FrameState::Free => None,
        }
    }

    /// The page type (meaningful only while allocated).
    #[inline]
    pub fn page_type(&self) -> PageType {
        self.page_type
    }

    /// Current flag set.
    #[inline]
    pub fn flags(&self) -> PageFlags {
        self.flags
    }

    /// Mutable access to the flag set.
    #[inline]
    pub fn flags_mut(&mut self) -> &mut PageFlags {
        &mut self.flags
    }

    /// The node this frame physically belongs to.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Which LRU list the frame is linked on, if any.
    #[inline]
    pub fn lru_kind(&self) -> Option<LruKind> {
        self.lru
    }

    /// The frame's order: buddy order while free, compound order while it
    /// heads a compound page (0 for base pages and tail frames).
    #[inline]
    pub fn order(&self) -> u8 {
        self.order
    }

    /// The AutoTiering-style decaying hotness counter.
    #[inline]
    pub fn hotness(&self) -> u8 {
        self.hotness
    }

    /// Bumps the hotness counter (saturating).
    #[inline]
    pub fn touch_hotness(&mut self) {
        self.hotness = self.hotness.saturating_add(1);
    }

    /// Halves the hotness counter (the periodic decay tick).
    #[inline]
    pub fn decay_hotness(&mut self) {
        self.hotness /= 2;
    }

    /// Overwrites the hotness counter (used when migration carries state
    /// across nodes).
    #[inline]
    pub(crate) fn set_hotness(&mut self, hotness: u8) {
        self.hotness = hotness;
    }

    /// Time of last access, in simulation nanoseconds.
    #[inline]
    pub fn last_access_ns(&self) -> u64 {
        self.last_access_ns
    }

    /// Records an access time.
    #[inline]
    pub fn set_last_access_ns(&mut self, now_ns: u64) {
        self.last_access_ns = now_ns;
    }
}

/// One buddy free list: intrusive doubly-linked list of block heads.
#[derive(Clone, Copy, Debug)]
struct FreeArea {
    /// PFN of the first block head, `Pfn::NONE` when empty.
    head: u32,
    /// Number of blocks on this list.
    count: u64,
}

impl FreeArea {
    const EMPTY: FreeArea = FreeArea {
        head: Pfn::NONE,
        count: 0,
    };
}

/// The machine-wide frame table plus per-node buddy free lists.
///
/// # Examples
///
/// ```
/// use tiered_mem::{FrameTable, NodeId, PageKey, PageType, Pid, Vpn};
///
/// let mut ft = FrameTable::new(&[128, 512]);
/// let owner = PageKey::new(Pid(1), Vpn(0));
/// let pfn = ft.alloc(NodeId(0), owner, PageType::Anon)?;
/// assert_eq!(ft.frame(pfn).owner(), Some(owner));
/// assert_eq!(ft.free_pages(NodeId(0)), 127);
/// ft.free(pfn);
/// assert_eq!(ft.free_pages(NodeId(0)), 128);
/// # Ok::<(), tiered_mem::AllocError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FrameTable {
    frames: Vec<Frame>,
    /// `node_start[n]..node_start[n+1]` is node `n`'s PFN range.
    node_start: Vec<u32>,
    /// Per-node, per-order intrusive free lists.
    free_areas: Vec<[FreeArea; NR_ORDERS]>,
    /// Per-node total free pages (cheap `free_pages` lookups).
    free_totals: Vec<u64>,
}

impl FrameTable {
    /// Creates a frame table for nodes with the given capacities (pages).
    /// Each node's range is carved into maximal node-relative-aligned
    /// buddy blocks, lowest block first on each list.
    ///
    /// A zero-capacity node is allowed (e.g. a hot-removed or not-yet-
    /// onlined expander in a larger topology): every allocation on it
    /// fails with `NoMemory`, so fallback chains simply skip past it.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or the total exceeds `u32::MAX`
    /// frames.
    pub fn new(capacities: &[u64]) -> FrameTable {
        assert!(!capacities.is_empty(), "at least one memory node required");
        let total: u64 = capacities.iter().sum();
        assert!(total < u32::MAX as u64, "too many frames for 32-bit PFNs");
        let mut frames = Vec::with_capacity(total as usize);
        let mut node_start = Vec::with_capacity(capacities.len() + 1);
        let mut next: u32 = 0;
        for (i, &cap) in capacities.iter().enumerate() {
            let node = NodeId(i as u8);
            node_start.push(next);
            for _ in 0..cap {
                frames.push(Frame::unused(node));
            }
            next += cap as u32;
        }
        node_start.push(next);
        let mut table = FrameTable {
            frames,
            node_start,
            free_areas: vec![[FreeArea::EMPTY; NR_ORDERS]; capacities.len()],
            free_totals: capacities.to_vec(),
        };
        for (ni, &cap) in capacities.iter().enumerate() {
            let start = table.node_start[ni];
            let cap = cap as u32;
            // Carve the range into maximal aligned blocks, then link them
            // in reverse so each list's head is the lowest block (low
            // addresses are handed out first).
            let mut blocks: Vec<(u32, u8)> = Vec::new();
            let mut rel: u32 = 0;
            while rel < cap {
                let mut order = MAX_PAGE_ORDER;
                while order > 0 && (rel & ((1 << order) - 1) != 0 || rel + (1 << order) > cap) {
                    order -= 1;
                }
                blocks.push((rel, order));
                rel += 1 << order;
            }
            for &(rel, order) in blocks.iter().rev() {
                table.push_front(ni, order as usize, Pfn(start + rel));
            }
        }
        table
    }

    /// Number of memory nodes.
    #[inline]
    pub(crate) fn node_count(&self) -> usize {
        self.free_areas.len()
    }

    /// Total capacity of `node` in pages.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    #[inline]
    pub(crate) fn capacity(&self, node: NodeId) -> u64 {
        let i = node.index();
        (self.node_start[i + 1] - self.node_start[i]) as u64
    }

    /// Current free pages on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    #[inline]
    pub fn free_pages(&self, node: NodeId) -> u64 {
        self.free_totals[node.index()]
    }

    /// Pages currently allocated on `node`.
    #[inline]
    pub fn used_pages(&self, node: NodeId) -> u64 {
        self.capacity(node) - self.free_pages(node)
    }

    /// Number of free blocks of exactly `order` on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or `order` exceeds
    /// [`MAX_PAGE_ORDER`].
    #[inline]
    #[must_use]
    pub fn free_blocks(&self, node: NodeId, order: u8) -> u64 {
        self.free_areas[node.index()][order as usize].count
    }

    /// The unusable-free-space fragmentation index for `order` on `node`
    /// (the `extfrag_index` analogue): the fraction of free memory that
    /// cannot satisfy an allocation of `order` — `0.0` means every free
    /// page sits in a sufficiently large block, values approaching `1.0`
    /// mean free memory exists but is shattered. Returns `0.0` when the
    /// node has no free memory at all (that is an out-of-memory problem,
    /// not a fragmentation problem).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or `order` exceeds
    /// [`MAX_PAGE_ORDER`].
    #[must_use]
    pub fn unusable_free_index(&self, node: NodeId, order: u8) -> f64 {
        let ni = node.index();
        let free = self.free_totals[ni];
        if free == 0 {
            return 0.0;
        }
        let usable: u64 = (order as usize..NR_ORDERS)
            .map(|o| self.free_areas[ni][o].count << o)
            .sum();
        (free - usable) as f64 / free as f64
    }

    /// Whether `node` is a valid node id.
    #[inline]
    pub(crate) fn has_node(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// The PFN range owned by `node`.
    pub fn pfn_range(&self, node: NodeId) -> std::ops::Range<u32> {
        let i = node.index();
        self.node_start[i]..self.node_start[i + 1]
    }

    /// Shared access to a frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    #[inline]
    pub fn frame(&self, pfn: Pfn) -> &Frame {
        &self.frames[pfn.index()]
    }

    /// Mutable access to a frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    #[inline]
    pub fn frame_mut(&mut self, pfn: Pfn) -> &mut Frame {
        &mut self.frames[pfn.index()]
    }

    /// Links `pfn` as the head of `(node, order)`'s free list.
    fn push_front(&mut self, ni: usize, order: usize, pfn: Pfn) {
        let area = &mut self.free_areas[ni][order];
        let old_head = area.head;
        area.head = pfn.0;
        area.count += 1;
        let frame = &mut self.frames[pfn.index()];
        frame.free_prev = Pfn::NONE;
        frame.free_next = old_head;
        frame.order = order as u8;
        frame.flags.insert(PageFlags::BUDDY);
        if old_head != Pfn::NONE {
            self.frames[old_head as usize].free_prev = pfn.0;
        }
    }

    /// Unlinks `pfn` (anywhere in the list) from `(node, order)`.
    fn unlink(&mut self, ni: usize, order: usize, pfn: Pfn) {
        let (prev, next) = {
            let frame = &mut self.frames[pfn.index()];
            debug_assert!(frame.flags.contains(PageFlags::BUDDY));
            debug_assert_eq!(frame.order, order as u8);
            let links = (frame.free_prev, frame.free_next);
            frame.free_prev = Pfn::NONE;
            frame.free_next = Pfn::NONE;
            frame.flags.remove(PageFlags::BUDDY);
            links
        };
        if prev != Pfn::NONE {
            self.frames[prev as usize].free_next = next;
        } else {
            self.free_areas[ni][order].head = next;
        }
        if next != Pfn::NONE {
            self.frames[next as usize].free_prev = prev;
        }
        self.free_areas[ni][order].count -= 1;
    }

    /// Pops the head of `(node, order)`'s free list, if any.
    fn pop_front(&mut self, ni: usize, order: usize) -> Option<Pfn> {
        let head = self.free_areas[ni][order].head;
        if head == Pfn::NONE {
            return None;
        }
        let pfn = Pfn(head);
        self.unlink(ni, order, pfn);
        Some(pfn)
    }

    /// Splits the off-list block `head` from `from` down to `to`,
    /// re-linking each upper half and keeping the lower half.
    fn split_to(&mut self, ni: usize, head: Pfn, from: usize, to: usize) {
        for order in (to..from).rev() {
            self.push_front(ni, order, Pfn(head.0 + (1u32 << order)));
        }
    }

    /// Allocates one page on `node` for `owner`, splitting the smallest
    /// sufficient buddy block when order 0 is empty.
    ///
    /// This is the raw page allocator: it performs **no** watermark
    /// checks — policies decide when a node is too full.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidNode`] if the node does not exist, or
    /// [`AllocError::NoMemory`] if the node has no free block at any
    /// order.
    pub fn alloc(
        &mut self,
        node: NodeId,
        owner: PageKey,
        page_type: PageType,
    ) -> Result<Pfn, AllocError> {
        if !self.has_node(node) {
            return Err(AllocError::InvalidNode { node });
        }
        let pfn = self
            .reserve_block(node, 0)
            .ok_or(AllocError::NoMemory { node })?;
        self.claim(pfn, owner, page_type);
        Ok(pfn)
    }

    /// Reserves a free block of exactly `order` on `node`, splitting a
    /// larger one when necessary, and returns its head PFN.
    ///
    /// The block's frames stay `Free` but are taken off the free lists
    /// (and out of [`free_pages`](FrameTable::free_pages)); the caller
    /// claims each frame with [`claim`](FrameTable::claim). This is how
    /// compound pages are assembled.
    ///
    /// Returns `None` if the node has no free block of `order` or above.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or `order` exceeds
    /// [`MAX_PAGE_ORDER`].
    #[inline(always)]
    pub(crate) fn reserve_block(&mut self, node: NodeId, order: u8) -> Option<Pfn> {
        let ni = node.index();
        let want = order as usize;
        // Single pages (every fault and base-page migration) come straight
        // off the order-0 list.
        if order == 0 {
            if let Some(pfn) = self.pop_front(ni, 0) {
                self.free_totals[ni] -= 1;
                return Some(pfn);
            }
        }
        let found = (want..NR_ORDERS).find(|&o| self.free_areas[ni][o].count > 0)?;
        let head = self.pop_front(ni, found).expect("non-empty free area");
        self.split_to(ni, head, found, want);
        self.free_totals[ni] -= 1u64 << order;
        Some(head)
    }

    /// Reserves the single free page `pfn`, extracting it from whatever
    /// free block contains it (the compaction free scanner's targeted
    /// grab). The remainder of the block is split back onto the free
    /// lists. Returns `false` if the frame is allocated or not currently
    /// on a free list.
    pub fn reserve_page(&mut self, pfn: Pfn) -> bool {
        if self.frames[pfn.index()].is_allocated() {
            return false;
        }
        let ni = self.frames[pfn.index()].node.index();
        let start = self.node_start[ni];
        let rel = pfn.0 - start;
        // Probe the candidate heads of every block that could contain
        // this frame, smallest first.
        let mut found = None;
        for order in 0..NR_ORDERS {
            let head_rel = rel & !((1u32 << order) - 1);
            let head = &self.frames[(start + head_rel) as usize];
            if head.flags.contains(PageFlags::BUDDY) && head.order == order as u8 {
                found = Some((head_rel, order));
                break;
            }
        }
        let Some((mut head_rel, mut order)) = found else {
            return false;
        };
        self.unlink(ni, order, Pfn(start + head_rel));
        // Split down, keeping whichever half contains the target.
        while order > 0 {
            order -= 1;
            let upper = head_rel + (1u32 << order);
            if rel >= upper {
                self.push_front(ni, order, Pfn(start + head_rel));
                head_rel = upper;
            } else {
                self.push_front(ni, order, Pfn(start + upper));
            }
        }
        debug_assert_eq!(head_rel, rel);
        self.free_totals[ni] -= 1;
        true
    }

    /// Claims a frame previously taken off the free lists by
    /// [`reserve_block`](FrameTable::reserve_block) or
    /// [`reserve_page`](FrameTable::reserve_page), assigning it to
    /// `owner` and resetting its metadata.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already allocated.
    #[inline(always)]
    pub(crate) fn claim(&mut self, pfn: Pfn, owner: PageKey, page_type: PageType) {
        let frame = &mut self.frames[pfn.index()];
        assert!(
            matches!(frame.state, FrameState::Free),
            "claim of allocated {pfn}"
        );
        debug_assert!(
            !frame.flags.contains(PageFlags::BUDDY),
            "claim of {pfn} still on a free list"
        );
        frame.state = FrameState::Allocated { owner };
        frame.page_type = page_type;
        frame.flags = PageFlags::empty();
        frame.order = 0;
        frame.hotness = 0;
        frame.last_access_ns = 0;
        debug_assert!(frame.lru.is_none());
    }

    /// Releases `pfn` back to its node's free lists, returning the
    /// previous owner. The freed page eagerly merges with its buddy up
    /// the orders, like `__free_one_page`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free or still linked on an LRU list (callers
    /// must `lru` the page off first — mirroring the kernel invariant that
    /// a page must be isolated before being freed).
    pub fn free(&mut self, pfn: Pfn) -> PageKey {
        let frame = &mut self.frames[pfn.index()];
        let owner = match frame.state {
            FrameState::Allocated { owner } => owner,
            FrameState::Free => panic!("double free of {pfn}"),
        };
        assert!(
            frame.lru.is_none(),
            "{pfn} freed while still on LRU list {:?}",
            frame.lru
        );
        frame.state = FrameState::Free;
        frame.flags = PageFlags::empty();
        frame.order = 0;
        frame.hotness = 0;
        let node = frame.node;
        let ni = node.index();
        self.free_totals[ni] += 1;
        // Eager buddy merge, node-relative.
        let start = self.node_start[ni];
        let cap = self.node_start[ni + 1] - start;
        let mut rel = pfn.0 - start;
        let mut order: usize = 0;
        while order < MAX_PAGE_ORDER as usize {
            let buddy_rel = rel ^ (1u32 << order);
            if buddy_rel + (1u32 << order) > cap {
                break;
            }
            let buddy = &self.frames[(start + buddy_rel) as usize];
            if !(matches!(buddy.state, FrameState::Free)
                && buddy.flags.contains(PageFlags::BUDDY)
                && buddy.order == order as u8)
            {
                break;
            }
            self.unlink(ni, order, Pfn(start + buddy_rel));
            rel = rel.min(buddy_rel);
            order += 1;
        }
        self.push_front(ni, order, Pfn(start + rel));
        owner
    }

    /// Walks every free list and asserts structural invariants: link
    /// integrity, per-order counts, node-relative block alignment, no
    /// overlapping spans, and that the per-node free totals match the
    /// lists. Intended for tests and [`crate::Memory`]'s validator.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub(crate) fn validate_free_lists(&self) {
        for ni in 0..self.node_count() {
            let start = self.node_start[ni];
            let cap = self.node_start[ni + 1] - start;
            let mut covered = vec![false; cap as usize];
            let mut total = 0u64;
            for order in 0..NR_ORDERS {
                let mut count = 0u64;
                let mut prev = Pfn::NONE;
                let mut cur = self.free_areas[ni][order].head;
                while cur != Pfn::NONE {
                    let frame = &self.frames[cur as usize];
                    assert!(
                        matches!(frame.state, FrameState::Free),
                        "allocated frame {cur} on node {ni} order {order} free list"
                    );
                    assert!(
                        frame.flags.contains(PageFlags::BUDDY),
                        "free-list frame {cur} lacks BUDDY"
                    );
                    assert_eq!(frame.order, order as u8, "order mismatch on {cur}");
                    assert_eq!(frame.free_prev, prev, "broken prev link at {cur}");
                    let rel = cur - start;
                    assert_eq!(
                        rel & ((1u32 << order) - 1),
                        0,
                        "misaligned order-{order} block at relative frame {rel}"
                    );
                    for i in 0..(1u32 << order) {
                        let idx = (rel + i) as usize;
                        assert!(
                            !covered[idx],
                            "overlapping free spans at {}",
                            start + rel + i
                        );
                        covered[idx] = true;
                    }
                    count += 1;
                    prev = cur;
                    cur = frame.free_next;
                }
                assert_eq!(
                    count, self.free_areas[ni][order].count,
                    "count mismatch on node {ni} order {order}"
                );
                total += count << order;
            }
            assert_eq!(
                total, self.free_totals[ni],
                "free total mismatch on node {ni}"
            );
        }
    }

    /// Iterates over all allocated frames on `node`, in PFN order.
    pub fn allocated_on(&self, node: NodeId) -> impl Iterator<Item = Pfn> + '_ {
        self.pfn_range(node)
            .map(Pfn)
            .filter(move |p| self.frames[p.index()].is_allocated())
    }

    /// Iterates mutably over every allocated frame of every node, in PFN
    /// order — an in-place walk for machine-wide per-frame updates.
    pub fn allocated_frames_mut(&mut self) -> impl Iterator<Item = &mut Frame> + '_ {
        self.frames.iter_mut().filter(|f| f.is_allocated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pid, Vpn};

    fn key(v: u64) -> PageKey {
        PageKey::new(Pid(1), Vpn(v))
    }

    #[test]
    fn nodes_get_contiguous_disjoint_ranges() {
        let ft = FrameTable::new(&[100, 200, 50]);
        assert_eq!(ft.node_count(), 3);
        assert_eq!(ft.pfn_range(NodeId(0)), 0..100);
        assert_eq!(ft.pfn_range(NodeId(1)), 100..300);
        assert_eq!(ft.pfn_range(NodeId(2)), 300..350);
        assert_eq!(ft.capacity(NodeId(1)), 200);
    }

    #[test]
    fn alloc_splits_the_smallest_block_first_and_tracks_free_count() {
        // 10 frames seed as an order-3 block at 0 and an order-1 block at
        // 8; single pages come from the smaller tail block first.
        let mut ft = FrameTable::new(&[10]);
        assert_eq!(ft.free_blocks(NodeId(0), 3), 1);
        assert_eq!(ft.free_blocks(NodeId(0), 1), 1);
        let p0 = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        let p1 = ft.alloc(NodeId(0), key(1), PageType::File).unwrap();
        let p2 = ft.alloc(NodeId(0), key(2), PageType::Anon).unwrap();
        assert_eq!((p0, p1, p2), (Pfn(8), Pfn(9), Pfn(0)));
        assert_eq!(ft.free_pages(NodeId(0)), 7);
        assert_eq!(ft.used_pages(NodeId(0)), 3);
        ft.validate_free_lists();
    }

    #[test]
    fn alloc_fails_when_node_exhausted() {
        let mut ft = FrameTable::new(&[2]);
        ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        ft.alloc(NodeId(0), key(1), PageType::Anon).unwrap();
        assert_eq!(
            ft.alloc(NodeId(0), key(2), PageType::Anon),
            Err(AllocError::NoMemory { node: NodeId(0) })
        );
    }

    #[test]
    fn alloc_rejects_unknown_node() {
        let mut ft = FrameTable::new(&[2]);
        assert_eq!(
            ft.alloc(NodeId(7), key(0), PageType::Anon),
            Err(AllocError::InvalidNode { node: NodeId(7) })
        );
    }

    #[test]
    fn free_returns_owner_and_recycles_frame() {
        let mut ft = FrameTable::new(&[2]);
        let pfn = ft.alloc(NodeId(0), key(42), PageType::File).unwrap();
        assert_eq!(ft.free(pfn), key(42));
        assert_eq!(ft.free_pages(NodeId(0)), 2);
        // The freed frame is reusable.
        let pfn2 = ft.alloc(NodeId(0), key(43), PageType::Anon).unwrap();
        assert_eq!(pfn2, pfn);
        assert_eq!(ft.frame(pfn2).page_type(), PageType::Anon);
        assert!(ft.frame(pfn2).flags().is_empty());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut ft = FrameTable::new(&[2]);
        let pfn = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        ft.free(pfn);
        ft.free(pfn);
    }

    #[test]
    fn alloc_resets_stale_metadata() {
        let mut ft = FrameTable::new(&[1]);
        let pfn = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        ft.frame_mut(pfn).touch_hotness();
        ft.frame_mut(pfn).flags_mut().insert(PageFlags::DIRTY);
        ft.frame_mut(pfn).set_last_access_ns(99);
        ft.free(pfn);
        let pfn = ft.alloc(NodeId(0), key(1), PageType::File).unwrap();
        let f = ft.frame(pfn);
        assert_eq!(f.hotness(), 0);
        assert!(f.flags().is_empty());
        assert_eq!(f.last_access_ns(), 0);
    }

    #[test]
    fn hotness_saturates_and_decays() {
        let mut ft = FrameTable::new(&[1]);
        let pfn = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        for _ in 0..300 {
            ft.frame_mut(pfn).touch_hotness();
        }
        assert_eq!(ft.frame(pfn).hotness(), u8::MAX);
        ft.frame_mut(pfn).decay_hotness();
        assert_eq!(ft.frame(pfn).hotness(), 127);
    }

    #[test]
    fn allocated_on_lists_only_allocated_frames() {
        let mut ft = FrameTable::new(&[4, 4]);
        let a = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        let b = ft.alloc(NodeId(1), key(1), PageType::Anon).unwrap();
        assert_eq!(ft.allocated_on(NodeId(0)).collect::<Vec<_>>(), vec![a]);
        assert_eq!(ft.allocated_on(NodeId(1)).collect::<Vec<_>>(), vec![b]);
    }

    // ---- buddy invariants ------------------------------------------

    #[test]
    fn new_seeds_maximal_aligned_blocks() {
        let ft = FrameTable::new(&[1024 + 17]);
        ft.validate_free_lists();
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 2);
        assert_eq!(ft.free_pages(NodeId(0)), 1024 + 17);
        // 17 = 16 + 1 leftover.
        assert_eq!(ft.free_blocks(NodeId(0), 4), 1);
        assert_eq!(ft.free_blocks(NodeId(0), 0), 1);
    }

    #[test]
    fn split_on_demand_then_merge_on_free_restores_max_order() {
        let mut ft = FrameTable::new(&[1024]);
        let pfn = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        ft.validate_free_lists();
        // One order-9 block was split all the way down to order 0.
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 1);
        assert_eq!(ft.free_pages(NodeId(0)), 1023);
        for o in 0..MAX_PAGE_ORDER {
            assert_eq!(ft.free_blocks(NodeId(0), o), 1, "order {o}");
        }
        ft.free(pfn);
        ft.validate_free_lists();
        // The buddies merged back: two pristine order-9 blocks again.
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 2);
        for o in 0..MAX_PAGE_ORDER {
            assert_eq!(ft.free_blocks(NodeId(0), o), 0, "order {o}");
        }
        assert_eq!(ft.free_pages(NodeId(0)), 1024);
    }

    #[test]
    fn free_list_conservation_through_random_churn() {
        let mut ft = FrameTable::new(&[640]);
        let mut live = Vec::new();
        // A deterministic xorshift drives an alloc/free mix.
        let mut state: u64 = 0x9e37_79b9;
        for i in 0..2_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if !state.is_multiple_of(3) || live.is_empty() {
                if let Ok(pfn) = ft.alloc(NodeId(0), key(i), PageType::Anon) {
                    live.push(pfn);
                }
            } else {
                let victim = live.swap_remove((state % live.len() as u64) as usize);
                ft.free(victim);
            }
        }
        ft.validate_free_lists();
        assert_eq!(ft.free_pages(NodeId(0)), 640 - live.len() as u64);
        for pfn in live.drain(..) {
            ft.free(pfn);
        }
        ft.validate_free_lists();
        assert_eq!(ft.free_pages(NodeId(0)), 640);
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 1);
        assert_eq!(ft.free_blocks(NodeId(0), 7), 1);
    }

    #[test]
    fn buddy_math_is_node_relative() {
        // Node 1 starts at absolute PFN 100, which is not 512-aligned;
        // blocks must still align relative to the node start.
        let ft = FrameTable::new(&[100, 1024]);
        ft.validate_free_lists();
        assert_eq!(ft.free_blocks(NodeId(1), MAX_PAGE_ORDER), 2);
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 0);
        assert_eq!(ft.free_blocks(NodeId(0), 6), 1);
    }

    #[test]
    fn reserve_block_and_claim_assemble_compounds() {
        let mut ft = FrameTable::new(&[1024]);
        let head = ft.reserve_block(NodeId(0), MAX_PAGE_ORDER).unwrap();
        assert_eq!(head, Pfn(0));
        assert_eq!(ft.free_pages(NodeId(0)), 512);
        for i in 0..HUGE_PAGE_FRAMES {
            ft.claim(Pfn(head.0 + i as u32), key(i), PageType::Anon);
        }
        ft.validate_free_lists();
        assert_eq!(ft.used_pages(NodeId(0)), 512);
        // Freeing every frame merges the block back together.
        for i in 0..HUGE_PAGE_FRAMES {
            ft.free(Pfn(head.0 + i as u32));
        }
        ft.validate_free_lists();
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 2);
    }

    #[test]
    fn reserve_block_fails_when_fragmented() {
        let mut ft = FrameTable::new(&[512]);
        // Pin one page so no order-9 block can exist.
        let pinned = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        assert!(ft.reserve_block(NodeId(0), MAX_PAGE_ORDER).is_none());
        assert!(ft.reserve_block(NodeId(0), 8).is_some());
        ft.free(pinned);
    }

    #[test]
    fn reserve_page_extracts_target_from_a_large_block() {
        let mut ft = FrameTable::new(&[1024]);
        // Grab a frame from the middle of the second order-9 block.
        assert!(ft.reserve_page(Pfn(700)));
        ft.validate_free_lists();
        assert_eq!(ft.free_pages(NodeId(0)), 1023);
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 1);
        ft.claim(Pfn(700), key(1), PageType::Anon);
        assert!(!ft.reserve_page(Pfn(700)), "allocated frames not grabbable");
        ft.free(Pfn(700));
        ft.validate_free_lists();
        assert_eq!(ft.free_blocks(NodeId(0), MAX_PAGE_ORDER), 2);
    }

    #[test]
    fn unusable_free_index_tracks_fragmentation() {
        let mut ft = FrameTable::new(&[1024]);
        assert_eq!(ft.unusable_free_index(NodeId(0), MAX_PAGE_ORDER), 0.0);
        let pfn = ft.alloc(NodeId(0), key(0), PageType::Anon).unwrap();
        // 1023 free, one order-9 block (512 pages) still usable.
        let idx = ft.unusable_free_index(NodeId(0), MAX_PAGE_ORDER);
        let want = (1023.0 - 512.0) / 1023.0;
        assert!((idx - want).abs() < 1e-12, "{idx} vs {want}");
        assert_eq!(ft.unusable_free_index(NodeId(0), 0), 0.0);
        ft.free(pfn);
        assert_eq!(ft.unusable_free_index(NodeId(0), MAX_PAGE_ORDER), 0.0);
    }
}
