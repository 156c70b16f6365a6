//! Per-node LRU lists: `active`/`inactive` × `anon`/`file`, implemented as
//! intrusive doubly-linked lists through the frame table (O(1) isolate,
//! exactly like the kernel's `struct lruvec`).
//!
//! The LRU is the heart of both reclaim (demotion candidates come from the
//! inactive tails, §5.1) and TPP's promotion filter (only pages found on an
//! *active* list are promoted, §5.3).

use crate::flags::PageFlags;
use crate::frame::FrameTable;
use crate::types::{NodeId, PageType, Pfn};

/// Which of the four LRU lists a page is on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LruKind {
    /// Active anonymous pages.
    AnonActive,
    /// Inactive anonymous pages.
    AnonInactive,
    /// Active file-backed pages (includes tmpfs).
    FileActive,
    /// Inactive file-backed pages (includes tmpfs).
    FileInactive,
}

impl LruKind {
    /// All list kinds in a stable order.
    pub const ALL: [LruKind; 4] = [
        LruKind::AnonActive,
        LruKind::AnonInactive,
        LruKind::FileActive,
        LruKind::FileInactive,
    ];

    /// The list a page of `page_type` belongs on given its activity.
    pub(crate) fn for_page(page_type: PageType, active: bool) -> LruKind {
        match (page_type.is_anon(), active) {
            (true, true) => LruKind::AnonActive,
            (true, false) => LruKind::AnonInactive,
            (false, true) => LruKind::FileActive,
            (false, false) => LruKind::FileInactive,
        }
    }

    /// Whether this is an active list.
    #[inline]
    pub fn is_active(self) -> bool {
        matches!(self, LruKind::AnonActive | LruKind::FileActive)
    }

    /// Whether this is an anon list.
    #[inline]
    pub fn is_anon(self) -> bool {
        matches!(self, LruKind::AnonActive | LruKind::AnonInactive)
    }

    /// The active/inactive counterpart within the same class.
    pub fn counterpart(self) -> LruKind {
        match self {
            LruKind::AnonActive => LruKind::AnonInactive,
            LruKind::AnonInactive => LruKind::AnonActive,
            LruKind::FileActive => LruKind::FileInactive,
            LruKind::FileInactive => LruKind::FileActive,
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            LruKind::AnonActive => 0,
            LruKind::AnonInactive => 1,
            LruKind::FileActive => 2,
            LruKind::FileInactive => 3,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct ListHead {
    head: u32,
    tail: u32,
    len: u64,
}

impl ListHead {
    const fn empty() -> ListHead {
        ListHead {
            head: Pfn::NONE,
            tail: Pfn::NONE,
            len: 0,
        }
    }
}

/// The four LRU lists of one memory node.
///
/// All operations take the [`FrameTable`] explicitly because the linkage is
/// intrusive: `Frame` carries `prev`/`next` indices.
///
/// # Examples
///
/// ```
/// use tiered_mem::{FrameTable, LruKind, NodeId, NodeLru, PageKey, PageType, Pid, Vpn};
///
/// let mut ft = FrameTable::new(&[16]);
/// let mut lru = NodeLru::new(NodeId(0));
/// let pfn = ft.alloc(NodeId(0), PageKey::new(Pid(1), Vpn(0)), PageType::Anon)?;
/// lru.push_front(&mut ft, LruKind::AnonActive, pfn);
/// assert_eq!(lru.len(LruKind::AnonActive), 1);
/// assert_eq!(lru.pop_back(&mut ft, LruKind::AnonActive), Some(pfn));
/// # Ok::<(), tiered_mem::AllocError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NodeLru {
    node: NodeId,
    lists: [ListHead; 4],
}

impl NodeLru {
    /// Creates empty LRU lists for `node`.
    pub fn new(node: NodeId) -> NodeLru {
        NodeLru {
            node,
            lists: [ListHead::empty(); 4],
        }
    }

    /// Number of pages on the given list.
    #[inline]
    pub fn len(&self, kind: LruKind) -> u64 {
        self.lists[kind.idx()].len
    }

    /// Pages on the anon lists (active + inactive).
    pub(crate) fn anon_total(&self) -> u64 {
        self.len(LruKind::AnonActive) + self.len(LruKind::AnonInactive)
    }

    /// Pages on the file lists (active + inactive).
    pub(crate) fn file_total(&self) -> u64 {
        self.len(LruKind::FileActive) + self.len(LruKind::FileInactive)
    }

    /// Links `pfn` at the MRU (head) end of `kind`.
    ///
    /// Keeps the frame's `ACTIVE` flag in sync with the list it is on.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already on a list, is not allocated, or
    /// belongs to a different node.
    pub fn push_front(&mut self, ft: &mut FrameTable, kind: LruKind, pfn: Pfn) {
        self.link(ft, kind, pfn, true);
    }

    /// Links `pfn` at the LRU (tail) end of `kind` — used when rotating a
    /// second-chance page to the cold end.
    ///
    /// # Panics
    ///
    /// Same conditions as [`NodeLru::push_front`].
    pub fn push_back(&mut self, ft: &mut FrameTable, kind: LruKind, pfn: Pfn) {
        self.link(ft, kind, pfn, false);
    }

    fn link(&mut self, ft: &mut FrameTable, kind: LruKind, pfn: Pfn, at_head: bool) {
        {
            let frame = ft.frame(pfn);
            assert!(frame.is_allocated(), "{pfn} linked while free");
            assert_eq!(frame.node(), self.node, "{pfn} belongs to another node");
            assert!(
                frame.lru_kind().is_none(),
                "{pfn} already on {:?}",
                frame.lru_kind()
            );
            debug_assert_eq!(
                frame.page_type().is_anon(),
                kind.is_anon(),
                "{pfn} type {:?} on wrong class list {kind:?}",
                frame.page_type()
            );
        }
        let list = &mut self.lists[kind.idx()];
        let frame = ft.frame_mut(pfn);
        frame.lru = Some(kind);
        frame.flags_mut().set(PageFlags::ACTIVE, kind.is_active());
        if list.len == 0 {
            frame.lru_prev = Pfn::NONE;
            frame.lru_next = Pfn::NONE;
            list.head = pfn.0;
            list.tail = pfn.0;
        } else if at_head {
            frame.lru_prev = Pfn::NONE;
            frame.lru_next = list.head;
            let old_head = Pfn(list.head);
            ft.frame_mut(old_head).lru_prev = pfn.0;
            list.head = pfn.0;
        } else {
            frame.lru_next = Pfn::NONE;
            frame.lru_prev = list.tail;
            let old_tail = Pfn(list.tail);
            ft.frame_mut(old_tail).lru_next = pfn.0;
            list.tail = pfn.0;
        }
        self.lists[kind.idx()].len += 1;
    }

    /// Unlinks `pfn` from whatever list it is on (page isolation).
    ///
    /// Returns the list it was on, or `None` if it was not linked.
    #[inline]
    pub(crate) fn remove(&mut self, ft: &mut FrameTable, pfn: Pfn) -> Option<LruKind> {
        let kind = ft.frame(pfn).lru_kind()?;
        debug_assert_eq!(ft.frame(pfn).node(), self.node);
        let (prev, next) = {
            let frame = ft.frame(pfn);
            (frame.lru_prev, frame.lru_next)
        };
        let list = &mut self.lists[kind.idx()];
        if prev == Pfn::NONE {
            list.head = next;
        } else {
            ft.frame_mut(Pfn(prev)).lru_next = next;
        }
        if next == Pfn::NONE {
            self.lists[kind.idx()].tail = prev;
        } else {
            ft.frame_mut(Pfn(next)).lru_prev = prev;
        }
        self.lists[kind.idx()].len -= 1;
        let frame = ft.frame_mut(pfn);
        frame.lru = None;
        frame.lru_prev = Pfn::NONE;
        frame.lru_next = Pfn::NONE;
        frame.flags_mut().remove(PageFlags::ACTIVE);
        Some(kind)
    }

    /// Peeks at the coldest (tail) page of `kind` without unlinking it.
    pub(crate) fn peek_back(&self, kind: LruKind) -> Option<Pfn> {
        let list = &self.lists[kind.idx()];
        if list.len == 0 {
            None
        } else {
            Some(Pfn(list.tail))
        }
    }

    /// Unlinks and returns the coldest (tail) page of `kind`.
    pub fn pop_back(&mut self, ft: &mut FrameTable, kind: LruKind) -> Option<Pfn> {
        let pfn = self.peek_back(kind)?;
        self.remove(ft, pfn);
        Some(pfn)
    }

    /// Moves `pfn` to the MRU end of its current list.
    ///
    /// # Panics
    ///
    /// Panics if the page is not on any list.
    pub(crate) fn move_to_front(&mut self, ft: &mut FrameTable, pfn: Pfn) {
        let kind = self
            .remove(ft, pfn)
            .unwrap_or_else(|| panic!("{pfn} not on an LRU list"));
        self.push_front(ft, kind, pfn);
    }

    /// Moves `pfn` from an inactive list to the head of the matching active
    /// list (`activate_page` analogue). No-op if already active.
    ///
    /// # Panics
    ///
    /// Panics if the page is not on any list.
    pub(crate) fn activate(&mut self, ft: &mut FrameTable, pfn: Pfn) {
        let kind = ft
            .frame(pfn)
            .lru_kind()
            .unwrap_or_else(|| panic!("{pfn} not on an LRU list"));
        if kind.is_active() {
            return;
        }
        self.remove(ft, pfn);
        self.push_front(ft, kind.counterpart(), pfn);
    }

    /// Moves `pfn` from an active list to the head of the matching inactive
    /// list (`deactivate_page` analogue). No-op if already inactive.
    ///
    /// # Panics
    ///
    /// Panics if the page is not on any list.
    pub(crate) fn deactivate(&mut self, ft: &mut FrameTable, pfn: Pfn) {
        let kind = ft
            .frame(pfn)
            .lru_kind()
            .unwrap_or_else(|| panic!("{pfn} not on an LRU list"));
        if !kind.is_active() {
            return;
        }
        self.remove(ft, pfn);
        self.push_front(ft, kind.counterpart(), pfn);
    }

    /// Collects up to `max` PFNs from the tail of `kind` without unlinking
    /// them (a scan window for reclaim heuristics).
    pub fn tail_window(&self, ft: &FrameTable, kind: LruKind, max: usize) -> Vec<Pfn> {
        let mut out = Vec::with_capacity(max.min(self.len(kind) as usize));
        self.tail_window_into(ft, kind, max, &mut out);
        out
    }

    /// Like [`NodeLru::tail_window`], but appends into a caller-owned
    /// scratch buffer (cleared first) instead of allocating — reclaim and
    /// demotion call this every tick.
    pub fn tail_window_into(&self, ft: &FrameTable, kind: LruKind, max: usize, out: &mut Vec<Pfn>) {
        out.clear();
        let mut cur = self.lists[kind.idx()].tail;
        while cur != Pfn::NONE && out.len() < max {
            out.push(Pfn(cur));
            cur = ft.frame(Pfn(cur)).lru_prev;
        }
    }

    /// Walks the full list from head (MRU) to tail (LRU). Intended for
    /// tests and validation, not hot paths.
    pub fn collect(&self, ft: &FrameTable, kind: LruKind) -> Vec<Pfn> {
        let mut out = Vec::with_capacity(self.len(kind) as usize);
        self.collect_into(ft, kind, &mut out);
        out
    }

    /// Like [`NodeLru::collect`], but reuses a caller-owned buffer
    /// (cleared first) instead of allocating.
    pub(crate) fn collect_into(&self, ft: &FrameTable, kind: LruKind, out: &mut Vec<Pfn>) {
        out.clear();
        let mut cur = self.lists[kind.idx()].head;
        while cur != Pfn::NONE {
            out.push(Pfn(cur));
            cur = ft.frame(Pfn(cur)).lru_next;
        }
    }

    /// Exhaustively checks linkage invariants (lengths, back-pointers,
    /// membership tags, flag sync). Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub(crate) fn validate(&self, ft: &FrameTable) {
        for kind in LruKind::ALL {
            let pages = self.collect(ft, kind);
            assert_eq!(
                pages.len() as u64,
                self.len(kind),
                "len mismatch on {kind:?}"
            );
            let mut prev = Pfn::NONE;
            for &pfn in &pages {
                let frame = ft.frame(pfn);
                assert_eq!(frame.lru_kind(), Some(kind));
                assert_eq!(frame.node(), self.node);
                assert_eq!(frame.lru_prev, prev, "bad prev link at {pfn}");
                assert_eq!(frame.flags().contains(PageFlags::ACTIVE), kind.is_active());
                prev = pfn.0;
            }
            let list = &self.lists[kind.idx()];
            if pages.is_empty() {
                assert_eq!(list.head, Pfn::NONE);
                assert_eq!(list.tail, Pfn::NONE);
            } else {
                assert_eq!(list.head, pages[0].0);
                assert_eq!(list.tail, pages[pages.len() - 1].0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PageKey, Pid, Vpn};

    fn setup(n: u64) -> (FrameTable, NodeLru, Vec<Pfn>) {
        let mut ft = FrameTable::new(&[n]);
        let lru = NodeLru::new(NodeId(0));
        let pfns = (0..n)
            .map(|i| {
                ft.alloc(NodeId(0), PageKey::new(Pid(1), Vpn(i)), PageType::Anon)
                    .unwrap()
            })
            .collect();
        (ft, lru, pfns)
    }

    #[test]
    fn push_front_orders_mru_to_lru() {
        let (mut ft, mut lru, p) = setup(3);
        for &pfn in &p {
            lru.push_front(&mut ft, LruKind::AnonInactive, pfn);
        }
        assert_eq!(
            lru.collect(&ft, LruKind::AnonInactive),
            vec![p[2], p[1], p[0]]
        );
        lru.validate(&ft);
    }

    #[test]
    fn push_back_appends_at_cold_end() {
        let (mut ft, mut lru, p) = setup(3);
        lru.push_front(&mut ft, LruKind::AnonInactive, p[0]);
        lru.push_back(&mut ft, LruKind::AnonInactive, p[1]);
        assert_eq!(lru.collect(&ft, LruKind::AnonInactive), vec![p[0], p[1]]);
        assert_eq!(lru.peek_back(LruKind::AnonInactive), Some(p[1]));
        lru.validate(&ft);
    }

    #[test]
    fn pop_back_takes_coldest() {
        let (mut ft, mut lru, p) = setup(3);
        for &pfn in &p {
            lru.push_front(&mut ft, LruKind::AnonInactive, pfn);
        }
        assert_eq!(lru.pop_back(&mut ft, LruKind::AnonInactive), Some(p[0]));
        assert_eq!(lru.pop_back(&mut ft, LruKind::AnonInactive), Some(p[1]));
        assert_eq!(lru.pop_back(&mut ft, LruKind::AnonInactive), Some(p[2]));
        assert_eq!(lru.pop_back(&mut ft, LruKind::AnonInactive), None);
        lru.validate(&ft);
    }

    #[test]
    fn remove_from_middle_relinks_neighbours() {
        let (mut ft, mut lru, p) = setup(3);
        for &pfn in &p {
            lru.push_front(&mut ft, LruKind::AnonActive, pfn);
        }
        assert_eq!(lru.remove(&mut ft, p[1]), Some(LruKind::AnonActive));
        assert_eq!(lru.collect(&ft, LruKind::AnonActive), vec![p[2], p[0]]);
        assert_eq!(lru.len(LruKind::AnonActive), 2);
        assert!(ft.frame(p[1]).lru_kind().is_none());
        lru.validate(&ft);
    }

    #[test]
    fn remove_unlinked_page_is_none() {
        let (mut ft, mut lru, p) = setup(1);
        assert_eq!(lru.remove(&mut ft, p[0]), None);
    }

    #[test]
    fn activate_moves_between_lists_and_sets_flag() {
        let (mut ft, mut lru, p) = setup(2);
        lru.push_front(&mut ft, LruKind::AnonInactive, p[0]);
        assert!(!ft.frame(p[0]).flags().contains(PageFlags::ACTIVE));
        lru.activate(&mut ft, p[0]);
        assert_eq!(ft.frame(p[0]).lru_kind(), Some(LruKind::AnonActive));
        assert!(ft.frame(p[0]).flags().contains(PageFlags::ACTIVE));
        // Idempotent.
        lru.activate(&mut ft, p[0]);
        assert_eq!(lru.len(LruKind::AnonActive), 1);
        assert_eq!(lru.len(LruKind::AnonInactive), 0);
        lru.validate(&ft);
    }

    #[test]
    fn deactivate_is_the_inverse() {
        let (mut ft, mut lru, p) = setup(1);
        lru.push_front(&mut ft, LruKind::AnonActive, p[0]);
        lru.deactivate(&mut ft, p[0]);
        assert_eq!(ft.frame(p[0]).lru_kind(), Some(LruKind::AnonInactive));
        assert!(!ft.frame(p[0]).flags().contains(PageFlags::ACTIVE));
        lru.validate(&ft);
    }

    #[test]
    fn move_to_front_rotates() {
        let (mut ft, mut lru, p) = setup(3);
        for &pfn in &p {
            lru.push_front(&mut ft, LruKind::AnonInactive, pfn);
        }
        lru.move_to_front(&mut ft, p[0]);
        assert_eq!(
            lru.collect(&ft, LruKind::AnonInactive),
            vec![p[0], p[2], p[1]]
        );
        lru.validate(&ft);
    }

    #[test]
    fn tail_window_reports_coldest_first() {
        let (mut ft, mut lru, p) = setup(4);
        for &pfn in &p {
            lru.push_front(&mut ft, LruKind::AnonInactive, pfn);
        }
        assert_eq!(
            lru.tail_window(&ft, LruKind::AnonInactive, 2),
            vec![p[0], p[1]]
        );
        assert_eq!(lru.tail_window(&ft, LruKind::AnonInactive, 99).len(), 4);
        // Window does not unlink anything.
        assert_eq!(lru.len(LruKind::AnonInactive), 4);
    }

    #[test]
    fn into_variants_clear_and_refill_scratch() {
        let (mut ft, mut lru, p) = setup(3);
        for &pfn in &p {
            lru.push_front(&mut ft, LruKind::AnonInactive, pfn);
        }
        let mut scratch = vec![Pfn(999); 7];
        lru.tail_window_into(&ft, LruKind::AnonInactive, 2, &mut scratch);
        assert_eq!(scratch, vec![p[0], p[1]]);
        lru.collect_into(&ft, LruKind::AnonInactive, &mut scratch);
        assert_eq!(scratch, vec![p[2], p[1], p[0]]);
    }

    #[test]
    #[should_panic(expected = "already on")]
    fn double_link_panics() {
        let (mut ft, mut lru, p) = setup(1);
        lru.push_front(&mut ft, LruKind::AnonInactive, p[0]);
        lru.push_front(&mut ft, LruKind::AnonActive, p[0]);
    }

    #[test]
    fn file_pages_track_file_lists() {
        let mut ft = FrameTable::new(&[4]);
        let mut lru = NodeLru::new(NodeId(0));
        let f = ft
            .alloc(NodeId(0), PageKey::new(Pid(1), Vpn(0)), PageType::Tmpfs)
            .unwrap();
        lru.push_front(&mut ft, LruKind::FileInactive, f);
        assert_eq!(lru.file_total(), 1);
        assert_eq!(lru.anon_total(), 0);
    }

    #[test]
    fn kind_helpers() {
        assert_eq!(LruKind::for_page(PageType::Anon, true), LruKind::AnonActive);
        assert_eq!(
            LruKind::for_page(PageType::Tmpfs, false),
            LruKind::FileInactive
        );
        assert_eq!(LruKind::AnonActive.counterpart(), LruKind::AnonInactive);
        assert_eq!(LruKind::FileInactive.counterpart(), LruKind::FileActive);
        assert!(LruKind::FileActive.is_active());
        assert!(!LruKind::FileActive.is_anon());
    }
}
