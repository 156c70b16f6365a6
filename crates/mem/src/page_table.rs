//! Per-process address spaces: the virtual→physical mapping plus swap
//! entries.
//!
//! Each space is a radix page table, like the kernel's. A VPN splits into
//! a span key (`vpn >> 21`: one 8 GiB span of 4 KiB pages), a leaf index
//! within the span (4,096 leaves) and an entry index within the leaf (512
//! entries, so a leaf is exactly one huge-page-aligned window). Anon
//! regions start at VPN 0, file regions at `1 << 32` and transient churn
//! at `3 << 32`, so a process has two or three spans. A leaf packs its
//! entries as `u64`s (a PFN as is, a swap slot with the top bit set,
//! `u64::MAX` for no entry) and counts its live ones.
//!
//! Every simulated access funnels through [`AddressSpace::translate`],
//! which indexes the table directly, and neighbouring VPNs share a leaf.
//! The spans live in eight slots inside the space itself, keyed by a
//! multiplicative hash of the span key, so finding one is a hash, one
//! load and one compare, the same for every span. A linear search of a
//! list instead exits at the first or a later span, and when a workload
//! picks anon or file pages at random (cache1) that exit is a branch the
//! predictor misses about half the time. Keys 0, `1 << 11` and `3 << 11`
//! (the three bases above) have slots of their own; a span whose slot
//! another span already holds goes to a short overflow list searched
//! behind the slots. A sorted list of the keys orders the walks.
//! The background scanners (khugepaged, the hint sampler) walk the same
//! leaves in address order; a rank walk skips whole leaves by their live
//! counts, so reaching a rank costs O(leaves), not O(entries).

use crate::frame::HUGE_PAGE_FRAMES;
use crate::swap::SwapSlot;
use crate::types::{Pfn, Pid, Vpn};

/// Where a virtual page currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageLocation {
    /// Resident in memory at the given frame.
    Mapped(Pfn),
    /// Paged out to the given swap slot.
    Swapped(SwapSlot),
}

impl PageLocation {
    /// The frame, if resident.
    pub fn pfn(self) -> Option<Pfn> {
        match self {
            PageLocation::Mapped(pfn) => Some(pfn),
            PageLocation::Swapped(_) => None,
        }
    }

    fn encode(self) -> u64 {
        match self {
            PageLocation::Mapped(pfn) => pfn.0 as u64,
            PageLocation::Swapped(slot) => {
                debug_assert!(slot.0 < !SWAPPED, "{slot:?} collides with the empty entry");
                slot.0 | SWAPPED
            }
        }
    }

    #[inline]
    fn decode(entry: u64) -> Option<PageLocation> {
        if entry == EMPTY {
            None
        } else if entry & SWAPPED == 0 {
            Some(PageLocation::Mapped(Pfn(entry as u32)))
        } else {
            Some(PageLocation::Swapped(SwapSlot(entry & !SWAPPED)))
        }
    }
}

/// An entry with no mapping.
const EMPTY: u64 = u64::MAX;
/// Tag bit of an entry holding a swap slot.
const SWAPPED: u64 = 1 << 63;

/// log2 of the entries per leaf: one leaf per huge-page window.
const LEAF_SHIFT: u32 = HUGE_PAGE_FRAMES.trailing_zeros();
const LEAF_ENTRIES: usize = HUGE_PAGE_FRAMES as usize;
/// log2 of the VPNs per span (8 GiB of 4 KiB pages).
const SPAN_SHIFT: u32 = 21;
const SPAN_LEAVES: usize = 1 << (SPAN_SHIFT - LEAF_SHIFT);

/// The leaf slot of `vpn` within its span.
#[inline]
fn leaf_index(vpn: u64) -> usize {
    (vpn >> LEAF_SHIFT) as usize & (SPAN_LEAVES - 1)
}

/// Span slots in each address space.
const SLOTS: usize = 8;

/// The slot of span key `key`: the top three bits of a multiplicative
/// (Fibonacci) hash.
#[inline]
fn slot_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - SLOTS.trailing_zeros())) as usize
}

/// One window's entries and how many of them are live.
#[derive(Clone, Debug)]
struct Leaf {
    live: u32,
    entries: [u64; LEAF_ENTRIES],
}

impl Leaf {
    /// The live entries of the leaf based at `base`, in ascending order.
    fn entries(&self, base: u64) -> impl Iterator<Item = (Vpn, PageLocation)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(i, &e)| Some((Vpn(base + i as u64), PageLocation::decode(e)?)))
    }
}

/// The leaves of one 8 GiB span; a slot is `None` while its window has no
/// entry.
#[derive(Clone, Debug)]
struct Span {
    key: u64,
    /// A fixed-size array, so a masked leaf index needs no bounds check.
    leaves: Box<[Option<Box<Leaf>>; SPAN_LEAVES]>,
}

/// One process' page table.
///
/// # Examples
///
/// ```
/// use tiered_mem::{AddressSpace, PageLocation, Pfn, Pid, Vpn};
///
/// let mut space = AddressSpace::new(Pid(1));
/// space.map(Vpn(0), Pfn(42));
/// assert_eq!(space.translate(Vpn(0)), Some(PageLocation::Mapped(Pfn(42))));
/// assert_eq!(space.unmap(Vpn(0)), Some(PageLocation::Mapped(Pfn(42))));
/// assert_eq!(space.translate(Vpn(0)), None);
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    pid: Pid,
    /// `slots[slot_of(key)]`: the first span added whose key hashes to
    /// that slot.
    slots: [Option<Span>; SLOTS],
    /// The spans whose slot another span already held.
    overflow: Vec<Span>,
    /// Every span's key, ascending: the order of the walks.
    keys: Vec<u64>,
    /// Emptied leaves (all entries `EMPTY`), reused before allocating.
    free: Vec<Box<Leaf>>,
    /// Leaves holding at least one entry.
    windows: usize,
    resident: u64,
    swapped: u64,
}

impl AddressSpace {
    /// Creates an empty address space for `pid`.
    pub fn new(pid: Pid) -> AddressSpace {
        AddressSpace {
            pid,
            slots: Default::default(),
            overflow: Vec::new(),
            keys: Vec::new(),
            free: Vec::new(),
            windows: 0,
            resident: 0,
            swapped: 0,
        }
    }

    /// Looks up where `vpn` lives, if anywhere.
    #[inline]
    pub fn translate(&self, vpn: Vpn) -> Option<PageLocation> {
        let span = self.span(vpn.0 >> SPAN_SHIFT)?;
        let leaf = span.leaves[leaf_index(vpn.0)].as_deref()?;
        PageLocation::decode(leaf.entries[vpn.0 as usize % LEAF_ENTRIES])
    }

    /// The span with key `key`: the one in its slot, else the overflow
    /// search.
    #[inline]
    fn span(&self, key: u64) -> Option<&Span> {
        match &self.slots[slot_of(key)] {
            Some(span) if span.key == key => Some(span),
            _ => self.overflow_span(key),
        }
    }

    /// A key whose slot holds another span, or no span at all.
    #[cold]
    fn overflow_span(&self, key: u64) -> Option<&Span> {
        self.overflow.iter().find(|s| s.key == key)
    }

    /// [`AddressSpace::span`], mutably; it takes the two fields it reads
    /// so the caller can still borrow the others.
    fn span_mut<'a>(
        slots: &'a mut [Option<Span>; SLOTS],
        overflow: &'a mut [Span],
        key: u64,
    ) -> Option<&'a mut Span> {
        match &mut slots[slot_of(key)] {
            Some(span) if span.key == key => Some(span),
            _ => overflow.iter_mut().find(|s| s.key == key),
        }
    }

    /// Adds the empty span `key`: into its slot if that is free, else
    /// onto the overflow list.
    fn add_span(&mut self, key: u64) {
        let span = Span {
            key,
            leaves: vec![None; SPAN_LEAVES]
                .into_boxed_slice()
                .try_into()
                .expect("SPAN_LEAVES leaves"),
        };
        match &mut self.slots[slot_of(key)] {
            slot @ None => *slot = Some(span),
            Some(_) => self.overflow.push(span),
        }
        let at = self.keys.partition_point(|&k| k < key);
        self.keys.insert(at, key);
    }

    /// Number of resident (mapped) pages.
    #[inline]
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Total pages with any backing (resident + swapped).
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.resident + self.swapped
    }

    /// Installs a resident mapping, replacing any previous entry.
    ///
    /// Returns the previous location, if any.
    #[inline]
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn) -> Option<PageLocation> {
        let prev = self.insert(vpn.0, PageLocation::Mapped(pfn));
        self.resident += 1;
        prev
    }

    /// Marks a page as swapped out, replacing any previous entry.
    ///
    /// Returns the previous location, if any.
    pub fn set_swapped(&mut self, vpn: Vpn, slot: SwapSlot) -> Option<PageLocation> {
        let prev = self.insert(vpn.0, PageLocation::Swapped(slot));
        self.swapped += 1;
        prev
    }

    /// Stores `loc` at `vpn`, creating its span and leaf on demand, and
    /// uncounts the entry it replaces.
    #[inline]
    fn insert(&mut self, vpn: u64, loc: PageLocation) -> Option<PageLocation> {
        let key = vpn >> SPAN_SHIFT;
        if self.span(key).is_none() {
            self.add_span(key);
        }
        let span = AddressSpace::span_mut(&mut self.slots, &mut self.overflow, key)
            .expect("span added above");
        let slot = &mut span.leaves[leaf_index(vpn)];
        let leaf = slot.get_or_insert_with(|| {
            self.windows += 1;
            self.free.pop().unwrap_or_else(|| {
                Box::new(Leaf {
                    live: 0,
                    entries: [EMPTY; LEAF_ENTRIES],
                })
            })
        });
        let entry = &mut leaf.entries[vpn as usize % LEAF_ENTRIES];
        let prev = PageLocation::decode(std::mem::replace(entry, loc.encode()));
        if prev.is_none() {
            leaf.live += 1;
        }
        self.uncount(prev);
        prev
    }

    /// Removes the entry for `vpn`, returning where it was. A leaf left
    /// empty goes to the free list.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<PageLocation> {
        let key = vpn.0 >> SPAN_SHIFT;
        let span = AddressSpace::span_mut(&mut self.slots, &mut self.overflow, key)?;
        let slot = &mut span.leaves[leaf_index(vpn.0)];
        let leaf = slot.as_mut()?;
        let entry = &mut leaf.entries[vpn.0 as usize % LEAF_ENTRIES];
        let prev = PageLocation::decode(std::mem::replace(entry, EMPTY))?;
        leaf.live -= 1;
        if leaf.live == 0 {
            self.free.extend(slot.take());
            self.windows -= 1;
        }
        self.uncount(Some(prev));
        Some(prev)
    }

    fn uncount(&mut self, prev: Option<PageLocation>) {
        match prev {
            Some(PageLocation::Mapped(_)) => self.resident -= 1,
            Some(PageLocation::Swapped(_)) => self.swapped -= 1,
            None => {}
        }
    }

    /// The non-empty leaves with their base VPNs, in ascending order.
    fn leaves(&self) -> impl Iterator<Item = (u64, &Leaf)> + '_ {
        self.keys.iter().flat_map(|&key| {
            let span = self.span(key).expect("every key has a span");
            let span_base = span.key << SPAN_SHIFT;
            span.leaves.iter().enumerate().filter_map(move |(i, leaf)| {
                Some((span_base + ((i as u64) << LEAF_SHIFT), leaf.as_deref()?))
            })
        })
    }

    /// Iterates all entries (mapped and swapped) in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, PageLocation)> + '_ {
        self.leaves().flat_map(|(base, leaf)| leaf.entries(base))
    }

    /// Number of aligned windows holding at least one entry.
    pub fn window_count(&self) -> usize {
        self.windows
    }

    /// Base VPNs of the huge-page-aligned windows holding at least one
    /// entry (mapped or swapped), in ascending order.
    pub fn window_bases(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.leaves().map(|(base, _)| Vpn(base))
    }

    /// The VPNs with an entry (mapped or swapped) in ascending order,
    /// starting at the `rank`-th smallest: `vpns_from_rank(r)` yields what
    /// a sorted key list would hold at `[r..]`. Whole leaves below the
    /// rank are skipped by their live counts.
    pub fn vpns_from_rank(&self, rank: usize) -> impl Iterator<Item = Vpn> + '_ {
        let mut skip = rank;
        self.leaves()
            .filter_map(move |(base, leaf)| {
                let live = leaf.live as usize;
                if skip >= live {
                    skip -= live;
                    return None;
                }
                Some(leaf.entries(base).skip(std::mem::take(&mut skip)))
            })
            .flatten()
            .map(|(vpn, _)| vpn)
    }

    /// Asserts that the keys are sorted and name exactly the spans, that
    /// each slot's span hashes to it and each overflow span's slot is
    /// taken, that every leaf's live count matches its entries and is
    /// non-zero, and that the window, resident and swapped counts match
    /// the entries.
    pub(crate) fn validate(&self) {
        assert!(
            self.keys.windows(2).all(|w| w[0] < w[1]),
            "{}: span keys out of order",
            self.pid
        );
        for (at, span) in self.slots.iter().enumerate() {
            if let Some(span) = span {
                assert_eq!(
                    slot_of(span.key),
                    at,
                    "{}: span {} in a foreign slot",
                    self.pid,
                    span.key
                );
            }
        }
        for span in &self.overflow {
            assert!(
                self.slots[slot_of(span.key)].is_some(),
                "{}: span {} overflowed a free slot",
                self.pid,
                span.key
            );
        }
        let spans = self.slots.iter().flatten().count() + self.overflow.len();
        assert_eq!(spans, self.keys.len(), "{}: span count", self.pid);
        for &key in &self.keys {
            assert!(self.span(key).is_some(), "{}: span {key} missing", self.pid);
        }
        let (mut windows, mut resident, mut swapped) = (0, 0, 0);
        for (base, leaf) in self.leaves() {
            let mut live = 0;
            for (_, loc) in leaf.entries(base) {
                live += 1;
                match loc {
                    PageLocation::Mapped(_) => resident += 1,
                    PageLocation::Swapped(_) => swapped += 1,
                }
            }
            assert!(
                live > 0,
                "{}: empty leaf at {base} left in the table",
                self.pid
            );
            assert_eq!(leaf.live, live, "{}: leaf at {base} miscounted", self.pid);
            windows += 1;
        }
        assert_eq!(windows, self.windows, "{}: window count", self.pid);
        assert_eq!(resident, self.resident, "{}: resident count", self.pid);
        assert_eq!(swapped, self.swapped, "{}: swapped count", self.pid);
        assert!(
            self.free
                .iter()
                .all(|l| l.live == 0 && l.entries.iter().all(|&e| e == EMPTY)),
            "{}: free leaf not empty",
            self.pid
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_accounting() {
        let mut s = AddressSpace::new(Pid(9));
        s.map(Vpn(1), Pfn(100));
        s.map(Vpn(2), Pfn(101));
        assert_eq!(s.resident_pages(), 2);
        assert_eq!(s.total_pages(), 2);
        s.unmap(Vpn(1));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.translate(Vpn(1)), None);
        assert_eq!(s.translate(Vpn(2)), Some(PageLocation::Mapped(Pfn(101))));
    }

    #[test]
    fn swap_transition_keeps_counts_consistent() {
        let mut s = AddressSpace::new(Pid(1));
        s.map(Vpn(5), Pfn(7));
        let prev = s.set_swapped(Vpn(5), SwapSlot(3));
        assert_eq!(prev, Some(PageLocation::Mapped(Pfn(7))));
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.total_pages(), 1);
        // Swap-in: back to mapped.
        let prev = s.map(Vpn(5), Pfn(8));
        assert_eq!(prev, Some(PageLocation::Swapped(SwapSlot(3))));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.total_pages(), 1);
    }

    #[test]
    fn remap_replaces_without_leaking_counts() {
        let mut s = AddressSpace::new(Pid(1));
        s.map(Vpn(5), Pfn(7));
        s.map(Vpn(5), Pfn(9));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.translate(Vpn(5)), Some(PageLocation::Mapped(Pfn(9))));
    }

    #[test]
    fn unmap_missing_is_none() {
        let mut s = AddressSpace::new(Pid(1));
        assert_eq!(s.unmap(Vpn(77)), None);
        s.map(Vpn(1), Pfn(1));
        assert_eq!(s.unmap(Vpn(2)), None);
        assert_eq!(s.unmap(Vpn(1 << 40)), None);
        assert_eq!(s.total_pages(), 1);
        s.validate();
    }

    #[test]
    fn index_walks_are_sorted() {
        let mut s = AddressSpace::new(Pid(1));
        for v in [9u64, 3, 700, 1, 1 << 32] {
            s.map(Vpn(v), Pfn(v as u32));
        }
        s.set_swapped(Vpn(600), SwapSlot(0));
        let all = [Vpn(1), Vpn(3), Vpn(9), Vpn(600), Vpn(700), Vpn(1 << 32)];
        assert_eq!(s.vpns_from_rank(0).collect::<Vec<_>>(), all);
        assert_eq!(s.vpns_from_rank(4).collect::<Vec<_>>(), all[4..]);
        assert_eq!(s.vpns_from_rank(6).count(), 0);
        assert_eq!(
            s.window_bases().collect::<Vec<_>>(),
            vec![Vpn(0), Vpn(512), Vpn(1 << 32)]
        );
        // Emptying a window drops it from the walk.
        s.unmap(Vpn(600));
        s.unmap(Vpn(700));
        assert_eq!(s.window_count(), 2);
        s.validate();
    }

    #[test]
    fn page_location_pfn_helper() {
        assert_eq!(PageLocation::Mapped(Pfn(4)).pfn(), Some(Pfn(4)));
        assert_eq!(PageLocation::Swapped(SwapSlot(1)).pfn(), None);
    }

    #[test]
    fn entries_round_trip_through_the_packed_encoding() {
        for loc in [
            PageLocation::Mapped(Pfn(0)),
            PageLocation::Mapped(Pfn(u32::MAX)),
            PageLocation::Swapped(SwapSlot(0)),
            PageLocation::Swapped(SwapSlot(u32::MAX as u64 + 1)),
        ] {
            assert_eq!(PageLocation::decode(loc.encode()), Some(loc));
        }
        assert_eq!(PageLocation::decode(EMPTY), None);
    }

    #[test]
    fn translate_tracks_remap_swap_and_unmap() {
        let mut s = AddressSpace::new(Pid(1));
        s.map(Vpn(5), Pfn(7));
        assert_eq!(s.translate(Vpn(5)), Some(PageLocation::Mapped(Pfn(7))));
        s.map(Vpn(5), Pfn(8));
        assert_eq!(s.translate(Vpn(5)), Some(PageLocation::Mapped(Pfn(8))));
        s.set_swapped(Vpn(5), SwapSlot(2));
        assert_eq!(
            s.translate(Vpn(5)),
            Some(PageLocation::Swapped(SwapSlot(2)))
        );
        s.unmap(Vpn(5));
        assert_eq!(s.translate(Vpn(5)), None);
    }

    #[test]
    fn spans_stay_sorted_and_emptied_leaves_are_reused() {
        let mut s = AddressSpace::new(Pid(1));
        // Higher span first: the span list must still walk in order.
        s.map(Vpn(3 << 32), Pfn(3));
        s.map(Vpn(1 << 32), Pfn(2));
        s.map(Vpn(7), Pfn(1));
        assert_eq!(
            s.iter().map(|(v, _)| v).collect::<Vec<_>>(),
            [Vpn(7), Vpn(1 << 32), Vpn(3 << 32)]
        );
        s.unmap(Vpn(1 << 32));
        assert_eq!(s.free.len(), 1);
        // The next new window takes the freed leaf, already all-empty.
        s.map(Vpn(1 << 20), Pfn(4));
        assert!(s.free.is_empty());
        assert_eq!(s.window_count(), 3);
        assert_eq!(s.translate(Vpn((1 << 20) + 1)), None);
        s.validate();
    }

    #[test]
    fn spans_whose_keys_share_a_slot_all_translate() {
        // Span 5 shares a slot with the anon span 0, and span 6 with the
        // file span at `1 << 32`; whichever holds the slot, the other is
        // found by the fallback search. Both insertion orders.
        let bases = [0u64, 1 << 32, 5 << SPAN_SHIFT, 6 << SPAN_SHIFT, 3 << 32];
        let slot = |base: u64| slot_of(base >> SPAN_SHIFT);
        assert_eq!(slot(5 << SPAN_SHIFT), slot(0));
        assert_eq!(slot(6 << SPAN_SHIFT), slot(1 << 32));
        let own = [slot(0), slot(1 << 32), slot(3 << 32)];
        assert!(own[0] != own[1] && own[0] != own[2] && own[1] != own[2]);
        for reversed in [false, true] {
            let mut s = AddressSpace::new(Pid(1));
            let mut order: Vec<usize> = (0..bases.len()).collect();
            if reversed {
                order.reverse();
            }
            for &i in &order {
                s.map(Vpn(bases[i] + 1), Pfn(i as u32));
                s.validate();
            }
            for (i, &base) in bases.iter().enumerate() {
                let mapped = Some(PageLocation::Mapped(Pfn(i as u32)));
                assert_eq!(s.translate(Vpn(base + 1)), mapped, "span at {base}");
                assert_eq!(s.translate(Vpn(base)), None, "span at {base}");
            }
            for &i in &order {
                let mapped = Some(PageLocation::Mapped(Pfn(i as u32)));
                assert_eq!(s.unmap(Vpn(bases[i] + 1)), mapped);
                assert_eq!(s.translate(Vpn(bases[i] + 1)), None);
            }
            assert_eq!(s.total_pages(), 0);
            s.validate();
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = AddressSpace::new(Pid(1));
        a.map(Vpn(1), Pfn(10));
        let b = a.clone();
        a.unmap(Vpn(1));
        assert_eq!(b.translate(Vpn(1)), Some(PageLocation::Mapped(Pfn(10))));
        assert_eq!(a.translate(Vpn(1)), None);
    }
}
