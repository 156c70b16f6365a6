//! Per-process address spaces: the virtual→physical mapping plus swap
//! entries, and the registry of processes.
//!
//! The mapping is a hand-rolled open-addressed hash table ([`VpnMap`])
//! rather than `std::collections::HashMap`: every simulated access funnels
//! through [`AddressSpace::translate`], so the lookup path is the hottest
//! code in the simulator. The table uses power-of-two capacities,
//! fibonacci (multiply-shift) hashing, linear probing, and tombstone-free
//! backshift deletion, and the fault path keeps a one-entry
//! last-translation cache in front of it.
//!
//! Beside the hash table each space keeps an ordered occupancy index: one
//! bitmap per huge-page-aligned window, in address order. The background
//! scanners (khugepaged, the hint sampler) walk it instead of collecting
//! and sorting every VPN on each wakeup.

use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::frame::HUGE_PAGE_FRAMES;
use crate::swap::SwapSlot;
use crate::types::{Pfn, Pid, Vpn};

/// Occupancy bitmap of one aligned window: bit `i` is set when
/// `base + i` has an entry.
type WindowBits = [u64; (HUGE_PAGE_FRAMES / 64) as usize];

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
}

/// Sentinel marking an empty slot. Valid VPNs never reach `u64::MAX`:
/// anon regions start at 0 and file regions at `1 << 32`, both far below.
const EMPTY: u64 = u64::MAX;

/// 2^64 / phi, the fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

const MIN_CAP: usize = 8;

/// Open-addressed `Vpn -> PageLocation` table.
///
/// Layout: two parallel vectors (keys and values) of power-of-two length.
/// The home slot of a key is the top `log2(capacity)` bits of
/// `key * FIB` (multiply-shift), collisions probe linearly, and deletion
/// backshifts the following probe chain instead of leaving tombstones, so
/// lookup cost never degrades with churn. Iteration order is slot order —
/// a pure function of the insertion history, never of a randomized hash
/// seed, which keeps whole-table walks deterministic across runs.
#[derive(Clone, Debug)]
struct VpnMap {
    keys: Vec<u64>,
    vals: Vec<PageLocation>,
    len: usize,
    /// `64 - log2(capacity)`; multiply-shift uses the top bits.
    shift: u32,
}

impl VpnMap {
    fn new() -> VpnMap {
        VpnMap {
            keys: vec![EMPTY; MIN_CAP],
            vals: vec![PageLocation::Mapped(Pfn(0)); MIN_CAP],
            len: 0,
            shift: 64 - MIN_CAP.trailing_zeros(),
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    #[inline]
    fn get(&self, key: u64) -> Option<PageLocation> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, val: PageLocation) -> Option<PageLocation> {
        debug_assert_ne!(key, EMPTY, "Vpn(u64::MAX) collides with the empty sentinel");
        // Grow before the load factor exceeds 3/4 so probe chains stay short.
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, key: u64) -> Option<PageLocation> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let old = self.vals[i];
        self.len -= 1;
        // Backshift deletion: slide each following chain member into the
        // hole unless that would move it before its home slot.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.keys[hole] = EMPTY;
        Some(old)
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals =
            std::mem::replace(&mut self.vals, vec![PageLocation::Mapped(Pfn(0)); new_cap]);
        self.shift -= 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, PageLocation)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }
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
    map: VpnMap,
    resident: u64,
    swapped: u64,
    /// One-entry last-translation cache: workloads re-touch the same page
    /// in bursts, and the sampler walks pages it just translated.
    last: Cell<Option<(Vpn, PageLocation)>>,
    /// Ordered occupancy index over exactly the keys of `map` (mapped and
    /// swapped alike), keyed by window base. Windows with no entry are
    /// absent. Updated only when a key enters or leaves `map`.
    windows: BTreeMap<u64, WindowBits>,
}

impl AddressSpace {
    /// Creates an empty address space for `pid`.
    pub fn new(pid: Pid) -> AddressSpace {
        AddressSpace {
            pid,
            map: VpnMap::new(),
            resident: 0,
            swapped: 0,
            last: Cell::new(None),
            windows: BTreeMap::new(),
        }
    }

    /// The owning process.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Looks up where `vpn` lives, if anywhere.
    #[inline]
    pub fn translate(&self, vpn: Vpn) -> Option<PageLocation> {
        if let Some((v, loc)) = self.last.get() {
            if v == vpn {
                return Some(loc);
            }
        }
        let loc = self.map.get(vpn.0)?;
        self.last.set(Some((vpn, loc)));
        Some(loc)
    }

    /// Number of resident (mapped) pages.
    #[inline]
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Number of swapped-out pages.
    #[inline]
    pub fn swapped_pages(&self) -> u64 {
        self.swapped
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
        let loc = PageLocation::Mapped(pfn);
        let prev = self.map.insert(vpn.0, loc);
        self.account_remove(prev);
        if prev.is_none() {
            self.index_insert(vpn.0);
        }
        self.resident += 1;
        self.last.set(Some((vpn, loc)));
        prev
    }

    /// Marks a page as swapped out, replacing any previous entry.
    ///
    /// Returns the previous location, if any.
    pub fn set_swapped(&mut self, vpn: Vpn, slot: SwapSlot) -> Option<PageLocation> {
        let loc = PageLocation::Swapped(slot);
        let prev = self.map.insert(vpn.0, loc);
        self.account_remove(prev);
        if prev.is_none() {
            self.index_insert(vpn.0);
        }
        self.swapped += 1;
        self.last.set(Some((vpn, loc)));
        prev
    }

    /// Removes the entry for `vpn`, returning where it was.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<PageLocation> {
        let prev = self.map.remove(vpn.0);
        self.account_remove(prev);
        if prev.is_some() {
            self.index_remove(vpn.0);
        }
        if let Some((v, _)) = self.last.get() {
            if v == vpn {
                self.last.set(None);
            }
        }
        prev
    }

    fn account_remove(&mut self, prev: Option<PageLocation>) {
        match prev {
            Some(PageLocation::Mapped(_)) => self.resident -= 1,
            Some(PageLocation::Swapped(_)) => self.swapped -= 1,
            None => {}
        }
    }

    /// Iterates all entries in unspecified (but deterministic) order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, PageLocation)> + '_ {
        self.map.iter().map(|(v, l)| (Vpn(v), l))
    }

    fn index_insert(&mut self, vpn: u64) {
        let (base, word, bit) = window_slot(vpn);
        self.windows.entry(base).or_default()[word] |= bit;
    }

    fn index_remove(&mut self, vpn: u64) {
        let (base, word, bit) = window_slot(vpn);
        let Entry::Occupied(mut window) = self.windows.entry(base) else {
            unreachable!("{}: unmapped VPN {vpn} was never indexed", self.pid);
        };
        window.get_mut()[word] &= !bit;
        if window.get().iter().all(|&w| w == 0) {
            window.remove();
        }
    }

    /// Number of aligned windows holding at least one entry.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Base VPNs of the huge-page-aligned windows holding at least one
    /// entry (mapped or swapped), in ascending order.
    pub fn window_bases(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.windows.keys().map(|&base| Vpn(base))
    }

    /// The VPNs with an entry (mapped or swapped) in ascending order,
    /// starting at the `rank`-th smallest: `vpns_from_rank(r)` yields what
    /// a sorted key list would hold at `[r..]`. Whole windows below the
    /// rank are skipped by popcount, so reaching the start costs
    /// O(windows), not O(entries).
    pub fn vpns_from_rank(&self, rank: usize) -> impl Iterator<Item = Vpn> + '_ {
        let mut skip = rank as u64;
        self.windows.iter().flat_map(move |(&base, bits)| {
            let count: u64 = bits.iter().map(|w| w.count_ones() as u64).sum();
            let here = skip.min(count);
            skip -= here;
            window_vpns(base, bits).skip(here as usize)
        })
    }

    /// Asserts that the occupancy index holds exactly the table's keys and
    /// that its popcounts sum to `resident + swapped`.
    pub(crate) fn validate_index(&self) {
        let mut expected: BTreeMap<u64, WindowBits> = BTreeMap::new();
        for (vpn, _) in self.map.iter() {
            let (base, word, bit) = window_slot(vpn);
            expected.entry(base).or_default()[word] |= bit;
        }
        assert!(
            expected == self.windows,
            "{}: occupancy index diverges from the page table",
            self.pid
        );
        let indexed: u64 = self
            .windows
            .values()
            .flatten()
            .map(|w| w.count_ones() as u64)
            .sum();
        assert_eq!(
            indexed,
            self.total_pages(),
            "{}: occupancy index popcount != resident + swapped",
            self.pid
        );
    }
}

/// The window base of `vpn`, and the word and bit that mark `vpn` in that
/// window's bitmap.
fn window_slot(vpn: u64) -> (u64, usize, u64) {
    let off = vpn % HUGE_PAGE_FRAMES;
    (vpn - off, (off / 64) as usize, 1 << (off % 64))
}

/// The VPNs set in one window's bitmap, in ascending order.
fn window_vpns(base: u64, bits: &WindowBits) -> impl Iterator<Item = Vpn> + '_ {
    bits.iter().enumerate().flat_map(move |(i, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let bit = word.trailing_zeros() as u64;
            word &= word - 1;
            Some(Vpn(base + i as u64 * 64 + bit))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_accounting() {
        let mut s = AddressSpace::new(Pid(9));
        assert_eq!(s.pid(), Pid(9));
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
        assert_eq!(s.swapped_pages(), 1);
        // Swap-in: back to mapped.
        let prev = s.map(Vpn(5), Pfn(8));
        assert_eq!(prev, Some(PageLocation::Swapped(SwapSlot(3))));
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.swapped_pages(), 0);
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
        assert_eq!(s.total_pages(), 0);
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
        s.validate_index();
    }

    #[test]
    fn page_location_pfn_helper() {
        assert_eq!(PageLocation::Mapped(Pfn(4)).pfn(), Some(Pfn(4)));
        assert_eq!(PageLocation::Swapped(SwapSlot(1)).pfn(), None);
    }

    #[test]
    fn translate_cache_tracks_remap_swap_and_unmap() {
        let mut s = AddressSpace::new(Pid(1));
        s.map(Vpn(5), Pfn(7));
        // Prime the one-entry cache, then mutate through every path and
        // check translate never serves a stale location.
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
    fn clone_is_independent() {
        let mut a = AddressSpace::new(Pid(1));
        a.map(Vpn(1), Pfn(10));
        let b = a.clone();
        a.unmap(Vpn(1));
        assert_eq!(b.translate(Vpn(1)), Some(PageLocation::Mapped(Pfn(10))));
        assert_eq!(a.translate(Vpn(1)), None);
    }

    /// Churn the open-addressed table against a `HashMap` reference model
    /// with a deterministic LCG driving inserts, overwrites, removals, and
    /// lookups across several growth boundaries.
    #[test]
    fn vpn_map_matches_reference_model_under_churn() {
        use std::collections::HashMap;

        let mut lcg: u64 = 0x1234_5678_9abc_def0;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 16
        };
        let mut ours = VpnMap::new();
        let mut model: HashMap<u64, PageLocation> = HashMap::new();
        for _ in 0..20_000 {
            let r = step();
            // Small key domain forces heavy collision/overwrite/remove mix;
            // include keys offset by 1 << 32 to mimic file-region VPNs.
            let key = (r % 512) + if r & 1 == 0 { 1 << 32 } else { 0 };
            match (r >> 9) % 4 {
                0 | 1 => {
                    let val = PageLocation::Mapped(Pfn((r >> 20) as u32));
                    assert_eq!(ours.insert(key, val), model.insert(key, val));
                }
                2 => {
                    assert_eq!(ours.remove(key), model.remove(&key));
                }
                _ => {
                    assert_eq!(ours.get(key), model.get(&key).copied());
                }
            }
            assert_eq!(ours.len, model.len());
        }
        // Full-table walk agrees with the model.
        let mut walked: Vec<(u64, PageLocation)> = ours.iter().collect();
        walked.sort_by_key(|&(k, _)| k);
        let mut expected: Vec<(u64, PageLocation)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        expected.sort_by_key(|&(k, _)| k);
        assert_eq!(walked, expected);
    }

    #[test]
    fn vpn_map_survives_growth_with_dense_keys() {
        let mut m = VpnMap::new();
        for i in 0..10_000u64 {
            assert_eq!(m.insert(i, PageLocation::Mapped(Pfn(i as u32))), None);
        }
        assert_eq!(m.len, 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(i), Some(PageLocation::Mapped(Pfn(i as u32))));
        }
        // Delete every other key, then verify the survivors still resolve
        // (backshift must not break probe chains).
        for i in (0..10_000u64).step_by(2) {
            assert!(m.remove(i).is_some());
        }
        for i in 0..10_000u64 {
            let want = if i % 2 == 1 {
                Some(PageLocation::Mapped(Pfn(i as u32)))
            } else {
                None
            };
            assert_eq!(m.get(i), want);
        }
    }
}
