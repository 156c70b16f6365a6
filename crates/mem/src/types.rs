//! Fundamental identifier and unit types shared across the memory substrate.
//!
//! All types here are small `Copy` newtypes ([C-NEWTYPE]) so that physical
//! frame numbers, virtual page numbers, node ids, and process ids can never
//! be confused for one another at compile time.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// Size of a base page in bytes (4 KiB), matching the Linux default on x86.
pub const PAGE_SIZE: u64 = 4096;

/// Number of bytes in one mebibyte.
pub const MIB: u64 = 1024 * 1024;

/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// Converts a size in mebibytes to a page count.
///
/// # Examples
///
/// ```
/// assert_eq!(tiered_mem::pages_from_mib(4), 1024);
/// ```
pub const fn pages_from_mib(mib: u64) -> u64 {
    mib * MIB / PAGE_SIZE
}

/// Converts a page count to mebibytes (floor).
///
/// # Examples
///
/// ```
/// assert_eq!(tiered_mem::mib_from_pages(1024), 4);
/// ```
pub const fn mib_from_pages(pages: u64) -> u64 {
    pages * PAGE_SIZE / MIB
}

/// A physical frame number, unique across *all* memory nodes in a machine.
///
/// The frame table assigns each node a contiguous PFN range, as a real
/// machine's physical address map does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pfn(pub u32);

impl Pfn {
    /// Sentinel used by intrusive lists for "no frame".
    pub(crate) const NONE: u32 = u32::MAX;

    /// Returns the raw index of this frame.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn#{}", self.0)
    }
}

/// A virtual page number within one process' address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vpn(pub u64);

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn#{:#x}", self.0)
    }
}

/// Identifier of a memory node (NUMA node). Node 0 is conventionally the
/// CPU-attached "local" node; CXL expanders are CPU-less nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u8);

impl NodeId {
    /// The conventional local (CPU-attached) node.
    pub const LOCAL: NodeId = NodeId(0);

    /// Returns the raw index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A small, inline list of node ids.
///
/// Node-set queries (`local_nodes`, `cxl_nodes`, `fallback_order`) run on
/// the fault path, once per simulated access; returning a heap `Vec` there
/// dominated the allocator profile. Machines have a handful of nodes, so
/// the list is a fixed array that dereferences to `[NodeId]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeList {
    ids: [NodeId; NodeList::CAPACITY],
    len: u8,
}

impl Default for NodeList {
    fn default() -> NodeList {
        NodeList::new()
    }
}

impl NodeList {
    /// Maximum number of nodes a machine can have.
    pub const CAPACITY: usize = 8;

    /// Creates an empty list.
    pub fn new() -> NodeList {
        NodeList {
            ids: [NodeId(0); NodeList::CAPACITY],
            len: 0,
        }
    }

    /// Appends a node id.
    ///
    /// # Panics
    ///
    /// Panics if the list is full ([`NodeList::CAPACITY`] entries).
    pub(crate) fn push(&mut self, id: NodeId) {
        assert!(
            (self.len as usize) < NodeList::CAPACITY,
            "machine has more than {} nodes",
            NodeList::CAPACITY
        );
        self.ids[self.len as usize] = id;
        self.len += 1;
    }

    /// The ids as a slice (also available through deref).
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }

    /// Sorts the list with a key function (insertion sort: the list is
    /// tiny and this keeps the type `Copy`).
    pub(crate) fn sort_by_key<K: Ord>(&mut self, key: impl Fn(NodeId) -> K) {
        let n = self.len as usize;
        for i in 1..n {
            let mut j = i;
            while j > 0 && key(self.ids[j - 1]) > key(self.ids[j]) {
                self.ids.swap(j - 1, j);
                j -= 1;
            }
        }
    }
}

impl std::ops::Deref for NodeList {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl IntoIterator for NodeList {
    type Item = NodeId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NodeId, { NodeList::CAPACITY }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a NodeList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<NodeId> for NodeList {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> NodeList {
        let mut list = NodeList::new();
        for id in iter {
            list.push(id);
        }
        list
    }
}

/// Transparent-huge-page policy mode, mirroring
/// `/sys/kernel/mm/transparent_hugepage/enabled`.
///
/// The mode is a *machine* property (set through
/// [`MemoryBuilder::thp_mode`](crate::MemoryBuilder::thp_mode)) that the
/// placement policies read: it gates fault-time huge allocation, the
/// collapse scanner, and the compaction daemon.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ThpMode {
    /// No huge pages anywhere (`never`): faults map base pages and
    /// neither khugepaged nor kcompactd runs. The default.
    #[default]
    Never,
    /// No fault-time huge allocation, but the khugepaged-style collapse
    /// scanner may still assemble huge pages from hot base-page runs
    /// (`madvise`).
    Madvise,
    /// Fault-time huge allocation plus collapse (`always`).
    Always,
}

impl fmt::Display for ThpMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThpMode::Never => "never",
            ThpMode::Madvise => "madvise",
            ThpMode::Always => "always",
        };
        f.write_str(s)
    }
}

/// A process identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// The kind of memory a page backs, following the kernel's split between
/// anonymous memory and the page cache.
///
/// The TPP paper distinguishes *anon* pages (stack, heap, `mmap` without a
/// file) from *file* pages (page cache), with `tmpfs` counted on the file
/// LRU but allocated like shared memory. Workload sensitivity differs per
/// type (paper §3.4–3.6), and TPP's page-type-aware allocation (§5.4)
/// prefers placing caches on the CXL node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PageType {
    /// Anonymous memory: heap, stack, private mappings.
    Anon,
    /// File-backed page cache.
    File,
    /// `tmpfs`/shmem: in-memory filesystem pages (managed on the file LRU).
    Tmpfs,
}

impl PageType {
    /// Whether this page is accounted on the file LRU lists.
    ///
    /// `tmpfs` pages live on the file LRU, as in Linux.
    #[inline]
    pub fn is_file_backed(self) -> bool {
        matches!(self, PageType::File | PageType::Tmpfs)
    }

    /// Whether this page is accounted on the anon LRU lists.
    #[inline]
    pub fn is_anon(self) -> bool {
        matches!(self, PageType::Anon)
    }

    /// All page types, in a stable order (useful for reports).
    pub const ALL: [PageType; 3] = [PageType::Anon, PageType::File, PageType::Tmpfs];
}

impl fmt::Display for PageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageType::Anon => "anon",
            PageType::File => "file",
            PageType::Tmpfs => "tmpfs",
        };
        f.write_str(s)
    }
}

/// Unique identity of a virtual page: a (process, virtual page) pair.
///
/// Frames record their owner as a `PageKey` (the simulator models private
/// mappings, so each frame has at most one owner), which gives an O(1)
/// reverse map for migration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageKey {
    /// Owning process.
    pub pid: Pid,
    /// Virtual page number within that process.
    pub vpn: Vpn,
}

impl PageKey {
    /// Creates a page key from its parts.
    pub fn new(pid: Pid, vpn: Vpn) -> Self {
        PageKey { pid, vpn }
    }
}

impl fmt::Display for PageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.pid, self.vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_conversions_round_trip() {
        assert_eq!(pages_from_mib(1), 256);
        assert_eq!(mib_from_pages(256), 1);
        assert_eq!(mib_from_pages(pages_from_mib(128)), 128);
    }

    #[test]
    fn page_type_lru_accounting_split() {
        assert!(PageType::Anon.is_anon());
        assert!(!PageType::Anon.is_file_backed());
        assert!(PageType::File.is_file_backed());
        assert!(PageType::Tmpfs.is_file_backed());
        assert!(!PageType::Tmpfs.is_anon());
    }

    #[test]
    fn newtypes_display_readably() {
        assert_eq!(Pfn(7).to_string(), "pfn#7");
        assert_eq!(NodeId(1).to_string(), "node1");
        assert_eq!(Vpn(0x10).to_string(), "vpn#0x10");
        assert_eq!(PageKey::new(Pid(3), Vpn(16)).to_string(), "pid3:vpn#0x10");
    }

    #[test]
    fn node_local_is_zero() {
        assert_eq!(NodeId::LOCAL, NodeId(0));
        assert_eq!(NodeId::LOCAL.index(), 0);
    }

    #[test]
    fn node_list_push_iter_sort() {
        let mut l = NodeList::new();
        for id in [2u8, 0, 1] {
            l.push(NodeId(id));
        }
        assert_eq!(l.as_slice(), &[NodeId(2), NodeId(0), NodeId(1)]);
        l.sort_by_key(|n| n.0);
        assert_eq!(l.as_slice(), &[NodeId(0), NodeId(1), NodeId(2)]);
        // Both by-value and by-ref iteration work.
        assert_eq!(l.into_iter().count(), 3);
        assert_eq!((&l).into_iter().count(), 3);
        assert_eq!(l.first(), Some(&NodeId(0)));
        let collected: NodeList = [NodeId(5)].into_iter().collect();
        assert_eq!(collected.as_slice(), &[NodeId(5)]);
    }

    #[test]
    #[should_panic(expected = "more than")]
    fn node_list_overflow_panics() {
        let mut l = NodeList::new();
        for id in 0..=NodeList::CAPACITY as u8 {
            l.push(NodeId(id));
        }
    }
}
