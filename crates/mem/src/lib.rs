//! # tiered-mem
//!
//! A page-granular memory substrate for simulating tiered-memory systems,
//! built for the reproduction of *TPP: Transparent Page Placement for
//! CXL-Enabled Tiered Memory* (ASPLOS 2023).
//!
//! The crate models the parts of the Linux memory-management subsystem
//! that the paper's mechanisms live in:
//!
//! * a machine-wide **frame table** with per-node free lists
//!   ([`FrameTable`]),
//! * **NUMA nodes** of different technology tiers — CPU-attached DRAM,
//!   CPU-less CXL expanders, and switch-attached CXL pools
//!   ([`MemoryNode`], [`NodeKind`]),
//! * a machine **topology** with a NUMA distance matrix and per-link
//!   properties, from which allocation fallback and demotion orders are
//!   derived ([`Topology`]),
//! * free-page **watermarks**, including TPP's decoupled
//!   allocation/demotion watermarks ([`Watermarks`], [`TppWatermarks`]),
//! * per-node **LRU lists** (`active`/`inactive` × `anon`/`file`) with
//!   intrusive O(1) isolation ([`NodeLru`]),
//! * per-process **page tables** with swap entries ([`AddressSpace`]),
//! * a **migration engine** and a slow **swap device**
//!   ([`Memory::migrate_page`], [`SwapDevice`]),
//! * `/proc/vmstat`-style **event counters** including all of TPP's new
//!   observability counters ([`VmStat`], [`VmEvent`]),
//! * structured **event tracing** beneath the counters: a traced
//!   [`Memory`] also keeps every counted mutation as a timestamped
//!   [`TraceEvent`] ([`Memory::enable_trace`], [`telemetry`]).
//!
//! Everything is *mechanism*; placement *policy* (when to demote, what to
//! promote) lives in the `tpp` crate.
//!
//! ## Example
//!
//! ```
//! use tiered_mem::{Memory, NodeId, NodeKind, PageType, Pid, Vpn};
//!
//! // A machine with 256 MiB of local DRAM and 1 GiB of CXL memory.
//! let mut memory = Memory::builder()
//!     .node(NodeKind::LocalDram, tiered_mem::pages_from_mib(256))
//!     .node(NodeKind::Cxl, tiered_mem::pages_from_mib(1024))
//!     .build();
//!
//! memory.create_process(Pid(1));
//! let pfn = memory.alloc_and_map(NodeId::LOCAL, Pid(1), Vpn(0), PageType::Anon)?;
//! // Demote it to the CXL node.
//! let moved = memory.migrate_page(pfn, NodeId(1))?;
//! assert_eq!(memory.frames().frame(moved).node(), NodeId(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod flags;
mod frame;
mod lru;
mod memory;
mod node;
mod page_table;
mod pid_table;
mod swap;
pub mod telemetry;
mod topology;
mod types;
mod vmstat;
mod watermark;

pub use error::{AllocError, MigrateError, SwapError};
pub use flags::PageFlags;
pub use frame::{Frame, FrameState, FrameTable, HUGE_PAGE_FRAMES, MAX_PAGE_ORDER};
pub use lru::{LruKind, NodeLru};
pub use memory::{Memory, MemoryBuilder};
pub use node::{MemoryNode, NodeKind};
pub use page_table::{AddressSpace, PageLocation};
pub use pid_table::PidTable;
pub use swap::{SwapDevice, SwapSlot};
pub use telemetry::{PromoteFailReason, PromoteSkipReason, TraceEvent, TraceRecord};
pub use topology::{Link, Topology, LOCAL_DISTANCE};
pub use types::{
    mib_from_pages, pages_from_mib, NodeId, NodeList, PageKey, PageType, Pfn, Pid, ThpMode, Vpn,
    GIB, MIB, PAGE_SIZE,
};
pub use vmstat::{VmEvent, VmStat};
pub use watermark::{TppWatermarks, Watermarks, DEFAULT_DEMOTE_SCALE_BP};
