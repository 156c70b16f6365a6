//! # chameleon
//!
//! A simulated reimplementation of **Chameleon**, the lightweight
//! user-space memory-characterization tool from *TPP: Transparent Page
//! Placement for CXL-Enabled Tiered Memory* (ASPLOS 2023, §3).
//!
//! Chameleon consists of a [`Collector`] that samples memory-access
//! "hardware events" (here: the simulator's access stream, which a run
//! feeds to [`Chameleon::observe`] after each access resolves) at a
//! configurable 1-in-N rate with core-group duty cycling, and a
//! [`Worker`] that folds each interval's samples into 64-bit per-page
//! activeness bitmaps. From those histories the crate computes the
//! paper's characterization artefacts: hotness per interval window
//! (Figure 7), per-type hotness (Figure 8), usage over time (Figure 9),
//! and re-access-interval CDFs (Figure 11).
//!
//! ## Example
//!
//! ```
//! use chameleon::{Chameleon, ChameleonConfig};
//! use tiered_mem::{PageType, Pid, Vpn};
//! use tiered_sim::{Access, AccessKind};
//!
//! let mut profiler = Chameleon::new(ChameleonConfig::default());
//! let access = Access {
//!     pid: Pid(1),
//!     vpn: Vpn(42),
//!     kind: AccessKind::Load,
//!     page_type: PageType::Anon,
//! };
//! profiler.observe(0, &access);
//! assert!(profiler.collector().events_seen() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod collector;
mod profiler;
mod report;
mod worker;

pub use collector::{Collector, CollectorConfig, PageSamples};
pub use profiler::{Chameleon, ChameleonConfig};
pub use report::{reaccess_cdf, Heatmap, Temperature, TextReport, TraceSection, UsageSeries};
pub use worker::{PageHistory, Worker};
