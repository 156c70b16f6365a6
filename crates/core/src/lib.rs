//! # tpp
//!
//! A full reimplementation-in-simulation of **TPP: Transparent Page
//! Placement for CXL-Enabled Tiered Memory** (ASPLOS 2023): the TPP
//! policy itself, the three comparison policies the paper evaluates
//! against (default Linux, NUMA balancing, AutoTiering), the system
//! runner that drives calibrated synthetic workloads over simulated
//! tiered-memory machines, and the experiment harness behind every
//! figure and table in the paper's evaluation.
//!
//! ## Layers
//!
//! * [`policy`] — placement policies over the [`tiered_mem`] substrate.
//! * [`System`] — one machine + one policy + one workload, or several
//!   co-located ones ([`System::colocated`]), run under deterministic
//!   nanosecond clocks through one run loop and one access path.
//! * [`configs`] — the paper's machine setups (all-local, 2:1, 1:4).
//! * [`experiment`] — (workload × machine × policy) cells reduced to the
//!   figures' quantities.
//!
//! ## Quick start
//!
//! ```
//! use tiered_sim::SEC;
//! use tpp::{configs, experiment::{run_cell, PolicyChoice}};
//!
//! let profile = tiered_workloads::cache1(4_000);
//! let machine = configs::two_to_one(4_000);
//! let result = run_cell(&profile, machine, &PolicyChoice::Tpp, 2 * SEC, 42)?;
//! assert!(result.throughput > 0.0);
//! # Ok::<(), tpp::policy::UnsupportedConfig>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod configs;
pub mod experiment;
pub mod metrics;
pub mod policy;
mod system;

pub use metrics::RunMetrics;
pub use system::{MultiSystem, System};
