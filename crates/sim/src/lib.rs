//! # tiered-sim
//!
//! Deterministic simulation engine for tiered-memory experiments:
//! nanosecond time units and periodic timers, the operation-cost latency
//! model, workload and access types, seeded randomness, and statistics
//! collection.
//!
//! This crate sits between the mechanical substrate
//! ([`tiered_mem`]) and the policy/runner layer (`tpp`): it defines *how
//! time and cost are accounted* and *what a workload looks like*
//! ([`Workload`], [`Op`], [`Access`]) without prescribing any placement
//! behaviour.
//!
//! ## Example
//!
//! ```
//! use tiered_sim::{LatencyModel, Periodic, SimRng, MS};
//!
//! let mut kswapd = Periodic::new(50 * MS);
//! let model = LatencyModel::datacenter();
//! let mut rng = SimRng::seed(1);
//!
//! assert_eq!(kswapd.fire(120 * MS), 2); // two missed wakeups
//! assert!(model.migrate_budget_pages(MS) > 100);
//! assert!(rng.chance(1.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod latency;
mod rng;
mod stats;
mod trace;

pub use clock::{Periodic, MINUTE, MS, SEC, US};
pub use latency::{access_latency_ns, LatencyModel};
pub use rng::SimRng;
pub use stats::{fraction, percentile, rate_per_sec, LogHistogram, TimeSeries};
pub use trace::{Access, AccessKind, Op, Workload, WorkloadEvent};
