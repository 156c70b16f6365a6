//! # tpp-bench
//!
//! The benchmark harness of the TPP reproduction: one function per table
//! and figure in the paper's evaluation, each returning its [`Table`],
//! shared by the `repro` binary and the integration tests; plus the
//! micro-benchmark harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod charfig;
pub mod evalfig;
pub mod executor;
pub mod microbench;
pub mod scale;
pub mod sweeps;
pub mod tolerance;

pub use scale::{Scale, Table};
