//! Host-time performance ledger. See `README.md` in this crate for the
//! workloads, the metric tables and how the passes fit together.

pub mod audit;
pub mod cli;
pub mod driver;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spans;
pub mod workloads;
