//! Workload generators and the closed-loop client driver.
//!
//! The paper evaluates with industry-standard benchmarks modified for
//! multi-region deployment (§7): YCSB A/B/D with a *locality of access*
//! knob, TPC-C with a GLOBAL `item` table and warehouse-partitioned
//! REGIONAL BY ROW tables, and the movr example application. All three are
//! implemented here from scratch against the SQL layer, plus:
//!
//! * [`zipf`] — the standard YCSB Zipf(0.99) key sampler;
//! * [`driver`] — a closed-loop driver: each simulated client keeps one
//!   operation in flight (optionally with think time), re-runs one that
//!   failed with a retryable error, and latencies are recorded per
//!   operation label;
//! * [`bulk`] — dataset preloading that bypasses the transaction protocol
//!   (the paper's "initial import").

pub mod bulk;
pub mod driver;
pub mod movr;
pub mod tpcc;
pub mod ycsb;
pub mod zipf;

pub use driver::{ClosedLoop, DriverStats, Op};
pub use zipf::Zipf;
