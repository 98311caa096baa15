//! Deterministic discrete-event simulation substrate.
//!
//! The paper evaluates CockroachDB on GCP clusters spanning up to 26 real
//! regions. This crate is the substitute substrate: a single-threaded,
//! seeded, discrete-event simulator in which every node, link, and clock is
//! virtual. Protocol code built on top (raft, leases, closed timestamps,
//! transactions) runs unmodified logic; only transport and time are
//! simulated.
//!
//! Components:
//!
//! * [`time`] — virtual time ([`time::SimTime`], [`time::SimDuration`]).
//! * [`event`] — the event calendar ([`event::EventQueue`]): a priority
//!   queue over `(time, sequence)` delivering opaque payloads in
//!   deterministic order; a key can be reserved without an event behind
//!   it and scheduled later under the same place in that order.
//! * [`topology`] — regions, zones, nodes and the inter-region RTT matrix
//!   (seeded with the paper's Table 1), link jitter, and failure injection
//!   (node, zone, region, and pairwise partitions).
//! * [`rng`] — the simulation RNG (a thin wrapper over a seeded
//!   `SmallRng`) so all randomness flows from one seed.
//! * [`stats`] — latency recording: percentile summaries, CDFs, and
//!   throughput counters used by the experiment harnesses.

pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;

pub use event::{EventKey, EventQueue};
pub use rng::SimRng;
pub use stats::{Cdf, LatencyRecorder, Summary};
pub use time::{SimDuration, SimTime};
pub use topology::{Link, NetworkParams, NodeId, RegionId, RttMatrix, Topology, ZoneId};
