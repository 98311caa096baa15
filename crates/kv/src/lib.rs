//! The distributed KV layer: ranges, leases, placement, replication, and
//! transactions.
//!
//! This crate assembles the paper's machinery on top of the substrates:
//!
//! * [`zone`] — zone configurations and the §3.3 automatic derivation from
//!   (table locality, survivability goal, placement policy);
//! * [`fault`] — the fault-injection API: node/zone/region crashes,
//!   region partitions and isolation, clock skew, closed-timestamp
//!   regression — injectable immediately or as timed calendar events;
//! * [`allocator`] — constraint-satisfying, diversity-scored replica
//!   placement (§3.2);
//! * [`range`] — range descriptors and the key → range routing table;
//! * [`join`] — the count-down join every concurrent fan-out (coordinator
//!   and SQL executor) waits on;
//! * [`locks`] — per-leaseholder lock wait-queues;
//! * [`metrics`] — pre-bound [`mr_obs`] instrument handles shared by the
//!   event loop and the transaction coordinator;
//! * [`closedts`] — closed-timestamp targets, trackers and the side
//!   transport (§5.1.1, §6.2.1);
//! * [`replica`] — per-node replica state: MVCC store, Raft instance,
//!   timestamp cache, request evaluation at leaseholders and followers;
//! * [`events`] — the append-only cluster event log (range creation, lease
//!   transfers, zone-config changes, row rehoming) backing
//!   `crdb_internal.cluster_events`;
//! * [`report`] — replication conformance reports classifying every range
//!   against its derived zone config;
//! * [`cluster`] — the simulated cluster: event dispatch, RPC transport,
//!   Raft delivery, admin operations (range creation, lease transfer,
//!   failure handling);
//! * [`txn`] — the gateway transaction coordinator: serializable MVCC
//!   transactions with read refreshes, uncertainty restarts, follower
//!   reads, bounded-staleness negotiation, and the §6 *global transaction*
//!   protocol (future-time writes + commit wait).

pub mod allocator;
pub mod attribution;
pub mod closedts;
pub mod cluster;
pub mod events;
pub mod fault;
pub mod join;
pub mod locks;
pub mod metrics;
pub mod range;
pub mod replica;
pub mod report;
pub mod txn;
pub mod zone;

pub use allocator::{allocate, AllocError, AllocationOutcome, Placement, ReplicaRole};
pub use attribution::{AttrBreakdown, Component, TxnAttrLog, TxnAttrRecord, COMPONENTS};
pub use closedts::{ClosedTsParams, ClosedTsTracker};
pub use cluster::{
    Cluster, ClusterConfig, IngestError, InjectedBug, KvResult, ReadOptions, ReconfigureError,
    Staleness,
};
pub use events::{ClusterEvent, EventKind, EventLog};
pub use fault::FaultKind;
pub use metrics::KvMetrics;
pub use range::{RangeDescriptor, RangeRegistry};
pub use report::{RangeConformance, RangeStatus, ReplicationReport};
pub use txn::TxnHandle;
pub use zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal, ZoneConfig};
