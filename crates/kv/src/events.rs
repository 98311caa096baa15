//! Bounded cluster event log.
//!
//! Structured admin-plane events — range creation, zone-config changes,
//! lease transfers (cooperative and failover), row rehoming — recorded in
//! simulation order with a sequence number and sim-time. The log backs the
//! `crdb_internal.cluster_events` virtual table and feeds the online
//! invariant monitors; its JSON export is deterministic for a fixed seed
//! (integers and fixed strings only, append order).
//!
//! Retention is a [`Ring`]: once `cap` events are held, each new record evicts
//! the oldest and bumps a `dropped` counter. Sequence numbers stay globally
//! monotone across evictions, so a reader can always tell truncated history
//! (first retained `seq` > `dropped` gap) from empty history.

use std::cell::RefCell;
use std::rc::Rc;

use mr_obs::Ring;
use mr_proto::RangeId;
use mr_sim::{NodeId, SimTime};

/// What happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A range was created and its replicas placed.
    RangeCreated { range: RangeId, leaseholder: NodeId },
    /// A range was removed (table drop or partition-layout rewrite).
    RangeDropped { range: RangeId },
    /// A range was re-placed under a new zone config (`SET LOCALITY`,
    /// survivability or placement changes).
    ZoneConfigChanged { range: RangeId, leaseholder: NodeId },
    /// The lease moved. `cooperative` distinguishes planned transfers from
    /// failover usurpation of a dead leaseholder.
    LeaseTransfer {
        range: RangeId,
        from: NodeId,
        to: NodeId,
        cooperative: bool,
    },
    /// A REGIONAL BY ROW row moved between region partitions (automatic
    /// rehoming, §2.3.2). Recorded by the SQL layer.
    RowRehomed {
        from_region: String,
        to_region: String,
    },
    /// A fault was injected through the fault-injection API (nemesis
    /// schedules, chaos tests). `step` is the 0-based index within the
    /// injecting `FaultSchedule`, when one drove the injection.
    FaultInjected {
        range: Option<RangeId>,
        step: Option<u32>,
        detail: String,
    },
    /// A range split: `range` (the LHS, which keeps its id) shed everything
    /// at or above `split_key` into the new range `rhs`.
    RangeSplit {
        range: RangeId,
        rhs: RangeId,
        split_key: String,
    },
    /// Two adjacent ranges merged: `rhs` was absorbed into `range`.
    RangeMerge { range: RangeId, rhs: RangeId },
    /// The load-based rebalancer moved the lease toward demand (outside the
    /// configured preference is allowed, transiently).
    LeaseRebalance {
        range: RangeId,
        from: NodeId,
        to: NodeId,
    },
    /// The load-based rebalancer moved a non-voting replica toward demand.
    ReplicaRebalance {
        range: RangeId,
        from: NodeId,
        to: NodeId,
    },
    /// A replica recovered from its write-ahead log after a volatile
    /// crash: `replayed` durable records rebuilt the memtable, resuming at
    /// Raft `applied_index`. `error` is set when the log itself was
    /// unusable and the memtable restarted empty.
    WalRecovered {
        range: RangeId,
        node: NodeId,
        replayed: u64,
        applied_index: u64,
        error: Option<mr_storage::RecoveryError>,
    },
}

impl EventKind {
    /// Stable kind label used by exports and the virtual table.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RangeCreated { .. } => "range_created",
            EventKind::RangeDropped { .. } => "range_dropped",
            EventKind::ZoneConfigChanged { .. } => "zone_config_changed",
            EventKind::LeaseTransfer { .. } => "lease_transfer",
            EventKind::RowRehomed { .. } => "row_rehomed",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::RangeSplit { .. } => "range_split",
            EventKind::RangeMerge { .. } => "range_merge",
            EventKind::LeaseRebalance { .. } => "lease_rebalance",
            EventKind::ReplicaRebalance { .. } => "replica_rebalance",
            EventKind::WalRecovered { .. } => "wal_recovered",
        }
    }

    /// The range the event concerns, if any.
    pub fn range(&self) -> Option<RangeId> {
        match self {
            EventKind::RangeCreated { range, .. }
            | EventKind::RangeDropped { range }
            | EventKind::ZoneConfigChanged { range, .. }
            | EventKind::LeaseTransfer { range, .. }
            | EventKind::RangeSplit { range, .. }
            | EventKind::RangeMerge { range, .. }
            | EventKind::LeaseRebalance { range, .. }
            | EventKind::ReplicaRebalance { range, .. }
            | EventKind::WalRecovered { range, .. } => Some(*range),
            EventKind::RowRehomed { .. } => None,
            EventKind::FaultInjected { range, .. } => *range,
        }
    }

    /// Human-readable detail string (deterministic: ids and fixed text).
    pub fn detail(&self) -> String {
        match self {
            EventKind::RangeCreated { leaseholder, .. } => {
                format!("leaseholder n{}", leaseholder.0)
            }
            EventKind::RangeDropped { .. } => String::new(),
            EventKind::ZoneConfigChanged { leaseholder, .. } => {
                format!("leaseholder n{}", leaseholder.0)
            }
            EventKind::LeaseTransfer {
                from,
                to,
                cooperative,
                ..
            } => format!(
                "n{} -> n{} ({})",
                from.0,
                to.0,
                if *cooperative {
                    "cooperative"
                } else {
                    "failover"
                }
            ),
            EventKind::RowRehomed {
                from_region,
                to_region,
            } => format!("{from_region} -> {to_region}"),
            EventKind::FaultInjected { step, detail, .. } => match step {
                Some(s) => format!("step {s}: {detail}"),
                None => detail.clone(),
            },
            EventKind::RangeSplit { rhs, split_key, .. } => {
                format!("at {split_key} -> rng{}", rhs.0)
            }
            EventKind::RangeMerge { rhs, .. } => format!("absorbed rng{}", rhs.0),
            EventKind::LeaseRebalance { from, to, .. } => {
                format!("n{} -> n{} (load)", from.0, to.0)
            }
            EventKind::ReplicaRebalance { from, to, .. } => {
                format!("n{} -> n{} (load)", from.0, to.0)
            }
            EventKind::WalRecovered {
                node,
                replayed,
                applied_index,
                error,
                ..
            } => {
                let failed = error.map_or(String::new(), |e| format!(" ({e:?})"));
                format!(
                    "n{} replayed {replayed} wal records to applied index {applied_index}{failed}",
                    node.0
                )
            }
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct ClusterEvent {
    pub seq: u64,
    pub at: SimTime,
    pub kind: EventKind,
}

/// Default event retention. Admin-plane events are low-rate (range
/// lifecycle, lease movement), so this covers long runs; sustained chaos
/// schedules roll over with `dropped` accounting.
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// The bounded log. Cloning shares the underlying store (the SQL layer
/// holds a handle alongside the cluster).
#[derive(Clone)]
pub struct EventLog {
    inner: Rc<RefCell<Ring<ClusterEvent>>>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_EVENT_CAP)
    }
}

impl EventLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// A log retaining at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventLog {
            inner: Rc::new(RefCell::new(Ring::new(cap))),
        }
    }

    /// Append one event; returns its sequence number (1-based, monotone
    /// across evictions).
    pub fn record(&self, at: SimTime, kind: EventKind) -> u64 {
        let mut events = self.inner.borrow_mut();
        let seq = events.pushed() + 1;
        events.push(ClusterEvent { seq, at, kind });
        seq
    }

    /// Retained events (excludes evicted ones).
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the retention cap so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped()
    }

    /// Copy of the retained log in append order.
    pub fn events(&self) -> Vec<ClusterEvent> {
        self.inner.borrow().iter().cloned().collect()
    }

    /// Count of retained events with the given kind label.
    pub fn count_kind(&self, label: &str) -> usize {
        self.inner
            .borrow()
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    }

    /// Deterministic JSON export: one object per event, append order.
    pub fn export_json(&self) -> String {
        let mut w = mr_obs::export::JsonWriter::default();
        w.arr();
        for e in self.inner.borrow().iter() {
            w.obj_inline().field("seq", e.seq).field("time_ns", e.at.0);
            w.field("kind", e.kind.label());
            w.field("range", e.kind.range().map(|r| r.0));
            w.field("detail", e.kind.detail()).end();
        }
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_appends_in_order_and_exports() {
        let log = EventLog::new();
        let s1 = log.record(
            SimTime(10),
            EventKind::RangeCreated {
                range: RangeId(1),
                leaseholder: NodeId(0),
            },
        );
        let s2 = log.record(
            SimTime(20),
            EventKind::LeaseTransfer {
                range: RangeId(1),
                from: NodeId(0),
                to: NodeId(3),
                cooperative: true,
            },
        );
        let s3 = log.record(
            SimTime(30),
            EventKind::RowRehomed {
                from_region: "us-east1".into(),
                to_region: "europe-west2".into(),
            },
        );
        assert_eq!((s1, s2, s3), (1, 2, 3));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count_kind("lease_transfer"), 1);
        let evs = log.events();
        assert_eq!(evs[1].kind.range(), Some(RangeId(1)));
        assert_eq!(evs[1].kind.detail(), "n0 -> n3 (cooperative)");
        assert_eq!(evs[2].kind.range(), None);
        let json = log.export_json();
        assert!(json.contains("\"kind\": \"range_created\""));
        assert!(json.contains("\"range\": null"));
        // Deterministic: same content renders the same bytes.
        assert_eq!(json, log.export_json());
    }

    #[test]
    fn retention_cap_evicts_oldest_keeping_monotone_seqs() {
        let log = EventLog::with_capacity(2);
        for i in 0..5 {
            let seq = log.record(SimTime(i), EventKind::RangeDropped { range: RangeId(i) });
            assert_eq!(seq, i + 1);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let evs = log.events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
        // The next record continues the global sequence.
        assert_eq!(
            log.record(SimTime(9), EventKind::RangeDropped { range: RangeId(9) }),
            6
        );
    }
}
