//! The fault-injection API: every way a nemesis can hurt the cluster.
//!
//! [`FaultKind`] is the closed vocabulary of injectable faults — node
//! crashes/restarts, zone and region crashes, pairwise region partitions,
//! full region isolation, clock skew, and the closed-timestamp regression
//! used by the invariant-monitor tests. [`Cluster::inject_fault`] is the one
//! way a fault is applied — right away, or as a first-class timed event on
//! the simulation calendar through [`Cluster::schedule_fault`] — and every
//! injection is recorded in the cluster event log as a `fault_injected`
//! event so `crdb_internal.cluster_events` and the offline history checker
//! can correlate anomalies with the exact fault (and schedule step) that
//! caused them.

use std::fmt;

use mr_proto::RangeId;
use mr_sim::{NodeId, RegionId, SimDuration, ZoneId};

use crate::cluster::Cluster;
use crate::events::EventKind;

/// One injectable fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop one node (its raft log and MVCC state survive restart).
    CrashNode(NodeId),
    /// Crash one node AND drop its volatile state: the memtable, unsynced
    /// WAL tail, lock table, and timestamp cache vanish. Each replica
    /// recovers solely from its durable WAL + SSTs, so a later
    /// `RestartNode` resumes from exactly what was fsynced.
    CrashNodeVolatile(NodeId),
    /// [`FaultKind::CrashNodeVolatile`] for every node in a region.
    CrashRegionVolatile(RegionId),
    /// Bring a crashed node back.
    RestartNode(NodeId),
    /// Crash every node in one availability zone.
    CrashZone(ZoneId),
    /// Restart every node in one availability zone.
    RestartZone(ZoneId),
    /// Crash every node in a region (the paper's full-region failure).
    CrashRegion(RegionId),
    /// Restart every node in a region.
    RestartRegion(RegionId),
    /// Sever the links between two regions (both directions).
    PartitionRegions(RegionId, RegionId),
    /// Heal one pairwise region partition.
    HealPartition(RegionId, RegionId),
    /// Cut a region off from every other region; intra-region links stay
    /// up, so local follower reads keep working.
    IsolateRegion(RegionId),
    /// Undo a region isolation.
    RejoinRegion(RegionId),
    /// Set one node's physical-clock skew (must stay within `max_offset`
    /// for the cluster to be within spec; the nemesis may exceed it to
    /// probe the monitors).
    SkewClock { node: NodeId, skew_nanos: i64 },
    /// Forcibly regress the closed-timestamp frontier of one replica. The
    /// `closed_ts_monotonic` monitor must flag this at the next scrape.
    RegressClosedTs {
        range: RangeId,
        node: NodeId,
        delta: SimDuration,
    },
    /// Heal every partition and isolation and restart every crashed node.
    /// Clock skews are left as-is (skew is not a network fault).
    HealAll,
    /// Force a range split at `key` (admin split; the nemesis racing the
    /// topology against transactions). A no-op when the key's range cannot
    /// split there (boundary key, range unknown, leaseholder unreachable) —
    /// random schedules must stay valid whatever the current tiling is.
    SplitAt(mr_proto::Key),
    /// Force the range containing `key` to merge with its right-hand
    /// neighbor. Same no-op semantics as `SplitAt` when preconditions
    /// (adjacency, same zone config, live leaseholders) don't hold.
    MergeAt(mr_proto::Key),
}

impl FaultKind {
    /// The range the fault concerns, if any.
    pub fn range(&self) -> Option<RangeId> {
        match self {
            FaultKind::RegressClosedTs { range, .. } => Some(*range),
            _ => None,
        }
    }

    /// Whether the fault disrupts the cluster (vs. healing it). Setting a
    /// clock skew of zero counts as a heal: it restores the node to spec.
    pub fn is_heal(&self) -> bool {
        matches!(
            self,
            FaultKind::RestartNode(_)
                | FaultKind::RestartZone(_)
                | FaultKind::RestartRegion(_)
                | FaultKind::HealPartition(..)
                | FaultKind::RejoinRegion(_)
                | FaultKind::SkewClock { skew_nanos: 0, .. }
                | FaultKind::HealAll
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::CrashNode(n) => write!(f, "crash {n}"),
            FaultKind::CrashNodeVolatile(n) => write!(f, "crash {n} (drop volatile)"),
            FaultKind::CrashRegionVolatile(r) => {
                write!(f, "crash region {r} (drop volatile)")
            }
            FaultKind::RestartNode(n) => write!(f, "restart {n}"),
            FaultKind::CrashZone(z) => write!(f, "crash zone {z}"),
            FaultKind::RestartZone(z) => write!(f, "restart zone {z}"),
            FaultKind::CrashRegion(r) => write!(f, "crash region {r}"),
            FaultKind::RestartRegion(r) => write!(f, "restart region {r}"),
            FaultKind::PartitionRegions(a, b) => write!(f, "partition {a} <-> {b}"),
            FaultKind::HealPartition(a, b) => write!(f, "heal partition {a} <-> {b}"),
            FaultKind::IsolateRegion(r) => write!(f, "isolate region {r}"),
            FaultKind::RejoinRegion(r) => write!(f, "rejoin region {r}"),
            FaultKind::SkewClock { node, skew_nanos } => {
                write!(f, "skew clock {node} by {skew_nanos}ns")
            }
            FaultKind::RegressClosedTs { range, node, delta } => {
                write!(f, "regress closed ts of {range} at {node} by {delta}")
            }
            FaultKind::HealAll => write!(f, "heal all"),
            FaultKind::SplitAt(key) => write!(f, "split at {key:?}"),
            FaultKind::MergeAt(key) => write!(f, "merge at {key:?}"),
        }
    }
}

impl Cluster {
    /// Apply `fault` right now and record it in the event log. `step` tags
    /// the event with the injecting schedule's step index, so checker
    /// violations can name the exact fault that preceded them.
    pub fn inject_fault(&mut self, fault: &FaultKind, step: Option<u32>) {
        match fault {
            FaultKind::CrashNode(n) | FaultKind::CrashNodeVolatile(n) => {
                self.topo_mut().fail_node(*n)
            }
            FaultKind::RestartNode(n) => self.topo_mut().revive_node(*n),
            FaultKind::CrashZone(z) => self.topo_mut().fail_zone(*z),
            FaultKind::RestartZone(z) => self.topo_mut().revive_zone(*z),
            FaultKind::CrashRegion(r) | FaultKind::CrashRegionVolatile(r) => {
                self.topo_mut().fail_region(*r)
            }
            FaultKind::RestartRegion(r) => self.topo_mut().revive_region(*r),
            FaultKind::PartitionRegions(a, b) => self.topo_mut().partition_regions(*a, *b),
            FaultKind::HealPartition(a, b) => self.topo_mut().heal_partition(*a, *b),
            FaultKind::IsolateRegion(r) => self.topo_mut().isolate_region(*r),
            FaultKind::RejoinRegion(r) => self.topo_mut().rejoin_region(*r),
            FaultKind::SkewClock { node, skew_nanos } => self.set_node_skew(*node, *skew_nanos),
            FaultKind::RegressClosedTs { range, node, delta } => {
                // Settled first, so the frontier that regresses is the one a
                // reader sees and the next read does not take it back.
                let rep = self
                    .settled(*node, *range)
                    .unwrap_or_else(|| panic!("no replica of {range} on {node}"));
                rep.tracker.fault_regress(delta.nanos());
            }
            FaultKind::HealAll => {
                let topo = self.topo_mut();
                topo.heal_all_partitions();
                for n in topo.node_ids().collect::<Vec<_>>() {
                    topo.revive_node(n);
                }
            }
            FaultKind::SplitAt(key) => {
                self.admin_split_at(key.clone());
            }
            FaultKind::MergeAt(key) => {
                self.admin_merge_at(key.clone());
            }
        }
        // The crash rule, once for every crash kind: a lease whose holder
        // just died is orphaned (see `mark_orphaned_leases`), then each node
        // of a volatile crash replays from durable state.
        let volatile = match fault {
            FaultKind::CrashNode(_) | FaultKind::CrashZone(_) | FaultKind::CrashRegion(_) => {
                Some(vec![])
            }
            FaultKind::CrashNodeVolatile(n) => Some(vec![*n]),
            FaultKind::CrashRegionVolatile(r) => Some(self.topology().all_nodes_in_region(*r)),
            _ => None,
        };
        if let Some(volatile) = volatile {
            self.mark_orphaned_leases();
            for n in volatile {
                self.recover_node_volatile(n);
            }
        }
        let now = self.now();
        self.events.record(
            now,
            EventKind::FaultInjected {
                range: fault.range(),
                step,
                detail: fault.to_string(),
            },
        );
    }

    /// Schedule `fault` to be injected after `delay`, as a first-class
    /// timed event on the simulation calendar.
    pub fn schedule_fault(&mut self, delay: SimDuration, fault: FaultKind, step: Option<u32>) {
        self.schedule(
            delay,
            Box::new(move |c| {
                c.inject_fault(&fault, step);
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::{RttMatrix, SimTime, Topology};

    fn cluster() -> Cluster {
        let topo = Topology::build(
            &RttMatrix::paper_table1_regions()[..3],
            3,
            RttMatrix::uniform(3, SimDuration::from_millis(60)),
        );
        Cluster::new(topo, crate::cluster::ClusterConfig::default())
    }

    #[test]
    fn inject_applies_and_logs() {
        let mut c = cluster();
        c.inject_fault(&FaultKind::CrashNode(NodeId(4)), Some(0));
        assert!(!c.topology().is_node_alive(NodeId(4)));
        c.inject_fault(&FaultKind::IsolateRegion(RegionId(2)), Some(1));
        assert!(!c.topology().reachable(NodeId(0), NodeId(6)));
        c.inject_fault(&FaultKind::HealAll, Some(2));
        assert!(c.topology().is_node_alive(NodeId(4)));
        assert!(c.topology().reachable(NodeId(0), NodeId(6)));
        assert_eq!(c.events.count_kind("fault_injected"), 3);
        let evs = c.events.events();
        assert_eq!(evs[0].kind.detail(), "step 0: crash n4");
        assert_eq!(evs[1].kind.detail(), "step 1: isolate region r2");
    }

    /// Every crash kind that takes down a range's leaseholder orphans its
    /// lease, and the mark outlives the matching restart: the revived group
    /// may elect another leader, and the lease must be free to follow it.
    #[test]
    fn every_crash_kind_orphans_the_leaseholders_lease() {
        use crate::zone::ZoneConfig;
        use mr_proto::Span;
        let kinds: [fn(&Cluster, NodeId) -> (FaultKind, FaultKind); 5] = [
            |_, n| (FaultKind::CrashNode(n), FaultKind::RestartNode(n)),
            |_, n| (FaultKind::CrashNodeVolatile(n), FaultKind::RestartNode(n)),
            |c, n| {
                let z = c.topology().zone_of(n);
                (FaultKind::CrashZone(z), FaultKind::RestartZone(z))
            },
            |c, n| {
                let r = c.topology().region_of(n);
                (FaultKind::CrashRegion(r), FaultKind::RestartRegion(r))
            },
            |c, n| {
                let r = c.topology().region_of(n);
                (
                    FaultKind::CrashRegionVolatile(r),
                    FaultKind::RestartRegion(r),
                )
            },
        ];
        for kind in kinds {
            let mut c = cluster();
            let range = c
                .create_range(Span::all(), ZoneConfig::single_region(RegionId(0)))
                .unwrap();
            let lh = c.registry().get(range).unwrap().leaseholder;
            let (crash, restart) = kind(&c, lh);
            assert!(!c.lease_orphaned(range), "{crash}");
            c.inject_fault(&crash, None);
            assert!(!c.topology().is_node_alive(lh), "{crash}");
            assert!(c.lease_orphaned(range), "{crash}");
            c.inject_fault(&restart, None);
            assert!(c.topology().is_node_alive(lh), "{restart}");
            assert!(c.lease_orphaned(range), "{restart}");
        }
    }

    #[test]
    fn scheduled_faults_fire_on_the_calendar() {
        let mut c = cluster();
        c.schedule_fault(
            SimDuration::from_secs(5),
            FaultKind::CrashNode(NodeId(1)),
            None,
        );
        c.schedule_fault(
            SimDuration::from_secs(10),
            FaultKind::RestartNode(NodeId(1)),
            None,
        );
        c.run_until(SimTime(SimDuration::from_secs(6).nanos()));
        assert!(!c.topology().is_node_alive(NodeId(1)));
        c.run_until(SimTime(SimDuration::from_secs(11).nanos()));
        assert!(c.topology().is_node_alive(NodeId(1)));
        assert_eq!(c.events.count_kind("fault_injected"), 2);
    }

    #[test]
    fn fault_display_is_deterministic() {
        let f = FaultKind::RegressClosedTs {
            range: RangeId(3),
            node: NodeId(2),
            delta: SimDuration::from_secs(2),
        };
        assert_eq!(
            f.to_string(),
            "regress closed ts of rng3 at n2 by 2000.000ms"
        );
        assert!(!f.is_heal());
        assert!(FaultKind::HealAll.is_heal());
        assert_eq!(f.range(), Some(RangeId(3)));
        let s = FaultKind::SplitAt(mr_proto::Key::from("rs/k1"));
        assert_eq!(s.to_string(), "split at /rs/k1");
        assert!(!s.is_heal());
        let m = FaultKind::MergeAt(mr_proto::Key::from("zs/k1"));
        assert_eq!(m.to_string(), "merge at /zs/k1");
        assert!(!m.is_heal());
    }
}
