//! Range descriptors and the routing table.
//!
//! The keyspace is divided into contiguous Ranges, each replicated by its
//! own Raft group (§3.1). A [`RangeDescriptor`] records the span, the
//! replica set (with voting/non-voting type), the current leaseholder, and
//! the zone configuration. The [`RangeRegistry`] is the routing table
//! mapping keys to ranges; in this single-process simulation every gateway
//! shares one authoritative registry (range caches never go stale).

use std::collections::BTreeMap;

use mr_proto::{Key, RangeId, Span};
use mr_sim::{NodeId, SimTime, Topology};

use crate::allocator::Placement;
use crate::zone::ZoneConfig;

/// Metadata for one Range.
#[derive(Clone, Debug)]
pub struct RangeDescriptor {
    pub id: RangeId,
    pub span: Span,
    pub replicas: Vec<Placement>,
    pub leaseholder: NodeId,
    pub zone_config: ZoneConfig,
}

impl RangeDescriptor {
    pub fn voters(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas.iter().filter(|p| p.voting).map(|p| p.node)
    }

    pub fn non_voters(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas.iter().filter(|p| !p.voting).map(|p| p.node)
    }

    pub fn replica_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas.iter().map(|p| p.node)
    }

    pub fn has_replica_on(&self, node: NodeId) -> bool {
        self.replicas.iter().any(|p| p.node == node)
    }

    /// The replica nearest to `from` by nominal RTT (used for follower
    /// reads). Dead nodes are skipped.
    pub fn nearest_replica(&self, topo: &Topology, from: NodeId) -> Option<NodeId> {
        self.replicas
            .iter()
            .map(|p| p.node)
            .filter(|&n| topo.is_node_alive(n))
            .min_by_key(|&n| (topo.nominal_rtt(from, n), n.0))
    }
}

/// How a range came to exist and what the lifecycle machinery has done to
/// it since — the provenance behind `crdb_internal.ranges`' split/merge
/// lineage and rebalance columns. Lineage entries outlive merged-away
/// ranges (their `merged_into` points at the survivor) so ancestry chains
/// stay walkable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeLineage {
    /// `"boot"` for ranges created by the admin plane, `"split"` for a
    /// right-hand half carved out of `parent`. Only a `"split"` range is
    /// ever merged away (`Cluster::mergeable`).
    pub origin: &'static str,
    /// The LHS this range was split off from, if `origin == "split"`.
    pub parent: Option<RangeId>,
    /// Display form of the split key that created this range.
    pub split_key: Option<String>,
    /// When this range came to exist.
    pub at: SimTime,
    /// The survivor this range was absorbed into, once merged away.
    pub merged_into: Option<RangeId>,
    /// Lifecycle counters, accumulated while the range is live.
    pub splits: u64,
    pub merges_absorbed: u64,
    pub lease_rebalances: u64,
    pub replica_rebalances: u64,
}

impl RangeLineage {
    /// Lineage of an admin-created range.
    pub fn boot(at: SimTime) -> RangeLineage {
        RangeLineage {
            origin: "boot",
            parent: None,
            split_key: None,
            at,
            merged_into: None,
            splits: 0,
            merges_absorbed: 0,
            lease_rebalances: 0,
            replica_rebalances: 0,
        }
    }

    /// Lineage of a right-hand half carved out of `parent` at `split_key`.
    pub fn split_child(parent: RangeId, split_key: String, at: SimTime) -> RangeLineage {
        RangeLineage {
            origin: "split",
            parent: Some(parent),
            split_key: Some(split_key),
            at,
            merged_into: None,
            splits: 0,
            merges_absorbed: 0,
            lease_rebalances: 0,
            replica_rebalances: 0,
        }
    }
}

/// Everything the cluster tracks about one range id outside its descriptor
/// and replicas. One record per id ever seen; retiring a range (merge,
/// drop) resets [`RangeMeta::live`] in one assignment while `gen` and
/// `lineage` persist as history.
#[derive(Debug, Default)]
pub(crate) struct RangeMeta {
    /// Reconfiguration generation: bumped whenever the id's Raft group is
    /// (re)installed or retired, so traffic of an older incarnation is
    /// recognised as stale.
    pub gen: u32,
    /// Lifecycle lineage (boot/split/merge origin, rebalance counters) —
    /// the `crdb_internal.ranges` lineage columns. `None` only for ids the
    /// admin plane never created.
    pub lineage: Option<RangeLineage>,
    pub live: LiveRangeMeta,
}

/// Bookkeeping that is only meaningful while the range exists.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct LiveRangeMeta {
    /// Highest applied `ClaimLease` log index (all replicas of a range
    /// apply the same claim entry; only the first application moves the
    /// lease). Reset when the Raft group is reinstalled, because the fresh
    /// group restarts log indices.
    pub lease_claim: u64,
    /// The recorded leaseholder crashed while holding the lease. An
    /// orphaned lease may be usurped by the next Raft leader even after the
    /// old holder restarts: the registry still names the old node, but a
    /// revived whole-region group can elect a *different* leader, and
    /// without this mark the alive-and-reachable guard in
    /// `maybe_claim_lease` would leave the lease pointing at a Raft
    /// follower forever (every proposal stalls, the range never recovers).
    pub lease_orphaned: bool,
    /// Last lifecycle action (proposal or application) touching the range;
    /// drives the split/merge cooldown hysteresis.
    pub last_lifecycle: Option<SimTime>,
    /// When the *load-based* rebalancer last moved the lease, possibly
    /// outside the configured preference. The replication report grants a
    /// grace window (one cooldown) before flagging `WrongLeaseholder` — the
    /// next rebalance tick either keeps the move (still hot) or re-homes
    /// the lease.
    pub lease_rebalanced: Option<SimTime>,
    /// Proposal time of an in-flight split of this (parent) range.
    pub split_pending: Option<SimTime>,
}

/// The authoritative key → range mapping.
#[derive(Default)]
pub struct RangeRegistry {
    /// Ranges ordered by start key.
    by_start: BTreeMap<Key, RangeId>,
    ranges: BTreeMap<RangeId, RangeDescriptor>,
    next_id: u64,
}

impl RangeRegistry {
    pub fn new() -> RangeRegistry {
        RangeRegistry {
            by_start: BTreeMap::new(),
            ranges: BTreeMap::new(),
            next_id: 1,
        }
    }

    pub fn next_range_id(&mut self) -> RangeId {
        let id = RangeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Register a descriptor. Panics if its span overlaps an existing range
    /// (ranges partition the keyspace).
    pub fn insert(&mut self, desc: RangeDescriptor) {
        if let Some(other) = self.lookup_span(&desc.span).next() {
            panic!("range {:?} overlaps {:?}", desc.span, other.span);
        }
        self.by_start.insert(desc.span.start.clone(), desc.id);
        self.ranges.insert(desc.id, desc);
    }

    pub fn remove(&mut self, id: RangeId) -> Option<RangeDescriptor> {
        let desc = self.ranges.remove(&id)?;
        self.by_start.remove(&desc.span.start);
        Some(desc)
    }

    pub fn get(&self, id: RangeId) -> Option<&RangeDescriptor> {
        self.ranges.get(&id)
    }

    pub fn get_mut(&mut self, id: RangeId) -> Option<&mut RangeDescriptor> {
        self.ranges.get_mut(&id)
    }

    /// The range containing `key`.
    pub fn lookup(&self, key: &Key) -> Option<&RangeDescriptor> {
        let (_, id) = self.by_start.range(..=key.clone()).next_back()?;
        let desc = &self.ranges[id];
        desc.span.contains(key).then_some(desc)
    }

    /// The ranges overlapping `span`, in key order: a walk of `by_start`
    /// from the range holding `span.start` (it may begin before the span) to
    /// the first range starting at or past `span.end`.
    pub fn lookup_span<'a>(
        &'a self,
        span: &'a Span,
    ) -> impl Iterator<Item = &'a RangeDescriptor> + 'a {
        let before = self.by_start.range(..=&span.start).next_back();
        let from = before.map_or(&span.start, |(start, _)| start);
        self.by_start
            .range(from..)
            .map(|(_, id)| &self.ranges[id])
            .take_while(|d| span.end.is_empty() || d.span.start < span.end)
            .filter(|d| d.span.overlaps(span))
    }

    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &RangeDescriptor> {
        self.ranges.values()
    }

    pub fn ids(&self) -> Vec<RangeId> {
        self.ranges.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneConfig;
    use mr_sim::RegionId;

    fn desc(id: u64, start: &str, end: &str, lh: u32) -> RangeDescriptor {
        RangeDescriptor {
            id: RangeId(id),
            span: Span::new(Key::from(start), Key::from(end)),
            replicas: vec![
                Placement {
                    node: NodeId(lh),
                    voting: true,
                },
                Placement {
                    node: NodeId(lh + 1),
                    voting: true,
                },
                Placement {
                    node: NodeId(lh + 3),
                    voting: false,
                },
            ],
            leaseholder: NodeId(lh),
            zone_config: ZoneConfig::single_region(RegionId(0)),
        }
    }

    #[test]
    fn lookup_routes_to_covering_range() {
        let mut reg = RangeRegistry::new();
        reg.insert(desc(1, "a", "m", 0));
        reg.insert(desc(2, "m", "z", 1));
        assert_eq!(reg.lookup(&Key::from("b")).unwrap().id, RangeId(1));
        assert_eq!(reg.lookup(&Key::from("m")).unwrap().id, RangeId(2));
        assert_eq!(reg.lookup(&Key::from("lzzz")).unwrap().id, RangeId(1));
        assert!(reg.lookup(&Key::from("zz")).is_none());
        assert!(reg.lookup(&Key::from("A")).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_ranges_rejected() {
        let mut reg = RangeRegistry::new();
        reg.insert(desc(1, "a", "m", 0));
        reg.insert(desc(2, "l", "z", 1));
    }

    /// Ids are handed out against key order, so an id-ordered answer would
    /// show; `c`..`f` is a hole no range covers.
    #[test]
    fn lookup_span_finds_all_overlaps() {
        let mut reg = RangeRegistry::new();
        reg.insert(desc(4, "a", "c", 0));
        reg.insert(desc(3, "f", "m", 0));
        reg.insert(desc(2, "m", "s", 1));
        reg.insert(desc(1, "s", "z", 1));
        let hit = |start: &str, end: &str| -> Vec<u64> {
            let span = Span::new(Key::from(start), Key::from(end));
            reg.lookup_span(&span).map(|d| d.id.0).collect()
        };
        assert_eq!(hit("f", "z"), [3, 2, 1]);
        // The first range starts before the span; the last one ends after it.
        assert_eq!(hit("k", "n"), [3, 2]);
        assert_eq!(hit("n", "o"), [2]);
        // A span's end is exclusive, and so is a range's.
        assert_eq!(hit("g", "m"), [3]);
        assert_eq!(hit("c", "f"), [] as [u64; 0]);
        assert_eq!(hit("b", "g"), [4, 3]);
        assert_eq!(hit("A", "b"), [4]);
        assert_eq!(hit("z", "zz"), [] as [u64; 0]);
        let all = Span::all();
        let ids: Vec<u64> = reg.lookup_span(&all).map(|d| d.id.0).collect();
        assert_eq!(ids, [4, 3, 2, 1]);
    }

    #[test]
    fn remove_unroutes() {
        let mut reg = RangeRegistry::new();
        reg.insert(desc(1, "a", "m", 0));
        assert!(reg.remove(RangeId(1)).is_some());
        assert!(reg.lookup(&Key::from("b")).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut reg = RangeRegistry::new();
        let a = reg.next_range_id();
        let b = reg.next_range_id();
        assert!(b.0 > a.0);
    }

    #[test]
    fn descriptor_replica_views() {
        let d = desc(1, "a", "b", 0);
        assert_eq!(d.voters().count(), 2);
        assert_eq!(d.non_voters().count(), 1);
        assert!(d.has_replica_on(NodeId(3)));
        assert!(!d.has_replica_on(NodeId(9)));
    }
}
