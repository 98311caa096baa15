//! Replication conformance reports.
//!
//! Built from live cluster state, the report classifies every range against
//! its own derived [`ZoneConfig`](crate::zone::ZoneConfig): is the range
//! fully replicated, do per-region (voter) constraints hold, and does the
//! leaseholder sit in a preferred region? This mirrors CockroachDB's
//! replication reports, which back the paper's claim that the high-level
//! multi-region abstractions (§3.3) always translate into conforming
//! placements. The JSON export is deterministic for a fixed seed (ranges
//! sorted by id, integers and fixed strings only) and the report is
//! queryable through `crdb_internal.replication_report`.

use std::collections::BTreeMap;

use mr_proto::RangeId;
use mr_sim::{SimTime, Topology};

use crate::range::{RangeDescriptor, RangeRegistry};

/// Conformance classification of one range, in decreasing severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RangeStatus {
    /// Fewer live voters than `num_voters`, or fewer live replicas than
    /// `num_replicas`.
    UnderReplicated,
    /// Per-region replica or voter constraints are not met.
    ViolatingConstraints,
    /// The leaseholder is outside every preferred region.
    WrongLeaseholder,
    /// Placement matches the zone config.
    Conforming,
}

impl RangeStatus {
    pub fn label(&self) -> &'static str {
        match self {
            RangeStatus::UnderReplicated => "under-replicated",
            RangeStatus::ViolatingConstraints => "violating-constraints",
            RangeStatus::WrongLeaseholder => "wrong-leaseholder",
            RangeStatus::Conforming => "conforming",
        }
    }
}

/// The verdict for one range: every problem found (classified
/// individually), in a fixed order. An empty list means conforming.
#[derive(Clone, Debug)]
pub struct RangeConformance {
    pub range: RangeId,
    pub problems: Vec<(RangeStatus, String)>,
}

impl RangeConformance {
    /// The most severe status among the problems (`Conforming` if none).
    pub fn status(&self) -> RangeStatus {
        self.problems
            .iter()
            .map(|&(s, _)| s)
            .min()
            .unwrap_or(RangeStatus::Conforming)
    }

    /// Whether any problem of the given class was found.
    pub fn has(&self, status: RangeStatus) -> bool {
        self.problems.iter().any(|&(s, _)| s == status)
    }

    pub fn detail(&self) -> String {
        self.problems
            .iter()
            .map(|(_, p)| p.as_str())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// A point-in-time conformance report over every range in the registry.
#[derive(Clone, Debug)]
pub struct ReplicationReport {
    pub at: SimTime,
    /// One entry per range, sorted by range id.
    pub ranges: Vec<RangeConformance>,
}

impl ReplicationReport {
    /// Classify every registered range against its own zone config.
    pub fn build(at: SimTime, registry: &RangeRegistry, topo: &Topology) -> ReplicationReport {
        // The registry iterates in range-id order, so the report is sorted.
        let ranges = registry.iter().map(|d| classify(d, topo)).collect();
        ReplicationReport { at, ranges }
    }

    /// Like [`ReplicationReport::build`], but suppress `WrongLeaseholder`
    /// for ranges whose lease was deliberately moved by the load-based
    /// rebalancer within the last `grace` window (`rebalanced` gives the
    /// time of a range's last such move). A transient, intentional out-of-preference lease
    /// is not a conformance violation; once the grace window lapses without
    /// the rebalancer re-homing or re-affirming the lease, the report flags
    /// it again.
    pub fn build_with_grace(
        at: SimTime,
        registry: &RangeRegistry,
        topo: &Topology,
        rebalanced: impl Fn(RangeId) -> Option<SimTime>,
        grace: mr_sim::SimDuration,
    ) -> ReplicationReport {
        let mut report = ReplicationReport::build(at, registry, topo);
        for c in report.ranges.iter_mut() {
            if let Some(t) = rebalanced(c.range) {
                if at.0.saturating_sub(t.0) <= grace.nanos() {
                    c.problems
                        .retain(|&(s, _)| s != RangeStatus::WrongLeaseholder);
                }
            }
        }
        report
    }

    /// Number of ranges whose most severe status is `status`.
    pub fn count(&self, status: RangeStatus) -> usize {
        self.ranges.iter().filter(|c| c.status() == status).count()
    }

    /// Number of non-conforming ranges.
    pub fn violations(&self) -> usize {
        self.ranges.len() - self.count(RangeStatus::Conforming)
    }

    /// Deterministic JSON export: summary counts plus one object per range,
    /// sorted by range id.
    pub fn export_json(&self) -> String {
        let mut w = mr_obs::export::JsonWriter::default();
        w.obj().field("time_ns", self.at.0);
        w.field("num_ranges", self.ranges.len());
        w.field("violations", self.violations());
        for status in [
            RangeStatus::UnderReplicated,
            RangeStatus::ViolatingConstraints,
            RangeStatus::WrongLeaseholder,
            RangeStatus::Conforming,
        ] {
            w.field(status.label(), self.count(status));
        }
        w.key("ranges").arr();
        for c in &self.ranges {
            w.obj_inline().field("range", c.range.0);
            w.field("status", c.status().label());
            w.field("detail", c.detail()).end();
        }
        w.end().end();
        w.finish()
    }
}

/// Classify one range descriptor against its zone config.
pub fn classify(desc: &RangeDescriptor, topo: &Topology) -> RangeConformance {
    let zc = &desc.zone_config;
    let mut problems = Vec::new();

    // Replication factors, counting only replicas on live nodes.
    let live_voters = desc.voters().filter(|&n| topo.is_node_alive(n)).count();
    let live_total = desc
        .replica_nodes()
        .filter(|&n| topo.is_node_alive(n))
        .count();
    if live_voters < zc.num_voters {
        problems.push((
            RangeStatus::UnderReplicated,
            format!(
                "under-replicated: {live_voters}/{} live voters",
                zc.num_voters
            ),
        ));
    }
    if live_total < zc.num_replicas {
        problems.push((
            RangeStatus::UnderReplicated,
            format!(
                "under-replicated: {live_total}/{} live replicas",
                zc.num_replicas
            ),
        ));
    }

    // Per-region constraints (replicas of any kind, then voters).
    let mut per_region = BTreeMap::new();
    let mut voters_per_region = BTreeMap::new();
    for p in &desc.replicas {
        if !topo.is_node_alive(p.node) {
            continue;
        }
        let r = topo.region_of(p.node);
        *per_region.entry(r).or_insert(0usize) += 1;
        if p.voting {
            *voters_per_region.entry(r).or_insert(0usize) += 1;
        }
    }
    for &(region, want) in &zc.constraints {
        let have = per_region.get(&region).copied().unwrap_or(0);
        if have < want {
            problems.push((
                RangeStatus::ViolatingConstraints,
                format!(
                    "constraint violated: {have}/{want} replicas in {}",
                    topo.region_name(region)
                ),
            ));
        }
    }
    for &(region, want) in &zc.voter_constraints {
        let have = voters_per_region.get(&region).copied().unwrap_or(0);
        if have < want {
            problems.push((
                RangeStatus::ViolatingConstraints,
                format!(
                    "voter constraint violated: {have}/{want} voters in {}",
                    topo.region_name(region)
                ),
            ));
        }
    }

    // Lease preference: the leaseholder must sit in one of the preferred
    // regions (when any are declared).
    if !zc.lease_preferences.is_empty() {
        let lh_region = topo.region_of(desc.leaseholder);
        if !zc.lease_preferences.contains(&lh_region) {
            problems.push((
                RangeStatus::WrongLeaseholder,
                format!(
                    "leaseholder n{} in {} outside preferred region {}",
                    desc.leaseholder.0,
                    topo.region_name(lh_region),
                    topo.region_name(zc.lease_preferences[0])
                ),
            ));
        }
    }

    RangeConformance {
        range: desc.id,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Placement;
    use crate::zone::ZoneConfig;
    use mr_proto::{Key, Span};
    use mr_sim::{NodeId, RegionId, RttMatrix, SimDuration};

    fn topo() -> Topology {
        Topology::build(
            &["us", "eu", "ap"],
            3,
            RttMatrix::uniform(3, SimDuration::from_millis(60)),
        )
    }

    fn desc(nodes: &[(u32, bool)], leaseholder: u32, zc: ZoneConfig) -> RangeDescriptor {
        RangeDescriptor {
            id: RangeId(1),
            span: Span::new(Key::from("a"), Key::from("b")),
            replicas: nodes
                .iter()
                .map(|&(n, voting)| Placement {
                    node: NodeId(n),
                    voting,
                })
                .collect(),
            leaseholder: NodeId(leaseholder),
            zone_config: zc,
        }
    }

    #[test]
    fn conforming_single_region_range() {
        let t = topo();
        let d = desc(
            &[(0, true), (1, true), (2, true)],
            0,
            ZoneConfig::single_region(RegionId(0)),
        );
        let c = classify(&d, &t);
        assert_eq!(c.status(), RangeStatus::Conforming);
        assert!(c.problems.is_empty());
    }

    #[test]
    fn dead_voter_is_under_replicated() {
        let mut t = topo();
        t.fail_node(NodeId(1));
        let d = desc(
            &[(0, true), (1, true), (2, true)],
            0,
            ZoneConfig::single_region(RegionId(0)),
        );
        let c = classify(&d, &t);
        assert_eq!(c.status(), RangeStatus::UnderReplicated);
        assert!(c.detail().contains("2/3 live voters"));
    }

    #[test]
    fn misplaced_replica_violates_constraints() {
        let t = topo();
        // Config wants 3 voters in region 0, but one voter lives in region 1.
        let d = desc(
            &[(0, true), (1, true), (3, true)],
            0,
            ZoneConfig::single_region(RegionId(0)),
        );
        let c = classify(&d, &t);
        assert_eq!(c.status(), RangeStatus::ViolatingConstraints);
        assert!(c.detail().contains("2/3 replicas in us"), "{}", c.detail());
        assert!(c.detail().contains("2/3 voters in us"));
    }

    #[test]
    fn out_of_preference_leaseholder_flagged() {
        let t = topo();
        let mut zc = ZoneConfig::single_region(RegionId(0));
        zc.constraints = vec![];
        zc.voter_constraints = vec![];
        let d = desc(&[(3, true), (4, true), (5, true)], 3, zc);
        let c = classify(&d, &t);
        assert_eq!(c.status(), RangeStatus::WrongLeaseholder);
        assert!(c.detail().contains("n3 in eu outside preferred region us"));
    }

    #[test]
    fn grace_window_suppresses_wrong_leaseholder_only_transiently() {
        let t = topo();
        let mut reg = RangeRegistry::new();
        let mut zc = ZoneConfig::single_region(RegionId(0));
        zc.constraints = vec![];
        zc.voter_constraints = vec![];
        // Leaseholder in eu while us is preferred: WrongLeaseholder.
        let mut d = desc(&[(3, true), (4, true), (5, true)], 3, zc);
        d.id = reg.next_range_id();
        reg.insert(d);

        let mut rebalanced = std::collections::HashMap::new();
        rebalanced.insert(RangeId(1), SimTime(1_000));
        let grace = SimDuration::from_secs(10);

        // Within the grace window the deliberate move is not a violation.
        let fresh = ReplicationReport::build_with_grace(
            SimTime(1_000 + SimDuration::from_secs(5).nanos()),
            &reg,
            &t,
            |id| rebalanced.get(&id).copied(),
            grace,
        );
        assert_eq!(fresh.violations(), 0);
        assert_eq!(fresh.count(RangeStatus::Conforming), 1);

        // Past the window the same state is flagged again.
        let stale = ReplicationReport::build_with_grace(
            SimTime(1_000 + SimDuration::from_secs(11).nanos()),
            &reg,
            &t,
            |id| rebalanced.get(&id).copied(),
            grace,
        );
        assert_eq!(stale.count(RangeStatus::WrongLeaseholder), 1);

        // Ranges never rebalanced are unaffected.
        let other = ReplicationReport::build_with_grace(SimTime(2_000), &reg, &t, |_| None, grace);
        assert_eq!(other.count(RangeStatus::WrongLeaseholder), 1);
    }

    #[test]
    fn report_counts_and_json_are_deterministic() {
        let t = topo();
        let mut reg = RangeRegistry::new();
        let mut good = desc(
            &[(0, true), (1, true), (2, true)],
            0,
            ZoneConfig::single_region(RegionId(0)),
        );
        good.id = reg.next_range_id();
        reg.insert(good);
        let mut bad = desc(
            &[(3, true), (4, true), (5, true)],
            3,
            ZoneConfig::single_region(RegionId(0)),
        );
        bad.id = reg.next_range_id();
        bad.span = Span::new(Key::from("c"), Key::from("d"));
        reg.insert(bad);

        let report = ReplicationReport::build(SimTime(42), &reg, &t);
        assert_eq!(report.ranges.len(), 2);
        assert_eq!(report.count(RangeStatus::Conforming), 1);
        assert_eq!(report.count(RangeStatus::ViolatingConstraints), 1);
        assert_eq!(report.violations(), 1);
        let json = report.export_json();
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"status\": \"violating-constraints\""));
        assert_eq!(json, report.export_json());
    }
}
