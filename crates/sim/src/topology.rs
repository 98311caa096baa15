//! Cluster topology: regions, zones, nodes, and the network between them.
//!
//! Regions and zones mirror the paper's deployment model (§2.1): a region
//! contains one or more availability zones, each zone contains nodes. The
//! network model charges one-way delays of `RTT/2` between regions (from a
//! configurable matrix seeded with the paper's Table 1), a small intra-region
//! inter-zone delay, and a near-zero intra-zone delay, each with
//! multiplicative jitter. Failure injection marks nodes dead and links
//! partitioned; the message layer consults [`Topology::link`] before
//! delivering.

use std::collections::HashSet;
use std::fmt;

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Index of a region within the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// Index of a zone within the topology (global, not per-region).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u32);

/// Index of a node within the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Debug for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "z{}", self.0)
    }
}
impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A symmetric inter-region round-trip-time matrix.
#[derive(Clone)]
pub struct RttMatrix {
    n: usize,
    /// Flattened `n x n` RTTs; diagonal is zero.
    rtt: Vec<SimDuration>,
}

impl RttMatrix {
    /// Build from an upper-triangular list of millisecond RTTs, row-major:
    /// `pairs[i][j]` is the RTT between region `i` and region `i + 1 + j`.
    pub fn from_upper_millis(n: usize, pairs: &[&[u64]]) -> RttMatrix {
        assert_eq!(pairs.len(), n.saturating_sub(1), "need n-1 rows");
        let mut m = RttMatrix {
            n,
            rtt: vec![SimDuration::ZERO; n * n],
        };
        for (i, row) in pairs.iter().enumerate() {
            assert_eq!(row.len(), n - 1 - i, "row {i} length");
            for (k, &ms) in row.iter().enumerate() {
                let j = i + 1 + k;
                let d = SimDuration::from_millis(ms);
                m.rtt[i * n + j] = d;
                m.rtt[j * n + i] = d;
            }
        }
        m
    }

    /// Uniform RTT between all distinct region pairs.
    pub fn uniform(n: usize, rtt: SimDuration) -> RttMatrix {
        let mut m = RttMatrix {
            n,
            rtt: vec![rtt; n * n],
        };
        for i in 0..n {
            m.rtt[i * n + i] = SimDuration::ZERO;
        }
        m
    }

    /// The paper's Table 1: measured GCP inter-region RTTs in milliseconds.
    ///
    /// Order: us-east1, us-west1, europe-west2, asia-northeast1,
    /// australia-southeast1.
    pub fn paper_table1() -> RttMatrix {
        RttMatrix::from_upper_millis(
            5,
            &[
                &[63, 87, 155, 198], // us-east1 -> UW, EW, AN, AS
                &[132, 90, 156],     // us-west1 -> EW, AN, AS
                &[222, 274],         // europe-west2 -> AN, AS
                &[113],              // asia-northeast1 -> AS
            ],
        )
    }

    /// Region names matching [`RttMatrix::paper_table1`].
    pub fn paper_table1_regions() -> [&'static str; 5] {
        [
            "us-east1",
            "us-west1",
            "europe-west2",
            "asia-northeast1",
            "australia-southeast1",
        ]
    }

    /// A synthetic matrix for `n` regions: ring-of-continents style distances
    /// in `[60ms, 280ms]`, used by the 10- and 26-region scalability runs.
    pub fn synthetic(n: usize) -> RttMatrix {
        let mut m = RttMatrix {
            n,
            rtt: vec![SimDuration::ZERO; n * n],
        };
        for i in 0..n {
            for j in (i + 1)..n {
                // Deterministic pseudo-geographic distance: distance on a
                // ring plus a per-pair offset, mapped into [60, 280] ms.
                let ring = (j - i).min(n - (j - i)) as u64;
                let max_ring = (n / 2).max(1) as u64;
                let ms = 60 + ring * 220 / max_ring;
                let d = SimDuration::from_millis(ms);
                m.rtt[i * n + j] = d;
                m.rtt[j * n + i] = d;
            }
        }
        m
    }

    pub fn regions(&self) -> usize {
        self.n
    }

    pub fn rtt(&self, a: RegionId, b: RegionId) -> SimDuration {
        self.rtt[a.0 as usize * self.n + b.0 as usize]
    }
}

/// A node's physical placement.
#[derive(Clone, Debug)]
pub struct NodeLocality {
    pub region: RegionId,
    pub zone: ZoneId,
}

/// Parameters of the network model.
#[derive(Clone, Debug)]
pub struct NetworkParams {
    /// RTT between two nodes in the same zone.
    pub intra_zone_rtt: SimDuration,
    /// RTT between two nodes in different zones of the same region
    /// (the paper cites 2-5ms quorum RTTs for ZONE survivability).
    pub inter_zone_rtt: SimDuration,
    /// Multiplicative jitter amplitude: a one-way delay `d` becomes
    /// `d * (1 + U(0, jitter))`.
    pub jitter: f64,
    /// Fixed per-message processing overhead added to every delivery.
    pub processing: SimDuration,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            intra_zone_rtt: SimDuration::from_micros(500),
            inter_zone_rtt: SimDuration::from_millis(2),
            jitter: 0.10,
            processing: SimDuration::from_micros(50),
        }
    }
}

/// The outcome of asking the network for a link delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// Deliver after this one-way delay.
    Deliver(SimDuration),
    /// The destination is unreachable (dead node or partition); the message
    /// is dropped.
    Unreachable,
}

/// The cluster topology and network state.
pub struct Topology {
    region_names: Vec<String>,
    nodes: Vec<NodeLocality>,
    rtt: RttMatrix,
    params: NetworkParams,
    dead_nodes: HashSet<NodeId>,
    /// Unordered pairs of partitioned regions.
    partitions: HashSet<(RegionId, RegionId)>,
    /// Regions cut off from every other region (intra-region links stay up).
    isolated_regions: HashSet<RegionId>,
}

impl Topology {
    /// Build a topology with `nodes_per_region` nodes in each region, one
    /// zone per node (mirroring the paper's 3-node-3-zone regions).
    pub fn build(region_names: &[&str], nodes_per_region: usize, rtt: RttMatrix) -> Topology {
        assert_eq!(region_names.len(), rtt.regions());
        let mut t = Topology {
            region_names: region_names.iter().map(|s| s.to_string()).collect(),
            nodes: Vec::new(),
            rtt,
            params: NetworkParams::default(),
            dead_nodes: HashSet::new(),
            partitions: HashSet::new(),
            isolated_regions: HashSet::new(),
        };
        for ri in 0..region_names.len() {
            for _ in 0..nodes_per_region {
                let zone = ZoneId(t.nodes.len() as u32);
                t.nodes.push(NodeLocality {
                    region: RegionId(ri as u32),
                    zone,
                });
            }
        }
        t
    }

    pub fn set_params(&mut self, params: NetworkParams) {
        self.params = params;
    }

    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_regions(&self) -> usize {
        self.region_names.len()
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    pub fn locality(&self, n: NodeId) -> &NodeLocality {
        &self.nodes[n.0 as usize]
    }

    pub fn region_of(&self, n: NodeId) -> RegionId {
        self.nodes[n.0 as usize].region
    }

    pub fn zone_of(&self, n: NodeId) -> ZoneId {
        self.nodes[n.0 as usize].zone
    }

    pub fn region_name(&self, r: RegionId) -> &str {
        &self.region_names[r.0 as usize]
    }

    pub fn region_by_name(&self, name: &str) -> Option<RegionId> {
        self.region_names
            .iter()
            .position(|r| r == name)
            .map(|i| RegionId(i as u32))
    }

    pub fn nodes_in_region(&self, r: RegionId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.region_of(n) == r && !self.dead_nodes.contains(&n))
            .collect()
    }

    /// All nodes in `r`, including dead ones.
    pub fn all_nodes_in_region(&self, r: RegionId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.region_of(n) == r)
            .collect()
    }

    pub fn rtt_matrix(&self) -> &RttMatrix {
        &self.rtt
    }

    /// The nominal (jitter-free) RTT between two nodes.
    pub fn nominal_rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        let (la, lb) = (self.locality(a), self.locality(b));
        if la.region != lb.region {
            self.rtt.rtt(la.region, lb.region)
        } else if la.zone != lb.zone {
            self.params.inter_zone_rtt
        } else {
            self.params.intra_zone_rtt
        }
    }

    /// Whether a message from `a` can reach `b` at all: both endpoints
    /// alive, and no region partition or isolation severs the path. This is
    /// the jitter-free reachability predicate underlying [`Topology::link`];
    /// failover logic consults it to avoid handing leases to nodes it
    /// cannot talk to.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        if self.dead_nodes.contains(&a) || self.dead_nodes.contains(&b) {
            return false;
        }
        let (ra, rb) = (self.region_of(a), self.region_of(b));
        if ra == rb {
            return true;
        }
        if self.isolated_regions.contains(&ra) || self.isolated_regions.contains(&rb) {
            return false;
        }
        let pair = if ra <= rb { (ra, rb) } else { (rb, ra) };
        !self.partitions.contains(&pair)
    }

    /// One-way delivery decision for a message from `a` to `b`.
    pub fn link(&self, a: NodeId, b: NodeId, rng: &mut SimRng) -> Link {
        if !self.reachable(a, b) {
            return Link::Unreachable;
        }
        let one_way = SimDuration(self.nominal_rtt(a, b).nanos() / 2);
        let jittered = one_way.mul_f64(1.0 + rng.unit_f64() * self.params.jitter);
        Link::Deliver(jittered + self.params.processing)
    }

    // ---- Failure injection ----

    pub fn fail_node(&mut self, n: NodeId) {
        self.dead_nodes.insert(n);
    }

    pub fn revive_node(&mut self, n: NodeId) {
        self.dead_nodes.remove(&n);
    }

    pub fn fail_region(&mut self, r: RegionId) {
        for n in self.all_nodes_in_region(r) {
            self.dead_nodes.insert(n);
        }
    }

    pub fn revive_region(&mut self, r: RegionId) {
        for n in self.all_nodes_in_region(r) {
            self.dead_nodes.remove(&n);
        }
    }

    /// Fail every node in one zone of a region.
    pub fn fail_zone(&mut self, z: ZoneId) {
        let dead: Vec<NodeId> = self.node_ids().filter(|&n| self.zone_of(n) == z).collect();
        for n in dead {
            self.dead_nodes.insert(n);
        }
    }

    /// Revive every node in one zone.
    pub fn revive_zone(&mut self, z: ZoneId) {
        let alive: Vec<NodeId> = self.node_ids().filter(|&n| self.zone_of(n) == z).collect();
        for n in alive {
            self.dead_nodes.remove(&n);
        }
    }

    pub fn is_node_alive(&self, n: NodeId) -> bool {
        !self.dead_nodes.contains(&n)
    }

    pub fn partition_regions(&mut self, a: RegionId, b: RegionId) {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.partitions.insert(pair);
    }

    pub fn heal_partition(&mut self, a: RegionId, b: RegionId) {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.partitions.remove(&pair);
    }

    /// Cut `r` off from every other region in one step (a full-region
    /// network partition). Nodes inside `r` keep talking to each other.
    pub fn isolate_region(&mut self, r: RegionId) {
        self.isolated_regions.insert(r);
    }

    /// Undo [`Topology::isolate_region`].
    pub fn rejoin_region(&mut self, r: RegionId) {
        self.isolated_regions.remove(&r);
    }

    pub fn is_region_isolated(&self, r: RegionId) -> bool {
        self.isolated_regions.contains(&r)
    }

    /// Heal every pairwise partition and region isolation. Dead nodes stay
    /// dead (healing the network does not restart crashed machines).
    pub fn heal_all_partitions(&mut self) {
        self.partitions.clear();
        self.isolated_regions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::build(
            &RttMatrix::paper_table1_regions(),
            3,
            RttMatrix::paper_table1(),
        )
    }

    #[test]
    fn paper_table1_is_symmetric_and_matches() {
        let m = RttMatrix::paper_table1();
        let (ue, uw, ew, an, as_) = (
            RegionId(0),
            RegionId(1),
            RegionId(2),
            RegionId(3),
            RegionId(4),
        );
        assert_eq!(m.rtt(ue, uw), SimDuration::from_millis(63));
        assert_eq!(m.rtt(uw, ue), SimDuration::from_millis(63));
        assert_eq!(m.rtt(ue, ew), SimDuration::from_millis(87));
        assert_eq!(m.rtt(ew, an), SimDuration::from_millis(222));
        assert_eq!(m.rtt(an, as_), SimDuration::from_millis(113));
        assert_eq!(m.rtt(ue, ue), SimDuration::ZERO);
    }

    #[test]
    fn node_layout_three_per_region() {
        let t = topo();
        assert_eq!(t.num_nodes(), 15);
        assert_eq!(t.num_regions(), 5);
        assert_eq!(t.nodes_in_region(RegionId(0)).len(), 3);
        // Each node in its own zone.
        let zones: HashSet<_> = t.node_ids().map(|n| t.zone_of(n)).collect();
        assert_eq!(zones.len(), 15);
    }

    #[test]
    fn nominal_rtt_tiers() {
        let mut t = topo();
        t.set_params(NetworkParams {
            jitter: 0.0,
            processing: SimDuration::ZERO,
            ..NetworkParams::default()
        });
        let n0 = NodeId(0); // us-east1 zone a
        let n1 = NodeId(1); // us-east1 zone b
        let n3 = NodeId(3); // us-west1
        assert_eq!(t.nominal_rtt(n0, n0), SimDuration::ZERO);
        assert_eq!(t.nominal_rtt(n0, n1), SimDuration::from_millis(2));
        assert_eq!(t.nominal_rtt(n0, n3), SimDuration::from_millis(63));
        let mut rng = SimRng::seed_from_u64(0);
        match t.link(n0, n3, &mut rng) {
            Link::Deliver(d) => assert_eq!(d, SimDuration::from_millis(63).mul_f64(0.5)),
            _ => panic!("expected delivery"),
        }
    }

    #[test]
    fn jitter_bounds() {
        let t = topo();
        let mut rng = SimRng::seed_from_u64(3);
        let base = t.nominal_rtt(NodeId(0), NodeId(3)).nanos() / 2;
        for _ in 0..200 {
            match t.link(NodeId(0), NodeId(3), &mut rng) {
                Link::Deliver(d) => {
                    let d = d.nanos() - t.params().processing.nanos();
                    assert!(d >= base);
                    assert!(d <= (base as f64 * 1.101) as u64);
                }
                _ => panic!(),
            }
        }
    }

    #[test]
    fn failures_make_links_unreachable() {
        let mut t = topo();
        let mut rng = SimRng::seed_from_u64(0);
        t.fail_node(NodeId(3));
        assert!(matches!(
            t.link(NodeId(0), NodeId(3), &mut rng),
            Link::Unreachable
        ));
        assert!(matches!(
            t.link(NodeId(3), NodeId(0), &mut rng),
            Link::Unreachable
        ));
        t.revive_node(NodeId(3));
        assert!(matches!(
            t.link(NodeId(0), NodeId(3), &mut rng),
            Link::Deliver(_)
        ));

        t.fail_region(RegionId(1));
        assert_eq!(t.nodes_in_region(RegionId(1)).len(), 0);
        assert!(matches!(
            t.link(NodeId(0), NodeId(4), &mut rng),
            Link::Unreachable
        ));
        t.revive_region(RegionId(1));
        assert_eq!(t.nodes_in_region(RegionId(1)).len(), 3);
    }

    #[test]
    fn partitions_are_symmetric_and_healable() {
        let mut t = topo();
        let mut rng = SimRng::seed_from_u64(0);
        t.partition_regions(RegionId(1), RegionId(0));
        assert!(matches!(
            t.link(NodeId(0), NodeId(3), &mut rng),
            Link::Unreachable
        ));
        assert!(matches!(
            t.link(NodeId(3), NodeId(0), &mut rng),
            Link::Unreachable
        ));
        // Other links unaffected.
        assert!(matches!(
            t.link(NodeId(0), NodeId(6), &mut rng),
            Link::Deliver(_)
        ));
        t.heal_partition(RegionId(0), RegionId(1));
        assert!(matches!(
            t.link(NodeId(0), NodeId(3), &mut rng),
            Link::Deliver(_)
        ));
    }

    #[test]
    fn synthetic_matrix_in_band() {
        for n in [4, 10, 26] {
            let m = RttMatrix::synthetic(n);
            for i in 0..n {
                for j in 0..n {
                    let d = m.rtt(RegionId(i as u32), RegionId(j as u32));
                    if i == j {
                        assert_eq!(d, SimDuration::ZERO);
                    } else {
                        assert!(d >= SimDuration::from_millis(60), "{d}");
                        assert!(d <= SimDuration::from_millis(280), "{d}");
                        assert_eq!(d, m.rtt(RegionId(j as u32), RegionId(i as u32)));
                    }
                }
            }
        }
    }

    #[test]
    fn zone_failure_kills_only_that_zone() {
        let mut t = topo();
        let z = t.zone_of(NodeId(1));
        t.fail_zone(z);
        assert!(!t.is_node_alive(NodeId(1)));
        assert!(t.is_node_alive(NodeId(0)));
        assert_eq!(t.nodes_in_region(RegionId(0)).len(), 2);
        t.revive_zone(z);
        assert!(t.is_node_alive(NodeId(1)));
        assert_eq!(t.nodes_in_region(RegionId(0)).len(), 3);
    }

    #[test]
    fn region_isolation_cuts_all_external_links_only() {
        let mut t = topo();
        let mut rng = SimRng::seed_from_u64(0);
        t.isolate_region(RegionId(0));
        assert!(t.is_region_isolated(RegionId(0)));
        // External links dropped in both directions.
        assert!(!t.reachable(NodeId(0), NodeId(3)));
        assert!(!t.reachable(NodeId(3), NodeId(0)));
        assert!(matches!(
            t.link(NodeId(0), NodeId(3), &mut rng),
            Link::Unreachable
        ));
        // Intra-region links stay up.
        assert!(t.reachable(NodeId(0), NodeId(1)));
        assert!(matches!(
            t.link(NodeId(0), NodeId(1), &mut rng),
            Link::Deliver(_)
        ));
        // Links not involving the isolated region are untouched.
        assert!(t.reachable(NodeId(3), NodeId(6)));
        t.rejoin_region(RegionId(0));
        assert!(t.reachable(NodeId(0), NodeId(3)));
    }

    #[test]
    fn heal_all_partitions_clears_isolation_but_not_deaths() {
        let mut t = topo();
        t.partition_regions(RegionId(0), RegionId(1));
        t.isolate_region(RegionId(2));
        t.fail_node(NodeId(4));
        t.heal_all_partitions();
        assert!(t.reachable(NodeId(0), NodeId(3)));
        assert!(t.reachable(NodeId(6), NodeId(0)));
        assert!(!t.is_node_alive(NodeId(4)));
        assert!(!t.reachable(NodeId(0), NodeId(4)));
    }

    #[test]
    fn reachable_matches_link() {
        let mut t = topo();
        let mut rng = SimRng::seed_from_u64(7);
        t.partition_regions(RegionId(1), RegionId(3));
        t.fail_node(NodeId(0));
        for a in t.node_ids().collect::<Vec<_>>() {
            for b in t.node_ids().collect::<Vec<_>>() {
                let deliver = matches!(t.link(a, b, &mut rng), Link::Deliver(_));
                assert_eq!(deliver, t.reachable(a, b), "{a} -> {b}");
            }
        }
    }
}
