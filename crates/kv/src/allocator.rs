//! The replica allocator: maps a [`ZoneConfig`] onto concrete nodes.
//!
//! CRDB guarantees that replicas are spread across independent failure
//! domains while satisfying constraints, ranking candidates by a *diversity
//! score* that favors nodes not sharing localities with already-placed
//! replicas (§3.2). This module implements that scheme: constrained
//! placement first (per-region minimums), then free placement by diversity,
//! with deterministic tie-breaking by node id.

use std::collections::BTreeMap;

use mr_sim::{NodeId, RegionId, Topology};

use crate::zone::ZoneConfig;

/// One placed replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    pub node: NodeId,
    pub voting: bool,
}

/// Role of the replica slot an allocation constraint applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaRole {
    Voter,
    NonVoter,
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaRole::Voter => write!(f, "voter"),
            ReplicaRole::NonVoter => write!(f, "non-voter"),
        }
    }
}

/// Allocation failure: not enough live nodes to satisfy the config. Names
/// the unsatisfiable constraint — which region (if any) and which replica
/// role — so conformance reports can say *why* a range cannot be placed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocError {
    pub missing_region: Option<RegionId>,
    /// Resolved name of `missing_region`, for human-readable errors.
    pub region_name: Option<String>,
    /// Which replica role the failed constraint wanted.
    pub role: ReplicaRole,
    pub wanted: usize,
    pub available: usize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.region_name, self.missing_region) {
            (Some(name), _) => write!(
                f,
                "cannot place {} {} replica(s) in region {name:?}: only {} available",
                self.wanted, self.role, self.available
            ),
            (None, Some(r)) => write!(
                f,
                "cannot place {} {} replica(s) in {r}: only {} available",
                self.wanted, self.role, self.available
            ),
            (None, None) => write!(
                f,
                "cannot place {} {} replica(s): only {} nodes available",
                self.wanted, self.role, self.available
            ),
        }
    }
}
impl std::error::Error for AllocError {}

/// Diversity score of adding `candidate` to a partial placement: the number
/// of locality tiers (region, zone) it does *not* share with any already
/// placed replica. Higher is more diverse.
fn diversity_score(topo: &Topology, placed: &[NodeId], candidate: NodeId) -> usize {
    let mut score = 2;
    for &p in placed {
        if topo.region_of(p) == topo.region_of(candidate) {
            score = score.min(1);
            if topo.zone_of(p) == topo.zone_of(candidate) {
                score = 0;
            }
        }
    }
    score
}

/// Pick `count` nodes from `pool` maximizing diversity w.r.t. `placed`
/// (greedy, deterministic). Chosen nodes are appended to `placed` and
/// removed from `pool`.
fn pick_diverse(
    topo: &Topology,
    placed: &mut Vec<NodeId>,
    pool: &mut Vec<NodeId>,
    count: usize,
) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let best = pool
            .iter()
            .enumerate()
            .max_by_key(|(_, &n)| (diversity_score(topo, placed, n), std::cmp::Reverse(n.0)))
            .map(|(i, _)| i);
        let Some(i) = best else { break };
        let n = pool.remove(i);
        placed.push(n);
        out.push(n);
    }
    out
}

/// Allocate replicas for a range according to `cfg`.
///
/// Voters are placed first (satisfying `voter_constraints`, then filling up
/// to `num_voters` by diversity), then non-voters satisfy the remaining
/// `constraints`. The leaseholder is the first voter in the first available
/// lease-preference region.
pub fn allocate(topo: &Topology, cfg: &ZoneConfig) -> Result<AllocationOutcome, AllocError> {
    let mut placed: Vec<NodeId> = Vec::new();
    let mut voters: Vec<NodeId> = Vec::new();
    let mut non_voters: Vec<NodeId> = Vec::new();

    // Live nodes per region.
    let mut pools: BTreeMap<RegionId, Vec<NodeId>> = BTreeMap::new();
    for n in topo.node_ids().filter(|&n| topo.is_node_alive(n)) {
        pools.entry(topo.region_of(n)).or_default().push(n);
    }
    for pool in pools.values_mut() {
        pool.sort_unstable_by_key(|n| n.0);
    }

    // 1. Voter constraints.
    for &(region, want) in &cfg.voter_constraints {
        let pool = pools.entry(region).or_default();
        let got = pick_diverse(topo, &mut placed, pool, want);
        if got.len() < want {
            return Err(AllocError {
                missing_region: Some(region),
                region_name: Some(topo.region_name(region).to_string()),
                role: ReplicaRole::Voter,
                wanted: want,
                available: got.len(),
            });
        }
        voters.extend(got);
    }

    // 2. Remaining voters by diversity over all pools. No region may hold
    //    a quorum on its own (otherwise its failure takes the range down —
    //    the REGION survivability invariant, §3.3.3): cap unconstrained
    //    voter placement at a minority per region. Explicit
    //    voter_constraints may exceed the cap deliberately.
    let minority_cap = ((cfg.num_voters.saturating_sub(1)) / 2).max(1);
    while voters.len() < cfg.num_voters {
        let region_voter_count = |r: RegionId, voters: &[NodeId]| {
            voters.iter().filter(|&&v| topo.region_of(v) == r).count()
        };
        let mut all: Vec<NodeId> = pools
            .values()
            .flatten()
            .copied()
            .filter(|&n| {
                let constrained = cfg
                    .voter_constraints
                    .iter()
                    .find(|(r, _)| *r == topo.region_of(n))
                    .map(|(_, c)| *c)
                    .unwrap_or(0);
                region_voter_count(topo.region_of(n), &voters) < minority_cap.max(constrained)
            })
            .collect();
        all.sort_unstable_by_key(|n| n.0);
        let got = pick_diverse(topo, &mut placed, &mut all, 1);
        let Some(&n) = got.first() else {
            return Err(AllocError {
                missing_region: None,
                region_name: None,
                role: ReplicaRole::Voter,
                wanted: cfg.num_voters,
                available: voters.len(),
            });
        };
        pools
            .get_mut(&topo.region_of(n))
            .unwrap()
            .retain(|&x| x != n);
        voters.push(n);
    }

    // 3. Per-region constraints for the remaining (non-voting) replicas.
    //    A region's constraint is already partially satisfied by voters.
    for &(region, want) in &cfg.constraints {
        let have = placed
            .iter()
            .filter(|&&n| topo.region_of(n) == region)
            .count();
        if have >= want {
            continue;
        }
        let pool = pools.entry(region).or_default();
        let got = pick_diverse(topo, &mut placed, pool, want - have);
        if got.len() < want - have {
            return Err(AllocError {
                missing_region: Some(region),
                region_name: Some(topo.region_name(region).to_string()),
                role: ReplicaRole::NonVoter,
                wanted: want,
                available: have + got.len(),
            });
        }
        non_voters.extend(got);
    }

    // 4. Any leftover replica budget, by diversity.
    while voters.len() + non_voters.len() < cfg.num_replicas {
        let mut all: Vec<NodeId> = pools.values().flatten().copied().collect();
        all.sort_unstable_by_key(|n| n.0);
        let got = pick_diverse(topo, &mut placed, &mut all, 1);
        let Some(&n) = got.first() else { break };
        pools
            .get_mut(&topo.region_of(n))
            .unwrap()
            .retain(|&x| x != n);
        non_voters.push(n);
    }

    // 5. Leaseholder: first lease-preference region with a voter.
    let leaseholder = cfg
        .lease_preferences
        .iter()
        .find_map(|&r| voters.iter().find(|&&v| topo.region_of(v) == r).copied())
        .unwrap_or(voters[0]);

    let mut replicas: Vec<Placement> = voters
        .iter()
        .map(|&node| Placement { node, voting: true })
        .collect();
    replicas.extend(non_voters.iter().map(|&node| Placement {
        node,
        voting: false,
    }));

    Ok(AllocationOutcome {
        replicas,
        leaseholder,
    })
}

/// Result of a successful allocation.
#[derive(Clone, Debug)]
pub struct AllocationOutcome {
    pub replicas: Vec<Placement>,
    pub leaseholder: NodeId,
}

/// Load-based lease rebalancing: the voting replica of `desc` in `toward`
/// the lease should move to when that region dominates the range's traffic.
/// Deterministic (lowest live node id); `None` when the range has no live
/// voter there (the rebalancer then considers a replica move instead).
pub fn plan_lease_transfer(
    topo: &Topology,
    desc: &crate::range::RangeDescriptor,
    toward: RegionId,
) -> Option<NodeId> {
    desc.replicas
        .iter()
        .filter(|p| p.voting && topo.is_node_alive(p.node) && topo.region_of(p.node) == toward)
        .map(|p| p.node)
        .min_by_key(|n| n.0)
}

/// Load-based replica rebalancing: relocate one non-voting replica toward
/// `toward` without violating the zone config. Returns `(from, to)` — the
/// replica to move and its destination (the lowest-id live node in `toward`
/// without a replica) — or `None` when the range already has a replica
/// there, no destination exists, or every candidate move would leave the
/// range under-replicated or constraint-violating. Voters are never moved
/// this way: quorum placement is the survivability plan, not load's.
pub fn plan_replica_move(
    topo: &Topology,
    desc: &crate::range::RangeDescriptor,
    toward: RegionId,
) -> Option<(NodeId, NodeId)> {
    if desc
        .replicas
        .iter()
        .any(|p| topo.region_of(p.node) == toward)
    {
        return None;
    }
    let to = topo
        .node_ids()
        .filter(|&n| {
            topo.region_of(n) == toward && topo.is_node_alive(n) && !desc.has_replica_on(n)
        })
        .min_by_key(|n| n.0)?;
    for p in desc.replicas.iter().filter(|p| !p.voting) {
        let mut cand = desc.clone();
        for q in cand.replicas.iter_mut() {
            if q.node == p.node {
                q.node = to;
            }
        }
        let c = crate::report::classify(&cand, topo);
        if !c.has(crate::report::RangeStatus::ViolatingConstraints)
            && !c.has(crate::report::RangeStatus::UnderReplicated)
        {
            return Some((p.node, to));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{
        derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal, ZoneConfig,
    };
    use mr_sim::RttMatrix;

    fn topo5x3() -> Topology {
        Topology::build(
            &RttMatrix::paper_table1_regions(),
            3,
            RttMatrix::paper_table1(),
        )
    }

    fn regions(n: u32) -> Vec<RegionId> {
        (0..n).map(RegionId).collect()
    }

    #[test]
    fn zone_survival_places_three_voters_across_home_zones() {
        let topo = topo5x3();
        let cfg = derive_zone_config(
            RegionId(0),
            &regions(5),
            SurvivalGoal::Zone,
            PlacementPolicy::Default,
            ClosedTsPolicy::Lag,
        );
        let out = allocate(&topo, &cfg).unwrap();
        let voters: Vec<_> = out.replicas.iter().filter(|p| p.voting).collect();
        assert_eq!(voters.len(), 3);
        for v in &voters {
            assert_eq!(topo.region_of(v.node), RegionId(0));
        }
        // All in distinct zones.
        let zones: std::collections::HashSet<_> =
            voters.iter().map(|v| topo.zone_of(v.node)).collect();
        assert_eq!(zones.len(), 3);
        // One non-voter in each other region.
        let nv: Vec<_> = out.replicas.iter().filter(|p| !p.voting).collect();
        assert_eq!(nv.len(), 4);
        let nv_regions: std::collections::HashSet<_> =
            nv.iter().map(|p| topo.region_of(p.node)).collect();
        assert_eq!(nv_regions.len(), 4);
        assert!(!nv_regions.contains(&RegionId(0)));
        // Leaseholder in the home region, and is a voter.
        assert_eq!(topo.region_of(out.leaseholder), RegionId(0));
        assert!(voters.iter().any(|v| v.node == out.leaseholder));
    }

    #[test]
    fn region_survival_spreads_voters() {
        let topo = topo5x3();
        let cfg = derive_zone_config(
            RegionId(1),
            &regions(5),
            SurvivalGoal::Region,
            PlacementPolicy::Default,
            ClosedTsPolicy::Lag,
        );
        let out = allocate(&topo, &cfg).unwrap();
        let voters: Vec<_> = out.replicas.iter().filter(|p| p.voting).collect();
        assert_eq!(voters.len(), 5);
        let home_voters = voters
            .iter()
            .filter(|v| topo.region_of(v.node) == RegionId(1))
            .count();
        assert_eq!(home_voters, 2);
        // No region loss removes quorum: voters span >= 3 regions with at
        // most 2 in any region.
        let mut per_region: BTreeMap<RegionId, usize> = BTreeMap::new();
        for v in &voters {
            *per_region.entry(topo.region_of(v.node)).or_default() += 1;
        }
        assert!(per_region.values().all(|&c| c <= 2));
        assert!(per_region.len() >= 3);
        // Every region has at least one replica (stale reads everywhere).
        let all_regions: std::collections::HashSet<_> = out
            .replicas
            .iter()
            .map(|p| topo.region_of(p.node))
            .collect();
        assert_eq!(all_regions.len(), 5);
        assert_eq!(topo.region_of(out.leaseholder), RegionId(1));
    }

    #[test]
    fn restricted_placement_stays_home() {
        let topo = topo5x3();
        let cfg = derive_zone_config(
            RegionId(2),
            &regions(5),
            SurvivalGoal::Zone,
            PlacementPolicy::Restricted,
            ClosedTsPolicy::Lag,
        );
        let out = allocate(&topo, &cfg).unwrap();
        assert_eq!(out.replicas.len(), 3);
        for p in &out.replicas {
            assert_eq!(topo.region_of(p.node), RegionId(2));
        }
    }

    #[test]
    fn allocation_fails_without_enough_nodes() {
        let topo = Topology::build(
            &["only"],
            2,
            RttMatrix::uniform(1, mr_sim::SimDuration::ZERO),
        );
        let cfg = ZoneConfig::single_region(RegionId(0));
        let err = allocate(&topo, &cfg).unwrap_err();
        assert_eq!(err.missing_region, Some(RegionId(0)));
        assert_eq!(err.region_name.as_deref(), Some("only"));
        assert_eq!(err.role, ReplicaRole::Voter);
        assert_eq!(err.wanted, 3);
        assert_eq!(err.available, 2);
        let msg = err.to_string();
        assert!(msg.contains("\"only\""), "error names the region: {msg}");
        assert!(msg.contains("voter"), "error names the role: {msg}");
    }

    #[test]
    fn allocation_skips_dead_nodes() {
        let mut topo = topo5x3();
        // Kill one home-region node: allocation should fail for 3 voters in
        // 2 remaining zones... actually it succeeds with 2 distinct zones
        // only if 3 nodes exist. Only 2 remain, so it errors.
        topo.fail_node(NodeId(0));
        let cfg = ZoneConfig::single_region(RegionId(0));
        let err = allocate(&topo, &cfg).unwrap_err();
        assert_eq!(err.available, 2);
        assert_eq!(err.role, ReplicaRole::Voter);
    }

    #[test]
    fn region_survival_unsatisfiable_names_region_and_role() {
        // Three regions with one node each: SURVIVE REGION FAILURE derives
        // two home-region voters, but the home region only has one node.
        let topo = Topology::build(
            &["us-east1", "europe-west2", "asia-northeast1"],
            1,
            RttMatrix::uniform(3, mr_sim::SimDuration::from_millis(50)),
        );
        let cfg = derive_zone_config(
            RegionId(0),
            &regions(3),
            SurvivalGoal::Region,
            PlacementPolicy::Default,
            ClosedTsPolicy::Lag,
        );
        let err = allocate(&topo, &cfg).unwrap_err();
        assert_eq!(err.missing_region, Some(RegionId(0)));
        assert_eq!(err.region_name.as_deref(), Some("us-east1"));
        assert_eq!(err.role, ReplicaRole::Voter);
        assert_eq!(err.wanted, 2);
        assert_eq!(err.available, 1);
        let msg = err.to_string();
        assert!(
            msg.contains("\"us-east1\"") && msg.contains("voter"),
            "constraint not named: {msg}"
        );
    }

    #[test]
    fn replicas_never_reuse_a_node() {
        let topo = topo5x3();
        let cfg = derive_zone_config(
            RegionId(0),
            &regions(5),
            SurvivalGoal::Region,
            PlacementPolicy::Default,
            ClosedTsPolicy::Lead,
        );
        let out = allocate(&topo, &cfg).unwrap();
        let mut nodes: Vec<_> = out.replicas.iter().map(|p| p.node).collect();
        let before = nodes.len();
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        assert_eq!(nodes.len(), before);
    }

    #[test]
    fn lease_and_replica_rebalance_planning() {
        use crate::range::RangeDescriptor;
        use mr_proto::{Key, RangeId, Span};
        let mut topo = topo5x3();
        let mut zc = ZoneConfig::single_region(RegionId(0));
        zc.constraints = vec![];
        zc.voter_constraints = vec![];
        let desc = RangeDescriptor {
            id: RangeId(1),
            span: Span::new(Key::from("a"), Key::from("b")),
            replicas: vec![
                Placement {
                    node: NodeId(0),
                    voting: true,
                },
                Placement {
                    node: NodeId(1),
                    voting: true,
                },
                Placement {
                    node: NodeId(3), // region 1
                    voting: true,
                },
                Placement {
                    node: NodeId(6), // region 2
                    voting: false,
                },
            ],
            leaseholder: NodeId(0),
            zone_config: zc,
        };
        // Lease toward region 1: its voting replica.
        assert_eq!(
            plan_lease_transfer(&topo, &desc, RegionId(1)),
            Some(NodeId(3))
        );
        // No voter in region 2 → no lease plan there.
        assert_eq!(plan_lease_transfer(&topo, &desc, RegionId(2)), None);
        // A replica already sits in region 2 → nothing to move.
        assert_eq!(plan_replica_move(&topo, &desc, RegionId(2)), None);
        // Region 3 has no replica: the non-voter relocates to its lowest
        // live node.
        assert_eq!(
            plan_replica_move(&topo, &desc, RegionId(3)),
            Some((NodeId(6), NodeId(9)))
        );
        // Dead candidates are skipped entirely.
        topo.fail_node(NodeId(3));
        assert_eq!(plan_lease_transfer(&topo, &desc, RegionId(1)), None);
        // While a voter is down the planner refuses to shuffle replicas at
        // all (the range is under-replicated; load can wait).
        assert_eq!(plan_replica_move(&topo, &desc, RegionId(3)), None);
        topo.revive_node(NodeId(3));
        topo.fail_node(NodeId(9));
        assert_eq!(
            plan_replica_move(&topo, &desc, RegionId(3)),
            Some((NodeId(6), NodeId(10)))
        );
    }

    #[test]
    fn deterministic_allocation() {
        let topo = topo5x3();
        let cfg = derive_zone_config(
            RegionId(0),
            &regions(5),
            SurvivalGoal::Region,
            PlacementPolicy::Default,
            ClosedTsPolicy::Lag,
        );
        let a = allocate(&topo, &cfg).unwrap();
        let b = allocate(&topo, &cfg).unwrap();
        assert_eq!(a.replicas, b.replicas);
        assert_eq!(a.leaseholder, b.leaseholder);
    }
}
