//! Lease movement: cooperative transfers, failover claims that follow Raft
//! leadership through a replicated `ClaimLease` entry, preference repair
//! after a usurpation, and the orphan marks that keep a crashed holder's
//! lease claimable.

use mr_proto::RangeId;
use mr_sim::NodeId;

use super::Cluster;
use crate::events::EventKind;

impl Cluster {
    /// Move the lease (and Raft leadership) of `range` to `to`, which must
    /// host a voting replica.
    pub fn transfer_lease(&mut self, range: RangeId, to: NodeId) {
        let now = self.queue.now();
        let desc = self.registry.get(range).expect("no such range").clone();
        if desc.leaseholder == to {
            return;
        }
        assert!(
            desc.replicas.iter().any(|p| p.node == to && p.voting),
            "lease target must be a voting replica"
        );
        let old = desc.leaseholder;
        // Snapshot what the new leaseholder must inherit.
        let (promised, old_hlc) = {
            let node = &mut self.nodes[old.0 as usize];
            let hlc_now = node.hlc.now(now);
            let rep = &mut node.replicas[&range];
            (rep.lease.promised(), hlc_now)
        };
        // Raft leadership transfer.
        let rep = &mut self.nodes[old.0 as usize].replicas[&range];
        let target_peer = rep.peer_for_node(to).expect("target peer");
        rep.raft.transfer_leadership(target_peer, &mut self.outbox);
        self.ship(old, range);
        // Lease metadata.
        {
            let rep = &mut self.nodes[to.0 as usize].replicas[&range];
            rep.lease.inherit(promised);
            rep.tscache
                .raise_low_water(old_hlc.add_duration(self.cfg.clock.max_offset));
        }
        self.registry.get_mut(range).unwrap().leaseholder = to;
        self.wake_range(range);
        self.meta_mut(range).live.lease_orphaned = false;
        self.m.lease_transfers.inc();
        self.events.record(
            now,
            EventKind::LeaseTransfer {
                range,
                from: old,
                to,
                cooperative: true,
            },
        );
    }

    /// Mark every replica of `range` awake: a new leaseholder in the
    /// registry is work for whichever replica leads (leadership follows the
    /// lease).
    fn wake_range(&mut self, range: RangeId) {
        let Some(desc) = self.registry.get(range) else {
            return;
        };
        for n in desc.replica_nodes() {
            self.nodes[n.0 as usize].replicas.wake(&range);
        }
    }

    /// Record every range whose current leaseholder is dead. Called after
    /// each crash-style fault: a lease held by a crashed node stays
    /// usurpable (see `maybe_claim_lease`) until a new leaseholder is
    /// established, even if the old holder is revived in the meantime.
    pub(crate) fn mark_orphaned_leases(&mut self) {
        for d in self.registry.iter() {
            if !self.topo.is_node_alive(d.leaseholder) {
                self.range_meta.entry(d.id).or_default().live.lease_orphaned = true;
            }
        }
    }

    /// Whether `range`'s lease was orphaned by its holder's crash and has
    /// not moved since.
    pub(crate) fn lease_orphaned(&self, range: RangeId) -> bool {
        self.range_meta
            .get(&range)
            .is_some_and(|m| m.live.lease_orphaned)
    }

    /// After Raft activity, align the lease with Raft leadership if the
    /// recorded leaseholder is gone (failover).
    pub(super) fn maybe_claim_lease(&mut self, node: NodeId, range: RangeId) {
        let Some(desc) = self.registry.get(range) else {
            return;
        };
        if desc.leaseholder == node {
            // Note: the orphan mark (below) is deliberately NOT cleared
            // here even when this node's Raft claims leadership — after a
            // whole-group restart the old leaseholder still believes it
            // leads at its stale term until a competing election deposes
            // it, and clearing on that stale claim would re-wedge the
            // range. The mark only clears on an actual lease movement.
            return;
        }
        let old = desc.leaseholder;
        let became_leader = self.nodes[node.0 as usize]
            .replicas
            .get(&range)
            .is_some_and(|r| r.raft.is_leader());
        if !became_leader {
            return;
        }
        // Only usurp the lease from a dead or partitioned-away leaseholder;
        // cooperative transfers update the registry directly. A leaseholder
        // cut off by a region partition cannot commit (no quorum), so the
        // majority-side leader takes over — this is what keeps
        // REGION-survivable ranges available through a full region
        // partition, not just a region crash. One exception: a lease
        // orphaned by its holder's crash stays usurpable after the holder
        // restarts — a revived whole-region group can elect a different
        // leader, and the lease must follow it or the range stays wedged
        // (writes would propose into a Raft follower forever).
        if !self.lease_orphaned(range)
            && self.topo.is_node_alive(old)
            && self.topo.reachable(node, old)
        {
            return;
        }
        // The claim replicates through Raft rather than editing the
        // registry here: committing it proves this leader still reaches a
        // quorum (a stale minority-side leader would flap the lease back
        // and forth otherwise), and log order guarantees the claimant has
        // applied every earlier entry before it starts serving — a fresh
        // read served right after failover must observe writes that
        // committed just before it. The registry moves when the claim
        // applies (`apply_lease_claim`).
        let now = self.queue.now();
        let n = &mut self.nodes[node.0 as usize];
        let side_rx = n.side_rx.at(self.queue.key());
        n.replicas[&range].maybe_propose_lease_claim(now, side_rx, &mut self.outbox);
        self.ship(node, range);
        self.pump_replica(node, range);
    }

    /// A replicated `ClaimLease` entry applied on some replica: move the
    /// lease to the claimant. Every replica of the range applies the same
    /// entry, so claims are deduplicated by log index.
    pub(super) fn apply_lease_claim(&mut self, range: RangeId, to: NodeId, index: u64) {
        let live = &mut self.range_meta.entry(range).or_default().live;
        if index <= live.lease_claim {
            return;
        }
        live.lease_claim = index;
        let Some(desc) = self.registry.get(range) else {
            return;
        };
        let old = desc.leaseholder;
        live.lease_orphaned = false;
        if old == to {
            return;
        }
        let (now, key) = (self.queue.now(), self.queue.key());
        {
            let n = &mut self.nodes[to.0 as usize];
            let hlc_now = n.hlc.now(now);
            // Respect promises the old leaseholder may have made: the best
            // lower bound we have is our own tracker — settled, or the dead
            // leaseholder's last batch, which other followers serve reads
            // under, would sit in the inbox unseen — plus the uncertainty
            // window for reads the old leaseholder served near its demise.
            let rep = n.settle(range, key).unwrap();
            let inherited = rep.tracker.closed();
            rep.lease.inherit(inherited);
            rep.tscache
                .raise_low_water(hlc_now.add_duration(self.cfg.clock.max_offset));
        }
        self.registry.get_mut(range).unwrap().leaseholder = to;
        self.wake_range(range);
        self.m.lease_transfers.inc();
        self.events.record(
            now,
            EventKind::LeaseTransfer {
                range,
                from: old,
                to,
                cooperative: false,
            },
        );
        self.repair_lease_preference(to, range);
    }

    /// After a failover usurpation, re-home the lease into the
    /// most-preferred region that still has a reachable voting replica.
    /// Raft elections pick whoever times out first, which may be outside
    /// the configured lease preferences; CRDB's allocator would move the
    /// lease back, and so do we. Applies only to the failover path —
    /// cooperative transfers are allowed to mis-home a lease (the
    /// replication report must be able to flag that).
    fn repair_lease_preference(&mut self, usurper: NodeId, range: RangeId) {
        let Some(desc) = self.registry.get(range) else {
            return;
        };
        let prefs = desc.zone_config.lease_preferences.clone();
        if prefs.is_empty() {
            return;
        }
        let usurper_region = self.topo.region_of(usurper);
        let mut target = None;
        'prefs: for pref in prefs {
            if pref == usurper_region {
                // Already in the best reachable preferred region.
                return;
            }
            for p in &desc.replicas {
                if p.voting
                    && self.topo.region_of(p.node) == pref
                    && self.topo.is_node_alive(p.node)
                    && self.topo.reachable(usurper, p.node)
                {
                    target = Some(p.node);
                    break 'prefs;
                }
            }
        }
        if let Some(to) = target {
            self.transfer_lease(range, to);
        }
    }
}
