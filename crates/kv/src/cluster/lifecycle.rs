//! The dynamic range lifecycle: splits, merges and load-based rebalancing
//! (DESIGN.md §13), all as Raft-replicated descriptor surgery driven by
//! [`Cluster::handle_lifecycle_tick`] off the load recorder.

use mr_clock::Timestamp;
use mr_proto::{Key, RangeId, Span};
use mr_sim::{NodeId, RegionId, SimTime};

use super::{Cluster, Event, InjectedBug, SeedState};
use crate::allocator::{plan_lease_transfer, plan_replica_move};
use crate::events::EventKind;
use crate::range::{RangeDescriptor, RangeLineage};
use crate::replica::CmdOp;

/// Cluster-wide lifecycle outcomes (the per-range state lives in
/// [`crate::range::RangeMeta`]).
#[derive(Default)]
pub(super) struct LifecycleStats {
    /// Propose→apply latency of every completed split, in order (nanos).
    split_latencies: Vec<u64>,
    /// When the lifecycle last split, merged, or rebalanced anything
    /// (convergence detection for benches).
    last_action: Option<SimTime>,
}

impl Cluster {
    /// Propose→apply latency of every completed split so far, in
    /// application order (nanoseconds).
    pub fn split_latencies(&self) -> &[u64] {
        &self.lifecycle.split_latencies
    }

    /// When the lifecycle last split, merged, or rebalanced anything.
    pub fn last_lifecycle_action(&self) -> Option<SimTime> {
        self.lifecycle.last_action
    }

    /// Force a split of the range containing `key` at exactly `key` (admin
    /// split; also the nemesis entry point). Returns the reserved RHS id if
    /// a split was proposed, `None` when preconditions fail (boundary key,
    /// unknown range, dead or non-leader leaseholder) — a no-op, so random
    /// fault schedules stay valid whatever the current tiling is.
    pub fn admin_split_at(&mut self, key: Key) -> Option<RangeId> {
        let desc = self.registry.lookup(&key)?.clone();
        if key == desc.span.start {
            return None;
        }
        self.propose_split(&desc, key)
    }

    /// Force the range containing `key` to merge with its right-hand
    /// neighbor. Same no-op semantics as [`Cluster::admin_split_at`] when
    /// preconditions (`mergeable`, live leaseholders) don't hold.
    /// Returns whether a merge was proposed.
    pub fn admin_merge_at(&mut self, key: Key) -> bool {
        let Some(ld) = self.registry.lookup(&key).cloned() else {
            return false;
        };
        let Some(rd) = self.registry.lookup(&ld.span.end).cloned() else {
            return false;
        };
        self.mergeable(&ld, &rd) && self.propose_merge(&ld, rd.id)
    }

    /// Whether `ld` may absorb `rd`: `rd` is its right-hand neighbor (an
    /// unbounded `ld` has none), under the same zone config, and came from a
    /// split. A range the admin plane created is never absorbed, so the
    /// boundaries it was created with — the edges of a table partition — stay
    /// range boundaries, and whoever owns a span owns whole ranges.
    fn mergeable(&self, ld: &RangeDescriptor, rd: &RangeDescriptor) -> bool {
        !ld.span.end.is_empty()
            && rd.span.start == ld.span.end
            && rd.zone_config == ld.zone_config
            && self.lineage_of(rd.id).is_some_and(|l| l.origin == "split")
    }

    /// The node whose replica currently leads `desc`'s Raft group, if any.
    /// Lifecycle commands must be proposed here: after a lease transfer the
    /// leaseholder and the Raft leader can be different replicas, and a
    /// proposal at a non-leader is refused.
    fn raft_leader_of(&self, desc: &RangeDescriptor) -> Option<NodeId> {
        desc.replicas.iter().map(|p| p.node).find(|&n| {
            self.topo.is_node_alive(n)
                && self.nodes[n.0 as usize]
                    .replicas
                    .get(&desc.id)
                    .is_some_and(|r| r.raft.is_leader())
        })
    }

    /// Propose a Raft-replicated `Split` through `desc`'s Raft leader. The
    /// RHS id is reserved *now* (concurrent proposals must not collide);
    /// the descriptor surgery happens when the entry applies
    /// ([`Cluster::apply_split`]), strictly after every command proposed
    /// before it — that log ordering is what makes a transaction straddling
    /// the split find its intents on the correct half.
    fn propose_split(&mut self, desc: &RangeDescriptor, split_key: Key) -> Option<RangeId> {
        let now = self.queue.now();
        // The surgery snapshots the leaseholder replica's state at apply
        // time, so a dead leaseholder means the split cannot complete.
        if !self.topo.is_node_alive(desc.leaseholder) {
            return None;
        }
        let leader = self.raft_leader_of(desc)?;
        let rhs = self.registry.next_range_id();
        let node = &mut self.nodes[leader.0 as usize];
        let msgs = node.replicas.get_mut(&desc.id)?.propose_lifecycle(
            CmdOp::Split { split_key, rhs },
            now,
            &node.side_rx,
        )?;
        let live = &mut self.meta_mut(desc.id).live;
        live.split_pending = Some(now);
        live.last_lifecycle = Some(now);
        self.dispatch_raft_msgs(leader, desc.id, msgs);
        self.pump_replica(leader, desc.id);
        Some(rhs)
    }

    /// Propose a Raft-replicated `Merge` of `rhs` into `ld` through `ld`'s
    /// Raft leader.
    fn propose_merge(&mut self, ld: &RangeDescriptor, rhs: RangeId) -> bool {
        let now = self.queue.now();
        let Some(rd) = self.registry.get(rhs) else {
            return false;
        };
        if !self.topo.is_node_alive(ld.leaseholder) || !self.topo.is_node_alive(rd.leaseholder) {
            return false;
        }
        let Some(leader) = self.raft_leader_of(ld) else {
            return false;
        };
        let node = &mut self.nodes[leader.0 as usize];
        let msgs = node
            .replicas
            .get_mut(&ld.id)
            .and_then(|rep| rep.propose_lifecycle(CmdOp::Merge { rhs }, now, &node.side_rx));
        let Some(msgs) = msgs else {
            return false;
        };
        self.meta_mut(ld.id).live.last_lifecycle = Some(now);
        self.meta_mut(rhs).live.last_lifecycle = Some(now);
        self.dispatch_raft_msgs(leader, ld.id, msgs);
        self.pump_replica(leader, ld.id);
        true
    }

    /// A replicated `Split` entry applied: divide the parent's descriptor,
    /// MVCC store (intents included), transaction records, closed-timestamp
    /// tracker, and timestamp-cache bound between the two halves, atomically
    /// at one sim-instant. Self-deduplicating: the first application
    /// installs `rhs`, so a re-delivered effect finds it and bails (and the
    /// generation bump kills the old group's remaining Raft traffic).
    pub(super) fn apply_split(&mut self, lhs: RangeId, split_key: Key, rhs: RangeId) {
        if self.registry.get(rhs).is_some() {
            return;
        }
        let Some(desc) = self.registry.get(lhs).cloned() else {
            return;
        };
        if split_key == desc.span.start || !desc.span.contains(&split_key) {
            return;
        }
        let now = self.queue.now();
        let lh = desc.leaseholder;
        let hlc_now = self.nodes[lh.0 as usize].hlc.now(now);
        // Authoritative applied state from the leaseholder. Log order means
        // every command proposed before the split entry has already been
        // applied to this store — a transaction straddling the split finds
        // its intents (and record) on whichever half each key landed.
        let Some(mut lhs_seed) = self.seed_from(lh, lhs) else {
            return;
        };
        // Reads the parent served are invisible to the halves' empty
        // timestamp caches, so both must refuse writes below anything the
        // parent could have served: its HLC plus the clock uncertainty
        // window (the same rule as a lease transfer).
        lhs_seed.tscache_low_water = lhs_seed
            .tscache_low_water
            .max(hlc_now.add_duration(self.cfg.clock.max_offset));
        // The old replicas go first: then the seed is the only holder of the
        // runs it shares with them, and the split moves their entries
        // instead of copying them.
        self.uninstall_range(lhs);
        let rhs_seed = SeedState {
            store: lhs_seed.store.split_off(&split_key),
            tracker: lhs_seed.tracker.clone(),
            promised: lhs_seed.promised,
            tscache_low_water: if self.injected_bug == Some(InjectedBug::SplitTscache) {
                // Injected canary: the RHS forgets the parent's read history.
                Timestamp::ZERO
            } else {
                lhs_seed.tscache_low_water
            },
        };
        let lhs_span = Span::new(desc.span.start.clone(), split_key.clone());
        let rhs_span = Span::new(split_key.clone(), desc.span.end.clone());
        self.install_range(
            lhs,
            lhs_span,
            desc.zone_config.clone(),
            &desc.replicas,
            lh,
            Some(lhs_seed),
        );
        self.install_range(
            rhs,
            rhs_span,
            desc.zone_config,
            &desc.replicas,
            lh,
            Some(rhs_seed),
        );
        // Both halves restart load accounting: the parent's decayed rates
        // and key samples no longer describe either half alone.
        self.obs.load.forget_range(lhs.0);
        let key_disp = format!("{split_key:?}");
        let rhs_meta = self.meta_mut(rhs);
        rhs_meta.live.last_lifecycle = Some(now);
        rhs_meta.lineage = Some(RangeLineage::split_child(lhs, key_disp.clone(), now));
        let lhs_meta = self.meta_mut(lhs);
        lhs_meta.live.last_lifecycle = Some(now);
        if let Some(l) = &mut lhs_meta.lineage {
            l.splits += 1;
        }
        if let Some(t0) = lhs_meta.live.split_pending.take() {
            self.lifecycle.split_latencies.push((now - t0).nanos());
        }
        self.lifecycle.last_action = Some(now);
        self.events.record(
            now,
            EventKind::RangeSplit {
                range: lhs,
                rhs,
                split_key: key_disp,
            },
        );
    }

    /// A replicated `Merge` entry applied on the LHS group: absorb the
    /// right-hand neighbor's MVCC store, transaction records, and
    /// timestamp-cache bound, and re-install the union under the LHS id.
    /// Self-deduplicating: the first application removes `rhs` from the
    /// registry, so re-deliveries bail on the lookup.
    pub(super) fn apply_merge(&mut self, lhs: RangeId, rhs: RangeId) {
        let Some(ld) = self.registry.get(lhs).cloned() else {
            return;
        };
        let Some(rd) = self.registry.get(rhs).cloned() else {
            return;
        };
        if !self.mergeable(&ld, &rd) {
            return;
        }
        let now = self.queue.now();
        let lh = ld.leaseholder;
        let off = self.cfg.clock.max_offset;
        let lhs_hlc = self.nodes[lh.0 as usize].hlc.now(now);
        let rhs_hlc = self.nodes[rd.leaseholder.0 as usize].hlc.now(now);
        let Some(mut seed) = self.seed_from(lh, lhs) else {
            return;
        };
        let Some(rseed) = self.seed_from(rd.leaseholder, rhs) else {
            return;
        };
        seed.store.absorb(rseed.store);
        // The merged closed frontier may take the further-ahead side: no
        // write below either side's lease promise can commit afterwards
        // (the merged lease inherits the max), so the stronger promise
        // holds for the whole union.
        if rseed.tracker.closed() > seed.tracker.closed() {
            seed.tracker = rseed.tracker;
        }
        seed.promised = seed.promised.max(rseed.promised);
        seed.tscache_low_water = seed
            .tscache_low_water
            .max(rseed.tscache_low_water)
            .max(lhs_hlc.add_duration(off))
            .max(rhs_hlc.add_duration(off));
        self.uninstall_range(lhs);
        self.uninstall_range(rhs);
        // Retiring the absorbed id also kills its group's stale Raft
        // traffic (the install below only bumps the survivor's generation).
        self.retire_range(rhs);
        self.install_range(
            lhs,
            Span::new(ld.span.start, rd.span.end),
            ld.zone_config,
            &ld.replicas,
            lh,
            Some(seed),
        );
        self.obs.load.forget_range(lhs.0);
        let lhs_meta = self.meta_mut(lhs);
        lhs_meta.live.last_lifecycle = Some(now);
        if let Some(l) = &mut lhs_meta.lineage {
            l.merges_absorbed += 1;
        }
        if let Some(l) = &mut self.meta_mut(rhs).lineage {
            l.merged_into = Some(lhs);
        }
        self.lifecycle.last_action = Some(now);
        self.events
            .record(now, EventKind::RangeMerge { range: lhs, rhs });
    }

    /// One lifecycle pass (`cfg.lifecycle.interval`): QPS/size-triggered
    /// splits with the split key at the sampled-load median, cold-range
    /// merges of adjacent same-config neighbors, then one load-based
    /// rebalance step. Every trigger honors the per-range cooldown.
    pub(super) fn handle_lifecycle_tick(&mut self) {
        self.queue
            .schedule(self.cfg.lifecycle.interval, Event::LifecycleTick);
        let now = self.queue.now();
        let lc = self.cfg.lifecycle;
        // Splits. Iterate a stable id snapshot: a proposal on a
        // single-voter group commits (and reshapes the registry)
        // synchronously.
        for id in self.registry.ids() {
            let Some(desc) = self.registry.get(id).cloned() else {
                continue;
            };
            if !self.cooldown_passed(id, now) || !self.topo.is_node_alive(desc.leaseholder) {
                continue;
            }
            let Some(rep) = self.nodes[desc.leaseholder.0 as usize].replicas.get(&id) else {
                continue;
            };
            let keys = rep.store.key_count();
            let qps = self
                .obs
                .load
                .snapshot_range(now, id.0)
                .map_or(0, |s| s.qps_milli);
            if keys < lc.split_size_keys && qps < lc.split_qps_milli {
                continue;
            }
            let Some(raw) = self.obs.load.split_key_suggestion(id.0) else {
                continue;
            };
            let split_key = Key(raw);
            if split_key == desc.span.start || !desc.span.contains(&split_key) {
                continue;
            }
            self.propose_split(&desc, split_key);
        }
        // Merges: a cold range absorbs its cold right-hand neighbor when
        // both sit under the merge QPS floor and their joint size is well
        // below the split threshold (a merge must not immediately
        // re-trigger a split).
        for id in self.registry.ids() {
            let Some(ld) = self.registry.get(id).cloned() else {
                continue;
            };
            if !self.cooldown_passed(id, now) {
                continue;
            }
            let Some(rd) = self.registry.lookup(&ld.span.end).cloned() else {
                continue;
            };
            if !self.mergeable(&ld, &rd) || !self.cooldown_passed(rd.id, now) {
                continue;
            }
            let cold = |rid: RangeId| {
                self.obs
                    .load
                    .snapshot_range(now, rid.0)
                    .map_or(0, |s| s.qps_milli)
                    < lc.merge_qps_milli
            };
            if !cold(id) || !cold(rd.id) {
                continue;
            }
            let joint_keys: usize = [&ld, &rd]
                .iter()
                .filter_map(|d| {
                    self.nodes[d.leaseholder.0 as usize]
                        .replicas
                        .get(&d.id)
                        .map(|r| r.store.key_count())
                })
                .sum();
            if joint_keys * 2 >= lc.split_size_keys {
                continue;
            }
            self.propose_merge(&ld, rd.id);
        }
        self.rebalance_step(now);
    }

    /// Whether `id` is outside its lifecycle cooldown window.
    fn cooldown_passed(&self, id: RangeId, now: SimTime) -> bool {
        self.range_meta
            .get(&id)
            .and_then(|m| m.live.last_lifecycle)
            .is_none_or(|t| now - t >= self.cfg.lifecycle.cooldown)
    }

    /// One load-based rebalance step: for the hottest range whose traffic
    /// is dominated by a region other than its leaseholder's, transfer the
    /// lease toward demand (a voting replica there) or move a non-voting
    /// replica into the region; then re-home previously-rebalanced leases
    /// whose hot spell has ended. At most one move per tick keeps
    /// convergence observable and the event stream readable.
    fn rebalance_step(&mut self, now: SimTime) {
        let lc = self.cfg.lifecycle;
        for s in self.obs.load.hot_ranges(now) {
            if s.qps_milli < lc.rebalance_min_qps_milli {
                break; // sorted hottest-first
            }
            let id = RangeId(s.range);
            let Some(desc) = self.registry.get(id).cloned() else {
                continue;
            };
            let Some((reg, share)) = self.obs.load.dominant_region(now, id.0) else {
                continue;
            };
            if share < lc.rebalance_share_milli {
                continue;
            }
            let dom = RegionId(reg);
            if dom == self.topo.region_of(desc.leaseholder) {
                continue;
            }
            if let Some(to) = plan_lease_transfer(&self.topo, &desc, dom) {
                let from = desc.leaseholder;
                self.transfer_lease(id, to);
                let meta = self.meta_mut(id);
                meta.live.lease_rebalanced = Some(now);
                if let Some(l) = &mut meta.lineage {
                    l.lease_rebalances += 1;
                }
                self.lifecycle.last_action = Some(now);
                self.events.record(
                    now,
                    EventKind::LeaseRebalance {
                        range: id,
                        from,
                        to,
                    },
                );
                return;
            }
            if let Some((from, to)) = plan_replica_move(&self.topo, &desc, dom) {
                self.move_replica(&desc, from, to, now);
                return;
            }
        }
        self.rehome_leases(now);
    }

    /// Relocate one replica (instant state transfer, like
    /// `reconfigure_range`), keeping the leaseholder in place.
    fn move_replica(&mut self, desc: &RangeDescriptor, from: NodeId, to: NodeId, now: SimTime) {
        let id = desc.id;
        let lh = desc.leaseholder;
        let Some(seed) = self.seed_from(lh, id) else {
            return;
        };
        let mut replicas = desc.replicas.clone();
        for p in replicas.iter_mut() {
            if p.node == from {
                p.node = to;
            }
        }
        self.uninstall_range(id);
        self.install_range(
            id,
            desc.span.clone(),
            desc.zone_config.clone(),
            &replicas,
            lh,
            Some(seed),
        );
        let meta = self.meta_mut(id);
        meta.live.last_lifecycle = Some(now);
        if let Some(l) = &mut meta.lineage {
            l.replica_rebalances += 1;
        }
        self.lifecycle.last_action = Some(now);
        self.events.record(
            now,
            EventKind::ReplicaRebalance {
                range: id,
                from,
                to,
            },
        );
    }

    /// Leases previously moved by load: once the out-of-preference region
    /// no longer dominates, move the lease back into the configured
    /// preference and end the report grace window.
    fn rehome_leases(&mut self, now: SimTime) {
        let lc = self.cfg.lifecycle;
        // Snapshot the ids: the body moves leases and edits the records.
        let ids: Vec<RangeId> = self
            .range_meta
            .iter()
            .filter(|(_, m)| m.live.lease_rebalanced.is_some())
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            // A retired range has no mark left; only live ids get here.
            let Some(desc) = self.registry.get(id).cloned() else {
                continue;
            };
            let prefs = desc.zone_config.lease_preferences.clone();
            let cur = self.topo.region_of(desc.leaseholder);
            if prefs.is_empty() || prefs.contains(&cur) {
                self.meta_mut(id).live.lease_rebalanced = None;
                continue;
            }
            // Still hot from where the lease sits? Keep it, refreshing the
            // grace window (the report keeps treating it as transient).
            let qps = self
                .obs
                .load
                .snapshot_range(now, id.0)
                .map_or(0, |s| s.qps_milli);
            if qps >= lc.rebalance_min_qps_milli {
                if let Some((reg, share)) = self.obs.load.dominant_region(now, id.0) {
                    if RegionId(reg) == cur && share >= lc.rebalance_share_milli {
                        self.meta_mut(id).live.lease_rebalanced = Some(now);
                        continue;
                    }
                }
            }
            for pref in prefs {
                if let Some(to) = plan_lease_transfer(&self.topo, &desc, pref) {
                    self.transfer_lease(id, to);
                    self.meta_mut(id).live.lease_rebalanced = None;
                    self.lifecycle.last_action = Some(now);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use mr_proto::{Key, Span};
    use mr_sim::{RegionId, RttMatrix, SimDuration, SimTime, Topology};

    use crate::cluster::{Cluster, ClusterConfig};
    use crate::range::LiveRangeMeta;
    use crate::zone::ZoneConfig;

    /// After split → merge the absorbed id's record holds history only: a
    /// generation that fences its old Raft traffic and the lineage pointing
    /// at the survivor. Nothing live is left to sweep.
    #[test]
    fn merged_away_id_keeps_only_generation_and_lineage() {
        let topo = Topology::build(
            &RttMatrix::paper_table1_regions()[..3],
            3,
            RttMatrix::uniform(3, SimDuration::from_millis(60)),
        );
        let mut c = Cluster::new(topo, ClusterConfig::default());
        let lhs = c
            .create_range(Span::all(), ZoneConfig::single_region(RegionId(0)))
            .unwrap();
        c.run_until(SimTime(SimDuration::from_secs(2).nanos()));
        let rhs = c.admin_split_at(Key::from("m")).expect("split proposed");
        c.run_until(SimTime(SimDuration::from_secs(4).nanos()));
        assert!(c.registry.get(rhs).is_some());
        let installed_gen = c.range_gen(rhs);
        // Give the doomed id every kind of live mark.
        let live = &mut c.meta_mut(rhs).live;
        live.lease_orphaned = true;
        live.lease_rebalanced = Some(SimTime(1));
        live.split_pending = Some(SimTime(1));
        assert!(c.admin_merge_at(Key::from("a")), "merge proposed");
        c.run_until(SimTime(SimDuration::from_secs(6).nanos()));

        assert!(c.registry.get(rhs).is_none());
        let meta = &c.range_meta[&rhs];
        assert_eq!(meta.live, LiveRangeMeta::default());
        assert_eq!(meta.gen, installed_gen + 1);
        assert_eq!(meta.lineage.as_ref().unwrap().merged_into, Some(lhs));
        assert!(c.nodes.iter().all(|n| !n.replicas.contains_key(&rhs)));
        // The survivor keeps its own record, cooldown stamp included.
        assert!(c.range_meta[&lhs].live.last_lifecycle.is_some());
    }
}
