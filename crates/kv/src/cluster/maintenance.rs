//! Periodic maintenance: Raft ticks, the closed-timestamp side transport,
//! MVCC GC, the armed-bug WAL sync tick, and the observability scrape.
//!
//! Every pass here walks registry × replicas (or nodes × replicas) *in
//! place*, in the containers' own order — range id, then replica slot or
//! node id — which fixes the order of the messages a pass emits and so the
//! order of RNG draws (link jitter) that same-seed determinism, and the
//! chaos history replays built on it, depend on. The Raft tick walks only
//! each node's awake replicas, in the same range order: the ones it skips
//! would emit nothing. The scrape emits nothing and draws nothing: it walks
//! nodes × replicas, the order in which each replica is nearest at hand.

use std::rc::Rc;

use mr_proto::RangeId;
use mr_raft::{Outbox, RaftMsg};
use mr_sim::{Link, NodeId, SimDuration, Topology};

use super::{
    Cluster, Event, InjectedBug, Node, SideOut, RAFT_TICK_INTERVAL, SIDE_TRANSPORT_INTERVAL,
};
use crate::closedts::{repeats, SideBatch};
use crate::metrics::ScrapeStats;
use crate::range::RangeRegistry;
use crate::replica::{Batch, Effect, Replica};
use crate::zone::ClosedTsPolicy;

/// Period of the WAL fsync tick that is the only fsync point while
/// [`InjectedBug::WalSkipFsync`] is armed.
pub(super) const WAL_SYNC_INTERVAL: SimDuration = SimDuration::from_secs(3);

/// Whether `rep`'s Raft-tick visit would do nothing, and goes on doing
/// nothing until something marks the replica awake: it is quiesced (its
/// timers are parked), holds no buffered commands without a flush on the
/// calendar, and neither leadership check can fire — a follower's last known
/// leader is live and reachable, a leader is the registry's leaseholder.
/// What can change that verdict marks the replica awake: its own Raft
/// traffic, proposals and flushes (`Replicas::wake`), a re-install, a leaseholder
/// write to the registry, and any topology mutation (`Cluster::topo_mut`).
fn asleep(rep: &Replica, registry: &RangeRegistry, topo: &Topology) -> bool {
    if !rep.raft.is_quiesced() || (rep.has_pending_batch() && !rep.flush_scheduled) {
        return false;
    }
    if rep.raft.is_leader() {
        return registry
            .get(rep.range)
            .is_some_and(|d| d.leaseholder == rep.node);
    }
    rep.raft.leader_hint().is_none_or(|lh| {
        let lh_node = rep.node_for_peer(lh);
        topo.is_node_alive(lh_node) && topo.reachable(rep.node, lh_node)
    })
}

impl Cluster {
    /// Visit every awake replica of every live node, in range order: the
    /// leadership checks below, the flush safety net, and the Raft timers.
    /// A replica whose visit leaves it [asleep](asleep) leaves the set.
    /// What the visits send goes out after the walk: the flush replies, then
    /// each batch in visit order, followed by its sender's lease check.
    pub(super) fn handle_raft_tick(&mut self) {
        self.queue.schedule(RAFT_TICK_INTERVAL, Event::RaftTick);
        let now = self.queue.now();
        let mut out = std::mem::take(&mut self.tick_out);
        // Each batch's sender, and where its messages end in `out`.
        let mut batches: Vec<(NodeId, RangeId, usize)> = Vec::new();
        let mut refused: Vec<(NodeId, RangeId, Vec<Effect>)> = Vec::new();
        let mut heartbeats = 0u64;
        let Cluster {
            nodes,
            topo,
            registry,
            ..
        } = self;
        for node in nodes.iter_mut() {
            let Node { id, replicas, .. } = node;
            let id = *id;
            if !topo.is_node_alive(id) {
                continue;
            }
            debug_assert_eq!(
                replicas
                    .iter()
                    .find(|&(rid, rep)| !replicas.is_awake(rid) && !asleep(rep, registry, topo))
                    .map(|(&rid, _)| rid),
                None,
                "n{}: a replica outside the awake set has tick work",
                id.0
            );
            replicas.visit_awake(|rid, rep| {
                // Close the batch `rep` queued since the last one, if any.
                let mut close = |out: &Outbox<Batch>| {
                    if out.len() > batches.last().map_or(0, |&(.., end)| end) {
                        batches.push((id, rid, out.len()));
                    }
                };
                // Leadership doubt un-quiesces: a quiesced follower whose
                // last known leader is dead or unreachable restarts its
                // election clock — quiescence parks timers on the promise
                // that the leader will send traffic when needed, and a dead
                // leader never will.
                if rep.raft.is_quiesced() && !rep.raft.is_leader() {
                    if let Some(lh) = rep.raft.leader_hint() {
                        let lh_node = rep.node_for_peer(lh);
                        if !topo.is_node_alive(lh_node) || !topo.reachable(id, lh_node) {
                            rep.raft.unquiesce(now);
                        }
                    }
                }
                // Leadership follows the lease (CRDB colocates Raft
                // leadership with the leaseholder). A cooperative transfer
                // issued while a previous transfer's election was still in
                // flight finds the old leaseholder no longer leader, so its
                // TimeoutNow is never sent and nothing else would ever make
                // the new leaseholder campaign — the range would answer
                // NotLeaseholder from both nodes forever. Any leader that
                // notices the divergence hands leadership to the (live,
                // reachable) leaseholder; if the leaseholder is dead, the
                // orphaned-lease path reclaims the lease instead.
                if rep.raft.is_leader() {
                    if let Some(desc) = registry.get(rid) {
                        if desc.leaseholder != id
                            && topo.is_node_alive(desc.leaseholder)
                            && topo.reachable(id, desc.leaseholder)
                        {
                            if let Some(peer) = rep.peer_for_node(desc.leaseholder) {
                                rep.raft.transfer_leadership(peer, &mut out);
                                close(&out);
                            }
                        }
                    }
                }
                // Safety net: commands buffered for a flush that never
                // fired (the scheduling node crashed and restarted between
                // proposal and flush) must not sit forever.
                if rep.has_pending_batch() && !rep.flush_scheduled {
                    let mut effs = Vec::new();
                    rep.flush_batch(now, &mut out, &mut effs);
                    close(&out);
                    refused.push((id, rid, effs));
                }
                let before = out.len();
                rep.raft.tick_into(now, &mut out);
                heartbeats += out[before..]
                    .iter()
                    .filter(|(_, m)| matches!(m, RaftMsg::AppendEntries { .. }))
                    .count() as u64;
                close(&out);
                !asleep(rep, registry, topo)
            });
        }
        self.m.heartbeats_sent.add(heartbeats);
        for (node, range, mut effs) in refused {
            self.dispatch_effects(node, range, &mut effs);
        }
        let mut msgs = out.drain(..);
        let mut start = 0;
        for &(node, range, end) in &batches {
            self.outbox.extend(msgs.by_ref().take(end - start));
            start = end;
            self.ship(node, range);
            self.maybe_claim_lease(node, range);
        }
        drop(msgs);
        self.tick_out = out;
    }

    /// Per-range MVCC garbage collection. Each range's threshold candidate
    /// is the minimum of three bounds: `now - gc.ttl` (zone config), the
    /// minimum applied closed timestamp across the range's *live* replicas
    /// (follower reads must keep working), and the oldest active protected
    /// timestamp. Each replica ratchets its local threshold monotonically
    /// and reclaims shadowed history at its next flush/compaction.
    pub(super) fn handle_gc_tick(&mut self) {
        self.queue.schedule(self.cfg.gc_interval, Event::GcTick);
        let (now, key) = (self.queue.now(), self.queue.key());
        let protected_min = self.protected.min();
        let (nodes, topo) = (&mut self.nodes, &self.topo);
        let mut removed = 0usize;
        for d in self.registry.iter() {
            let live = || d.replica_nodes().filter(|&n| topo.is_node_alive(n));
            // The frontier bound: no live replica may lose history it can
            // still serve follower reads from.
            let min_closed = live()
                .filter_map(|n| Some(nodes[n.0 as usize].settle(d.id, key)?.tracker.closed()))
                .min();
            let Some(min_closed) = min_closed else {
                continue;
            };
            let candidate = mr_storage::gc_threshold(
                now.nanos(),
                d.zone_config.gc_ttl.nanos(),
                min_closed,
                protected_min,
            );
            if candidate.is_zero() {
                continue;
            }
            for n in live() {
                if let Some(rep) = nodes[n.0 as usize].replicas.get_mut(&d.id) {
                    let report = rep.store.maintain(candidate, now.nanos());
                    removed += report.mem_gc_removed + report.compact_removed;
                }
            }
        }
        self.m.gc_versions_removed.add(removed as u64);
    }

    /// Fsync every live replica's WAL and Raft log. Scheduled only while
    /// [`InjectedBug::WalSkipFsync`] is armed, where it is the sole fsync
    /// point (see [`Event::WalSyncTick`]).
    pub(super) fn handle_wal_sync_tick(&mut self) {
        if self.injected_bug != Some(InjectedBug::WalSkipFsync) {
            return;
        }
        self.queue.schedule(WAL_SYNC_INTERVAL, Event::WalSyncTick);
        let now_nanos = self.queue.now().nanos();
        for node in &mut self.nodes {
            if !self.topo.is_node_alive(node.id) {
                continue;
            }
            for rep in node.replicas.values_mut() {
                rep.store.sync_now(now_nanos);
                rep.raft.mark_log_synced();
            }
        }
    }

    /// Refresh derived gauges (closed-timestamp lag per policy, lock
    /// contention, in-flight ops) and snapshot the registry into the scrape
    /// series. Runs on `obs_scrape_interval`.
    pub(super) fn handle_obs_scrape(&mut self) {
        if let Some(interval) = self.cfg.obs_scrape_interval {
            self.queue.schedule(interval, Event::ObsScrape);
        }
        self.scrape_now();
    }

    /// Run one observability scrape immediately (tests and benches call
    /// this before reading counters so scrape-drained instruments — batch
    /// occupancy, quiesced-range counts — reflect activity since the last
    /// periodic scrape).
    pub fn scrape_now(&mut self) {
        let (now, key) = (self.queue.now(), self.queue.key());
        let mut s = ScrapeStats {
            protected_timestamps: self.protected.len() as i64,
            ops_outstanding: self.outstanding_ops as i64,
            load_tracked_ranges: self.obs.load.len() as i64,
            slow_txn_records: self.attr_log.len() as i64,
            trace_retained_spans: self.obs.tracer.len() as i64,
            trace_dropped_spans: self.obs.tracer.dropped() as i64,
            ..ScrapeStats::default()
        };
        // Each replica is reached from its node, in range order, with the
        // node's inbox at hand to settle it; a node holds a replica of a
        // range exactly while the range's descriptor places one there. What
        // the walk needs of the descriptors is read once, in range order.
        let ranges: Vec<(RangeId, ClosedTsPolicy, NodeId)> = (self.registry.iter())
            .map(|d| (d.id, d.zone_config.closed_ts_policy, d.leaseholder))
            .collect();
        let Cluster { nodes, obs, m, .. } = self;
        for node in nodes.iter_mut() {
            let Node {
                id: n,
                replicas,
                side_rx,
                ..
            } = node;
            let (n, rx) = (*n, side_rx.at(key));
            let mut at = 0;
            for (&id, rep) in replicas.iter_mut() {
                while ranges.get(at).is_some_and(|r| r.0 < id) {
                    at += 1;
                }
                let Some(&(_, policy, leaseholder)) = ranges.get(at).filter(|r| r.0 == id) else {
                    continue;
                };
                rep.settle(rx);
                // Worst (largest) closed-timestamp lag across replicas,
                // split by policy. Negative values mean the closed frontier
                // leads present time, as lead-policy (GLOBAL) ranges are
                // designed to.
                let worst_lag = if policy == ClosedTsPolicy::Lead {
                    &mut s.closedts_worst_lead
                } else {
                    &mut s.closedts_worst_lag
                };
                let lag = rep.tracker.lag_nanos(now.nanos());
                *worst_lag = Some(worst_lag.map_or(lag, |w| w.max(lag)));
                // The closed-timestamp frontier of a replica must never
                // move backwards between scrapes (trackers only `forward`).
                let wall = rep.tracker.closed().wall;
                if let Some(prev) = rep.monitor_closed.replace(wall) {
                    obs.monitors.check(
                        &obs.registry,
                        "closed_ts_monotonic",
                        now,
                        wall >= prev,
                        || {
                            format!(
                                "range {id} replica n{}: closed frontier regressed {prev} -> {wall}",
                                n.0
                            )
                        },
                    );
                }
                if n == leaseholder {
                    s.lock_waiters += rep.locks.total_waiters() as i64;
                    s.locked_keys += rep.locks.locked_key_count() as i64;
                }
                // Group-commit accounting: drain the batch occupancy
                // recorded since the last scrape, and count quiesced leaders.
                for batch in rep.take_prop_occupancy() {
                    m.batch_occupancy.record(batch as u64);
                    m.proposals_batched.add(batch as u64);
                    m.entries_proposed.inc();
                }
                if rep.raft.is_leader() && rep.raft.is_quiesced() {
                    s.quiesced_ranges += 1;
                }
                // Storage-engine accounting, summed across replicas: WAL
                // footprint, LSM shape, bloom effectiveness, GC
                // reclamation, recoveries.
                let e = rep.store.stats();
                s.wal_bytes += rep.store.wal_bytes() as i64;
                s.wal_records += rep.store.wal_record_count() as i64;
                s.sst_count += rep.store.sst_count() as i64;
                s.sst_versions += rep.store.sst_version_count() as i64;
                s.memtable_versions += rep.store.mem_version_count() as i64;
                s.run_probes += e.run_probes.get() as i64;
                s.run_skips += e.run_skips.get() as i64;
                s.gc_reclaimed += e.gc_reclaimed as i64;
                s.flushes += e.flushes as i64;
                s.compactions += e.compactions as i64;
                s.wal_recoveries += e.recoveries as i64;
            }
        }
        self.m.set_scrape_gauges(&s);
        self.obs.scrape(now);
    }

    pub(super) fn handle_side_transport(&mut self) {
        self.queue
            .schedule(SIDE_TRANSPORT_INTERVAL, Event::SideTransport);
        let (now, key) = (self.queue.now(), self.queue.key());
        let params = self.cfg.closed_ts;
        self.side_tick += 1;
        // The CRDB side transport is node-to-node, not per-range: a sender
        // builds one batch — every range it leads and holds the lease of,
        // in registry order — and ships that same batch to each node that
        // follows any of them. The buffers are the last tick's.
        let n = self.nodes.len();
        let mut senders = std::mem::take(&mut self.side_out);
        senders.resize_with(n, SideOut::default);
        for out in &mut senders {
            out.lines.clear();
        }
        for d in self.registry.iter() {
            let (lh, policy) = (d.leaseholder, d.zone_config.closed_ts_policy);
            if !self.topo.is_node_alive(lh) {
                continue;
            }
            let node = &mut self.nodes[lh.0 as usize];
            let skew = node.hlc.physical_clock().skew_nanos();
            let Some(rep) = node.replicas.get_mut(&d.id) else {
                continue;
            };
            if !rep.raft.is_leader() {
                continue;
            }
            let target = rep.lease.advance(&params, policy, now, skew);
            let index = rep.raft.last_index();
            // The leaseholder's own tracker advances immediately.
            let applied = rep.raft.applied_index();
            rep.tracker.on_side_transport(target, index, applied);
            senders[lh.0 as usize].lines.push((d.id, target, index));
        }
        let tick = self.side_tick;
        let descriptors_moved = self.side_out_at != self.registry.changes();
        self.side_out_at = self.registry.changes();
        // Shipped in (from, to) order: the order of the link-jitter draws.
        // Every delivery takes its calendar key here; a repeat of the
        // sender's previous batch waits in the receiver's inbox instead of on
        // the calendar when the inbox can hold it (`SideRx::send`).
        for (from, out) in senders.iter_mut().enumerate() {
            let updates = (!out.lines.is_empty()).then(|| SideBatch::from(&out.lines[..]));
            let prev = std::mem::replace(&mut self.nodes[from].side_sent, updates.clone());
            let Some(updates) = updates else {
                continue;
            };
            let same_ranges = prev.as_ref().is_some_and(|p| {
                p.len() == updates.len() && p.iter().zip(updates.iter()).all(|(a, b)| a.0 == b.0)
            });
            if descriptors_moved || !same_ranges || out.follows.len() != n {
                out.follows.clear();
                out.follows.resize(n, false);
                for d in updates.iter().filter_map(|e| self.registry.get(e.0)) {
                    for follower in d.replica_nodes().filter(|f| f.0 as usize != from) {
                        out.follows[follower.0 as usize] = true;
                    }
                }
            }
            let repeat = prev.is_some_and(|p| repeats(&p, &updates));
            let from = NodeId(from as u32);
            for to in (0..n).filter(|&to| out.follows[to]) {
                let to = NodeId(to as u32);
                let Link::Deliver(d) = self.topo.link(from, to, &mut self.rng) else {
                    continue;
                };
                let at = self.queue.reserve(d);
                let rx = &mut self.nodes[to.0 as usize].side_rx;
                if !rx.send(key, from, tick, at, &updates, repeat) {
                    let updates = Rc::clone(&updates);
                    self.queue.schedule_keyed(
                        at,
                        Event::SideTransportDeliver {
                            to,
                            from,
                            tick,
                            updates,
                        },
                    );
                }
                self.resend_evicted(to);
            }
        }
        self.side_out = senders;
    }

    /// A batch lands in `to`'s inbox. Only the replicas whose range the
    /// batch says something new about are looked up (see [`SideRx`]).
    pub(super) fn handle_side_transport_deliver(
        &mut self,
        to: NodeId,
        from: NodeId,
        tick: u64,
        updates: SideBatch,
    ) {
        if !self.topo.is_node_alive(to) {
            return;
        }
        let key = self.queue.key();
        let Node {
            replicas, side_rx, ..
        } = &mut self.nodes[to.0 as usize];
        side_rx.deliver(key, from, tick, updates, |range, promise, stands| {
            if let Some(rep) = replicas.get_mut(&range) {
                let applied = rep.raft.applied_index();
                if stands {
                    rep.tracker.settle(promise, applied);
                } else {
                    rep.tracker
                        .on_side_transport(promise.closed, promise.index, applied);
                }
            }
        });
        self.resend_evicted(to);
    }

    /// The topology is about to change: every node's inbox gives back the
    /// repeats it holds in flight.
    pub(super) fn recall_side_transport(&mut self) {
        let key = self.queue.key();
        for to in 0..self.nodes.len() {
            self.nodes[to].side_rx.recall(key);
            self.resend_evicted(NodeId(to as u32));
        }
    }

    /// Put the repeats `to`'s inbox evicted on the calendar, each under the
    /// key it was sent with: from here on it is delivered like any batch.
    fn resend_evicted(&mut self, to: NodeId) {
        let Cluster { nodes, queue, .. } = self;
        for e in nodes[to.0 as usize].side_rx.take_evicted() {
            let (from, tick, updates) = (e.from, e.tick, e.batch);
            queue.schedule_keyed(
                e.key,
                Event::SideTransportDeliver {
                    to,
                    from,
                    tick,
                    updates,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use mr_proto::{Key, RangeId, Span, Value};
    use mr_raft::RaftMsg;
    use mr_sim::{NodeId, RegionId, RttMatrix, SimDuration, SimTime, Topology};

    use crate::cluster::{Cluster, ClusterConfig};
    use crate::zone::ZoneConfig;

    fn awake(c: &Cluster) -> Vec<(NodeId, u64)> {
        c.nodes
            .iter()
            .flat_map(|n| n.replicas.iter().map(move |(r, _)| (n, r)))
            .filter(|(n, r)| n.replicas.is_awake(r))
            .map(|(n, r)| (n.id, r.0))
            .collect()
    }

    fn run_for(c: &mut Cluster, d: SimDuration) {
        c.run_until(SimTime(c.now().nanos() + d.nanos()));
    }

    /// Two ranges of three voters in region 0, split at "m", idle for 5 s.
    fn idle_pair() -> (Cluster, RangeId, RangeId) {
        let topo = Topology::build(
            &RttMatrix::paper_table1_regions()[..3],
            3,
            RttMatrix::uniform(3, SimDuration::from_millis(60)),
        );
        let mut c = Cluster::new(topo, ClusterConfig::default());
        let zc = ZoneConfig::single_region(RegionId(0));
        let left = c
            .create_range(Span::new(Key::from(""), Key::from("m")), zc.clone())
            .unwrap();
        let right = c
            .create_range(Span::new(Key::from("m"), Key::default()), zc)
            .unwrap();
        assert_eq!(awake(&c).len(), 6, "a fresh install is awake");
        run_for(&mut c, SimDuration::from_secs(5));
        assert_eq!(awake(&c), vec![]);
        (c, left, right)
    }

    /// Replicas of an idle range leave the tick; a write brings back those of
    /// the range it lands on, and only those, until the range quiesces again.
    #[test]
    fn idle_replicas_leave_the_tick_until_a_write_wakes_their_range() {
        let (mut c, _, right) = idle_pair();
        let h = c.txn_begin(NodeId(0));
        c.txn_put(
            h,
            Key::from("x"),
            Some(Value::from("v")),
            Box::new(move |c, res| {
                res.unwrap();
                c.txn_commit(
                    h,
                    Box::new(|_, res| {
                        res.unwrap();
                    }),
                );
            }),
        );
        c.run_until_quiescent(SimTime(SimDuration::from_secs(10).nanos()));
        let replicas = c.registry().get(right).unwrap().replica_nodes();
        let woken: Vec<_> = replicas.map(|n| (n, right.0)).collect();
        assert_eq!(awake(&c), woken);
        run_for(&mut c, SimDuration::from_secs(2));
        assert_eq!(awake(&c), vec![]);
    }

    /// Whatever a replica receives wakes it, a message it answers with
    /// nothing included: a stale vote reply un-quiesces a follower, and its
    /// election clock, long expired, makes it campaign at the next tick.
    #[test]
    fn a_message_that_gets_no_answer_still_wakes_its_receiver() {
        let (mut c, _, right) = idle_pair();
        let lh = c.registry().get(right).unwrap().leaseholder;
        let follower = c
            .registry()
            .get(right)
            .unwrap()
            .replica_nodes()
            .find(|&n| n != lh)
            .unwrap();
        let term = c.nodes[follower.0 as usize].replicas[&right].raft.term();
        let from = c.nodes[lh.0 as usize].replicas[&right].peer;
        let gen = c.range_gen(right);
        let vote = RaftMsg::VoteResp {
            term,
            granted: true,
        };
        c.handle_raft(follower, right, gen, from, vote);
        assert!(!c.nodes[follower.0 as usize].replicas[&right]
            .raft
            .is_quiesced());
        assert_eq!(awake(&c), vec![(follower, right.0)]);
        run_for(&mut c, SimDuration::from_millis(250));
        assert!(c.nodes[follower.0 as usize].replicas[&right].raft.term() > term);
    }
}
