//! RPC and Raft transport: the in-flight request table, request/response
//! delivery over the simulated links, and Raft message fan-out.

use std::collections::HashMap;

use mr_clock::Timestamp;
use mr_obs::SpanId;
use mr_proto::{KvError, RangeId, Request, Response, TxnId};
use mr_raft::{Peer, RaftMsg};
use mr_sim::{Link, NodeId, SimTime};

use super::{Cluster, Cont, Event, KvResult};
use crate::attribution::{self, Component};
use crate::metrics::{req_kind_index, rpc_span_name};
use crate::replica::{Batch, ReplyPath};

pub(super) struct Envelope {
    req_id: u64,
    hlc_ts: Timestamp,
    body: Body,
}

enum Body {
    Req { range: RangeId, req: Request },
    Resp(KvResult<Response>),
}

/// One RPC awaiting its response or timeout: the continuation to fire, the
/// trace span covering the round trip, and the attribution context — the
/// transaction it serves and the latency component the round trip charges
/// (if any), plus time spent parked behind a conflicting intent at the
/// server. Also feeds per-range latency regardless of transaction ownership.
struct InFlightRpc {
    cont: Cont<KvResult<Response>>,
    /// Finished when the response/timeout arrives. Server-side evaluation
    /// attaches events to it via the request id.
    span: Option<SpanId>,
    txn: Option<(TxnId, Component)>,
    sent_at: SimTime,
    range: RangeId,
    /// Set while the request sits in a lock wait-queue at the leaseholder.
    parked_at: Option<SimTime>,
    /// Completed lock-wait time within this round trip.
    parked_nanos: u64,
}

impl InFlightRpc {
    /// Fold a still-open lock-wait interval into `parked_nanos`.
    fn close_park(&mut self, now: SimTime) {
        if let Some(p) = self.parked_at.take() {
            self.parked_nanos += (now - p).nanos();
        }
    }
}

/// The in-flight RPC table, keyed by request id, and the id allocator.
/// Looked up by id only — never iterated — so hash order cannot leak into
/// the simulation.
pub(super) struct Transport {
    inflight: HashMap<u64, InFlightRpc>,
    next_req: u64,
}

impl Transport {
    pub(super) fn new() -> Transport {
        Transport {
            inflight: HashMap::new(),
            next_req: 1,
        }
    }

    /// The trace span of an in-flight RPC.
    pub(super) fn span_of(&self, req_id: u64) -> Option<SpanId> {
        self.inflight.get(&req_id)?.span
    }

    /// The request was parked in a lock wait-queue at the leaseholder.
    pub(super) fn parked(&mut self, req_id: u64, now: SimTime) {
        if let Some(rpc) = self.inflight.get_mut(&req_id) {
            rpc.parked_at = Some(now);
        }
    }

    /// The request re-entered evaluation: close its lock-wait interval
    /// (charged as `lock_wait` when the RPC finishes).
    pub(super) fn unparked(&mut self, req_id: u64, now: SimTime) {
        if let Some(rpc) = self.inflight.get_mut(&req_id) {
            rpc.close_park(now);
        }
    }
}

impl Cluster {
    /// Send `req` to the replica of `range` on `target`; `cont` fires with
    /// the response, a routing error, or a timeout. Opens an `rpc.<kind>`
    /// span under `parent` covering the full round trip.
    pub(crate) fn send_request(
        &mut self,
        gateway: NodeId,
        target: NodeId,
        range: RangeId,
        req: Request,
        parent: Option<SpanId>,
        cont: Cont<KvResult<Response>>,
    ) {
        let req_id = self.rpc.next_req;
        self.rpc.next_req += 1;
        self.m.rpcs_sent.inc();
        self.m.rpcs_by_kind[req_kind_index(&req)].inc();
        let now = self.queue.now();
        // Lifecycle signals: which gateway region drives this range (lease
        // rebalancing) and which keys it is asked for (split-point median).
        let region = self.topo.region_of(gateway).0;
        let key = req.routing_key().0.clone();
        self.obs.load.record_request(now, range.0, region, key);
        let tracer = &self.obs.tracer;
        let span = tracer.start(rpc_span_name(&req), parent, now);
        tracer.attr(span, "from", format_args!("n{}", gateway.0));
        tracer.attr(span, "from_region", self.region_name_of(gateway));
        tracer.attr(span, "to", format_args!("n{}", target.0));
        tracer.attr(span, "to_region", self.region_name_of(target));
        tracer.attr(span, "range", range);
        let hlc_ts = self.nodes[gateway.0 as usize].hlc.now(now);
        match self.topo.link(gateway, target, &mut self.rng) {
            Link::Deliver(d) => {
                self.rpc.inflight.insert(
                    req_id,
                    InFlightRpc {
                        cont,
                        span,
                        txn: attribution::req_attribution(&req),
                        sent_at: now,
                        range,
                        parked_at: None,
                        parked_nanos: 0,
                    },
                );
                if let Some(t) = self.cfg.rpc_timeout {
                    self.queue.schedule(t, Event::RpcTimeout { req_id });
                }
                self.queue.schedule(
                    d,
                    Event::Rpc {
                        from: gateway,
                        to: target,
                        env: Envelope {
                            req_id,
                            hlc_ts,
                            body: Body::Req { range, req },
                        },
                    },
                );
            }
            Link::Unreachable => {
                self.obs.tracer.attr(span, "result", "unreachable");
                self.obs.tracer.finish(span, now);
                cont(self, Err(KvError::RangeUnavailable { range }));
            }
        }
    }

    /// Retire an in-flight RPC with its response, or with `None` when its
    /// timeout fired: finish the span, record per-range latency (responses
    /// only — a timed-out round trip served nothing), charge the elapsed
    /// time to the owning transaction — carving the parked portion out as
    /// `lock_wait` — and fire the continuation. Whichever of response and
    /// timeout comes second finds no entry and is dropped.
    pub(super) fn finish_rpc(&mut self, req_id: u64, response: Option<KvResult<Response>>) {
        let Some(mut rpc) = self.rpc.inflight.remove(&req_id) else {
            return;
        };
        let now = self.queue.now();
        match &response {
            Some(Ok(_)) => self.obs.tracer.attr(rpc.span, "result", "ok"),
            Some(Err(e)) => self
                .obs
                .tracer
                .attr(rpc.span, "result", format_args!("err: {e}")),
            None => self.obs.tracer.attr(rpc.span, "result", "timeout"),
        }
        self.obs.tracer.finish(rpc.span, now);
        rpc.close_park(now);
        if response.is_some() {
            self.obs
                .load
                .record_latency(now, rpc.range.0, (now - rpc.sent_at).nanos());
        }
        if let Some((id, comp)) = rpc.txn {
            if let Some(st) = self.txns.get_mut(&id) {
                st.attr
                    .charge_split(comp, rpc.sent_at, now, rpc.parked_nanos);
                if let Err(i) = st.ranges.binary_search(&rpc.range.0) {
                    st.ranges.insert(i, rpc.range.0);
                }
            }
        }
        let result = response.unwrap_or(Err(KvError::RangeUnavailable { range: rpc.range }));
        (rpc.cont)(self, result);
    }

    pub(super) fn send_response(
        &mut self,
        from: NodeId,
        path: ReplyPath,
        result: KvResult<Response>,
    ) {
        let now = self.queue.now();
        let hlc_ts = self.nodes[from.0 as usize].hlc.now(now);
        // An unreachable gateway drops the response (its timeout fires).
        if let Link::Deliver(d) = self.topo.link(from, path.gateway, &mut self.rng) {
            self.queue.schedule(
                d,
                Event::Rpc {
                    from,
                    to: path.gateway,
                    env: Envelope {
                        req_id: path.req_id,
                        hlc_ts,
                        body: Body::Resp(result),
                    },
                },
            );
        }
    }

    pub(super) fn dispatch_raft_msgs(
        &mut self,
        from_node: NodeId,
        range: RangeId,
        msgs: Vec<(Peer, RaftMsg<Batch>)>,
    ) {
        if msgs.is_empty() {
            return;
        }
        let gen = self.range_gen(range);
        let Some(rep) = self.nodes[from_node.0 as usize].wake(range) else {
            return;
        };
        let from_peer = rep.peer;
        for (to_peer, msg) in msgs {
            let to_node = rep.peer_nodes[to_peer as usize];
            if let Link::Deliver(d) = self.topo.link(from_node, to_node, &mut self.rng) {
                self.queue.schedule(
                    d,
                    Event::Raft {
                        to_node,
                        range,
                        gen,
                        from_peer,
                        msg,
                    },
                );
            }
        }
    }

    pub(super) fn handle_rpc(&mut self, from: NodeId, to: NodeId, env: Envelope) {
        if !self.topo.is_node_alive(to) {
            return;
        }
        let now = self.queue.now();
        self.nodes[to.0 as usize].hlc.update(env.hlc_ts, now);
        match env.body {
            Body::Req { range, req } => {
                let path = ReplyPath {
                    gateway: from,
                    req_id: env.req_id,
                };
                self.evaluate_at(to, range, req, path);
            }
            Body::Resp(result) => self.finish_rpc(env.req_id, Some(result)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use mr_proto::{Key, ReadCtx, Span};
    use mr_sim::{RegionId, RttMatrix, SimDuration, Topology};

    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::zone::ZoneConfig;
    use crate::FaultKind;

    type Outcomes = Rc<RefCell<Vec<KvResult<Response>>>>;

    /// A 3×3 cluster (60ms RTT) with one range homed in region 0, and a
    /// remote Get to its leaseholder in flight; every firing of the RPC's
    /// continuation lands in the returned log.
    fn get_in_flight(rpc_timeout: SimDuration) -> (Cluster, RangeId, NodeId, Outcomes) {
        let topo = Topology::build(
            &RttMatrix::paper_table1_regions()[..3],
            3,
            RttMatrix::uniform(3, SimDuration::from_millis(60)),
        );
        let cfg = ClusterConfig {
            rpc_timeout: Some(rpc_timeout),
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(topo, cfg);
        let range = c
            .create_range(Span::all(), ZoneConfig::single_region(RegionId(0)))
            .unwrap();
        let target = c.registry().get(range).unwrap().leaseholder;
        let gateway = NodeId(8);
        let outcomes = Outcomes::default();
        let log = outcomes.clone();
        let ts = c.hlc_now(gateway);
        let req = Request::Get {
            ctx: ReadCtx::stale(ts),
            key: Key::from("k"),
        };
        c.send_request(
            gateway,
            target,
            range,
            req,
            None,
            Box::new(move |_, res| log.borrow_mut().push(res)),
        );
        (c, range, target, outcomes)
    }

    #[test]
    fn timeout_names_the_range_and_fires_once() {
        let (mut c, range, target, outcomes) = get_in_flight(SimDuration::from_secs(1));
        // The target dies with the request on the wire: nothing answers.
        c.inject_fault(&FaultKind::CrashNode(target), None);
        c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
        let outcomes = outcomes.borrow();
        assert!(
            matches!(outcomes[..], [Err(KvError::RangeUnavailable { range: r })] if r == range),
            "{outcomes:?}"
        );
    }

    #[test]
    fn response_after_the_timeout_is_dropped() {
        // The timeout (10ms) beats the 60ms round trip: the request is
        // served and answered, but the answer finds the entry retired.
        let (mut c, range, _, outcomes) = get_in_flight(SimDuration::from_millis(10));
        c.run_until(SimTime(SimDuration::from_secs(1).nanos()));
        assert_eq!(
            c.metrics().ev_rpc.get(),
            2,
            "request and response both delivered"
        );
        let outcomes = outcomes.borrow();
        assert!(
            matches!(outcomes[..], [Err(KvError::RangeUnavailable { range: r })] if r == range),
            "{outcomes:?}"
        );
    }
}
