//! The simulated cluster: nodes, transport, event dispatch, and admin
//! operations.
//!
//! A [`Cluster`] owns the event calendar, the network topology, every node
//! (HLC + replicas), the range registry, and the gateway-side state of open
//! transactions. All asynchrony is continuation-passing: an RPC carries a
//! boxed continuation that fires when the response (or a timeout) arrives.
//!
//! Periodic machinery:
//! * **Raft ticks** drive heartbeats and elections (failure recovery).
//! * The **closed-timestamp side transport** (§5.1.1) batches per-node
//!   closed-timestamp updates from leaseholders to followers so idle ranges
//!   keep advancing; GLOBAL (lead-policy) ranges always participate,
//!   lag-policy ranges participate when stale reads are in use.

use std::collections::HashMap;

use mr_clock::{ClockConfig, Hlc, SkewedClock, Timestamp};
use mr_obs::{Obs, SpanId};
use mr_proto::{Key, KvError, RangeId, Request, Response, Span, TxnId, Value};
use mr_raft::{Peer, RaftConfig, RaftMsg, RaftNode};
use mr_sim::{EventQueue, Link, NodeId, RegionId, SimDuration, SimRng, SimTime, Topology};
use mr_storage::ProtectedTimestamps;

use crate::allocator::{allocate, AllocError};
use crate::attribution::{self, Component, TxnAttrLog};
use crate::closedts::ClosedTsParams;
use crate::events::{EventKind, EventLog};
use crate::metrics::{req_kind_index, rpc_span_name, KvMetrics, MetricsView};
use crate::range::{RangeDescriptor, RangeLineage, RangeRegistry};
use crate::replica::{Batch, CmdOp, Effect, EvalCtx, EvalOutcome, Replica, ReplyPath};
use crate::report::{self, RangeStatus, ReplicationReport};
use crate::txn::TxnState;
use crate::zone::{ClosedTsPolicy, ZoneConfig};

/// Result alias for KV operations.
pub type KvResult<T> = Result<T, KvError>;

/// A continuation fired with an operation's outcome.
pub type Cont<T> = Box<dyn FnOnce(&mut Cluster, T)>;

/// Cluster-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    pub seed: u64,
    pub clock: ClockConfig,
    pub closed_ts: ClosedTsParams,
    /// Amplitude of per-node clock skew: offsets are drawn uniformly from
    /// `[-amplitude, +amplitude]`. Must be ≤ `max_offset / 2` for the
    /// cluster to be within spec.
    pub skew_amplitude: SimDuration,
    pub raft_heartbeat: SimDuration,
    pub raft_election_timeout: SimDuration,
    pub raft_tick_interval: SimDuration,
    pub side_transport_interval: SimDuration,
    /// Also run the side transport for lag-policy (REGIONAL) ranges,
    /// enabling stale follower reads of idle ranges. On by default; turn
    /// off for very large clusters that don't use stale reads.
    pub lag_side_transport: bool,
    /// If set, RPCs that receive no response within this duration fail with
    /// `RangeUnavailable` (the dist-sender then re-routes). `None` disables
    /// timeouts (fine when no failures are injected).
    pub rpc_timeout: Option<SimDuration>,
    /// Ablation (Spanner-style commit wait): hold locks through commit wait
    /// instead of resolving intents concurrently with it (§6.2 contrasts
    /// these; see the `ablation_commit_wait` bench).
    pub commit_wait_holds_locks: bool,
    /// Write pipelining: intent writes are proposed to Raft at statement
    /// time and tracked in flight by the coordinator, so statements return
    /// before replication completes. Off = every Put replicates before its
    /// statement returns (the pre-pipelining 2-RTT ablation baseline).
    pub pipelined_writes: bool,
    /// Parallel commits: commit writes a STAGING transaction record
    /// carrying the in-flight write set concurrently with the last
    /// pipelined intents, and acks the client once all of them succeed —
    /// one consensus round instead of two. Requires `pipelined_writes`.
    pub parallel_commits: bool,
    /// Delay between a leaseholder's first batched Raft proposal and the
    /// broadcast that ships it (group commit). The default of zero still
    /// coalesces proposals arriving at the same sim-instant — a txn's
    /// pipelined intents plus its STAGING record — into one consensus
    /// round, at no added latency.
    pub raft_flush_interval: SimDuration,
    /// Range quiescence: a leader with nothing in flight and fully
    /// caught-up followers stops heartbeating until the next proposal (or
    /// leadership doubt) wakes it. On by default; the `raft_probe` bench
    /// turns it off for the A/B heartbeat-rate comparison.
    pub raft_quiescence: bool,
    /// Print one line per request evaluation (debugging).
    pub trace: bool,
    /// Override the derived closed-timestamp `lead_slack` (ablations).
    pub lead_slack_override: Option<SimDuration>,
    /// MVCC garbage-collection cadence: every `gc_interval`, each range's
    /// GC threshold advances to the minimum of `now - gc.ttl` (the
    /// per-range [`ZoneConfig::gc_ttl`] knob), the closed-timestamp
    /// frontier of its live replicas, and the oldest protected timestamp;
    /// shadowed versions below the threshold are reclaimed at the next
    /// flush/compaction.
    pub gc_interval: SimDuration,
    /// Legacy cluster-wide GC TTL. Superseded by the per-range
    /// [`ZoneConfig::gc_ttl`] zone knob, which is what the GC pass reads;
    /// retained for configs that predate per-range TTLs.
    pub gc_ttl: SimDuration,
    /// Record structured trace spans from construction on (equivalent to
    /// `cluster.obs.tracer.set_enabled(true)` right after `new`).
    pub tracing: bool,
    /// Snapshot every registry instrument into the scrape series on this
    /// sim-time interval (`None` disables periodic scrapes).
    pub obs_scrape_interval: Option<SimDuration>,
    /// Escalate online invariant-monitor violations (closed-timestamp
    /// regressions, follower reads above the closed frontier, short commit
    /// waits, non-conforming placements) to panics. On by default so every
    /// test doubles as an invariant check; fault-injection tests that
    /// deliberately break an invariant turn it off and inspect
    /// `obs.monitors` instead.
    pub strict_monitors: bool,
    /// Dynamic range lifecycle: size/QPS-triggered splits, cold-range
    /// merges, and load-based lease/replica rebalancing. Off by default —
    /// clusters that enable it should also set `rpc_timeout`, because a
    /// split or merge drops uncommitted proposals and parked waiters of the
    /// reshaped ranges (clients recover by timeout + re-route).
    pub lifecycle: LifecycleConfig,
}

/// Trigger thresholds and pacing for the dynamic range lifecycle
/// (splits / merges / load-based rebalancing). See DESIGN.md §13.
#[derive(Clone, Copy, Debug)]
pub struct LifecycleConfig {
    /// Master switch; when false no lifecycle tick is ever scheduled.
    pub enabled: bool,
    /// Interval between lifecycle passes over the registry.
    pub interval: SimDuration,
    /// Split when a range's leaseholder store holds at least this many
    /// distinct keys.
    pub split_size_keys: usize,
    /// Split when a range's decayed QPS (read + write) reaches this many
    /// milli-queries/sec.
    pub split_qps_milli: u64,
    /// Merge a range into its left neighbor when *both* are below this
    /// decayed QPS (and jointly under half the size threshold).
    pub merge_qps_milli: u64,
    /// Hysteresis: a range touched by a split/merge (or an in-flight
    /// proposal) is left alone for this long, so fresh halves aren't
    /// immediately re-merged and vice versa.
    pub cooldown: SimDuration,
    /// Rebalance the lease toward a gateway region only when it generates
    /// at least this share (milli, 0..=1000) of the range's traffic.
    pub rebalance_share_milli: u64,
    /// Ignore ranges below this decayed QPS when rebalancing (noise floor).
    pub rebalance_min_qps_milli: u64,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            enabled: false,
            interval: SimDuration::from_secs(2),
            split_size_keys: 512,
            split_qps_milli: 200_000,
            merge_qps_milli: 2_000,
            cooldown: SimDuration::from_secs(10),
            rebalance_share_milli: 600,
            rebalance_min_qps_milli: 10_000,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let clock = ClockConfig::default();
        ClusterConfig {
            seed: 0,
            clock,
            closed_ts: ClosedTsParams {
                max_clock_offset: clock.max_offset,
                ..ClosedTsParams::default()
            },
            skew_amplitude: SimDuration(clock.max_offset.nanos() / 4),
            raft_heartbeat: SimDuration::from_millis(500),
            raft_election_timeout: SimDuration::from_millis(2_000),
            raft_tick_interval: SimDuration::from_millis(250),
            side_transport_interval: SimDuration::from_millis(50),
            lag_side_transport: true,
            rpc_timeout: None,
            commit_wait_holds_locks: false,
            pipelined_writes: true,
            parallel_commits: true,
            raft_flush_interval: SimDuration::ZERO,
            raft_quiescence: true,
            trace: std::env::var("MR_TRACE").is_ok(),
            lead_slack_override: None,
            gc_interval: SimDuration::from_secs(60),
            gc_ttl: SimDuration::from_secs(30),
            tracing: false,
            obs_scrape_interval: Some(SimDuration::from_secs(1)),
            strict_monitors: true,
            lifecycle: LifecycleConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Set `max_clock_offset`, keeping the derived fields consistent.
    pub fn with_max_offset(mut self, offset: SimDuration) -> Self {
        self.clock = ClockConfig::new(offset);
        self.closed_ts.max_clock_offset = offset;
        self.skew_amplitude = SimDuration(offset.nanos() / 4);
        self
    }
}

/// Staleness mode for non-transactional reads (§5.3).
#[derive(Clone, Copy, Debug)]
pub enum Staleness {
    /// A fresh, linearizable read at the gateway's current timestamp.
    Fresh,
    /// Exact-staleness: read at `now - ago`.
    ExactAgo(SimDuration),
    /// Exact-staleness at an absolute timestamp.
    ExactAt(Timestamp),
    /// Bounded staleness via `with_max_staleness(bound)`: negotiate the
    /// freshest locally-servable timestamp, no older than `now - bound`.
    BoundedMaxStaleness(SimDuration),
    /// Bounded staleness via `with_min_timestamp(ts)`: negotiate the
    /// freshest locally-servable timestamp, no older than `ts`.
    BoundedMinTimestamp(Timestamp),
}

/// Options for non-transactional reads.
#[derive(Clone, Copy, Debug)]
pub struct ReadOptions {
    pub staleness: Staleness,
    /// For bounded staleness: fall back to the leaseholder when the bound
    /// cannot be served locally (vs. returning an error).
    pub fallback_to_leaseholder: bool,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            staleness: Staleness::Fresh,
            fallback_to_leaseholder: true,
        }
    }
}

/// One simulated node: clock + replicas.
pub struct Node {
    pub id: NodeId,
    pub hlc: Hlc,
    pub replicas: HashMap<RangeId, Replica>,
}

/// Events on the simulation calendar.
enum Event {
    Rpc {
        from: NodeId,
        to: NodeId,
        env: Envelope,
    },
    Raft {
        to_node: NodeId,
        range: RangeId,
        gen: u32,
        from_peer: Peer,
        msg: RaftMsg<Batch>,
    },
    RaftTick,
    /// Ship one replica's batched Raft proposals (group-commit flush).
    RaftFlush {
        node: NodeId,
        range: RangeId,
    },
    SideTransport,
    GcTick,
    /// Periodic WAL fsync pass, scheduled only while the feature-gated
    /// `wal_skip_fsync_bug` is armed: with per-apply syncs deferred, this
    /// tick is the *only* fsync point, opening a window where acked writes
    /// are volatile.
    WalSyncTick,
    SideTransportDeliver {
        to: NodeId,
        updates: Vec<(RangeId, Timestamp, u64)>,
    },
    Wake(u64),
    RpcTimeout {
        req_id: u64,
    },
    /// Periodic observability scrape: refresh derived gauges and snapshot
    /// the registry into the scrape series.
    ObsScrape,
    /// Periodic range-lifecycle pass: split/merge triggers and one
    /// load-based rebalance step (scheduled only when
    /// `cfg.lifecycle.enabled`).
    LifecycleTick,
}

struct Envelope {
    req_id: u64,
    hlc_ts: Timestamp,
    body: Body,
}

enum Body {
    Req { range: RangeId, req: Request },
    Resp(KvResult<Response>),
}

struct PendingRpc {
    cont: Cont<KvResult<Response>>,
    /// The RPC's trace span, finished when the response/timeout arrives.
    /// Server-side evaluation attaches events to it via the request id.
    span: Option<SpanId>,
}

/// Attribution context of one in-flight RPC: the transaction it serves and
/// the latency component its round trip charges (if any), plus any time the
/// request spent parked behind a conflicting intent at the server. Also
/// feeds per-range latency regardless of transaction ownership.
struct ReqAttr {
    txn: Option<(TxnId, Component)>,
    sent_at: SimTime,
    range: RangeId,
    /// Set while the request sits in a lock wait-queue at the leaseholder.
    parked_at: Option<SimTime>,
    /// Completed lock-wait time within this round trip.
    parked_nanos: u64,
}

/// One in-flight transaction, as surfaced by [`Cluster::active_txns`].
#[derive(Clone, Debug)]
pub struct ActiveTxn {
    pub id: u64,
    pub gateway: NodeId,
    /// When the transaction opened (sim-time).
    pub start: SimTime,
    /// Its root trace span (`None` with tracing off).
    pub span: Option<SpanId>,
    /// Distinct ranges touched so far, sorted ascending.
    pub ranges: Vec<u64>,
}

/// Storage-engine/GC introspection of one range's leaseholder replica (see
/// [`Cluster::storage_info_of`]).
#[derive(Clone, Copy, Debug)]
pub struct RangeStorageInfo {
    /// The range's `gc.ttl` zone knob.
    pub gc_ttl: SimDuration,
    /// MVCC GC threshold: reads below this fail, history below is
    /// reclaimable.
    pub gc_threshold: Timestamp,
    pub memtable_versions: usize,
    pub sst_runs: usize,
    pub sst_versions: usize,
    pub wal_bytes: usize,
    pub wal_records: u64,
}

/// The simulated multi-region cluster.
pub struct Cluster {
    pub cfg: ClusterConfig,
    /// Observability bundle: metrics registry, tracer, scrape series,
    /// invariant monitors.
    pub obs: Obs,
    /// Append-only admin-plane event log (range lifecycle, lease transfers,
    /// row rehoming) backing `crdb_internal.cluster_events`.
    pub events: EventLog,
    /// Pre-bound instrument handles (hot-path increments).
    pub(crate) m: KvMetrics,
    /// Ambient trace parent: the span under which synchronously-entered
    /// client operations (txn begin, stale reads) open their spans. The SQL
    /// layer points this at the current statement's span.
    pub trace_parent: Option<SpanId>,
    /// Root span of the most recently *finished* SQL statement (set by the
    /// SQL layer), backing `crdb_internal.session_trace`.
    pub last_stmt_span: Option<SpanId>,
    queue: EventQueue<Event>,
    topo: Topology,
    rng: SimRng,
    nodes: Vec<Node>,
    registry: RangeRegistry,
    /// Reconfiguration generation per range (guards stale raft traffic).
    range_gens: HashMap<RangeId, u32>,
    pending: HashMap<u64, PendingRpc>,
    /// Attribution side-state for in-flight RPCs, keyed like `pending`.
    req_attr: HashMap<u64, ReqAttr>,
    /// Latency breakdowns of finished transactions, backing
    /// `crdb_internal.slow_txns` and the bench attribution export.
    pub attr_log: TxnAttrLog,
    wakes: HashMap<u64, Box<dyn FnOnce(&mut Cluster)>>,
    pub(crate) txns: HashMap<TxnId, TxnState>,
    next_req: u64,
    next_wake: u64,
    pub(crate) next_txn: u64,
    /// Client operations in flight (used by `run_until_quiescent`).
    outstanding_ops: usize,
    /// Active txn-record pushers, keyed by the blocked (range, key).
    pub(crate) active_pushers: std::collections::HashSet<(RangeId, Key)>,
    /// Last closed timestamp observed per replica by the scrape-time
    /// monotonicity monitor.
    monitor_closed: HashMap<(RangeId, NodeId), u64>,
    /// Whether the feature-gated follower-read bug is armed (see
    /// `arm_stale_read_bug`). Always false in normal builds.
    stale_read_bug: bool,
    /// Whether the feature-gated premature-ack bug is armed (see
    /// `arm_premature_ack_bug`). Always false in normal builds.
    pub(crate) premature_ack_bug: bool,
    /// Ranges whose recorded leaseholder crashed while holding the lease.
    /// An orphaned lease may be usurped by the next Raft leader even after
    /// the old holder restarts: the registry still names the old node, but
    /// a revived whole-region group can elect a *different* leader, and
    /// without this mark the alive-and-reachable guard in
    /// `maybe_claim_lease` would leave the lease pointing at a Raft
    /// follower forever (every proposal stalls, the range never recovers).
    orphaned_leases: std::collections::HashSet<RangeId>,
    /// Highest applied `ClaimLease` log index per range (all replicas of a
    /// range apply the same claim entry; only the first application moves
    /// the lease).
    lease_claims: HashMap<RangeId, u64>,
    /// Lifecycle lineage per range id (boot/split/merge origin, rebalance
    /// counters) — the `crdb_internal.ranges` lineage columns. Entries for
    /// retired ids (merged away) are kept as history.
    lineage: HashMap<RangeId, RangeLineage>,
    /// Last lifecycle action (proposal or application) touching a range;
    /// drives the split/merge cooldown hysteresis.
    last_lifecycle: HashMap<RangeId, SimTime>,
    /// Ranges whose lease was recently moved by the *load-based*
    /// rebalancer, possibly outside the configured preference. The
    /// replication report grants these a grace window (one cooldown) before
    /// flagging `WrongLeaseholder` — the next rebalance tick either keeps
    /// the move (still hot) or re-homes the lease.
    lease_rebalanced: HashMap<RangeId, SimTime>,
    /// Proposal time of an in-flight split, keyed by the parent range.
    split_pending: HashMap<RangeId, SimTime>,
    /// Propose→apply latency of every completed split, in order (nanos).
    split_latencies: Vec<u64>,
    /// When the lifecycle last split, merged, or rebalanced anything
    /// (convergence detection for benches).
    last_lifecycle_action: Option<SimTime>,
    /// Whether the feature-gated split-tscache bug is armed (see
    /// `arm_split_tscache_bug`). Always false in normal builds.
    split_tscache_bug: bool,
    /// Active protected timestamps (AOST/backup pins): per-range GC
    /// thresholds never advance past the oldest active protection.
    protected: ProtectedTimestamps,
    /// Whether the feature-gated WAL fsync-skip bug is armed (see
    /// `arm_wal_skip_fsync_bug`). Always false in normal builds.
    wal_skip_fsync_bug: bool,
}

impl Cluster {
    pub fn new(topo: Topology, mut cfg: ClusterConfig) -> Cluster {
        // A closed-timestamp promise must stay ahead of reader uncertainty
        // limits until the next side-transport publication lands: cover the
        // publication interval, twice the skew amplitude (gateway ahead,
        // leaseholder behind), and a fixed margin for delivery jitter.
        cfg.closed_ts.lead_slack = cfg.lead_slack_override.unwrap_or(
            cfg.side_transport_interval
                + SimDuration(2 * cfg.skew_amplitude.nanos())
                + SimDuration::from_millis(25),
        );
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let amp = cfg.skew_amplitude.nanos() as i64;
        let nodes = topo
            .node_ids()
            .map(|id| {
                let skew = if amp == 0 {
                    0
                } else {
                    rng.next_below(2 * amp as u64 + 1) as i64 - amp
                };
                Node {
                    id,
                    hlc: Hlc::new(SkewedClock::new(skew)),
                    replicas: HashMap::new(),
                }
            })
            .collect();
        let obs = Obs::new();
        if cfg.tracing {
            obs.tracer.set_enabled(true);
        }
        obs.monitors.set_strict(cfg.strict_monitors);
        let m = KvMetrics::bind(&obs.registry);
        let mut c = Cluster {
            cfg,
            obs,
            events: EventLog::new(),
            m,
            trace_parent: None,
            last_stmt_span: None,
            queue: EventQueue::new(),
            topo,
            rng,
            nodes,
            registry: RangeRegistry::new(),
            range_gens: HashMap::new(),
            pending: HashMap::new(),
            req_attr: HashMap::new(),
            attr_log: TxnAttrLog::new(),
            wakes: HashMap::new(),
            txns: HashMap::new(),
            next_req: 1,
            next_wake: 1,
            next_txn: 1,
            outstanding_ops: 0,
            active_pushers: std::collections::HashSet::new(),
            monitor_closed: HashMap::new(),
            stale_read_bug: false,
            premature_ack_bug: false,
            orphaned_leases: std::collections::HashSet::new(),
            lease_claims: HashMap::new(),
            lineage: HashMap::new(),
            last_lifecycle: HashMap::new(),
            lease_rebalanced: HashMap::new(),
            split_pending: HashMap::new(),
            split_latencies: Vec::new(),
            last_lifecycle_action: None,
            split_tscache_bug: false,
            protected: ProtectedTimestamps::new(),
            wal_skip_fsync_bug: false,
        };
        c.queue.schedule(cfg.raft_tick_interval, Event::RaftTick);
        c.queue
            .schedule(cfg.side_transport_interval, Event::SideTransport);
        c.queue.schedule(cfg.gc_interval, Event::GcTick);
        if let Some(interval) = cfg.obs_scrape_interval {
            c.queue.schedule(interval, Event::ObsScrape);
        }
        if cfg.lifecycle.enabled {
            c.queue
                .schedule(cfg.lifecycle.interval, Event::LifecycleTick);
        }
        c
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access for the fault-injection API (`fault.rs`).
    pub(crate) fn topo_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    pub fn registry(&self) -> &RangeRegistry {
        &self.registry
    }

    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Point-in-time copy of the KV counters (tests, harnesses). Richer
    /// queries — labels, histograms, dumps — go through `obs.registry`.
    pub fn metrics(&self) -> MetricsView {
        self.m.view()
    }

    /// In-flight (unfinished) transactions, sorted by id — the live
    /// registry behind `crdb_internal.active_operations`.
    pub fn active_txns(&self) -> Vec<ActiveTxn> {
        let mut out: Vec<ActiveTxn> = self
            .txns
            .values()
            .filter(|st| !st.finished)
            .map(|st| ActiveTxn {
                id: st.id.0,
                gateway: st.gateway,
                start: st.attr.start(),
                span: st.span,
                ranges: st.ranges.clone(),
            })
            .collect();
        out.sort_by_key(|t| t.id);
        out
    }

    /// Replication conformance report over every range, classified against
    /// its own zone config at the current sim-time. Ranges whose lease was
    /// moved by the load-based rebalancer within the lifecycle cooldown get
    /// a `WrongLeaseholder` grace window: the next rebalance tick either
    /// confirms the move (still hot) or re-homes the lease, so a transient
    /// load-following transfer is not reported as a violation.
    pub fn replication_report(&self) -> ReplicationReport {
        ReplicationReport::build_with_grace(
            self.queue.now(),
            &self.registry,
            &self.topo,
            &self.lease_rebalanced,
            self.cfg.lifecycle.cooldown,
        )
    }

    /// Lifecycle lineage of a range (split/merge origin, rebalance
    /// counters). `None` for ids never seen by the admin plane.
    pub fn lineage_of(&self, id: RangeId) -> Option<&RangeLineage> {
        self.lineage.get(&id)
    }

    /// Propose→apply latency of every completed split so far, in
    /// application order (nanoseconds).
    pub fn split_latencies(&self) -> &[u64] {
        &self.split_latencies
    }

    /// When the lifecycle last split, merged, or rebalanced anything.
    pub fn last_lifecycle_action(&self) -> Option<SimTime> {
        self.last_lifecycle_action
    }

    /// Invariant check after (re)placement: the allocator must never emit a
    /// placement that violates per-region constraints or puts the
    /// leaseholder outside the preferred regions. (Falling short of
    /// `num_replicas` is legal in clusters too small for the leftover
    /// stage, so under-replication is not checked here.)
    fn monitor_placement(&self, id: RangeId) {
        let Some(desc) = self.registry.get(id) else {
            return;
        };
        let c = report::classify(desc, &self.topo);
        let ok = !c.has(RangeStatus::ViolatingConstraints) && !c.has(RangeStatus::WrongLeaseholder);
        self.obs.monitors.check(
            &self.obs.registry,
            "placement_conformance",
            self.queue.now(),
            ok,
            || format!("range {id}: {}", c.detail()),
        );
    }

    /// The region name of a node's locality.
    pub fn region_name_of(&self, n: NodeId) -> &str {
        self.topo.region_name(self.topo.region_of(n))
    }

    /// The gateway's current HLC reading.
    pub fn hlc_now(&mut self, node: NodeId) -> Timestamp {
        let now = self.queue.now();
        self.nodes[node.0 as usize].hlc.now(now)
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Override a node's clock skew (clock-misbehaviour tests, §6.2.3).
    pub fn set_node_skew(&mut self, node: NodeId, skew_nanos: i64) {
        self.nodes[node.0 as usize].hlc.set_skew_nanos(skew_nanos);
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    pub fn fail_node(&mut self, n: NodeId) {
        self.topo.fail_node(n);
        self.mark_orphaned_leases();
    }

    pub fn revive_node(&mut self, n: NodeId) {
        self.topo.revive_node(n);
    }

    /// Crash `n` AND drop its volatile state: each replica recovers right
    /// away from its durable WAL + SSTs (see [`Replica::crash_volatile`]),
    /// so a later [`Cluster::revive_node`] resumes from exactly what was
    /// fsynced before the crash.
    pub fn crash_node_volatile(&mut self, n: NodeId) {
        self.fail_node(n);
        self.recover_node_volatile(n);
    }

    /// [`Cluster::crash_node_volatile`] for every node in a region.
    pub fn crash_region_volatile(&mut self, r: RegionId) {
        let nodes = self.topo.all_nodes_in_region(r);
        self.topo.fail_region(r);
        self.mark_orphaned_leases();
        for n in nodes {
            self.recover_node_volatile(n);
        }
    }

    /// Replay every replica of `n` from durable state. The Raft log
    /// truncates to its fsynced horizon only under the armed fsync-skip
    /// bug — a correct node syncs its log at append time, so nothing is
    /// ever above the horizon.
    fn recover_node_volatile(&mut self, n: NodeId) {
        let now = self.queue.now();
        let params = self.cfg.closed_ts;
        let max_off = self.cfg.clock.max_offset;
        let drop_log = self.wal_skip_fsync_bug;
        let hlc_now = self.nodes[n.0 as usize].hlc.now(now);
        // Past any read or promise the old incarnation could have served:
        // its own uncertainty bound, forwarded to the closed-timestamp
        // policy target (lead ranges promise future timestamps).
        let bound = hlc_now.add_duration(max_off);
        let mut recovered: Vec<(RangeId, u64, u64)> = Vec::new();
        {
            let node = &mut self.nodes[n.0 as usize];
            let mut rids: Vec<RangeId> = node.replicas.keys().copied().collect();
            rids.sort_unstable();
            for rid in rids {
                let rep = node.replicas.get_mut(&rid).unwrap();
                let conservative = bound.forward(params.target(rep.policy, bound));
                let info = rep.crash_volatile(conservative, drop_log);
                recovered.push((rid, info.replayed_records, info.applied_index));
            }
        }
        for (range, replayed, applied_index) in recovered {
            // The recovered closed frontier comes from the last durable
            // entry record — legitimately below side-transport promises the
            // old incarnation observed. Reset the monotonicity monitor's
            // baseline for the new incarnation.
            self.monitor_closed.remove(&(range, n));
            self.events.record(
                now,
                EventKind::WalRecovered {
                    range,
                    node: n,
                    replayed,
                    applied_index,
                },
            );
        }
    }

    /// Pin `ts` against garbage collection cluster-wide: per-range GC
    /// thresholds will not pass it until the returned handle is
    /// [released](Cluster::release_protected_timestamp). Backs AOST reads
    /// and backups that must reach arbitrarily far back.
    pub fn protect_timestamp(&mut self, ts: Timestamp) -> u64 {
        self.protected.protect(ts)
    }

    /// Release a protected-timestamp pin. Idempotent.
    pub fn release_protected_timestamp(&mut self, id: u64) -> bool {
        self.protected.release(id)
    }

    /// Active protected-timestamp pins.
    pub fn protected_timestamp_count(&self) -> usize {
        self.protected.len()
    }

    /// Storage/GC introspection of one range, read from its leaseholder
    /// replica. Backs the `crdb_internal.ranges` gc/storage columns.
    pub fn storage_info_of(&self, range: RangeId) -> Option<RangeStorageInfo> {
        let desc = self.registry.get(range)?;
        let rep = self.nodes[desc.leaseholder.0 as usize]
            .replicas
            .get(&range)?;
        Some(RangeStorageInfo {
            gc_ttl: desc.zone_config.gc_ttl,
            gc_threshold: rep.store.gc_threshold(),
            memtable_versions: rep.store.mem_version_count(),
            sst_runs: rep.store.sst_count(),
            sst_versions: rep.store.sst_version_count(),
            wal_bytes: rep.store.wal_bytes(),
            wal_records: rep.store.wal_record_count(),
        })
    }

    pub fn fail_region_by_name(&mut self, name: &str) {
        let r = self
            .topo
            .region_by_name(name)
            .unwrap_or_else(|| panic!("unknown region {name}"));
        self.topo.fail_region(r);
        self.mark_orphaned_leases();
    }

    pub fn revive_region_by_name(&mut self, name: &str) {
        let r = self
            .topo
            .region_by_name(name)
            .unwrap_or_else(|| panic!("unknown region {name}"));
        self.topo.revive_region(r);
    }

    pub fn fail_zone_of(&mut self, n: NodeId) {
        let z = self.topo.zone_of(n);
        self.topo.fail_zone(z);
        self.mark_orphaned_leases();
    }

    /// Record every range whose current leaseholder is dead. Called after
    /// each crash-style fault: a lease held by a crashed node stays
    /// usurpable (see `maybe_claim_lease`) until a new leaseholder is
    /// established, even if the old holder is revived in the meantime.
    pub(crate) fn mark_orphaned_leases(&mut self) {
        let dead: Vec<RangeId> = self
            .registry
            .iter()
            .filter(|d| !self.topo.is_node_alive(d.leaseholder))
            .map(|d| d.id)
            .collect();
        self.orphaned_leases.extend(dead);
    }

    /// Fault injection for the invariant monitors: forcibly regress the
    /// closed-timestamp frontier of one replica. The `closed_ts_monotonic`
    /// monitor must flag this at the next observability scrape.
    ///
    /// Thin wrapper over the fault-injection API so callers get the
    /// `fault_injected` event for free; prefer
    /// [`Cluster::inject_fault`] with [`crate::fault::FaultKind::RegressClosedTs`].
    pub fn fault_regress_closed_ts(&mut self, range: RangeId, node: NodeId, delta: SimDuration) {
        self.inject_fault(
            &crate::fault::FaultKind::RegressClosedTs { range, node, delta },
            None,
        );
    }

    /// The regression itself, shared by the fault-injection API.
    pub(crate) fn regress_closed_ts_internal(
        &mut self,
        range: RangeId,
        node: NodeId,
        delta: SimDuration,
    ) {
        let rep = self.nodes[node.0 as usize]
            .replicas
            .get_mut(&range)
            .unwrap_or_else(|| panic!("no replica of {range} on {node}"));
        rep.tracker.fault_regress(delta.nanos());
    }

    /// Arm the intentionally injected follower-read bug: followers serve
    /// reads even when their closed frontier has not reached the read's
    /// uncertainty limit, so lagging or partitioned followers return stale
    /// data for reads that claim freshness. Exists solely to prove the
    /// chaos history checker catches real consistency violations.
    #[cfg(feature = "chaos-bug-stale-read")]
    pub fn arm_stale_read_bug(&mut self) {
        self.stale_read_bug = true;
    }

    /// Arm the intentionally injected parallel-commit bug: the coordinator
    /// acknowledges a commit as soon as the STAGING record is written,
    /// without waiting for the in-flight pipelined writes to replicate, so
    /// a crash in the wrong moment loses acknowledged writes. Exists solely
    /// to prove the chaos history checker catches a premature ack.
    #[cfg(feature = "chaos-bug-premature-ack")]
    pub fn arm_premature_ack_bug(&mut self) {
        self.premature_ack_bug = true;
    }

    /// Arm the intentionally injected split bug: a range split installs the
    /// RHS half *without* carrying over the parent's timestamp-cache bound,
    /// so a write racing the split can commit below a timestamp the parent
    /// range already served a read at. Exists solely to prove the chaos
    /// history checker catches a split that loses replicated read state.
    #[cfg(feature = "chaos-bug-split-tscache")]
    pub fn arm_split_tscache_bug(&mut self) {
        self.split_tscache_bug = true;
    }

    /// Arm the intentionally injected durability bug: per-apply WAL fsyncs
    /// and Raft-log syncs are deferred, and a periodic [`Event::WalSyncTick`]
    /// becomes the *only* fsync point. A volatile crash between ticks loses
    /// writes the cluster already acknowledged. Exists solely to prove the
    /// chaos history checker catches a node that acks before its WAL fsync
    /// point.
    #[cfg(feature = "chaos-bug-wal-skip-fsync")]
    pub fn arm_wal_skip_fsync_bug(&mut self) {
        self.wal_skip_fsync_bug = true;
        for node in &mut self.nodes {
            for rep in node.replicas.values_mut() {
                rep.store.defer_sync = true;
                rep.raft.set_defer_log_sync(true);
            }
        }
        self.queue
            .schedule(SimDuration::from_secs(3), Event::WalSyncTick);
    }

    // ------------------------------------------------------------------
    // Admin: ranges
    // ------------------------------------------------------------------

    /// Create a range covering `span`, placing replicas per `zone_config`.
    pub fn create_range(
        &mut self,
        span: Span,
        zone_config: ZoneConfig,
    ) -> Result<RangeId, AllocError> {
        let out = allocate(&self.topo, &zone_config)?;
        let id = self.registry.next_range_id();
        self.install_range(id, span, zone_config, &out.replicas, out.leaseholder, None);
        self.lineage
            .insert(id, RangeLineage::boot(self.queue.now()));
        self.events.record(
            self.queue.now(),
            EventKind::RangeCreated {
                range: id,
                leaseholder: out.leaseholder,
            },
        );
        self.monitor_placement(id);
        Ok(id)
    }

    fn install_range(
        &mut self,
        id: RangeId,
        span: Span,
        zone_config: ZoneConfig,
        replicas: &[crate::allocator::Placement],
        leaseholder: NodeId,
        seed_state: Option<SeedState>,
    ) {
        let now = self.queue.now();
        let peer_nodes: Vec<NodeId> = replicas.iter().map(|p| p.node).collect();
        let voters: Vec<Peer> = replicas
            .iter()
            .enumerate()
            .filter(|(_, p)| p.voting)
            .map(|(i, _)| i as Peer)
            .collect();
        let learners: Vec<Peer> = replicas
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.voting)
            .map(|(i, _)| i as Peer)
            .collect();
        let policy = zone_config.closed_ts_policy;
        for (i, p) in replicas.iter().enumerate() {
            let rcfg = RaftConfig {
                id: i as Peer,
                voters: voters.clone(),
                learners: learners.clone(),
                election_timeout: self.cfg.raft_election_timeout,
                heartbeat_interval: self.cfg.raft_heartbeat,
                quiesce: self.cfg.raft_quiescence,
            };
            let mut raft = RaftNode::new(rcfg, now);
            if p.node == leaseholder {
                raft.bootstrap_leader(now);
            }
            let mut rep = Replica::new(id, p.node, i as Peer, peer_nodes.clone(), raft, policy);
            if let Some(seed) = &seed_state {
                rep.store = seed.store.clone();
                rep.txn_records = seed.txn_records.clone();
                rep.tracker = seed.tracker.clone();
                // The cloned engine still carries the previous incarnation's
                // WAL identity (old apply indices); this Raft group restarts
                // log indices from scratch, so re-anchor the engine on a
                // fresh durable checkpoint at applied index 0.
                rep.store.rebaseline(
                    seed.txn_records
                        .iter()
                        .map(|(id, r)| (id.0, r.to_storage())),
                    0,
                    seed.tracker.closed(),
                    now.nanos(),
                );
                if p.node == leaseholder {
                    rep.lease.inherit(seed.promised);
                    rep.tscache.raise_low_water(seed.tscache_low_water);
                }
            }
            if self.wal_skip_fsync_bug {
                rep.store.defer_sync = true;
                rep.raft.set_defer_log_sync(true);
            }
            self.nodes[p.node.0 as usize].replicas.insert(id, rep);
        }
        self.registry.insert(RangeDescriptor {
            id,
            span,
            replicas: replicas.to_vec(),
            leaseholder,
            zone_config,
        });
        *self.range_gens.entry(id).or_insert(0) += 1;
        // The fresh Raft group restarts log indices from scratch, so any
        // per-log-index dedup state from a previous incarnation would
        // wrongly swallow this group's first claims.
        self.lease_claims.remove(&id);
    }

    /// Re-place a range under a new zone configuration (used by `ALTER
    /// TABLE ... SET LOCALITY` and survivability changes). State transfer is
    /// instantaneous — call between workload phases.
    pub fn reconfigure_range(
        &mut self,
        id: RangeId,
        zone_config: ZoneConfig,
    ) -> Result<(), AllocError> {
        let out = allocate(&self.topo, &zone_config)?;
        let desc = self
            .registry
            .remove(id)
            .unwrap_or_else(|| panic!("no such range {id}"));
        // Snapshot authoritative state from the current leaseholder.
        let lh = &self.nodes[desc.leaseholder.0 as usize].replicas[&id];
        let seed = SeedState {
            store: lh.store.clone(),
            txn_records: lh.txn_records.clone(),
            tracker: lh.tracker.clone(),
            promised: lh.lease.promised(),
            tscache_low_water: lh.tscache.low_water(),
        };
        for n in desc.replica_nodes().collect::<Vec<_>>() {
            self.nodes[n.0 as usize].replicas.remove(&id);
        }
        self.install_range(
            id,
            desc.span,
            zone_config,
            &out.replicas,
            out.leaseholder,
            Some(seed),
        );
        // The replica set changed; restart the monotonicity baseline.
        self.monitor_closed.retain(|&(rid, _), _| rid != id);
        self.events.record(
            self.queue.now(),
            EventKind::ZoneConfigChanged {
                range: id,
                leaseholder: out.leaseholder,
            },
        );
        self.monitor_placement(id);
        Ok(())
    }

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
            let rep = node.replicas.get_mut(&range).expect("leaseholder replica");
            (rep.lease.promised(), hlc_now)
        };
        // Raft leadership transfer.
        let msgs = {
            let rep = self.nodes[old.0 as usize].replicas.get_mut(&range).unwrap();
            let target_peer = rep.peer_for_node(to).expect("target peer");
            rep.raft.transfer_leadership(target_peer)
        };
        self.dispatch_raft_msgs(old, range, msgs);
        // Lease metadata.
        {
            let rep = self.nodes[to.0 as usize]
                .replicas
                .get_mut(&range)
                .expect("target replica");
            rep.lease.inherit(promised);
            rep.tscache
                .raise_low_water(old_hlc.add_duration(self.cfg.clock.max_offset));
        }
        self.registry.get_mut(range).unwrap().leaseholder = to;
        self.orphaned_leases.remove(&range);
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

    /// Remove a range entirely (table drop or partition-layout rewrite).
    /// Any in-flight traffic for it is dropped.
    pub fn drop_range(&mut self, id: RangeId) {
        if let Some(desc) = self.registry.remove(id) {
            for n in desc.replica_nodes().collect::<Vec<_>>() {
                self.nodes[n.0 as usize].replicas.remove(&id);
            }
            *self.range_gens.entry(id).or_insert(0) += 1;
            self.monitor_closed.retain(|&(rid, _), _| rid != id);
            self.obs.load.forget_range(id.0);
            self.events
                .record(self.queue.now(), EventKind::RangeDropped { range: id });
        }
    }

    /// Read every live row of a range directly from its leaseholder's
    /// applied state (offline schema changes and DDL validation only).
    pub fn admin_scan_range(&mut self, id: RangeId) -> Vec<(Key, Value)> {
        let Some(desc) = self.registry.get(id) else {
            return Vec::new();
        };
        let (span, lh) = (desc.span.clone(), desc.leaseholder);
        let Some(rep) = self.nodes[lh.0 as usize].replicas.get(&id) else {
            return Vec::new();
        };
        rep.store.scan_latest_including_intents(&span)
    }

    /// Bulk-load a committed value into every replica of the covering
    /// range, bypassing the transaction protocol. For experiment setup only.
    pub fn preload(&mut self, key: Key, value: Value) {
        let ts = Timestamp::new(1, 0);
        let desc = self
            .registry
            .lookup(&key)
            .unwrap_or_else(|| panic!("no range covers {key:?}"))
            .clone();
        for n in desc.replica_nodes() {
            if let Some(rep) = self.nodes[n.0 as usize].replicas.get_mut(&desc.id) {
                rep.store.preload(key.clone(), value.clone(), ts);
            }
        }
    }

    // ------------------------------------------------------------------
    // Admin: range lifecycle (splits, merges, load-based rebalancing)
    // ------------------------------------------------------------------

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
    /// preconditions (adjacency, identical zone config, live leaseholders)
    /// don't hold. Returns whether a merge was proposed.
    pub fn admin_merge_at(&mut self, key: Key) -> bool {
        let Some(ld) = self.registry.lookup(&key).cloned() else {
            return false;
        };
        if ld.span.end.is_empty() {
            return false; // unbounded span: no right-hand neighbor
        }
        let Some(rd) = self.registry.lookup(&ld.span.end).cloned() else {
            return false;
        };
        if rd.span.start != ld.span.end || rd.zone_config != ld.zone_config {
            return false;
        }
        self.propose_merge(&ld, rd.id)
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
        let msgs = self.nodes[leader.0 as usize]
            .replicas
            .get_mut(&desc.id)?
            .propose_lifecycle(CmdOp::Split { split_key, rhs }, now)?;
        self.split_pending.insert(desc.id, now);
        self.last_lifecycle.insert(desc.id, now);
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
        let msgs = self.nodes[leader.0 as usize]
            .replicas
            .get_mut(&ld.id)
            .and_then(|rep| rep.propose_lifecycle(CmdOp::Merge { rhs }, now));
        let Some(msgs) = msgs else {
            return false;
        };
        self.last_lifecycle.insert(ld.id, now);
        self.last_lifecycle.insert(rhs, now);
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
    fn apply_split(&mut self, lhs: RangeId, split_key: Key, rhs: RangeId, _index: u64) {
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
        let Some(rep) = self.nodes[lh.0 as usize].replicas.get(&lhs) else {
            return;
        };
        // Authoritative applied state from the leaseholder. Log order means
        // every command proposed before the split entry has already been
        // applied to this store — a transaction straddling the split finds
        // its intents (and record) on whichever half each key landed.
        let mut lhs_store = rep.store.clone();
        let txn_records = rep.txn_records.clone();
        let tracker = rep.tracker.clone();
        let promised = rep.lease.promised();
        let low_water = rep.tscache.low_water();
        let rhs_store = lhs_store.split_off(&split_key);
        // Reads the parent served are invisible to the halves' empty
        // timestamp caches, so both must refuse writes below anything the
        // parent could have served: its HLC plus the clock uncertainty
        // window (the same rule as a lease transfer).
        let bound = low_water.max(hlc_now.add_duration(self.cfg.clock.max_offset));
        let rhs_bound = if self.split_tscache_bug {
            // Injected canary: the RHS forgets the parent's read history.
            Timestamp::ZERO
        } else {
            bound
        };
        for n in desc.replica_nodes().collect::<Vec<_>>() {
            self.nodes[n.0 as usize].replicas.remove(&lhs);
        }
        self.registry.remove(lhs);
        let lhs_span = Span::new(desc.span.start.clone(), split_key.clone());
        let rhs_span = Span::new(split_key.clone(), desc.span.end.clone());
        self.install_range(
            lhs,
            lhs_span,
            desc.zone_config.clone(),
            &desc.replicas,
            lh,
            Some(SeedState {
                store: lhs_store,
                txn_records: txn_records.clone(),
                tracker: tracker.clone(),
                promised,
                tscache_low_water: bound,
            }),
        );
        self.install_range(
            rhs,
            rhs_span,
            desc.zone_config.clone(),
            &desc.replicas,
            lh,
            Some(SeedState {
                store: rhs_store,
                txn_records,
                tracker,
                promised,
                tscache_low_water: rhs_bound,
            }),
        );
        self.monitor_closed.retain(|&(rid, _), _| rid != lhs);
        // Both halves restart load accounting: the parent's decayed rates
        // and key samples no longer describe either half alone.
        self.obs.load.forget_range(lhs.0);
        self.last_lifecycle.insert(lhs, now);
        self.last_lifecycle.insert(rhs, now);
        let key_disp = format!("{split_key:?}");
        if let Some(l) = self.lineage.get_mut(&lhs) {
            l.splits += 1;
        }
        self.lineage
            .insert(rhs, RangeLineage::split_child(lhs, key_disp.clone(), now));
        if let Some(t0) = self.split_pending.remove(&lhs) {
            self.split_latencies.push((now - t0).nanos());
        }
        self.last_lifecycle_action = Some(now);
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
    fn apply_merge(&mut self, lhs: RangeId, rhs: RangeId, _index: u64) {
        let Some(ld) = self.registry.get(lhs).cloned() else {
            return;
        };
        let Some(rd) = self.registry.get(rhs).cloned() else {
            return;
        };
        if ld.span.end.is_empty()
            || rd.span.start != ld.span.end
            || ld.zone_config != rd.zone_config
        {
            return;
        }
        let now = self.queue.now();
        let lh = ld.leaseholder;
        let off = self.cfg.clock.max_offset;
        let lhs_hlc = self.nodes[lh.0 as usize].hlc.now(now);
        let rhs_hlc = self.nodes[rd.leaseholder.0 as usize].hlc.now(now);
        let Some(lrep) = self.nodes[lh.0 as usize].replicas.get(&lhs) else {
            return;
        };
        let mut store = lrep.store.clone();
        let mut txn_records = lrep.txn_records.clone();
        let ltracker = lrep.tracker.clone();
        let lpromised = lrep.lease.promised();
        let llow = lrep.tscache.low_water();
        let Some(rrep) = self.nodes[rd.leaseholder.0 as usize].replicas.get(&rhs) else {
            return;
        };
        let rstore = rrep.store.clone();
        let rrecords = rrep.txn_records.clone();
        let rtracker = rrep.tracker.clone();
        let rpromised = rrep.lease.promised();
        let rlow = rrep.tscache.low_water();
        store.absorb(rstore);
        // Txn records are anchored at one key, which lives in exactly one
        // of the two spans — collisions cannot happen; keep both sides.
        for (id, rec) in rrecords {
            txn_records.entry(id).or_insert(rec);
        }
        // The merged closed frontier may take the further-ahead side: no
        // write below either side's lease promise can commit afterwards
        // (the merged lease inherits the max), so the stronger promise
        // holds for the whole union.
        let tracker = if rtracker.closed() > ltracker.closed() {
            rtracker
        } else {
            ltracker
        };
        let promised = lpromised.max(rpromised);
        let bound = llow
            .max(rlow)
            .max(lhs_hlc.add_duration(off))
            .max(rhs_hlc.add_duration(off));
        for n in ld.replica_nodes().collect::<Vec<_>>() {
            self.nodes[n.0 as usize].replicas.remove(&lhs);
        }
        for n in rd.replica_nodes().collect::<Vec<_>>() {
            self.nodes[n.0 as usize].replicas.remove(&rhs);
        }
        self.registry.remove(lhs);
        self.registry.remove(rhs);
        // Kill the absorbed group's stale Raft traffic (the install below
        // only bumps the surviving id's generation).
        *self.range_gens.entry(rhs).or_insert(0) += 1;
        self.install_range(
            lhs,
            Span::new(ld.span.start.clone(), rd.span.end.clone()),
            ld.zone_config.clone(),
            &ld.replicas,
            lh,
            Some(SeedState {
                store,
                txn_records,
                tracker,
                promised,
                tscache_low_water: bound,
            }),
        );
        self.monitor_closed
            .retain(|&(rid, _), _| rid != lhs && rid != rhs);
        self.obs.load.forget_range(lhs.0);
        self.obs.load.forget_range(rhs.0);
        self.lease_claims.remove(&rhs);
        self.orphaned_leases.remove(&rhs);
        self.lease_rebalanced.remove(&rhs);
        self.split_pending.remove(&rhs);
        self.last_lifecycle.insert(lhs, now);
        self.last_lifecycle.remove(&rhs);
        if let Some(l) = self.lineage.get_mut(&lhs) {
            l.merges_absorbed += 1;
        }
        if let Some(l) = self.lineage.get_mut(&rhs) {
            l.merged_into = Some(lhs);
        }
        self.last_lifecycle_action = Some(now);
        self.events
            .record(now, EventKind::RangeMerge { range: lhs, rhs });
    }

    /// One lifecycle pass (`cfg.lifecycle.interval`): QPS/size-triggered
    /// splits with the split key at the sampled-load median, cold-range
    /// merges of adjacent same-config neighbors, then one load-based
    /// rebalance step. Every trigger honors the per-range cooldown.
    fn handle_lifecycle_tick(&mut self) {
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
            let split_key = Key::from_vec(raw);
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
            if ld.span.end.is_empty() || !self.cooldown_passed(id, now) {
                continue;
            }
            let Some(rd) = self.registry.lookup(&ld.span.end).cloned() else {
                continue;
            };
            if rd.span.start != ld.span.end
                || rd.zone_config != ld.zone_config
                || !self.cooldown_passed(rd.id, now)
            {
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
        match self.last_lifecycle.get(&id) {
            Some(&t) => now - t >= self.cfg.lifecycle.cooldown,
            None => true,
        }
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
            if let Some(to) = crate::allocator::plan_lease_transfer(&self.topo, &desc, dom) {
                let from = desc.leaseholder;
                self.transfer_lease(id, to);
                self.lease_rebalanced.insert(id, now);
                if let Some(l) = self.lineage.get_mut(&id) {
                    l.lease_rebalances += 1;
                }
                self.last_lifecycle_action = Some(now);
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
            if let Some((from, to)) = crate::allocator::plan_replica_move(&self.topo, &desc, dom) {
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
        let Some(rep) = self.nodes[lh.0 as usize].replicas.get(&id) else {
            return;
        };
        let seed = SeedState {
            store: rep.store.clone(),
            txn_records: rep.txn_records.clone(),
            tracker: rep.tracker.clone(),
            promised: rep.lease.promised(),
            tscache_low_water: rep.tscache.low_water(),
        };
        let mut replicas = desc.replicas.clone();
        for p in replicas.iter_mut() {
            if p.node == from {
                p.node = to;
            }
        }
        for n in desc.replica_nodes().collect::<Vec<_>>() {
            self.nodes[n.0 as usize].replicas.remove(&id);
        }
        self.registry.remove(id);
        self.install_range(
            id,
            desc.span.clone(),
            desc.zone_config.clone(),
            &replicas,
            lh,
            Some(seed),
        );
        self.monitor_closed.retain(|&(rid, _), _| rid != id);
        self.last_lifecycle.insert(id, now);
        if let Some(l) = self.lineage.get_mut(&id) {
            l.replica_rebalances += 1;
        }
        self.last_lifecycle_action = Some(now);
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
        let mut ids: Vec<RangeId> = self.lease_rebalanced.keys().copied().collect();
        ids.sort_unstable_by_key(|id| id.0);
        for id in ids {
            let Some(desc) = self.registry.get(id).cloned() else {
                self.lease_rebalanced.remove(&id);
                continue;
            };
            let prefs = desc.zone_config.lease_preferences.clone();
            let cur = self.topo.region_of(desc.leaseholder);
            if prefs.is_empty() || prefs.contains(&cur) {
                self.lease_rebalanced.remove(&id);
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
                        self.lease_rebalanced.insert(id, now);
                        continue;
                    }
                }
            }
            for pref in prefs {
                if let Some(to) = crate::allocator::plan_lease_transfer(&self.topo, &desc, pref) {
                    self.transfer_lease(id, to);
                    self.lease_rebalanced.remove(&id);
                    self.last_lifecycle_action = Some(now);
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Process one event. Returns false when the calendar is empty.
    pub fn step(&mut self) -> bool {
        let Some((_, ev)) = self.queue.pop() else {
            return false;
        };
        self.m.events_processed.inc();
        match &ev {
            Event::Rpc { .. } => self.m.ev_rpc.inc(),
            Event::Raft { .. } | Event::RaftFlush { .. } => self.m.ev_raft.inc(),
            Event::RaftTick => self.m.ev_tick.inc(),
            Event::SideTransport | Event::SideTransportDeliver { .. } => self.m.ev_side.inc(),
            Event::Wake(_) => self.m.ev_wake.inc(),
            Event::RpcTimeout { .. }
            | Event::GcTick
            | Event::WalSyncTick
            | Event::ObsScrape
            | Event::LifecycleTick => {}
        }
        match ev {
            Event::Rpc { from, to, env } => self.handle_rpc(from, to, env),
            Event::Raft {
                to_node,
                range,
                gen,
                from_peer,
                msg,
            } => {
                if self.cfg.trace {
                    let kind = match &msg {
                        mr_raft::RaftMsg::AppendEntries {
                            entries, commit, ..
                        } => {
                            format!("append(n={}, commit={commit})", entries.len())
                        }
                        mr_raft::RaftMsg::AppendResp {
                            success,
                            match_index,
                            ..
                        } => {
                            format!("resp(ok={success}, match={match_index})")
                        }
                        mr_raft::RaftMsg::RequestVote { .. } => "vote?".into(),
                        mr_raft::RaftMsg::VoteResp { .. } => "vote!".into(),
                        mr_raft::RaftMsg::TimeoutNow { .. } => "timeoutnow".into(),
                        mr_raft::RaftMsg::Quiesce { commit, .. } => {
                            format!("quiesce(commit={commit})")
                        }
                    };
                    eprintln!(
                        "[{}] raft {from_peer}->{to_node} {range} {kind}",
                        self.queue.now()
                    );
                }
                self.handle_raft(to_node, range, gen, from_peer, msg)
            }
            Event::RaftTick => self.handle_raft_tick(),
            Event::RaftFlush { node, range } => self.handle_raft_flush(node, range),
            Event::SideTransport => self.handle_side_transport(),
            Event::GcTick => self.handle_gc_tick(),
            Event::WalSyncTick => self.handle_wal_sync_tick(),
            Event::SideTransportDeliver { to, updates } => {
                self.handle_side_transport_deliver(to, updates)
            }
            Event::Wake(id) => {
                if let Some(f) = self.wakes.remove(&id) {
                    f(self);
                }
            }
            Event::RpcTimeout { req_id } => {
                if let Some(p) = self.pending.remove(&req_id) {
                    let now = self.queue.now();
                    self.obs.tracer.attr(p.span, "result", "timeout");
                    self.obs.tracer.finish(p.span, now);
                    // Charge the timed-out round trip to its transaction
                    // (real elapsed time), but keep per-range latency clean:
                    // no response was served.
                    self.finish_req_attr(req_id, now, false);
                    (p.cont)(self, Err(KvError::RangeUnavailable { range: RangeId(0) }));
                }
            }
            Event::ObsScrape => self.handle_obs_scrape(),
            Event::LifecycleTick => self.handle_lifecycle_tick(),
        }
        true
    }

    /// Run until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.queue.peek_time().is_some_and(|pt| pt <= t) {
            self.step();
        }
    }

    /// Run until all submitted client operations have completed. Panics if
    /// simulated time passes `deadline` first (indicates a hang).
    pub fn run_until_quiescent(&mut self, deadline: SimTime) {
        while self.outstanding_ops > 0 {
            assert!(
                self.queue.now() <= deadline,
                "cluster did not quiesce by {deadline}: {} ops outstanding",
                self.outstanding_ops
            );
            assert!(self.step(), "event queue drained with ops outstanding");
        }
    }

    pub fn outstanding_ops(&self) -> usize {
        self.outstanding_ops
    }

    pub(crate) fn op_started(&mut self) {
        self.outstanding_ops += 1;
    }

    pub(crate) fn op_finished(&mut self) {
        debug_assert!(self.outstanding_ops > 0);
        self.outstanding_ops -= 1;
    }

    /// Schedule `f` to run after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, f: Box<dyn FnOnce(&mut Cluster)>) {
        let id = self.next_wake;
        self.next_wake += 1;
        self.wakes.insert(id, f);
        self.queue.schedule(delay, Event::Wake(id));
    }

    // ------------------------------------------------------------------
    // Transport
    // ------------------------------------------------------------------

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
        let req_id = self.next_req;
        self.next_req += 1;
        self.m.rpcs_sent.inc();
        self.m.rpcs_by_kind[req_kind_index(&req)].inc();
        let now = self.queue.now();
        // Lifecycle signals: which gateway region drives this range (lease
        // rebalancing) and which keys it is asked for (split-point median).
        self.obs
            .load
            .record_gateway(now, range.0, self.topo.region_of(gateway).0);
        self.obs
            .load
            .sample_key(range.0, req.routing_key().as_slice().to_vec());
        let span = self.obs.tracer.start(rpc_span_name(&req), parent, now);
        if span.is_some() {
            self.obs
                .tracer
                .attr(span, "from", format!("n{}", gateway.0));
            self.obs.tracer.attr(
                span,
                "from_region",
                self.region_name_of(gateway).to_string(),
            );
            self.obs.tracer.attr(span, "to", format!("n{}", target.0));
            self.obs
                .tracer
                .attr(span, "to_region", self.region_name_of(target).to_string());
            self.obs.tracer.attr(span, "range", format!("{range}"));
        }
        let hlc_ts = self.nodes[gateway.0 as usize].hlc.now(now);
        match self.topo.link(gateway, target, &mut self.rng) {
            Link::Deliver(d) => {
                self.req_attr.insert(
                    req_id,
                    ReqAttr {
                        txn: attribution::req_attribution(&req),
                        sent_at: now,
                        range,
                        parked_at: None,
                        parked_nanos: 0,
                    },
                );
                self.pending.insert(req_id, PendingRpc { cont, span });
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

    /// Close an RPC's attribution entry: fold any still-open lock-wait
    /// interval, record per-range latency (responses only), and charge the
    /// round trip to the owning transaction's accumulator — carving the
    /// parked portion out as `lock_wait`.
    fn finish_req_attr(&mut self, req_id: u64, now: SimTime, served: bool) {
        let Some(mut a) = self.req_attr.remove(&req_id) else {
            return;
        };
        if let Some(p) = a.parked_at.take() {
            a.parked_nanos += (now - p).nanos();
        }
        if served {
            self.obs
                .load
                .record_latency(now, a.range.0, (now - a.sent_at).nanos());
        }
        if let Some((id, comp)) = a.txn {
            if let Some(st) = self.txns.get_mut(&id) {
                st.attr.charge_split(comp, a.sent_at, now, a.parked_nanos);
                if let Err(i) = st.ranges.binary_search(&a.range.0) {
                    st.ranges.insert(i, a.range.0);
                }
            }
        }
    }

    fn send_response(&mut self, from: NodeId, path: ReplyPath, result: KvResult<Response>) {
        let now = self.queue.now();
        let hlc_ts = self.nodes[from.0 as usize].hlc.now(now);
        match self.topo.link(from, path.gateway, &mut self.rng) {
            Link::Deliver(d) => {
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
            Link::Unreachable => {
                // Gateway unreachable; response dropped (its timeout fires).
            }
        }
    }

    fn dispatch_raft_msgs(
        &mut self,
        from_node: NodeId,
        range: RangeId,
        msgs: Vec<(Peer, RaftMsg<Batch>)>,
    ) {
        if msgs.is_empty() {
            return;
        }
        let gen = *self.range_gens.get(&range).unwrap_or(&0);
        let Some(rep) = self.nodes[from_node.0 as usize].replicas.get(&range) else {
            return;
        };
        let from_peer = rep.peer;
        for (to_peer, msg) in msgs {
            let to_node = rep.peer_nodes[to_peer as usize];
            match self.topo.link(from_node, to_node, &mut self.rng) {
                Link::Deliver(d) => {
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
                Link::Unreachable => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle_rpc(&mut self, from: NodeId, to: NodeId, env: Envelope) {
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
            Body::Resp(result) => {
                if let Some(p) = self.pending.remove(&env.req_id) {
                    if p.span.is_some() {
                        let outcome = match &result {
                            Ok(_) => "ok".to_string(),
                            Err(e) => format!("err: {e}"),
                        };
                        self.obs.tracer.attr(p.span, "result", outcome);
                    }
                    self.obs.tracer.finish(p.span, now);
                    self.finish_req_attr(env.req_id, now, true);
                    (p.cont)(self, result);
                }
            }
        }
    }

    /// Evaluate a request on the replica of `range` at `node`, dispatching
    /// whatever the evaluation produces.
    pub(crate) fn evaluate_at(
        &mut self,
        node: NodeId,
        range: RangeId,
        req: Request,
        path: ReplyPath,
    ) {
        let now = self.queue.now();
        // A request re-entering evaluation after being unparked closes its
        // lock-wait interval (charged as `lock_wait` when the RPC finishes).
        if let Some(a) = self.req_attr.get_mut(&path.req_id) {
            if let Some(p) = a.parked_at.take() {
                a.parked_nanos += (now - p).nanos();
            }
        }
        let Some(desc) = self.registry.get(range) else {
            let key = req.routing_key().clone();
            self.send_response(node, path, Err(KvError::NoSuchRange { key }));
            return;
        };
        // A split may have narrowed this range while the RPC was in flight:
        // the id still routes, but the key now belongs to the other half.
        // Redirect so the dist-sender re-resolves against the registry —
        // serving from the narrowed replica would silently miss the moved
        // keys.
        if !desc.span.contains(req.routing_key()) {
            let err = KvError::NotLeaseholder {
                range,
                leaseholder: None,
            };
            self.send_response(node, path, Err(err));
            return;
        }
        let is_leaseholder = desc.leaseholder == node;
        let leaseholder = Some(desc.leaseholder);
        let params = self.cfg.closed_ts;
        let is_follower_read = !is_leaseholder && !req.is_write();
        // For the follower-read invariant monitor: the uncertainty limit a
        // point read or scan evaluates under (the follower gate requires the
        // closed frontier to have reached it).
        let read_limit = match &req {
            Request::Get { ctx, .. } | Request::Scan { ctx, .. } => Some(ctx.uncertainty_limit),
            _ => None,
        };
        let req_is_read = req.is_read();
        let req_is_write = req.is_write();
        let wbytes = attribution::write_bytes(&req);
        let has_replica = self.nodes[node.0 as usize].replicas.contains_key(&range);
        if !has_replica {
            let err = KvError::NotLeaseholder { range, leaseholder };
            self.send_response(node, path, Err(err));
            return;
        }
        let stale_read_bug = self.stale_read_bug;
        let outcome = {
            let n = &mut self.nodes[node.0 as usize];
            let Node { hlc, replicas, .. } = n;
            let rep = replicas.get_mut(&range).unwrap();
            let ctx = EvalCtx {
                now,
                params: &params,
                is_leaseholder,
                leaseholder,
                stale_read_bug,
            };
            rep.evaluate(req, path, hlc, &ctx)
        };
        if self.cfg.trace {
            let kind = match &outcome {
                EvalOutcome::Reply(Ok(_)) => "reply-ok".to_string(),
                EvalOutcome::Reply(Err(e)) => format!("reply-err {e}"),
                EvalOutcome::Parked { .. } => "parked".to_string(),
                EvalOutcome::Proposed { .. } => "proposed".to_string(),
            };
            eprintln!(
                "[{}] eval at {node} range {range} lh={is_leaseholder} -> {kind}",
                self.queue.now()
            );
        }
        // Server-side causality: annotate the in-flight RPC's span with
        // where and how the request evaluated.
        let rpc_span = self.pending.get(&path.req_id).and_then(|p| p.span);
        if rpc_span.is_some() {
            let kind = match &outcome {
                EvalOutcome::Reply(Ok(_)) => "reply-ok".to_string(),
                EvalOutcome::Reply(Err(e)) => format!("reply-err: {e}"),
                EvalOutcome::Parked { holder, .. } => format!("parked behind {}", holder.id),
                EvalOutcome::Proposed { .. } => "proposed to raft".to_string(),
            };
            let msg = format!(
                "eval at n{} ({}) lh={is_leaseholder}: {kind}",
                node.0,
                self.region_name_of(node)
            );
            self.obs.tracer.event(rpc_span, now, msg);
        }
        match outcome {
            EvalOutcome::Reply(result) => {
                if is_follower_read {
                    match &result {
                        Ok(_) => {
                            self.m.follower_reads_served.inc();
                            // A follower may only serve a read once its
                            // closed frontier covers the read's uncertainty
                            // limit (§5.1).
                            if let Some(limit) = read_limit {
                                let closed = self.nodes[node.0 as usize]
                                    .replicas
                                    .get(&range)
                                    .map(|r| r.tracker.closed());
                                if let Some(closed) = closed {
                                    self.obs.monitors.check(
                                        &self.obs.registry,
                                        "follower_read_closed",
                                        now,
                                        limit <= closed,
                                        || {
                                            format!(
                                                "range {range} at n{}: read limit {limit} above \
                                             closed frontier {closed}",
                                                node.0
                                            )
                                        },
                                    );
                                }
                            }
                        }
                        // Uncertainty is part of the protocol, not a
                        // locality miss; count only true redirects.
                        Err(e) if e.is_redirect() => self.m.follower_read_redirects.inc(),
                        Err(_) => {}
                    }
                } else if is_leaseholder && req_is_read && result.is_ok() {
                    // Leaseholder read fast path: served off local MVCC
                    // state under the leader lease, without touching Raft —
                    // one avoided proposal (and, on a quiesced range, no
                    // un-quiesce: reads don't wake the group).
                    self.m.read_fast_path.inc();
                }
                if req_is_read && result.is_ok() {
                    // Served read: one unit of per-range read load.
                    self.obs.load.record_read(now, range.0);
                }
                self.send_response(node, path, result);
            }
            EvalOutcome::Parked { key, holder } => {
                self.m.parked_requests.inc();
                if let Some(a) = self.req_attr.get_mut(&path.req_id) {
                    a.parked_at = Some(now);
                }
                self.start_pusher(node, range, key, holder);
            }
            EvalOutcome::Proposed { msgs } => {
                if req_is_write {
                    // Accepted write: per-range write load with its logical
                    // key+value payload.
                    self.obs.load.record_write(now, range.0, wbytes);
                }
                self.dispatch_raft_msgs(node, range, msgs);
                self.pump_replica(node, range);
                self.schedule_raft_flush(node, range);
            }
        }
    }

    /// Schedule a group-commit flush for a replica holding batched Raft
    /// proposals. One flush event serves every proposal accepted before it
    /// fires, so proposals landing at the same sim-instant — a txn's
    /// pipelined intents plus its STAGING record — replicate in a single
    /// consensus round. The heartbeat tick rebroadcast is the safety net if
    /// the flush is lost to a crash.
    fn schedule_raft_flush(&mut self, node: NodeId, range: RangeId) {
        let delay = self.cfg.raft_flush_interval;
        let Some(rep) = self.nodes[node.0 as usize].replicas.get_mut(&range) else {
            return;
        };
        if !rep.has_pending_batch() || rep.flush_scheduled {
            return;
        }
        rep.flush_scheduled = true;
        self.queue.schedule(delay, Event::RaftFlush { node, range });
    }

    fn handle_raft_flush(&mut self, node: NodeId, range: RangeId) {
        let now = self.queue.now();
        let (msgs, effects) = {
            let Some(rep) = self.nodes[node.0 as usize].replicas.get_mut(&range) else {
                return;
            };
            rep.flush_scheduled = false;
            rep.flush_batch(now)
        };
        if !self.topo.is_node_alive(node) {
            return;
        }
        // Effects here are NotLeaseholder replies for commands whose buffer
        // outlived this replica's leadership — they must still be answered.
        self.dispatch_effects(node, range, effects);
        self.dispatch_raft_msgs(node, range, msgs);
        self.pump_replica(node, range);
    }

    fn handle_raft(
        &mut self,
        to_node: NodeId,
        range: RangeId,
        gen: u32,
        from_peer: Peer,
        msg: RaftMsg<Batch>,
    ) {
        if !self.topo.is_node_alive(to_node) {
            return;
        }
        if self.range_gens.get(&range).copied().unwrap_or(0) != gen {
            return; // stale traffic from a reconfigured group
        }
        let now = self.queue.now();
        let (out, noop) = {
            let Some(rep) = self.nodes[to_node.0 as usize].replicas.get_mut(&range) else {
                return;
            };
            let out = rep.raft.step(from_peer, msg, now);
            let noop = rep.maybe_propose_leader_noop(now);
            (out, noop)
        };
        self.dispatch_raft_msgs(to_node, range, out);
        self.dispatch_raft_msgs(to_node, range, noop);
        self.pump_replica(to_node, range);
        self.maybe_claim_lease(to_node, range);
    }

    /// Apply committed entries on a replica and dispatch resulting effects,
    /// looping until no more effects are produced.
    fn pump_replica(&mut self, node: NodeId, range: RangeId) {
        let now_nanos = self.queue.now().nanos();
        loop {
            let effects = {
                let Some(rep) = self.nodes[node.0 as usize].replicas.get_mut(&range) else {
                    return;
                };
                let effects = rep.apply_committed();
                // Fsync point: every applied entry is sealed into the WAL;
                // sync before acking (no-op under the armed fsync-skip bug).
                rep.store.sync(now_nanos);
                effects
            };
            if effects.is_empty() {
                return;
            }
            self.dispatch_effects(node, range, effects);
        }
    }

    /// Dispatch replica effects: client replies, re-evaluations of unparked
    /// waiters, and lease-claim applications. Shared by the apply pump and
    /// the batch flush (which can emit `NotLeaseholder` replies for
    /// commands buffered across a leadership loss).
    fn dispatch_effects(&mut self, node: NodeId, range: RangeId, effects: Vec<Effect>) {
        for eff in effects {
            match eff {
                Effect::Reply { path, result } => {
                    let rpc_span = self.pending.get(&path.req_id).and_then(|p| p.span);
                    if rpc_span.is_some() {
                        let now = self.queue.now();
                        let msg = format!(
                            "raft applied at n{} ({}), replying",
                            node.0,
                            self.region_name_of(node)
                        );
                        self.obs.tracer.event(rpc_span, now, msg);
                    }
                    self.send_response(node, path, result);
                }
                Effect::ReEval { waiter } => {
                    // A split/merge applied earlier in this same effects
                    // batch may have removed the replica (surgery drops
                    // parked waiters; their RPCs time out and re-route).
                    let parked = self.nodes[node.0 as usize]
                        .replicas
                        .get_mut(&range)
                        .and_then(|rep| rep.unpark(waiter));
                    if let Some(p) = parked {
                        self.evaluate_at(node, range, p.req, p.path);
                    }
                }
                Effect::LeaseApplied {
                    node: claimant,
                    index,
                } => {
                    self.apply_lease_claim(range, claimant, index);
                }
                Effect::SplitApplied {
                    split_key,
                    rhs,
                    index,
                } => {
                    self.apply_split(range, split_key, rhs, index);
                }
                Effect::MergeApplied { rhs, index } => {
                    self.apply_merge(range, rhs, index);
                }
            }
        }
    }

    /// After Raft activity, align the lease with Raft leadership if the
    /// recorded leaseholder is gone (failover).
    fn maybe_claim_lease(&mut self, node: NodeId, range: RangeId) {
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
        if !self.orphaned_leases.contains(&range)
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
        let msgs = {
            let rep = self.nodes[node.0 as usize]
                .replicas
                .get_mut(&range)
                .unwrap();
            rep.maybe_propose_lease_claim(now)
        };
        self.dispatch_raft_msgs(node, range, msgs);
        self.pump_replica(node, range);
    }

    /// A replicated `ClaimLease` entry applied on some replica: move the
    /// lease to the claimant. Every replica of the range applies the same
    /// entry, so claims are deduplicated by log index.
    fn apply_lease_claim(&mut self, range: RangeId, to: NodeId, index: u64) {
        let last = self.lease_claims.get(&range).copied().unwrap_or(0);
        if index <= last {
            return;
        }
        self.lease_claims.insert(range, index);
        let Some(desc) = self.registry.get(range) else {
            return;
        };
        let old = desc.leaseholder;
        self.orphaned_leases.remove(&range);
        if old == to {
            return;
        }
        let now = self.queue.now();
        {
            let n = &mut self.nodes[to.0 as usize];
            let hlc_now = n.hlc.now(now);
            let rep = n.replicas.get_mut(&range).unwrap();
            // Respect promises the old leaseholder may have made: the best
            // lower bound we have is our own tracker, plus the uncertainty
            // window for reads the old leaseholder served near its demise.
            let inherited = rep.tracker.closed();
            rep.lease.inherit(inherited);
            rep.tscache
                .raise_low_water(hlc_now.add_duration(self.cfg.clock.max_offset));
        }
        self.registry.get_mut(range).unwrap().leaseholder = to;
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

    fn handle_raft_tick(&mut self) {
        self.queue
            .schedule(self.cfg.raft_tick_interval, Event::RaftTick);
        let now = self.queue.now();
        let mut outbox: Vec<(NodeId, RangeId, Vec<(Peer, RaftMsg<Batch>)>)> = Vec::new();
        let mut flush_effects: Vec<(NodeId, RangeId, Vec<Effect>)> = Vec::new();
        let mut heartbeats = 0u64;
        for node in &mut self.nodes {
            if !self.topo.is_node_alive(node.id) {
                continue;
            }
            // Tick replicas in range-id order: HashMap iteration order is
            // not stable across processes, and the order of the resulting
            // messages decides the order of RNG draws (link jitter), which
            // same-seed determinism — and the chaos history replays built
            // on it — depend on.
            let mut rids: Vec<RangeId> = node.replicas.keys().copied().collect();
            rids.sort_unstable();
            for rid in rids {
                let rep = node.replicas.get_mut(&rid).unwrap();
                // Leadership doubt un-quiesces: a quiesced follower whose
                // last known leader is dead or unreachable restarts its
                // election clock — quiescence parks timers on the promise
                // that the leader will send traffic when needed, and a dead
                // leader never will.
                if rep.raft.is_quiesced() && !rep.raft.is_leader() {
                    if let Some(lh) = rep.raft.leader_hint() {
                        let lh_node = rep.node_for_peer(lh);
                        if !self.topo.is_node_alive(lh_node)
                            || !self.topo.reachable(node.id, lh_node)
                        {
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
                    if let Some(desc) = self.registry.get(rid) {
                        if desc.leaseholder != node.id
                            && self.topo.is_node_alive(desc.leaseholder)
                            && self.topo.reachable(node.id, desc.leaseholder)
                        {
                            if let Some(peer) = rep.peer_for_node(desc.leaseholder) {
                                let msgs = rep.raft.transfer_leadership(peer);
                                if !msgs.is_empty() {
                                    outbox.push((node.id, rid, msgs));
                                }
                            }
                        }
                    }
                }
                // Safety net: commands buffered for a flush that never
                // fired (the scheduling node crashed and restarted between
                // proposal and flush) must not sit forever.
                if rep.has_pending_batch() && !rep.flush_scheduled {
                    let (msgs, effs) = rep.flush_batch(now);
                    if !msgs.is_empty() {
                        outbox.push((node.id, rid, msgs));
                    }
                    if !effs.is_empty() {
                        flush_effects.push((node.id, rid, effs));
                    }
                }
                let msgs = rep.raft.tick(now);
                heartbeats += msgs
                    .iter()
                    .filter(|(_, m)| matches!(m, RaftMsg::AppendEntries { .. }))
                    .count() as u64;
                if !msgs.is_empty() {
                    outbox.push((node.id, rid, msgs));
                }
            }
        }
        self.m.heartbeats_sent.add(heartbeats);
        for (node, range, effs) in flush_effects {
            self.dispatch_effects(node, range, effs);
        }
        for (node, range, msgs) in outbox {
            self.dispatch_raft_msgs(node, range, msgs);
            self.maybe_claim_lease(node, range);
        }
    }

    /// Per-range MVCC garbage collection. Each range's threshold candidate
    /// is the minimum of three bounds: `now - gc.ttl` (zone config), the
    /// minimum applied closed timestamp across the range's *live* replicas
    /// (follower reads must keep working), and the oldest active protected
    /// timestamp. Each replica ratchets its local threshold monotonically
    /// and reclaims shadowed history at its next flush/compaction.
    fn handle_gc_tick(&mut self) {
        self.queue.schedule(self.cfg.gc_interval, Event::GcTick);
        let now = self.queue.now();
        let protected_min = self.protected.min();
        let mut removed = 0usize;
        let plans: Vec<(RangeId, Vec<NodeId>, SimDuration)> = self
            .registry
            .iter()
            .map(|d| {
                let nodes: Vec<NodeId> = d
                    .replica_nodes()
                    .filter(|&n| self.topo.is_node_alive(n))
                    .collect();
                (d.id, nodes, d.zone_config.gc_ttl)
            })
            .collect();
        for (range, live, ttl) in plans {
            // The frontier bound: no live replica may lose history it can
            // still serve follower reads from.
            let mut min_closed = Timestamp::MAX;
            for &n in &live {
                if let Some(rep) = self.nodes[n.0 as usize].replicas.get(&range) {
                    min_closed = min_closed.min(rep.tracker.closed());
                }
            }
            if min_closed == Timestamp::MAX {
                continue;
            }
            let candidate =
                mr_storage::gc_threshold(now.nanos(), ttl.nanos(), min_closed, protected_min);
            if candidate.is_zero() {
                continue;
            }
            for &n in &live {
                if let Some(rep) = self.nodes[n.0 as usize].replicas.get_mut(&range) {
                    let report = rep.store.maintain(candidate, now.nanos());
                    removed += report.mem_gc_removed + report.compact_removed;
                }
            }
        }
        self.m.gc_versions_removed.add(removed as u64);
    }

    /// Fsync every live replica's WAL and Raft log. Scheduled only while
    /// the `wal_skip_fsync_bug` is armed, where it is the sole fsync point
    /// (see [`Event::WalSyncTick`]).
    fn handle_wal_sync_tick(&mut self) {
        if !self.wal_skip_fsync_bug {
            return;
        }
        self.queue
            .schedule(SimDuration::from_secs(3), Event::WalSyncTick);
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
    fn handle_obs_scrape(&mut self) {
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
        let now = self.queue.now();
        // Worst (largest) closed-timestamp lag across replicas, split by
        // policy. Negative values mean the closed frontier leads present
        // time, as lead-policy (GLOBAL) ranges are designed to.
        let mut worst_lag: Option<i64> = None;
        let mut worst_lead: Option<i64> = None;
        let mut waiters = 0u64;
        let mut locked_keys = 0u64;
        let mut closed_walls: Vec<(RangeId, NodeId, u64)> = Vec::new();
        for d in self.registry.iter() {
            let lead_policy = d.zone_config.closed_ts_policy == ClosedTsPolicy::Lead;
            for n in d.replica_nodes() {
                let Some(rep) = self.nodes[n.0 as usize].replicas.get(&d.id) else {
                    continue;
                };
                let lag = rep.tracker.lag_nanos(now.nanos());
                closed_walls.push((d.id, n, rep.tracker.closed().wall));
                let worst = if lead_policy {
                    &mut worst_lead
                } else {
                    &mut worst_lag
                };
                *worst = Some(worst.map_or(lag, |w| w.max(lag)));
                if n == d.leaseholder {
                    waiters += rep.locks.total_waiters() as u64;
                    locked_keys += rep.locks.locked_key_count() as u64;
                }
            }
        }
        // The closed-timestamp frontier of a replica must never move
        // backwards between scrapes (trackers only `forward`).
        for (rid, n, wall) in closed_walls {
            if let Some(prev) = self.monitor_closed.insert((rid, n), wall) {
                self.obs.monitors.check(
                    &self.obs.registry,
                    "closed_ts_monotonic",
                    now,
                    wall >= prev,
                    || {
                        format!(
                            "range {rid} replica n{}: closed frontier regressed {prev} -> {wall}",
                            n.0
                        )
                    },
                );
            }
        }
        // Group-commit accounting: drain per-replica batch occupancy
        // recorded since the last scrape, and count quiesced leaders.
        let mut quiesced = 0i64;
        let mut occupancy: Vec<u32> = Vec::new();
        for node in &mut self.nodes {
            let mut rids: Vec<RangeId> = node.replicas.keys().copied().collect();
            rids.sort_unstable();
            for rid in rids {
                let rep = node.replicas.get_mut(&rid).unwrap();
                occupancy.extend(rep.take_prop_occupancy());
                if rep.raft.is_leader() && rep.raft.is_quiesced() {
                    quiesced += 1;
                }
            }
        }
        for n in occupancy {
            self.m.batch_occupancy.record(n as u64);
            self.m.proposals_batched.add(n as u64);
            self.m.entries_proposed.inc();
        }
        // Storage-engine accounting, summed across replicas: WAL footprint,
        // LSM shape, bloom effectiveness, GC reclamation, recoveries.
        let mut wal_bytes = 0u64;
        let mut wal_records = 0u64;
        let mut sst_count = 0u64;
        let mut sst_versions = 0u64;
        let mut mem_versions = 0u64;
        let mut bloom_probes = 0u64;
        let mut bloom_skips = 0u64;
        let mut gc_reclaimed = 0u64;
        let mut flushes = 0u64;
        let mut compactions = 0u64;
        let mut recoveries = 0u64;
        for node in &self.nodes {
            for rep in node.replicas.values() {
                let s = rep.store.stats();
                wal_bytes += rep.store.wal_bytes() as u64;
                wal_records += rep.store.wal_record_count();
                sst_count += rep.store.sst_count() as u64;
                sst_versions += rep.store.sst_version_count() as u64;
                mem_versions += rep.store.mem_version_count() as u64;
                bloom_probes += s.bloom_probes.get();
                bloom_skips += s.bloom_skips.get();
                gc_reclaimed += s.gc_reclaimed;
                flushes += s.flushes;
                compactions += s.compactions;
                recoveries += s.recoveries;
            }
        }
        let r = &self.obs.registry;
        r.gauge("storage.wal_bytes", &[]).set(wal_bytes as i64);
        r.gauge("storage.wal_records", &[]).set(wal_records as i64);
        r.gauge("storage.sst_count", &[]).set(sst_count as i64);
        r.gauge("storage.sst_versions", &[])
            .set(sst_versions as i64);
        r.gauge("storage.memtable_versions", &[])
            .set(mem_versions as i64);
        r.gauge("storage.bloom_probes", &[])
            .set(bloom_probes as i64);
        r.gauge("storage.bloom_skips", &[]).set(bloom_skips as i64);
        r.gauge("storage.gc_reclaimed", &[])
            .set(gc_reclaimed as i64);
        r.gauge("storage.flushes", &[]).set(flushes as i64);
        r.gauge("storage.compactions", &[]).set(compactions as i64);
        r.gauge("storage.wal_recoveries", &[])
            .set(recoveries as i64);
        r.gauge("storage.protected_timestamps", &[])
            .set(self.protected.len() as i64);
        r.gauge("raft.quiesced_ranges", &[]).set(quiesced);
        r.gauge("kv.closedts.lag_nanos", &[("policy", "lag")])
            .set(worst_lag.unwrap_or(0));
        r.gauge("kv.closedts.lag_nanos", &[("policy", "lead")])
            .set(worst_lead.unwrap_or(0));
        r.gauge("kv.locks.waiters", &[]).set(waiters as i64);
        r.gauge("kv.locks.held_keys", &[]).set(locked_keys as i64);
        r.gauge("kv.ops.outstanding", &[])
            .set(self.outstanding_ops as i64);
        r.gauge("kv.load.tracked_ranges", &[])
            .set(self.obs.load.len() as i64);
        r.gauge("kv.attr.slow_txn_records", &[])
            .set(self.attr_log.len() as i64);
        r.gauge("obs.trace.retained_spans", &[])
            .set(self.obs.tracer.len() as i64);
        r.gauge("obs.trace.dropped_spans", &[])
            .set(self.obs.tracer.dropped() as i64);
        self.obs.scrape(now);
    }

    fn handle_side_transport(&mut self) {
        self.queue
            .schedule(self.cfg.side_transport_interval, Event::SideTransport);
        let now = self.queue.now();
        let params = self.cfg.closed_ts;
        let lag_enabled = self.cfg.lag_side_transport;
        // Batch updates per (source leaseholder, destination) pair — the
        // CRDB side transport is node-to-node, not per-range.
        let mut batches: HashMap<(NodeId, NodeId), Vec<(RangeId, Timestamp, u64)>> = HashMap::new();
        let descs: Vec<(RangeId, NodeId, ClosedTsPolicy, Vec<NodeId>)> = self
            .registry
            .iter()
            .map(|d| {
                (
                    d.id,
                    d.leaseholder,
                    d.zone_config.closed_ts_policy,
                    d.replica_nodes().collect(),
                )
            })
            .collect();
        for (rid, lh, policy, replica_nodes) in descs {
            if !self.topo.is_node_alive(lh) {
                continue;
            }
            if policy == ClosedTsPolicy::Lag && !lag_enabled {
                continue;
            }
            let node = &mut self.nodes[lh.0 as usize];
            let skew = node.hlc.physical_clock().skew_nanos();
            let Some(rep) = node.replicas.get_mut(&rid) else {
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
            for follower in replica_nodes.into_iter().filter(|&n| n != lh) {
                batches
                    .entry((lh, follower))
                    .or_default()
                    .push((rid, target, index));
            }
        }
        let mut batches: Vec<_> = batches.into_iter().collect();
        batches.sort_unstable_by_key(|((a, b), _)| (a.0, b.0));
        for ((from, to), updates) in batches {
            match self.topo.link(from, to, &mut self.rng) {
                Link::Deliver(d) => {
                    self.queue
                        .schedule(d, Event::SideTransportDeliver { to, updates });
                }
                Link::Unreachable => {}
            }
        }
    }

    fn handle_side_transport_deliver(
        &mut self,
        to: NodeId,
        updates: Vec<(RangeId, Timestamp, u64)>,
    ) {
        if !self.topo.is_node_alive(to) {
            return;
        }
        let node = &mut self.nodes[to.0 as usize];
        for (range, ts, index) in updates {
            if let Some(rep) = node.replicas.get_mut(&range) {
                let applied = rep.raft.applied_index();
                rep.tracker.on_side_transport(ts, index, applied);
            }
        }
    }
}

/// State copied into new replicas during reconfiguration.
struct SeedState {
    store: mr_storage::lsm::Engine,
    txn_records: HashMap<TxnId, crate::replica::TxnRecord>,
    tracker: crate::closedts::ClosedTsTracker,
    promised: Timestamp,
    tscache_low_water: Timestamp,
}
