//! The simulated cluster: the event loop and the owner of all state.
//!
//! A [`Cluster`] owns the event calendar, the network topology, every node
//! (HLC + replicas), the range registry, and the gateway-side state of open
//! transactions. All asynchrony is continuation-passing: an RPC carries a
//! boxed continuation that fires when the response (or a timeout) arrives.
//!
//! This file holds configuration, construction, accessors, admin range
//! operations, [`Cluster::step`] and request evaluation. The rest of the
//! `impl Cluster` lives in child modules, one per concern:
//!
//! * `transport` — the in-flight RPC table, request/response delivery over
//!   the simulated links, and Raft message fan-out;
//! * `maintenance` — the periodic walks over registry × replicas: Raft
//!   ticks (heartbeats, elections), the closed-timestamp side transport
//!   (§5.1.1), MVCC GC, and the observability scrape;
//! * `lifecycle` — splits, merges and load-based rebalancing;
//! * `leases` — cooperative lease transfers and the failover path that
//!   makes the lease follow Raft leadership.
//!
//! One rule holds throughout (DESIGN.md §15): every fact has one owner and
//! every walk has one order. State that is iterated lives in ordered maps
//! (`Node::replicas`, `txns`, `range_meta`), so same-seed determinism is
//! structural; hash containers are membership-only.

mod leases;
mod lifecycle;
mod maintenance;
mod transport;

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::rc::Rc;

use mr_clock::{ClockConfig, Hlc, SkewedClock, Timestamp};
use mr_obs::{Obs, SpanId};
use mr_proto::{Key, KvError, RangeId, Request, Span, TxnId, Value};
use mr_raft::{Peer, RaftConfig, RaftMsg, RaftNode};
use mr_sim::{EventKey, EventQueue, NodeId, SimDuration, SimRng, SimTime, Topology};
use mr_storage::{ProtectedTimestamps, SortedRun};

use crate::allocator::{allocate, AllocError};
use crate::attribution::{self, TxnAttrLog};
use crate::closedts::{ClosedTsParams, SideBatch, SideRx};
use crate::events::{EventKind, EventLog};
use crate::metrics::KvMetrics;
use crate::range::{RangeDescriptor, RangeLineage, RangeMeta, RangeRegistry};
use crate::replica::{Batch, Effect, EvalCtx, EvalOutcome, Replica, ReplyPath};
use crate::report::{self, RangeStatus, ReplicationReport};
use crate::txn::TxnState;
use crate::zone::ZoneConfig;

use lifecycle::LifecycleStats;
use transport::{Envelope, Transport};

/// Result alias for KV operations.
pub type KvResult<T> = Result<T, KvError>;

/// Why [`Cluster::reconfigure_range`] left a range as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReconfigureError {
    NoSuchRange(RangeId),
    Alloc(AllocError),
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureError::NoSuchRange(id) => write!(f, "no such range {id}"),
            ReconfigureError::Alloc(e) => e.fmt(f),
        }
    }
}
impl std::error::Error for ReconfigureError {}

/// Why [`Cluster::ingest`] loaded nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// No range covers this row's key.
    Uncovered(Key),
    /// Two rows share this key.
    Duplicate(Key),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Uncovered(key) => write!(f, "no range covers {key:?}"),
            IngestError::Duplicate(key) => write!(f, "two rows share the key {key:?}"),
        }
    }
}
impl std::error::Error for IngestError {}

/// The timestamp bulk-loaded rows are written at: below anything a
/// transaction writes, so a load sits under all history.
const BULK_LOAD_TS: Timestamp = Timestamp::new(1, 0);

/// Are `rows` in key order? A key that repeats its neighbour's is an error,
/// so after a sort this pass also finds every repeat.
fn in_key_order(rows: &[(Key, Value)]) -> Result<bool, IngestError> {
    for pair in rows.windows(2) {
        match pair[0].0.cmp(&pair[1].0) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => return Err(IngestError::Duplicate(pair[0].0.clone())),
            std::cmp::Ordering::Greater => return Ok(false),
        }
    }
    Ok(true)
}

/// A continuation fired with an operation's outcome.
pub type Cont<T> = Box<dyn FnOnce(&mut Cluster, T)>;

/// Raft heartbeat interval of every range leader.
const RAFT_HEARTBEAT: SimDuration = SimDuration::from_millis(500);
/// Raft election timeout of every range.
const RAFT_ELECTION_TIMEOUT: SimDuration = SimDuration::from_millis(2_000);
/// Cadence of the Raft tick event (leadership checks, flush, timers).
const RAFT_TICK_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Cadence of the closed-timestamp side transport (§5.1.1).
pub const SIDE_TRANSPORT_INTERVAL: SimDuration = SimDuration::from_millis(50);

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
    /// If set, an RPC with no answer within this duration fails with
    /// `RangeUnavailable` and the dist-sender re-routes; each send arms one
    /// calendar event, never cancelled. `None` (the default) arms none.
    /// Surgery answers what it strands, so the timer ends only what a fault
    /// leaves unanswered (a request in flight to a node that dies, or across
    /// a link that is cut) and a lock wait that nothing releases.
    pub rpc_timeout: Option<SimDuration>,
    /// Ablation (Spanner-style commit wait): hold locks through commit wait
    /// instead of resolving intents concurrently with it (§6.2 contrasts
    /// these; see the `ablation_commit_wait` bench).
    pub commit_wait_holds_locks: bool,
    /// Write pipelining: intent writes are proposed to Raft at statement
    /// time and tracked in flight by the coordinator, so statements return
    /// before replication completes. Off = the gateway buffers a
    /// transaction's writes and sends them only at commit, which takes the
    /// one-phase path (1PC) when they all land in one range and otherwise
    /// writes intents, then the record (the pre-pipelining ablation
    /// baseline; DESIGN.md §9).
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
    /// Override the derived closed-timestamp `lead_slack` (ablations).
    pub lead_slack_override: Option<SimDuration>,
    /// MVCC garbage-collection cadence: every `gc_interval`, each range's
    /// GC threshold advances to the minimum of `now - gc.ttl` (the
    /// per-range [`ZoneConfig::gc_ttl`] knob), the closed-timestamp
    /// frontier of its live replicas, and the oldest protected timestamp;
    /// shadowed versions below the threshold are reclaimed at the next
    /// flush/compaction.
    pub gc_interval: SimDuration,
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
    /// merges, and load-based lease/replica rebalancing. Off by default.
    /// A split, merge or replica move answers the parked waiters, pending
    /// proposals and buffered commands of the replicas it removes with
    /// `RangeUnavailable`, and their clients re-route: it needs no
    /// `rpc_timeout`.
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
    /// Hysteresis: a range touched by a split/merge (or an in-flight
    /// proposal) is left alone for this long, so fresh halves aren't
    /// immediately re-merged and vice versa.
    pub cooldown: SimDuration,
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
            cooldown: SimDuration::from_secs(10),
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
            closed_ts: ClosedTsParams::default(),
            skew_amplitude: SimDuration(clock.max_offset.nanos() / 4),
            rpc_timeout: None,
            commit_wait_holds_locks: false,
            pipelined_writes: true,
            parallel_commits: true,
            raft_flush_interval: SimDuration::ZERO,
            raft_quiescence: true,
            lead_slack_override: None,
            gc_interval: SimDuration::from_secs(60),
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
    /// Ordered by range id: every per-node walk (Raft tick, crash
    /// recovery) visits replicas in the order that fixes RNG draws.
    pub replicas: BTreeMap<RangeId, Replica>,
    /// Side-transport inbox: promises that have arrived, or are in flight
    /// without an event, but that a replica takes in only when its closed
    /// timestamp is read — through [`Node::settle`] or [`SideRx::at`], which
    /// every such reader calls first.
    side_rx: SideRx,
    /// The batch this node sent at the last side-transport tick, if any: a
    /// batch that repeats it need not be an event.
    side_sent: Option<SideBatch>,
    /// The replicas the Raft tick visits, in range order. A replica outside
    /// it is *asleep*: its visit would do nothing, and stays so until
    /// something marks it awake again (see `maintenance::asleep`).
    awake: BTreeSet<RangeId>,
}

impl Node {
    /// Bring `range`'s tracker up to the promise standing in the inbox when
    /// the calendar is at `now`.
    pub fn settle(&mut self, range: RangeId, now: EventKey) -> Option<&mut Replica> {
        let rep = self.replicas.get_mut(&range)?;
        rep.settle(self.side_rx.at(now));
        Some(rep)
    }

    /// `range`'s replica, marked awake: Raft traffic, a proposal or a flush
    /// may give its next tick visit work.
    fn wake(&mut self, range: RangeId) -> Option<&mut Replica> {
        let rep = self.replicas.get_mut(&range)?;
        self.awake.insert(range);
        Some(rep)
    }

    /// Mark every replica awake.
    fn wake_all(&mut self) {
        self.awake = self.replicas.keys().copied().collect();
    }
}

/// The deliberately injectable bugs (chaos canaries): each proves the
/// history checker catches a real class of violation. Armed at runtime via
/// `Cluster::arm_bug`, which exists only with the `injected-bug` feature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Followers serve reads even when their closed frontier has not
    /// reached the read's uncertainty limit, so lagging or partitioned
    /// followers return stale data for reads that claim freshness.
    StaleRead,
    /// The coordinator acknowledges a parallel commit as soon as the
    /// STAGING record is written, without waiting for the in-flight
    /// pipelined writes to replicate: a crash at the wrong moment loses
    /// acknowledged writes.
    PrematureAck,
    /// A range split installs the RHS half *without* the parent's
    /// timestamp-cache bound, so a write racing the split can commit below
    /// a timestamp the parent range already served a read at.
    SplitTscache,
    /// Per-apply WAL fsyncs and Raft-log syncs are deferred and a periodic
    /// `Event::WalSyncTick` becomes the *only* fsync point: a volatile
    /// crash between ticks loses writes the cluster already acknowledged.
    WalSkipFsync,
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
    /// Periodic WAL fsync pass, scheduled only while
    /// [`InjectedBug::WalSkipFsync`] is armed: with per-apply syncs
    /// deferred, this tick is the *only* fsync point, opening a window
    /// where acked writes are volatile.
    WalSyncTick,
    SideTransportDeliver {
        to: NodeId,
        from: NodeId,
        /// The sender's [`Cluster::side_tick`] when it built `updates`.
        tick: u64,
        updates: SideBatch,
    },
    /// A closure scheduled by [`Cluster::schedule`].
    Wake(Box<dyn FnOnce(&mut Cluster)>),
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
    /// Everything the cluster tracks about a range id outside its
    /// descriptor and replicas — generation, lineage, lease and lifecycle
    /// bookkeeping — in one ordered record per id.
    range_meta: BTreeMap<RangeId, RangeMeta>,
    /// In-flight RPCs and the request-id allocator.
    rpc: Transport,
    /// Latency breakdowns of finished transactions, backing
    /// `crdb_internal.slow_txns` and the bench attribution export.
    pub attr_log: TxnAttrLog,
    /// Gateway-side state of every *unfinished* transaction, ordered by
    /// id: an entry leaves the map when its outcome is decided, so the map
    /// stays at about one entry per client.
    pub(crate) txns: BTreeMap<TxnId, TxnState>,
    pub(crate) next_txn: u64,
    /// Client operations in flight (used by `run_until_quiescent`).
    outstanding_ops: usize,
    /// Active txn-record pushers, keyed by the blocked (range, key).
    /// Membership-only, never iterated.
    pub(crate) active_pushers: HashSet<(RangeId, Key)>,
    /// The armed chaos canary, if any. Always `None` in normal builds.
    pub(crate) injected_bug: Option<InjectedBug>,
    /// Cluster-wide lifecycle outcomes (split latencies, last action).
    lifecycle: LifecycleStats,
    /// Active protected timestamps (AOST/backup pins): per-range GC
    /// thresholds never advance past the oldest active protection.
    protected: ProtectedTimestamps,
    /// Side-transport ticks run so far: stamps every batch, so a receiver
    /// can tell a newer promise from an older one whatever order they
    /// arrive in, and a tracker which ones it has already taken in.
    side_tick: u64,
}

impl Cluster {
    pub fn new(topo: Topology, mut cfg: ClusterConfig) -> Cluster {
        // A GLOBAL range's lead covers the clock bound the nodes run with.
        cfg.closed_ts.max_clock_offset = cfg.clock.max_offset;
        // A closed-timestamp promise must stay ahead of reader uncertainty
        // limits until the next side-transport publication lands: cover the
        // publication interval, twice the skew amplitude (gateway ahead,
        // leaseholder behind), and a fixed margin for delivery jitter.
        cfg.closed_ts.lead_slack = cfg.lead_slack_override.unwrap_or(
            SIDE_TRANSPORT_INTERVAL
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
                    replicas: BTreeMap::new(),
                    side_rx: SideRx::default(),
                    side_sent: None,
                    awake: BTreeSet::new(),
                }
            })
            .collect();
        let obs = Obs::new();
        if cfg.tracing {
            obs.tracer.set_enabled(true);
        }
        obs.monitors.set_strict(cfg.strict_monitors);
        let m = KvMetrics::bind(&obs.registry, &topo);
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
            range_meta: BTreeMap::new(),
            rpc: Transport::new(),
            attr_log: TxnAttrLog::new(),
            txns: BTreeMap::new(),
            next_txn: 1,
            outstanding_ops: 0,
            active_pushers: HashSet::new(),
            injected_bug: None,
            lifecycle: LifecycleStats::default(),
            protected: ProtectedTimestamps::new(),
            side_tick: 0,
        };
        c.queue.schedule(RAFT_TICK_INTERVAL, Event::RaftTick);
        c.queue
            .schedule(SIDE_TRANSPORT_INTERVAL, Event::SideTransport);
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

    /// Mutable topology access, the one way liveness and reachability
    /// change. Both feed every replica's Raft-tick visit (leadership doubt,
    /// leadership follows the lease), so every replica wakes; and whether a
    /// side-transport batch on the wire still lands, so every repeat in
    /// flight goes back on the calendar.
    pub(crate) fn topo_mut(&mut self) -> &mut Topology {
        for node in &mut self.nodes {
            node.wake_all();
        }
        self.recall_side_transport();
        &mut self.topo
    }

    pub fn registry(&self) -> &RangeRegistry {
        &self.registry
    }

    /// The KV instrument handles (tests, harnesses): read a counter with
    /// `.get()`. Richer queries — labels, histograms, dumps — go through
    /// `obs.registry`.
    pub fn metrics(&self) -> &KvMetrics {
        &self.m
    }

    /// In-flight (unfinished) transactions, sorted by id — the live
    /// registry behind `crdb_internal.active_operations`.
    pub fn active_txns(&self) -> Vec<ActiveTxn> {
        self.txns
            .values()
            .map(|st| ActiveTxn {
                id: st.id.0,
                gateway: st.gateway,
                start: st.attr.start(),
                span: st.span,
                ranges: st.ranges.clone(),
            })
            .collect()
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
            |id| self.range_meta.get(&id)?.live.lease_rebalanced,
            self.cfg.lifecycle.cooldown,
        )
    }

    /// The bookkeeping record of `id`, created on first touch.
    fn meta_mut(&mut self, id: RangeId) -> &mut RangeMeta {
        self.range_meta.entry(id).or_default()
    }

    /// The current reconfiguration generation of `id`'s Raft group.
    fn range_gen(&self, id: RangeId) -> u32 {
        self.range_meta.get(&id).map_or(0, |m| m.gen)
    }

    /// Retire a range id (merged away or dropped): fence its remaining
    /// Raft traffic and forget its live bookkeeping and load accounting.
    /// Generation and lineage stay as history.
    fn retire_range(&mut self, id: RangeId) {
        let meta = self.meta_mut(id);
        meta.gen += 1;
        meta.live = Default::default();
        self.obs.load.forget_range(id.0);
    }

    /// Lifecycle lineage of a range (split/merge origin, rebalance
    /// counters). `None` for ids never seen by the admin plane.
    pub fn lineage_of(&self, id: RangeId) -> Option<&RangeLineage> {
        self.range_meta.get(&id)?.lineage.as_ref()
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

    /// The closed timestamp a follower read of `range` at `node` would be
    /// served under right now: the replica's tracker, settled. (Reading
    /// `tracker.closed()` off [`Cluster::node`] skips the inbox.)
    pub fn closed_ts_at(&mut self, node: NodeId, range: RangeId) -> Option<Timestamp> {
        Some(self.settled(node, range)?.tracker.closed())
    }

    /// `range`'s replica on `node`, its tracker brought up to the promise
    /// standing in the node's inbox.
    pub(crate) fn settled(&mut self, node: NodeId, range: RangeId) -> Option<&mut Replica> {
        let now = self.queue.key();
        self.nodes[node.0 as usize].settle(range, now)
    }

    /// Override a node's clock skew (clock-misbehaviour tests, §6.2.3).
    pub(crate) fn set_node_skew(&mut self, node: NodeId, skew_nanos: i64) {
        self.nodes[node.0 as usize].hlc.set_skew_nanos(skew_nanos);
    }

    /// Replay every replica of `n` from durable state: the second half of a
    /// volatile crash (`FaultKind::CrashNodeVolatile`, `CrashRegionVolatile`),
    /// so a restart resumes from exactly what was fsynced (see
    /// [`Replica::crash_volatile`]). The Raft log truncates to its fsynced
    /// horizon only under the armed fsync-skip bug — a correct node syncs
    /// its log at append time, so nothing is ever above the horizon.
    /// Recovery un-quiesces every replica; the crash that precedes it went
    /// through [`Cluster::topo_mut`], so all of them are awake already.
    pub(crate) fn recover_node_volatile(&mut self, n: NodeId) {
        let now = self.queue.now();
        let params = self.cfg.closed_ts;
        let max_off = self.cfg.clock.max_offset;
        let drop_log = self.injected_bug == Some(InjectedBug::WalSkipFsync);
        let hlc_now = self.nodes[n.0 as usize].hlc.now(now);
        // Past any read or promise the old incarnation could have served:
        // its own uncertainty bound, forwarded to the closed-timestamp
        // policy target (lead ranges promise future timestamps).
        let bound = hlc_now.add_duration(max_off);
        let node = &mut self.nodes[n.0 as usize];
        node.side_rx.clear();
        for (&range, rep) in &mut node.replicas {
            let conservative = bound.forward(params.target(rep.policy, bound));
            let info = rep.crash_volatile(conservative, drop_log);
            self.events.record(
                now,
                EventKind::WalRecovered {
                    range,
                    node: n,
                    replayed: info.replayed_records,
                    applied_index: info.applied_index,
                    error: info.error,
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

    /// Arm one of the deliberately injected bugs. Exists solely so the
    /// chaos harness can prove its history checker catches each of them.
    #[cfg(feature = "injected-bug")]
    pub fn arm_bug(&mut self, bug: InjectedBug) {
        self.injected_bug = Some(bug);
        if bug == InjectedBug::WalSkipFsync {
            for rep in self.nodes.iter_mut().flat_map(|n| n.replicas.values_mut()) {
                rep.store.defer_sync = true;
                rep.raft.set_defer_log_sync(true);
            }
            self.queue
                .schedule(maintenance::WAL_SYNC_INTERVAL, Event::WalSyncTick);
        }
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
        self.meta_mut(id).lineage = Some(RangeLineage::boot(self.queue.now()));
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
        mut seed_state: Option<SeedState>,
    ) {
        let now = self.queue.now();
        if let Some(seed) = &mut seed_state {
            // The seed engine still carries the previous incarnation's WAL
            // identity (old apply indices); this Raft group restarts log
            // indices from scratch, so re-anchor it on a fresh durable
            // checkpoint at applied index 0. Once, here: the rebaseline
            // flushes every committed version into a run, and every replica
            // gets a clone of this one image — shared runs plus a checkpoint
            // of intents and transaction records.
            seed.store.rebaseline(0, seed.tracker.closed(), now.nanos());
        }
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
                election_timeout: RAFT_ELECTION_TIMEOUT,
                heartbeat_interval: RAFT_HEARTBEAT,
                quiesce: self.cfg.raft_quiescence,
            };
            let mut raft = RaftNode::new(rcfg, now);
            if p.node == leaseholder {
                raft.bootstrap_leader(now);
            }
            let mut rep = Replica::new(id, p.node, i as Peer, peer_nodes.clone(), raft, policy);
            if let Some(seed) = &seed_state {
                rep.store = seed.store.clone();
                rep.tracker = seed.tracker.clone();
                // Promises sent so far index the previous incarnation's log.
                rep.tracker.settled_through(self.side_tick);
                if p.node == leaseholder {
                    rep.lease.inherit(seed.promised);
                    rep.tscache.raise_low_water(seed.tscache_low_water);
                }
            }
            if self.injected_bug == Some(InjectedBug::WalSkipFsync) {
                rep.store.defer_sync = true;
                rep.raft.set_defer_log_sync(true);
            }
            let node = &mut self.nodes[p.node.0 as usize];
            node.replicas.insert(id, rep);
            node.awake.insert(id);
        }
        self.registry.insert(RangeDescriptor {
            id,
            span,
            replicas: replicas.to_vec(),
            leaseholder,
            zone_config,
        });
        let meta = self.meta_mut(id);
        meta.gen += 1;
        // The fresh Raft group restarts log indices from scratch, so any
        // per-log-index dedup state from a previous incarnation would
        // wrongly swallow this group's first claims.
        meta.live.lease_claim = 0;
    }

    /// Take a range out of the registry and off its nodes ahead of a
    /// re-install (or for good), returning its descriptor. Every request
    /// waiting on a removed replica is answered once, in request-id order,
    /// from the replica's node; a dead node answers nothing (its requests
    /// are the fault case, left to the RPC timeout).
    fn uninstall_range(&mut self, id: RangeId) -> Option<RangeDescriptor> {
        let desc = self.registry.remove(id)?;
        let mut stranded = Vec::new();
        for n in desc.replica_nodes() {
            let node = &mut self.nodes[n.0 as usize];
            node.awake.remove(&id);
            let rep = node.replicas.remove(&id);
            if let Some(rep) = rep.filter(|_| self.topo.is_node_alive(n)) {
                stranded.extend(rep.into_waiting().map(|path| (n, path)));
            }
        }
        stranded.sort_by_key(|(_, path)| path.req_id);
        for (n, path) in stranded {
            // The ambiguous answer, never a `NotLeaseholder` redirect: a
            // stranded proposal may already have applied, and a redirect
            // tells the coordinator it did not (re-sending it as a fresh
            // write broke serializability under the split storm).
            self.send_response(n, path, Err(KvError::RangeUnavailable { range: id }));
        }
        Some(desc)
    }

    /// What a re-installed range inherits, snapshotted from `node`'s
    /// replica (the leaseholder's: its applied state is authoritative).
    fn seed_from(&mut self, node: NodeId, id: RangeId) -> Option<SeedState> {
        let rep = self.settled(node, id)?;
        Some(SeedState {
            store: rep.store.clone(),
            tracker: rep.tracker.clone(),
            promised: rep.lease.promised(),
            tscache_low_water: rep.tscache.low_water(),
        })
    }

    /// Re-place a range under a new zone configuration (used by `ALTER
    /// TABLE ... SET LOCALITY` and survivability changes). State transfer is
    /// instantaneous — call between workload phases.
    pub fn reconfigure_range(
        &mut self,
        id: RangeId,
        zone_config: ZoneConfig,
    ) -> Result<(), ReconfigureError> {
        let out = allocate(&self.topo, &zone_config).map_err(ReconfigureError::Alloc)?;
        let lh = self
            .registry
            .get(id)
            .ok_or(ReconfigureError::NoSuchRange(id))?
            .leaseholder;
        let seed = self
            .seed_from(lh, id)
            .unwrap_or_else(|| panic!("leaseholder {lh} has no replica of {id}"));
        let desc = self.uninstall_range(id).expect("looked up above");
        self.install_range(
            id,
            desc.span,
            zone_config,
            &out.replicas,
            out.leaseholder,
            Some(seed),
        );
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

    /// Remove a range entirely (table drop or partition-layout rewrite).
    /// Any in-flight traffic for it is dropped.
    pub fn drop_range(&mut self, id: RangeId) {
        if self.uninstall_range(id).is_some() {
            self.retire_range(id);
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

    /// Bulk-load committed rows, bypassing the transaction protocol and
    /// costing no simulated time (experiment set-up and offline schema
    /// changes): CockroachDB's IMPORT, an SST ingest. The rows are sorted —
    /// a pass that finds them in key order already skips the sort — and cut
    /// at range boundaries; each covered range gets one run at the bulk-load
    /// timestamp that every one of its replicas ingests. Nothing is loaded
    /// unless a range covers every row and no two rows share a key.
    pub fn ingest(&mut self, mut rows: Vec<(Key, Value)>) -> Result<(), IngestError> {
        if !in_key_order(&rows)? {
            rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            in_key_order(&rows)?;
        }
        let mut rows = rows.into_iter();
        let mut runs = Vec::new();
        while let Some((key, _)) = rows.as_slice().first() {
            let desc = self
                .registry
                .lookup(key)
                .ok_or_else(|| IngestError::Uncovered(key.clone()))?;
            let end = &desc.span.end;
            let n = match end.is_empty() {
                true => rows.len(),
                false => rows.as_slice().partition_point(|(k, _)| k < end),
            };
            let run = SortedRun::bulk(rows.by_ref().take(n), BULK_LOAD_TS);
            runs.push((desc, Rc::new(run)));
        }
        for (desc, run) in runs {
            for n in desc.replica_nodes() {
                if let Some(rep) = self.nodes[n.0 as usize].replicas.get_mut(&desc.id) {
                    rep.store.ingest(Rc::clone(&run));
                }
            }
        }
        Ok(())
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
            } => self.handle_raft(to_node, range, gen, from_peer, msg),
            Event::RaftTick => self.handle_raft_tick(),
            Event::RaftFlush { node, range } => self.handle_raft_flush(node, range),
            Event::SideTransport => self.handle_side_transport(),
            Event::GcTick => self.handle_gc_tick(),
            Event::WalSyncTick => self.handle_wal_sync_tick(),
            Event::SideTransportDeliver {
                to,
                from,
                tick,
                updates,
            } => self.handle_side_transport_deliver(to, from, tick, updates),
            Event::Wake(f) => f(self),
            Event::RpcTimeout { req_id } => self.finish_rpc(req_id, None),
            Event::ObsScrape => self.handle_obs_scrape(),
            Event::LifecycleTick => self.handle_lifecycle_tick(),
        }
        true
    }

    /// Run until simulated time `t`. The clock stops where the last event
    /// by `t` left it — a repeat side-transport batch that landed included,
    /// though it is no event (see [`SideRx`]).
    pub fn run_until(&mut self, t: SimTime) {
        while self.queue.peek_time().is_some_and(|pt| pt <= t) {
            self.step();
        }
        let landed = self
            .nodes
            .iter()
            .filter_map(|n| n.side_rx.latest_landed(t))
            .max();
        if let Some(key) = landed {
            self.queue.advance_to(key);
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
        self.queue.schedule(delay, Event::Wake(f));
    }

    // ------------------------------------------------------------------
    // Request evaluation and Raft application
    // ------------------------------------------------------------------

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
        self.rpc.unparked(path.req_id, now);
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
        let stale_read_bug = self.injected_bug == Some(InjectedBug::StaleRead);
        let Node {
            hlc,
            replicas,
            side_rx,
            ..
        } = &mut self.nodes[node.0 as usize];
        let Some(rep) = replicas.get_mut(&range) else {
            let err = KvError::NotLeaseholder { range, leaseholder };
            self.send_response(node, path, Err(err));
            return;
        };
        if is_follower_read {
            // The follower gate and `Negotiate` read the closed timestamp.
            rep.settle(side_rx.at(self.queue.key()));
        }
        let ctx = EvalCtx {
            now,
            params: &params,
            is_leaseholder,
            leaseholder,
            stale_read_bug,
        };
        let outcome = rep.evaluate(req, path, hlc, &ctx);
        // Server-side causality: annotate the in-flight RPC's span with
        // where and how the request evaluated.
        let rpc_span = self.rpc.span_of(path.req_id);
        let kind = fmt::from_fn(|f| match &outcome {
            EvalOutcome::Reply(Ok(_)) => f.write_str("reply-ok"),
            EvalOutcome::Reply(Err(e)) => write!(f, "reply-err: {e}"),
            EvalOutcome::Parked { holder, .. } => write!(f, "parked behind {}", holder.id),
            EvalOutcome::Proposed { .. } => f.write_str("proposed to raft"),
        });
        self.obs.tracer.event(
            rpc_span,
            now,
            format_args!(
                "eval at n{} ({}) lh={is_leaseholder}: {kind}",
                node.0,
                self.region_name_of(node)
            ),
        );
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
                self.rpc.parked(path.req_id, now);
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
        let Some(rep) = self.nodes[node.0 as usize].wake(range) else {
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
            let Some(rep) = self.nodes[node.0 as usize].wake(range) else {
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
        if self.range_gen(range) != gen {
            return; // stale traffic from a reconfigured group
        }
        let now = self.queue.now();
        let (out, noop) = {
            let Node {
                replicas, side_rx, ..
            } = &mut self.nodes[to_node.0 as usize];
            let Some(rep) = replicas.get_mut(&range) else {
                return;
            };
            let out = rep.raft.step(from_peer, msg, now);
            let noop = rep.maybe_propose_leader_noop(now, side_rx.at(self.queue.key()));
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
                let Some(rep) = self.nodes[node.0 as usize].wake(range) else {
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
                    self.obs.tracer.event(
                        self.rpc.span_of(path.req_id),
                        self.queue.now(),
                        format_args!(
                            "raft applied at n{} ({}), replying",
                            node.0,
                            self.region_name_of(node)
                        ),
                    );
                    self.send_response(node, path, result);
                }
                Effect::ReEval { waiter } => {
                    // A split/merge applied earlier in this same effects
                    // batch may have removed the replica (surgery answered
                    // its parked waiters `RangeUnavailable`).
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
                Effect::SplitApplied { split_key, rhs } => self.apply_split(range, split_key, rhs),
                Effect::MergeApplied { rhs } => self.apply_merge(range, rhs),
            }
        }
    }
}

/// State copied into new replicas during reconfiguration.
struct SeedState {
    store: mr_storage::lsm::Engine,
    tracker: crate::closedts::ClosedTsTracker,
    promised: Timestamp,
    tscache_low_water: Timestamp,
}
