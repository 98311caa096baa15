//! The nemesis runner: seeded fault schedule + register workload + checker.
//!
//! [`run_chaos`] builds a 3-region × 3-node cluster (the first three
//! regions of the paper's Table 1) with two ranges — `rs/*` under REGION
//! survivability (5 voters, ≤2 per region) and `zs/*` under ZONE
//! survivability (3 voters, all in the home region) — then drives
//! closed-loop register clients from every region while the schedule
//! injects faults on the simulation calendar. Every client operation is
//! recorded in the append-only [`History`]; after a final heal and drain,
//! the offline [`checker`](crate::checker) validates the history.
//!
//! Everything derives from `ChaosConfig::seed` + the schedule: the same
//! seed replays the identical run, byte for byte, including the history
//! export.

use mr_clock::Timestamp;
use mr_kv::cluster::{
    Cluster, ClusterConfig, InjectedBug, LifecycleConfig, ReadOptions, Staleness,
};
use mr_kv::zone::SurvivalGoal;
use mr_proto::{Key, KvError, Value};
use mr_sim::{LatencyRecorder, NodeId, SimDuration, SimRng, SimTime};

use crate::bundle::IncidentBundle;
use crate::checker::{check, CheckReport, CheckerConfig};
use crate::harness::{corner_cluster, prefix_span, run_txn, TxnEnd};
use crate::history::{History, OpId, OpKind, Phase};
use crate::schedule::FaultSchedule;

/// Key prefix of the REGION-survivable range.
pub const REGION_SURVIVABLE_PREFIX: &str = "rs/";
/// Key prefix of the ZONE-survivable range.
pub const ZONE_SURVIVABLE_PREFIX: &str = "zs/";
/// RPC timeout of the chaos cluster: it fails the requests a fault leaves
/// unanswered (a dead node, a cut link, a lock that nothing releases).
const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Nemesis run parameters. Everything is derived from `seed`.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    pub seed: u64,
    pub clients_per_region: u32,
    /// Distinct keys per survivability class.
    pub keys_per_class: u64,
    /// Closed-loop think time between a completion and the next invoke.
    pub think: SimDuration,
    /// How long clients keep issuing operations (from workload start).
    pub run_for: SimDuration,
    /// Escalate online invariant-monitor violations to panics. Turn off
    /// for runs that deliberately break an invariant (the injected-bug
    /// test), where the offline checker is the detector under test.
    pub strict_monitors: bool,
    /// Arm one of the intentionally injected bugs (requires the
    /// `injected-bug` feature; panics otherwise). Used to prove the checker
    /// catches a real violation of each class — see [`InjectedBug`].
    pub arm_bug: Option<InjectedBug>,
    /// Issue transactional writes as pipelined intents (async consensus).
    pub pipelined_writes: bool,
    /// Commit with a STAGING record in parallel with in-flight writes.
    pub parallel_commits: bool,
    /// Extra `cold<i>/` ranges homed in region 0 that the workload never
    /// touches. Their leaders quiesce shortly after startup, giving the
    /// quiesced-leader-crash schedule block something to kill.
    pub cold_ranges: u32,
    /// Record trace spans for the whole run, so a failing run's incident
    /// bundle includes the span subtrees of implicated transactions. Off
    /// by default (spans cost memory on long runs; the retention ring
    /// bounds it, but an evicted span is gone from the bundle too).
    pub tracing: bool,
    /// Enable the range-lifecycle controller (automatic splits, merges,
    /// and load-based rebalancing) on the chaos cluster. Pair with
    /// `ScheduleBounds::lifecycle_storm`, which additionally forces
    /// splits and merges mid-disruption via admin faults.
    pub range_lifecycle: bool,
    /// Make half the stale reads *recent* (50–250ms into the past, inside
    /// the closed-ts lag) so they fall back to the leaseholder and leave
    /// fresh timestamp-cache entries — the state a split must carry to
    /// both halves, and the detection channel for the split-tscache bug.
    pub recent_stale_reads: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            clients_per_region: 2,
            keys_per_class: 4,
            think: SimDuration::from_millis(40),
            run_for: SimDuration::from_secs(60),
            strict_monitors: true,
            arm_bug: None,
            pipelined_writes: true,
            parallel_commits: true,
            cold_ranges: 0,
            tracing: false,
            range_lifecycle: false,
            recent_stale_reads: false,
        }
    }
}

/// Everything a chaos run produces.
pub struct ChaosOutcome {
    pub schedule: FaultSchedule,
    pub history: History,
    pub report: CheckReport,
    pub ops_ok: usize,
    pub ops_failed: usize,
    pub ops_info: usize,
    /// Committed client operations per simulated second.
    pub ops_per_sec: f64,
    /// p99 latency of operations invoked while a disruption was active —
    /// the paper-style recovery-time proxy.
    pub recovery_p99: SimDuration,
    /// p99 latency of operations invoked outside disruption windows.
    pub steady_p99: SimDuration,
    /// Forensics captured from the live cluster when the checker or an
    /// online monitor flagged a violation; `None` on clean runs.
    pub bundle: Option<IncidentBundle>,
    /// Range splits applied during the run (admin faults + automatic).
    pub splits: usize,
    /// Range merges applied during the run.
    pub merges: usize,
    /// Replica WAL recoveries performed during the run (volatile crashes).
    pub wal_recoveries: usize,
}

impl ChaosOutcome {
    pub fn passed(&self) -> bool {
        self.report.passed()
    }

    pub fn render(&self) -> String {
        format!(
            "{}ops/sec {:.1}, recovery p99 {}, steady p99 {}\n",
            self.report.render(&self.schedule),
            self.ops_per_sec,
            self.recovery_p99,
            self.steady_p99
        )
    }
}

impl ChaosConfig {
    /// The cluster knobs a chaos run sets; the rest are the defaults.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            seed: self.seed,
            rpc_timeout: Some(RPC_TIMEOUT),
            strict_monitors: self.strict_monitors,
            pipelined_writes: self.pipelined_writes,
            parallel_commits: self.parallel_commits,
            tracing: self.tracing,
            lifecycle: LifecycleConfig {
                enabled: self.range_lifecycle,
                // The workload only has 8 distinct keys, so splits and
                // merges are forced by schedule faults rather than the
                // size trigger; a short cooldown lets a forced split be
                // merged back within the same run.
                cooldown: SimDuration::from_secs(5),
                ..LifecycleConfig::default()
            },
            ..ClusterConfig::default()
        }
    }
}

/// Build the standard chaos cluster: the [`corner_cluster`] with `rs/*`
/// REGION-survivable and `zs/*` ZONE-survivable ranges, plus
/// `cfg.cold_ranges` ZONE-survivable `cold<i>/*` ranges.
pub fn build_chaos_cluster(cfg: &ChaosConfig) -> Cluster {
    // Cold ranges are never addressed by the workload, so after the initial
    // lease settles their leaders go quiet and quiesce. Crashing a region-0
    // node then tests failover on a range whose leader hasn't heartbeat in
    // a long time: followers must notice through the liveness check, not a
    // missed heartbeat.
    let mut ranges = vec![
        (prefix_span("rs"), SurvivalGoal::Region),
        (prefix_span("zs"), SurvivalGoal::Zone),
    ];
    ranges.extend(
        (0..cfg.cold_ranges).map(|i| (prefix_span(&format!("cold{i}")), SurvivalGoal::Zone)),
    );
    // Arming once the ranges exist is arming before: creating a range
    // schedules no event, and `arm_bug` reaches every existing replica.
    let (cluster, _) = corner_cluster(cfg.cluster_config(), &ranges);
    match cfg.arm_bug {
        None => cluster,
        #[cfg(feature = "injected-bug")]
        Some(bug) => {
            let mut cluster = cluster;
            cluster.arm_bug(bug);
            cluster
        }
        #[cfg(not(feature = "injected-bug"))]
        Some(bug) => {
            panic!("arming {bug:?} requires building mr-chaos with --features injected-bug")
        }
    }
}

/// One closed-loop register client, moved through its continuation chain.
struct Client {
    id: u32,
    gateway: NodeId,
    rng: SimRng,
    until: SimTime,
    think: SimDuration,
    keys_per_class: u64,
    recent_stale: bool,
    hist: History,
}

fn fmt_err(e: &KvError) -> String {
    format!("{e:?}")
}

fn parse_value(v: &Option<Value>) -> Option<u64> {
    v.as_ref()
        .and_then(|v| std::str::from_utf8(&v.0).ok())
        .and_then(|s| s.parse().ok())
}

/// Park the client until its next invocation.
fn schedule_next(c: &mut Cluster, mut cl: Client) {
    let jitter = SimDuration::from_millis(cl.rng.next_below(10));
    c.schedule(cl.think + jitter, Box::new(move |c| step(c, cl)));
}

/// Issue the client's next operation (or retire it past `until`).
fn step(c: &mut Cluster, mut cl: Client) {
    if c.now() >= cl.until {
        return;
    }
    if !c.topology().is_node_alive(cl.gateway) {
        // The gateway is crashed: a real client would fail to connect.
        // Idle until it comes back rather than spamming the history.
        let retry = SimDuration::from_millis(400 + cl.rng.next_below(200));
        c.schedule(retry, Box::new(move |c| step(c, cl)));
        return;
    }
    let class = if cl.rng.chance(0.5) {
        REGION_SURVIVABLE_PREFIX
    } else {
        ZONE_SURVIVABLE_PREFIX
    };
    let key = format!("{class}k{}", cl.rng.next_below(cl.keys_per_class));
    // Stale reads need history to read (closed-ts lag is 3s) — before the
    // 12s mark fall back to fresh reads.
    let warmed_up = c.now() >= SimTime(SimDuration::from_secs(12).nanos());
    match cl.rng.next_below(100) {
        0..=29 => write(c, cl, vec![key]),
        // A two-key transaction spanning both key classes — and therefore
        // two ranges, so the transaction record and the second write live
        // in different raft logs. Multi-range transactions are the only
        // ones whose parallel commit genuinely races the STAGING record
        // against in-flight writes (a single-range put precedes the record
        // in the same raft log, so the stage ack implies the put
        // committed). The ZONE-survivable key comes first: the record
        // anchors on the fast intra-region-quorum range while the
        // REGION-survivable put crosses the WAN, which is the widest window
        // between a STAGING ack and the last in-flight write landing.
        30..=39 => {
            let zone = format!(
                "{ZONE_SURVIVABLE_PREFIX}k{}",
                cl.rng.next_below(cl.keys_per_class)
            );
            let region = format!(
                "{REGION_SURVIVABLE_PREFIX}k{}",
                cl.rng.next_below(cl.keys_per_class)
            );
            write(c, cl, vec![zone, region])
        }
        40..=64 => fresh_read(c, cl, key),
        65..=84 if warmed_up => stale_read(c, cl, key),
        // Bounded reads only touch the REGION-survivable range, which has
        // a replica in every region (local negotiation everywhere).
        85..=99 if warmed_up => {
            let key = format!(
                "{REGION_SURVIVABLE_PREFIX}k{}",
                cl.rng.next_below(cl.keys_per_class)
            );
            bounded_read(c, cl, key)
        }
        _ => fresh_read(c, cl, key),
    }
}

/// Write every key in one transaction. Each write is its own history op,
/// and all of them share the commit's verdict and timestamp.
fn write(c: &mut Cluster, cl: Client, keys: Vec<String>) {
    let now = c.now();
    let ops: Vec<OpId> = keys
        .iter()
        .map(|k| cl.hist.invoke_write(now, cl.id, k))
        .collect();
    let writes = keys
        .iter()
        .zip(&ops)
        .map(|(k, op)| {
            (
                Key::from(k.as_str()),
                Some(Value::from(op.to_string().as_str())),
            )
        })
        .collect();
    run_txn(c, cl.gateway, None, writes, move |c, end| {
        let now = c.now();
        for &op in &ops {
            match &end {
                TxnEnd::Committed { ts, .. } => cl.hist.ok(now, op, Some(op), Some(*ts)),
                TxnEnd::Aborted(e) => cl.hist.fail(now, op, &fmt_err(e)),
                // The commit RPC may have applied before the response was
                // lost — outcome unknown.
                TxnEnd::CommitFailed(_, e) => cl.hist.info(now, op, &fmt_err(e)),
            }
        }
        schedule_next(c, cl);
    });
}

fn fresh_read(c: &mut Cluster, cl: Client, key: String) {
    let op = cl
        .hist
        .invoke(c.now(), cl.id, OpKind::FreshRead, &key, None, None);
    run_txn(
        c,
        cl.gateway,
        Some(Key::from(key.as_str())),
        Vec::new(),
        move |c, end| {
            let now = c.now();
            match end {
                TxnEnd::Committed { ts, read } => cl.hist.ok(now, op, parse_value(&read), Some(ts)),
                // Read-only: nothing can have been written.
                TxnEnd::Aborted(e) | TxnEnd::CommitFailed(_, e) => {
                    cl.hist.fail(now, op, &fmt_err(&e))
                }
            }
            schedule_next(c, cl);
        },
    );
}

fn stale_read(c: &mut Cluster, mut cl: Client, key: String) {
    // Read 4–8s into the past: past the 3s closed-ts lag when healthy, and
    // ahead of a frontier frozen by a partition — exactly what the
    // follower-read gate must refuse to serve. With `recent_stale_reads`,
    // half the stale reads instead target 50–250ms ago — inside the
    // closed-ts lag, so the follower refuses and the read falls back to
    // the leaseholder, recording a near-now timestamp-cache entry that a
    // subsequent split is obliged to honor on both halves.
    let ago = if cl.recent_stale && cl.rng.chance(0.5) {
        SimDuration::from_millis(50 + cl.rng.next_below(200))
    } else {
        SimDuration::from_millis(4_000 + cl.rng.next_below(4_000))
    };
    let now_ts = c.hlc_now(cl.gateway);
    let read_ts = Timestamp::new(now_ts.wall.saturating_sub(ago.nanos()), 0);
    let hist = cl.hist.clone();
    let op = hist.invoke(c.now(), cl.id, OpKind::StaleRead, &key, None, Some(read_ts));
    c.read(
        cl.gateway,
        Key::from(key.as_str()),
        ReadOptions {
            staleness: Staleness::ExactAt(read_ts),
            fallback_to_leaseholder: true,
        },
        Box::new(move |c, res| {
            let now = c.now();
            match res {
                Ok(v) => hist.ok(now, op, parse_value(&v), None),
                Err(e) => hist.fail(now, op, &fmt_err(&e)),
            }
            schedule_next(c, cl);
        }),
    );
}

fn bounded_read(c: &mut Cluster, mut cl: Client, key: String) {
    let bound = SimDuration::from_secs(5 + cl.rng.next_below(5));
    let hist = cl.hist.clone();
    let op = hist.invoke(c.now(), cl.id, OpKind::BoundedRead, &key, None, None);
    c.read(
        cl.gateway,
        Key::from(key.as_str()),
        ReadOptions {
            staleness: Staleness::BoundedMaxStaleness(bound),
            // Never fall back: the point of bounded staleness is serving
            // locally even when the leaseholder is partitioned away.
            fallback_to_leaseholder: false,
        },
        Box::new(move |c, res| {
            let now = c.now();
            match res {
                Ok(v) => hist.ok(now, op, parse_value(&v), None),
                Err(e) => hist.fail(now, op, &fmt_err(&e)),
            }
            schedule_next(c, cl);
        }),
    );
}

/// Run one full nemesis experiment: cluster, schedule, workload, drain,
/// offline check.
pub fn run_chaos(
    cfg: &ChaosConfig,
    schedule: &FaultSchedule,
    checker_cfg: &CheckerConfig,
) -> ChaosOutcome {
    let mut c = build_chaos_cluster(cfg);
    // Let replication, leases, and closed timestamps stabilize.
    let start = SimTime(SimDuration::from_secs(3).nanos());
    c.run_until(start);

    // Fault steps and client ops both measure offsets from `start`.
    schedule.install(&mut c);
    let hist = History::new();
    let until = start + cfg.run_for;
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x636c69_656e7473); // "clients"
    let mut id = 0u32;
    for region in 0..3u32 {
        for i in 0..cfg.clients_per_region {
            let cl = Client {
                id,
                gateway: NodeId(region * 3 + (i % 3)),
                rng: rng.fork(),
                until,
                think: cfg.think,
                keys_per_class: cfg.keys_per_class,
                recent_stale: cfg.recent_stale_reads,
                hist: hist.clone(),
            };
            id += 1;
            // Stagger starts so clients don't phase-lock.
            let offset = SimDuration::from_millis(20 + 7 * id as u64);
            c.schedule(offset, Box::new(move |c| step(c, cl)));
        }
    }

    // Run the workload window, then drain every in-flight operation. The
    // schedule ends with a heal, so the drain converges quickly; the
    // generous deadline only bounds a genuine hang.
    let tail = until + (schedule.span().saturating_sub(cfg.run_for)) + SimDuration::from_secs(5);
    c.run_until(tail);
    c.run_until_quiescent(tail + SimDuration::from_secs(120));

    let ops = hist.ops();
    debug_assert!(
        ops.iter().all(|o| o.outcome != Phase::Invoke),
        "drained run must complete every op"
    );
    let mut report = check(&ops, schedule, checker_cfg);
    // Scripted schedules carry seed 0; the run seed is what reproduces.
    report.seed = cfg.seed;

    // Latency split: ops invoked during a disruption window vs outside.
    let windows: Vec<(SimTime, SimTime)> = schedule
        .disruption_windows()
        .into_iter()
        .map(|(a, b)| (start + a, start + b))
        .collect();
    let mut recovery = LatencyRecorder::new();
    let mut steady = LatencyRecorder::new();
    for op in ops.iter().filter(|o| o.ok()) {
        let lat = op.latency().unwrap();
        if windows
            .iter()
            .any(|(a, b)| op.invoke_at >= *a && op.invoke_at < *b)
        {
            recovery.record(lat);
        } else {
            steady.record(lat);
        }
    }

    // Forensics must be captured while the cluster is still alive: the
    // tracer, event log, scrape store, and range registry all die with it.
    let bundle = IncidentBundle::collect(&c, schedule, &hist, &report);
    let splits = c.events.count_kind("range_split");
    let merges = c.events.count_kind("range_merge");
    let wal_recoveries = c.events.count_kind("wal_recovered");

    let ops_ok = ops.iter().filter(|o| o.ok()).count();
    ChaosOutcome {
        schedule: schedule.clone(),
        history: hist,
        report,
        ops_ok,
        ops_failed: ops.iter().filter(|o| o.outcome == Phase::Fail).count(),
        ops_info: ops
            .iter()
            .filter(|o| matches!(o.outcome, Phase::Info | Phase::Invoke))
            .count(),
        ops_per_sec: ops_ok as f64 * 1e9 / cfg.run_for.nanos() as f64,
        recovery_p99: recovery.quantile(0.99),
        steady_p99: steady.quantile(0.99),
        bundle,
        splits,
        merges,
        wal_recoveries,
    }
}
