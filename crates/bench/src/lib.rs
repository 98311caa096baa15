//! Experiment harnesses: the paper's evaluation ([`paper`]) and the probes.
//!
//! Each bench target (`cargo bench --bench fig3_regional_vs_global`, …)
//! prints one table or figure of the paper's evaluation section from its
//! definition in [`paper`]; the `paper_probe` binary runs them all and checks
//! their shapes. The other probes (`commit_probe`, `raft_probe`, …) each gate
//! one mechanism: a `<name>_probe` run returns its report,
//! `<name>_probe_json` renders `BENCH_<name>.json` and `<name>_probe_verdicts`
//! checks it, and the binary runs it at one fixed scale and ends with
//! [`verdict::conclude`], as `paper_probe` does. Simulated experiments are
//! deterministic: same seed, same numbers.

pub mod paper;
pub mod verdict;

use mr_chaos::{corner_cluster, prefix_span, run_txn, TxnEnd};
use mr_kv::cluster::{Cluster, ClusterConfig};
use mr_kv::zone::SurvivalGoal::{Region, Zone};
use mr_obs::export::JsonWriter;
use mr_sim::SimRng;
use multiregion::{SimDuration, SimTime, SqlDb};

use crate::verdict::{list, Check, Verdict};

/// JSON object for one merged latency histogram (nanosecond values).
pub fn obs_hist_json(h: &mr_obs::Histogram) -> String {
    let mut w = JsonWriter::default();
    w.obj_inline().field("count", h.count());
    w.field("p50_ns", h.quantile(0.5));
    w.field("p99_ns", h.quantile(0.99));
    w.field("max_ns", h.max()).end();
    w.finish().trim_end().to_owned()
}

/// Write one export file, naming the path if the write fails.
pub(crate) fn write_export(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        panic!("cannot write {path}: {e}");
    }
}

/// Write a finished run's observability exports next to the bench output:
/// `<prefix>_metrics.json` / `.csv` (registry dump), `<prefix>_scrapes.csv`
/// (time series), `<prefix>_events.json` (cluster event log),
/// `<prefix>_replication_report.json` (conformance report), and
/// `<prefix>_trace.json` (Chrome trace, only when spans were recorded).
/// All are deterministic for a fixed seed.
pub fn write_obs_exports(db: &SqlDb, prefix: &str) {
    let obs = &db.cluster.obs;
    let report = db.cluster.replication_report().export_json();
    let mut files = vec![
        ("metrics.json", obs.registry.dump_json()),
        ("metrics.csv", obs.registry.dump_csv()),
        ("scrapes.csv", obs.scraper.export_csv()),
        ("events.json", db.cluster.events.export_json()),
        ("replication_report.json", report),
    ];
    if !obs.tracer.is_empty() {
        files.push(("trace.json", obs.tracer.export_chrome_json()));
    }
    for (suffix, contents) in files {
        write_export(&format!("{prefix}_{suffix}"), &contents);
    }
}

// ---------------------------------------------------------------------------
// Commit-latency probe (parallel commits ablation)
// ---------------------------------------------------------------------------

/// One measured latency cell: client-observed transaction latency from
/// `txn_begin` to the commit acknowledgement, in simulated milliseconds.
pub struct CommitCell {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub n: usize,
}

/// One probe row: a (gateway region, write-shape) scenario measured under
/// both commit modes against the home region's RTT.
pub struct CommitRow {
    pub gateway_region: String,
    /// `"single"`: one write — the legacy 1PC fast path already commits
    /// this in one round trip, so pipelining must merely not regress it.
    /// `"multi"`: writes to two ZONE-survivable ranges homed in the same
    /// region — the paper's 2-RTT→1-RTT headline (legacy flushes intents,
    /// then writes the record; parallel commits overlap them). `"cross"`:
    /// a ZONE-survivable plus a REGION-survivable write, whose WAN quorum
    /// dominates but still hides the commit-record round trip.
    pub scenario: &'static str,
    /// Gateway-region ↔ home-region round trip.
    pub rtt_ms: f64,
    pub legacy: CommitCell,
    pub pipelined: CommitCell,
}

impl CommitCell {
    /// The cell of one set of samples (nanoseconds), which it sorts.
    fn of(nanos: &mut [u64]) -> CommitCell {
        assert!(!nanos.is_empty());
        nanos.sort_unstable();
        let ms = |q: f64| nanos[((nanos.len() - 1) as f64 * q).round() as usize] as f64 / 1e6;
        CommitCell {
            p50_ms: ms(0.5),
            p99_ms: ms(0.99),
            n: nanos.len(),
        }
    }
}

/// What a driven transaction does when one of its steps fails.
#[derive(Clone, Copy)]
enum OnAbort {
    /// The probe's traffic cannot legitimately abort: fail loudly.
    Panic,
    /// Roll back and run the same transaction again — descriptor surgery or
    /// a lease move aborted it mid-flight. Fifty aborts in a row is a hang.
    Retry,
}

/// What [`drive_kv_txns`] saw.
#[derive(Default)]
struct KvTxnStats {
    /// Begin→commit-ack latency of every committed attempt, in commit order
    /// (nanoseconds of simulated time).
    latencies: Vec<u64>,
    committed: u64,
    retries: u64,
}

/// Drive closed-loop KV transactions to quiescence: each client runs its
/// transaction shapes in order from its gateway through [`run_txn`] —
/// optionally read the first key (leaseholder fast path), write every key,
/// commit — and starts the next one when the commit acks.
fn drive_kv_txns(
    c: &mut Cluster,
    clients: Vec<(mr_sim::NodeId, Vec<Vec<mr_proto::Key>>)>,
    read_first: bool,
    on_abort: OnAbort,
) -> KvTxnStats {
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Drive {
        /// Each client's gateway and the shapes it has yet to start.
        clients: Vec<(mr_sim::NodeId, std::vec::IntoIter<Vec<mr_proto::Key>>)>,
        read_first: bool,
        on_abort: OnAbort,
        stats: KvTxnStats,
    }

    fn next_txn(c: &mut Cluster, st: Rc<RefCell<Drive>>, client: usize) {
        let next = {
            let (gateway, shapes) = &mut st.borrow_mut().clients[client];
            shapes.next().map(|shape| (*gateway, shape))
        };
        if let Some((gateway, shape)) = next {
            attempt(c, st, client, gateway, shape, 0);
        }
    }

    /// Run `shape` once more, after `aborts` aborted attempts.
    fn attempt(
        c: &mut Cluster,
        st: Rc<RefCell<Drive>>,
        client: usize,
        gateway: mr_sim::NodeId,
        shape: Vec<mr_proto::Key>,
        aborts: u32,
    ) {
        let started = c.now();
        let read = st.borrow().read_first.then(|| shape[0].clone());
        let value = mr_proto::Value::from("probe");
        let writes = shape.iter().map(|k| (k.clone(), Some(value.clone())));
        run_txn(c, gateway, read, writes.collect(), move |c, end| {
            let (h, e) = match end {
                TxnEnd::Committed { .. } => {
                    let dt = c.now().nanos() - started.nanos();
                    {
                        let stats = &mut st.borrow_mut().stats;
                        stats.committed += 1;
                        stats.latencies.push(dt);
                    }
                    return next_txn(c, st, client);
                }
                TxnEnd::Aborted(e) => (None, e),
                TxnEnd::CommitFailed(h, e) => (Some(h), e),
            };
            if let OnAbort::Panic = st.borrow().on_abort {
                panic!("probe txn failed: {e}");
            }
            st.borrow_mut().stats.retries += 1;
            assert!(
                aborts + 1 < 50,
                "probe txn stuck: 50 aborts in a row at gateway {gateway}"
            );
            let again = move |c: &mut Cluster| attempt(c, st, client, gateway, shape, aborts + 1);
            match h {
                // A failed commit is rolled back here; any other failure
                // already was.
                Some(h) => c.txn_rollback(h, Box::new(move |c, _| again(c))),
                None => again(c),
            }
        });
    }

    let n = clients.len();
    let st = Rc::new(RefCell::new(Drive {
        clients: clients
            .into_iter()
            .map(|(gateway, shapes)| (gateway, shapes.into_iter()))
            .collect(),
        read_first,
        on_abort,
        stats: KvTxnStats::default(),
    }));
    for client in 0..n {
        next_txn(c, st.clone(), client);
    }
    let deadline = SimTime(c.now().nanos() + SimDuration::from_secs(1_200).nanos());
    c.run_until_quiescent(deadline);
    Rc::try_unwrap(st)
        .ok()
        .expect("probe continuations still pending")
        .into_inner()
        .stats
}

/// One transaction shape: the key `<prefix>/<name>` under each prefix.
fn keys(prefixes: &[impl std::fmt::Display], name: &str) -> Vec<mr_proto::Key> {
    let key = |p| mr_proto::Key::from(format!("{p}/{name}").as_str());
    prefixes.iter().map(key).collect()
}

/// Drive `shapes.len()` write transactions sequentially from `gateway` and
/// return their begin→commit-ack latencies, with the cluster settled
/// afterwards (straggling async intent resolutions drained before the next
/// cell).
fn drive_commit_txns(
    c: &mut Cluster,
    gateway: mr_sim::NodeId,
    shapes: Vec<Vec<mr_proto::Key>>,
) -> Vec<u64> {
    let n = shapes.len();
    let stats = drive_kv_txns(c, vec![(gateway, shapes)], false, OnAbort::Panic);
    assert_eq!(stats.latencies.len(), n, "probe txns went missing");
    let settle = SimTime(c.now().nanos() + SimDuration::from_secs(2).nanos());
    c.run_until(settle);
    stats.latencies
}

/// Measure client-observed transaction latency (begin → commit ack) for
/// single-range and multi-range write transactions from every gateway
/// region, once with legacy synchronous commits and once with pipelining +
/// parallel commits. Deterministic for a fixed seed.
pub fn commit_probe(seed: u64, txns_per_cell: usize) -> Vec<CommitRow> {
    use mr_chaos::ChaosConfig;

    // Each scenario writes one key under each of its prefixes.
    let scenarios = [
        ("single", &["zs"][..]),
        ("multi", &["zs", "za"]),
        ("cross", &["zs", "rs"]),
    ];
    // samples[pipelined][scenario * 3 + region]: begin→commit-ack nanos.
    let mut samples: [Vec<Vec<u64>>; 2] = Default::default();
    let mut rtts = [0.0f64; 3];
    let mut region_names = vec![String::new(); 3];

    for pipelined in [false, true] {
        let cfg = ChaosConfig {
            seed,
            pipelined_writes: pipelined,
            parallel_commits: pipelined,
            ..ChaosConfig::default()
        };
        // The chaos cluster plus a second ZONE-survivable range homed
        // alongside `zs/*`: the `multi` scenario spans the two so the
        // transaction cannot take the 1PC fast path yet both intent quorums
        // stay in-region.
        let ranges = [
            (prefix_span("rs"), Region),
            (prefix_span("zs"), Zone),
            (prefix_span("za"), Zone),
        ];
        let (mut c, _) = corner_cluster(cfg.cluster_config(), &ranges);
        c.run_until(SimTime(SimDuration::from_secs(3).nanos()));
        for (_, prefixes) in &scenarios {
            for region in 0..3u32 {
                let gateway = mr_sim::NodeId(region * 3);
                let topo = c.topology();
                region_names[region as usize] = topo.region_name(mr_sim::RegionId(region)).into();
                rtts[region as usize] =
                    topo.nominal_rtt(gateway, mr_sim::NodeId(0)).nanos() as f64 / 1e6;
                let first = if pipelined { txns_per_cell } else { 0 };
                let shapes = (first..first + txns_per_cell)
                    .map(|i| keys(prefixes, &format!("p{region}_{i}")))
                    .collect();
                samples[pipelined as usize].push(drive_commit_txns(&mut c, gateway, shapes));
            }
        }
    }

    let [mut legacy, mut piped] = samples;
    let mut rows = Vec::new();
    for (si, (name, _)) in scenarios.iter().enumerate() {
        for region in 0..3usize {
            let cell = si * 3 + region;
            rows.push(CommitRow {
                gateway_region: region_names[region].clone(),
                scenario: name,
                rtt_ms: rtts[region],
                legacy: CommitCell::of(&mut legacy[cell]),
                pipelined: CommitCell::of(&mut piped[cell]),
            });
        }
    }
    rows
}

/// Render probe rows as the deterministic `BENCH_commit.json` document.
pub fn commit_probe_json(rows: &[CommitRow]) -> String {
    let mut w = JsonWriter::default();
    w.obj().key("rows").arr();
    for r in rows {
        w.obj().field("gateway_region", &r.gateway_region);
        w.field("scenario", r.scenario);
        w.key("rtt_ms").fixed(r.rtt_ms, 3);
        for (name, c) in [("legacy", &r.legacy), ("pipelined", &r.pipelined)] {
            w.key(name).obj_inline().key("p50_ms").fixed(c.p50_ms, 3);
            w.key("p99_ms").fixed(c.p99_ms, 3).field("n", c.n).end();
        }
        w.end();
    }
    w.end().end();
    w.finish()
}

/// The gates of `commit_probe`'s rows. Each claim holds on every cell it
/// names, with margins generous over the deterministic measurements, so
/// only a structural regression (an extra WAN round trip back on the commit
/// path) trips one, not drift. Only the pipelining claim covers the home
/// region, whose latencies are sub-RTT in either mode. `seen` lists each
/// cell with the two values compared.
pub fn commit_probe_verdicts(rows: &[CommitRow]) -> Vec<Verdict> {
    type Of = fn(&CommitRow) -> f64;
    // `holds(a, b)` on every cell, or on the remote cells of one scenario.
    let cells = |scenario: Option<&str>, (a, b): (Of, Of), holds: fn(f64, f64) -> bool| {
        let named = |r: &&CommitRow| scenario.is_none_or(|s| r.scenario == s && r.rtt_ms >= 1.0);
        let (mut ok, mut seen) = (true, Vec::new());
        for r in rows.iter().filter(named) {
            ok &= holds(a(r), b(r));
            let (who, what) = (&r.gateway_region, r.scenario);
            seen.push(format!("{who}/{what} {:.1}/{:.1}", a(r), b(r)));
        }
        Check(ok, seen.join(", "))
    };
    let piped: Of = |r| r.pipelined.p50_ms;
    let legacy: Of = |r| r.legacy.p50_ms;
    let rtt: Of = |r| r.rtt_ms;
    vec![
        cells(None, (piped, legacy), |p, l| p <= l * 1.05)
            .gate("pipelining is never slower: pipelined p50 <= 1.05 x legacy p50 in every cell"),
        cells(Some("single"), (piped, rtt), |p, t| p <= 1.4 * t)
            .gate("a single-range commit is one round trip: pipelined p50 <= 1.4 x RTT"),
        cells(Some("multi"), (legacy, rtt), |l, t| l >= 1.6 * t)
            .gate("a legacy multi-range commit pays two round trips: legacy p50 >= 1.6 x RTT"),
        cells(Some("multi"), (piped, rtt), |p, t| p <= 1.4 * t)
            .gate("a parallel multi-range commit is one round trip: pipelined p50 <= 1.4 x RTT"),
        cells(Some("multi"), (piped, legacy), |p, l| p <= 0.65 * l)
            .gate("parallel commits save the round trip: multi pipelined p50 <= 0.65 x legacy"),
        cells(Some("cross"), (piped, legacy), |p, l| p <= 0.8 * l)
            .gate("the REGION write hides the record round trip: pipelined p50 <= 0.8 x legacy"),
    ]
}

// ---------------------------------------------------------------------------
// Raft machinery probe (group commit + quiescence)
// ---------------------------------------------------------------------------

/// One batching phase: concurrent multi-range writers driven closed-loop,
/// Raft entry and command counts read from the registry afterwards.
pub struct RaftPhase {
    /// Commands proposed through the batched path.
    pub commands: u64,
    /// Raft entries those commands were coalesced into.
    pub entries: u64,
    /// `commands / entries` — group commit works when this exceeds 1.
    pub mean_occupancy: f64,
    /// Commands per simulated second (client-observed throughput proxy).
    pub proposals_per_sec: f64,
    /// Transactions the phase committed.
    pub txns: u64,
    /// Leaseholder reads served without a Raft proposal (each txn opens
    /// with one read, so this should equal `txns`).
    pub read_fast_path: u64,
}

/// The full probe: group-commit occupancy with and without a flush window,
/// plus heartbeat rates over a cold cluster with and without quiescence.
pub struct RaftProbeReport {
    /// Flush window of [`RAFT_PROBE_FLUSH_MS`] ms: concurrent proposals
    /// coalesce into multi-command entries.
    pub batched: RaftPhase,
    /// Zero flush window: only same-instant arrivals share an entry — the
    /// baseline the batched phase must beat on occupancy.
    pub unbatched: RaftPhase,
    /// Leaseholder reads served without a Raft proposal (read fast path)
    /// across both phases.
    pub read_fast_path: u64,
    /// Idle ranges in the quiescence A/B cluster.
    pub cold_ranges: u32,
    /// Heartbeat (empty AppendEntries) messages per simulated second over
    /// the idle window with quiescence disabled / enabled.
    pub hb_per_sec_off: f64,
    pub hb_per_sec_on: f64,
    /// `hb_off / max(hb_on, 1)` as totals — the suppression factor.
    pub heartbeat_suppression: f64,
}

/// Flush window used by the batched phase, in milliseconds.
pub const RAFT_PROBE_FLUSH_MS: u64 = 2;

/// The corner cluster with `zs/` + `za/` ZONE-survivable and `rs/`
/// REGION-survivable ranges, plus `cold<i>/` ranges no workload ever
/// touches.
fn raft_probe_cluster(seed: u64, flush: SimDuration, quiesce: bool, cold_ranges: u32) -> Cluster {
    let mut ranges = vec![
        (prefix_span("zs"), Zone),
        (prefix_span("za"), Zone),
        (prefix_span("rs"), Region),
    ];
    ranges.extend((0..cold_ranges).map(|i| (prefix_span(&format!("cold{i}")), Zone)));
    let cfg = ClusterConfig {
        seed,
        raft_flush_interval: flush,
        raft_quiescence: quiesce,
        ..ClusterConfig::default()
    };
    corner_cluster(cfg, &ranges).0
}

/// One batching phase: 4 clients on each region-0 gateway, every txn
/// reading then writing one `zs/` and one `za/` key (multi-range, so the
/// STAGING record and second intent live in different Raft logs).
fn raft_batching_phase(seed: u64, flush: SimDuration, txns_per_client: usize) -> RaftPhase {
    let mut c = raft_probe_cluster(seed, flush, true, 0);
    c.run_until(SimTime(SimDuration::from_secs(3).nanos()));
    c.scrape_now();
    let counts = |c: &Cluster| {
        let m = c.metrics();
        [&m.proposals_batched, &m.entries_proposed, &m.read_fast_path].map(|n| n.get())
    };
    let before = counts(&c);
    let t0 = c.now();
    let mut clients = Vec::new();
    for node in 0..3u32 {
        for ci in 0..4u32 {
            let shapes = (0..txns_per_client)
                .map(|i| keys(&["zs", "za"], &format!("n{node}c{ci}_{i}")))
                .collect();
            clients.push((mr_sim::NodeId(node), shapes));
        }
    }
    let expected = clients.len() * txns_per_client;
    let txns = drive_kv_txns(&mut c, clients, true, OnAbort::Panic).committed;
    assert_eq!(txns as usize, expected, "probe txns went missing");
    let dt_secs = (c.now().nanos() - t0.nanos()) as f64 / 1e9;
    c.scrape_now();
    let after = counts(&c);
    let [commands, entries, read_fast_path] = [0, 1, 2].map(|i| after[i] - before[i]);
    RaftPhase {
        commands,
        entries,
        mean_occupancy: commands as f64 / entries.max(1) as f64,
        proposals_per_sec: commands as f64 / dt_secs,
        txns,
        read_fast_path,
    }
}

/// Heartbeat messages per simulated second over a 20s idle window on a
/// cluster with `cold` untouched ranges, measured after a 5s settle.
fn raft_heartbeat_phase(seed: u64, quiesce: bool, cold: u32) -> (f64, u64) {
    let mut c = raft_probe_cluster(seed, SimDuration::ZERO, quiesce, cold);
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let before = c.metrics().heartbeats_sent.get();
    let window = SimDuration::from_secs(20);
    c.run_until(SimTime(c.now().nanos() + window.nanos()));
    let total = c.metrics().heartbeats_sent.get() - before;
    (total as f64 / (window.nanos() as f64 / 1e9), total)
}

/// Run the full raft probe: batched vs unbatched occupancy under
/// concurrent multi-range writers, and the quiescence heartbeat A/B over
/// `cold_ranges` idle ranges. Deterministic for a fixed seed.
pub fn raft_probe(seed: u64, txns_per_client: usize, cold_ranges: u32) -> RaftProbeReport {
    let batched = raft_batching_phase(
        seed,
        SimDuration::from_millis(RAFT_PROBE_FLUSH_MS),
        txns_per_client,
    );
    let unbatched = raft_batching_phase(seed, SimDuration::ZERO, txns_per_client);
    let read_fast_path = batched.read_fast_path + unbatched.read_fast_path;
    let (hb_per_sec_off, hb_off) = raft_heartbeat_phase(seed, false, cold_ranges);
    let (hb_per_sec_on, hb_on) = raft_heartbeat_phase(seed, true, cold_ranges);
    RaftProbeReport {
        batched,
        unbatched,
        read_fast_path,
        cold_ranges,
        hb_per_sec_off,
        hb_per_sec_on,
        heartbeat_suppression: hb_off as f64 / hb_on.max(1) as f64,
    }
}

/// Render the probe as the deterministic `BENCH_raft.json` document.
pub fn raft_probe_json(r: &RaftProbeReport) -> String {
    let mut w = JsonWriter::default();
    w.obj();
    for (name, p) in [("batched", &r.batched), ("unbatched", &r.unbatched)] {
        w.key(name).obj_inline().field("commands", p.commands);
        w.field("entries", p.entries);
        w.key("mean_occupancy").fixed(p.mean_occupancy, 3);
        w.key("proposals_per_sec").fixed(p.proposals_per_sec, 1);
        w.field("txns", p.txns);
        w.field("read_fast_path", p.read_fast_path).end();
    }
    w.field("read_fast_path", r.read_fast_path);
    w.key("quiescence").obj_inline();
    w.field("cold_ranges", r.cold_ranges);
    w.key("hb_per_sec_off").fixed(r.hb_per_sec_off, 1);
    w.key("hb_per_sec_on").fixed(r.hb_per_sec_on, 1);
    w.key("suppression").fixed(r.heartbeat_suppression, 1);
    w.end().end();
    w.finish()
}

/// The gates of a raft probe report.
pub fn raft_probe_verdicts(r: &RaftProbeReport) -> Vec<Verdict> {
    let (b, u) = (&r.batched, &r.unbatched);
    let occupancy = [b.mean_occupancy, u.mean_occupancy];
    let rates = list(&[b.proposals_per_sec, u.proposals_per_sec]);
    let heartbeats = [r.heartbeat_suppression, r.hb_per_sec_off, r.hb_per_sec_on];
    let txns = b.txns + u.txns;
    let fast = format!("{} of {txns}", r.read_fast_path);
    vec![
        Check(b.mean_occupancy > 1.5, list(&occupancy[..1]))
            .gate("group commit fills entries: batched mean occupancy > 1.5"),
        Check(b.mean_occupancy > u.mean_occupancy, list(&occupancy))
            .gate("the flush window beats the zero-window occupancy: batched / unbatched"),
        // The window trades a bounded latency bump for fewer consensus
        // rounds; it must not cost real throughput.
        Check(b.proposals_per_sec >= 0.5 * u.proposals_per_sec, rates)
            .gate("batched proposals/s >= 0.5 x unbatched: batched / unbatched"),
        // The cold ranges stop heartbeating entirely; the residual rate is
        // the settle tail before each leader quiesced.
        Check(r.heartbeat_suppression >= 10.0, list(&heartbeats))
            .gate("quiescence cuts idle heartbeats >= 10x: factor / per s off / on"),
        Check(r.read_fast_path >= txns, fast)
            .gate("every opening read rides the leaseholder fast path"),
    ]
}

// ---------------------------------------------------------------------------
// Range lifecycle probe (splits + load-based rebalancing)
// ---------------------------------------------------------------------------

/// One lifecycle phase: a skewed remote workload against a keyspace that
/// starts as a single range homed far from its traffic.
pub struct SplitPhase {
    /// Transactions committed (fixed per phase; elapsed time varies).
    pub txns: u64,
    /// Transactions retried after a surgery- or lease-move-induced abort.
    pub retries: u64,
    /// Committed transactions per simulated second — the closed-loop
    /// throughput the phase sustained.
    pub ops_per_sec: f64,
    /// Live ranges when the workload drained.
    pub ranges: usize,
    /// `range_split` / `range_merge` / `lease_rebalance` events during the
    /// workload.
    pub splits: usize,
    pub merges: usize,
    pub lease_rebalances: usize,
    /// p99 of descriptor-surgery latency (propose → apply) in ms; 0 when
    /// no split happened.
    pub split_p99_ms: f64,
    /// The hottest range's share of total QPS at drain time, in milli
    /// (1000 = all load on one range — the static baseline by definition).
    pub hottest_share_milli: u64,
    /// Lifecycle ticks from workload start until the controller's last
    /// action — how fast the topology converged.
    pub convergence_ticks: u64,
    /// Live ranges after a 90s idle tail: cold-range merges should fold
    /// the split topology back down.
    pub ranges_after_idle: usize,
}

/// The full probe: the same workload with the lifecycle controller off
/// (static single range) and on (splits + rebalancing).
pub struct SplitProbeReport {
    pub baseline: SplitPhase,
    pub lifecycle: SplitPhase,
}

/// The split-probe cluster: the corner cluster with one REGION-survivable
/// range over the whole keyspace homed in region 0 — every client is in
/// regions 1 and 2, so the static topology pays cross-region RTT on each
/// op until the controller splits at the load median and moves each
/// half's lease toward its demand.
fn split_probe_cluster(seed: u64, lifecycle_on: bool) -> Cluster {
    let cfg = ClusterConfig {
        seed,
        lifecycle: mr_kv::cluster::LifecycleConfig {
            enabled: lifecycle_on,
            // ~12 remote closed-loop clients sustain 50-100 qps on the
            // single range; split well below that, and keep the rebalance
            // floor low enough that each post-split half (half the traffic)
            // still clears it. Tick and cooldown are tightened so
            // convergence is a prefix of the run, not the whole run.
            split_qps_milli: 40_000,
            rebalance_min_qps_milli: 500,
            interval: SimDuration::from_secs(1),
            cooldown: SimDuration::from_secs(3),
            ..Default::default()
        },
        ..ClusterConfig::default()
    };
    corner_cluster(cfg, &[(mr_proto::Span::all(), Region)]).0
}

/// Run one phase: 2 clients on each node of regions 1 and 2, each
/// committing `txns_per_client` single-key read-write transactions on its
/// own small key set (`u1/...` sorts wholly before `u2/...`, so the load
/// median falls on the region boundary).
fn split_phase(seed: u64, lifecycle_on: bool, txns_per_client: usize) -> SplitPhase {
    let mut c = split_probe_cluster(seed, lifecycle_on);
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let mut clients = Vec::new();
    for region in 1..3u32 {
        for node in (region * 3)..(region * 3 + 3) {
            for ci in 0..2u32 {
                // One single-key transaction each, highest `i` first.
                let prefix = [format!("u{region}")];
                let shapes = (0..txns_per_client)
                    .rev()
                    .map(|i| keys(&prefix, &format!("n{node}c{ci}k{}", i % 4)))
                    .collect();
                clients.push((mr_sim::NodeId(node), shapes));
            }
        }
    }
    let expected = clients.len() * txns_per_client;
    let t0 = c.now();
    let stats = drive_kv_txns(&mut c, clients, true, OnAbort::Retry);
    let (txns, retries) = (stats.committed, stats.retries);
    assert_eq!(txns as usize, expected, "split probe txns went missing");
    let drained = c.now();
    let dt_secs = (drained.nanos() - t0.nanos()) as f64 / 1e9;

    let hot = c.obs.load.hot_ranges(drained);
    let total_qps: u64 = hot.iter().map(|s| s.qps_milli).sum();
    let hottest_share_milli = hot
        .first()
        .map_or(1000, |s| s.qps_milli * 1000 / total_qps.max(1));
    let mut lat: Vec<u64> = c.split_latencies().to_vec();
    lat.sort_unstable();
    let split_p99_ms = if lat.is_empty() {
        0.0
    } else {
        lat[(lat.len() - 1).min(lat.len() * 99 / 100)] as f64 / 1e6
    };
    let convergence_ticks = c
        .last_lifecycle_action()
        .map_or(0, |t| t.0.saturating_sub(t0.0))
        .div_ceil(c.cfg.lifecycle.interval.nanos().max(1));
    let (splits, merges, lease_rebalances, ranges) = (
        c.events.count_kind("range_split"),
        c.events.count_kind("range_merge"),
        c.events.count_kind("lease_rebalance"),
        c.registry().len(),
    );

    // Idle tail: traffic is gone, so the halves go cold and the merge pass
    // should fold the keyspace back down (and leases re-home).
    c.run_until(SimTime(
        drained.nanos() + SimDuration::from_secs(90).nanos(),
    ));
    SplitPhase {
        txns,
        retries,
        ops_per_sec: txns as f64 / dt_secs,
        ranges,
        splits,
        merges,
        lease_rebalances,
        split_p99_ms,
        hottest_share_milli,
        convergence_ticks,
        ranges_after_idle: c.registry().len(),
    }
}

/// Run the full split probe: static baseline vs lifecycle-enabled run of
/// the same skewed remote workload. Deterministic for a fixed seed.
pub fn split_probe(seed: u64, txns_per_client: usize) -> SplitProbeReport {
    SplitProbeReport {
        baseline: split_phase(seed, false, txns_per_client),
        lifecycle: split_phase(seed, true, txns_per_client),
    }
}

/// Render the probe as the deterministic `BENCH_split.json` document.
pub fn split_probe_json(r: &SplitProbeReport) -> String {
    let mut w = JsonWriter::default();
    w.obj();
    for (name, p) in [("baseline", &r.baseline), ("lifecycle", &r.lifecycle)] {
        w.key(name).obj_inline().field("txns", p.txns);
        w.field("retries", p.retries);
        w.key("ops_per_sec").fixed(p.ops_per_sec, 1);
        w.field("ranges", p.ranges).field("splits", p.splits);
        w.field("merges", p.merges);
        w.field("lease_rebalances", p.lease_rebalances);
        w.key("split_p99_ms").fixed(p.split_p99_ms, 3);
        w.field("hottest_share_milli", p.hottest_share_milli);
        w.field("convergence_ticks", p.convergence_ticks);
        w.field("ranges_after_idle", p.ranges_after_idle).end();
    }
    let speedup = r.lifecycle.ops_per_sec / r.baseline.ops_per_sec.max(1e-9);
    w.key("speedup").fixed(speedup, 3).end();
    w.finish()
}

/// The gates of a split probe report.
pub fn split_probe_verdicts(r: &SplitProbeReport) -> Vec<Verdict> {
    let (b, l) = (&r.baseline, &r.lifecycle);
    let shape = |p: &SplitPhase| format!("{} splits, {} ranges", p.splits, p.ranges);
    let rates = list(&[l.ops_per_sec, b.ops_per_sec]);
    let (moves, share) = (l.lease_rebalances, l.hottest_share_milli);
    let idle = format!("{} at drain, {} after idle", l.ranges, l.ranges_after_idle);
    let p99 = list(&[l.split_p99_ms]);
    vec![
        Check(b.splits == 0 && b.ranges == 1, shape(b)).gate("the static baseline stays one range"),
        Check(l.splits >= 1, shape(l)).gate("the lifecycle splits under the skewed workload"),
        Check(moves >= 1, format!("{moves} moves"))
            .gate("a lease moves toward demand after the splits"),
        // The acceptance bar: post-split throughput scales past the
        // single-range baseline.
        Check(l.ops_per_sec > b.ops_per_sec, rates)
            .gate("the lifecycle beats the static throughput: ops/s lifecycle / static"),
        Check(share < 1000, format!("{share}/1000"))
            .gate("load disperses: the hottest range carries < 1000/1000 after splitting"),
        Check(l.splits == 0 || l.split_p99_ms > 0.0, p99)
            .gate("splits record their surgery latency: p99 ms"),
        // Hysteresis must not leave the keyspace shattered once traffic
        // stops.
        Check(l.ranges_after_idle < l.ranges || l.ranges <= 1, idle)
            .gate("the idle tail merges split ranges"),
    ]
}

// ---------------------------------------------------------------------------
// Observability probe (per-range load telemetry + latency attribution)
// ---------------------------------------------------------------------------

/// Open-loop read rate the skew phase drives at the hot range (ops/sec).
pub const OBS_READ_HZ: u64 = 50;
/// Open-loop write rate the skew phase drives at the warm range (ops/sec).
pub const OBS_WRITE_HZ: u64 = 5;

/// Everything the obs probe measures, plus the deterministic exports the
/// golden test pins byte-for-byte.
pub struct ObsProbeReport {
    /// Range id of the deliberately skewed (hot) range.
    pub hot_range: u64,
    /// Range id of the background (warm) write range.
    pub warm_range: u64,
    /// The rate the skew phase drove at the hot range, milli-qps.
    pub driven_qps_milli: u64,
    /// `LoadRecorder::hot_ranges` snapshot taken right as the skew ends.
    pub hot: Vec<mr_obs::RangeLoadSnapshot>,
    /// `kv.txn.commits` growth expected over the steady window, milli/sec.
    pub expected_commit_rate_milli: i64,
    /// The same rate as the scrape store reports it at each resolution.
    pub commit_rate_fine_milli: i64,
    pub commit_rate_coarse_milli: i64,
    /// Retained in-window samples at each resolution.
    pub fine_samples: usize,
    pub coarse_samples: usize,
    /// Latency-attribution sums over every retained transaction record.
    pub attr_txns: usize,
    pub attr_total_nanos: u64,
    /// Nanos charged to a named component (rpc, replication, lock-wait,
    /// commit-wait, retry) — the rest is `other`.
    pub attr_named_nanos: u64,
    pub attr_other_nanos: u64,
    /// Registry cardinality after the run (the CI budget gate input).
    pub instrument_count: usize,
    /// Deterministic exports embedded into `BENCH_obs.json`.
    pub hot_ranges_json: String,
    pub slow_txns_json: String,
    pub metrics_history_json: String,
}

impl ObsProbeReport {
    /// Share of end-to-end transaction latency the named attribution
    /// components explain (the acceptance gate wants ≥ 0.95).
    pub fn named_fraction(&self) -> f64 {
        if self.attr_total_nanos == 0 {
            return 0.0;
        }
        self.attr_named_nanos as f64 / self.attr_total_nanos as f64
    }
}

/// The end of a probe transaction that cannot legitimately fail.
fn expect_commit(_: &mut Cluster, end: TxnEnd) {
    assert!(
        matches!(end, TxnEnd::Committed { .. }),
        "probe txn failed: {end:?}"
    );
}

/// Drive the load-telemetry pipeline end to end: an open-loop read skew
/// at one range (plus a 10x-slower write trickle at a second), then a
/// closed-loop batch of multi-range write transactions for attribution.
/// Deterministic for a fixed seed.
pub fn obs_probe(seed: u64, skew_secs: u64, write_txns: usize) -> ObsProbeReport {
    use mr_obs::Resolution;

    assert!(skew_secs >= 10, "skew phase too short to settle the EWMA");
    let cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let ranges = [(prefix_span("zs"), Zone), (prefix_span("za"), Zone)];
    let (mut c, ids) = corner_cluster(cfg, &ranges);
    let (hot_range, warm_range) = (ids[0], ids[1]);
    c.run_until(SimTime(SimDuration::from_secs(3).nanos()));

    // Skew phase: point reads at `zs/hot` every 1/OBS_READ_HZ seconds of
    // sim time, with a write to the warm range every OBS_WRITE_HZ-th tick.
    // Each op is its own (read-only or single-write) transaction so the
    // commit counter grows at exactly OBS_READ_HZ + OBS_WRITE_HZ per
    // second over the steady window.
    let gw = mr_sim::NodeId(0);
    let t0 = c.now();
    let ticks = skew_secs * OBS_READ_HZ;
    for i in 0..ticks {
        c.run_until(SimTime(t0.nanos() + i * 1_000_000_000 / OBS_READ_HZ));
        let hot = Some(mr_proto::Key::from("zs/hot"));
        run_txn(&mut c, gw, hot, Vec::new(), expect_commit);
        if i % (OBS_READ_HZ / OBS_WRITE_HZ) == 0 {
            let key = mr_proto::Key::from(format!("za/w{i}").as_str());
            let value = Some(mr_proto::Value::from("obs-probe"));
            run_txn(&mut c, gw, None, vec![(key, value)], expect_commit);
        }
    }
    let t_skew_end = SimTime(t0.nanos() + skew_secs * 1_000_000_000);
    c.run_until(t_skew_end);
    c.run_until_quiescent(SimTime(
        c.now().nanos() + SimDuration::from_secs(60).nanos(),
    ));

    // Snapshot the heat ranking right as the skew ends, before idling
    // decays it away.
    let hot = c.obs.load.hot_ranges(c.now());

    // Counter rates over the interior of the skew window (2s trimmed from
    // each edge so ramp-up scrapes don't bias the delta), at both
    // resolutions.
    let wfrom = SimTime(t0.nanos() + 2_000_000_000);
    let wto = SimTime(t_skew_end.nanos() - 2_000_000_000);
    let scraper = &c.obs.scraper;
    let rate = |res| scraper.rate_milli("kv.txn.commits", res, wfrom, wto);
    let samples = |res| scraper.window("kv.txn.commits", res, wfrom, wto).len();
    let commit_rate_fine_milli = rate(Resolution::Fine).unwrap_or(0);
    let commit_rate_coarse_milli = rate(Resolution::Coarse).unwrap_or(0);
    let (fine_samples, coarse_samples) = (samples(Resolution::Fine), samples(Resolution::Coarse));

    // Attribution phase: closed-loop multi-range write transactions (the
    // kind whose latency the paper dissects — intent replication plus the
    // parallel-commit record).
    let shapes = (0..write_txns)
        .map(|i| keys(&["zs", "za"], &format!("b{i}")))
        .collect();
    drive_commit_txns(&mut c, gw, shapes);

    let (mut total, mut named) = (0u64, 0u64);
    let records = c.attr_log.records();
    for r in &records {
        total += r.breakdown.total_nanos;
        named += r.breakdown.comp_nanos.iter().sum::<u64>();
    }
    c.scrape_now();

    let now = c.now();
    ObsProbeReport {
        hot_range: hot_range.0,
        warm_range: warm_range.0,
        driven_qps_milli: OBS_READ_HZ * 1000,
        expected_commit_rate_milli: ((OBS_READ_HZ + OBS_WRITE_HZ) * 1000) as i64,
        commit_rate_fine_milli,
        commit_rate_coarse_milli,
        fine_samples,
        coarse_samples,
        attr_txns: records.len(),
        attr_total_nanos: total,
        attr_named_nanos: named,
        attr_other_nanos: total - named,
        instrument_count: c.obs.registry.instrument_count(),
        hot_ranges_json: c.obs.load.export_json(now, 10),
        slow_txns_json: c.attr_log.export_json(20),
        metrics_history_json: c.obs.scraper.export_json(&[
            "kv.txn.commits",
            "kv.attr.slow_txn_records",
            "kv.load.tracked_ranges",
        ]),
        hot,
    }
}

/// Render the probe as the deterministic `BENCH_obs.json` document.
pub fn obs_probe_json(r: &ObsProbeReport) -> String {
    let mut w = JsonWriter::default();
    w.obj().key("skew").obj_inline();
    w.field("hot_range", r.hot_range);
    w.field("warm_range", r.warm_range);
    w.field("driven_qps_milli", r.driven_qps_milli);
    w.key("hot_ranges").arr_inline();
    for s in r.hot.iter().take(5) {
        w.obj_inline();
        s.write_fields(&mut w);
        w.end();
    }
    w.end().end().key("rates").obj_inline();
    w.field("expected_milli", r.expected_commit_rate_milli);
    w.field("fine_milli", r.commit_rate_fine_milli);
    w.field("coarse_milli", r.commit_rate_coarse_milli);
    w.field("fine_samples", r.fine_samples);
    w.field("coarse_samples", r.coarse_samples);
    w.end().key("attribution").obj_inline();
    w.field("txns", r.attr_txns);
    w.field("total_nanos", r.attr_total_nanos);
    w.field("named_nanos", r.attr_named_nanos);
    w.field("other_nanos", r.attr_other_nanos);
    w.key("named_fraction").fixed(r.named_fraction(), 4).end();
    w.field("instrument_count", r.instrument_count);
    w.key("slow_txns").raw(r.slow_txns_json.trim_end());
    w.key("hot_ranges_export").raw(r.hot_ranges_json.trim_end());
    let history = r.metrics_history_json.trim_end();
    w.key("metrics_history").raw(history);
    w.end();
    w.finish()
}

/// The gates of an obs probe report.
pub fn obs_probe_verdicts(r: &ObsProbeReport) -> Vec<Verdict> {
    let near = |v: f64, want: f64| (v - want).abs() <= 0.10 * want;
    let top = r.hot.first();
    let ranked = top.map_or("an empty ranking".into(), |t| {
        format!("r{} at {}m qps", t.range, t.qps_milli)
    });
    let first = top.is_some_and(|t| t.range == r.hot_range);
    let driven = r.driven_qps_milli as f64;
    let at_rate = top.is_some_and(|t| near(t.qps_milli as f64, driven));
    let expected = r.expected_commit_rate_milli;
    let rate = |rate: i64| {
        let seen = format!("{rate}m/s, driven {expected}m/s");
        Check(near(rate as f64, expected as f64), seen)
    };
    let samples = |n: usize| Check(n >= 2, format!("{n} samples"));
    let named = r.named_fraction();
    vec![
        Check(first, ranked.clone()).gate("the skewed range ranks hottest"),
        Check(at_rate, ranked).gate("its decayed QPS is within 10% of the driven rate"),
        samples(r.fine_samples).gate("the fine window holds >= 2 samples"),
        rate(r.commit_rate_fine_milli).gate("the fine commit rate is within 10% of the driven"),
        samples(r.coarse_samples).gate("the coarse window holds >= 2 samples"),
        rate(r.commit_rate_coarse_milli).gate("the coarse commit rate is within 10% of the driven"),
        Check(r.attr_txns > 0, format!("{} txns", r.attr_txns))
            .gate("the attribution log holds transactions"),
        // A growing `other` bucket is an instrumentation hole on the
        // client's critical path.
        Check(named >= 0.95, format!("{:.1}%", 100.0 * named))
            .gate("named components explain >= 95% of transaction latency"),
        // Per-range load lives in the LoadRecorder, never as per-range
        // registry instruments.
        Check(r.instrument_count <= 128, format!("{}", r.instrument_count))
            .gate("the registry holds <= 128 instruments"),
    ]
}

// ---------------------------------------------------------------------------
// Storage probe (WAL / LSM / GC durability engine)
// ---------------------------------------------------------------------------

/// Everything the storage probe measures against the durable engine: how
/// often a run's hash index answers a cold-key lookup without the run being
/// read (the `bloom_*` fields keep the names `BENCH_storage.json` has always
/// used), GC reclamation on an
/// overwrite-heavy workload under an active protected timestamp, and a
/// crash-recovery smoke over the resulting state.
pub struct StorageProbeReport {
    /// Immutable sorted runs the cold-key phase built (one per flush).
    pub bloom_runs: usize,
    /// Point lookups issued in the measured read phase.
    pub bloom_lookups: u64,
    /// Per-run probes those lookups triggered.
    pub bloom_probes: u64,
    /// Probes answered by the run's index without touching run entries.
    pub bloom_skips: u64,
    /// `bloom_skips / bloom_probes` in milli (gate: >= 900).
    pub bloom_skip_milli: u64,
    /// Committed versions the overwrite phase wrote.
    pub gc_versions_written: usize,
    /// Versions resident before the first maintenance pass.
    pub gc_versions_before: usize,
    /// Versions resident after GC under the active protection.
    pub gc_versions_protected: usize,
    /// Versions resident after the protection is released and GC reruns.
    pub gc_versions_after: usize,
    /// Share of `gc_versions_before` reclaimed while the protection was
    /// still active, in milli (gate: >= 500).
    pub gc_reclaim_milli: u64,
    /// An AOST read at the protected timestamp returned the right value
    /// *after* GC ran up to it (gate: true).
    pub protected_read_ok: bool,
    /// A read below the ratcheted threshold failed with
    /// `BelowGcThreshold` rather than returning silently-incomplete data
    /// (gate: true).
    pub below_threshold_read_errors: bool,
    /// WAL records replayed by the closing crash-recovery smoke.
    pub wal_replayed: u64,
    /// Versions visible after recovery (must equal `gc_versions_after`).
    pub recovered_versions: usize,
    /// Maintenance passes the compaction phase ran after its base load.
    pub compaction_passes: usize,
    /// Versions the compaction phase flushed out of the memtable.
    pub compaction_flushed: usize,
    /// Versions compaction wrote back into runs.
    pub compaction_rewritten: usize,
    /// `(flushed + rewritten) / flushed` in milli (gate: <= 3000).
    pub write_amp_milli: u64,
    /// Most sorted runs standing after any pass (gate: <= 8).
    pub compaction_max_runs: usize,
    /// Most versions retained after any pass, over one live version per
    /// key, in milli (gate: <= 1850).
    pub space_amp_milli: u64,
}

/// Drive the storage engine the way a replica does — put intent, commit
/// it, seal the Raft entry into the WAL, fsync — one write per entry.
fn storage_commit(
    eng: &mut mr_storage::Engine,
    key: &mr_proto::Key,
    value: &str,
    ts: mr_clock::Timestamp,
    idx: &mut u64,
) {
    use mr_proto::{TxnId, TxnMeta};
    let txn = TxnMeta::new(TxnId(*idx), key.clone(), ts);
    eng.put(key, Some(mr_proto::Value::from(value)), &txn)
        .expect("probe writes never conflict");
    eng.commit_intent(key, txn.id, ts);
    eng.seal_entry(*idx, ts);
    eng.sync(ts.wall);
    *idx += 1;
}

/// Run the storage probe. Deterministic for a fixed seed: the seed only
/// shuffles the cold-key lookup order, never the data.
pub fn storage_probe(seed: u64) -> StorageProbeReport {
    use mr_clock::Timestamp;
    use mr_proto::{Key, ReadCtx};
    use mr_storage::{gc_threshold, Engine, MvccError, ProtectedTimestamps};

    let ns = 1_000_000_000u64;

    // ---- Workload A: cold keys spread over many sorted runs ----------
    //
    // 12 flushes of 64 disjoint keys each: every point lookup must
    // consult all 12 runs, and their hash indexes should answer for all
    // but the (at most one) run actually holding the key.
    let mut eng = Engine::new();
    let mut idx = 1u64;
    let runs = 12usize;
    let per_run = 64usize;
    for r in 0..runs {
        for i in 0..per_run {
            let key = Key::from(format!("cold/{r:02}/{i:04}").as_str());
            let ts = Timestamp::new(idx * ns, 0);
            storage_commit(&mut eng, &key, "cold", ts, &mut idx);
        }
        eng.flush(idx * ns);
    }
    assert_eq!(eng.mem_version_count(), 0, "flushes drained the memtable");

    // Measured read phase: every present key once plus an equal volume
    // of absent keys, in seeded order.
    let mut lookups: Vec<Key> = Vec::new();
    for r in 0..runs {
        for i in 0..per_run {
            lookups.push(Key::from(format!("cold/{r:02}/{i:04}").as_str()));
            lookups.push(Key::from(format!("cold/{r:02}/absent-{i:04}").as_str()));
        }
    }
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0570_4a6e);
    for i in (1..lookups.len()).rev() {
        let j = rng.index(i + 1);
        lookups.swap(i, j);
    }
    let probes0 = eng.stats().run_probes.get();
    let skips0 = eng.stats().run_skips.get();
    let read_ts = Timestamp::new(idx * ns, 0);
    let ctx = ReadCtx::fresh(read_ts, read_ts);
    let mut hits = 0u64;
    for key in &lookups {
        let out = eng
            .get(key, &ctx)
            .expect("cold reads are above the GC floor");
        hits += u64::from(out.value.is_some());
    }
    assert_eq!(hits as usize, runs * per_run, "every present key was found");
    let bloom_probes = eng.stats().run_probes.get() - probes0;
    let bloom_skips = eng.stats().run_skips.get() - skips0;
    let bloom_skip_milli = bloom_skips * 1000 / bloom_probes.max(1);

    // ---- Workload B: overwrite-heavy GC under a protection -----------
    //
    // 50 keys, 40 committed versions each. An AOST reader pins round 30;
    // GC driven by the closed-timestamp frontier reclaims everything the
    // protection does not need, the pinned read still succeeds, and a
    // read below the ratcheted threshold errors.
    let mut eng = Engine::new();
    let mut idx = 1u64;
    let keys = 50usize;
    let rounds = 40u64;
    let mut protected = ProtectedTimestamps::new();
    let mut pin = None;
    let mut pin_ts = Timestamp::ZERO;
    for round in 0..rounds {
        let ts = Timestamp::new((round + 1) * ns, 0);
        if round == 30 {
            pin = Some(protected.protect(ts));
            pin_ts = ts;
        }
        for k in 0..keys {
            let key = Key::from(format!("hot/{k:03}").as_str());
            storage_commit(&mut eng, &key, &format!("v{round}"), ts, &mut idx);
        }
    }
    let gc_versions_written = keys * rounds as usize;
    let gc_versions_before = eng.version_count();
    let now = (rounds + 2) * ns;
    let closed = eng.closed_ts();

    // GC with the protection active: a 1s TTL would allow the threshold
    // up to `now - 1s`, but the pin clamps it to round 30.
    let th = gc_threshold(now, ns, closed, protected.min());
    assert_eq!(th, pin_ts, "the protection clamps the threshold");
    eng.maintain(th, now);
    let gc_versions_protected = eng.version_count();
    let reclaimed = gc_versions_before - gc_versions_protected;
    let gc_reclaim_milli = reclaimed as u64 * 1000 / gc_versions_before.max(1) as u64;

    // The pinned AOST read still sees round 30's value on every key.
    let ctx = ReadCtx::fresh(pin_ts, pin_ts);
    let protected_read_ok = (0..keys).all(|k| {
        let key = Key::from(format!("hot/{k:03}").as_str());
        matches!(
            eng.get(&key, &ctx),
            Ok(out) if out.value == Some(mr_proto::Value::from("v30"))
        )
    });

    // A read below the threshold must fail loudly, never return a
    // silently-incomplete snapshot.
    let stale = Timestamp::new(10 * ns, 0);
    let below_threshold_read_errors = matches!(
        eng.get(&Key::from("hot/000"), &ReadCtx::fresh(stale, stale)),
        Err(MvccError::BelowGcThreshold { .. })
    );

    // Release the pin: the next pass may advance to the closed frontier
    // and fold history down to one live version per key.
    if let Some(id) = pin {
        protected.release(id);
    }
    let th2 = gc_threshold(now, ns, closed, protected.min());
    eng.maintain(th2, now);
    let gc_versions_after = eng.version_count();

    // ---- Workload C: steady overwrites under tiered compaction --------
    //
    // A 10k-key base, then 20 maintenance passes that each overwrite 5 % of
    // the keys with the threshold right behind the writes. A pass may
    // rewrite only what piled up: the write amplification, the number of
    // runs and the versions kept beyond the one live version per key are
    // all bounded by the fan-in, not by the size of the base.
    let mut ceng = Engine::new();
    let ckeys = 10_000u64;
    let compaction_passes = 20usize;
    let ckey = |k: u64| Key::from(format!("tier/{k:05}").as_str());
    let mut crng = SimRng::seed_from_u64(0x7_1e4ed);
    let (mut flushed, mut rewritten, mut max_runs, mut max_versions) = (0, 0, 0, 0);
    for pass in 0..=compaction_passes as u64 {
        let mut ts = Timestamp::new((1_000 + pass) * ns, 0);
        // Pass 0 loads the base; the others overwrite a uniform 5 % (the
        // draw is fixed: the probe's seed never shapes data).
        for i in 0..if pass == 0 { ckeys } else { ckeys / 20 } {
            ts = ts.next();
            let k = if pass == 0 { i } else { crng.next_below(ckeys) };
            storage_commit(&mut ceng, &ckey(k), "v", ts, &mut idx);
        }
        let rep = ceng.maintain(ts, ts.wall);
        flushed += rep.flushed_versions;
        rewritten += rep.rewritten_versions;
        max_runs = max_runs.max(ceng.sst_count());
        max_versions = max_versions.max(ceng.version_count());
    }
    assert_eq!(ceng.key_count() as u64, ckeys, "overwrites add no keys");

    // ---- Crash-recovery smoke over the GC'd engine -------------------
    let info = eng.crash_and_recover();
    let recovered_versions = eng.version_count();

    StorageProbeReport {
        bloom_runs: runs,
        bloom_lookups: lookups.len() as u64,
        bloom_probes,
        bloom_skips,
        bloom_skip_milli,
        gc_versions_written,
        gc_versions_before,
        gc_versions_protected,
        gc_versions_after,
        gc_reclaim_milli,
        protected_read_ok,
        below_threshold_read_errors,
        wal_replayed: info.replayed_records,
        recovered_versions,
        compaction_passes,
        compaction_flushed: flushed,
        compaction_rewritten: rewritten,
        write_amp_milli: (flushed + rewritten) as u64 * 1000 / flushed.max(1) as u64,
        compaction_max_runs: max_runs,
        space_amp_milli: max_versions as u64 * 1000 / ckeys,
    }
}

/// Render the probe as the deterministic `BENCH_storage.json` document.
pub fn storage_probe_json(r: &StorageProbeReport) -> String {
    let mut w = JsonWriter::default();
    w.obj().key("bloom").obj_inline();
    w.field("runs", r.bloom_runs);
    w.field("lookups", r.bloom_lookups);
    w.field("probes", r.bloom_probes);
    w.field("skips", r.bloom_skips);
    w.field("skip_milli", r.bloom_skip_milli);
    w.end().key("gc").obj_inline();
    w.field("versions_written", r.gc_versions_written);
    w.field("versions_before", r.gc_versions_before);
    w.field("versions_protected", r.gc_versions_protected);
    w.field("versions_after", r.gc_versions_after);
    w.field("reclaim_milli", r.gc_reclaim_milli);
    w.field("protected_read_ok", r.protected_read_ok);
    w.field("below_threshold_read_errors", r.below_threshold_read_errors);
    w.end().key("recovery").obj_inline();
    w.field("wal_replayed", r.wal_replayed);
    w.field("recovered_versions", r.recovered_versions);
    w.end().key("compaction").obj_inline();
    w.field("passes", r.compaction_passes);
    w.field("flushed", r.compaction_flushed);
    w.field("rewritten", r.compaction_rewritten);
    w.field("write_amp_milli", r.write_amp_milli);
    w.field("max_runs", r.compaction_max_runs);
    w.field("space_amp_milli", r.space_amp_milli);
    w.end().end();
    w.finish()
}

/// The gates of a storage probe report. DESIGN.md §14 derives the three
/// compaction constants.
pub fn storage_probe_verdicts(r: &StorageProbeReport) -> Vec<Verdict> {
    let (kept, after) = (r.gc_versions_protected, r.gc_versions_after);
    let (read_ok, errors) = (r.protected_read_ok, r.below_threshold_read_errors);
    let skips = format!(
        "{}/1000 ({} skips / {} probes over {} runs)",
        r.bloom_skip_milli, r.bloom_skips, r.bloom_probes, r.bloom_runs
    );
    let reclaimed = format!(
        "{}/1000 ({} -> {kept})",
        r.gc_reclaim_milli, r.gc_versions_before
    );
    let recovered = format!("{} of {after}", r.recovered_versions);
    let written = format!(
        "{}/1000 ({} flushed, {} rewritten in {} passes)",
        r.write_amp_milli, r.compaction_flushed, r.compaction_rewritten, r.compaction_passes
    );
    let (runs, space) = (r.compaction_max_runs, r.space_amp_milli);
    vec![
        // An exact index reads 1000/1000 short of a fingerprint collision.
        Check(r.bloom_skip_milli >= 900, skips)
            .gate("run indexes answer >= 900/1000 cold-run probes unread"),
        Check(r.gc_reclaim_milli >= 500, reclaimed)
            .gate("GC reclaims >= 500/1000 of the overwritten versions under a protection"),
        Check(read_ok, read_ok.to_string())
            .gate("an AOST read at the protected timestamp survives GC"),
        Check(errors, errors.to_string())
            .gate("a read below the GC threshold errors with BelowGcThreshold"),
        Check(after < kept, format!("{kept} -> {after}"))
            .gate("releasing the protection reclaims history"),
        Check(r.recovered_versions == after, recovered)
            .gate("WAL replay recovers every surviving version"),
        // Tiered compaction: a pass rewrites what piled up, not what exists.
        Check(r.write_amp_milli <= 3000, written)
            .gate("compaction writes each version <= 3000/1000 times"),
        Check(runs <= 9, format!("{runs} runs"))
            .gate("<= 9 runs stand after a pass, three per size class"),
        Check(space <= 1850, format!("{space}/1000"))
            .gate("<= 1850/1000 versions are kept per live one"),
    ]
}

// ---------------------------------------------------------------------------
// Chaos probe (seeded fault schedules + history checker)
// ---------------------------------------------------------------------------

/// One fault schedule's run through the chaos harness.
pub struct ChaosRow {
    pub seed: u64,
    pub ops_ok: usize,
    pub ops_failed: usize,
    /// Committed client operations per simulated second.
    pub ops_per_sec: f64,
    /// p99 latency of operations invoked while a disruption was active.
    pub recovery_p99_ms: f64,
    /// p99 latency of operations invoked outside disruption windows.
    pub steady_p99_ms: f64,
    /// Violations the offline history checker found.
    pub checker_violations: usize,
}

/// Run the random fault schedule of each of `seeds` through the full chaos
/// harness (faults, workload, strict online monitors, offline history
/// checker), each for its span plus 8 s. A run the checker flags prints its
/// violations with the schedule step named and writes its incident bundle
/// to `incident_seed<N>/`. Deterministic for fixed seeds.
pub fn chaos_probe(seeds: &[u64]) -> Vec<ChaosRow> {
    use mr_chaos::{run_chaos, ChaosConfig, CheckerConfig, FaultSchedule, ScheduleBounds};

    let mut rows = Vec::new();
    for &seed in seeds {
        let schedule = FaultSchedule::random(seed, &ScheduleBounds::default());
        let cfg = ChaosConfig {
            seed,
            run_for: schedule.span() + SimDuration::from_secs(8),
            ..ChaosConfig::default()
        };
        let t = std::time::Instant::now();
        let out = run_chaos(&cfg, &schedule, &CheckerConfig::default());
        eprintln!(
            "seed {seed}: {:?} ops_ok={} ops/sec={:.1} recovery_p99={} steady_p99={}",
            t.elapsed(),
            out.ops_ok,
            out.ops_per_sec,
            out.recovery_p99,
            out.steady_p99
        );
        if !out.passed() {
            eprintln!("CHECKER VIOLATIONS (seed {seed}):\n{}", out.render());
            if let Some(bundle) = &out.bundle {
                let dir = std::path::PathBuf::from(format!("incident_seed{seed}"));
                match bundle.write_to(&dir) {
                    Ok(path) => eprintln!("incident bundle: {}", path.display()),
                    Err(e) => eprintln!("failed to write incident bundle: {e}"),
                }
            }
        }
        rows.push(ChaosRow {
            seed,
            ops_ok: out.ops_ok,
            ops_failed: out.ops_failed,
            ops_per_sec: out.ops_per_sec,
            recovery_p99_ms: out.recovery_p99.as_millis_f64(),
            steady_p99_ms: out.steady_p99.as_millis_f64(),
            checker_violations: out.report.violations.len(),
        });
    }
    rows
}

/// Render the probe as the deterministic `BENCH_chaos.json` document.
pub fn chaos_probe_json(rows: &[ChaosRow]) -> String {
    let mut w = JsonWriter::default();
    w.obj().key("scenarios").arr();
    for r in rows {
        w.obj().field("seed", r.seed).field("ops_ok", r.ops_ok);
        w.field("ops_failed", r.ops_failed);
        w.key("ops_per_sec").fixed(r.ops_per_sec, 2);
        w.key("recovery_p99_ms").fixed(r.recovery_p99_ms, 3);
        w.key("steady_p99_ms").fixed(r.steady_p99_ms, 3);
        w.field("checker_violations", r.checker_violations);
        w.end();
    }
    w.end().end();
    w.finish()
}

/// The gate of a chaos probe run.
pub fn chaos_probe_verdicts(rows: &[ChaosRow]) -> Vec<Verdict> {
    let clean = rows.iter().all(|r| r.checker_violations == 0);
    let seen: Vec<String> = rows
        .iter()
        .map(|r| format!("seed {}: {}", r.seed, r.checker_violations))
        .collect();
    vec![Check(clean, seen.join(", "))
        .gate("the history checker finds no violation under any schedule")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::tests::gates;

    fn commit_rows() -> Vec<CommitRow> {
        // (region, RTT) × (scenario, legacy p50, pipelined p50), in ms.
        let regions = [
            ("us-east1", 0.5f64),
            ("us-west1", 63.0),
            ("europe-west2", 87.0),
        ];
        let scenarios = [("single", 1.1), ("multi", 2.2), ("cross", 3.2)];
        let mut rows = Vec::new();
        for (scenario, per_rtt) in scenarios {
            for (region, rtt) in regions {
                let cell = |p50_ms| CommitCell {
                    p50_ms,
                    p99_ms: p50_ms,
                    n: 10,
                };
                let legacy = per_rtt * rtt.max(1.0);
                let pipelined = if scenario == "single" {
                    legacy
                } else {
                    0.6 * legacy
                };
                rows.push(CommitRow {
                    gateway_region: region.into(),
                    scenario,
                    rtt_ms: rtt,
                    legacy: cell(legacy),
                    pipelined: cell(pipelined),
                });
            }
        }
        rows
    }

    /// Set the (legacy, pipelined) p50s of the `scenario` cell from `region`.
    fn set(rows: &mut [CommitRow], region: &str, scenario: &str, legacy: f64, pipelined: f64) {
        let r = rows
            .iter_mut()
            .find(|r| r.gateway_region == region && r.scenario == scenario)
            .unwrap();
        (r.legacy.p50_ms, r.pipelined.p50_ms) = (legacy, pipelined);
    }

    #[test]
    fn commit_probe_gates() {
        let at = |region, scenario, legacy, pipelined| {
            move |rows: &mut Vec<CommitRow>| set(rows, region, scenario, legacy, pipelined)
        };
        gates(
            |rows: &Vec<CommitRow>| commit_probe_verdicts(rows),
            commit_rows,
            &[
                (
                    "pipelining is never slower",
                    &at("us-east1", "single", 1.0, 1.2),
                ),
                (
                    "a single-range commit",
                    &at("us-west1", "single", 90.0, 90.0),
                ),
                (
                    "a legacy multi-range",
                    &at("us-west1", "multi", 100.0, 60.0),
                ),
                (
                    "a parallel multi-range",
                    &at("europe-west2", "multi", 200.0, 125.0),
                ),
                (
                    "parallel commits save",
                    &at("us-west1", "multi", 120.0, 80.0),
                ),
                ("the REGION write", &at("us-west1", "cross", 199.6, 170.0)),
            ],
        );
    }

    #[test]
    fn raft_probe_gates() {
        let phase = |mean_occupancy, proposals_per_sec| RaftPhase {
            commands: 2872,
            entries: 346,
            mean_occupancy,
            proposals_per_sec,
            txns: 240,
            read_fast_path: 240,
        };
        let pass = || RaftProbeReport {
            batched: phase(8.3, 4160.0),
            unbatched: phase(1.36, 4601.0),
            read_fast_path: 480,
            cold_ranges: 100,
            hb_per_sec_off: 824.0,
            hb_per_sec_on: 0.0,
            heartbeat_suppression: 16480.0,
        };
        type R = RaftProbeReport;
        gates(
            raft_probe_verdicts,
            pass,
            &[
                ("group commit fills entries", &|r: &mut R| {
                    (r.batched.mean_occupancy, r.unbatched.mean_occupancy) = (1.4, 1.3)
                }),
                ("the flush window beats", &|r: &mut R| {
                    (r.batched.mean_occupancy, r.unbatched.mean_occupancy) = (2.0, 2.5)
                }),
                ("batched proposals/s", &|r: &mut R| {
                    r.batched.proposals_per_sec = 2000.0
                }),
                ("quiescence cuts", &|r: &mut R| {
                    r.heartbeat_suppression = 9.9
                }),
                ("every opening read", &|r: &mut R| r.read_fast_path = 479),
            ],
        );
    }

    #[test]
    fn split_probe_gates() {
        let phase = |ops_per_sec, splits, ranges, lease_rebalances| SplitPhase {
            txns: 2880,
            retries: 3,
            ops_per_sec,
            ranges,
            splits,
            merges: 1,
            lease_rebalances,
            split_p99_ms: if splits > 0 { 92.2 } else { 0.0 },
            hottest_share_milli: if splits > 0 { 143 } else { 1000 },
            convergence_ticks: 40,
            ranges_after_idle: 1,
        };
        let pass = || SplitProbeReport {
            baseline: phase(48.0, 0, 1, 0),
            lifecycle: phase(88.7, 14, 15, 2),
        };
        type R = SplitProbeReport;
        gates(
            split_probe_verdicts,
            pass,
            &[
                ("the static baseline", &|r: &mut R| r.baseline.splits = 1),
                ("the lifecycle splits", &|r: &mut R| r.lifecycle.splits = 0),
                ("a lease moves", &|r: &mut R| {
                    r.lifecycle.lease_rebalances = 0
                }),
                ("the lifecycle beats", &|r: &mut R| {
                    r.lifecycle.ops_per_sec = 48.0
                }),
                ("load disperses", &|r: &mut R| {
                    r.lifecycle.hottest_share_milli = 1000
                }),
                ("splits record", &|r: &mut R| r.lifecycle.split_p99_ms = 0.0),
                ("the idle tail", &|r: &mut R| {
                    r.lifecycle.ranges_after_idle = 15
                }),
            ],
        );
    }

    #[test]
    fn obs_probe_gates() {
        let snapshot = |range, qps_milli| mr_obs::RangeLoadSnapshot {
            range,
            qps_milli,
            read_qps_milli: qps_milli,
            write_qps_milli: 0,
            write_bytes_per_sec: 0,
            mean_latency_nanos: 1,
        };
        let pass = || ObsProbeReport {
            hot_range: 1,
            warm_range: 2,
            driven_qps_milli: 50_000,
            hot: vec![snapshot(1, 48_000), snapshot(2, 5_000)],
            expected_commit_rate_milli: 55_000,
            commit_rate_fine_milli: 55_100,
            commit_rate_coarse_milli: 54_900,
            fine_samples: 36,
            coarse_samples: 4,
            attr_txns: 10,
            attr_total_nanos: 1_000,
            attr_named_nanos: 990,
            attr_other_nanos: 10,
            instrument_count: 100,
            hot_ranges_json: String::new(),
            slow_txns_json: String::new(),
            metrics_history_json: String::new(),
        };
        type R = ObsProbeReport;
        gates(
            obs_probe_verdicts,
            pass,
            &[
                ("the skewed range ranks", &|r: &mut R| r.hot[0].range = 2),
                ("its decayed QPS", &|r: &mut R| r.hot[0].qps_milli = 56_000),
                ("the fine window", &|r: &mut R| r.fine_samples = 1),
                ("the fine commit rate", &|r: &mut R| {
                    r.commit_rate_fine_milli = 61_000
                }),
                ("the coarse window", &|r: &mut R| r.coarse_samples = 1),
                ("the coarse commit rate", &|r: &mut R| {
                    r.commit_rate_coarse_milli = 49_000
                }),
                ("the attribution log", &|r: &mut R| r.attr_txns = 0),
                ("named components", &|r: &mut R| r.attr_named_nanos = 940),
                ("the registry holds", &|r: &mut R| r.instrument_count = 129),
            ],
        );
    }

    #[test]
    fn storage_probe_gates() {
        let pass = || StorageProbeReport {
            bloom_runs: 12,
            bloom_lookups: 1_536,
            bloom_probes: 18_000,
            bloom_skips: 17_244,
            bloom_skip_milli: 958,
            gc_versions_written: 2_000,
            gc_versions_before: 2_000,
            gc_versions_protected: 550,
            gc_versions_after: 50,
            gc_reclaim_milli: 725,
            protected_read_ok: true,
            below_threshold_read_errors: true,
            wal_replayed: 100,
            recovered_versions: 50,
            compaction_passes: 20,
            compaction_flushed: 20_000,
            compaction_rewritten: 30_000,
            write_amp_milli: 2_500,
            compaction_max_runs: 8,
            space_amp_milli: 1_500,
        };
        type R = StorageProbeReport;
        gates(
            storage_probe_verdicts,
            pass,
            &[
                ("run indexes answer", &|r: &mut R| r.bloom_skip_milli = 899),
                ("GC reclaims", &|r: &mut R| r.gc_reclaim_milli = 499),
                ("an AOST read", &|r: &mut R| r.protected_read_ok = false),
                ("a read below", &|r: &mut R| {
                    r.below_threshold_read_errors = false
                }),
                ("releasing the protection", &|r: &mut R| {
                    (r.gc_versions_after, r.recovered_versions) = (550, 550)
                }),
                ("WAL replay", &|r: &mut R| r.recovered_versions = 49),
                ("compaction writes", &|r: &mut R| r.write_amp_milli = 3_001),
                ("<= 9 runs", &|r: &mut R| r.compaction_max_runs = 10),
                ("<= 1850/1000", &|r: &mut R| r.space_amp_milli = 1_851),
            ],
        );
    }

    #[test]
    fn chaos_probe_gates() {
        let row = |seed| ChaosRow {
            seed,
            ops_ok: 400,
            ops_failed: 20,
            ops_per_sec: 20.0,
            recovery_p99_ms: 900.0,
            steady_p99_ms: 300.0,
            checker_violations: 0,
        };
        gates(
            |rows: &Vec<ChaosRow>| chaos_probe_verdicts(rows),
            || [11, 23, 37].map(row).into(),
            &[("the history checker", &|rows: &mut Vec<ChaosRow>| {
                rows[1].checker_violations = 1
            })],
        );
    }
}
