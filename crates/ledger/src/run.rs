//! One run of one workload in this process: set up, measure, audit, and
//! reduce to named metrics.

use std::collections::HashMap;

use mr_obs::scrape::collect_values;
use mr_sql::exec::SqlDb;

use crate::audit::audit;
use crate::host;
use crate::metrics::Values;
use crate::spans::{Kind, Recorder};
use crate::workloads::{build, Size};

/// Everything a child process reports about its run.
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Attempts beyond each op's first (aborted transactions re-run).
    pub retries: u64,
    pub read_samples: usize,
    pub write_samples: usize,
    /// Hash of the run's simulated outcome; identical for a seed on every
    /// commit that does not change behaviour.
    pub sim_digest: String,
    pub audit: Vec<String>,
    pub first_errors: Vec<String>,
    /// Host nanoseconds of the measured phase per completed op (the parent
    /// compares the traced and untraced child to get the tracing overhead).
    pub host_ns_per_op: f64,
    /// Spans' total ÷ measured phase (1.0 = the spans tile it exactly).
    pub span_coverage: f64,
    pub metrics: Values,
    /// Chrome trace of the first spans (traced runs only).
    pub chrome_trace: Option<String>,
}

/// Registry counters/gauges by rendered name, plus sim time.
struct Snapshot {
    values: HashMap<String, i64>,
    sim_ns: u64,
    scrapes: u64,
}

impl Snapshot {
    /// Scrape first, so scrape-refreshed gauges (storage, Raft batching)
    /// are current.
    fn take(db: &mut SqlDb) -> Snapshot {
        db.cluster.scrape_now();
        let scraper = &db.cluster.obs.scraper;
        Snapshot {
            values: collect_values(&db.cluster.obs.registry)
                .into_iter()
                .collect(),
            sim_ns: db.cluster.now().nanos(),
            scrapes: scraper.len() as u64 + scraper.dropped(),
        }
    }

    /// Sum over label sets of every series named `name`.
    fn total(&self, name: &str) -> f64 {
        let labelled = format!("{name}{{");
        self.values
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&labelled))
            .map(|(_, v)| *v as f64)
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn fnv1a(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes().chain(std::iter::once(0xff)) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Growth of the `storage.wal_bytes` gauge over scrapes taken at or after
/// `from_ns`: checkpoints truncate the WAL, so only rises count.
fn wal_bytes_written(db: &SqlDb, from_ns: u64) -> f64 {
    let series = db.cluster.obs.scraper.series("storage.wal_bytes");
    series
        .windows(2)
        .filter(|w| w[0].0.nanos() >= from_ns)
        .map(|w| (w[1].1 - w[0].1).max(0) as f64)
        .sum()
}

pub fn run_workload(name: &str, seed: u64, size: Size, traced: bool) -> RunReport {
    let mut built = build(name, seed, size);
    let db = &mut built.db;
    let driver = &mut built.driver;
    let before = Snapshot::take(db);
    let mut rec = Recorder::new(traced);
    let (cpu0, user0, sys0) = host::cpu_seconds();
    let allocs0 = host::alloc_counts();
    host::set_alloc_counting(traced);
    let (t0, t1) = driver.run(db, &mut rec);
    host::set_alloc_counting(false);
    let allocs1 = host::alloc_counts();
    let (cpu1, user1, sys1) = host::cpu_seconds();
    let peak_rss = host::peak_rss_mb();
    let after = Snapshot::take(db);

    let out = &mut driver.out;
    let ops = out.completed as f64;
    let attempted = out.completed + out.failed;
    let host_ns = (t1 - t0) as f64;
    let sim_s = (after.sim_ns - before.sim_ns) as f64 / 1e9;
    let delta = |n: &str| after.total(n) - before.total(n);
    let events = delta("kv.events.processed");

    let violations = audit(db, &built.audit, out);
    let digest = fnv1a(&[
        &out.completed.to_string(),
        &out.failed.to_string(),
        &after.sim_ns.to_string(),
        &after.total("kv.events.processed").to_string(),
        &db.cluster.obs.registry.dump_json(),
    ]);

    let mut m = Values::default();
    m.push("setup_s", t0 as f64 / 1e9);
    m.push("ops_per_host_s", ratio(ops, host_ns / 1e9));
    m.push("peak_rss_mb", peak_rss);
    m.push("sim_ops_per_s", ratio(ops, sim_s));
    m.push("sim_read_p50_ms", out.reads.quantile(0.50).as_millis_f64());
    m.push("sim_read_p95_ms", out.reads.quantile(0.95).as_millis_f64());
    m.push(
        "sim_write_p50_ms",
        out.writes.quantile(0.50).as_millis_f64(),
    );
    m.push(
        "sim_write_p95_ms",
        out.writes.quantile(0.95).as_millis_f64(),
    );
    m.push("failed_share", ratio(out.failed as f64, attempted as f64));
    m.push("audit_violations", violations.len() as f64);

    if traced {
        let total = rec.total_ns() as f64;
        for (kind, share, per_event) in [
            (
                Kind::StepRpc,
                "kv.step_rpc.host_share",
                "kv.step_rpc.ns_per_event",
            ),
            (
                Kind::StepRaft,
                "kv.step_raft.host_share",
                "kv.step_raft.ns_per_event",
            ),
            (
                Kind::StepWake,
                "kv.step_wake.host_share",
                "kv.step_wake.ns_per_event",
            ),
            (
                Kind::StepTick,
                "kv.step_tick.host_share",
                "kv.step_tick.ns_per_event",
            ),
            (
                Kind::StepSide,
                "kv.step_side.host_share",
                "kv.step_side.ns_per_event",
            ),
            (
                Kind::StepOther,
                "kv.step_other.host_share",
                "kv.step_other.ns_per_event",
            ),
        ] {
            let a = rec.agg(kind);
            m.push(share, ratio(a.sum() as f64, total));
            m.push(per_event, ratio(a.sum() as f64, a.count() as f64));
            if kind == Kind::StepTick {
                m.push("kv.step_tick.p99_us", a.quantile(0.99) as f64 / 1e3);
            }
        }
        let sql = rec.agg(Kind::SqlExec);
        m.push("sql.exec_issue.host_share", ratio(sql.sum() as f64, total));
        m.push(
            "sql.exec_issue.ns_per_stmt",
            ratio(sql.sum() as f64, sql.count() as f64),
        );
        m.push(
            "workload.gen.host_share",
            ratio(rec.agg(Kind::Gen).sum() as f64, total),
        );
        m.push(
            "ledger.driver.host_share",
            ratio(rec.agg(Kind::Driver).sum() as f64, total),
        );
    }
    m.push("sim.events_per_op", ratio(events, ops));
    m.push("sim.host_ns_per_event", ratio(host_ns, events));
    m.push("kv.rpcs_per_op", ratio(delta("kv.rpc.sent"), ops));
    m.push(
        "kv.txn_restarts_per_op",
        ratio(delta("kv.txn.restarts"), ops),
    );
    m.push("kv.refreshes_per_op", ratio(delta("kv.txn.refreshes"), ops));
    let follower = delta("kv.read.follower.served");
    let fast = delta("raft.read_fast_path");
    m.push("kv.follower_read_share", ratio(follower, follower + fast));
    m.push(
        "kv.commit_wait_ms_per_write",
        ratio(
            delta("kv.txn.commit_wait_nanos") / 1e6,
            out.writes.len() as f64,
        ),
    );
    m.push(
        "raft.entries_per_op",
        ratio(delta("raft.entries_proposed"), ops),
    );
    m.push(
        "raft.batch_occupancy_mean",
        ratio(
            delta("raft.proposals_batched"),
            delta("raft.entries_proposed"),
        ),
    );
    m.push("raft.read_fast_path_share", ratio(fast, follower + fast));
    m.push(
        "raft.heartbeats_per_sim_s",
        ratio(delta("raft.heartbeats_sent"), sim_s),
    );
    m.push(
        "raft.quiesced_share_end",
        ratio(
            after.total("raft.quiesced_ranges"),
            db.cluster.registry().len() as f64,
        ),
    );
    let wal = wal_bytes_written(db, before.sim_ns);
    m.push("storage.wal_bytes_per_op", ratio(wal, ops));
    m.push(
        "storage.wal_bytes_per_user_byte",
        ratio(wal, out.user_write_bytes as f64),
    );
    m.push("storage.flushes", delta("storage.flushes"));
    m.push("storage.compactions", delta("storage.compactions"));
    m.push("storage.sst_count_end", after.total("storage.sst_count"));
    m.push(
        "storage.bloom_skip_share",
        ratio(delta("storage.bloom_skips"), delta("storage.bloom_probes")),
    );
    m.push(
        "obs.monitor_checks_per_op",
        ratio(delta("obs.monitor.checks"), ops),
    );
    m.push("obs.scrapes", (after.scrapes - before.scrapes) as f64);
    m.push(
        "obs.registry_series",
        db.cluster.obs.registry.instrument_count() as f64,
    );
    m.push(
        "host.allocs_per_op",
        ratio((allocs1.0 - allocs0.0) as f64, ops),
    );
    m.push(
        "host.alloc_bytes_per_op",
        ratio((allocs1.1 - allocs0.1) as f64, ops),
    );
    m.push("host.cpu_share", ratio(cpu1 - cpu0, host_ns / 1e9));
    m.push(
        "host.sys_share",
        ratio(sys1 - sys0, (user1 - user0) + (sys1 - sys0)),
    );

    RunReport {
        workload: name.to_string(),
        seed,
        traced,
        attempted,
        failed: out.failed,
        retries: out.retries,
        read_samples: out.reads.len(),
        write_samples: out.writes.len(),
        sim_digest: digest,
        audit: violations,
        first_errors: out.first_errors.clone(),
        host_ns_per_op: ratio(host_ns, ops),
        span_coverage: if traced {
            ratio(rec.total_ns() as f64, host_ns)
        } else {
            1.0
        },
        metrics: m,
        chrome_trace: traced.then(|| rec.chrome_json()),
    }
}
