// perf probe: YCSB over a REGIONAL and a GLOBAL table on the paper's five
// regions, 50 ops per client. Latency classes are read from the cluster's
// own kv.op.latency histograms (not harness-side timers) and summarized into
// BENCH_perf.json: regional reads (lag policy), global reads (lead policy),
// and global-transaction commits (commit wait included), plus conformance
// counters (replication_violations, monitor_violations). The online
// monitors are strict, as every cluster's are by default, so an invariant
// violation (closed-timestamp regression, bad follower read, short commit
// wait, non-conforming placement) panics: the probe gates nothing else.
use mr_bench::paper::{five_region_db, paper_regions, setup_ycsb, YcsbA};
use mr_bench::verdict::conclude;
use mr_bench::{obs_hist_json, write_obs_exports};
use mr_sim::SimRng;
use mr_workload::ycsb::{ReadMode, YcsbTable};

const REGIONAL_KEYS: u64 = 100_000;
const GLOBAL_KEYS: u64 = 10_000;
/// Ops per REGIONAL client; a GLOBAL client runs a fifth of them.
const OPS: u64 = 50;

/// One YCSB-A phase, run to completion.
fn run_phase(db: &mut multiregion::SqlDb, ycsb: YcsbA, rng: &mut SimRng) {
    let t = std::time::Instant::now();
    let stats = ycsb.run(db, rng);
    let (ops, failed, simtime) = (stats.completed, stats.failed, db.cluster.now());
    let table = ycsb.table;
    eprintln!(
        "{table} phase: {:?} ops={ops} failed={failed} simtime={simtime}",
        t.elapsed()
    );
}

fn main() {
    let t0 = std::time::Instant::now();
    let mut db = five_region_db(250, 1, |_| {});
    let phases = [
        // REGIONAL table, YCSB-A mix (lag-policy reads and commits).
        ("t", YcsbTable::RegionalByTable, REGIONAL_KEYS, 10, OPS),
        // GLOBAL table (lead-policy reads; commits pay commit wait).
        ("g", YcsbTable::Global, GLOBAL_KEYS, 5, OPS / 5),
    ];
    let home = |_: u64| -> String { unreachable!("unpartitioned") };
    for (table, variant, keys, ..) in phases {
        setup_ycsb(&mut db, &paper_regions(), table, variant, keys, home);
    }
    eprintln!("setup: {:?}", t0.elapsed());

    let mut seed = SimRng::seed_from_u64(2);
    for (table, variant, keys, clients, ops) in phases {
        let read_mode = ReadMode::Fresh;
        let ycsb = YcsbA {
            table,
            variant,
            keys,
            read_mode,
            clients,
            ops,
        };
        run_phase(&mut db, ycsb, &mut seed);
    }

    let reg = &db.cluster.obs.registry;
    let regional_reads =
        reg.histogram_merged_where("kv.op.latency", &[("op", "kv.get"), ("policy", "lag")]);
    let global_reads =
        reg.histogram_merged_where("kv.op.latency", &[("op", "kv.get"), ("policy", "lead")]);
    let commits =
        reg.histogram_merged_where("kv.op.latency", &[("op", "kv.commit"), ("policy", "lead")]);
    let mut w = mr_obs::export::JsonWriter::default();
    w.obj();
    w.key("regional_reads").raw(obs_hist_json(&regional_reads));
    w.key("global_reads").raw(obs_hist_json(&global_reads));
    w.key("global_txn_commits").raw(obs_hist_json(&commits));
    let report = db.cluster.replication_report();
    w.field("replication_violations", report.violations());
    let monitors = db.cluster.obs.monitors.violation_count();
    w.field("monitor_violations", monitors).end();
    write_obs_exports(&db, "perf_probe");
    conclude("perf", &w.finish(), &[]);
}
