// perf probe: YCSB over a REGIONAL and a GLOBAL table on the paper's five
// regions. Latency classes are read from the cluster's own kv.op.latency
// histograms (not harness-side timers) and summarized into BENCH_perf.json:
// regional reads (lag policy), global reads (lead policy), and
// global-transaction commits (commit wait included), plus conformance
// counters (replication_violations, monitor_violations).
use mr_bench::{
    add_clients, five_region_db, obs_hist_json, paper_regions, run_to_completion, setup_ycsb,
    write_bench, write_obs_exports,
};
use mr_sim::SimRng;
use mr_workload::driver::ClosedLoop;
use mr_workload::ycsb::{KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::Zipf;

const REGIONAL_KEYS: u64 = 100_000;
const GLOBAL_KEYS: u64 = 10_000;

fn ops() -> u64 {
    std::env::var("OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    db: &mut multiregion::SqlDb,
    regions: &[String],
    table: &str,
    variant: YcsbTable,
    keys: u64,
    clients_per_region: usize,
    ops_per_client: u64,
    seed: &mut SimRng,
) {
    let t = std::time::Instant::now();
    let mut driver = ClosedLoop::new();
    let nregions = regions.len() as u64;
    let regions_owned: Vec<String> = regions.to_vec();
    add_clients(
        db,
        &mut driver,
        regions,
        "ycsb",
        clients_per_region,
        seed,
        |ri, _, _| {
            Box::new(YcsbGen {
                table: table.into(),
                variant,
                read_fraction: 0.5,
                insert_workload: false,
                keys: KeyChooser::Zipf(Zipf::ycsb(keys)),
                read_mode: ReadMode::Fresh,
                regions: regions_owned.clone(),
                region_idx: ri,
                remaining: Some(ops_per_client),
                next_insert: 0,
                insert_stride: 1,
                nregions,
                label_prefix: String::new(),
            })
        },
    );
    run_to_completion(db, &mut driver);
    eprintln!(
        "{table} phase: {:?} ops={} failed={} simtime={}",
        t.elapsed(),
        driver.stats.completed,
        driver.stats.failed,
        db.cluster.now()
    );
}

fn main() {
    let t0 = std::time::Instant::now();
    let mut db = five_region_db(250, 1);
    // MR_STRICT_MONITORS=1 escalates any online-invariant violation
    // (closed-timestamp regression, bad follower read, short commit wait,
    // non-conforming placement) to a panic, turning the probe into an
    // invariant smoke test.
    if std::env::var("MR_STRICT_MONITORS").is_ok_and(|v| v == "1") {
        db.cluster.obs.monitors.set_strict(true);
    }
    let regions = paper_regions();
    setup_ycsb(
        &mut db,
        &regions,
        "t",
        YcsbTable::RegionalByTable,
        REGIONAL_KEYS,
        |_| unreachable!(),
    );
    setup_ycsb(
        &mut db,
        &regions,
        "g",
        YcsbTable::Global,
        GLOBAL_KEYS,
        |_| unreachable!(),
    );
    eprintln!("setup: {:?}", t0.elapsed());

    let mut seed = SimRng::seed_from_u64(2);
    // Phase 1: REGIONAL table, YCSB-A mix (lag-policy reads and commits).
    run_phase(
        &mut db,
        &regions,
        "t",
        YcsbTable::RegionalByTable,
        REGIONAL_KEYS,
        10,
        ops(),
        &mut seed,
    );
    // Phase 2: GLOBAL table (lead-policy reads; commits pay commit wait).
    run_phase(
        &mut db,
        &regions,
        "g",
        YcsbTable::Global,
        GLOBAL_KEYS,
        5,
        ops() / 5,
        &mut seed,
    );

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
    write_bench("perf", &w.finish());
    write_obs_exports(&db, "perf_probe");
}
