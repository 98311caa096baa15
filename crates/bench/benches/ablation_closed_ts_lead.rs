//! Ablation B: closed-timestamp lead-time sensitivity for GLOBAL tables
//! (§6.2.1).
//!
//! The leaseholder must close time far enough ahead that the promise is
//! still in the future when it reaches every follower:
//! `L_raft + L_replicate + slack + max_clock_offset`. Too small a lead →
//! follower reads find their uncertainty window not fully closed and
//! redirect to the leaseholder (losing the local-read property); larger
//! leads → every write commit-waits longer. This sweep varies the
//! replicate-latency estimate under-/over-shooting the true WAN delay and
//! reports the follower-read hit rate and write latency.

use mr_bench::*;
use mr_sim::{SimDuration, SimRng};
use mr_workload::driver::ClosedLoop;
use mr_workload::ycsb::{KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::Zipf;

const KEYS: u64 = 100_000;

fn run(replicate_ms: u64, seed: u64) {
    let mut db = multiregion::ClusterBuilder::new()
        .paper_regions()
        .max_clock_offset(SimDuration::from_millis(250))
        .seed(seed)
        .config(|c| {
            // Sweep the total lead directly: strip the derived slack so
            // the replicate-latency estimate is the only propagation cover.
            c.closed_ts.replicate_latency = SimDuration::from_millis(replicate_ms);
            c.lead_slack_override = Some(SimDuration::from_millis(5));
        })
        .build();
    let regions = paper_regions();
    setup_ycsb(
        &mut db,
        &regions,
        "usertable",
        YcsbTable::Global,
        KEYS,
        |_| unreachable!(),
    );
    let mut driver = ClosedLoop::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let ops = ops_per_client();
    add_clients(
        &db,
        &mut driver,
        &regions,
        "ycsb",
        10,
        &mut rng,
        |ri, _, _| {
            Box::new(YcsbGen {
                table: "usertable".into(),
                variant: YcsbTable::Global,
                read_fraction: 0.5,
                insert_workload: false,
                keys: KeyChooser::Zipf(Zipf::ycsb(KEYS)),
                read_mode: ReadMode::Fresh,
                regions: paper_regions(),
                region_idx: ri,
                remaining: Some(ops),
                next_insert: 0,
                insert_stride: 1,
                nregions: 5,
                label_prefix: String::new(),
            })
        },
    );
    run_to_completion(&mut db, &mut driver);
    report_errors(&format!("L_replicate={replicate_ms}ms"), &driver.stats);
    let m = db.cluster.metrics();
    let served = m.follower_reads_served.get() as f64;
    let redirected = m.follower_read_redirects.get() as f64;
    let hit = 100.0 * served / (served + redirected).max(1.0);
    let mut reads = driver.stats.merged(|l| l.contains("read"));
    let mut writes = driver.stats.merged(|l| l.contains("write"));
    let lead_ms = db.cluster.cfg.closed_ts.lead().as_millis_f64();
    println!(
        "L_replicate={replicate_ms:>4}ms  lead={lead_ms:>6.0}ms  follower-read hit={hit:>5.1}%  \
         read p50={:>7.2}ms p99={:>8.2}ms   write p50={:>7.2}ms p99={:>8.2}ms",
        reads.quantile(0.5).as_millis_f64(),
        reads.quantile(0.99).as_millis_f64(),
        writes.quantile(0.5).as_millis_f64(),
        writes.quantile(0.99).as_millis_f64(),
    );
}

fn main() {
    println!(
        "Ablation B: closed-timestamp lead sensitivity, GLOBAL table, YCSB-A, {} ops/client",
        ops_per_client()
    );
    println!(
        "(true furthest one-way delay in this topology ≈ 137ms + jitter; the paper's\n\
         estimate is 100-125ms plus slack)\n"
    );
    for (i, rep) in [0u64, 50, 125, 200, 350].iter().enumerate() {
        run(*rep, 85 + i as u64);
    }
    println!(
        "\nexpectation: undershooting the replication estimate collapses the follower-read\n\
         hit rate (reads redirect to the leaseholder and pay WAN RTTs); overshooting keeps\n\
         reads local but inflates every write's commit wait by the extra lead."
    );
}
