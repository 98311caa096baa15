//! Figure 5: CDFs of read and write latencies for GLOBAL tables (at three
//! `max_clock_offset` settings) against the legacy *duplicate indexes*
//! topology and the REGIONAL baselines (§7.3).
//!
//! Workload as Fig. 3: five regions, YCSB-A, Zipf keys, 10 clients/region.
//!
//! Expected shape (paper): reads are <3ms below the 90th percentile for
//! everything except Regional (Latest); in the tail, GLOBAL reads are
//! bounded by max_clock_offset (smaller offset → tighter tail) while
//! duplicate-index reads are unbounded (they wait on cross-region 2PC).
//! GLOBAL writes cluster at the closed-timestamp lead (250-600ms by
//! offset); duplicate-index writes have comparable medians but unbounded
//! tails (>10s under write-write contention).

use mr_bench::*;
use mr_sim::{SimDuration, SimRng};
use mr_sql::exec::SqlDb;
use mr_workload::driver::{ClosedLoop, DriverStats};
use mr_workload::ycsb::{KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::Zipf;

const KEYS: u64 = 100_000;

fn drive(
    db: &mut SqlDb,
    table: &str,
    variant: YcsbTable,
    read_mode: ReadMode,
    seed: u64,
) -> DriverStats {
    let regions = paper_regions();
    let mut driver = ClosedLoop::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let ops = ops_per_client();
    let table = table.to_string();
    add_clients(
        db,
        &mut driver,
        &regions,
        "ycsb",
        10,
        &mut rng,
        |ri, _, _| {
            Box::new(YcsbGen {
                table: table.clone(),
                variant,
                read_fraction: 0.5,
                insert_workload: false,
                keys: KeyChooser::Zipf(Zipf::ycsb(KEYS)),
                read_mode,
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
    // The duplicate-index writes can meet in a lock cycle that nothing
    // breaks (no deadlock detection yet). The driver's no-progress guard
    // then panics, its message on stderr naming the open transactions, and
    // the CDF is over the ops that ended before it.
    let run = std::panic::AssertUnwindSafe(|| run_to_completion(db, &mut driver));
    let _stalled = std::panic::catch_unwind(run);
    driver.stats
}

fn global_config(offset_ms: u64, seed: u64) -> DriverStats {
    let mut db = five_region_db(offset_ms, seed);
    let regions = paper_regions();
    setup_ycsb(
        &mut db,
        &regions,
        "usertable",
        YcsbTable::Global,
        KEYS,
        |_| unreachable!(),
    );
    drive(
        &mut db,
        "usertable",
        YcsbTable::Global,
        ReadMode::Fresh,
        seed,
    )
}

fn regional_config(read_mode: ReadMode, seed: u64) -> DriverStats {
    let mut db = five_region_db(250, seed);
    let regions = paper_regions();
    setup_ycsb(
        &mut db,
        &regions,
        "usertable",
        YcsbTable::RegionalByTable,
        KEYS,
        |_| unreachable!(),
    );
    drive(
        &mut db,
        "usertable",
        YcsbTable::RegionalByTable,
        read_mode,
        seed,
    )
}

/// The legacy duplicate-indexes topology (§7.3.1): one covering unique
/// index per non-primary region, each pinned to its region; writes update
/// the primary and every duplicate (a cross-region transaction), reads use
/// the local copy.
fn duplicate_indexes_config(seed: u64) -> DriverStats {
    let mut db = five_region_db(250, seed);
    let regions = paper_regions();
    setup_ycsb(
        &mut db,
        &regions,
        "usertable",
        YcsbTable::RegionalByTable,
        KEYS,
        |_| unreachable!(),
    );
    let sess = db.session_in_region(&regions[0], Some("ycsb"));
    for (i, r) in regions.iter().enumerate().skip(1) {
        db.exec_sync(
            &sess,
            &format!("CREATE UNIQUE INDEX dup{i} ON usertable (k) STORING (v)"),
        )
        .unwrap();
        db.exec_sync(
            &sess,
            &format!(
                "ALTER INDEX usertable.dup{i} CONFIGURE ZONE USING num_replicas = 3, \
                 constraints = '{{+region={r}: 3}}', lease_preferences = '[[+region={r}]]'"
            ),
        )
        .unwrap();
    }
    let t = db.cluster.now();
    db.cluster.run_until(multiregion::SimTime(
        t.nanos() + SimDuration::from_secs(2).nanos(),
    ));
    drive(
        &mut db,
        "usertable",
        YcsbTable::RegionalByTable,
        ReadMode::Fresh,
        seed,
    )
}

fn main() {
    println!(
        "Figure 5: read/write latency CDFs, GLOBAL vs duplicate indexes vs regional \
         (5 regions, YCSB-A, {} ops/client)\n",
        ops_per_client()
    );
    let configs: Vec<(&str, DriverStats)> = vec![
        ("Global offset=250ms", global_config(250, 51)),
        ("Global offset=50ms", global_config(50, 52)),
        ("Global offset=10ms", global_config(10, 53)),
        ("Duplicate indexes", duplicate_indexes_config(54)),
        ("Regional (Latest)", regional_config(ReadMode::Fresh, 55)),
        (
            "Regional (Stale)",
            regional_config(ReadMode::BoundedStaleness(SimDuration::from_secs(10)), 56),
        ),
    ];
    for (name, stats) in &configs {
        report_errors(name, stats);
    }
    println!("READ latency CDF (ms at percentile):");
    for (name, stats) in &configs {
        let mut rec = stats.merged(|l| l.contains("read"));
        print_cdf(name, &mut rec);
    }
    println!("\nWRITE latency CDF (ms at percentile):");
    for (name, stats) in &configs {
        let mut rec = stats.merged(|l| l.contains("write"));
        print_cdf(name, &mut rec);
    }
    println!(
        "\npaper expectation: sub-90th reads <3ms everywhere except Regional (Latest);\n\
         GLOBAL read tails bounded by max_clock_offset (ordered 10 < 50 < 250ms);\n\
         duplicate-index read and write tails unbounded (seconds);\n\
         GLOBAL writes 250-600ms scaling with offset; Regional (Stale) tail <5ms."
    );
}
