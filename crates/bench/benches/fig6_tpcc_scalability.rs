//! Figure 6: multi-region TPC-C scalability (§7.4).
//!
//! TPC-C with the `item` table GLOBAL and the other eight tables REGIONAL
//! BY ROW with `crdb_region` computed from the warehouse id. The paper
//! scales 4 → 10 → 26 regions at 100 warehouses each and reports linear
//! tpmC scaling at ≥97% efficiency, region-local p50/p90 latencies, and no
//! latency penalty for PLACEMENT DEFAULT (non-voters everywhere) vs
//! PLACEMENT RESTRICTED.
//!
//! Simulation scale: warehouses per region and catalog sizes are reduced
//! (see `TpccConfig`); efficiency is measured against the think-time
//! ceiling exactly as TPC-C does. `MR_TPCC_SECS` lengthens the run,
//! `MR_TPCC_WH` raises warehouses per region.

use mr_bench::*;
use mr_sim::SimRng;
use mr_sql::exec::SqlDb;
use mr_workload::bulk;
use mr_workload::driver::ClosedLoop;
use mr_workload::tpcc::{TpccConfig, TpccTerminal};
use multiregion::{ClusterBuilder, RttMatrix, SimDuration, SimTime};

fn warehouses_per_region() -> u32 {
    std::env::var("MR_TPCC_WH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

struct Outcome {
    regions: usize,
    warehouses: u32,
    tpmc: f64,
    efficiency: f64,
    p50_by_region: (f64, f64),
    p90_by_region: (f64, f64),
    ranges: usize,
    splits: usize,
}

fn run(nregions: usize, restricted: bool, warehouses: u32, lifecycle: bool, seed: u64) -> Outcome {
    let region_names: Vec<String> = (0..nregions).map(|i| format!("region-{i}")).collect();
    let mut builder = ClusterBuilder::new()
        .rtt_matrix(RttMatrix::synthetic(nregions))
        .seed(seed)
        .config(|c| {
            if lifecycle {
                // Dynamic topology: the loaded warehouse rows push the
                // per-region table ranges over the size trigger, so the
                // controller splits them while terminals run.
                c.lifecycle.enabled = true;
            }
        });
    for r in &region_names {
        builder = builder.region(r, 3);
    }
    let mut db: SqlDb = builder.build();

    let mut cfg = TpccConfig::new(region_names.clone());
    cfg.warehouses_per_region = warehouses;
    cfg.items = 20;
    cfg.districts_per_warehouse = 2;
    cfg.customers_per_district = 10;

    let sess = db.session_in_region(&region_names[0], None);
    let mut create = format!(
        "CREATE DATABASE tpcc PRIMARY REGION \"{}\"",
        region_names[0]
    );
    if nregions > 1 {
        let rest: Vec<String> = region_names[1..]
            .iter()
            .map(|r| format!("\"{r}\""))
            .collect();
        create.push_str(&format!(" REGIONS {}", rest.join(", ")));
    }
    db.exec_sync(&sess, &create).unwrap();
    if restricted {
        db.exec_sync(&sess, "ALTER DATABASE tpcc PLACEMENT RESTRICTED")
            .unwrap();
    }
    for ddl in cfg.schema() {
        db.exec_sync(&sess, &ddl).unwrap();
    }
    for (table, rows) in cfg.datasets() {
        bulk::load_rows(&mut db, "tpcc", table, &rows);
    }
    let t = db.cluster.now();
    db.cluster
        .run_until(SimTime(t.nanos() + SimDuration::from_secs(5).nanos()));

    let mut driver = ClosedLoop::new();
    let mut rng = SimRng::seed_from_u64(seed);
    for w in 0..cfg.total_warehouses() {
        for _ in 0..cfg.terminals_per_warehouse {
            let ridx = cfg.region_of_warehouse(w);
            let region = &cfg.regions[ridx];
            let sess = db.session_in_region(region, Some("tpcc"));
            let mut term = TpccTerminal::new(cfg.clone(), w);
            term.label_prefix = format!("r{ridx}/");
            driver.add_client(sess, rng.fork(), Box::new(term));
        }
    }
    let start = db.cluster.now();
    let deadline = SimTime(start.nanos() + SimDuration::from_secs(tpcc_secs()).nanos());
    driver.run(&mut db, deadline);

    let stats = &driver.stats;
    let placement = if restricted { " RESTRICTED" } else { "" };
    let section = if lifecycle { " lifecycle" } else { "" };
    report_errors(&format!("{nregions} regions{placement}{section}"), stats);
    let tpmc = stats.per_minute(|l| l.contains("new-order"));
    let max_tpmc = cfg.max_tpmc_per_warehouse() * cfg.total_warehouses() as f64;
    // p50/p90 of all new-order latency per region; report the min/max
    // across regions (the paper's "p50 varied from X to Y" claim).
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    for ridx in 0..nregions {
        let prefix = format!("r{ridx}/new-order");
        let mut rec = stats.merged(|l| l.starts_with(&prefix));
        if !rec.is_empty() {
            p50s.push(rec.quantile(0.5).as_millis_f64());
            p90s.push(rec.quantile(0.9).as_millis_f64());
        }
    }
    let span = |v: &[f64]| {
        (
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(0.0_f64, f64::max),
        )
    };
    Outcome {
        regions: nregions,
        warehouses: cfg.total_warehouses(),
        tpmc,
        efficiency: 100.0 * tpmc / max_tpmc,
        p50_by_region: span(&p50s),
        p90_by_region: span(&p90s),
        ranges: db.cluster.registry().len(),
        splits: db.cluster.events.count_kind("range_split"),
    }
}

fn main() {
    let wh = warehouses_per_region();
    println!(
        "Figure 6: multi-region TPC-C scalability ({wh} warehouses/region, {}s simulated, \
         item GLOBAL, 8 tables REGIONAL BY ROW computed from w_id)\n",
        tpcc_secs()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "regions", "warehouses", "tpmC", "max tpmC", "efficiency", "p50(ms)", "p90(ms)"
    );
    let mut results = Vec::new();
    for (i, n) in [4usize, 10, 26].iter().enumerate() {
        let out = run(*n, false, wh, false, 90 + i as u64);
        println!(
            "{:>8} {:>12} {:>12.0} {:>12.0} {:>9.1}% {:>12} {:>14}",
            out.regions,
            out.warehouses,
            out.tpmc,
            out.tpmc * 100.0 / out.efficiency,
            out.efficiency,
            format!("{:.0}-{:.0}", out.p50_by_region.0, out.p50_by_region.1),
            format!("{:.0}-{:.0}", out.p90_by_region.0, out.p90_by_region.1),
        );
        results.push(out);
    }
    // PLACEMENT RESTRICTED comparison at 10 regions (§7.4).
    let restricted = run(10, true, wh, false, 99);
    println!(
        "\nPLACEMENT RESTRICTED, 10 regions: tpmC {:.0}, efficiency {:.1}%, p50 {:.0}-{:.0}ms, p90 {:.0}-{:.0}ms",
        restricted.tpmc,
        restricted.efficiency,
        restricted.p50_by_region.0,
        restricted.p50_by_region.1,
        restricted.p90_by_region.0,
        restricted.p90_by_region.1
    );
    println!(
        "\npaper expectation: tpmC scales linearly with regions at >=97% efficiency;\n\
         p50 region-local (tens of ms); PLACEMENT DEFAULT no slower than RESTRICTED."
    );
    // Linearity check printed explicitly.
    if results.len() == 3 {
        let per_region: Vec<f64> = results.iter().map(|r| r.tpmc / r.regions as f64).collect();
        println!(
            "tpmC per region: {:.1} / {:.1} / {:.1} (flat = linear scaling)",
            per_region[0], per_region[1], per_region[2]
        );
    }

    // Range-lifecycle section: the same 4-region cluster at a warehouse
    // count whose loaded rows push the per-region table ranges over the
    // split-size trigger, with the controller enabled. tpmC must hold up
    // while the topology reshapes under the terminals.
    let split_wh = std::env::var("MR_TPCC_WH_SPLIT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(wh.max(40));
    let dynamic = run(4, false, split_wh, true, 90);
    println!(
        "\nrange lifecycle, 4 regions x {split_wh} warehouses: tpmC {:.0}, efficiency {:.1}%, \
         {} splits -> {} ranges (static 4-region run had {} ranges)",
        dynamic.tpmc, dynamic.efficiency, dynamic.splits, dynamic.ranges, results[0].ranges
    );
    if dynamic.splits == 0 {
        eprintln!("  WARNING: warehouse count did not force any splits");
    }
}
