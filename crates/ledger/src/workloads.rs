//! The four workloads: cluster shape, schema, bulk load, clients.
//!
//! Every cluster is `ClusterConfig::default()` with only `seed` set — the
//! configuration every test and probe of the repo runs (strict monitors on,
//! 1 s scrapes on, sim tracing off). The seed reaches the cluster config
//! and the generators' RNG streams and nothing else. All four are closed
//! loops over a fixed stretch of simulated time, so for a seed the simulated
//! work is identical on every commit that keeps behaviour, and only host
//! time varies.

use mr_kv::cluster::ClusterConfig;
use mr_proto::Key;
use mr_sim::{RttMatrix, SimDuration, SimRng, SimTime, Topology};
use mr_sql::ddl::entry_key;
use mr_sql::exec::SqlDb;
use mr_sql::types::Datum;
use mr_workload::bulk;
use mr_workload::driver::{Op, OpSource};
use mr_workload::tpcc::{TpccConfig, TpccTerminal};
use mr_workload::ycsb::{self, KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::Zipf;

use crate::driver::{Driver, Fact};

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers this workload loads.
    pub why: &'static str,
    /// Simulated seconds the seed code gets through per host second on the
    /// reference box; `--seconds` × this is the fixed simulated length of a
    /// measured phase. Chosen so that at the default 20 s (and at the traced
    /// pass's 10 s) the phase ends well clear of a 60 s GC pass: four passes
    /// inside for `regional_ycsb_a`, twelve for `global_ycsb_b`, three for
    /// `wide_idle`, one for `tpcc_nothink` (none in its traced pass).
    pub sim_s_per_host_s: f64,
    /// How many times an end-to-end pass sets the workload up; `setup_s` is
    /// the median. A set-up of a fraction of a second is timed three times
    /// because a short timing is a noisy one; `wide_idle`'s takes 5 s, which
    /// is its own average, and two more would cost a run half its budget.
    pub setup_samples: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "regional_ycsb_a",
        why: "50/50 point SELECT/UPSERT on a REGIONAL table, 50 clients: the write path (transport, Raft, WAL, 1PC commit)",
        sim_s_per_host_s: 13.0,
        setup_samples: 3,
    },
    Workload {
        name: "global_ycsb_b",
        why: "95/5 on a GLOBAL table: local-replica reads with few sim events, so host time sits in SQL, storage reads, generators",
        sim_s_per_host_s: 37.0,
        setup_samples: 3,
    },
    Workload {
        name: "tpcc_nothink",
        why: "TPC-C scripts, think time 0: multi-statement multi-range txns (pipelining, parallel commit, refresh, locks, scans)",
        sim_s_per_host_s: 3.5,
        setup_samples: 3,
    },
    Workload {
        name: "wide_idle",
        why: "26 regions, 260+ ranges, 26 slow clients: host time goes to Raft ticks, side transport, GC and scrape walks",
        sim_s_per_host_s: 10.0,
        setup_samples: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of a workload to run: the simulated length of the measured
/// phase, and the share of the full data set (keys, pre-split ranges) to
/// load.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub sim: SimDuration,
    pub data: f64,
}

impl Size {
    /// Full data; the simulated length that takes `seconds` of host time on
    /// the seed code on the reference box.
    pub fn for_seconds(w: &Workload, seconds: f64) -> Size {
        Size {
            sim: SimDuration((w.sim_s_per_host_s * seconds * 1e9) as u64),
            data: 1.0,
        }
    }

    /// The determinism gate's ~1/200 scale.
    pub fn smoke(w: &Workload) -> Size {
        Size {
            sim: SimDuration((w.sim_s_per_host_s * 20.0 / 200.0 * 1e9) as u64),
            data: 1.0 / 200.0,
        }
    }
}

/// What the post-run audit checks against.
pub enum AuditPlan {
    Ycsb { keys: u64 },
    Tpcc { cfg: TpccConfig },
}

pub struct Built {
    pub db: SqlDb,
    pub driver: Driver,
    pub audit: AuditPlan,
}

pub const YCSB_TABLE: &str = "usertable";
/// Half the paper's table size (§7.1.1: 100k keys). The once-a-minute GC
/// pass rewrites every key of every replica (`Engine::maintain` merges all
/// runs), so its cost grows with the table while Raft's does not: at 200k
/// keys it takes 51 % of `regional_ycsb_a`'s host time, at 100k it ties with
/// Raft + transport (47 % each), at 50k it is a third and the write path the
/// workload is there to show is the largest share.
const REGIONAL_KEYS: u64 = 50_000;
/// GLOBAL tables are small reference tables (the paper's promo codes and
/// TPC-C items; `perf_probe` loads 10k). The GC pass costs the same per key
/// here, but a GLOBAL read costs so little that at 100k keys the pass took
/// 60 % of `global_ycsb_b`'s host time; at 20k it takes about a quarter and
/// the SQL and storage read path, which the workload is for, shows.
const GLOBAL_KEYS: u64 = 20_000;
const WIDE_KEYS_PER_REGION: u64 = 1_000;
const WIDE_RANGES_PER_REGION: u64 = 10;
/// Let replication and closed timestamps settle after the bulk load, as
/// every probe of the repo does.
const SETTLE: SimDuration = SimDuration::from_secs(5);

fn cluster(region_names: &[String], rtt: RttMatrix, seed: u64) -> SqlDb {
    let names: Vec<&str> = region_names.iter().map(|s| s.as_str()).collect();
    let topo = Topology::build(&names, 3, rtt);
    SqlDb::new(
        topo,
        ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
    )
}

fn create_database(db: &mut SqlDb, name: &str, regions: &[String]) {
    let sess = db.session_in_region(&regions[0], None);
    let rest: Vec<String> = regions[1..].iter().map(|r| format!("\"{r}\"")).collect();
    let sql = format!(
        "CREATE DATABASE {name} PRIMARY REGION \"{}\" REGIONS {}",
        regions[0],
        rest.join(", ")
    );
    db.exec_sync(&sess, &sql).expect("create database");
}

fn settle(db: &mut SqlDb) {
    let t = db.cluster.now();
    db.cluster.run_until(SimTime(t.nanos() + SETTLE.nanos()));
}

/// The measured phase starts where set-up left the simulated clock.
fn deadline(db: &SqlDb, size: Size) -> SimTime {
    SimTime(db.cluster.now().nanos() + size.sim.nanos())
}

fn paper_regions() -> Vec<String> {
    RttMatrix::paper_table1_regions()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn synthetic_regions(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("region-{i:02}")).collect()
}

fn scaled(full: u64, data: f64, floor: u64) -> u64 {
    ((full as f64 * data) as u64).max(floor)
}

/// YCSB on the five paper regions over one unpartitioned table.
fn build_ycsb5(
    seed: u64,
    size: Size,
    variant: YcsbTable,
    full_keys: u64,
    read_fraction: f64,
    clients_per_region: u64,
) -> Built {
    let regions = paper_regions();
    let mut db = cluster(&regions, RttMatrix::paper_table1(), seed);
    create_database(&mut db, "ycsb", &regions);
    let sess = db.session_in_region(&regions[0], Some("ycsb"));
    db.exec_sync(&sess, &ycsb::schema(YCSB_TABLE, variant, &regions))
        .expect("create table");
    let keys = scaled(full_keys, size.data, 100);
    let rows = ycsb::dataset(variant, keys, |_| unreachable!("unpartitioned"));
    bulk::load_rows(&mut db, "ycsb", YCSB_TABLE, &rows);
    settle(&mut db);

    let mut driver = Driver::new(deadline(&db, size), ycsb_fact);
    let mut rng = SimRng::seed_from_u64(seed);
    for (ri, region) in regions.iter().enumerate() {
        for _ in 0..clients_per_region {
            let sess = db.session_in_region(region, Some("ycsb"));
            let gen = YcsbGen {
                table: YCSB_TABLE.into(),
                variant,
                read_fraction,
                insert_workload: false,
                keys: KeyChooser::Zipf(Zipf::ycsb(keys)),
                read_mode: ReadMode::Fresh,
                regions: regions.clone(),
                region_idx: ri,
                remaining: None,
                next_insert: 0,
                insert_stride: 1,
                nregions: regions.len() as u64,
                label_prefix: String::new(),
            };
            driver.add_client(sess, rng.fork(), Box::new(gen));
        }
    }
    Built {
        db,
        driver,
        audit: AuditPlan::Ycsb { keys },
    }
}

/// A generator with a fixed think delay before every op.
struct WithThink<G> {
    inner: G,
    think: SimDuration,
}

impl<G: OpSource> OpSource for WithThink<G> {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self.inner.next_op(rng).map(|op| op.with_think(self.think))
    }
}

/// 26 regions × 3 nodes, one REGIONAL BY ROW table pre-split to 10 ranges
/// per region partition, one slow client per region.
fn build_wide_idle(seed: u64, size: Size) -> Built {
    let regions = synthetic_regions(26);
    let nregions = regions.len() as u64;
    let mut db = cluster(&regions, RttMatrix::synthetic(regions.len()), seed);
    create_database(&mut db, "ycsb", &regions);
    let sess = db.session_in_region(&regions[0], Some("ycsb"));
    let variant = YcsbTable::RegionalByRow { rehoming: false };
    db.exec_sync(&sess, &ycsb::schema(YCSB_TABLE, variant, &regions))
        .expect("create table");
    let per_region = scaled(WIDE_KEYS_PER_REGION, size.data, 20);
    let keys = per_region * nregions;
    let home = |k: u64| regions[(k % nregions) as usize].clone();
    let rows = ycsb::dataset(variant, keys, home);
    bulk::load_rows(&mut db, "ycsb", YCSB_TABLE, &rows);

    // Pre-split every region partition at evenly spaced primary keys. A
    // split is a Raft proposal on the range that currently covers the key,
    // so each round proposes one boundary per region and lets it apply.
    let ranges_per_region = scaled(WIDE_RANGES_PER_REGION, size.data.sqrt(), 2);
    let table = db
        .catalog
        .borrow()
        .table("ycsb", YCSB_TABLE)
        .expect("table exists")
        .clone();
    let before = db.cluster.registry().len();
    for j in 1..ranges_per_region {
        for r in 0..nregions {
            let slot = per_region * j / ranges_per_region;
            let k = slot * nregions + r;
            let row = &rows[k as usize];
            let key: Key = entry_key(
                &table,
                table.primary_index(),
                Some(&regions[r as usize]),
                row,
            );
            db.cluster
                .admin_split_at(key)
                .expect("pre-split proposed on a live, led range");
        }
        let t = db.cluster.now();
        db.cluster
            .run_until(SimTime(t.nanos() + SimDuration::from_millis(100).nanos()));
    }
    let added = (db.cluster.registry().len() - before) as u64;
    assert_eq!(
        added,
        (ranges_per_region - 1) * nregions,
        "every pre-split applied"
    );
    settle(&mut db);

    let mut driver = Driver::new(deadline(&db, size), ycsb_fact);
    let mut rng = SimRng::seed_from_u64(seed);
    for (ri, region) in regions.iter().enumerate() {
        let sess = db.session_in_region(region, Some("ycsb"));
        let gen = YcsbGen {
            table: YCSB_TABLE.into(),
            variant,
            read_fraction: 0.95,
            insert_workload: false,
            keys: KeyChooser::Locality {
                n: keys,
                nregions,
                region_idx: ri as u64,
                locality: 0.95,
                client_idx: 0,
                nclients: 1,
                shared_remote: None,
                remote_set: None,
            },
            read_mode: ReadMode::Fresh,
            regions: regions.clone(),
            region_idx: ri,
            remaining: None,
            next_insert: 0,
            insert_stride: 1,
            nregions,
            label_prefix: String::new(),
        };
        let source = WithThink {
            inner: gen,
            think: SimDuration::from_millis(100),
        };
        driver.add_client(sess, rng.fork(), Box::new(source));
    }
    Built {
        db,
        driver,
        audit: AuditPlan::Ycsb { keys },
    }
}

/// 4 regions × 3 nodes, the nine-table TPC-C schema, one terminal per
/// warehouse, think time 0.
fn build_tpcc(seed: u64, size: Size) -> Built {
    let regions = synthetic_regions(4);
    let mut db = cluster(&regions, RttMatrix::synthetic(regions.len()), seed);
    create_database(&mut db, "tpcc", &regions);
    let mut cfg = TpccConfig::new(regions.clone());
    // One warehouse (terminal) per region, not the 10 the issue sketched.
    // A Raft leader re-sends every entry a far follower has not yet acked
    // with each new proposal, so host time per op grows with the rate of
    // proposals on a range: 2.4 ms at one terminal per region, 6.5 ms at
    // four, 13 ms and 5 MB of allocation at ten. That growth also magnifies
    // a seed's luck: the seeds whose terminals get more ops into the phase
    // pay more for each, and `ops_per_host_s` over a 20 s phase spreads 6 %
    // from seed to seed at one terminal, 11 % at two, 12-19 % at four.
    cfg.warehouses_per_region = 1;
    cfg.think_time = SimDuration::ZERO;
    // With no think time, two New-Orders that each draw a stock line from
    // the other's warehouse lock their stock rows in opposite orders and
    // wait on each other forever (the lock table has no deadlock detection;
    // seed 3 hangs after ~4.7k ops). Remote payments (15 %) keep the
    // cross-region transactions; their lock order cannot cycle.
    cfg.remote_item_prob = 0.0;
    let sess = db.session_in_region(&regions[0], Some("tpcc"));
    for ddl in cfg.schema() {
        db.exec_sync(&sess, &ddl).expect("tpcc ddl");
    }
    for (table, rows) in cfg.datasets() {
        bulk::load_rows(&mut db, "tpcc", table, &rows);
    }
    settle(&mut db);

    let mut driver = Driver::new(deadline(&db, size), tpcc_fact);
    let mut rng = SimRng::seed_from_u64(seed);
    for w in 0..cfg.total_warehouses() {
        let region = &cfg.regions[cfg.region_of_warehouse(w)];
        let sess = db.session_in_region(region, Some("tpcc"));
        let term = TpccTerminal::new(cfg.clone(), w);
        driver.add_client(sess, rng.fork(), Box::new(term));
    }
    Built {
        db,
        driver,
        audit: AuditPlan::Tpcc { cfg },
    }
}

/// Build `name`'s cluster, load it and register its clients.
pub fn build(name: &str, seed: u64, size: Size) -> Built {
    match name {
        "regional_ycsb_a" => build_ycsb5(
            seed,
            size,
            YcsbTable::RegionalByTable,
            REGIONAL_KEYS,
            0.5,
            10,
        ),
        "global_ycsb_b" => build_ycsb5(seed, size, YcsbTable::Global, GLOBAL_KEYS, 0.95, 5),
        "tpcc_nothink" => build_tpcc(seed, size),
        "wide_idle" => build_wide_idle(seed, size),
        other => panic!("unknown workload {other:?}"),
    }
}

fn number_after<T: std::str::FromStr>(s: &str, marker: &str) -> Option<T> {
    let rest = &s[s.find(marker)? + marker.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(key, tag)` of a YCSB write statement (`UPSERT ... VALUES (k, 'w<tag>')`
/// or `UPDATE ... SET v = 'w<tag>' WHERE k = k`).
fn ycsb_fact(op: &Op) -> Option<Fact> {
    let sql = op.stmts.first()?;
    let tag = number_after(sql, "'w")?;
    let key = if sql.starts_with("UPSERT") {
        number_after(sql, "VALUES (")?
    } else {
        number_after(sql, "WHERE k = ")?
    };
    Some(Fact::YcsbWrite { key, tag })
}

/// `(w, d, o_id)` of a TPC-C New-Order script.
fn tpcc_fact(op: &Op) -> Option<Fact> {
    let insert = op
        .stmts
        .iter()
        .find(|s| s.starts_with("INSERT INTO new_order"))?;
    let vals = &insert[insert.find("VALUES (")? + "VALUES (".len()..];
    let mut parts = vals.trim_end_matches(')').split(", ");
    Some(Fact::NewOrder {
        w: parts.next()?.parse().ok()?,
        d: parts.next()?.parse().ok()?,
        o_id: parts.next()?.parse().ok()?,
    })
}

/// The YCSB value a row was loaded with.
pub fn loaded_value(k: u64) -> Datum {
    Datum::String(format!("value-{k}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_parse_the_generators_sql() {
        let upsert = Op::new(
            "UPSERT INTO usertable (k, v) VALUES (42, 'w123456')",
            "write-local",
        );
        assert_eq!(
            ycsb_fact(&upsert),
            Some(Fact::YcsbWrite {
                key: 42,
                tag: 123_456
            })
        );
        let update = Op::new(
            "UPDATE usertable SET v = 'w7' WHERE k = 9001",
            "write-remote",
        );
        assert_eq!(
            ycsb_fact(&update),
            Some(Fact::YcsbWrite { key: 9001, tag: 7 })
        );
        let read = Op::new("SELECT v FROM usertable WHERE k = 3", "read-local");
        assert_eq!(ycsb_fact(&read), None);

        let cfg = TpccConfig::new(vec!["a".into(), "b".into()]);
        let mut term = TpccTerminal::new(cfg, 5);
        let mut rng = SimRng::seed_from_u64(1);
        let mut seen = 0;
        for _ in 0..50 {
            let op = term.next_op(&mut rng).unwrap();
            match tpcc_fact(&op) {
                Some(Fact::NewOrder { w, d, o_id }) => {
                    assert!(op.label.contains("new-order"));
                    assert_eq!(w, 5);
                    assert!(d < 2 && o_id >= 1);
                    seen += 1;
                }
                other => assert!(other.is_none() && !op.label.contains("new-order")),
            }
        }
        assert!(seen > 10);
    }
}
