//! Layer-direct pass: tight timed loops over each layer's public functions,
//! with inputs from the same generators the workloads use. Every figure is
//! the median over `reps` repetitions of a loop of `n` calls.

use std::hint::black_box;

use mr_clock::{Hlc, SkewedClock, Timestamp};
use mr_kv::locks::LockTable;
use mr_obs::{Registry, Tracer};
use mr_proto::{Key, ReadCtx, Span, TxnId, TxnMeta, Value};
use mr_raft::{RaftConfig, RaftNode};
use mr_sim::{EventQueue, NodeId, RttMatrix, SimDuration, SimRng, SimTime, Topology};
use mr_sql::ast::Stmt;
use mr_sql::catalog::Index;
use mr_sql::expr::EvalEnv;
use mr_sql::lexer::tokenize;
use mr_sql::parser::parse;
use mr_sql::plan::plan_read;
use mr_storage::{Engine, TsCache};
use mr_workload::driver::OpSource;
use mr_workload::tpcc::{TpccConfig, TpccTerminal};
use mr_workload::ycsb::{KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::Zipf;

use crate::host::now_ns;
use crate::metrics::{median, Values};
use crate::workloads::{build, Size, YCSB_TABLE};

/// How hard to measure: `reps` timed repetitions per metric (the median is
/// reported) and a multiplier on every loop's iteration count.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub reps: usize,
    pub iters: f64,
}

impl Budget {
    /// The ledger's normal setting: ≥5 repetitions.
    pub const FULL: Budget = Budget {
        reps: 5,
        iters: 1.0,
    };
    /// Enough to exercise every loop once (the smoke test).
    pub const SMOKE: Budget = Budget {
        reps: 1,
        iters: 0.002,
    };

    fn n(&self, full: u64) -> u64 {
        ((full as f64 * self.iters) as u64).max(2)
    }
}

/// Median nanoseconds per call of `body` over `b.reps` loops of `n` calls.
fn per_call(b: Budget, n: u64, mut body: impl FnMut(u64)) -> f64 {
    let n = b.n(n);
    median(
        (0..b.reps)
            .map(|_| {
                let t0 = now_ns();
                for i in 0..n {
                    body(i);
                }
                (now_ns() - t0) as f64 / n as f64
            })
            .collect(),
    )
}

/// Median nanoseconds of one call of `timed` on a fresh `setup()` value.
fn per_fresh<T>(b: Budget, mut setup: impl FnMut() -> T, mut timed: impl FnMut(T)) -> f64 {
    median(
        (0..b.reps)
            .map(|_| {
                let input = setup();
                let t0 = now_ns();
                timed(input);
                (now_ns() - t0) as f64
            })
            .collect(),
    )
}

const NS: u64 = 1_000_000_000;

fn ykey(i: u64) -> Key {
    Key::from(format!("user{i:010}").as_str())
}

fn commit(eng: &mut Engine, key: &Key, idx: u64) {
    let ts = Timestamp::new(idx * NS, 0);
    let txn = TxnMeta::new(TxnId(idx), key.clone(), ts);
    eng.put(key, Some(Value::from("value-0123456789")), &txn)
        .expect("layer-bench writes never conflict");
    eng.commit_intent(key, txn.id, ts);
    eng.seal_entry(idx, ts);
    eng.sync(ts.wall);
}

/// `keys` committed keys spread over `runs` disjoint flushed runs (0 = all
/// in the memtable). Returns the engine and a read context above every
/// write.
fn engine_with(keys: u64, runs: u64) -> (Engine, ReadCtx) {
    let mut eng = Engine::new();
    let mut idx = 1;
    for r in 0..runs.max(1) {
        for i in (r..keys).step_by(runs.max(1) as usize) {
            commit(&mut eng, &ykey(i), idx);
            idx += 1;
        }
        if runs > 0 {
            eng.flush(idx * NS);
        }
    }
    let ts = Timestamp::new((idx + 1) * NS, 0);
    (eng, ReadCtx::fresh(ts, ts))
}

fn raft_group(quiesce: bool) -> (RaftNode<u64>, RaftNode<u64>, RaftNode<u64>) {
    let mk = |id| {
        RaftNode::<u64>::new(
            RaftConfig {
                id,
                voters: vec![0, 1, 2],
                learners: vec![],
                election_timeout: SimDuration::from_millis(2_000),
                heartbeat_interval: SimDuration::from_millis(500),
                quiesce,
            },
            SimTime::ZERO,
        )
    };
    let mut leader = mk(0);
    leader.bootstrap_leader(SimTime::ZERO);
    (leader, mk(1), mk(2))
}

/// Deliver `msgs` from the leader to its followers and their replies back.
fn raft_round(
    leader: &mut RaftNode<u64>,
    f1: &mut RaftNode<u64>,
    f2: &mut RaftNode<u64>,
    msgs: Vec<(u32, mr_raft::RaftMsg<u64>)>,
    now: SimTime,
) {
    for (to, m) in msgs {
        let follower = if to == 1 { &mut *f1 } else { &mut *f2 };
        for (_, resp) in follower.step(0, m, now) {
            leader.step(to, resp, now);
        }
    }
}

fn ycsb_gen(keys: u64) -> YcsbGen {
    YcsbGen {
        table: YCSB_TABLE.into(),
        variant: YcsbTable::RegionalByTable,
        read_fraction: 0.5,
        insert_workload: false,
        keys: KeyChooser::Zipf(Zipf::ycsb(keys)),
        read_mode: ReadMode::Fresh,
        regions: vec!["us-east1".into()],
        region_idx: 0,
        remaining: None,
        next_insert: 0,
        insert_stride: 1,
        nregions: 1,
        label_prefix: String::new(),
    }
}

const POINT_SELECT: &str = "SELECT v FROM usertable WHERE k = 48213";
const UPSERT: &str = "UPSERT INTO usertable (k, v) VALUES (48213, 'w123456')";
const TPCC_STMT: &str =
    "UPDATE stock SET s_quantity = s_quantity - 7 WHERE s_w_id = 12 AND s_i_id = 17";

pub fn run_layers(seed: u64, b: Budget) -> Values {
    let mut m = Values::default();
    let mut rng = SimRng::seed_from_u64(seed);

    // ---- sim ----
    for (name, depth) in [
        ("sim.calendar.ns_push_pop_d1k", 1_000u64),
        ("sim.calendar.ns_push_pop_d100k", 100_000),
    ] {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            q.schedule(SimDuration::from_micros(rng.next_below(1_000_000)), i);
        }
        let v = per_call(b, 200_000, |i| {
            q.schedule(SimDuration::from_micros(rng.next_below(1_000_000)), i);
            black_box(q.pop());
        });
        m.push(name, v);
    }
    {
        let topo = Topology::build(
            &RttMatrix::paper_table1_regions(),
            3,
            RttMatrix::paper_table1(),
        );
        let n = topo.num_nodes() as u64;
        let v = per_call(b, 500_000, |i| {
            let (a, z) = (NodeId((i % n) as u32), NodeId((i * 7 % n) as u32));
            black_box(topo.link(a, z, &mut rng));
        });
        m.push("sim.topo_link.ns", v);
    }

    // ---- clock ----
    {
        let mut hlc = Hlc::new(SkewedClock::new(37));
        let v = per_call(b, 1_000_000, |i| {
            black_box(hlc.now(SimTime(i * 13)));
        });
        m.push("clock.hlc_now.ns", v);
        let mut hlc = Hlc::new(SkewedClock::zero());
        let v = per_call(b, 1_000_000, |i| {
            hlc.update(Timestamp::new(i * 14, 3), SimTime(i * 7));
            black_box(hlc.peek());
        });
        m.push("clock.hlc_update.ns", v);
    }

    // ---- storage ----
    let keys = b.n(10_000).max(200);
    let zipf = Zipf::ycsb(keys);
    let (r0, ctx0) = engine_with(keys, 0);
    let (r1, ctx1) = engine_with(keys, 1);
    let (r8, ctx8) = engine_with(keys, 8);
    for (name, eng, ctx) in [
        ("storage.get.ns_r0", &r0, &ctx0),
        ("storage.get.ns_r1", &r1, &ctx1),
        ("storage.get.ns_r8", &r8, &ctx8),
    ] {
        let v = per_call(b, 100_000, |_| {
            let k = ykey(zipf.sample(&mut rng));
            black_box(eng.get(&k, ctx).expect("read above the GC floor"));
        });
        m.push(name, v);
    }
    let v = per_call(b, 100_000, |i| {
        let k = Key::from(format!("user{i:010}-absent").as_str());
        black_box(r8.get(&k, &ctx8).expect("read above the GC floor"));
    });
    m.push("storage.get_miss.ns_r8", v);
    for (name, eng, ctx) in [
        ("storage.scan100.us_r0", &r0, &ctx0),
        ("storage.scan100.us_r8", &r8, &ctx8),
    ] {
        let v = per_call(b, 1_000, |_| {
            let start = rng.next_below(keys - 100);
            let span = Span::new(ykey(start), ykey(start + 100));
            black_box(eng.scan(&span, ctx, usize::MAX).expect("scan"));
        });
        m.push(name, v / 1e3);
    }
    let v = per_call(b, 100, |_| {
        let span = Span::new(ykey(0), ykey(keys));
        black_box(r8.scan(&span, &ctx8, 10).expect("scan"));
    });
    m.push("storage.scan_limit10_of_10k.us_r8", v / 1e3);
    {
        let mut cache = TsCache::new(Timestamp::new(1, 0));
        let v = per_call(b, 200_000, |i| {
            let k = ykey(zipf.sample(&mut rng));
            cache.record_read(&k, Timestamp::new(i + 2, 0), None);
            black_box(cache.max_read_ts(&k, None));
        });
        m.push("storage.tscache.ns", v);
    }
    {
        let mut eng = r1.clone();
        let mut idx = keys + 10;
        let mut sync_ns = 0u64;
        let n = b.n(50_000);
        let v = per_call(b, 50_000, |_| {
            let k = ykey(zipf.sample(&mut rng));
            idx += 1;
            let ts = Timestamp::new(idx * NS, 0);
            let txn = TxnMeta::new(TxnId(idx), k.clone(), ts);
            eng.put(&k, Some(Value::from("w123456")), &txn)
                .expect("layer-bench writes never conflict");
            eng.commit_intent(&k, txn.id, ts);
            eng.seal_entry(idx, ts);
            let t = now_ns();
            eng.sync(ts.wall);
            sync_ns += now_ns() - t;
        });
        let sync = sync_ns as f64 / (n * b.reps as u64) as f64;
        m.push("storage.put_commit_seal.ns", v - sync);
        m.push("storage.wal_sync.ns", sync);
        // The WAL now holds every record since the last checkpoint.
        let bytes = eng.wal().bytes().to_vec();
        let ns = per_fresh(
            b,
            || (),
            |()| {
                black_box(mr_storage::wal::replay(&bytes));
            },
        );
        m.push(
            "storage.wal_replay.mb_per_s",
            bytes.len() as f64 / (1024.0 * 1024.0) / (ns / 1e9),
        );
    }
    {
        let versions = r0.version_count() as f64 / 1e3;
        let ns = per_fresh(
            b,
            || r0.clone(),
            |mut e| {
                black_box(e.flush(NS << 20));
            },
        );
        m.push("storage.flush.us_per_1k_versions", ns / 1e3 / versions);
        // One run plus a memtable tenth its size: the GC pass's steady state.
        let mut eng = r1.clone();
        let mut idx = keys + 10;
        for i in 0..keys / 10 {
            idx += 1;
            commit(&mut eng, &ykey(i * 10), idx);
        }
        let versions = eng.version_count() as f64 / 1e3;
        let ns = per_fresh(
            b,
            || eng.clone(),
            |mut e| {
                black_box(e.maintain(Timestamp::new(NS, 0), NS << 20));
            },
        );
        m.push("storage.maintain.us_per_1k_versions", ns / 1e3 / versions);
    }

    // ---- raft ----
    {
        let (mut leader, mut f1, mut f2) = raft_group(false);
        let v = per_call(b, 100_000, |i| {
            let (_, msgs) = leader.propose(i, SimTime::ZERO).expect("leader");
            raft_round(&mut leader, &mut f1, &mut f2, msgs, SimTime::ZERO);
            black_box(leader.take_committed().len());
        });
        m.push("raft.propose_commit_3v.ns_per_entry", v);
        let v = per_call(b, 20_000, |i| {
            for j in 0..8 {
                leader.propose_batched(i * 8 + j).expect("leader");
            }
            let msgs = leader.flush_appends(SimTime::ZERO);
            raft_round(&mut leader, &mut f1, &mut f2, msgs, SimTime::ZERO);
            black_box(leader.take_committed().len());
        });
        m.push("raft.propose_commit_batch8.ns_per_cmd", v / 8.0);
        // A busy leader ticked on the cluster's 250 ms cadence: every other
        // tick broadcasts a heartbeat.
        let mut now = SimTime::ZERO;
        let v = per_call(b, 200_000, |_| {
            now = SimTime(now.nanos() + 250_000_000);
            black_box(leader.tick(now));
        });
        m.push("raft.tick_leader.ns", v);
    }
    {
        let (mut leader, mut f1, mut f2) = raft_group(true);
        let (_, msgs) = leader.propose(1, SimTime::ZERO).expect("leader");
        raft_round(&mut leader, &mut f1, &mut f2, msgs, SimTime::ZERO);
        leader.take_committed();
        let mut now = SimTime::ZERO;
        while !leader.is_quiesced() {
            now = SimTime(now.nanos() + 500_000_000);
            let msgs = leader.tick(now);
            raft_round(&mut leader, &mut f1, &mut f2, msgs, now);
            assert!(now.nanos() < 60 * NS, "idle leader never quiesced");
        }
        let v = per_call(b, 1_000_000, |i| {
            black_box(leader.tick(SimTime(now.nanos() + i)));
        });
        m.push("raft.tick_quiesced.ns", v);
    }

    // ---- kv ----
    {
        let mut locks = LockTable::new();
        let v = per_call(b, 200_000, |i| {
            let k = ykey(zipf.sample(&mut rng));
            let holder = TxnMeta::new(TxnId(i), k.clone(), Timestamp::new(i + 1, 0));
            locks.acquire(&k, holder);
            black_box(locks.release(&k));
        });
        m.push("kv.locks.acquire_release.ns", v);
    }

    // ---- sql ----
    let v = per_call(b, 100_000, |_| {
        black_box(tokenize(black_box(POINT_SELECT)).expect("lexes"));
    });
    m.push("sql.tokenize.ns_point_select", v);
    for (name, sql) in [
        ("sql.parse.ns_point_select", POINT_SELECT),
        ("sql.parse.ns_upsert", UPSERT),
        ("sql.parse.ns_tpcc_stmt", TPCC_STMT),
    ] {
        let v = per_call(b, 100_000, |_| {
            black_box(parse(black_box(sql)).expect("parses"));
        });
        m.push(name, v);
    }

    // ---- the built clusters: planner, registry dump, scrape ----
    let tiny = |data: f64| Size {
        sim: SimDuration::ZERO,
        data,
    };
    let mut five = build("regional_ycsb_a", seed, tiny(0.01));
    {
        let cat = five.db.catalog.borrow();
        let dbd = cat.db("ycsb").expect("ycsb db");
        let table = cat.table("ycsb", YCSB_TABLE).expect("ycsb table");
        let Ok(Stmt::Select { predicate, .. }) = parse(POINT_SELECT) else {
            unreachable!("point select parses to a Select");
        };
        let mut uuid = || 0u128;
        let mut env = EvalEnv {
            gateway_region: "us-east1",
            uuid_source: &mut uuid,
        };
        let mut home = |_: &Index| None;
        let v = per_call(b, 200_000, |_| {
            black_box(
                plan_read(
                    dbd,
                    table,
                    predicate.as_ref(),
                    None,
                    "us-east1",
                    true,
                    &mut env,
                    &mut home,
                )
                .expect("plans"),
            );
        });
        m.push("sql.plan_read.ns_point", v);
    }

    // ---- obs ----
    {
        let reg = Registry::new();
        let c = reg.counter("ledger.bench.counter", &[("kind", "x")]);
        let v = per_call(b, 2_000_000, |_| black_box(&c).inc());
        m.push("obs.counter_inc.ns", v);
        let h = reg.histogram("ledger.bench.hist", &[]);
        let v = per_call(b, 1_000_000, |i| black_box(&h).record(i * 977 % 1_000_000));
        m.push("obs.histogram_record.ns", v);
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let v = per_call(b, 200_000, |i| {
            let s = tracer.start("ledger.bench", None, SimTime(i));
            tracer.finish(s, SimTime(i + 1));
        });
        m.push("obs.span_start_finish.ns", v);
    }
    let v = per_call(b, 200, |_| {
        black_box(five.db.cluster.obs.registry.dump_json());
    });
    m.push("obs.dump_json.us", v / 1e3);
    let v = per_call(b, 100, |_| five.db.cluster.scrape_now());
    m.push("obs.scrape_now.us_5r", v / 1e3);
    drop(five);
    // A quarter of `wide_idle`'s data: 26 regions × 5 ranges × 28 replicas.
    let mut wide = build("wide_idle", seed, tiny(0.25));
    let v = per_call(b, 20, |_| wide.db.cluster.scrape_now());
    m.push("obs.scrape_now.us_26r", v / 1e3);
    drop(wide);

    // ---- workload ----
    {
        let mut gen = ycsb_gen(100_000);
        let v = per_call(b, 200_000, |_| {
            black_box(gen.next_op(&mut rng));
        });
        m.push("workload.ycsb_next_op.ns", v);
        let mut cfg = TpccConfig::new((0..4).map(|i| format!("region-{i:02}")).collect());
        cfg.warehouses_per_region = 10;
        let mut term = TpccTerminal::new(cfg, 7);
        let v = per_call(b, 20_000, |_| {
            black_box(term.next_op(&mut rng));
        });
        m.push("workload.tpcc_next_op.ns", v);
    }
    m
}
