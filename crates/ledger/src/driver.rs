//! The ledger's own closed-loop driver.
//!
//! Same protocol as `mr_workload::driver::ClosedLoop` — one op in flight
//! per client, the next issued when the previous completes, a failed
//! statement rolls the script back — but the step loop lives here, so each
//! call into a layer can be wrapped in a host-time span, and each op keeps
//! its own simulated start/end and the fact the audit needs. Like a
//! CockroachDB client, it re-runs an op whose transaction was aborted (the
//! same statements, so a New-Order keeps its order id); an op fails only
//! when every attempt did, and its latency spans all of them.

use std::cell::RefCell;
use std::rc::Rc;

use mr_obs::Counter;
use mr_sim::{LatencyRecorder, SimDuration, SimRng, SimTime};
use mr_sql::exec::{Session, SqlDb};
use mr_workload::driver::{Op, OpSource};

use crate::spans::{Kind, Recorder};

/// What a write op changed, extracted from its SQL when it is issued so
/// the post-run audit can check the final state against acknowledged ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fact {
    /// `UPSERT`/`UPDATE` of YCSB key `key` to value `w<tag>`.
    YcsbWrite { key: u64, tag: u64 },
    /// TPC-C New-Order `o_id` in district `(w, d)`.
    NewOrder { w: u32, d: u32, o_id: i64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// Reads are YCSB `read-*` and TPC-C `order-status`; everything else writes.
pub fn class_of(label: &str) -> Class {
    if label.contains("read") || label.contains("order-status") {
        Class::Read
    } else {
        Class::Write
    }
}

#[derive(Default)]
pub struct Outcome {
    pub completed: u64,
    pub failed: u64,
    /// Simulated latency of each completed op, by class.
    pub reads: LatencyRecorder,
    pub writes: LatencyRecorder,
    /// Every write op that reported a fact, with whether it failed (a failed
    /// write is in doubt: the audit accepts its value but does not need it).
    pub facts: Vec<(Fact, bool)>,
    /// Attempts beyond each op's first.
    pub retries: u64,
    /// SQL text bytes of completed write ops — the "user bytes" that the WAL
    /// volume is compared against.
    pub user_write_bytes: u64,
    /// Error text of the first few failed statements, for the report.
    pub first_errors: Vec<String>,
}

struct Client {
    sess: Session,
    source: Box<dyn OpSource>,
    rng: SimRng,
    /// The current op's statements and the next one to issue.
    script: Vec<String>,
    cursor: usize,
    attempts: u32,
    class: Class,
    fact: Option<Fact>,
    write_bytes: u64,
    start: SimTime,
    after_think: Option<Op>,
    op_id: u64,
}

/// Completions the cluster's continuations hand back to the loop.
enum Signal {
    Stmt { client: usize, err: Option<String> },
    Think { client: usize },
    Rollback { client: usize },
}

/// `kv.events.by_kind` counter handles and their last-seen values; the kind
/// of the event a `Cluster::step` just processed is the counter that moved
/// (timeouts, GC, WAL-sync, scrape and lifecycle ticks move none: "other").
struct StepKinds {
    counters: [Counter; 5],
    last: [u64; 5],
}

impl StepKinds {
    const KINDS: [(&'static str, Kind); 5] = [
        ("rpc", Kind::StepRpc),
        ("raft", Kind::StepRaft),
        ("tick", Kind::StepTick),
        ("side", Kind::StepSide),
        ("wake", Kind::StepWake),
    ];

    fn bind(db: &SqlDb) -> StepKinds {
        let counters = Self::KINDS.map(|(k, _)| {
            db.cluster
                .obs
                .registry
                .counter("kv.events.by_kind", &[("kind", k)])
        });
        let last = [0, 1, 2, 3, 4].map(|i| counters[i].get());
        StepKinds { counters, last }
    }

    #[inline]
    fn classify(&mut self) -> Kind {
        for i in 0..5 {
            let v = self.counters[i].get();
            if v != self.last[i] {
                self.last[i] = v;
                return Self::KINDS[i].1;
            }
        }
        Kind::StepOther
    }
}

/// Simulated time without a single op finishing that counts as a hang.
const STALL: SimDuration = SimDuration::from_secs(120);

/// Attempts per op before it counts as failed.
const MAX_ATTEMPTS: u32 = 10;

pub struct Driver {
    clients: Vec<Client>,
    /// Clients stop asking for ops at this simulated time; the phase ends
    /// when the ops then in flight have finished. A fixed simulated length
    /// means a fixed number of GC passes, scrapes and Raft ticks whatever
    /// the seed, where a fixed op count would let a seed's luck with hot
    /// keys decide whether one more 60 s GC pass falls inside the phase.
    deadline: SimTime,
    signals: Rc<RefCell<Vec<Signal>>>,
    in_flight: usize,
    next_op_id: u64,
    fact_of: fn(&Op) -> Option<Fact>,
    pub out: Outcome,
}

impl Driver {
    /// Issue ops until simulated time `deadline`; `fact_of` extracts the
    /// audit fact from each op as it is issued.
    pub fn new(deadline: SimTime, fact_of: fn(&Op) -> Option<Fact>) -> Driver {
        Driver {
            clients: Vec::new(),
            deadline,
            signals: Rc::new(RefCell::new(Vec::new())),
            in_flight: 0,
            next_op_id: 0,
            fact_of,
            out: Outcome::default(),
        }
    }

    pub fn add_client(&mut self, sess: Session, rng: SimRng, source: Box<dyn OpSource>) {
        self.clients.push(Client {
            sess,
            source,
            rng,
            script: Vec::new(),
            cursor: 0,
            attempts: 0,
            class: Class::Read,
            fact: None,
            write_bytes: 0,
            start: SimTime::ZERO,
            after_think: None,
            op_id: 0,
        });
    }

    fn next_op(&mut self, db: &mut SqlDb, rec: &mut Recorder, client: usize) {
        if db.cluster.now() >= self.deadline {
            return;
        }
        rec.mark(Kind::Driver);
        let c = &mut self.clients[client];
        let op = c.source.next_op(&mut c.rng);
        let op_id = self.next_op_id;
        rec.mark_op(Kind::Gen, op_id);
        let op = op.expect("the ledger's generators are unbounded");
        self.next_op_id += 1;
        self.clients[client].op_id = op_id;
        if op.think == SimDuration::ZERO {
            self.begin_op(db, rec, client, op);
        } else {
            self.in_flight += 1;
            let signals = Rc::clone(&self.signals);
            db.cluster.schedule(
                op.think,
                Box::new(move |_c| signals.borrow_mut().push(Signal::Think { client })),
            );
            self.clients[client].after_think = Some(op);
        }
    }

    fn begin_op(&mut self, db: &mut SqlDb, rec: &mut Recorder, client: usize, op: Op) {
        let fact = (self.fact_of)(&op);
        let c = &mut self.clients[client];
        c.class = class_of(&op.label);
        c.fact = fact;
        c.write_bytes = match c.class {
            Class::Write => op.stmts.iter().map(|s| s.len() as u64).sum(),
            Class::Read => 0,
        };
        c.script = op.stmts;
        c.cursor = 0;
        c.attempts = 1;
        c.start = db.cluster.now();
        self.issue(db, rec, client, false);
    }

    /// Issue one statement for `client`: the next of its script, or a
    /// `ROLLBACK` of the transaction a failed statement left open.
    fn issue(&mut self, db: &mut SqlDb, rec: &mut Recorder, client: usize, rollback: bool) {
        self.in_flight += 1;
        let c = &mut self.clients[client];
        let sql = if rollback {
            "ROLLBACK"
        } else {
            c.cursor += 1;
            &c.script[c.cursor - 1]
        };
        let signals = Rc::clone(&self.signals);
        rec.mark(Kind::Driver);
        db.exec(
            &c.sess,
            sql,
            Box::new(move |_cl, res| {
                signals.borrow_mut().push(if rollback {
                    Signal::Rollback { client }
                } else {
                    Signal::Stmt {
                        client,
                        err: res.err().map(|e| e.to_string()),
                    }
                });
            }),
        );
        rec.mark_op(Kind::SqlExec, c.op_id);
    }

    fn finish_op(&mut self, db: &mut SqlDb, rec: &mut Recorder, client: usize, failed: bool) {
        let c = &mut self.clients[client];
        if failed && c.attempts < MAX_ATTEMPTS {
            c.attempts += 1;
            c.cursor = 0;
            self.out.retries += 1;
            self.issue(db, rec, client, false);
            return;
        }
        let latency = db.cluster.now() - c.start;
        if failed {
            self.out.failed += 1;
        } else {
            self.out.completed += 1;
            self.out.user_write_bytes += c.write_bytes;
            match c.class {
                Class::Read => self.out.reads.record(latency),
                Class::Write => self.out.writes.record(latency),
            }
        }
        if let Some(f) = c.fact.take() {
            self.out.facts.push((f, failed));
        }
        self.next_op(db, rec, client);
    }

    /// Run every client to retirement. Returns the host nanoseconds at the
    /// start and end of the phase.
    pub fn run(&mut self, db: &mut SqlDb, rec: &mut Recorder) -> (u64, u64) {
        let mut kinds = StepKinds::bind(db);
        let mut progress = (0, db.cluster.now());
        let t0 = crate::host::now_ns();
        rec.begin(t0);
        for i in 0..self.clients.len() {
            self.next_op(db, rec, i);
        }
        loop {
            let batch: Vec<Signal> = self.signals.borrow_mut().drain(..).collect();
            for sig in batch {
                self.in_flight -= 1;
                match sig {
                    Signal::Think { client } => {
                        if let Some(op) = self.clients[client].after_think.take() {
                            self.begin_op(db, rec, client, op);
                        }
                    }
                    Signal::Stmt { client, err: None } => {
                        let c = &self.clients[client];
                        if c.cursor == c.script.len() {
                            self.finish_op(db, rec, client, false);
                        } else {
                            self.issue(db, rec, client, false);
                        }
                    }
                    Signal::Stmt {
                        client,
                        err: Some(e),
                    } => {
                        if self.out.first_errors.len() < 5 {
                            self.out.first_errors.push(e);
                        }
                        if self.clients[client].sess.in_txn() {
                            self.issue(db, rec, client, true);
                        } else {
                            self.finish_op(db, rec, client, true);
                        }
                    }
                    Signal::Rollback { client } => self.finish_op(db, rec, client, true),
                }
            }
            if self.in_flight == 0 {
                break;
            }
            rec.mark(Kind::Driver);
            let more = db.cluster.step();
            if rec.enabled() {
                rec.mark(kinds.classify());
            }
            assert!(more, "event calendar drained with ops in flight");
            // Periodic ticks keep the calendar busy forever, so a lost
            // wake-up would spin here: bound the simulated time one op may
            // take instead.
            let done = self.out.completed + self.out.failed + self.out.retries;
            if done != progress.0 {
                progress = (done, db.cluster.now());
            } else if db.cluster.now().nanos() - progress.1.nanos() > STALL.nanos() {
                let stuck: Vec<String> = db
                    .cluster
                    .active_txns()
                    .iter()
                    .map(|t| format!("txn{} since {} on ranges {:?}", t.id, t.start, t.ranges))
                    .collect();
                panic!(
                    "no op finished for {STALL} of simulated time ({} in flight, {done} done); \
                     open transactions: {stuck:?}",
                    self.in_flight
                );
            }
        }
        rec.mark(Kind::Driver);
        (t0, crate::host::now_ns())
    }
}
