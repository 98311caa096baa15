//! The closed-loop client driver.
//!
//! Mirrors the paper's methodology (§7.1.1): each client is pinned to a
//! gateway in its region and sends operations in a closed loop — one
//! operation in flight, the next issued when the previous completes
//! (optionally after a think delay, used by TPC-C terminals).
//!
//! An operation is one SQL statement or a *script* (a `BEGIN ... COMMIT`
//! transaction executed statement by statement); the recorded latency spans
//! the whole script. Latencies are recorded per operation label so
//! harnesses can split local/remote and read/write distributions exactly
//! like the paper's figures.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use mr_sim::{SimDuration, SimRng, SimTime};
use mr_sql::exec::{Session, SqlDb};

/// One operation to issue: a single statement or a transaction script.
#[derive(Clone, Debug)]
pub struct Op {
    pub stmts: Vec<String>,
    /// Series label for latency recording (e.g. `"read-local"`).
    pub label: String,
    /// Think delay before issuing this op (TPC-C keying+think time).
    pub think: SimDuration,
}

impl Op {
    pub fn new(sql: impl Into<String>, label: impl Into<String>) -> Op {
        Op {
            stmts: vec![sql.into()],
            label: label.into(),
            think: SimDuration::ZERO,
        }
    }

    pub fn script(stmts: Vec<String>, label: impl Into<String>) -> Op {
        assert!(!stmts.is_empty());
        Op {
            stmts,
            label: label.into(),
            think: SimDuration::ZERO,
        }
    }

    pub fn with_think(mut self, d: SimDuration) -> Op {
        self.think = d;
        self
    }
}

/// A per-client operation source. Returning `None` retires the client.
pub trait OpSource {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op>;
    /// Observe the result of the op just completed.
    fn on_result(&mut self, _label: &str, _failed: bool) {}
}

impl<F> OpSource for F
where
    F: FnMut(&mut SimRng) -> Option<Op>,
{
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        self(rng)
    }
}

/// Aggregated driver statistics.
#[derive(Default)]
pub struct DriverStats {
    /// Latencies per op label.
    pub latency: HashMap<String, mr_sim::LatencyRecorder>,
    /// Errors per op label (retries exhausted, unique violations, ...).
    pub errors: HashMap<String, u64>,
    pub completed: u64,
    pub failed: u64,
    /// Simulated time consumed by the run.
    pub elapsed: SimDuration,
}

impl DriverStats {
    pub fn recorder(&mut self, label: &str) -> &mut mr_sim::LatencyRecorder {
        self.latency.entry(label.to_string()).or_default()
    }

    /// Merge all labels matching `pred` into one recorder.
    pub fn merged(&self, pred: impl Fn(&str) -> bool) -> mr_sim::LatencyRecorder {
        let mut out = mr_sim::LatencyRecorder::new();
        for (label, rec) in &self.latency {
            if pred(label) {
                out.merge(rec);
            }
        }
        out
    }

    /// Committed operations per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.nanos() == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e9 / self.elapsed.nanos() as f64
    }

    /// Committed ops matching `pred` per simulated minute.
    pub fn per_minute(&self, pred: impl Fn(&str) -> bool) -> f64 {
        if self.elapsed.nanos() == 0 {
            return 0.0;
        }
        let n: usize = self
            .latency
            .iter()
            .filter(|(l, _)| pred(l))
            .map(|(_, r)| r.len())
            .sum();
        n as f64 * 60e9 / self.elapsed.nanos() as f64
    }
}

struct ClientState {
    sess: Session,
    source: Box<dyn OpSource>,
    rng: SimRng,
    retired: bool,
    /// Remaining statements of the current script.
    script: VecDeque<String>,
    script_label: String,
    script_start: SimTime,
    /// Op stashed while its think delay elapses.
    pending_after_think: Option<Op>,
}

#[allow(clippy::enum_variant_names)]
enum Signal {
    StmtDone { client: usize, failed: bool },
    ThinkDone { client: usize },
    RollbackDone { client: usize },
}

/// The closed-loop driver.
pub struct ClosedLoop {
    clients: Vec<ClientState>,
    signals: Rc<RefCell<Vec<Signal>>>,
    pub stats: DriverStats,
    in_flight: usize,
}

impl ClosedLoop {
    pub fn new() -> ClosedLoop {
        ClosedLoop {
            clients: Vec::new(),
            signals: Rc::new(RefCell::new(Vec::new())),
            stats: DriverStats::default(),
            in_flight: 0,
        }
    }

    /// Register a client with its own session, RNG stream, and op source.
    pub fn add_client(&mut self, sess: Session, rng: SimRng, source: Box<dyn OpSource>) {
        self.clients.push(ClientState {
            sess,
            source,
            rng,
            retired: false,
            script: VecDeque::new(),
            script_label: String::new(),
            script_start: SimTime::ZERO,
            pending_after_think: None,
        });
    }

    /// Pull the next op from the client's source and start it.
    fn next_op(&mut self, db: &mut SqlDb, client: usize) {
        let c = &mut self.clients[client];
        if c.retired {
            return;
        }
        let Some(op) = c.source.next_op(&mut c.rng) else {
            c.retired = true;
            return;
        };
        if op.think == SimDuration::ZERO {
            self.begin_op(db, client, op);
        } else {
            self.in_flight += 1;
            let signals = Rc::clone(&self.signals);
            db.cluster.schedule(
                op.think,
                Box::new(move |_c| {
                    signals.borrow_mut().push(Signal::ThinkDone { client });
                }),
            );
            self.clients[client].pending_after_think = Some(Op {
                think: SimDuration::ZERO,
                ..op
            });
        }
    }

    fn begin_op(&mut self, db: &mut SqlDb, client: usize, op: Op) {
        let c = &mut self.clients[client];
        c.script = op.stmts.into();
        c.script_label = op.label;
        c.script_start = db.cluster.now();
        self.advance_script(db, client);
    }

    /// Issue the next statement of the current script.
    fn advance_script(&mut self, db: &mut SqlDb, client: usize) {
        let c = &mut self.clients[client];
        let Some(sql) = c.script.pop_front() else {
            return;
        };
        let sess = c.sess.clone();
        let signals = Rc::clone(&self.signals);
        self.in_flight += 1;
        db.exec(
            &sess,
            &sql,
            Box::new(move |_cl, res| {
                signals.borrow_mut().push(Signal::StmtDone {
                    client,
                    failed: res.is_err(),
                });
            }),
        );
    }

    fn finish_op(&mut self, db: &mut SqlDb, client: usize, failed: bool, deadline: SimTime) {
        let label = std::mem::take(&mut self.clients[client].script_label);
        let latency = db.cluster.now() - self.clients[client].script_start;
        if failed {
            self.stats.failed += 1;
            *self.stats.errors.entry(label.clone()).or_default() += 1;
        } else {
            self.stats.completed += 1;
            self.stats.recorder(&label).record(latency);
        }
        self.clients[client].source.on_result(&label, failed);
        self.clients[client].script.clear();
        if db.cluster.now() < deadline {
            self.next_op(db, client);
        }
    }

    /// Run until `deadline` or until every client retires.
    pub fn run(&mut self, db: &mut SqlDb, deadline: SimTime) {
        let started = db.cluster.now();
        for i in 0..self.clients.len() {
            self.next_op(db, i);
        }
        loop {
            let batch: Vec<Signal> = self.signals.borrow_mut().drain(..).collect();
            for sig in batch {
                match sig {
                    Signal::ThinkDone { client } => {
                        self.in_flight -= 1;
                        if let Some(op) = self.clients[client].pending_after_think.take() {
                            if db.cluster.now() < deadline {
                                self.begin_op(db, client, op);
                            }
                        }
                    }
                    Signal::StmtDone { client, failed } => {
                        self.in_flight -= 1;
                        if failed {
                            // Abort the rest of the script; roll back any
                            // open transaction before recording the failure.
                            if self.clients[client].sess.in_txn() {
                                let sess = self.clients[client].sess.clone();
                                let signals = Rc::clone(&self.signals);
                                self.in_flight += 1;
                                db.exec(
                                    &sess,
                                    "ROLLBACK",
                                    Box::new(move |_c, _res| {
                                        signals.borrow_mut().push(Signal::RollbackDone { client });
                                    }),
                                );
                            } else {
                                self.finish_op(db, client, true, deadline);
                            }
                        } else if self.clients[client].script.is_empty() {
                            self.finish_op(db, client, false, deadline);
                        } else {
                            self.advance_script(db, client);
                        }
                    }
                    Signal::RollbackDone { client } => {
                        self.in_flight -= 1;
                        self.finish_op(db, client, true, deadline);
                    }
                }
            }
            if db.cluster.now() >= deadline || self.in_flight == 0 {
                break;
            }
            if !db.cluster.step() {
                break;
            }
        }
        self.stats.elapsed = db.cluster.now() - started;
    }
}

impl Default for ClosedLoop {
    fn default() -> Self {
        ClosedLoop::new()
    }
}
