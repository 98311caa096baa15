//! The closed-loop client driver.
//!
//! Mirrors the paper's methodology (§7.1.1): each client is pinned to a
//! gateway in its region and sends operations in a closed loop — one
//! operation in flight, the next issued when the previous completes
//! (optionally after a think delay, used by TPC-C terminals).
//!
//! An operation is one SQL statement or a *script* (a `BEGIN ... COMMIT`
//! transaction executed statement by statement). A failed statement rolls
//! back the transaction it left open. Like a CockroachDB client, the driver
//! re-runs an op whose statement failed with a retryable error
//! ([`SqlError::is_retryable`]) — the same statements, so a New-Order keeps
//! its order id — up to `MAX_ATTEMPTS` (10) times; the recorded latency spans
//! every attempt. Latencies are recorded per operation label so harnesses
//! can split local/remote and read/write distributions exactly like the
//! paper's figures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use mr_proto::KvError;
use mr_sim::{LatencyRecorder, SimDuration, SimRng, SimTime};
use mr_sql::exec::{Session, SqlDb, SqlError};

/// Attempts per op before it counts as failed.
const MAX_ATTEMPTS: u32 = 10;

/// Simulated time with statements in flight and no attempt ending that
/// counts as a hang.
const STALL: SimDuration = SimDuration::from_secs(120);

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
    /// Latencies of committed ops, per op label.
    pub latency: BTreeMap<String, LatencyRecorder>,
    /// Failed ops by the kind of their last attempt's error: the
    /// `SqlError` variant, or the `KvError` variant inside `SqlError::Kv`
    /// (`"RefreshFailed"`, `"UniqueViolation"`, ...).
    pub errors: BTreeMap<&'static str, u64>,
    /// Re-runs by attempt number: `retries[&2]` ops made a second attempt.
    pub retries: BTreeMap<u32, u64>,
    pub completed: u64,
    pub failed: u64,
    /// Simulated time consumed by the run.
    pub elapsed: SimDuration,
}

impl DriverStats {
    /// Merge all labels matching `pred` into one recorder.
    pub fn merged(&self, pred: impl Fn(&str) -> bool) -> LatencyRecorder {
        let mut out = LatencyRecorder::new();
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

/// The variant name of `e`, or of the `KvError` inside `SqlError::Kv`.
fn error_kind(e: &SqlError) -> &'static str {
    match e {
        SqlError::Parse(_) => "Parse",
        SqlError::Catalog(_) => "Catalog",
        SqlError::Plan(_) => "Plan",
        SqlError::Eval(_) => "Eval",
        SqlError::UniqueViolation { .. } => "UniqueViolation",
        SqlError::NotNullViolation { .. } => "NotNullViolation",
        SqlError::FkViolation { .. } => "FkViolation",
        SqlError::ReadOnlyRegion(_) => "ReadOnlyRegion",
        SqlError::TxnState(_) => "TxnState",
        SqlError::Kv(k) => match k {
            KvError::NotLeaseholder { .. } => "NotLeaseholder",
            KvError::FollowerReadUnavailable { .. } => "FollowerReadUnavailable",
            KvError::WriteIntent { .. } => "WriteIntent",
            KvError::Uncertainty { .. } => "Uncertainty",
            KvError::WriteTooOld { .. } => "WriteTooOld",
            KvError::RefreshFailed { .. } => "RefreshFailed",
            KvError::TxnAborted { .. } => "TxnAborted",
            KvError::TxnNotFound { .. } => "TxnNotFound",
            KvError::RangeUnavailable { .. } => "RangeUnavailable",
            KvError::NoSuchRange { .. } => "NoSuchRange",
            KvError::StalenessBoundExceeded { .. } => "StalenessBoundExceeded",
            KvError::WriteInFlight { .. } => "WriteInFlight",
            KvError::BatchTimestampBeforeGC { .. } => "BatchTimestampBeforeGC",
        },
    }
}

/// A call the driver makes into another layer, as a [`Hook`] sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `OpSource::next_op`, drawing the op that gets this id.
    Gen(u64),
    /// `SqlDb::exec` of one statement of this op.
    Exec(u64),
    /// One `Cluster::step`.
    Step,
}

/// Watches a run from inside the loop. Every call the driver makes into a
/// generator, the SQL layer or the cluster falls between an
/// [`enter`](Hook::enter) and a [`leave`](Hook::leave), so a host-time
/// recorder can tile the run; every op is seen when its first statement
/// goes out and when it ends. `()` watches nothing.
pub trait Hook {
    /// The driver is about to make a call.
    fn enter(&mut self) {}
    /// The call just returned.
    fn leave(&mut self, _call: Call) {}
    /// Op `id` starts (its think delay, if any, is over).
    fn start(&mut self, _id: u64, _op: &Op) {}
    /// Op `id` ended after every attempt it made: committed when `err` is
    /// `None`, else failed with its last attempt's error.
    fn finish(&mut self, _id: u64, _latency: SimDuration, _err: Option<&SqlError>) {}
}

impl Hook for () {}

struct Client {
    sess: Session,
    source: Box<dyn OpSource>,
    rng: SimRng,
    /// The current op and the next of its statements to issue.
    op: Op,
    op_id: u64,
    cursor: usize,
    attempts: u32,
    start: SimTime,
}

/// Completions the cluster's continuations hand back to the loop.
enum Signal {
    Stmt {
        client: usize,
        err: Option<SqlError>,
    },
    Think {
        client: usize,
    },
    /// The `ROLLBACK` after a statement failed with `err` is done.
    Rollback {
        client: usize,
        err: SqlError,
    },
}

/// The closed-loop driver.
pub struct ClosedLoop {
    clients: Vec<Client>,
    signals: Rc<RefCell<Vec<Signal>>>,
    pub stats: DriverStats,
    /// Statements and think delays in flight.
    in_flight: usize,
    thinking: usize,
    next_op_id: u64,
    /// Clients ask for no op at or past this simulated time.
    deadline: SimTime,
    /// When an attempt last ended, or statements were last all done.
    last_end: SimTime,
}

impl ClosedLoop {
    pub fn new() -> ClosedLoop {
        ClosedLoop {
            clients: Vec::new(),
            signals: Rc::new(RefCell::new(Vec::new())),
            stats: DriverStats::default(),
            in_flight: 0,
            thinking: 0,
            next_op_id: 0,
            deadline: SimTime::ZERO,
            last_end: SimTime::ZERO,
        }
    }

    /// Register a client with its own session, RNG stream, and op source.
    pub fn add_client(&mut self, sess: Session, rng: SimRng, source: Box<dyn OpSource>) {
        self.clients.push(Client {
            sess,
            source,
            rng,
            op: Op::new(String::new(), String::new()),
            op_id: 0,
            cursor: 0,
            attempts: 0,
            start: SimTime::ZERO,
        });
    }

    /// Pull the client's next op from its source and start it, or its
    /// think delay.
    fn next_op(&mut self, db: &mut SqlDb, hook: &mut impl Hook, client: usize) {
        if db.cluster.now() >= self.deadline {
            return;
        }
        let c = &mut self.clients[client];
        hook.enter();
        let op = c.source.next_op(&mut c.rng);
        hook.leave(Call::Gen(self.next_op_id));
        let Some(op) = op else {
            return;
        };
        c.op = op;
        c.op_id = self.next_op_id;
        self.next_op_id += 1;
        if c.op.think == SimDuration::ZERO {
            self.begin_op(db, hook, client);
        } else {
            self.in_flight += 1;
            self.thinking += 1;
            let signals = Rc::clone(&self.signals);
            db.cluster.schedule(
                c.op.think,
                Box::new(move |_c| signals.borrow_mut().push(Signal::Think { client })),
            );
        }
    }

    fn begin_op(&mut self, db: &mut SqlDb, hook: &mut impl Hook, client: usize) {
        let c = &mut self.clients[client];
        c.cursor = 0;
        c.attempts = 1;
        c.start = db.cluster.now();
        hook.start(c.op_id, &c.op);
        self.issue(db, hook, client, None);
    }

    /// Issue one statement for `client`: the next of its script, or a
    /// `ROLLBACK` of the transaction a statement failing with `rollback`
    /// left open.
    fn issue(
        &mut self,
        db: &mut SqlDb,
        hook: &mut impl Hook,
        client: usize,
        rollback: Option<SqlError>,
    ) {
        self.in_flight += 1;
        let c = &mut self.clients[client];
        let sql = if rollback.is_some() {
            "ROLLBACK"
        } else {
            c.cursor += 1;
            &c.op.stmts[c.cursor - 1]
        };
        let signals = Rc::clone(&self.signals);
        hook.enter();
        db.exec(
            &c.sess,
            sql,
            Box::new(move |_cl, res| {
                signals.borrow_mut().push(match rollback {
                    Some(err) => Signal::Rollback { client, err },
                    None => Signal::Stmt {
                        client,
                        err: res.err(),
                    },
                });
            }),
        );
        hook.leave(Call::Exec(c.op_id));
    }

    /// The client's attempt ended: committed, or failed with `err`. A
    /// retryable failure re-runs the op; anything else ends it and the
    /// client asks for its next one.
    fn end_attempt(
        &mut self,
        db: &mut SqlDb,
        hook: &mut impl Hook,
        client: usize,
        err: Option<SqlError>,
    ) {
        self.last_end = db.cluster.now();
        let c = &mut self.clients[client];
        if err.as_ref().is_some_and(SqlError::is_retryable) && c.attempts < MAX_ATTEMPTS {
            c.attempts += 1;
            c.cursor = 0;
            *self.stats.retries.entry(c.attempts).or_default() += 1;
            self.issue(db, hook, client, None);
            return;
        }
        let latency = db.cluster.now() - c.start;
        match &err {
            None => {
                self.stats.completed += 1;
                let label = c.op.label.clone();
                self.stats.latency.entry(label).or_default().record(latency);
            }
            Some(e) => {
                self.stats.failed += 1;
                *self.stats.errors.entry(error_kind(e)).or_default() += 1;
            }
        }
        hook.finish(c.op_id, latency, err.as_ref());
        self.next_op(db, hook, client);
    }

    /// Run until every client retires, or until `deadline` and then until
    /// the ops in flight have ended.
    pub fn run(&mut self, db: &mut SqlDb, deadline: SimTime) -> Result<(), Stall> {
        self.run_with(db, deadline, &mut ())
    }

    /// [`run`](ClosedLoop::run), with `hook` watching. Stops with a
    /// [`Stall`] when statements are in flight and no attempt has ended for
    /// two simulated minutes: periodic ticks keep the calendar busy forever,
    /// so a lost wake-up or a lock cycle would otherwise spin here.
    pub fn run_with(
        &mut self,
        db: &mut SqlDb,
        deadline: SimTime,
        hook: &mut impl Hook,
    ) -> Result<(), Stall> {
        let started = db.cluster.now();
        self.deadline = deadline;
        self.last_end = started;
        for client in 0..self.clients.len() {
            self.next_op(db, hook, client);
        }
        let outcome = loop {
            let batch: Vec<Signal> = self.signals.borrow_mut().drain(..).collect();
            for sig in batch {
                self.in_flight -= 1;
                match sig {
                    Signal::Think { client } => {
                        self.thinking -= 1;
                        self.begin_op(db, hook, client);
                    }
                    Signal::Stmt { client, err: None } => {
                        let c = &self.clients[client];
                        if c.cursor == c.op.stmts.len() {
                            self.end_attempt(db, hook, client, None);
                        } else {
                            self.issue(db, hook, client, None);
                        }
                    }
                    Signal::Stmt {
                        client,
                        err: Some(e),
                    } => {
                        if self.clients[client].sess.in_txn() {
                            self.issue(db, hook, client, Some(e));
                        } else {
                            self.end_attempt(db, hook, client, Some(e));
                        }
                    }
                    Signal::Rollback { client, err } => {
                        self.end_attempt(db, hook, client, Some(err));
                    }
                }
            }
            // Handling a signal can raise another — a `BEGIN` completes
            // synchronously — and what it unblocks goes out now, not after
            // whichever event the calendar holds next.
            if !self.signals.borrow().is_empty() {
                continue;
            }
            if self.in_flight == 0 {
                break Ok(());
            }
            hook.enter();
            let more = db.cluster.step();
            hook.leave(Call::Step);
            assert!(more, "event calendar drained with ops in flight");
            if let Some(stall) = self.check_progress(db) {
                break Err(stall);
            }
        };
        self.stats.elapsed = db.cluster.now() - started;
        outcome
    }

    fn check_progress(&mut self, db: &SqlDb) -> Option<Stall> {
        let now = db.cluster.now();
        if self.in_flight == self.thinking {
            self.last_end = now;
        } else if now - self.last_end > STALL {
            let open_txns = db
                .cluster
                .active_txns()
                .iter()
                .map(|t| format!("txn{} since {} on ranges {:?}", t.id, t.start, t.ranges))
                .collect();
            return Some(Stall {
                in_flight: self.in_flight - self.thinking,
                ops_done: self.stats.completed + self.stats.failed,
                open_txns,
            });
        }
        None
    }
}

/// A run the no-progress guard stopped: statements were in flight and no
/// attempt ended for two simulated minutes. The driver's stats hold the ops
/// that ended before it.
#[must_use]
#[derive(Debug)]
pub struct Stall {
    /// Statements in flight when the guard fired.
    pub in_flight: usize,
    /// Ops that had ended, committed or failed.
    pub ops_done: u64,
    /// The cluster's open transactions, one `txn<id> since <t> on ranges
    /// [..]` each.
    pub open_txns: Vec<String>,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no op finished for {STALL} of simulated time ({} statements in flight, \
             {} ops done); open transactions: {:?}",
            self.in_flight, self.ops_done, self.open_txns
        )
    }
}

impl Default for ClosedLoop {
    fn default() -> Self {
        ClosedLoop::new()
    }
}
