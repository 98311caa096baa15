//! The append-only operation history.
//!
//! Every client operation is recorded Jepsen-style as an *invoke* event
//! followed by at most one completion event: *ok* (it definitely happened),
//! *fail* (it definitely did not happen), or *info* (outcome unknown — e.g.
//! a commit RPC that timed out may or may not have applied). Events carry
//! the client id, the key, the value written or observed, HLC timestamps
//! (commit timestamps for writes and fresh reads, the requested timestamp
//! for stale reads), and the simulation time of the event.
//!
//! The JSON export is deterministic: for a fixed seed the whole run —
//! network jitter, fault timing, client interleaving — replays identically,
//! so two runs of the same seed produce byte-identical exports. The offline
//! checker consumes assembled [`OpRecord`]s rather than raw events.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use mr_clock::Timestamp;
use mr_sim::SimTime;

/// Identifier of one client operation (1-based, unique per history).
pub type OpId = u64;

/// What kind of operation a history entry describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A single-key write (its value is the writing op's id).
    Write,
    /// A linearizable read (implicit read-only transaction).
    FreshRead,
    /// An exact-staleness read at a recorded timestamp.
    StaleRead,
    /// A bounded-staleness read (timestamp negotiated server-side).
    BoundedRead,
}

impl OpKind {
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::FreshRead => "read",
            OpKind::StaleRead => "stale-read",
            OpKind::BoundedRead => "bounded-read",
        }
    }

    pub fn is_read(&self) -> bool {
        !matches!(self, OpKind::Write)
    }
}

/// Event phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Invoke,
    Ok,
    Fail,
    /// Outcome unknown (ambiguous commit, or still in flight at run end).
    Info,
}

impl Phase {
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Invoke => "invoke",
            Phase::Ok => "ok",
            Phase::Fail => "fail",
            Phase::Info => "info",
        }
    }
}

/// One history event.
#[derive(Clone, Debug)]
pub struct HistoryEvent {
    /// Global append order (1-based).
    pub seq: u64,
    pub op: OpId,
    pub client: u32,
    pub phase: Phase,
    pub kind: OpKind,
    pub key: String,
    /// Write: the value written (== op id). Read ok: the value observed
    /// (`None` = key absent).
    pub value: Option<u64>,
    /// Write/fresh-read ok: the commit timestamp. Stale-read invoke: the
    /// requested read timestamp.
    pub ts: Option<Timestamp>,
    pub at: SimTime,
    /// Fail/info: the error.
    pub error: Option<String>,
}

/// One operation assembled from its invoke + completion events.
#[derive(Clone, Debug)]
pub struct OpRecord {
    pub id: OpId,
    pub client: u32,
    pub kind: OpKind,
    pub key: String,
    pub invoke_at: SimTime,
    /// Stale reads: the requested read timestamp.
    pub read_ts: Option<Timestamp>,
    pub complete_at: Option<SimTime>,
    /// `Phase::Ok`, `Phase::Fail`, or `Phase::Info`; `Phase::Invoke` means
    /// the op never completed (counted as info by the checker).
    pub outcome: Phase,
    /// Ok writes: the value written. Ok reads: the value observed.
    pub value: Option<u64>,
    /// Ok writes and fresh reads: the commit timestamp.
    pub ts: Option<Timestamp>,
    pub error: Option<String>,
}

impl OpRecord {
    pub fn ok(&self) -> bool {
        self.outcome == Phase::Ok
    }

    /// The op's latency, when it completed.
    pub fn latency(&self) -> Option<mr_sim::SimDuration> {
        self.complete_at.map(|c| c - self.invoke_at)
    }
}

impl fmt::Display for OpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {} (client {}, {} {}",
            self.id,
            self.client,
            self.kind.label(),
            self.key
        )?;
        if let Some(v) = self.value {
            write!(f, " = {v}")?;
        }
        if let Some(ts) = self.ts {
            write!(f, " @ {ts}")?;
        }
        write!(f, ", {})", self.outcome.label())
    }
}

struct Inner {
    events: Vec<HistoryEvent>,
    /// Per op, in id order (ids are dense and 1-based): where its invoke
    /// sits in `events`, and whether a completion followed it.
    ops: Vec<(usize, bool)>,
}

/// The shared append-only history. Cloning shares the underlying store, so
/// the driver's continuations and the harness hold the same log.
#[derive(Clone)]
pub struct History {
    inner: Rc<RefCell<Inner>>,
}

impl Default for History {
    fn default() -> Self {
        Self::new()
    }
}

impl History {
    pub fn new() -> History {
        History {
            inner: Rc::new(RefCell::new(Inner {
                events: Vec::new(),
                ops: Vec::new(),
            })),
        }
    }

    /// Record a write invocation. The value written IS the new op id (the
    /// register workload's unique-value convention), so it is filled in
    /// here rather than passed by the caller.
    pub fn invoke_write(&self, at: SimTime, client: u32, key: &str) -> OpId {
        let next = self.inner.borrow().ops.len() as OpId + 1;
        self.invoke(at, client, OpKind::Write, key, Some(next), None)
    }

    /// Record an invocation; returns the new op id.
    pub fn invoke(
        &self,
        at: SimTime,
        client: u32,
        kind: OpKind,
        key: &str,
        value: Option<u64>,
        ts: Option<Timestamp>,
    ) -> OpId {
        let mut h = self.inner.borrow_mut();
        let (op, at_event) = (h.ops.len() as OpId + 1, h.events.len());
        h.ops.push((at_event, false));
        let seq = at_event as u64 + 1;
        h.events.push(HistoryEvent {
            seq,
            op,
            client,
            phase: Phase::Invoke,
            kind,
            key: key.to_string(),
            value,
            ts,
            at,
            error: None,
        });
        op
    }

    fn complete(
        &self,
        at: SimTime,
        op: OpId,
        phase: Phase,
        value: Option<u64>,
        ts: Option<Timestamp>,
        error: Option<String>,
    ) {
        let Inner { events, ops } = &mut *self.inner.borrow_mut();
        let (invoke, completed) = op
            .checked_sub(1)
            .and_then(|i| ops.get_mut(i as usize))
            .unwrap_or_else(|| panic!("completion for unknown op {op}"));
        debug_assert!(!*completed, "op {op} completed twice");
        *completed = true;
        let inv = &events[*invoke];
        let (client, kind, key) = (inv.client, inv.kind, inv.key.clone());
        let seq = events.len() as u64 + 1;
        events.push(HistoryEvent {
            seq,
            op,
            client,
            phase,
            kind,
            key,
            value,
            ts,
            at,
            error,
        });
    }

    /// The op definitely happened.
    pub fn ok(&self, at: SimTime, op: OpId, value: Option<u64>, ts: Option<Timestamp>) {
        self.complete(at, op, Phase::Ok, value, ts, None);
    }

    /// The op definitely did not happen.
    pub fn fail(&self, at: SimTime, op: OpId, error: &str) {
        self.complete(at, op, Phase::Fail, None, None, Some(error.to_string()));
    }

    /// The op's outcome is unknown (it may have happened).
    pub fn info(&self, at: SimTime, op: OpId, error: &str) {
        self.complete(at, op, Phase::Info, None, None, Some(error.to_string()));
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the raw events in append order.
    pub fn events(&self) -> Vec<HistoryEvent> {
        self.inner.borrow().events.clone()
    }

    /// Assemble per-op records (ordered by op id). Ops with no completion
    /// event get `outcome: Phase::Invoke` (treated as info by the checker).
    pub fn ops(&self) -> Vec<OpRecord> {
        let h = self.inner.borrow();
        let mut ops: Vec<OpRecord> = Vec::new();
        for e in &h.events {
            match e.phase {
                Phase::Invoke => {
                    debug_assert_eq!(ops.len() as u64 + 1, e.op, "invokes arrive in op order");
                    ops.push(OpRecord {
                        id: e.op,
                        client: e.client,
                        kind: e.kind,
                        key: e.key.clone(),
                        invoke_at: e.at,
                        read_ts: if e.kind == OpKind::StaleRead {
                            e.ts
                        } else {
                            None
                        },
                        complete_at: None,
                        outcome: Phase::Invoke,
                        value: if e.kind == OpKind::Write {
                            e.value
                        } else {
                            None
                        },
                        ts: None,
                        error: None,
                    });
                }
                _ => {
                    let rec = &mut ops[e.op as usize - 1];
                    rec.complete_at = Some(e.at);
                    rec.outcome = e.phase;
                    rec.error = e.error.clone();
                    if e.phase == Phase::Ok {
                        rec.ts = e.ts;
                        if e.kind == OpKind::Write {
                            debug_assert_eq!(rec.value, e.value);
                        } else {
                            rec.value = e.value;
                        }
                    }
                }
            }
        }
        ops
    }

    /// Deterministic JSON export: one object per event, append order. For a
    /// fixed seed two runs produce byte-identical output.
    pub fn export_json(&self) -> String {
        let h = self.inner.borrow();
        let mut w = mr_obs::export::JsonWriter::default();
        w.arr();
        for e in &h.events {
            w.obj_inline().field("seq", e.seq).field("op", e.op);
            w.field("client", e.client).field("phase", e.phase.label());
            w.field("kind", e.kind.label()).field("key", &e.key);
            w.field("value", e.value);
            w.field("ts_wall", e.ts.map(|t| t.wall));
            w.field("ts_logical", e.ts.map(|t| t.logical));
            w.field("at_ns", e.at.0).field("error", &e.error).end();
        }
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_complete_assembles_records() {
        let h = History::new();
        let w = h.invoke(SimTime(10), 0, OpKind::Write, "rs/k1", Some(1), None);
        let r = h.invoke(SimTime(15), 1, OpKind::FreshRead, "rs/k1", None, None);
        h.ok(SimTime(40), w, Some(1), Some(Timestamp::new(30, 0)));
        h.ok(SimTime(60), r, Some(1), Some(Timestamp::new(50, 0)));
        let lost = h.invoke(SimTime(70), 0, OpKind::Write, "rs/k2", Some(3), None);
        let ops = h.ops();
        assert_eq!(ops.len(), 3);
        assert!(ops[0].ok());
        assert_eq!(ops[0].ts, Some(Timestamp::new(30, 0)));
        assert_eq!(ops[1].value, Some(1));
        assert_eq!(ops[lost as usize - 1].outcome, Phase::Invoke);
        assert_eq!(ops[0].latency(), Some(mr_sim::SimDuration(30)));
    }

    #[test]
    #[should_panic(expected = "completion for unknown op 2")]
    fn completing_an_unknown_op_panics() {
        let h = History::new();
        h.invoke(SimTime(1), 0, OpKind::FreshRead, "k", None, None);
        h.ok(SimTime(2), 2, None, None);
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let h = History::new();
            let w = h.invoke(SimTime(1), 0, OpKind::Write, "k", Some(1), None);
            h.fail(SimTime(2), w, "boom \"quoted\"");
            let s = h.invoke(
                SimTime(3),
                1,
                OpKind::StaleRead,
                "k",
                None,
                Some(Timestamp::new(9, 2)),
            );
            h.ok(SimTime(4), s, None, None);
            h.export_json()
        };
        let a = mk();
        assert_eq!(a, mk());
        assert!(a.contains("\"phase\": \"fail\""));
        assert!(a.contains("\"ts_wall\": 9"));
        // Valid JSON-ish shape: balanced brackets, one line per event.
        assert_eq!(a.matches("\"op\":").count(), 4);
    }
}
