//! Deterministic nemesis harness (Jepsen-style, but fully simulated).
//!
//! The pieces, each its own module:
//!
//! * [`schedule`] — seeded [`FaultSchedule`]s: scripted or derived entirely
//!   from a seed, installed as first-class timed events on the simulation
//!   calendar via the `mr-kv` fault-injection API.
//! * [`history`] — the append-only invoke/ok/fail/info operation
//!   [`History`] recorded by the register workload, with a deterministic
//!   JSON export (same seed ⇒ byte-identical bytes).
//! * [`checker`] — the offline checker: serializability with per-key
//!   real-time order (ww/wr/rw/rts cycle detection) plus the paper's
//!   follower-read, bounded-staleness, and survivability invariants. Every
//!   violation names the seed, the active schedule step, and the offending
//!   operations.
//! * [`harness`] — the three-region KV harness the nemesis and the
//!   `mr-bench` KV probes share: [`corner_cluster`] builds the cluster and
//!   its ranges, [`run_txn`] runs one begin → get → put… → commit chain.
//! * [`nemesis`] — [`run_chaos`]: cluster + schedule + closed-loop clients
//!   + drain + check, in one call.
//! * [`bundle`] — [`IncidentBundle`]: when a run fails, the forensics
//!   captured before the cluster is torn down — violations with their
//!   schedule step, the history window, implicated span subtrees, event
//!   log, metrics history, and range placement — as a deterministic
//!   (byte-identical per seed) JSON directory.
//!
//! Because the whole stack is a single-threaded discrete-event simulation
//! seeded from one integer, any violation the checker reports is exactly
//! reproducible: rerun the same seed and the same history falls out.

pub mod bundle;
pub mod checker;
pub mod harness;
pub mod history;
pub mod nemesis;
pub mod schedule;

pub use bundle::IncidentBundle;
pub use checker::{check, AvailabilityExpectation, CheckReport, CheckerConfig, Expect, Violation};
pub use harness::{corner_cluster, prefix_span, run_txn, TxnEnd};
pub use history::{History, HistoryEvent, OpId, OpKind, OpRecord, Phase};
pub use nemesis::{
    build_chaos_cluster, run_chaos, ChaosConfig, ChaosOutcome, REGION_SURVIVABLE_PREFIX,
    ZONE_SURVIVABLE_PREFIX,
};
pub use schedule::{FaultSchedule, FaultStep, ScheduleBounds};
