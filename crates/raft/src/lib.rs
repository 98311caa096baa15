//! Raft consensus for Range replication.
//!
//! Each Range in the KV layer is replicated by an independent Raft group
//! (§3.1). This crate implements Raft as a pure, deterministic state
//! machine, generic over the command payload: callers feed it messages and
//! clock ticks, and it returns outbound messages and newly committed
//! entries. The simulator owns delivery, delay, and loss.
//!
//! Faithful parts: terms, leader election with the log-up-to-date check,
//! log replication with consistency checks and backtracking, the
//! current-term quorum commit rule, leadership transfer (`TimeoutNow`), and
//! **learners** — CockroachDB's non-voting replicas (§5.2) — which receive
//! the log (and thus closed timestamps) but never vote or count toward
//! quorum.
//!
//! Copy discipline: a payload is materialised once, at the proposal, and
//! every log and apply shares it (see [`Entry`]). An `AppendEntries`
//! carries a [`Window`], a view of positions of the sender's log, so
//! re-covering a follower's unacked window costs a reference count; the
//! follower clones only the entries it appends. A truncation of a log that
//! a window in flight still shares copies the kept prefix first.
//!
//! Simplifications (fine at simulation scale, documented in DESIGN.md):
//! no snapshots or log truncation, no joint-consensus membership changes
//! (the allocator fixes membership at range creation or swaps it wholesale
//! while quiesced), and election timeouts are deterministically staggered
//! per replica instead of randomized.

pub mod state;

pub use state::{Entry, Peer, RaftConfig, RaftMsg, RaftNode, Role, Window};
