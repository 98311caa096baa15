//! Raft machinery probe: group-commit batch occupancy under concurrent
//! multi-range writers, and the quiescence heartbeat A/B over a cluster of
//! cold ranges. Writes `BENCH_raft.json`.
//!
//! The batched phase opens a short flush window so concurrent proposals to
//! the same range coalesce into multi-command Raft entries; the unbatched
//! baseline keeps the window at zero, where only same-instant arrivals
//! share an entry. Twelve clients commit 20 transactions each (seed 1). The
//! quiescence phase measures leader heartbeats per simulated second over an
//! idle cluster of 100 untouched ranges, with quiescence off and on. Exits
//! non-zero when a gate of `raft_probe_verdicts` fails.
use mr_bench::verdict::conclude;
use mr_bench::{raft_probe, raft_probe_json, raft_probe_verdicts};

fn main() {
    let r = raft_probe(1, 20, 100);
    conclude("raft", &raft_probe_json(&r), &raft_probe_verdicts(&r));
}
