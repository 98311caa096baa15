//! Commit-latency probe: client-observed transaction latency (begin →
//! commit ack) under legacy synchronous commits and under write pipelining
//! with parallel commits, from every gateway region, 10 transactions per
//! cell at seed 1. Writes `BENCH_commit.json`.
//!
//! The headline scenario is `multi`: writes to two ZONE-survivable ranges
//! homed in us-east1. From a remote gateway the legacy path costs two WAN
//! round trips (flush the intents, then write the commit record) while
//! parallel commits overlap them into one — the paper's §5.1 claim.
//! `single` is a parity guard (the legacy 1PC fast path is already one
//! round trip), and `cross` adds a REGION-survivable write whose WAN quorum
//! dominates but still hides the commit-record round trip. Exits non-zero
//! when a gate of `commit_probe_verdicts` fails.
use mr_bench::verdict::conclude;
use mr_bench::{commit_probe, commit_probe_json, commit_probe_verdicts};

fn main() {
    let rows = commit_probe(1, 10);
    conclude(
        "commit",
        &commit_probe_json(&rows),
        &commit_probe_verdicts(&rows),
    );
}
