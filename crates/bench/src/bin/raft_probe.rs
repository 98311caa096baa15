//! Raft machinery probe: group-commit batch occupancy under concurrent
//! multi-range writers, and the quiescence heartbeat A/B over a cluster
//! of cold ranges. Writes `BENCH_raft.json`.
//!
//! The batched phase opens a short flush window so concurrent proposals
//! to the same range coalesce into multi-command Raft entries; the
//! unbatched baseline keeps the window at zero, where only same-instant
//! arrivals share an entry. The quiescence phase measures leader
//! heartbeat messages per simulated second over an idle cluster with
//! `MR_RAFT_COLD_RANGES` untouched ranges, with quiescence off and on.
//!
//! Exits non-zero if group commit stops filling entries (occupancy near
//! 1), if the flush window costs real throughput, or if quiescence stops
//! suppressing idle heartbeats — so CI can use this binary as a
//! bench-regression guard.

use mr_bench::{exit_on_regressions, probe_param, raft_probe, raft_probe_json, write_bench};

fn main() {
    let seed: u64 = probe_param("seed", 1);
    let txns: usize = probe_param("MR_RAFT_TXNS", 40);
    let cold: u32 = probe_param("MR_RAFT_COLD_RANGES", 100);

    eprintln!("raft_probe: seed {seed}, {txns} txns per client, {cold} cold ranges");
    let r = raft_probe(seed, txns, cold);
    write_bench("raft", &raft_probe_json(&r));

    let mut failures = Vec::new();
    // Group commit must actually fill entries: mean occupancy well above
    // one command per entry, and above the zero-window baseline.
    if r.batched.mean_occupancy <= 1.5 {
        failures.push(format!(
            "batched mean occupancy {:.2} <= 1.5 — group commit is not coalescing",
            r.batched.mean_occupancy
        ));
    }
    if r.batched.mean_occupancy <= r.unbatched.mean_occupancy {
        failures.push(format!(
            "batched occupancy {:.2} did not beat the zero-window baseline {:.2}",
            r.batched.mean_occupancy, r.unbatched.mean_occupancy
        ));
    }
    // The flush window trades a bounded latency bump for fewer consensus
    // rounds; it must not cost real throughput.
    if r.batched.proposals_per_sec < 0.5 * r.unbatched.proposals_per_sec {
        failures.push(format!(
            "batched throughput {:.1}/s fell below half the unbatched {:.1}/s",
            r.batched.proposals_per_sec, r.unbatched.proposals_per_sec
        ));
    }
    // Quiescence must collapse the idle heartbeat rate by an order of
    // magnitude (the cold ranges stop heartbeating entirely; the residual
    // rate comes from the settle tail before each leader quiesced).
    if r.heartbeat_suppression < 10.0 {
        failures.push(format!(
            "heartbeat suppression {:.1}x < 10x ({:.1}/s off vs {:.1}/s on)",
            r.heartbeat_suppression, r.hb_per_sec_off, r.hb_per_sec_on
        ));
    }
    // Every transaction's opening read must ride the leaseholder fast
    // path instead of proposing.
    if r.read_fast_path < r.batched.txns + r.unbatched.txns {
        failures.push(format!(
            "read fast path served {} of {} leaseholder reads",
            r.read_fast_path,
            r.batched.txns + r.unbatched.txns
        ));
    }

    exit_on_regressions(&failures);
    eprintln!(
        "raft_probe: occupancy {:.2} (baseline {:.2}), heartbeat suppression {:.1}x — all guards passed",
        r.batched.mean_occupancy, r.unbatched.mean_occupancy, r.heartbeat_suppression
    );
}
