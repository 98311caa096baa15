//! Commit-latency probe: measures client-observed transaction latency
//! (begin → commit ack) under legacy synchronous commits vs write
//! pipelining + parallel commits, from every gateway region, and writes
//! `BENCH_commit.json`.
//!
//! The headline scenario is `multi`: writes to two ZONE-survivable ranges
//! homed in us-east1. From a remote gateway the legacy path costs two WAN
//! round trips (flush the intents, then write the commit record) while
//! parallel commits overlap them into one — the paper's §5.1 claim.
//! `single` is a parity guard (the legacy 1PC fast path is already one
//! round trip; pipelining must not regress it), and `cross` adds a
//! REGION-survivable write whose WAN quorum dominates but still hides the
//! commit-record round trip.
//!
//! Exits non-zero if the measured medians violate the expected round-trip
//! structure, so CI can use this binary as a bench-regression guard.

use mr_bench::{
    commit_probe, commit_probe_json, exit_on_regressions, probe_param, write_bench, CommitRow,
};

fn main() {
    let seed: u64 = probe_param("seed", 1);
    let txns: usize = probe_param("MR_COMMIT_TXNS", 30);

    eprintln!("commit_probe: seed {seed}, {txns} txns per cell");
    let rows = commit_probe(seed, txns);
    write_bench("commit", &commit_probe_json(&rows));

    let mut failures = Vec::new();
    for r in &rows {
        eprintln!(
            "  {:>16} {:>6}  rtt {:>5.1}ms  legacy p50 {:>7.1}ms  pipelined p50 {:>7.1}ms",
            r.gateway_region, r.scenario, r.rtt_ms, r.legacy.p50_ms, r.pipelined.p50_ms
        );
        check(r, &mut failures);
    }

    exit_on_regressions(&failures);
    eprintln!("commit_probe: all round-trip guards passed");
}

/// Guard the round-trip structure of each row. Thresholds carry generous
/// margins over the deterministic measurements so only a structural
/// regression (an extra WAN round trip reappearing on the commit path)
/// trips them, not jitter-level drift.
fn check(r: &CommitRow, failures: &mut Vec<String>) {
    let who = format!("{}/{}", r.gateway_region, r.scenario);
    // Pipelining must never be slower than the legacy path.
    if r.pipelined.p50_ms > r.legacy.p50_ms * 1.05 {
        failures.push(format!(
            "{who}: pipelined p50 {:.1}ms exceeds legacy p50 {:.1}ms",
            r.pipelined.p50_ms, r.legacy.p50_ms
        ));
    }
    // Remote gateways are where the WAN round trip is saved; the home
    // region's latencies are sub-RTT either way, so no structure to guard.
    if r.rtt_ms < 1.0 {
        return;
    }
    match r.scenario {
        // 1PC keeps single-range commits at one round trip in both modes.
        "single" => {
            if r.pipelined.p50_ms > 1.4 * r.rtt_ms {
                failures.push(format!(
                    "{who}: pipelined p50 {:.1}ms above 1.4×RTT ({:.1}ms) — single-range commit is not one round trip",
                    r.pipelined.p50_ms, r.rtt_ms
                ));
            }
        }
        // The headline: legacy = flush (1 RTT) + record (1 RTT) ≈ 2×RTT;
        // parallel commits overlap them ≈ 1×RTT.
        "multi" => {
            if r.legacy.p50_ms < 1.6 * r.rtt_ms {
                failures.push(format!(
                    "{who}: legacy p50 {:.1}ms below 1.6×RTT ({:.1}ms) — the baseline no longer pays the commit round trip?",
                    r.legacy.p50_ms, r.rtt_ms
                ));
            }
            if r.pipelined.p50_ms > 1.4 * r.rtt_ms {
                failures.push(format!(
                    "{who}: pipelined p50 {:.1}ms above 1.4×RTT ({:.1}ms) — commit is not one round trip",
                    r.pipelined.p50_ms, r.rtt_ms
                ));
            }
            if r.pipelined.p50_ms > 0.65 * r.legacy.p50_ms {
                failures.push(format!(
                    "{who}: pipelined p50 {:.1}ms not well below legacy p50 {:.1}ms",
                    r.pipelined.p50_ms, r.legacy.p50_ms
                ));
            }
        }
        // The REGION-survivable write costs ~2 WAN legs (routing + quorum)
        // in both modes; pipelining still hides the commit-record round
        // trip behind it.
        _ => {
            if r.pipelined.p50_ms > 0.8 * r.legacy.p50_ms {
                failures.push(format!(
                    "{who}: pipelined p50 {:.1}ms did not save a round trip over legacy {:.1}ms",
                    r.pipelined.p50_ms, r.legacy.p50_ms
                ));
            }
        }
    }
}
