//! Range-lifecycle probe: the same skewed remote workload against a
//! static single range and against the lifecycle controller (size/QPS
//! splits at the load median, cold merges, load-based lease rebalancing).
//! Writes `BENCH_split.json`.
//!
//! Every client lives in regions 1 and 2 while the only range is homed in
//! region 0, so the static baseline pays cross-region RTT on each op
//! forever. With the controller on, the range splits on the region
//! boundary of the sampled load median and each half's lease moves toward
//! its demand — closed-loop throughput must scale past the single-range
//! baseline. After the workload drains, the idle tail must fold the split
//! topology back down via cold-range merges.
//!
//! Exits non-zero if splits stop firing, throughput stops beating the
//! baseline, load stops dispersing across ranges, the rebalancer goes
//! idle, or cold merges stop folding the keyspace — CI uses this binary
//! as the lifecycle regression guard.

use mr_bench::{exit_on_regressions, probe_param, split_probe, split_probe_json, write_bench};

fn main() {
    let seed: u64 = probe_param("seed", 1);
    let txns: usize = probe_param("MR_SPLIT_TXNS", 240);

    eprintln!("split_probe: seed {seed}, {txns} txns per client");
    let r = split_probe(seed, txns);
    write_bench("split", &split_probe_json(&r));

    let mut failures = Vec::new();
    if r.baseline.splits != 0 || r.baseline.ranges != 1 {
        failures.push(format!(
            "static baseline split anyway ({} splits, {} ranges)",
            r.baseline.splits, r.baseline.ranges
        ));
    }
    if r.lifecycle.splits < 1 {
        failures.push("lifecycle run produced no splits under the skewed workload".into());
    }
    if r.lifecycle.lease_rebalances < 1 {
        failures.push("no lease moved toward demand after the splits".into());
    }
    // The acceptance bar: post-split throughput scales past the
    // single-range baseline.
    if r.lifecycle.ops_per_sec <= r.baseline.ops_per_sec {
        failures.push(format!(
            "lifecycle throughput {:.1}/s did not beat the static baseline {:.1}/s",
            r.lifecycle.ops_per_sec, r.baseline.ops_per_sec
        ));
    }
    // Post-split the hottest range must no longer carry all the load.
    if r.lifecycle.hottest_share_milli >= 1000 {
        failures.push(format!(
            "hottest range still carries {}/1000 of the load after splitting",
            r.lifecycle.hottest_share_milli
        ));
    }
    if r.lifecycle.splits >= 1 && r.lifecycle.split_p99_ms <= 0.0 {
        failures.push("splits happened but no surgery latency was recorded".into());
    }
    // Hysteresis must not leave the keyspace shattered once traffic stops.
    if r.lifecycle.ranges_after_idle >= r.lifecycle.ranges && r.lifecycle.ranges > 1 {
        failures.push(format!(
            "idle tail did not merge anything ({} ranges at drain, {} after idle)",
            r.lifecycle.ranges, r.lifecycle.ranges_after_idle
        ));
    }

    exit_on_regressions(&failures);
    eprintln!(
        "split_probe: {:.1}/s -> {:.1}/s ({:.2}x) across {} splits, {} lease moves, \
         {} ranges folding to {} when idle — all guards passed",
        r.baseline.ops_per_sec,
        r.lifecycle.ops_per_sec,
        r.lifecycle.ops_per_sec / r.baseline.ops_per_sec.max(1e-9),
        r.lifecycle.splits,
        r.lifecycle.lease_rebalances,
        r.lifecycle.ranges,
        r.lifecycle.ranges_after_idle
    );
}
