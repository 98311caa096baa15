//! Observability probe: per-range load telemetry, windowed metrics
//! history, and transaction latency attribution. Writes `BENCH_obs.json`.
//!
//! The skew phase drives an open-loop read storm at one range (plus a
//! 10x-slower write trickle at a second) so the EWMA load recorder has a
//! known ground truth: the hot range must rank first and its decayed QPS
//! must land within 10% of the driven rate. The same window is replayed
//! against the scrape store at both resolutions: the `kv.txn.commits` rate must
//! match the driven commit rate within 10% at fine and coarse. The
//! attribution phase then runs closed-loop multi-range write transactions
//! and requires the named latency components (rpc, replication,
//! lock-wait, commit-wait, retry) to explain >= 95% of end-to-end
//! latency. Finally the registry's instrument count is checked against
//! `MR_METRIC_BUDGET` so per-range dimensions can never leak into the
//! flat registry and blow up cardinality.
//!
//! Exits non-zero on any violated gate, so CI uses this binary as the
//! telemetry regression guard.

use mr_bench::{exit_on_regressions, obs_probe, obs_probe_json, probe_param, write_bench};

fn main() {
    let seed: u64 = probe_param("seed", 1);
    let skew_secs: u64 = probe_param("MR_OBS_SKEW_SECS", 60);
    let txns: usize = probe_param("MR_OBS_TXNS", 30);
    let budget: usize = probe_param("MR_METRIC_BUDGET", 256);

    eprintln!("obs_probe: seed {seed}, {skew_secs}s skew, {txns} attribution txns");
    let r = obs_probe(seed, skew_secs, txns);
    write_bench("obs", &obs_probe_json(&r));

    let mut failures = Vec::new();
    // The deliberately skewed range must rank first, with a decayed QPS
    // within 10% of the rate the open loop actually drove.
    match r.hot.first() {
        None => failures.push("hot_ranges ranking is empty".to_string()),
        Some(top) => {
            if top.range != r.hot_range {
                failures.push(format!(
                    "hottest range is r{} — expected the skewed r{}",
                    top.range, r.hot_range
                ));
            }
            let driven = r.driven_qps_milli as f64;
            if (top.qps_milli as f64 - driven).abs() > 0.10 * driven {
                failures.push(format!(
                    "hot-range decayed QPS {}m is not within 10% of the driven {}m",
                    top.qps_milli, r.driven_qps_milli
                ));
            }
        }
    }
    // The windowed store must report the driven commit rate at both
    // resolutions.
    for (res, rate, n) in [
        ("fine", r.commit_rate_fine_milli, r.fine_samples),
        ("coarse", r.commit_rate_coarse_milli, r.coarse_samples),
    ] {
        if n < 2 {
            failures.push(format!("{res} window holds only {n} samples"));
        }
        let expected = r.expected_commit_rate_milli as f64;
        if (rate as f64 - expected).abs() > 0.10 * expected {
            failures.push(format!(
                "{res} commit rate {rate}m/s is not within 10% of the driven {expected}m/s"
            ));
        }
    }
    // Named attribution components must explain almost all of every
    // transaction's end-to-end latency; a growing `other` bucket means an
    // instrumentation hole on the client critical path.
    if r.attr_txns == 0 {
        failures.push("attribution log is empty".to_string());
    }
    if r.named_fraction() < 0.95 {
        failures.push(format!(
            "named components explain only {:.1}% of txn latency (need >= 95%)",
            100.0 * r.named_fraction()
        ));
    }
    // Cardinality budget: per-range load lives in the LoadRecorder, never
    // as per-range registry instruments.
    if r.instrument_count > budget {
        failures.push(format!(
            "registry holds {} instruments — exceeds MR_METRIC_BUDGET {budget}",
            r.instrument_count
        ));
    }

    exit_on_regressions(&failures);
    eprintln!(
        "obs_probe: hot r{} at {}m qps (driven {}m), rates {}/{}m vs {}m, named attribution {:.1}%, {} instruments — all guards passed",
        r.hot_range,
        r.hot.first().map(|s| s.qps_milli).unwrap_or(0),
        r.driven_qps_milli,
        r.commit_rate_fine_milli,
        r.commit_rate_coarse_milli,
        r.expected_commit_rate_milli,
        100.0 * r.named_fraction(),
        r.instrument_count
    );
}
