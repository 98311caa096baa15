//! Observability probe: per-range load telemetry, windowed metrics history
//! and transaction latency attribution. Writes `BENCH_obs.json`.
//!
//! The skew phase drives a 40 s open-loop read storm at one range (plus a
//! 10x-slower write trickle at a second), so the EWMA load recorder has a
//! known ground truth, and replays the window against the scrape store at
//! both resolutions. The attribution phase then runs 10 closed-loop
//! multi-range write transactions, whose named latency components (rpc,
//! replication, lock-wait, commit-wait, retry) must explain almost all of
//! their end-to-end latency; last, the registry's instrument count is held
//! to a budget so per-range dimensions never leak into it. Seed 1. Exits
//! non-zero when a gate of `obs_probe_verdicts` fails.
use mr_bench::verdict::conclude;
use mr_bench::{obs_probe, obs_probe_json, obs_probe_verdicts};

fn main() {
    let r = obs_probe(1, 40, 10);
    conclude("obs", &obs_probe_json(&r), &obs_probe_verdicts(&r));
}
