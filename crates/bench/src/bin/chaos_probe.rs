//! Chaos probe: five fixed-seed fault schedules (crashes, partitions,
//! isolations, clock skews) through the full chaos harness, with every
//! online invariant monitor strict. Writes `BENCH_chaos.json`: committed
//! ops/sec, recovery p99 (operations invoked while a disruption was active)
//! and steady p99 per schedule. A history the offline checker flags fails
//! the probe, its violations printed with the seed and schedule step and its
//! incident bundle written to `incident_seed<N>/`.
use mr_bench::verdict::conclude;
use mr_bench::{chaos_probe, chaos_probe_json, chaos_probe_verdicts};

fn main() {
    // Small primes spread across the schedule space.
    let rows = chaos_probe(&[11, 23, 37, 41, 53]);
    conclude(
        "chaos",
        &chaos_probe_json(&rows),
        &chaos_probe_verdicts(&rows),
    );
}
