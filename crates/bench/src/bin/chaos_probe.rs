// chaos probe: five fixed-seed nemesis schedules through the full chaos
// harness (seeded faults + workload + offline history checker), summarized
// into BENCH_chaos.json: committed ops/sec, recovery-time p99 (latency of
// operations invoked while a disruption was active), and steady-state p99
// per scenario. Any checker violation fails the probe with the violating
// seed and schedule rendered — and its incident bundle written to
// `incident_seed<N>/` with the path printed — so CI catches consistency
// regressions that only appear under faults, with the forensics attached.
use mr_bench::write_bench;
use mr_chaos::{run_chaos, ChaosConfig, CheckerConfig, FaultSchedule, ScheduleBounds};
use mr_sim::SimDuration;

/// Fixed scenario seeds: small primes spread across the schedule space.
/// Each derives a different disrupt/heal sequence (crashes, partitions,
/// isolations, clock skews) from `FaultSchedule::random`.
const SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

fn ms(d: SimDuration) -> f64 {
    d.nanos() as f64 / 1e6
}

fn main() {
    let t0 = std::time::Instant::now();
    // MR_STRICT_MONITORS=0 downgrades online invariant violations from
    // panics to recorded violations; CI runs with MR_STRICT_MONITORS=1 so
    // both the online monitors and the offline checker gate the run.
    let strict = std::env::var("MR_STRICT_MONITORS").map_or(true, |v| v != "0");

    let bounds = ScheduleBounds::default();
    let mut w = mr_obs::export::JsonWriter::default();
    w.obj().key("scenarios").arr();
    let mut failed = false;
    for seed in SEEDS {
        let schedule = FaultSchedule::random(seed, &bounds);
        let cfg = ChaosConfig {
            seed,
            run_for: schedule.span() + SimDuration::from_secs(8),
            strict_monitors: strict,
            ..ChaosConfig::default()
        };
        let t = std::time::Instant::now();
        let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
        eprintln!(
            "seed {seed}: {:?} ops_ok={} ops/sec={:.1} recovery_p99={} steady_p99={}",
            t.elapsed(),
            outcome.ops_ok,
            outcome.ops_per_sec,
            outcome.recovery_p99,
            outcome.steady_p99
        );
        if !outcome.passed() {
            eprintln!("CHECKER VIOLATIONS (seed {seed}):\n{}", outcome.render());
            if let Some(bundle) = &outcome.bundle {
                let dir = std::path::PathBuf::from(format!("incident_seed{seed}"));
                match bundle.write_to(&dir) {
                    Ok(path) => eprintln!("incident bundle: {}", path.display()),
                    Err(e) => eprintln!("failed to write incident bundle: {e}"),
                }
            }
            failed = true;
        }
        w.obj().field("seed", seed).field("ops_ok", outcome.ops_ok);
        w.field("ops_failed", outcome.ops_failed);
        w.key("ops_per_sec").fixed(outcome.ops_per_sec, 2);
        w.key("recovery_p99_ms").fixed(ms(outcome.recovery_p99), 3);
        w.key("steady_p99_ms").fixed(ms(outcome.steady_p99), 3);
        w.field("checker_violations", outcome.report.violations.len());
        w.end();
    }
    w.end().end();
    write_bench("chaos", &w.finish());
    eprintln!("total: {:?}", t0.elapsed());
    if failed {
        std::process::exit(1);
    }
}
