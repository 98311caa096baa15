//! The durability test tier: chaos runs whose crashes *drop volatile
//! state*, so every recovery is a real WAL + SST replay rather than a
//! process pause.
//!
//! The headline sweep runs 20 seed-derived `durability_storm` schedules —
//! volatile node crashes, a full region-0 volatile crash taking the
//! ZONE-survivable range's whole Raft group through crash-restart, and a
//! split racing a node mid-recovery — with the strict online monitors on,
//! and requires a clean checker verdict on every seed. A scripted scenario
//! pins the full-group recovery down, and the armed `InjectedBug::WalSkipFsync`
//! canary proves the checker catches a node that acknowledges writes
//! before its WAL fsync point.

use mr_chaos::{run_chaos, ChaosConfig, CheckerConfig, FaultSchedule, FaultStep, ScheduleBounds};
use mr_kv::FaultKind;
use mr_sim::RegionId;
use mr_testutil::secs;

#[test]
fn durability_storm_schedules_produce_clean_histories() {
    let bounds = ScheduleBounds {
        durability_storm: true,
        ..ScheduleBounds::default()
    };
    let mut total_recoveries = 0usize;
    for seed in 1..=20u64 {
        let schedule = FaultSchedule::random(seed, &bounds);
        let cfg = ChaosConfig {
            seed,
            run_for: schedule.span() + secs(10),
            ..ChaosConfig::default()
        };
        let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
        assert!(
            outcome.passed(),
            "seed {seed} failed:\n{}\n{schedule}",
            outcome.render()
        );
        assert!(
            outcome.ops_ok > 100,
            "seed {seed}: workload barely ran ({} ok ops)",
            outcome.ops_ok
        );
        assert!(
            outcome.wal_recoveries >= 3,
            "seed {seed}: expected WAL recoveries from the volatile crashes, got {}",
            outcome.wal_recoveries
        );
        total_recoveries += outcome.wal_recoveries;
    }
    assert!(
        total_recoveries >= 100,
        "suspiciously few WAL recoveries across the sweep: {total_recoveries}"
    );
}

/// The strongest durability probe, pinned down as a scripted scenario: all
/// of region 0 — every voter of the ZONE-survivable range — crashes
/// volatile at once. The range has *no* surviving replica; when the region
/// restarts, its entire state is whatever WAL + SST replay reconstructs.
/// With fsync at every apply (the correct configuration), no acknowledged
/// write may be missing, and the strict monitors plus the offline checker
/// verify exactly that.
#[test]
fn full_region_volatile_crash_recovers_cleanly() {
    let schedule = FaultSchedule::scripted(
        "region0-volatile",
        vec![
            FaultStep {
                at: secs(8),
                fault: FaultKind::CrashRegionVolatile(RegionId(0)),
            },
            FaultStep {
                at: secs(16),
                fault: FaultKind::RestartRegion(RegionId(0)),
            },
            FaultStep {
                at: secs(30),
                fault: FaultKind::HealAll,
            },
        ],
    );
    let cfg = ChaosConfig {
        seed: 7,
        run_for: secs(40),
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(outcome.passed(), "{}\n{schedule}", outcome.render());
    // Region 0 hosts 2 rs/ voters and all 3 zs/ voters: at least 5
    // replicas replayed their WALs.
    assert!(
        outcome.wal_recoveries >= 5,
        "expected every region-0 replica to replay its WAL, got {}",
        outcome.wal_recoveries
    );
    assert!(outcome.ops_ok > 100, "workload barely ran");
}

/// The armed canary: with `InjectedBug::WalSkipFsync` armed, per-apply fsyncs
/// are deferred to a periodic sync tick, so a volatile crash between ticks
/// loses writes the cluster already acknowledged. The identical scenario
/// that is clean above must now fail the offline checker — proving the
/// durability tier actually detects a node that acks before its WAL fsync
/// point (and isn't just vacuously green).
#[cfg(feature = "injected-bug")]
#[test]
fn injected_wal_skip_fsync_bug_is_caught() {
    // Crash timing chosen off the 3s sync-tick grid so the unsynced
    // window is wide (~1.5s of acked writes on the zs/ range).
    let schedule = FaultSchedule::scripted(
        "region0-volatile-fsync-bug",
        vec![
            FaultStep {
                at: secs(8),
                fault: FaultKind::CrashRegionVolatile(RegionId(0)),
            },
            FaultStep {
                at: secs(16),
                fault: FaultKind::RestartRegion(RegionId(0)),
            },
            FaultStep {
                at: secs(30),
                fault: FaultKind::HealAll,
            },
        ],
    );
    let cfg = ChaosConfig {
        seed: 7,
        run_for: secs(40),
        arm_bug: Some(mr_kv::InjectedBug::WalSkipFsync),
        // The online monitors may trip on the lost writes; this test is
        // about the *offline checker* catching them.
        strict_monitors: false,
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(
        !outcome.passed(),
        "the armed fsync-skip bug must be detected:\n{}",
        outcome.render()
    );
    assert!(outcome.render().contains("seed 7"), "{}", outcome.render());
}
