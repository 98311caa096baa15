//! End-to-end nemesis runs: seeded fault schedules driven through the full
//! cluster, histories validated by the offline checker.
//!
//! The headline test runs 20 seed-derived schedules — crashes, partitions,
//! region isolation, clock skew, zone failures — and requires a clean
//! checker verdict on every one. Scripted scenarios then pin down the
//! paper's survivability matrix: REGION-survivable ranges stay available
//! through a full region failure while ZONE-survivable ranges correctly do
//! not, and bounded-staleness reads keep serving locally while the primary
//! region is partitioned away.

use std::cell::Cell;
use std::rc::Rc;

use mr_chaos::{
    build_chaos_cluster, check, run_chaos, AvailabilityExpectation, ChaosConfig, CheckReport,
    CheckerConfig, Expect, FaultSchedule, FaultStep, History, OpKind, Phase, ScheduleBounds,
};
use mr_clock::Timestamp;
use mr_kv::cluster::{Cluster, ReadOptions, Staleness};
use mr_kv::{FaultKind, TxnHandle};
use mr_proto::{Key, Value};
use mr_sim::{NodeId, RegionId, SimDuration, SimTime};
use mr_testutil::{at, secs};

#[test]
fn twenty_seeded_schedules_produce_clean_histories() {
    let bounds = ScheduleBounds::default();
    let mut total_ops = 0usize;
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
        total_ops += outcome.ops_ok;
    }
    assert!(
        total_ops > 5_000,
        "suspiciously little traffic: {total_ops}"
    );
}

/// Range quiescence under crash faults: every schedule ends with a
/// dedicated region-0 node crash — the node hosting the cold ranges'
/// quiesced leaders. A quiesced range sends no heartbeats, so its
/// followers must discover the dead leader through the node-liveness
/// check and elect a replacement; histories must stay serializable with
/// the online invariant monitors strict (the default).
#[test]
fn quiesced_leader_crash_schedules_produce_clean_histories() {
    let bounds = ScheduleBounds {
        quiesced_leader_crash: true,
        ..ScheduleBounds::default()
    };
    for seed in 1..=20u64 {
        let schedule = FaultSchedule::random(seed, &bounds);
        let cfg = ChaosConfig {
            seed,
            cold_ranges: 2,
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
    }
}

/// With no workload at all, every range goes cold and every leader
/// quiesces — the `raft.quiesced_ranges` gauge counts them after a forced
/// scrape.
#[test]
fn idle_cluster_quiesces_every_range() {
    let cfg = ChaosConfig {
        cold_ranges: 2,
        ..ChaosConfig::default()
    };
    let mut c = build_chaos_cluster(&cfg);
    c.run_until(SimTime(secs(15).nanos()));
    c.scrape_now();
    let quiesced = c.obs.registry.gauge("raft.quiesced_ranges", &[]).get();
    // rs/ + zs/ + 2 cold ranges, all idle.
    assert_eq!(quiesced, 4, "all idle leaders should quiesce");
}

#[test]
fn same_seed_replays_byte_identical_history() {
    let schedule = FaultSchedule::random(7, &ScheduleBounds::default());
    let cfg = ChaosConfig {
        seed: 7,
        run_for: secs(30),
        ..ChaosConfig::default()
    };
    let a = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    let b = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    let ja = a.history.export_json();
    assert!(!ja.is_empty() && ja.len() > 1_000);
    assert_eq!(ja, b.history.export_json(), "same seed must replay exactly");

    // A different seed diverges (different faults, clients, jitter).
    let schedule2 = FaultSchedule::random(8, &ScheduleBounds::default());
    let cfg2 = ChaosConfig { seed: 8, ..cfg };
    let c = run_chaos(&cfg2, &schedule2, &CheckerConfig::default());
    assert_ne!(ja, c.history.export_json());
}

#[test]
fn region_crash_respects_the_survivability_matrix() {
    // Crash the home region outright: the REGION-survivable range must
    // keep serving writes from the surviving majority, the ZONE-survivable
    // range (all 3 voters in the home region) must not.
    let schedule = FaultSchedule::scripted(
        "home-region-crash",
        vec![
            FaultStep {
                at: secs(10),
                fault: FaultKind::CrashRegion(RegionId(0)),
            },
            FaultStep {
                at: secs(40),
                fault: FaultKind::HealAll,
            },
        ],
    );
    let checker_cfg = CheckerConfig {
        expectations: vec![
            // Grace for lease failover (election timeout 2s + retries).
            AvailabilityExpectation {
                prefix: "rs/".into(),
                from: at(secs(18)),
                until: at(secs(40)),
                expect: Expect::Available,
            },
            AvailabilityExpectation {
                prefix: "zs/".into(),
                from: at(secs(12)),
                until: at(secs(40)),
                expect: Expect::Unavailable,
            },
            // After the heal (plus recovery grace) both classes serve again.
            AvailabilityExpectation {
                prefix: "zs/".into(),
                from: at(secs(50)),
                until: at(secs(70)),
                expect: Expect::Available,
            },
        ],
        ..CheckerConfig::default()
    };
    let cfg = ChaosConfig {
        seed: 100,
        run_for: secs(70),
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &checker_cfg);
    assert!(outcome.passed(), "{}", outcome.render());
    // The run must actually have exercised both classes during the outage.
    assert!(outcome.ops_failed + outcome.ops_info > 0, "no faults felt");
}

#[test]
fn bounded_staleness_reads_stay_local_through_primary_partition() {
    // Cut the home region off. Bounded-staleness reads from the other
    // regions negotiate against local replicas and must never block on the
    // unreachable leaseholder — enforced by the checker's latency budget
    // on every completed bounded read.
    let schedule = FaultSchedule::scripted(
        "primary-isolated",
        vec![
            FaultStep {
                at: secs(15),
                fault: FaultKind::IsolateRegion(RegionId(0)),
            },
            FaultStep {
                at: secs(45),
                fault: FaultKind::HealAll,
            },
        ],
    );
    let cfg = ChaosConfig {
        seed: 200,
        run_for: secs(60),
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(outcome.passed(), "{}", outcome.render());
    let ops = outcome.history.ops();
    let in_window = |t: SimTime| t >= at(secs(16)) && t < at(secs(45));
    let bounded_ok = ops
        .iter()
        .filter(|o| o.kind == OpKind::BoundedRead && o.ok() && in_window(o.invoke_at))
        .count();
    assert!(
        bounded_ok > 0,
        "expected bounded reads to keep succeeding during the partition"
    );
}

#[test]
fn recovery_latency_is_measured_per_window() {
    let schedule = FaultSchedule::scripted(
        "one-node-crash",
        vec![
            FaultStep {
                at: secs(10),
                fault: FaultKind::CrashNode(mr_sim::NodeId(1)),
            },
            FaultStep {
                at: secs(25),
                fault: FaultKind::RestartNode(mr_sim::NodeId(1)),
            },
        ],
    );
    let cfg = ChaosConfig {
        seed: 300,
        run_for: secs(40),
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(outcome.passed(), "{}", outcome.render());
    assert!(outcome.ops_per_sec > 10.0);
    assert!(outcome.steady_p99 > SimDuration::ZERO);
    assert!(outcome.recovery_p99 > SimDuration::ZERO);
}

#[test]
fn ambiguous_commits_are_recorded_as_info_not_ok() {
    // A region crash mid-run interrupts in-flight commits: their outcomes
    // must be recorded as info (unknown), never silently dropped.
    let schedule = FaultSchedule::scripted(
        "crash-for-ambiguity",
        vec![
            FaultStep {
                at: secs(10),
                fault: FaultKind::CrashRegion(RegionId(0)),
            },
            FaultStep {
                at: secs(30),
                fault: FaultKind::HealAll,
            },
        ],
    );
    let cfg = ChaosConfig {
        seed: 400,
        run_for: secs(45),
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(outcome.passed(), "{}", outcome.render());
    let ops = outcome.history.ops();
    // Every op completed (invoke-only records would mean a lost client).
    assert!(ops.iter().all(|o| o.outcome != Phase::Invoke));
}

/// The acceptance gate for the checker itself: with the intentionally
/// injected follower-read bug armed, stale reads from a partitioned region
/// are served above the replica's closed frontier and miss committed
/// writes. The checker must catch it and name the seed and schedule step.
#[cfg(feature = "injected-bug")]
#[test]
fn injected_stale_read_bug_is_caught_with_seed_and_step() {
    let schedule = FaultSchedule::scripted(
        "bug-hunt",
        vec![
            FaultStep {
                at: secs(10),
                fault: FaultKind::IsolateRegion(RegionId(1)),
            },
            FaultStep {
                at: secs(40),
                fault: FaultKind::HealAll,
            },
        ],
    );
    let cfg = ChaosConfig {
        seed: 666,
        run_for: secs(50),
        arm_bug: Some(mr_kv::InjectedBug::StaleRead),
        // The online follower-read monitor would panic on the bug; this
        // test is about the *offline checker* catching it.
        strict_monitors: false,
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(!outcome.passed(), "the armed bug must be detected");
    let report = &outcome.report;
    assert!(report
        .violations
        .iter()
        .any(|v| v.kind == "stale-read-skew" || v.kind == "serialization-cycle"));
    let rendered = outcome.render();
    // The rendering names the seed and the offending schedule step.
    assert!(rendered.contains("seed 666"), "{rendered}");
    assert!(
        rendered.contains("step 0 (isolate region r1)"),
        "{rendered}"
    );
}

/// Control for the bug test: the identical scenario without the bug armed
/// yields a clean history (partitioned stale reads fail over or error out
/// instead of returning stale data).
#[test]
fn partitioned_stale_reads_without_bug_are_clean() {
    let schedule = FaultSchedule::scripted(
        "bug-hunt-control",
        vec![
            FaultStep {
                at: secs(10),
                fault: FaultKind::IsolateRegion(RegionId(1)),
            },
            FaultStep {
                at: secs(40),
                fault: FaultKind::HealAll,
            },
        ],
    );
    let cfg = ChaosConfig {
        seed: 666,
        run_for: secs(50),
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(outcome.passed(), "{}", outcome.render());
}

/// The acceptance gate for the parallel-commit checker coverage: with the
/// intentionally injected premature-ack bug armed, the coordinator acks a
/// parallel commit as soon as the STAGING record commits, without waiting
/// for the in-flight pipelined writes. A multi-range transaction whose
/// second write is delayed (or bumped to a later timestamp) past the ack
/// then violates atomicity: fresh reads miss an acknowledged write, and
/// commit timestamps are reported below already-completed operations. The
/// offline checker must catch it and name the seed.
#[cfg(feature = "injected-bug")]
#[test]
fn injected_premature_ack_bug_is_caught() {
    let bounds = ScheduleBounds::default();
    let schedule = FaultSchedule::random(1, &bounds);
    let cfg = ChaosConfig {
        seed: 1,
        run_for: schedule.span() + secs(10),
        arm_bug: Some(mr_kv::InjectedBug::PrematureAck),
        // The online monitors would panic on the bug; this test is about
        // the *offline checker* catching it.
        strict_monitors: false,
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(
        !outcome.passed(),
        "the armed premature-ack bug must be detected"
    );
    let report = &outcome.report;
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "stale-fresh-read" || v.kind == "real-time-order"),
        "{}",
        outcome.render()
    );
    assert!(outcome.render().contains("seed 1"), "{}", outcome.render());
}

/// Control for the premature-ack test: the identical run without the bug
/// armed (same seed, same schedule, same relaxed monitors) is clean — the
/// bug is the only difference.
#[test]
fn premature_ack_scenario_without_bug_is_clean() {
    let bounds = ScheduleBounds::default();
    let schedule = FaultSchedule::random(1, &bounds);
    let cfg = ChaosConfig {
        seed: 1,
        run_for: schedule.span() + secs(10),
        strict_monitors: false,
        ..ChaosConfig::default()
    };
    let outcome = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(outcome.passed(), "{}", outcome.render());
}

/// Range lifecycle under chaos: every schedule appends three blocks that
/// force a split mid-partition, a merge mid-leaseholder-crash, and a
/// split mid-clock-skew — all while the register workload keeps racing
/// transactions across the moving range boundaries, half the stale reads
/// land inside the closed-ts lag (leaseholder fallback, fresh tscache
/// entries a split must honor), and the lifecycle controller runs its
/// periodic tick. Histories must stay serializable with the online
/// invariant monitors strict (the default).
#[test]
fn lifecycle_storm_schedules_produce_clean_histories() {
    let bounds = ScheduleBounds {
        lifecycle_storm: true,
        ..ScheduleBounds::default()
    };
    let (mut total_splits, mut total_merges) = (0usize, 0usize);
    for seed in 1..=20u64 {
        let schedule = FaultSchedule::random(seed, &bounds);
        let cfg = ChaosConfig {
            seed,
            run_for: schedule.span() + secs(10),
            range_lifecycle: true,
            recent_stale_reads: true,
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
        total_splits += outcome.splits;
        total_merges += outcome.merges;
    }
    // The storm must actually have exercised descriptor surgery: a split
    // or merge step can individually no-op (its leaseholder may be down
    // mid-disruption), but across 20 seeds both must land many times.
    assert!(total_splits >= 20, "only {total_splits} splits applied");
    assert!(total_merges >= 5, "only {total_merges} merges applied");
}

/// A scripted split storm: the remote gateways run 200ms ahead (within
/// the 250ms offset spec), while the workload ranges are repeatedly split
/// and merged back. An ahead-clock gateway's reads are served — and
/// timestamp-cached — up to 200ms in the future; the split is obliged to
/// carry that high-water to BOTH halves (its new bound is
/// `hlc + max_offset`, which covers any in-spec clock), or an
/// honest-clock write can commit below a read that has already returned.
fn split_storm_schedule() -> FaultSchedule {
    let mut steps = Vec::new();
    // Skew the non-home-region gateways ahead; region 0 keeps honest
    // clocks, so its writes are the ones that can slip under a dropped
    // future read timestamp.
    for n in [3u32, 4, 5, 6, 7, 8] {
        steps.push(FaultStep {
            at: secs(4),
            fault: FaultKind::SkewClock {
                node: NodeId(n),
                skew_nanos: 200_000_000,
            },
        });
    }
    let mut t = 15u64;
    while t + 6 <= 54 {
        steps.push(FaultStep {
            at: secs(t),
            fault: FaultKind::SplitAt(Key::from("rs/k1")),
        });
        steps.push(FaultStep {
            at: secs(t + 3),
            fault: FaultKind::MergeAt(Key::from("rs/k0")),
        });
        steps.push(FaultStep {
            at: secs(t + 3),
            fault: FaultKind::SplitAt(Key::from("zs/k1")),
        });
        steps.push(FaultStep {
            at: secs(t + 6),
            fault: FaultKind::MergeAt(Key::from("zs/k0")),
        });
        t += 6;
    }
    steps.push(FaultStep {
        at: secs(58),
        fault: FaultKind::HealAll,
    });
    FaultSchedule::scripted("split-storm", steps)
}

fn split_storm_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        run_for: secs(60),
        // Two keys per class concentrate traffic on the split boundary
        // (the RHS of the rs/zs splits is exactly {rs/k1} / {zs/k1}).
        keys_per_class: 2,
        clients_per_region: 3,
        think: SimDuration::from_millis(20),
        recent_stale_reads: true,
        // A violation is left to the offline checker, which reports it
        // with its history, rather than to an online monitor's panic.
        strict_monitors: false,
        ..ChaosConfig::default()
    }
}

/// The race injects its own faults; the checker gets an empty schedule.
fn race_schedule() -> FaultSchedule {
    FaultSchedule::scripted("split-tscache-race", Vec::new())
}

/// The split-tscache race, forced: each step waits for the one before it
/// to finish, not for a clock, so every seed runs the race.
///
/// 1. An honest region-0 gateway writes `rs/k1` (so a read has something
///    to observe), then begins transaction W, whose timestamp is fixed
///    now, at `t0`.
/// 2. Node 3's clock jumps 200ms ahead (inside the 250ms offset spec), and
///    it reads `rs/k1` 50ms into its own past, at about `t0 + 150ms`. The
///    closed timestamp lags 3s, so the read falls back to the leaseholder,
///    which serves it and records it in its timestamp cache.
/// 3. Once the read has returned, `rs/k1` is split off its range.
/// 4. Once the split has applied, W writes `rs/k1` and commits.
///
/// A correct split carries the parent's read history to both halves, so
/// W's write is pushed above the read. The armed bug zeroes the right
/// half's bound: W commits at `t0`, below a read that has already
/// returned without it. Returns the checker's report on the history, the
/// read's timestamp and W's commit timestamp.
fn split_tscache_race(seed: u64, armed: bool) -> (CheckReport, Timestamp, Timestamp) {
    let mut c = build_chaos_cluster(&ChaosConfig {
        seed,
        arm_bug: armed.then_some(mr_kv::InjectedBug::SplitTscache),
        // The offline checker is the detector under test; relaxed
        // monitors in BOTH runs so the armed/control diff is the bug.
        strict_monitors: false,
        ..ChaosConfig::default()
    });
    c.run_until(at(SimDuration::ZERO));
    let hist = History::new();
    let key = || Key::from("rs/k1");
    let (gateway, skewed) = (NodeId(0), NodeId(3));

    // Steps the calendar until `done` holds, for at most 10s.
    fn step_until(c: &mut Cluster, what: &str, done: impl Fn(&Cluster) -> bool) {
        let deadline = c.now() + secs(10);
        while !done(c) {
            assert!(c.step() && c.now() < deadline, "{what} never finished");
        }
    }
    // Puts op's value under `rs/k1` in `h`, then commits; the cell gets
    // the commit timestamp.
    let write = |c: &mut Cluster, h: TxnHandle, op: u64| {
        let (hist, ts) = (hist.clone(), Rc::new(Cell::new(None)));
        let out = ts.clone();
        let value = Some(Value::from(op.to_string().as_str()));
        c.txn_put(
            h,
            key(),
            value,
            Box::new(move |c, res| {
                res.expect("put");
                c.txn_commit(
                    h,
                    Box::new(move |c, res| {
                        let at = res.expect("commit");
                        hist.ok(c.now(), op, Some(op), Some(at));
                        ts.set(Some(at));
                    }),
                );
            }),
        );
        out
    };

    // 1. The first write, then W's begin.
    let w0 = hist.invoke_write(c.now(), 0, "rs/k1");
    let h0 = c.txn_begin(gateway);
    let w0_ts = write(&mut c, h0, w0);
    step_until(&mut c, "the first write", |_| w0_ts.get().is_some());
    c.run_until(c.now() + SimDuration::from_millis(500));
    let w = hist.invoke_write(c.now(), 1, "rs/k1");
    let h = c.txn_begin(gateway);

    // 2. The ahead-clock read, served by the leaseholder.
    c.inject_fault(
        &FaultKind::SkewClock {
            node: skewed,
            skew_nanos: 200_000_000,
        },
        None,
    );
    let read_ts = Timestamp::new(c.hlc_now(skewed).wall - 50_000_000, 0);
    let r = hist.invoke(c.now(), 2, OpKind::StaleRead, "rs/k1", None, Some(read_ts));
    let read_done = Rc::new(Cell::new(false));
    let (rh, rd) = (hist.clone(), read_done.clone());
    c.read(
        skewed,
        key(),
        ReadOptions {
            staleness: Staleness::ExactAt(read_ts),
            fallback_to_leaseholder: true,
        },
        Box::new(move |c, res| {
            let v = res.expect("stale read");
            let v = v.and_then(|v| std::str::from_utf8(&v.0).ok()?.parse().ok());
            rh.ok(c.now(), r, v, None);
            rd.set(true);
        }),
    );
    step_until(&mut c, "the read", |_| read_done.get());

    // 3. The split under the read.
    let parent = c.registry().lookup(&key()).unwrap().id;
    c.inject_fault(&FaultKind::SplitAt(key()), None);
    step_until(&mut c, "the split", |c| {
        c.registry().lookup(&key()).unwrap().id != parent
    });

    // 4. W's write lands on the right half.
    let w_ts = write(&mut c, h, w);
    step_until(&mut c, "W", |_| w_ts.get().is_some());
    c.run_until_quiescent(c.now() + secs(30));
    let report = check(&hist.ops(), &race_schedule(), &CheckerConfig::default());
    (report, read_ts, w_ts.get().unwrap())
}

/// The acceptance gate for split correctness coverage: with the injected
/// split-tscache bug armed (the RHS of every split forgets the reads the
/// parent served), the forced race commits a write below a read that has
/// already returned without it, and the offline checker must flag the
/// history on every seed.
#[cfg(feature = "injected-bug")]
#[test]
fn injected_split_tscache_bug_is_caught() {
    for seed in 1..=4u64 {
        let (report, read_ts, w_ts) = split_tscache_race(seed, true);
        assert!(
            w_ts < read_ts,
            "seed {seed}: W committed at {w_ts}, above the read at {read_ts}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == "stale-read-skew"),
            "seed {seed}: the armed split-tscache bug was not detected:\n{}",
            report.render(&race_schedule())
        );
    }
}

/// Control for the forced split-tscache race: without the bug armed, the
/// right half refuses W's write below the parent's read, W commits above
/// the read, and the history is clean on every seed.
#[test]
fn split_tscache_race_without_bug_is_clean() {
    for seed in 1..=4u64 {
        let (report, read_ts, w_ts) = split_tscache_race(seed, false);
        assert!(
            w_ts > read_ts,
            "seed {seed}: W committed at {w_ts}, under the read at {read_ts}"
        );
        assert!(
            report.passed(),
            "seed {seed}:\n{}",
            report.render(&race_schedule())
        );
    }
}

/// Split surgery under traffic: the split storm (same skew, relaxed
/// monitors) must be clean on every seed. Seed 19 once read under a
/// transaction record a staging recovery had committed on stale evidence:
/// its `RecoverTxn` was re-sent after a merge answered `RangeUnavailable`,
/// after the intent's own re-put had moved the intent up.
#[test]
fn split_storm_without_bug_is_clean() {
    let schedule = split_storm_schedule();
    for seed in (1..=8u64).chain([19]) {
        let outcome = run_chaos(
            &split_storm_config(seed),
            &schedule,
            &CheckerConfig::default(),
        );
        assert!(outcome.passed(), "seed {seed}:\n{}", outcome.render());
        assert!(outcome.splits >= 5, "seed {seed}: storm barely split");
        assert!(outcome.merges >= 1, "seed {seed}: storm never merged");
    }
}

/// Parallel commits under coordinator failure: every schedule ends with a
/// dedicated gateway-crash block, killing whatever transactions that node
/// was coordinating — including ones caught between the STAGING record and
/// the explicit commit, whose intents only contender-driven status
/// recovery can release. Histories must stay serializable and the online
/// invariant monitors stay strict.
#[test]
fn coordinator_crash_schedules_produce_clean_histories() {
    let bounds = ScheduleBounds {
        coordinator_crash: true,
        ..ScheduleBounds::default()
    };
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
    }
}
