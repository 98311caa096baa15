//! Seeded fault schedules.
//!
//! A [`FaultSchedule`] is a deterministic sequence of timed
//! [`FaultKind`] injections — either scripted by hand or derived entirely
//! from a seed via [`FaultSchedule::random`]. Random schedules are built as
//! *disrupt → hold → heal* blocks with at most one major disruption active
//! at a time, and always end with a `HealAll`, so a quorum-respecting
//! schedule never takes down a majority of any range's voters. Installing a
//! schedule turns each step into a first-class timed event on the
//! simulation calendar; the step index travels with the injection so
//! checker violations can name the exact fault that preceded them.

use std::fmt;

use mr_kv::cluster::Cluster;
use mr_kv::FaultKind;
use mr_proto::Key;
use mr_sim::{NodeId, RegionId, SimDuration, SimRng, SimTime, ZoneId};

/// One timed step of a schedule.
#[derive(Clone, Debug)]
pub struct FaultStep {
    /// Offset from schedule installation.
    pub at: SimDuration,
    pub fault: FaultKind,
}

/// A named, seeded sequence of timed fault injections.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    pub name: String,
    /// The seed the schedule was derived from (0 for scripted schedules).
    pub seed: u64,
    pub steps: Vec<FaultStep>,
}

/// Bounds for random schedule generation.
#[derive(Clone, Debug)]
pub struct ScheduleBounds {
    /// Regions in the target cluster.
    pub regions: u32,
    /// Nodes (== zones) per region.
    pub nodes_per_region: u32,
    /// Number of disrupt→heal blocks.
    pub blocks: u32,
    /// Offset of the first disruption.
    pub first_at: SimDuration,
    /// How long each disruption is held before its heal.
    pub hold: SimDuration,
    /// Quiet gap between a heal and the next disruption.
    pub gap: SimDuration,
    /// Maximum clock skew injected (absolute value, nanoseconds). Keep this
    /// at or below half the configured `max_clock_offset` for schedules
    /// that must pass the strict invariant monitors.
    pub max_skew_nanos: i64,
    /// Allow whole-region crashes (kills ZONE-survivable ranges homed
    /// there; REGION-survivable ranges must ride through).
    pub allow_region_crash: bool,
    /// Append a dedicated coordinator-crash block: crash one random
    /// gateway node (killing every transaction it coordinates — including
    /// parallel commits caught between STAGING and the explicit commit,
    /// whose intents only a contender-driven status recovery can release)
    /// and restart it one hold later.
    pub coordinator_crash: bool,
    /// Append a dedicated quiesced-leader-crash block: crash one random
    /// region-0 node — where the cold ranges' quiesced leaders live — and
    /// restart it one hold later. Pair with `ChaosConfig::cold_ranges` so
    /// there are quiesced leaders to kill; their followers must detect the
    /// dead leader via the liveness check, since a quiesced range sends no
    /// heartbeats to miss.
    pub quiesced_leader_crash: bool,
    /// Append three range-lifecycle blocks racing splits and merges against
    /// the workload *while* a disruption is active: a split mid-partition, a
    /// merge mid-leaseholder-crash, and a split mid-clock-skew. The
    /// lifecycle faults target the workload keyspace (`rs/`, `zs/`) and are
    /// no-ops when the tiling doesn't allow them (e.g. the merge before any
    /// split applied), so every seed stays valid.
    pub lifecycle_storm: bool,
    /// Append three durability blocks built on *volatile* crashes (the
    /// node's memtable and unsynced WAL tail are dropped; recovery is
    /// solely WAL + SST replay): one random node, then all of region 0 at
    /// once — taking the ZONE-survivable range's whole Raft group through
    /// crash-restart — then a split racing a node mid-recovery.
    pub durability_storm: bool,
}

impl Default for ScheduleBounds {
    fn default() -> Self {
        ScheduleBounds {
            regions: 3,
            nodes_per_region: 3,
            blocks: 3,
            first_at: SimDuration::from_secs(5),
            hold: SimDuration::from_secs(8),
            gap: SimDuration::from_secs(6),
            max_skew_nanos: 100_000_000, // 100ms, within the 250ms offset spec
            allow_region_crash: false,
            coordinator_crash: false,
            quiesced_leader_crash: false,
            lifecycle_storm: false,
            durability_storm: false,
        }
    }
}

impl FaultSchedule {
    /// A hand-written schedule (seed recorded as 0).
    pub fn scripted(name: &str, steps: Vec<FaultStep>) -> FaultSchedule {
        FaultSchedule {
            name: name.to_string(),
            seed: 0,
            steps,
        }
    }

    /// Derive a schedule entirely from `seed`: `bounds.blocks` disrupt→heal
    /// blocks, one major disruption at a time, then the storms the bounds
    /// ask for, ending with a `HealAll`. The same seed and bounds always
    /// produce the identical schedule.
    pub fn random(seed: u64, bounds: &ScheduleBounds) -> FaultSchedule {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x6e656d65_73697321); // "nemesis!"
        let regions = u64::from(bounds.regions);
        let nodes = regions * u64::from(bounds.nodes_per_region);
        let any_node = |rng: &mut SimRng| NodeId(rng.next_below(nodes) as u32);
        // Region 0 owns the first `nodes_per_region` node ids.
        let region0_node =
            |rng: &mut SimRng| NodeId(rng.next_below(u64::from(bounds.nodes_per_region)) as u32);
        let region_pair = |rng: &mut SimRng| {
            let a = rng.next_below(regions) as u32;
            let b = (a + 1 + rng.next_below(regions - 1) as u32) % bounds.regions;
            (RegionId(a), RegionId(b))
        };
        let half = SimDuration(bounds.hold.nanos() / 2);
        let (mut steps, mut t) = (Vec::new(), bounds.first_at);
        // One block at `t`: `disrupt`, then `mid` (if any) half a hold in,
        // then `heal` a hold after `disrupt`; the next block starts one gap
        // after the heal. Each block draws its faults before it is laid out.
        let mut block = |disrupt: FaultKind, mid: Option<FaultKind>, heal: FaultKind| {
            steps.push(FaultStep {
                at: t,
                fault: disrupt,
            });
            steps.extend(mid.map(|fault| FaultStep {
                at: t + half,
                fault,
            }));
            t = t + bounds.hold;
            steps.push(FaultStep { at: t, fault: heal });
            t = t + bounds.gap;
        };
        let variants = if bounds.allow_region_crash { 6 } else { 5 };
        for _ in 0..bounds.blocks {
            let (disrupt, heal) = match rng.next_below(variants) {
                0 => {
                    let n = any_node(&mut rng);
                    (FaultKind::CrashNode(n), FaultKind::RestartNode(n))
                }
                1 => {
                    // One zone per node, so this crashes a single node too,
                    // but exercises the zone-scoped plumbing.
                    let z = ZoneId(any_node(&mut rng).0);
                    (FaultKind::CrashZone(z), FaultKind::RestartZone(z))
                }
                2 => {
                    let (a, b) = region_pair(&mut rng);
                    (
                        FaultKind::PartitionRegions(a, b),
                        FaultKind::HealPartition(a, b),
                    )
                }
                3 => {
                    let r = RegionId(rng.next_below(regions) as u32);
                    (FaultKind::IsolateRegion(r), FaultKind::RejoinRegion(r))
                }
                4 => {
                    let node = any_node(&mut rng);
                    let mag = rng.next_below(bounds.max_skew_nanos.unsigned_abs() + 1) as i64;
                    let skew_nanos = if rng.chance(0.5) { mag } else { -mag };
                    (
                        FaultKind::SkewClock { node, skew_nanos },
                        FaultKind::SkewClock {
                            node,
                            skew_nanos: 0,
                        },
                    )
                }
                _ => {
                    let r = RegionId(rng.next_below(regions) as u32);
                    (FaultKind::CrashRegion(r), FaultKind::RestartRegion(r))
                }
            };
            block(disrupt, None, heal);
        }
        if bounds.coordinator_crash {
            // A gateway crash is a coordinator crash: every transaction it
            // was driving dies mid-flight, at whatever commit stage the
            // timing lands on — including between the STAGING record and
            // the explicit commit.
            let n = any_node(&mut rng);
            block(FaultKind::CrashNode(n), None, FaultKind::RestartNode(n));
        }
        if bounds.quiesced_leader_crash {
            // The cold ranges are homed in region 0, so one of its nodes
            // hosts their leaders — leaders that have long stopped
            // heartbeating. Crashing that node proves failover does not
            // depend on the heartbeats quiescence suppressed.
            let n = region0_node(&mut rng);
            block(FaultKind::CrashNode(n), None, FaultKind::RestartNode(n));
        }
        if bounds.lifecycle_storm {
            // Three blocks racing range-descriptor surgery against live
            // disruptions. The lifecycle fault fires mid-hold, so the split
            // or merge commits while the disruption is still active. Keys
            // sit inside the workload keyspace ("{class}k0".."k3"), so
            // racing transactions straddle the new boundary.
            // Split the region-survivable range while two regions are
            // partitioned from each other.
            let (a, b) = region_pair(&mut rng);
            block(
                FaultKind::PartitionRegions(a, b),
                Some(FaultKind::SplitAt(Key::from("rs/k2"))),
                FaultKind::HealPartition(a, b),
            );
            // Merge the halves back while a region-0 node — the leaseholder
            // region for both workload ranges — is down. (A no-op if the
            // earlier split never applied; the schedule stays valid.)
            let n = region0_node(&mut rng);
            block(
                FaultKind::CrashNode(n),
                Some(FaultKind::MergeAt(Key::from("rs/k0"))),
                FaultKind::RestartNode(n),
            );
            // Split the zone-survivable range under clock skew: the split
            // must seed both halves' timestamp-cache bounds above every
            // read any skewed gateway could have been served.
            let node = any_node(&mut rng);
            // At least 1ns of skew, so the disrupt step never reads as a heal.
            let mag = 1 + rng.next_below(bounds.max_skew_nanos.unsigned_abs()) as i64;
            let skew_nanos = if rng.chance(0.5) { mag } else { -mag };
            block(
                FaultKind::SkewClock { node, skew_nanos },
                Some(FaultKind::SplitAt(Key::from("zs/k2"))),
                FaultKind::SkewClock {
                    node,
                    skew_nanos: 0,
                },
            );
        }
        if bounds.durability_storm {
            // Three durability blocks: volatile crashes force recovery from
            // the write-ahead log while transactions race.
            // Crash one random node, dropping its volatile state.
            let n = any_node(&mut rng);
            block(
                FaultKind::CrashNodeVolatile(n),
                None,
                FaultKind::RestartNode(n),
            );
            // Crash all of region 0 — home of the ZONE-survivable range —
            // so its entire Raft group loses volatile state simultaneously
            // and the range comes back solely from WAL + SST replay.
            block(
                FaultKind::CrashRegionVolatile(RegionId(0)),
                None,
                FaultKind::RestartRegion(RegionId(0)),
            );
            // Split the zone-survivable range while one of its replicas is
            // down mid volatile recovery: the surviving quorum splits, and
            // the recovered node must reconcile its replayed state with the
            // new tiling. (A no-op if the tiling disallows the split.)
            let n = region0_node(&mut rng);
            block(
                FaultKind::CrashNodeVolatile(n),
                Some(FaultKind::SplitAt(Key::from("zs/k2"))),
                FaultKind::RestartNode(n),
            );
        }
        steps.push(FaultStep {
            at: t,
            fault: FaultKind::HealAll,
        });
        FaultSchedule {
            name: format!("random-{seed}"),
            seed,
            steps,
        }
    }

    /// Install every step on the cluster's calendar, tagged with its index.
    pub fn install(&self, cluster: &mut Cluster) {
        for (i, step) in self.steps.iter().enumerate() {
            cluster.schedule_fault(step.at, step.fault.clone(), Some(i as u32));
        }
    }

    /// Offset of the last step (the final heal, by construction).
    pub fn span(&self) -> SimDuration {
        self.steps.last().map(|s| s.at).unwrap_or(SimDuration::ZERO)
    }

    /// The last step at or before `at` (offsets are relative to an install
    /// at time zero), for naming the fault active when an anomaly happened.
    pub fn step_before(&self, at: SimTime) -> Option<(usize, &FaultStep)> {
        self.steps
            .iter()
            .enumerate()
            .rfind(|(_, s)| s.at.nanos() <= at.nanos())
    }

    /// Windows `[disrupt, heal)` during which a disruptive fault was active,
    /// as offsets. Used for recovery-latency stats.
    pub fn disruption_windows(&self) -> Vec<(SimDuration, SimDuration)> {
        let mut windows = Vec::new();
        let mut open: Option<SimDuration> = None;
        for step in &self.steps {
            if step.fault.is_heal() {
                if let Some(start) = open.take() {
                    windows.push((start, step.at));
                }
            } else if open.is_none() {
                open = Some(step.at);
            }
        }
        if let Some(start) = open {
            windows.push((start, self.span()));
        }
        windows
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule {} (seed {}):", self.name, self.seed)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  step {i} @ {}: {}", s.at, s.fault)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        let b = ScheduleBounds::default();
        let a1 = FaultSchedule::random(42, &b);
        let a2 = FaultSchedule::random(42, &b);
        assert_eq!(format!("{a1}"), format!("{a2}"));
        let other = FaultSchedule::random(43, &b);
        assert_ne!(format!("{a1}"), format!("{other}"));
    }

    #[test]
    fn random_alternates_disrupt_and_heal_and_ends_healed() {
        for seed in 0..50 {
            let s = FaultSchedule::random(seed, &ScheduleBounds::default());
            assert_eq!(s.steps.len(), 7); // 3 blocks x 2 + final HealAll
            for pair in s.steps.chunks(2) {
                if pair.len() == 2 {
                    assert!(!pair[0].fault.is_heal(), "{}", s);
                    assert!(pair[1].fault.is_heal(), "{}", s);
                }
            }
            assert_eq!(s.steps.last().unwrap().fault, FaultKind::HealAll);
            let windows = s.disruption_windows();
            assert_eq!(windows.len(), 3);
            assert!(windows.iter().all(|(a, b)| a < b));
        }
    }

    #[test]
    fn coordinator_crash_appends_a_crash_restart_block() {
        let b = ScheduleBounds {
            coordinator_crash: true,
            ..ScheduleBounds::default()
        };
        for seed in 0..50 {
            let s = FaultSchedule::random(seed, &b);
            // 3 blocks x 2 + crash/restart pair + final HealAll.
            assert_eq!(s.steps.len(), 9, "{s}");
            let crash = &s.steps[6].fault;
            let restart = &s.steps[7].fault;
            assert!(matches!(crash, FaultKind::CrashNode(_)), "{s}");
            match (crash, restart) {
                (FaultKind::CrashNode(a), FaultKind::RestartNode(b)) => {
                    assert_eq!(a, b, "{s}");
                }
                other => panic!("unexpected pair {other:?} in {s}"),
            }
            assert_eq!(s.steps.last().unwrap().fault, FaultKind::HealAll);
            // The extra block extends the span: 4 blocks of a hold and a
            // gap each, then the final heal.
            assert_eq!(
                s.span(),
                b.first_at + SimDuration((b.hold + b.gap).nanos() * 4)
            );
        }
    }

    #[test]
    fn quiesced_leader_crash_appends_a_region0_crash_block() {
        let b = ScheduleBounds {
            quiesced_leader_crash: true,
            ..ScheduleBounds::default()
        };
        for seed in 0..50 {
            let s = FaultSchedule::random(seed, &b);
            // 3 blocks x 2 + crash/restart pair + final HealAll.
            assert_eq!(s.steps.len(), 9, "{s}");
            match (&s.steps[6].fault, &s.steps[7].fault) {
                (FaultKind::CrashNode(crash), FaultKind::RestartNode(restart)) => {
                    assert_eq!(crash, restart, "{s}");
                    // Region 0 owns the first `nodes_per_region` node ids;
                    // the quiesced cold-range leaders live there.
                    assert!(crash.0 < b.nodes_per_region, "crash outside region 0: {s}");
                }
                other => panic!("unexpected pair {other:?} in {s}"),
            }
            assert_eq!(s.steps.last().unwrap().fault, FaultKind::HealAll);
            // 4 blocks of a hold and a gap each, then the final heal.
            assert_eq!(
                s.span(),
                b.first_at + SimDuration((b.hold + b.gap).nanos() * 4)
            );
        }
    }

    #[test]
    fn lifecycle_storm_appends_split_merge_blocks_mid_disruption() {
        let b = ScheduleBounds {
            lifecycle_storm: true,
            ..ScheduleBounds::default()
        };
        for seed in 0..50 {
            let s = FaultSchedule::random(seed, &b);
            // 3 blocks x 2 + 3 lifecycle blocks x 3 + final HealAll.
            assert_eq!(s.steps.len(), 16, "{s}");
            // Each lifecycle block is disrupt → lifecycle fault → heal, with
            // the lifecycle fault strictly inside the disruption window.
            let splits = s
                .steps
                .iter()
                .filter(|st| matches!(st.fault, FaultKind::SplitAt(_)))
                .count();
            let merges = s
                .steps
                .iter()
                .filter(|st| matches!(st.fault, FaultKind::MergeAt(_)))
                .count();
            assert_eq!((splits, merges), (2, 1), "{s}");
            for block in s.steps[6..15].chunks(3) {
                assert!(!block[0].fault.is_heal(), "{s}");
                assert!(
                    matches!(
                        block[1].fault,
                        FaultKind::SplitAt(_) | FaultKind::MergeAt(_)
                    ),
                    "{s}"
                );
                assert!(block[1].at > block[0].at, "{s}");
                assert!(block[1].at < block[2].at, "{s}");
                assert!(block[2].fault.is_heal(), "{s}");
            }
            assert_eq!(s.steps.last().unwrap().fault, FaultKind::HealAll);
            // 6 blocks of a hold and a gap each, then the final heal.
            assert_eq!(
                s.span(),
                b.first_at + SimDuration((b.hold + b.gap).nanos() * 6)
            );
        }
    }

    #[test]
    fn durability_storm_appends_volatile_crash_blocks() {
        let b = ScheduleBounds {
            durability_storm: true,
            ..ScheduleBounds::default()
        };
        for seed in 0..50 {
            let s = FaultSchedule::random(seed, &b);
            // 3 base blocks x 2 + node block (2) + region block (2) +
            // split-race block (3) + final HealAll.
            assert_eq!(s.steps.len(), 14, "{s}");
            match (&s.steps[6].fault, &s.steps[7].fault) {
                (FaultKind::CrashNodeVolatile(a), FaultKind::RestartNode(b)) => {
                    assert_eq!(a, b, "{s}");
                }
                other => panic!("unexpected node block {other:?} in {s}"),
            }
            assert_eq!(
                s.steps[8].fault,
                FaultKind::CrashRegionVolatile(RegionId(0)),
                "{s}"
            );
            assert_eq!(
                s.steps[9].fault,
                FaultKind::RestartRegion(RegionId(0)),
                "{s}"
            );
            match (&s.steps[10].fault, &s.steps[11].fault, &s.steps[12].fault) {
                (
                    FaultKind::CrashNodeVolatile(crash),
                    FaultKind::SplitAt(_),
                    FaultKind::RestartNode(restart),
                ) => {
                    assert_eq!(crash, restart, "{s}");
                    // The crashed node hosts a zs/ replica (region 0).
                    assert!(crash.0 < b.nodes_per_region, "crash outside region 0: {s}");
                    assert!(s.steps[11].at > s.steps[10].at, "{s}");
                    assert!(s.steps[11].at < s.steps[12].at, "{s}");
                }
                other => panic!("unexpected split-race block {other:?} in {s}"),
            }
            assert_eq!(s.steps.last().unwrap().fault, FaultKind::HealAll);
            // 6 blocks of a hold and a gap each, then the final heal.
            assert_eq!(
                s.span(),
                b.first_at + SimDuration((b.hold + b.gap).nanos() * 6)
            );
        }
    }

    /// Every random schedule, pinned: seeds 0–49 under the default bounds,
    /// region crashes allowed, each storm alone and every flag at once,
    /// their `Display` text folded into one FNV-1a digest. A change to how
    /// blocks are drawn or laid out moves it.
    #[test]
    fn random_schedules_are_pinned() {
        let d = ScheduleBounds::default();
        let bounds = [
            d.clone(),
            ScheduleBounds {
                allow_region_crash: true,
                ..d.clone()
            },
            ScheduleBounds {
                coordinator_crash: true,
                ..d.clone()
            },
            ScheduleBounds {
                quiesced_leader_crash: true,
                ..d.clone()
            },
            ScheduleBounds {
                lifecycle_storm: true,
                ..d.clone()
            },
            ScheduleBounds {
                durability_storm: true,
                ..d.clone()
            },
            ScheduleBounds {
                allow_region_crash: true,
                coordinator_crash: true,
                quiesced_leader_crash: true,
                lifecycle_storm: true,
                durability_storm: true,
                ..d
            },
        ];
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &bounds {
            for seed in 0..50 {
                for byte in FaultSchedule::random(seed, b).to_string().bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            hash, 0xcb80_1e5e_21fc_1686,
            "random schedules changed: digest {hash:#018x}"
        );
    }

    #[test]
    fn step_before_names_the_active_fault() {
        let s = FaultSchedule::scripted(
            "demo",
            vec![
                FaultStep {
                    at: SimDuration::from_secs(5),
                    fault: FaultKind::CrashNode(NodeId(0)),
                },
                FaultStep {
                    at: SimDuration::from_secs(10),
                    fault: FaultKind::HealAll,
                },
            ],
        );
        assert!(s
            .step_before(SimTime(SimDuration::from_secs(1).nanos()))
            .is_none());
        let (i, step) = s
            .step_before(SimTime(SimDuration::from_secs(7).nanos()))
            .unwrap();
        assert_eq!(i, 0);
        assert_eq!(step.fault, FaultKind::CrashNode(NodeId(0)));
        let (i, _) = s
            .step_before(SimTime(SimDuration::from_secs(30).nanos()))
            .unwrap();
        assert_eq!(i, 1);
        assert_eq!(s.span(), SimDuration::from_secs(10));
    }
}
