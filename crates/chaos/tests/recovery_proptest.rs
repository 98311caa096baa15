//! Property tests for parallel-commit status recovery.
//!
//! Each case drives one multi-range "victim" transaction through a
//! parallel commit while a randomized crash — of the coordinator's
//! gateway, the anchor (transaction-record) leaseholder, or the other
//! write's leaseholder — lands at a randomized point spanning every
//! STAGING stage: before the intents arrive, during stage evaluation,
//! between the STAGING ack and the explicit commit, and after. Reader
//! transactions contend on the victim's keys so any abandoned STAGING
//! record is found and driven through status recovery.
//!
//! Invariants checked at quiescence, whatever the crash point:
//!
//! * **Exactly one resolution** — every replica of the anchor range that
//!   holds the victim's record agrees on a single *finalized* status
//!   (never still Pending/Staging, never Committed on one replica and
//!   Aborted on another).
//! * **Atomicity** — both keys carry the victim's value or neither does,
//!   and the visible state matches the record's verdict.
//! * **Ack coherence** — a client-visible commit implies the record
//!   finalized as committed; a definitive `TxnAborted` implies it did
//!   not. Once any reader observes the victim's value, no later reader
//!   regresses to the pre-victim value.

use std::cell::RefCell;
use std::rc::Rc;

use mr_chaos::{build_chaos_cluster, ChaosConfig};
use mr_kv::cluster::Cluster;
use mr_kv::FaultKind;
use mr_proto::{Key, KvError, TxnId, TxnStatus, Value};
use mr_sim::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;

const ZS_KEY: &str = "zs/recovery";
const RS_KEY: &str = "rs/recovery";
const INIT: &str = "init";
const VICTIM: &str = "victim";

fn secs(s: u64) -> SimTime {
    SimTime(SimDuration::from_secs(s).nanos())
}

#[derive(Clone, Copy, Debug)]
enum CrashTarget {
    /// The victim's gateway: the coordinator dies mid-commit.
    Gateway,
    /// The leaseholder of the anchor range holding the STAGING record.
    AnchorLeaseholder,
    /// The leaseholder of the other (non-anchor) written range.
    OtherLeaseholder,
}

#[derive(Clone, Debug, Default)]
struct Observed {
    /// Client-visible victim outcome: Some(Ok(ts)) committed,
    /// Some(Err(_)) failed/ambiguous, None = no reply (coordinator died
    /// with the continuation chain severed by timeouts).
    victim: Option<Result<(), String>>,
    victim_definitely_aborted: bool,
    /// (key, value) pairs seen by reader transactions, in real-time order.
    reads: Vec<(String, Option<String>)>,
}

fn parse(v: &Option<Value>) -> Option<String> {
    v.as_ref()
        .map(|v| String::from_utf8_lossy(&v.0).into_owned())
}

/// One contending read of `key` from `gateway`; retries are left to the
/// routing layer, failures are ignored (the read exists to trigger
/// pushes, its observation is best-effort).
fn contend_read(c: &mut Cluster, gateway: NodeId, key: &'static str, obs: Rc<RefCell<Observed>>) {
    let h = c.txn_begin(gateway);
    c.txn_get(
        h,
        Key::from(key),
        Box::new(move |c, res| match res {
            Ok(v) => {
                obs.borrow_mut().reads.push((key.to_string(), parse(&v)));
                c.txn_commit(h, Box::new(|_, _| {}));
            }
            Err(_) => c.txn_rollback(h, Box::new(|_, _| {})),
        }),
    );
}

/// Run one crash-point scenario to quiescence and return the observations
/// plus the victim's finalized record statuses across the anchor replicas.
fn run_case(
    seed: u64,
    target: CrashTarget,
    crash_delay: SimDuration,
) -> (Observed, Vec<Option<TxnStatus>>, TxnId, bool) {
    let cfg = ChaosConfig {
        seed,
        ..ChaosConfig::default()
    };
    let mut c = build_chaos_cluster(&cfg);
    c.ingest(vec![
        (Key::from(ZS_KEY), Value::from(INIT)),
        (Key::from(RS_KEY), Value::from(INIT)),
    ])
    .unwrap();
    c.run_until(secs(3));

    let anchor_desc = c.registry().lookup(&Key::from(ZS_KEY)).expect("zs range");
    let (anchor_range, anchor_lh) = (anchor_desc.id, anchor_desc.leaseholder);
    let other_lh = c
        .registry()
        .lookup(&Key::from(RS_KEY))
        .expect("rs range")
        .leaseholder;
    // Coordinate from a remote region so commit RPCs cross the WAN and
    // the crash window spans distinct STAGING stages.
    let victim_gateway = NodeId(3);
    let crash_node = match target {
        CrashTarget::Gateway => victim_gateway,
        CrashTarget::AnchorLeaseholder => anchor_lh,
        CrashTarget::OtherLeaseholder => other_lh,
    };

    let obs = Rc::new(RefCell::new(Observed::default()));
    let victim_id = Rc::new(RefCell::new(None::<TxnId>));

    // The victim: a multi-range write issued at t=5s.
    let vobs = obs.clone();
    let vid = victim_id.clone();
    c.schedule(
        SimDuration::from_secs(2),
        Box::new(move |c| {
            let h = c.txn_begin(victim_gateway);
            *vid.borrow_mut() = Some(h.id);
            c.txn_put(
                h,
                Key::from(ZS_KEY),
                Some(Value::from(VICTIM)),
                Box::new(move |c, res| match res {
                    Ok(()) => c.txn_put(
                        h,
                        Key::from(RS_KEY),
                        Some(Value::from(VICTIM)),
                        Box::new(move |c, res| match res {
                            Ok(()) => c.txn_commit(
                                h,
                                Box::new(move |_, res| {
                                    let mut o = vobs.borrow_mut();
                                    o.victim = Some(match &res {
                                        Ok(_) => Ok(()),
                                        Err(e) => Err(format!("{e:?}")),
                                    });
                                    if let Err(KvError::TxnAborted { .. }) = &res {
                                        o.victim_definitely_aborted = true;
                                    }
                                }),
                            ),
                            Err(e) => {
                                vobs.borrow_mut().victim = Some(Err(format!("{e:?}")));
                                c.txn_rollback(h, Box::new(|_, _| {}));
                            }
                        }),
                    ),
                    Err(e) => {
                        vobs.borrow_mut().victim = Some(Err(format!("{e:?}")));
                        c.txn_rollback(h, Box::new(|_, _| {}));
                    }
                }),
            );
        }),
    );

    // The crash lands at a randomized offset from the victim's start,
    // spanning every STAGING stage; the node restarts 4s later.
    c.schedule_fault(
        SimDuration::from_secs(2) + crash_delay,
        FaultKind::CrashNode(crash_node),
        None,
    );
    c.schedule_fault(
        SimDuration::from_secs(6) + crash_delay,
        FaultKind::RestartNode(crash_node),
        None,
    );

    // Contending readers from a third-region gateway: they push whatever
    // intent or STAGING record the crash abandoned, driving recovery.
    for i in 0..10u64 {
        let obs_a = obs.clone();
        let obs_b = obs.clone();
        c.schedule(
            SimDuration::from_secs(3 + 2 * i),
            Box::new(move |c| contend_read(c, NodeId(6), ZS_KEY, obs_a)),
        );
        c.schedule(
            SimDuration::from_secs(4 + 2 * i),
            Box::new(move |c| contend_read(c, NodeId(6), RS_KEY, obs_b)),
        );
    }

    c.run_until(secs(40));
    // Final settled reads of both keys, after every fault healed.
    for key in [ZS_KEY, RS_KEY] {
        let obs_f = obs.clone();
        c.schedule(
            SimDuration::from_millis(10),
            Box::new(move |c| contend_read(c, NodeId(0), key, obs_f)),
        );
    }
    c.run_until(secs(45));
    c.run_until_quiescent(secs(55));

    let victim = victim_id.borrow().expect("victim txn began");
    let statuses: Vec<Option<TxnStatus>> = c
        .registry()
        .get(anchor_range)
        .expect("anchor range")
        .replica_nodes()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|n| {
            c.node(n)
                .replicas
                .get(&anchor_range)
                .and_then(|rep| rep.store.txn_record(victim))
                .map(|rec| rec.status)
        })
        .collect();
    let obs = obs.borrow().clone();
    let any_record = statuses.iter().any(|s| s.is_some());
    (obs, statuses, victim, any_record)
}

fn check_case(seed: u64, target: CrashTarget, crash_delay_ms: u64) -> Result<(), TestCaseError> {
    let crash_delay = SimDuration::from_millis(crash_delay_ms);
    let (obs, statuses, victim, any_record) = run_case(seed, target, crash_delay);
    let ctx = format!(
        "seed {seed} target {target:?} delay {crash_delay_ms}ms txn {victim}: \
         victim={:?} statuses={statuses:?} reads={:?}",
        obs.victim, obs.reads
    );

    // Exactly one resolution: any replica holding the record agrees on a
    // single finalized verdict.
    let verdicts: Vec<TxnStatus> = statuses.iter().flatten().copied().collect();
    prop_assert!(
        verdicts.windows(2).all(|w| w[0] == w[1]),
        "split verdict: {ctx}"
    );
    for s in &verdicts {
        prop_assert!(
            s.is_finalized(),
            "record left unfinalized at quiescence: {ctx}"
        );
    }
    let committed = verdicts.first() == Some(&TxnStatus::Committed);

    // Atomicity: the final settled reads (the last observation of each
    // key) both carry the victim's value or both carry the initial one.
    let last = |key: &str| {
        obs.reads
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.clone())
    };
    let (zs_final, rs_final) = (last(ZS_KEY), last(RS_KEY));
    prop_assert!(
        zs_final.is_some() && rs_final.is_some(),
        "no final reads: {ctx}"
    );
    if committed {
        prop_assert_eq!(
            zs_final.as_deref(),
            Some(VICTIM),
            "committed but invisible: {}",
            ctx
        );
        prop_assert_eq!(
            rs_final.as_deref(),
            Some(VICTIM),
            "committed but invisible: {}",
            ctx
        );
    } else {
        prop_assert_eq!(
            zs_final.as_deref(),
            Some(INIT),
            "aborted but visible: {}",
            ctx
        );
        prop_assert_eq!(
            rs_final.as_deref(),
            Some(INIT),
            "aborted but visible: {}",
            ctx
        );
    }

    // Ack coherence.
    if let Some(Ok(())) = &obs.victim {
        prop_assert!(any_record, "acked with no record: {ctx}");
        prop_assert!(committed, "acked but not committed: {ctx}");
    }
    if obs.victim_definitely_aborted {
        prop_assert!(!committed, "TxnAborted surfaced but committed: {ctx}");
    }

    // No reader regresses: once the victim's value is observed on a key,
    // every later read of that key observes it too (single writer).
    for key in [ZS_KEY, RS_KEY] {
        let mut seen_victim = false;
        for (k, v) in &obs.reads {
            if k != key {
                continue;
            }
            if seen_victim {
                prop_assert_eq!(
                    v.as_deref(),
                    Some(VICTIM),
                    "value regressed on {}: {}",
                    key,
                    ctx
                );
            }
            if v.as_deref() == Some(VICTIM) {
                seen_victim = true;
            }
        }
        if seen_victim {
            prop_assert!(committed, "readers saw an aborted write on {key}: {ctx}");
        }
    }
    Ok(())
}

fn arb_target() -> impl Strategy<Value = CrashTarget> {
    prop_oneof![
        Just(CrashTarget::Gateway),
        Just(CrashTarget::AnchorLeaseholder),
        Just(CrashTarget::OtherLeaseholder),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Whatever the crash point, the victim transaction resolves exactly
    /// once, atomically, and consistently with what the client was told.
    #[test]
    fn every_staging_crash_point_resolves_exactly_once(
        seed in 1u64..=20_000,
        target in arb_target(),
        // 0..300ms after the victim starts: covers the intent RPCs in
        // flight (~31ms one way), stage evaluation, the window between
        // STAGING ack (~64ms) and the explicit commit (~190ms), and after.
        crash_delay_ms in 0u64..=300,
    ) {
        check_case(seed, target, crash_delay_ms)?;
    }
}

/// Deterministic corner pins on top of the random sweep: the classic
/// coordinator-death windows at each boundary of the commit protocol.
#[test]
fn pinned_coordinator_crash_windows() {
    for (seed, delay_ms) in [(11u64, 0u64), (12, 35), (13, 70), (14, 130), (15, 250)] {
        check_case(seed, CrashTarget::Gateway, delay_ms)
            .unwrap_or_else(|e| panic!("seed {seed} delay {delay_ms}: {e:?}"));
    }
}
