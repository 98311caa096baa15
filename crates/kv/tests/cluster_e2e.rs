//! End-to-end tests of the KV stack: cluster transport + Raft replication +
//! leases + closed timestamps + the transaction coordinator, on the paper's
//! five-region topology (Table 1 RTTs).

use std::cell::RefCell;
use std::rc::Rc;

use mr_clock::Timestamp;
use mr_kv::cluster::{Cluster, ClusterConfig, ReadOptions, Staleness, SIDE_TRANSPORT_INTERVAL};
use mr_kv::zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal};
use mr_proto::{Key, KvError, Span, Value};
use mr_sim::{NodeId, RegionId, RttMatrix, SimDuration, SimTime, Topology};

const US_EAST: RegionId = RegionId(0);

fn paper_topology() -> Topology {
    Topology::build(
        &RttMatrix::paper_table1_regions(),
        3,
        RttMatrix::paper_table1(),
    )
}

fn all_regions() -> Vec<RegionId> {
    (0..5).map(RegionId).collect()
}

fn cluster(cfg: ClusterConfig) -> Cluster {
    Cluster::new(paper_topology(), cfg)
}

fn deadline() -> SimTime {
    SimTime(SimDuration::from_secs(600).nanos())
}

/// First node of a region (clients connect to a collocated gateway).
fn gw(region: u32) -> NodeId {
    NodeId(region * 3)
}

/// Run a write transaction to completion, returning (commit_ts, latency).
fn write_key(c: &mut Cluster, gateway: NodeId, key: &str, val: &str) -> (Timestamp, SimDuration) {
    let start = c.now();
    let result: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    let h = c.txn_begin(gateway);
    let key = Key::from(key);
    let val = Value::from(val);
    c.txn_put(
        h,
        key,
        Some(val),
        Box::new(move |c, res| {
            res.unwrap();
            c.txn_commit(
                h,
                Box::new(move |_c, res| {
                    *r2.borrow_mut() = Some(res.unwrap());
                }),
            );
        }),
    );
    c.run_until_quiescent(deadline());
    let ts = result.borrow().expect("commit did not complete");
    (ts, c.now() - start)
}

/// Run a read to completion, returning (value, latency).
fn read_key(
    c: &mut Cluster,
    gateway: NodeId,
    key: &str,
    opts: ReadOptions,
) -> (Result<Option<Value>, KvError>, SimDuration) {
    let start = c.now();
    let result: Rc<RefCell<Option<Result<Option<Value>, KvError>>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    c.read(
        gateway,
        Key::from(key),
        opts,
        Box::new(move |_c, res| {
            *r2.borrow_mut() = Some(res);
        }),
    );
    c.run_until_quiescent(deadline());
    let res = result.borrow_mut().take().expect("read did not complete");
    (res, c.now() - start)
}

fn fresh() -> ReadOptions {
    ReadOptions::default()
}

#[test]
fn regional_write_and_read_from_home_region_is_fast() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    let (_, wlat) = write_key(&mut c, gw(0), "k1", "v1");
    // Local gateway + in-region raft quorum: a few ms.
    assert!(
        wlat < SimDuration::from_millis(30),
        "home-region write took {wlat}"
    );
    let (val, rlat) = read_key(&mut c, gw(0), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    assert!(
        rlat < SimDuration::from_millis(10),
        "home-region read took {rlat}"
    );
}

#[test]
fn regional_remote_access_pays_wan_round_trips() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // From europe-west2 (region 2), RTT to us-east1 is 87ms.
    let (_, wlat) = write_key(&mut c, gw(2), "k1", "v1");
    assert!(
        wlat >= SimDuration::from_millis(87),
        "remote write unexpectedly fast: {wlat}"
    );
    let (val, rlat) = read_key(&mut c, gw(2), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    assert!(
        rlat >= SimDuration::from_millis(80),
        "remote fresh read should cross the WAN: {rlat}"
    );
}

#[test]
fn stale_read_is_served_by_local_non_voting_replica() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    write_key(&mut c, gw(0), "k1", "v1");
    // Let replication + closed timestamps advance well past the write.
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    let before = c.metrics().follower_reads_served;
    let opts = ReadOptions {
        staleness: Staleness::ExactAgo(SimDuration::from_secs(5)),
        fallback_to_leaseholder: true,
    };
    // From australia-southeast1 (region 4) — 198ms from the leaseholder.
    let (val, rlat) = read_key(&mut c, gw(4), "k1", opts);
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    assert!(
        rlat < SimDuration::from_millis(5),
        "stale read should be region-local: {rlat}"
    );
    assert_eq!(c.metrics().follower_reads_served, before + 1);
}

#[test]
fn bounded_staleness_negotiates_local_timestamp() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    write_key(&mut c, gw(0), "k1", "v1");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    let opts = ReadOptions {
        staleness: Staleness::BoundedMaxStaleness(SimDuration::from_secs(30)),
        fallback_to_leaseholder: false,
    };
    let (val, rlat) = read_key(&mut c, gw(3), "k1", opts);
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    // Negotiation + read, both at the local replica.
    assert!(
        rlat < SimDuration::from_millis(5),
        "bounded-staleness read should stay local: {rlat}"
    );
}

/// A bounded-staleness scan follows the point-read rule when the nearest
/// replica is further behind than the bound: without leaseholder fallback it
/// is refused, with it the leaseholder serves it at the bound — and nothing
/// is first attempted at the follower that just said it cannot serve.
#[test]
fn bounded_scan_behind_the_bound_errors_or_falls_back_like_a_point_read() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    write_key(&mut c, gw(0), "k1", "v1");
    write_key(&mut c, gw(0), "k2", "v2");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    // 1ms of staleness is far inside the closed-timestamp lag of a
    // lag-policy follower.
    let mut scan = |fallback_to_leaseholder: bool| {
        let opts = ReadOptions {
            staleness: Staleness::BoundedMaxStaleness(SimDuration::from_millis(1)),
            fallback_to_leaseholder,
        };
        let out = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&out);
        let (start, rpcs) = (c.now(), c.metrics().rpcs_sent);
        c.scan(
            gw(4),
            Span::new(Key::from("k"), Key::from("l")),
            10,
            opts,
            Box::new(move |_, res| *o2.borrow_mut() = Some(res)),
        );
        c.run_until_quiescent(deadline());
        let res = out.borrow_mut().take().expect("scan did not complete");
        (res, c.now() - start, c.metrics().rpcs_sent - rpcs)
    };

    let (res, lat, rpcs) = scan(false);
    match res {
        Err(KvError::StalenessBoundExceeded {
            min_ts,
            max_safe_ts,
        }) => assert!(max_safe_ts < min_ts),
        other => panic!("expected StalenessBoundExceeded, got {other:?}"),
    }
    assert_eq!(rpcs, 1, "only the negotiation was sent");
    assert!(lat < SimDuration::from_millis(5), "refused locally: {lat}");

    let (res, lat, rpcs) = scan(true);
    let rows = res.unwrap();
    assert_eq!(
        rows,
        vec![
            (Key::from("k1"), Value::from("v1")),
            (Key::from("k2"), Value::from("v2"))
        ]
    );
    assert_eq!(rpcs, 2, "negotiation, then straight to the leaseholder");
    // One WAN round trip to us-east1 (198ms from australia-southeast1).
    assert!(lat > SimDuration::from_millis(150) && lat < SimDuration::from_millis(250));
}

#[test]
fn global_table_reads_fast_everywhere_writes_pay_commit_wait() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lead,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // Write from the primary region: commit wait ≈ closed-ts lead (≈ raft +
    // replication + max_offset ≈ 380ms with defaults).
    let (commit_ts, wlat) = write_key(&mut c, gw(0), "g1", "v1");
    assert!(commit_ts.synthetic, "global commits are future-time");
    assert!(
        wlat >= SimDuration::from_millis(300),
        "global write should commit-wait: {wlat}"
    );
    assert!(
        wlat <= SimDuration::from_millis(800),
        "global write unexpectedly slow: {wlat}"
    );

    // Wait for replication, then read from every region: all local & fresh.
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    for region in 0..5u32 {
        let (val, rlat) = read_key(&mut c, gw(region), "g1", fresh());
        assert_eq!(val.unwrap(), Some(Value::from("v1")), "region {region}");
        assert!(
            rlat < SimDuration::from_millis(10),
            "global read from region {region} took {rlat}"
        );
    }
    assert!(c.metrics().follower_reads_served >= 4);
}

#[test]
fn global_reader_observing_recent_write_commit_waits_briefly() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lead,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // Start the write but do NOT wait for it to finish: read concurrently
    // from a remote region once the value has replicated.
    let h = c.txn_begin(gw(0));
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    c.txn_put(
        h,
        Key::from("g1"),
        Some(Value::from("v1")),
        Box::new(move |c, res| {
            res.unwrap();
            c.txn_commit(
                h,
                Box::new(move |_c, res| {
                    res.unwrap();
                    *d2.borrow_mut() = true;
                }),
            );
        }),
    );
    // Replication to the far follower takes ~1 one-way WAN delay; the write
    // sits at a future timestamp. Read just after replication lands: the
    // value is within the reader's uncertainty window → uncertainty restart
    // + reader-side commit wait (bounded by max_offset).
    c.run_until(SimTime(SimDuration::from_millis(5_450).nanos()));
    let before_restarts = c.metrics().uncertainty_restarts;
    let (val, rlat) = read_key(&mut c, gw(4), "g1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    assert!(
        c.metrics().uncertainty_restarts > before_restarts,
        "reader should have hit the uncertainty window"
    );
    // Reader-side commit wait is bounded by max_clock_offset (250ms) plus
    // redirects and the uncertainty-refresh round-trip — still well below
    // the writer's full closed-timestamp lead (~580ms).
    assert!(
        rlat <= SimDuration::from_millis(550),
        "reader commit wait out of bounds: {rlat}"
    );
    assert!(*done.borrow(), "writer should eventually finish");
}

#[test]
fn read_write_conflict_blocks_reader_during_two_phase_commit() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    // Two ranges so the writing transaction takes the two-phase path and
    // holds intents while its commit crosses the WAN.
    c.create_range(Span::new(Key::from("a"), Key::from("m")), zc.clone())
        .unwrap();
    c.create_range(Span::new(Key::from("m"), Key::default()), zc) // empty end = unbounded
        .unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // A remote (europe) transaction writes to both ranges and commits; its
    // intents are pinned while Put/EndTxn/Resolve round-trips cross the WAN.
    let h = c.txn_begin(gw(2));
    let commit_done = Rc::new(RefCell::new(false));
    let cd = Rc::clone(&commit_done);
    c.txn_put(
        h,
        Key::from("k1"),
        Some(Value::from("v1")),
        Box::new(move |c, res| {
            res.unwrap();
            c.txn_put(
                h,
                Key::from("z1"),
                Some(Value::from("v2")),
                Box::new(move |c2, res| {
                    res.unwrap();
                    c2.txn_commit(
                        h,
                        Box::new(move |_c, res| {
                            res.unwrap();
                            *cd.borrow_mut() = true;
                        }),
                    );
                }),
            );
        }),
    );
    // Let the intents land at the us-east leaseholders (one-way WAN ~44ms)
    // but not the full commit (~3 half-round-trips).
    let t0 = c.now();
    c.run_until(SimTime((t0 + SimDuration::from_millis(60)).nanos()));
    assert!(!*commit_done.borrow(), "commit should still be in flight");

    // A fresh read from the home region blocks on the intent.
    let read_result: Rc<RefCell<Option<Option<Value>>>> = Rc::new(RefCell::new(None));
    let rr = Rc::clone(&read_result);
    c.read(
        gw(0),
        Key::from("k1"),
        fresh(),
        Box::new(move |_c, res| {
            *rr.borrow_mut() = Some(res.unwrap());
        }),
    );
    c.run_until(SimTime((t0 + SimDuration::from_millis(80)).nanos()));
    assert!(read_result.borrow().is_none(), "read should be blocked");

    // Once the writer commits and resolves, the read unblocks and observes
    // the value.
    c.run_until_quiescent(deadline());
    assert!(*commit_done.borrow());
    assert_eq!(
        read_result.borrow().clone().flatten(),
        Some(Value::from("v1"))
    );
}

#[test]
fn write_write_conflict_serializes() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // Two concurrent writers to the same key.
    let mut commits: Vec<Rc<RefCell<Option<Timestamp>>>> = Vec::new();
    for i in 0..2 {
        let h = c.txn_begin(gw(i));
        let slot: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
        let s2 = Rc::clone(&slot);
        commits.push(slot);
        c.txn_put(
            h,
            Key::from("hot"),
            Some(Value::from(if i == 0 { "a" } else { "b" })),
            Box::new(move |c, res| {
                res.unwrap();
                c.txn_commit(
                    h,
                    Box::new(move |_c, res| {
                        *s2.borrow_mut() = Some(res.unwrap());
                    }),
                );
            }),
        );
    }
    c.run_until_quiescent(deadline());
    let t0 = commits[0].borrow().unwrap();
    let t1 = commits[1].borrow().unwrap();
    assert_ne!(t0, t1, "conflicting writes must serialize");
    // The later committer's value wins.
    let (val, _) = read_key(&mut c, gw(0), "hot", fresh());
    let expect = if t0 > t1 { "a" } else { "b" };
    assert_eq!(val.unwrap(), Some(Value::from(expect)));
}

#[test]
fn region_survivability_survives_home_region_failure() {
    let cfg = ClusterConfig {
        rpc_timeout: Some(SimDuration::from_secs(3)),
        ..ClusterConfig::default()
    };
    let mut c = cluster(cfg);
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Region,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "k1", "before");

    // Kill the home region. Raft elects a new leader among the surviving
    // voters; the lease follows it.
    c.fail_region_by_name("us-east1");
    c.run_until(SimTime(SimDuration::from_secs(30).nanos()));

    // Writes and reads still succeed from a surviving region.
    let (_, _) = write_key(&mut c, gw(1), "k2", "after");
    let (val, _) = read_key(&mut c, gw(1), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("before")));
    let (val, _) = read_key(&mut c, gw(1), "k2", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("after")));
    assert!(c.metrics().lease_transfers >= 1);
}

#[test]
fn zone_survivability_loses_writes_on_home_region_failure() {
    let cfg = ClusterConfig {
        rpc_timeout: Some(SimDuration::from_millis(500)),
        ..ClusterConfig::default()
    };
    let mut c = cluster(cfg);
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "k1", "v1");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    c.fail_region_by_name("us-east1");
    c.run_until(SimTime(SimDuration::from_secs(15).nanos()));

    // All three voters are gone: writes cannot find a quorum and fail.
    let failed: Rc<RefCell<Option<KvError>>> = Rc::new(RefCell::new(None));
    let f2 = Rc::clone(&failed);
    let h = c.txn_begin(gw(1));
    c.txn_put(
        h,
        Key::from("k2"),
        Some(Value::from("v2")),
        Box::new(move |c, res| {
            res.unwrap(); // buffered locally; the commit is what fails
            c.txn_commit(
                h,
                Box::new(move |_c, res| {
                    *f2.borrow_mut() = Some(res.unwrap_err());
                }),
            );
        }),
    );
    c.run_until_quiescent(deadline());
    assert!(matches!(
        failed.borrow().as_ref(),
        Some(KvError::RangeUnavailable { .. })
    ));

    // But stale reads from surviving non-voting replicas still work
    // (§6.2.2), at timestamps the dead leaseholder had already closed
    // (with the default 3s lag, anything ≤ failure_time - 3s).
    let opts = ReadOptions {
        staleness: Staleness::ExactAt(Timestamp::new(SimDuration::from_secs(6).nanos(), 0)),
        fallback_to_leaseholder: false,
    };
    let (val, rlat) = read_key(&mut c, gw(1), "k1", opts);
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    assert!(
        rlat < SimDuration::from_millis(5),
        "surviving-replica stale read should be local: {rlat}"
    );
}

#[test]
fn zone_survivability_survives_single_zone_failure() {
    let cfg = ClusterConfig {
        rpc_timeout: Some(SimDuration::from_secs(3)),
        ..ClusterConfig::default()
    };
    let mut c = cluster(cfg);
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "k1", "v1");

    // Fail the zone of the current leaseholder.
    let lh = c.registry().iter().next().unwrap().leaseholder;
    c.fail_zone_of(lh);
    c.run_until(SimTime(SimDuration::from_secs(30).nanos()));

    // The two surviving in-region voters elect a leader; writes continue
    // from another gateway in the home region.
    let gateway = c
        .topology()
        .nodes_in_region(US_EAST)
        .first()
        .copied()
        .expect("survivors in home region");
    let (_, wlat) = write_key(&mut c, gateway, "k2", "v2");
    assert!(wlat < SimDuration::from_secs(2), "write took {wlat}");
    let (val, _) = read_key(&mut c, gateway, "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
}

#[test]
fn lease_transfer_moves_fast_reads() {
    let mut c = cluster(ClusterConfig::default());
    // Region-survivable so voters exist outside the home region.
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Region,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    let range = c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "k1", "v1");

    // Find a voter outside us-east1 and hand it the lease.
    let target = {
        let desc = c.registry().get(range).unwrap();
        let topo = c.topology();
        desc.replicas
            .iter()
            .filter(|p| p.voting && topo.region_of(p.node) != US_EAST)
            .map(|p| p.node)
            .next()
            .expect("remote voter")
    };
    let target_region = c.topology().region_of(target).0;
    c.transfer_lease(range, target);
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    // Fresh reads from the new home region are now local.
    let (val, rlat) = read_key(&mut c, gw(target_region), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    assert!(
        rlat < SimDuration::from_millis(10),
        "read after lease transfer took {rlat}"
    );
    // Writes are serializable across the transfer (tscache low-water).
    let (_, _) = write_key(&mut c, gw(target_region), "k1", "v2");
    let (val, _) = read_key(&mut c, gw(target_region), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v2")));
}

#[test]
fn uncertainty_interval_enforces_real_time_order_across_skewed_clocks() {
    // Reader's clock is slower than the writer's: without uncertainty
    // intervals the reader would miss the write.
    let cfg = ClusterConfig {
        skew_amplitude: SimDuration::ZERO,
        ..ClusterConfig::default()
    };
    let mut c = cluster(cfg);
    // Manually skew: writer gateway fast by 100ms, reader slow by 100ms
    // (within the 250ms bound).
    c.set_node_skew(gw(0), 100_000_000);
    c.set_node_skew(gw(1), -100_000_000);
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // Write completes in real time before the read begins.
    write_key(&mut c, gw(0), "k1", "v1");
    let (val, _) = read_key(&mut c, gw(1), "k1", fresh());
    assert_eq!(
        val.unwrap(),
        Some(Value::from("v1")),
        "linearizability: read after write must observe it"
    );
}

#[test]
fn read_your_writes_within_txn() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    let h = c.txn_begin(gw(0));
    let seen: Rc<RefCell<Option<Option<Value>>>> = Rc::new(RefCell::new(None));
    let s2 = Rc::clone(&seen);
    c.txn_put(
        h,
        Key::from("k1"),
        Some(Value::from("mine")),
        Box::new(move |c, res| {
            res.unwrap();
            c.txn_get(
                h,
                Key::from("k1"),
                Box::new(move |c2, res| {
                    *s2.borrow_mut() = Some(res.unwrap());
                    c2.txn_commit(
                        h,
                        Box::new(|_c, res| {
                            res.unwrap();
                        }),
                    );
                }),
            );
        }),
    );
    c.run_until_quiescent(deadline());
    assert_eq!(seen.borrow().clone().flatten(), Some(Value::from("mine")));
}

#[test]
fn txn_scan_sees_consistent_snapshot() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "a", "1");
    write_key(&mut c, gw(0), "b", "2");
    write_key(&mut c, gw(0), "c", "3");

    let h = c.txn_begin(gw(0));
    let rows: Rc<RefCell<Vec<(Key, Value)>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = Rc::clone(&rows);
    c.txn_scan(
        h,
        Span::new(Key::from("a"), Key::from("z")),
        100,
        Box::new(move |c, res| {
            *r2.borrow_mut() = res.unwrap();
            c.txn_commit(
                h,
                Box::new(|_c, res| {
                    res.unwrap();
                }),
            );
        }),
    );
    c.run_until_quiescent(deadline());
    let rows = rows.borrow();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].0, Key::from("a"));
    assert_eq!(rows[2].1, Value::from("3"));
}

#[test]
fn restricted_placement_denies_remote_stale_reads() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Restricted,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    write_key(&mut c, gw(0), "k1", "v1");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    // All replicas are domiciled in us-east1, so a "nearest replica" stale
    // read from asia must cross the WAN.
    let opts = ReadOptions {
        staleness: Staleness::ExactAgo(SimDuration::from_secs(5)),
        fallback_to_leaseholder: true,
    };
    let (val, rlat) = read_key(&mut c, gw(3), "k1", opts);
    assert_eq!(val.unwrap(), Some(Value::from("v1")));
    assert!(
        rlat >= SimDuration::from_millis(100),
        "restricted placement should force remote reads: {rlat}"
    );
}

#[test]
fn excessive_clock_skew_permits_stale_reads_but_not_corruption() {
    // §6.2.3: single-key linearizability relies on clocks staying within
    // max_clock_offset. Violate the bound deliberately: a write committed
    // in real time can fall outside a slow reader's uncertainty window and
    // be missed (a stale read) — while serializability (and the data
    // itself) is unaffected.
    let cfg = ClusterConfig {
        skew_amplitude: SimDuration::ZERO,
        ..ClusterConfig::default()
    };
    let mut c = cluster(cfg);
    // Writer's gateway runs 200ms fast, reader's 200ms slow: pairwise skew
    // 400ms >> the 250ms bound.
    c.set_node_skew(gw(0), 200_000_000);
    c.set_node_skew(gw(1), -200_000_000);
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "k1", "old");
    c.run_until(SimTime(SimDuration::from_secs(6).nanos()));

    // Fresh overwrite from the fast clock...
    write_key(&mut c, gw(0), "k1", "new");
    // ...and an immediate fresh read via the slow clock: its read
    // timestamp + 250ms uncertainty window ends ~150ms short of the
    // write's timestamp, so the (completed!) write is invisible — the
    // §6.2.3 stale-read anomaly.
    let (val, _) = read_key(&mut c, gw(1), "k1", fresh());
    assert_eq!(
        val.unwrap(),
        Some(Value::from("old")),
        "out-of-bounds skew should reproduce the stale-read anomaly"
    );

    // The anomaly is bounded staleness, not corruption: once real time
    // passes the write's timestamp, every reader sees it.
    c.run_until(SimTime(c.now().nanos() + SimDuration::from_secs(1).nanos()));
    let (val, _) = read_key(&mut c, gw(1), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("new")));
}

#[test]
fn gc_collects_old_versions_without_breaking_reads() {
    let cfg = ClusterConfig {
        gc_interval: SimDuration::from_secs(10),
        ..ClusterConfig::default()
    };
    let mut c = cluster(cfg);
    let mut zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    // Longer than the 10s default, so the reads below can tell them apart.
    zc.gc_ttl = SimDuration::from_secs(15);
    let range = c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(2).nanos()));
    // Ten versions of the same key over 10 seconds.
    for i in 0..10 {
        write_key(&mut c, gw(0), "k1", &format!("v{i}"));
        let t = c.now();
        c.run_until(SimTime(t.nanos() + SimDuration::from_secs(1).nanos()));
    }
    // Far past the TTL: old versions get collected.
    c.run_until(SimTime(SimDuration::from_secs(60).nanos()));
    assert!(
        c.metrics().gc_versions_removed > 0,
        "GC should have removed shadowed versions"
    );
    // Fresh reads still see the newest value...
    let (val, _) = read_key(&mut c, gw(1), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v9")));
    // ...and stale reads within the range's own TTL window still work:
    // 12s back is inside its 15s, outside the default 10s.
    let info = c.storage_info_of(range).unwrap();
    assert_eq!(info.gc_ttl, SimDuration::from_secs(15));
    assert!(!info.gc_threshold.is_zero());
    let opts = |secs| ReadOptions {
        staleness: Staleness::ExactAgo(SimDuration::from_secs(secs)),
        fallback_to_leaseholder: true,
    };
    let (val, _) = read_key(&mut c, gw(2), "k1", opts(12));
    assert_eq!(val.unwrap(), Some(Value::from("v9")));
    // Past the TTL the history is gone and the read says so.
    let (val, _) = read_key(&mut c, gw(2), "k1", opts(20));
    assert!(matches!(val, Err(KvError::BatchTimestampBeforeGC { .. })));
}

#[test]
fn aost_read_below_gc_threshold_errors_unless_protected() {
    let cfg = ClusterConfig {
        gc_interval: SimDuration::from_secs(5),
        ..ClusterConfig::default()
    };
    let mut c = cluster(cfg);
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    // Default zone gc.ttl: 10s.
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let (old_ts, _) = write_key(&mut c, gw(0), "k1", "old");
    c.run_until(SimTime(SimDuration::from_secs(6).nanos()));
    // Pin the old version's timestamp before GC can pass it.
    let pin = c.protect_timestamp(old_ts);
    // Overwrite-heavy phase, far past the TTL.
    for i in 0..20 {
        write_key(&mut c, gw(0), "k1", &format!("v{i}"));
        let t = c.now();
        c.run_until(SimTime(t.nanos() + SimDuration::from_secs(2).nanos()));
    }
    let aost = |ts| ReadOptions {
        staleness: Staleness::ExactAt(ts),
        fallback_to_leaseholder: true,
    };
    // The protection held the threshold: the AOST read reaches history
    // far older than the TTL and sees exactly the old value.
    let (val, _) = read_key(&mut c, gw(1), "k1", aost(old_ts));
    assert_eq!(
        val.unwrap(),
        Some(Value::from("old")),
        "protected AOST read must see the pinned version"
    );
    // Release the pin; the next GC pass advances the threshold past it.
    assert!(c.release_protected_timestamp(pin));
    let t = c.now();
    c.run_until(SimTime(t.nanos() + SimDuration::from_secs(20).nanos()));
    let (val, _) = read_key(&mut c, gw(1), "k1", aost(old_ts));
    match val {
        Err(KvError::BatchTimestampBeforeGC { read_ts, threshold }) => {
            assert_eq!(read_ts, old_ts);
            assert!(threshold > read_ts);
        }
        other => panic!("expected BatchTimestampBeforeGC, got {other:?}"),
    }
    // Fresh reads are untouched by GC.
    let (val, _) = read_key(&mut c, gw(0), "k1", fresh());
    assert_eq!(val.unwrap(), Some(Value::from("v19")));
}

#[test]
fn volatile_crash_recovers_from_wal_and_serves_all_acked_writes() {
    let mut c = cluster(ClusterConfig::default());
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    write_key(&mut c, gw(0), "k1", "v1");
    write_key(&mut c, gw(0), "k2", "v2");

    // Crash the home-region leaseholder, dropping its volatile state: the
    // memtable and unsynced tail are gone; the replica replays its WAL.
    c.inject_fault(&mr_kv::fault::FaultKind::CrashNodeVolatile(NodeId(0)), None);
    assert!(
        c.events.count_kind("wal_recovered") >= 1,
        "volatile crash must trigger WAL recovery"
    );
    let t = c.now();
    c.run_until(SimTime(t.nanos() + SimDuration::from_secs(2).nanos()));

    // The range fails over and keeps accepting writes while n0 is down
    // (via a live gateway in the same region).
    write_key(&mut c, NodeId(1), "k3", "v3");

    // Revive: the recovered replica catches up through normal replication
    // and every acknowledged write is still there.
    c.inject_fault(&mr_kv::fault::FaultKind::RestartNode(NodeId(0)), None);
    let t = c.now();
    c.run_until(SimTime(t.nanos() + SimDuration::from_secs(5).nanos()));
    for (k, v) in [("k1", "v1"), ("k2", "v2"), ("k3", "v3")] {
        let (val, _) = read_key(&mut c, gw(0), k, fresh());
        assert_eq!(val.unwrap(), Some(Value::from(v)), "lost {k} across crash");
    }
}

/// The latency instruments the coordinator records through are the
/// registry's own series, one per class of operation that has succeeded:
/// after a mixed run each `kv.op.latency{op, policy, region}` holds exactly
/// the successful operations of its class, and `kv.txn.attr.latency` one
/// sample per finished transaction.
#[test]
fn op_latency_series_count_the_successful_ops_of_their_class() {
    let mut c = cluster(ClusterConfig::default());
    let zone = |policy| {
        derive_zone_config(
            US_EAST,
            &all_regions(),
            SurvivalGoal::Zone,
            PlacementPolicy::Default,
            policy,
        )
    };
    let lag = Span::new(Key::MIN, Key::from("m"));
    let lead = Span::new(Key::from("m"), Key::MIN);
    c.create_range(lag, zone(ClosedTsPolicy::Lag)).unwrap();
    c.create_range(lead, zone(ClosedTsPolicy::Lead)).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    for i in 0..3 {
        write_key(&mut c, gw(0), &format!("a{i}"), "v");
    }
    for i in 0..2 {
        write_key(&mut c, gw(2), &format!("x{i}"), "v");
    }
    for _ in 0..4 {
        // A fresh read is a one-statement read-only transaction.
        assert!(read_key(&mut c, gw(1), "a1", fresh()).0.unwrap().is_some());
    }
    let stale = ReadOptions {
        staleness: Staleness::ExactAgo(SimDuration::from_secs(5)),
        fallback_to_leaseholder: true,
    };
    for _ in 0..2 {
        read_key(&mut c, gw(1), "a1", stale).0.unwrap();
    }
    // One transaction that writes and rolls back, and one operation that
    // fails (a read through the finished handle): failures are not recorded.
    let h = c.txn_begin(gw(0));
    c.txn_put(
        h,
        Key::from("b"),
        Some(Value::from("v")),
        Box::new(|_, r| r.unwrap()),
    );
    c.run_until_quiescent(deadline());
    c.txn_rollback(h, Box::new(|_, r| r.unwrap()));
    c.run_until_quiescent(deadline());
    c.txn_get(h, Key::from("b"), Box::new(|_, r| assert!(r.is_err())));
    c.run_until_quiescent(deadline());

    let expected: Vec<(&str, &str, &str, u64)> = vec![
        ("kv.commit", "lag", "us-east1", 3),
        ("kv.commit", "lead", "europe-west2", 2),
        ("kv.commit", "ro", "us-west1", 4),
        ("kv.get", "lag", "us-west1", 4),
        ("kv.put", "lag", "us-east1", 4),
        ("kv.put", "lead", "europe-west2", 2),
        ("kv.read.stale", "lag", "us-west1", 2),
        ("kv.rollback", "none", "us-east1", 1),
    ];
    let snap = c.obs.registry.snapshot();
    let label = |k: &mr_obs::MetricKey, name: &str| {
        let found = k.labels.iter().find(|(n, _)| *n == name);
        found.map(|(_, v)| v.clone()).unwrap_or_default()
    };
    let got: Vec<(String, String, String, u64)> = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.name == "kv.op.latency")
        .map(|(k, h)| {
            (
                label(k, "op"),
                label(k, "policy"),
                label(k, "region"),
                h.count,
            )
        })
        .collect();
    let expected: Vec<_> = expected
        .into_iter()
        .map(|(o, p, r, n)| (o.to_string(), p.to_string(), r.to_string(), n))
        .collect();
    assert_eq!(got, expected);

    let finished = 3 + 2 + 4 + 1;
    let m = c.metrics();
    assert_eq!(m.txn_commits + m.txn_aborts, finished);
    for (k, h) in snap
        .histograms
        .iter()
        .filter(|(k, _)| k.name == "kv.txn.attr.latency")
    {
        assert_eq!(h.count, finished, "{k}");
    }
    let total = c
        .obs
        .registry
        .histogram("kv.txn.attr.latency", &[("comp", "total")]);
    assert_eq!(total.count(), finished);
}

// ---------------------------------------------------------------------
// The side-transport inbox: promises stored per node pair, taken in on read
// ---------------------------------------------------------------------

/// Fig. 6's widest shape: 26 synthetic regions × 3 nodes, one range homed in
/// each region (a REGIONAL BY ROW table's partitions) with a non-voting
/// replica in every other region — 26 ranges × 28 replicas — and no traffic.
fn wide_idle_cluster() -> (Cluster, Vec<mr_proto::RangeId>) {
    let names: Vec<String> = (0..26).map(|i| format!("region-{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let topo = Topology::build(&names, 3, RttMatrix::synthetic(26));
    let mut c = Cluster::new(topo, ClusterConfig::default());
    let regions: Vec<RegionId> = (0..26).map(RegionId).collect();
    let ranges = (0..26u32)
        .map(|home| {
            let zc = derive_zone_config(
                RegionId(home),
                &regions,
                SurvivalGoal::Zone,
                PlacementPolicy::Default,
                ClosedTsPolicy::Lag,
            );
            let start = Key::from(format!("p{home:02}/").as_str());
            let end = Key::from(format!("p{:02}/", home + 1).as_str());
            c.create_range(Span::new(start, end), zc).unwrap()
        })
        .collect();
    (c, ranges)
}

#[test]
fn idle_followers_trail_their_leaseholders_by_one_interval_and_the_wire() {
    let (mut c, ranges) = wide_idle_cluster();
    c.ingest(vec![(Key::from("p07/k"), Value::from("v"))])
        .unwrap();
    // Well past quiescence, and past the 3 s lag the promises start under.
    c.run_until(SimTime(SimDuration::from_secs(12).nanos()));
    // 240 ticks, each one `SideTransport` event; of the deliveries, one per
    // (sender, follower node) pair and tick, only those that say something
    // new are events. An idle range's batch repeats its predecessor line for
    // line and waits in the receiver's inbox instead, so what is left is the
    // set-up: leases settling, first promises, indices moving while the
    // ranges quiesce. (167,179 while every delivery was an event.)
    assert_eq!(c.metrics().ev_side, 942);

    let interval = SIDE_TRANSPORT_INTERVAL;
    let mut followers = 0;
    for &id in &ranges {
        let desc = c.registry().get(id).unwrap().clone();
        let lh = desc.leaseholder;
        let lh_rep = &c.node(lh).replicas[&id];
        assert!(lh_rep.raft.is_quiesced(), "range {id} is idle");
        let promised = lh_rep.lease.promised();
        for n in desc.replica_nodes().filter(|&n| n != lh) {
            let closed = c.closed_ts_at(n, id).unwrap();
            // One interval (the promise in flight is not here yet) plus the
            // slowest the link delivers: one-way delay, 10 % jitter, 1 ms.
            let wire = c.topology().nominal_rtt(lh, n).mul_f64(0.55) + SimDuration::from_millis(1);
            let bound = interval + wire;
            assert!(
                closed.wall + bound.nanos() >= promised.wall && closed <= promised,
                "range {id} at {n}: closed {closed} trails promise {promised} by more than {bound}"
            );
            followers += 1;
        }
    }
    assert_eq!(followers, 26 * 27);

    // A stale read of an idle range is served by the reader's own region.
    let before = c.metrics().follower_reads_served;
    let opts = ReadOptions {
        staleness: Staleness::ExactAgo(SimDuration::from_secs(5)),
        fallback_to_leaseholder: true,
    };
    let (val, lat) = read_key(&mut c, NodeId(20 * 3), "p07/k", opts);
    assert_eq!(val.unwrap(), Some(Value::from("v")));
    assert!(lat < SimDuration::from_millis(5), "served remotely: {lat}");
    assert_eq!(c.metrics().follower_reads_served, before + 1);
}

/// One range homed in us-east1 with every promise-reader that runs on a
/// timer switched off, so nothing settles a follower's inbox by accident.
fn quiet_cluster(goal: SurvivalGoal) -> (Cluster, mr_proto::RangeId) {
    let mut c = cluster(ClusterConfig {
        obs_scrape_interval: None,
        gc_interval: SimDuration::from_secs(3_600),
        ..ClusterConfig::default()
    });
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        goal,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    let id = c.create_range(Span::all(), zc).unwrap();
    (c, id)
}

fn run_for(c: &mut Cluster, d: SimDuration) {
    let t = c.now();
    c.run_until(SimTime(t.nanos() + d.nanos()));
}

/// A failover claim inherits the claimant's own closed timestamp as the
/// floor for its writes. The dead leaseholder's last batch sits in the
/// claimant's inbox, and in every other follower's, where reads are served
/// under it; a claim that read its tracker unsettled would let the new
/// leaseholder write below a timestamp followers treat as closed.
#[test]
fn failover_claim_inherits_the_promise_still_standing_in_the_inbox() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    run_for(&mut c, SimDuration::from_secs(10));
    let old = c.registry().get(id).unwrap().leaseholder;
    c.fail_node(old);
    let last_promise = c.node(old).replicas[&id].lease.promised();
    assert!(last_promise.wall > 0);
    // Election timeout, campaign, claim: the lease moves within seconds,
    // and nothing reads the range meanwhile. Stop at the event that moves
    // it — one tick later the new leaseholder's own promises bury the floor.
    let deadline = c.now().nanos() + SimDuration::from_secs(8).nanos();
    while c.registry().get(id).unwrap().leaseholder == old {
        assert!(
            c.step() && c.now().nanos() < deadline,
            "lease did not fail over"
        );
    }
    let new = c.registry().get(id).unwrap().leaseholder;
    let floor = c.node(new).replicas[&id].lease.min_write_ts();
    assert!(
        floor > last_promise,
        "new leaseholder may write at {floor}, under the old one's promise {last_promise}"
    );
    // Which is what the other followers serve reads under.
    for n in c.registry().get(id).unwrap().clone().replica_nodes() {
        if n != old && n != new {
            assert_eq!(c.closed_ts_at(n, id).unwrap(), last_promise);
        }
    }
}

/// A re-install starts a new Raft log. The promise standing in a
/// follower's inbox names an index of the old log; at an idle range old and
/// new logs sit at the same small index, so only the install-time stamp
/// keeps the new replica from counting it.
#[test]
fn a_reinstalled_replica_does_not_count_the_previous_incarnations_promise() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    run_for(&mut c, SimDuration::from_secs(10));
    let desc = c.registry().get(id).unwrap().clone();
    let lh = desc.leaseholder;
    // A voter beside the leaseholder: applies the new group's first entry
    // within a few milliseconds.
    let follower = desc
        .replicas
        .iter()
        .find(|p| p.voting && p.node != lh)
        .unwrap()
        .node;
    // Just after a tick, so the next is 45 ms away.
    run_for(&mut c, SimDuration::from_millis(5));
    let standing = c.closed_ts_at(follower, id).unwrap();
    // Open a gap between what the leaseholder's replica seeds the new group
    // with and what it last promised: the seed frontier falls back 2 s.
    c.inject_fault(
        &mr_kv::fault::FaultKind::RegressClosedTs {
            range: id,
            node: lh,
            delta: SimDuration::from_secs(2),
        },
        None,
    );
    let seed = c.node(lh).replicas[&id].tracker.closed();
    assert!(seed < standing);
    let promised_at = c.node(lh).replicas[&id].raft.last_index();
    c.reconfigure_range(id, desc.zone_config.clone()).unwrap();
    assert!(c
        .registry()
        .get(id)
        .unwrap()
        .replica_nodes()
        .any(|n| n == follower));
    run_for(&mut c, SimDuration::from_millis(30));
    assert!(
        c.node(follower).replicas[&id].raft.applied_index() >= promised_at,
        "the new log has reached the index the old promise names"
    );
    assert_eq!(
        c.closed_ts_at(follower, id).unwrap(),
        seed,
        "served under the previous incarnation's promise"
    );
    // The inbox itself survived the re-install: the next tick's promise
    // lands as usual.
    run_for(&mut c, SimDuration::from_millis(100));
    assert!(c.closed_ts_at(follower, id).unwrap() > standing);
}

/// A volatile crash rebuilds each tracker from its durable frontier, below
/// the promises the old incarnation held; the inbox is as volatile as they
/// were.
#[test]
fn a_volatile_crash_forgets_the_inbox_with_the_trackers() {
    let mut c = cluster(ClusterConfig {
        gc_interval: SimDuration::from_secs(3_600),
        ..ClusterConfig::default()
    });
    assert!(c.obs.monitors.strict(), "a regression panics");
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    let id = c.create_range(Span::all(), zc).unwrap();
    write_key(&mut c, gw(0), "k", "v");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    let desc = c.registry().get(id).unwrap().clone();
    let follower = desc.replicas.iter().find(|p| !p.voting).unwrap().node;
    let before = c.closed_ts_at(follower, id).unwrap();

    c.crash_node_volatile(follower);
    let durable = c.node(follower).replicas[&id].store.closed_ts();
    assert!(durable < before, "the durable frontier is the last entry's");
    assert_eq!(
        c.closed_ts_at(follower, id).unwrap(),
        durable,
        "a pre-crash promise came back out of the inbox"
    );
    run_for(&mut c, SimDuration::from_secs(2));
    c.revive_node(follower);
    run_for(&mut c, SimDuration::from_secs(3));
    // Back in step with the leaseholder, every scrape along the way quiet.
    assert!(c.closed_ts_at(follower, id).unwrap() > before);
    assert_eq!(c.obs.monitors.violation_count(), 0);
}

/// The `closed_ts_monotonic` monitor sees a follower's regression too: the
/// scrape settles the inbox before it looks, and settling a promise the
/// tracker already holds must not paper over the fault.
#[test]
fn a_regressed_follower_frontier_is_caught_by_the_next_scrape() {
    let mut c = cluster(ClusterConfig {
        strict_monitors: false,
        // Scrape faster than the side transport repairs the regression.
        obs_scrape_interval: Some(SimDuration::from_millis(10)),
        ..ClusterConfig::default()
    });
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    let id = c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    assert_eq!(c.obs.monitors.violation_count(), 0);
    let desc = c.registry().get(id).unwrap().clone();
    let follower = desc.replicas.iter().find(|p| !p.voting).unwrap().node;
    run_for(&mut c, SimDuration::from_millis(5));
    c.inject_fault(
        &mr_kv::fault::FaultKind::RegressClosedTs {
            range: id,
            node: follower,
            delta: SimDuration::from_secs(2),
        },
        None,
    );
    run_for(&mut c, SimDuration::from_millis(20));
    assert!(c.obs.monitors.violations_for("closed_ts_monotonic") > 0);
}

/// `RegressClosedTs` regresses the frontier a reader sees — the settled one
/// — and the next read does not take the fault back; the next tick does.
#[test]
fn a_regression_outlives_the_next_read_but_not_the_next_tick() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    run_for(&mut c, SimDuration::from_secs(10));
    let desc = c.registry().get(id).unwrap().clone();
    let lh = desc.leaseholder;
    let follower = desc
        .replicas
        .iter()
        .find(|p| p.voting && p.node != lh)
        .unwrap()
        .node;
    // 5 ms after a tick: its batch has crossed the zone, no one has read.
    run_for(&mut c, SimDuration::from_millis(5));
    let promised = c.node(lh).replicas[&id].lease.promised();
    let delta = SimDuration::from_secs(2);
    c.inject_fault(
        &mr_kv::fault::FaultKind::RegressClosedTs {
            range: id,
            node: follower,
            delta,
        },
        None,
    );
    let regressed = Timestamp::new(promised.wall - delta.nanos(), 0);
    assert_eq!(c.closed_ts_at(follower, id).unwrap(), regressed);
    assert_eq!(c.closed_ts_at(follower, id).unwrap(), regressed);
    run_for(&mut c, SimDuration::from_millis(50));
    assert!(c.closed_ts_at(follower, id).unwrap() > promised);
}

// ---------------------------------------------------------------------
// Repeats on the wire: an idle range's side-transport batch that repeats its
// predecessor waits in the receiver's inbox instead of on the calendar. Each
// case below changes the topology or the sender while such batches are in
// flight to distant followers, and pins what the followers serve — and the
// clock a run stops at — to what the cluster measured while every batch was
// an event.
// ---------------------------------------------------------------------

/// The clock, and the closed timestamp each follower of `id` serves under,
/// at `n` instants `every` apart.
fn closed_trail(
    c: &mut Cluster,
    id: mr_proto::RangeId,
    every: SimDuration,
    n: usize,
) -> Vec<(u64, Vec<u64>)> {
    (0..n)
        .map(|_| {
            run_for(c, every);
            let desc = c.registry().get(id).unwrap().clone();
            let walls = desc
                .replica_nodes()
                .filter(|&r| r != desc.leaseholder)
                .map(|r| c.closed_ts_at(r, id).unwrap().wall)
                .collect();
            (c.now().nanos(), walls)
        })
        .collect()
}

/// An idle range 10 s in, 5 ms past a tick: the batches of the last few
/// ticks are still on their way to the far regions.
fn idle_with_repeats_on_the_wire() -> (Cluster, mr_proto::RangeId) {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    run_for(&mut c, SimDuration::from_secs(10));
    run_for(&mut c, SimDuration::from_millis(5));
    (c, id)
}

/// The non-voter furthest from the leaseholder.
fn far_follower(c: &Cluster, id: mr_proto::RangeId) -> NodeId {
    let desc = c.registry().get(id).unwrap();
    let lh = desc.leaseholder;
    desc.replica_nodes()
        .filter(|&n| n != lh)
        .max_by_key(|&n| c.topology().nominal_rtt(lh, n))
        .unwrap()
}

#[test]
fn a_crash_while_repeats_are_on_the_wire_serves_what_every_delivery_did() {
    let (mut c, id) = idle_with_repeats_on_the_wire();
    let far = far_follower(&c, id);
    c.crash_node_volatile(far);
    let down = closed_trail(&mut c, id, SimDuration::from_millis(70), 3);
    c.revive_node(far);
    let back = closed_trail(&mut c, id, SimDuration::from_millis(70), 3);
    // The crashed follower rebuilt its tracker from a WAL that holds no
    // promise; back up, it serves the first batch that reaches it.
    let follower = |w: [u64; 6]| w.to_vec();
    assert_eq!(
        (down, back),
        (
            vec![
                (
                    10_051_135_308,
                    follower([
                        6_994_686_670,
                        6_994_686_670,
                        6_944_686_670,
                        6_944_686_670,
                        6_894_686_670,
                        0
                    ])
                ),
                (
                    10_101_134_697,
                    follower([
                        7_044_686_670,
                        7_044_686_670,
                        6_994_686_670,
                        6_994_686_670,
                        6_944_686_670,
                        0
                    ])
                ),
                (
                    10_151_135_255,
                    follower([
                        7_094_686_670,
                        7_094_686_670,
                        7_044_686_670,
                        7_044_686_670,
                        6_994_686_670,
                        0
                    ])
                ),
            ],
            vec![
                (
                    10_201_116_897,
                    follower([
                        7_144_686_670,
                        7_144_686_670,
                        7_094_686_670,
                        7_094_686_670,
                        7_044_686_670,
                        0
                    ])
                ),
                (
                    10_251_105_130,
                    follower([
                        7_194_686_670,
                        7_194_686_670,
                        7_144_686_670,
                        7_144_686_670,
                        7_094_686_670,
                        0
                    ])
                ),
                (
                    10_304_932_740,
                    follower([
                        7_244_686_670,
                        7_244_686_670,
                        7_194_686_670,
                        7_194_686_670,
                        7_144_686_670,
                        7_144_686_670
                    ])
                ),
            ]
        )
    );
}

#[test]
fn a_partition_while_repeats_are_on_the_wire_serves_what_every_delivery_did() {
    let (mut c, id) = idle_with_repeats_on_the_wire();
    let far = c.topology().region_of(far_follower(&c, id));
    c.inject_fault(&mr_kv::fault::FaultKind::IsolateRegion(far), None);
    let cut = closed_trail(&mut c, id, SimDuration::from_millis(70), 3);
    c.inject_fault(&mr_kv::fault::FaultKind::RejoinRegion(far), None);
    let healed = closed_trail(&mut c, id, SimDuration::from_millis(70), 3);
    // The isolated follower keeps what reached it before the cut; rejoined,
    // it serves the first batch that reaches it.
    let follower = |w: [u64; 6]| w.to_vec();
    assert_eq!(
        (cut, healed),
        (
            vec![
                (
                    10_051_135_308,
                    follower([
                        6_994_686_670,
                        6_994_686_670,
                        6_944_686_670,
                        6_944_686_670,
                        6_894_686_670,
                        6_894_686_670
                    ])
                ),
                (
                    10_101_134_697,
                    follower([
                        7_044_686_670,
                        7_044_686_670,
                        6_994_686_670,
                        6_994_686_670,
                        6_944_686_670,
                        6_944_686_670
                    ])
                ),
                (
                    10_151_135_255,
                    follower([
                        7_094_686_670,
                        7_094_686_670,
                        7_044_686_670,
                        7_044_686_670,
                        6_994_686_670,
                        6_944_686_670
                    ])
                ),
            ],
            vec![
                (
                    10_201_116_897,
                    follower([
                        7_144_686_670,
                        7_144_686_670,
                        7_094_686_670,
                        7_094_686_670,
                        7_044_686_670,
                        6_944_686_670
                    ])
                ),
                (
                    10_251_105_130,
                    follower([
                        7_194_686_670,
                        7_194_686_670,
                        7_144_686_670,
                        7_144_686_670,
                        7_094_686_670,
                        6_944_686_670
                    ])
                ),
                (
                    10_304_932_740,
                    follower([
                        7_244_686_670,
                        7_244_686_670,
                        7_194_686_670,
                        7_194_686_670,
                        7_144_686_670,
                        7_144_686_670
                    ])
                ),
            ]
        )
    );
}

#[test]
fn a_lease_transfer_while_repeats_are_on_the_wire_serves_what_every_delivery_did() {
    let (mut c, id) = idle_with_repeats_on_the_wire();
    let desc = c.registry().get(id).unwrap().clone();
    let to = desc
        .replicas
        .iter()
        .find(|p| p.voting && p.node != desc.leaseholder)
        .unwrap()
        .node;
    c.transfer_lease(id, to);
    let landing = closed_trail(&mut c, id, SimDuration::from_millis(40), 3);
    let taken_over = closed_trail(&mut c, id, SimDuration::from_millis(100), 9);
    // The old leaseholder's batches still on the wire land, and it sends no
    // more; the new one publishes once it leads (its own region hears it
    // first), and its repeats land like any.
    let follower = |w: [u64; 6]| w.to_vec();
    let (old, new) = (6_944_686_670, 7_694_557_885);
    assert_eq!(
        (landing, taken_over),
        (
            vec![
                (
                    10_037_204_719,
                    follower([old, old, old, 6_894_686_670, 6_894_686_670, 6_844_686_670])
                ),
                (
                    10_070_491_312,
                    follower([old, old, old, old, 6_894_686_670, 6_894_686_670])
                ),
                (10_110_022_518, follower([old; 6])),
            ],
            vec![
                (10_202_703_638, follower([old; 6])),
                (10_301_147_556, follower([old; 6])),
                (10_401_126_746, follower([old; 6])),
                (10_501_120_154, follower([old; 6])),
                (10_601_105_972, follower([old; 6])),
                (10_701_081_536, follower([old; 6])),
                (10_800_000_000, follower([new, new, new, new, old, old])),
                (
                    10_900_000_000,
                    follower([
                        7_794_557_885,
                        7_794_557_885,
                        7_794_557_885,
                        7_794_557_885,
                        7_744_557_885,
                        new
                    ])
                ),
                (
                    11_000_000_000,
                    follower([
                        7_894_557_885,
                        7_894_557_885,
                        7_894_557_885,
                        7_894_557_885,
                        7_844_557_885,
                        7_794_557_885
                    ])
                ),
            ]
        )
    );
}

/// Reconfiguring a range that is gone (dropped, or merged away since the
/// caller looked it up) is the caller's error to handle, not a panic.
#[test]
fn reconfiguring_an_unknown_range_is_an_error() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    let cfg = c.registry().get(id).unwrap().zone_config.clone();
    c.drop_range(id);
    assert_eq!(
        c.reconfigure_range(id, cfg),
        Err(mr_kv::ReconfigureError::NoSuchRange(id))
    );
}

// ---------------------------------------------------------------------
// Quiesced ranges: the Raft tick visits only awake replicas. Each case below
// wakes a quiesced range in one of the ways that must reach the tick, and
// pins the instant things happen to what a tick that visits every replica
// measured. In debug
// builds every tick also asserts that the replicas it skipped had nothing
// to do.
// ---------------------------------------------------------------------

/// Step until `done` holds, within `within` of simulated time; the instant
/// it first held.
fn step_until(c: &mut Cluster, within: SimDuration, done: impl Fn(&Cluster) -> bool) -> SimTime {
    let deadline = c.now().nanos() + within.nanos();
    while !done(c) {
        assert!(
            c.step() && c.now().nanos() <= deadline,
            "not reached within {within}"
        );
    }
    c.now()
}

fn all_quiesced(c: &Cluster, id: mr_proto::RangeId) -> bool {
    let desc = c.registry().get(id).unwrap();
    desc.replica_nodes()
        .filter(|&n| c.topology().is_node_alive(n))
        .all(|n| c.node(n).replicas[&id].raft.is_quiesced())
}

/// The node whose replica of `id` leads at the highest term.
fn raft_leader(c: &Cluster, id: mr_proto::RangeId) -> Option<NodeId> {
    let desc = c.registry().get(id).unwrap();
    desc.replica_nodes()
        .filter(|&n| c.node(n).replicas[&id].raft.is_leader())
        .max_by_key(|&n| c.node(n).replicas[&id].raft.term())
}

#[test]
fn followers_of_a_crashed_quiesced_leader_campaign_one_election_timeout_after_the_next_tick() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    run_for(&mut c, SimDuration::from_secs(10));
    assert!(all_quiesced(&c, id));
    let desc = c.registry().get(id).unwrap().clone();
    let lh = desc.leaseholder;
    let term = c.node(lh).replicas[&id].raft.term();
    // Between two ticks.
    run_for(&mut c, SimDuration::from_millis(110));
    c.fail_node(lh);
    let campaigned = step_until(&mut c, SimDuration::from_secs(10), |c| {
        desc.replica_nodes()
            .any(|n| n != lh && c.node(n).replicas[&id].raft.term() > term)
    });
    // The tick after the crash (10.25 s) finds the leader dead and restarts
    // the followers' election clocks; the first voter's staggered timeout
    // (2 s + 250 ms) later, it campaigns.
    assert_eq!(campaigned, SimTime(12_500_000_000));
}

#[test]
fn a_partition_that_isolates_a_quiesced_leader_moves_the_lease_and_heals() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Region);
    run_for(&mut c, SimDuration::from_secs(10));
    assert!(all_quiesced(&c, id));
    let old = c.registry().get(id).unwrap().leaseholder;
    assert_eq!(c.topology().region_of(old), US_EAST);
    run_for(&mut c, SimDuration::from_millis(110));
    c.inject_fault(&mr_kv::fault::FaultKind::IsolateRegion(US_EAST), None);
    let moved = step_until(&mut c, SimDuration::from_secs(10), |c| {
        c.registry().get(id).unwrap().leaseholder != old
    });
    let new = c.registry().get(id).unwrap().leaseholder;
    assert_ne!(c.topology().region_of(new), US_EAST);
    // The isolated replica still believes it leads, at a stale term.
    assert!(c.node(old).replicas[&id].raft.is_leader());
    run_for(&mut c, SimDuration::from_secs(5));
    c.inject_fault(&mr_kv::fault::FaultKind::RejoinRegion(US_EAST), None);
    let deposed = step_until(&mut c, SimDuration::from_secs(10), |c| {
        !c.node(old).replicas[&id].raft.is_leader()
    });
    assert_eq!(
        (moved, deposed),
        (SimTime(13_029_941_090), SimTime(18_533_159_414))
    );
    // One leader again, the leaseholder, and the range serves and sleeps.
    write_key(&mut c, gw(0), "k", "v");
    let lh = c.registry().get(id).unwrap().leaseholder;
    assert_eq!(raft_leader(&c, id), Some(lh));
    step_until(&mut c, SimDuration::from_secs(10), |c| all_quiesced(c, id));
    assert_eq!(
        read_key(&mut c, gw(3), "k", fresh()).0.unwrap(),
        Some(Value::from("v"))
    );
}

#[test]
fn a_lease_transfer_on_a_quiesced_range_hands_leadership_over_at_the_next_tick() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    run_for(&mut c, SimDuration::from_secs(10));
    assert!(all_quiesced(&c, id));
    let desc = c.registry().get(id).unwrap().clone();
    let a = desc.leaseholder;
    let mut voters = desc.replicas.iter().filter(|p| p.voting && p.node != a);
    let (b, to) = (voters.next().unwrap().node, voters.next().unwrap().node);
    run_for(&mut c, SimDuration::from_millis(110));
    // The second transfer finds `b` not leading yet, so no TimeoutNow goes
    // to `to`: whichever replica leads hands over at its next tick.
    c.transfer_lease(id, b);
    c.transfer_lease(id, to);
    let handed = step_until(&mut c, SimDuration::from_secs(5), |c| {
        raft_leader(c, id) == Some(to)
    });
    assert_eq!(handed, SimTime(10_253_259_253));
    step_until(&mut c, SimDuration::from_secs(10), |c| all_quiesced(c, id));
    write_key(&mut c, gw(0), "k", "v");
    assert_eq!(raft_leader(&c, id), Some(to));
}

#[test]
fn a_split_of_a_quiesced_range_leaves_two_quiesced_halves_that_serve() {
    let (mut c, id) = quiet_cluster(SurvivalGoal::Zone);
    write_key(&mut c, gw(0), "a", "1");
    write_key(&mut c, gw(0), "z", "2");
    run_for(&mut c, SimDuration::from_secs(10));
    assert!(all_quiesced(&c, id));
    let rhs = c.admin_split_at(Key::from("m")).expect("split proposed");
    let split = step_until(&mut c, SimDuration::from_secs(5), |c| {
        c.registry().get(rhs).is_some()
    });
    assert_eq!(split, SimTime(10_056_504_994));
    step_until(&mut c, SimDuration::from_secs(10), |c| {
        all_quiesced(c, id) && all_quiesced(c, rhs)
    });
    for (range, key, val) in [(id, "a", "1"), (rhs, "z", "2")] {
        let lh = c.registry().get(range).unwrap().leaseholder;
        assert_eq!(raft_leader(&c, range), Some(lh));
        assert_eq!(
            read_key(&mut c, gw(0), key, fresh()).0.unwrap(),
            Some(Value::from(val))
        );
    }
    write_key(&mut c, gw(0), "y", "3");
    assert!(!all_quiesced(&c, rhs), "a write wakes the half it lands on");
    step_until(&mut c, SimDuration::from_secs(10), |c| all_quiesced(c, rhs));
}
