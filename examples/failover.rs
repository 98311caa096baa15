//! Survivability goals under failure (§2.2, §3.3): the same database,
//! first with ZONE survivability (a zone can burn down), then with REGION
//! survivability (a whole region can). Every failure goes through
//! `Cluster::inject_fault`, the one entry the chaos nemesis uses too; a
//! region is named by `topology().region_by_name`.
//!
//! Run with: `cargo run --release --example failover`

use multiregion::kv::FaultKind;
use multiregion::{ClusterBuilder, SimDuration, SimTime};

fn main() {
    // No RPC timeout is set: each failure is injected with no statement in
    // flight, and a request sent to a dead node afterwards fails at once as
    // unreachable and re-routes. A request already in flight to a node that
    // dies is answered only by a timer; to inject faults under live traffic,
    // set one with `.config(|c| c.rpc_timeout = Some(..))`, as the chaos
    // harness does.
    let mut db = ClusterBuilder::new()
        .region("us-east1", 3)
        .region("us-west1", 3)
        .region("europe-west1", 3)
        .seed(9)
        .build();

    let sess = db.session_in_region("us-east1", None);
    db.exec_script(
        &sess,
        r#"
        CREATE DATABASE bank PRIMARY REGION "us-east1"
            REGIONS "us-west1", "europe-west1";
        CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)
            LOCALITY REGIONAL BY TABLE IN PRIMARY REGION;
        "#,
    )
    .unwrap();
    db.cluster
        .run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let east = db.session_in_region("us-east1", Some("bank"));
    db.exec_sync(&east, "INSERT INTO accounts VALUES (1, 100)")
        .unwrap();
    println!("== ZONE survivability (the default): 3 voters, all in us-east1 ==");

    // Kill one zone of the home region (a zone is one node here): writes
    // keep working.
    let lh_node = mr_sim::NodeId(0);
    db.cluster
        .inject_fault(&FaultKind::CrashNode(lh_node), None);
    db.cluster.run_until(SimTime(
        db.cluster.now().nanos() + SimDuration::from_secs(20).nanos(),
    ));
    let east2 = db.session_in_region("us-east1", Some("bank"));
    db.exec_sync(&east2, "UPSERT INTO accounts (id, balance) VALUES (1, 150)")
        .unwrap();
    let rows = db
        .exec_sync(&east2, "SELECT balance FROM accounts WHERE id = 1")
        .unwrap();
    println!(
        "after losing one zone: balance = {:?} (writes survived; a surviving zone holds the lease)",
        rows.rows()[0][0]
    );
    db.cluster
        .inject_fault(&FaultKind::RestartNode(lh_node), None);

    // Upgrade to REGION survivability: one statement (§2.2).
    db.exec_sync(&sess, "ALTER DATABASE bank SURVIVE REGION FAILURE")
        .unwrap();
    println!("\n== upgraded: SURVIVE REGION FAILURE (5 voters, 2 in the primary) ==");
    db.cluster.run_until(SimTime(
        db.cluster.now().nanos() + SimDuration::from_secs(5).nanos(),
    ));

    // Now kill the whole primary region.
    let us_east1 = db.cluster.topology().region_by_name("us-east1").unwrap();
    db.cluster
        .inject_fault(&FaultKind::CrashRegion(us_east1), None);
    println!("us-east1 is gone. waiting for elections and lease failover...");
    db.cluster.run_until(SimTime(
        db.cluster.now().nanos() + SimDuration::from_secs(30).nanos(),
    ));

    let west = db.session_in_region("us-west1", Some("bank"));
    let t0 = db.cluster.now();
    db.exec_sync(&west, "UPSERT INTO accounts (id, balance) VALUES (1, 175)")
        .unwrap();
    let rows = db
        .exec_sync(&west, "SELECT balance FROM accounts WHERE id = 1")
        .unwrap();
    println!(
        "after losing the entire primary region: balance = {:?}, write+read took {:.0}ms \
         (leaseholder re-elected among surviving voters)",
        rows.rows()[0][0],
        (db.cluster.now() - t0).as_millis_f64()
    );

    // Bring the region back; it rejoins as a follower.
    db.cluster
        .inject_fault(&FaultKind::RestartRegion(us_east1), None);
    db.cluster.run_until(SimTime(
        db.cluster.now().nanos() + SimDuration::from_secs(10).nanos(),
    ));
    let rows = db
        .exec_sync(&west, "SELECT balance FROM accounts WHERE id = 1")
        .unwrap();
    println!(
        "us-east1 revived; data intact: balance = {:?}",
        rows.rows()[0][0]
    );
}
