//! Incident-bundle forensics, driven by the intentionally injected
//! follower-read bug (`--features injected-bug`): a violating run must
//! capture a bundle naming the violation, carrying implicated span
//! subtrees, and reproducing byte-identically under the same seed.
#![cfg(feature = "injected-bug")]

use mr_chaos::{run_chaos, ChaosConfig, ChaosOutcome, CheckerConfig, FaultSchedule, FaultStep};
use mr_kv::FaultKind;
use mr_sim::RegionId;
use mr_testutil::secs;

/// The canary scenario: isolate region 1 with the stale-read bug armed, so
/// partitioned follower reads return values above the closed frontier.
fn canary_run(seed: u64) -> ChaosOutcome {
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
        seed,
        run_for: secs(50),
        arm_bug: Some(mr_kv::InjectedBug::StaleRead),
        strict_monitors: false,
        tracing: true,
        ..ChaosConfig::default()
    };
    run_chaos(&cfg, &schedule, &CheckerConfig::default())
}

/// A clean run yields no bundle; the canary yields one with the expected
/// violation kind, the fault step in effect, and non-empty span forensics.
#[test]
fn canary_violation_produces_bundle_with_spans() {
    let outcome = canary_run(666);
    assert!(!outcome.passed(), "the armed bug must be detected");
    let bundle = outcome.bundle.as_ref().expect("violating run has a bundle");

    let manifest = bundle.file("manifest.json").expect("manifest");
    assert!(manifest.contains("\"seed\": 666"), "{manifest}");
    assert!(
        manifest.contains("\"first_violation\": \"stale-read-skew\"")
            || manifest.contains("\"first_violation\": \"serialization-cycle\""),
        "{manifest}"
    );

    let violations = bundle.file("violations.json").expect("violations");
    assert!(
        violations.contains("\"kind\": \"stale-read-skew\"")
            || violations.contains("\"kind\": \"serialization-cycle\""),
        "{violations}"
    );
    assert!(
        violations.contains("\"fault\": \"isolate region r1\""),
        "bundle must pin the schedule step in effect: {violations}"
    );

    // Implicated ops are carried in full, flagged against the window ops.
    let history = bundle.file("history_window.json").expect("history");
    assert!(history.contains("\"implicated\": true"), "{history}");

    // The traced run captured span subtrees around the violation.
    let spans = bundle.file("spans.json").expect("spans");
    assert!(
        spans.contains("\"name\": \"txn\""),
        "span section is empty or missing txn subtrees: {spans:.200}"
    );
    assert!(spans.contains("\"name\": \"rpc."), "{spans:.200}");

    // Supporting telemetry sections are present and non-trivial.
    for f in [
        "schedule.json",
        "events_window.json",
        "metrics_window.json",
        "ranges.json",
    ] {
        let body = bundle.file(f).unwrap_or_else(|| panic!("missing {f}"));
        assert!(body.len() > 10, "{f} is empty");
    }

    // Same scenario, bug disarmed: clean run, no bundle.
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
        tracing: true,
        ..ChaosConfig::default()
    };
    let clean = run_chaos(&cfg, &schedule, &CheckerConfig::default());
    assert!(clean.passed(), "control run must be clean");
    assert!(
        clean.bundle.is_none(),
        "clean run must not capture a bundle"
    );
}

/// The golden acceptance criterion: two same-seed canary runs produce
/// byte-identical bundles, and the bundle round-trips through a directory.
#[test]
fn bundle_is_byte_identical_across_same_seed_runs() {
    let b1 = canary_run(666).bundle.expect("bundle");
    let b2 = canary_run(666).bundle.expect("bundle");
    assert_eq!(
        b1.files().len(),
        b2.files().len(),
        "bundles differ in shape"
    );
    for ((n1, c1), (n2, c2)) in b1.files().iter().zip(b2.files().iter()) {
        assert_eq!(n1, n2, "file order diverged");
        assert_eq!(c1, c2, "{n1} diverged between same-seed runs");
    }
    assert_eq!(b1, b2);

    // A different seed still fails, but produces different forensics.
    let b3 = canary_run(667).bundle.expect("bundle");
    assert_ne!(
        b1.file("history_window.json"),
        b3.file("history_window.json"),
        "different seeds cannot share a history"
    );

    // write_to materializes every file.
    let dir = std::env::temp_dir().join(format!("mr-bundle-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = b1.write_to(&dir).expect("write bundle");
    for (name, contents) in b1.files() {
        let on_disk = std::fs::read_to_string(out.join(name)).expect(name);
        assert_eq!(&on_disk, contents);
    }
    std::fs::remove_dir_all(&dir).ok();
}
