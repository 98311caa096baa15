//! Determinism gate and smoke test: every workload at ~1/200 scale, twice
//! with one seed (once traced) and once with another, plus the layer-direct
//! pass at its smallest budget; and `BENCHMARK.json` must list exactly the
//! metrics and workloads the ledger produces.

use std::collections::BTreeMap;

use mr_ledger::cli::DEFAULT_SECONDS;
use mr_ledger::json::Json;
use mr_ledger::layers::{run_layers, Budget};
use mr_ledger::metrics::{self, MetricDef, Pass, Values};
use mr_ledger::run::run_workload;
use mr_ledger::workloads::{Size, WORKLOADS};

fn names(values: &Values) -> Vec<&str> {
    values.0.iter().map(|(n, _)| *n).collect()
}

/// The names of `pass`'s metrics, in table order.
fn expected(pass: Pass) -> Vec<&'static str> {
    metrics::of_pass(pass).map(|d| d.name).collect()
}

#[test]
fn workloads_are_deterministic_audited_and_print_every_metric_once() {
    for w in &WORKLOADS {
        let size = Size::smoke(w);
        let plain = run_workload(w.name, 7, size, false);
        let traced = run_workload(w.name, 7, size, true);
        let other = run_workload(w.name, 8, size, false);

        assert_eq!(
            plain.sim_digest, traced.sim_digest,
            "{}: same seed, same simulated outcome (tracing is host-side only)",
            w.name
        );
        assert_ne!(
            plain.sim_digest, other.sim_digest,
            "{}: the seed must reach the run",
            w.name
        );
        for r in [&plain, &traced, &other] {
            assert!(r.audit.is_empty(), "{}: audit {:?}", w.name, r.audit);
            assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.first_errors);
            assert!(r.attempted > 0, "{}", w.name);
            assert_eq!(
                (r.read_samples + r.write_samples) as u64,
                r.attempted,
                "{}",
                w.name
            );
        }
        // Simulated-time metrics and exact counts repeat for a seed.
        for d in metrics::METRICS {
            if d.bound == metrics::Bound::Exact && d.pass != Pass::Layers {
                assert_eq!(
                    plain.metrics.get(d.name),
                    traced.metrics.get(d.name),
                    "{}: {} must repeat exactly for a seed",
                    w.name,
                    d.name
                );
            }
        }

        // An untraced run prints the end-to-end metrics and the counts; a
        // traced run adds the span-derived ones. Each exactly once.
        let mut all = expected(Pass::E2e);
        all.extend(expected(Pass::Traced));
        let mut got = names(&traced.metrics);
        // `ledger.trace_overhead_share` needs both runs: the parent adds it.
        got.push("ledger.trace_overhead_share");
        let (mut a, mut b) = (all.clone(), got.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{}: traced run's metric names", w.name);
        assert!((traced.span_coverage - 1.0).abs() < 0.02, "{}", w.name);
        let shares: f64 = traced
            .metrics
            .0
            .iter()
            .filter(|(n, _)| n.ends_with(".host_share"))
            .map(|(_, v)| v)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-6,
            "{}: host shares sum to {shares}",
            w.name
        );
    }
}

#[test]
fn layer_pass_prints_every_layer_metric_once() {
    let values = run_layers(7, Budget::SMOKE);
    assert_eq!(names(&values), expected(Pass::Layers));
    for (name, v) in &values.0 {
        assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
    }
}

/// `BENCHMARK.json` and the metric table describe the same benchmark.
#[test]
fn benchmark_json_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");

    let listed = |key: &str| -> Vec<BTreeMap<String, Json>> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|e| e.as_obj().expect("entries are objects").clone())
            .collect()
    };
    let check = |key: &str, defs: Vec<&MetricDef>| {
        let entries = listed(key);
        let got: Vec<&str> = entries
            .iter()
            .map(|e| e["name"].as_str().unwrap())
            .collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(got, want, "{key} names");
        for (e, d) in entries.iter().zip(defs) {
            assert_eq!(e["unit"].as_str(), Some(d.unit), "{} unit", d.name);
            assert_eq!(e["better"].as_str(), Some(d.better.as_str()), "{}", d.name);
            let name_ok = d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(name_ok, "{} has a character outside [A-Za-z0-9_.-]", d.name);
        }
    };
    check(
        "end_to_end",
        metrics::contract_end_to_end().map(|(d, _)| d).collect(),
    );
    check("per_layer", metrics::contract_per_layer().collect());
    for (e, (d, bound)) in listed("end_to_end")
        .iter()
        .zip(metrics::contract_end_to_end())
    {
        assert_eq!(e["bound"].as_f64(), Some(bound), "{} bound", d.name);
        assert!(bound > 0.0 && bound <= 0.25, "{} bound", d.name);
    }

    let workloads: Vec<String> = listed("workloads")
        .iter()
        .map(|e| e["name"].as_str().unwrap().to_string())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
    for (e, w) in listed("workloads").iter().zip(&WORKLOADS) {
        assert_eq!(e["why"].as_str(), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert_eq!(
        j.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS as f64)
    );
    let paths: Vec<&str> = j
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["crates/ledger"]);
}
