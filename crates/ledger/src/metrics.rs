//! The metric vocabulary: every name the ledger prints, with its unit,
//! direction, which pass produces it, and how `compare` judges it.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which pass measures the metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Untraced run of a workload.
    E2e,
    /// Traced run of a workload (`--traced`).
    Traced,
    /// Layer-direct timed loops (`--layers`), workload-independent.
    Layers,
}

/// How far a metric may move the wrong way before `compare` says `worse`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Share of the baseline's median.
    Rel(f64),
    /// Absolute amount (metrics that are normally 0).
    Abs(f64),
    /// Simulated time or an exact count: any difference is a behaviour
    /// change, reported as such rather than as better/worse.
    Exact,
    /// Per-layer host timing: reported with its delta, never gated.
    None,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub pass: Pass,
    pub bound: Bound,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    pass: Pass,
    bound: Bound,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        pass,
        bound,
    }
}

use Better::{Higher, Lower};
use Bound::{Abs, Exact, Rel};
use Pass::{E2e, Layers, Traced};

/// `compare`'s bounds. `BENCHMARK.json` carries its own (wider) bounds for
/// the simulated-time metrics, because the driver's acceptance compares
/// runs of *different* seeds; same-seed comparisons are exact.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end (per workload) ----
    m("setup_s", "s", Lower, E2e, Rel(0.15)),
    m("ops_per_host_s", "1/s", Higher, E2e, Rel(0.10)),
    m("peak_rss_mb", "MiB", Lower, E2e, Rel(0.05)),
    m("sim_ops_per_s", "1/s", Higher, E2e, Exact),
    m("sim_read_p50_ms", "ms", Lower, E2e, Exact),
    m("sim_read_p95_ms", "ms", Lower, E2e, Exact),
    m("sim_write_p50_ms", "ms", Lower, E2e, Exact),
    m("sim_write_p95_ms", "ms", Lower, E2e, Exact),
    m("failed_share", "share", Lower, E2e, Abs(0.002)),
    m("audit_violations", "count", Lower, E2e, Abs(0.0)),
    // ---- traced pass: host time tiled by span name ----
    m(
        "kv.step_rpc.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m("kv.step_rpc.ns_per_event", "ns", Lower, Traced, Bound::None),
    m(
        "kv.step_raft.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_raft.ns_per_event",
        "ns",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_wake.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_wake.ns_per_event",
        "ns",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_tick.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_tick.ns_per_event",
        "ns",
        Lower,
        Traced,
        Bound::None,
    ),
    m("kv.step_tick.p99_us", "us", Lower, Traced, Bound::None),
    m(
        "kv.step_side.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_side.ns_per_event",
        "ns",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_other.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "kv.step_other.ns_per_event",
        "ns",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "sql.exec_issue.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "sql.exec_issue.ns_per_stmt",
        "ns",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "workload.gen.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "ledger.driver.host_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m(
        "ledger.trace_overhead_share",
        "share",
        Lower,
        Traced,
        Bound::None,
    ),
    m("sim.events_per_op", "count", Lower, Traced, Exact),
    m("sim.host_ns_per_event", "ns", Lower, Traced, Bound::None),
    // ---- traced pass: exact counts per op from registry deltas ----
    m("kv.rpcs_per_op", "count", Lower, Traced, Exact),
    m("kv.txn_restarts_per_op", "count", Lower, Traced, Exact),
    m("kv.refreshes_per_op", "count", Lower, Traced, Exact),
    m("kv.follower_read_share", "share", Higher, Traced, Exact),
    m("kv.commit_wait_ms_per_write", "ms", Lower, Traced, Exact),
    m("raft.entries_per_op", "count", Lower, Traced, Exact),
    m("raft.batch_occupancy_mean", "count", Higher, Traced, Exact),
    m("raft.read_fast_path_share", "share", Higher, Traced, Exact),
    m("raft.heartbeats_per_sim_s", "1/s", Lower, Traced, Exact),
    m("raft.quiesced_share_end", "share", Higher, Traced, Exact),
    m("storage.wal_bytes_per_op", "B", Lower, Traced, Exact),
    m(
        "storage.wal_bytes_per_user_byte",
        "B/B",
        Lower,
        Traced,
        Exact,
    ),
    m("storage.flushes", "count", Lower, Traced, Exact),
    m("storage.compactions", "count", Lower, Traced, Exact),
    m("storage.sst_count_end", "count", Lower, Traced, Exact),
    m("storage.bloom_skip_share", "share", Higher, Traced, Exact),
    m("obs.monitor_checks_per_op", "count", Lower, Traced, Exact),
    m("obs.scrapes", "count", Lower, Traced, Exact),
    m("obs.registry_series", "count", Lower, Traced, Exact),
    // ---- traced pass: host process accounting ----
    m("host.allocs_per_op", "count", Lower, Traced, Bound::None),
    m("host.alloc_bytes_per_op", "B", Lower, Traced, Bound::None),
    m("host.cpu_share", "share", Higher, Traced, Bound::None),
    m("host.sys_share", "share", Lower, Traced, Bound::None),
    // ---- layer-direct pass ----
    m(
        "sim.calendar.ns_push_pop_d1k",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m(
        "sim.calendar.ns_push_pop_d100k",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m("sim.topo_link.ns", "ns", Lower, Layers, Bound::None),
    m("clock.hlc_now.ns", "ns", Lower, Layers, Bound::None),
    m("clock.hlc_update.ns", "ns", Lower, Layers, Bound::None),
    m("storage.get.ns_r0", "ns", Lower, Layers, Bound::None),
    m("storage.get.ns_r1", "ns", Lower, Layers, Bound::None),
    m("storage.get.ns_r8", "ns", Lower, Layers, Bound::None),
    m("storage.get_miss.ns_r8", "ns", Lower, Layers, Bound::None),
    m("storage.scan100.us_r0", "us", Lower, Layers, Bound::None),
    m("storage.scan100.us_r8", "us", Lower, Layers, Bound::None),
    m(
        "storage.scan_limit10_of_10k.us_r8",
        "us",
        Lower,
        Layers,
        Bound::None,
    ),
    m("storage.tscache.ns", "ns", Lower, Layers, Bound::None),
    m(
        "storage.put_commit_seal.ns",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m("storage.wal_sync.ns", "ns", Lower, Layers, Bound::None),
    m(
        "storage.wal_replay.mb_per_s",
        "MiB/s",
        Higher,
        Layers,
        Bound::None,
    ),
    m(
        "storage.flush.us_per_1k_versions",
        "us",
        Lower,
        Layers,
        Bound::None,
    ),
    m(
        "storage.maintain.us_per_1k_versions",
        "us",
        Lower,
        Layers,
        Bound::None,
    ),
    m(
        "raft.propose_commit_3v.ns_per_entry",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m(
        "raft.propose_commit_batch8.ns_per_cmd",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m("raft.tick_leader.ns", "ns", Lower, Layers, Bound::None),
    m("raft.tick_quiesced.ns", "ns", Lower, Layers, Bound::None),
    m(
        "kv.locks.acquire_release.ns",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m(
        "sql.tokenize.ns_point_select",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m(
        "sql.parse.ns_point_select",
        "ns",
        Lower,
        Layers,
        Bound::None,
    ),
    m("sql.parse.ns_upsert", "ns", Lower, Layers, Bound::None),
    m("sql.parse.ns_tpcc_stmt", "ns", Lower, Layers, Bound::None),
    m("sql.plan_read.ns_point", "ns", Lower, Layers, Bound::None),
    m("obs.counter_inc.ns", "ns", Lower, Layers, Bound::None),
    m("obs.histogram_record.ns", "ns", Lower, Layers, Bound::None),
    m("obs.span_start_finish.ns", "ns", Lower, Layers, Bound::None),
    m("obs.dump_json.us", "us", Lower, Layers, Bound::None),
    m("obs.scrape_now.us_5r", "us", Lower, Layers, Bound::None),
    m("obs.scrape_now.us_26r", "us", Lower, Layers, Bound::None),
    m("workload.ycsb_next_op.ns", "ns", Lower, Layers, Bound::None),
    m("workload.tpcc_next_op.ns", "ns", Lower, Layers, Bound::None),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

pub fn of_pass(pass: Pass) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |d| d.pass == pass)
}

/// The end-to-end metrics `BENCHMARK.json` gates. The benchmark contract
/// judges a metric by its spread over runs of *different* seeds, wants it
/// never 0, and caps a bound at 25 %. Only the two host timings qualify on
/// all four workloads: `failed_share` and `audit_violations` are 0 on a
/// healthy run (they travel in the result line's `failed`/`attempted`/
/// `correct`), the simulated figures are exact for a seed but differ by
/// 10–60 % between seeds (`sim_read_p50_ms` is 0.1 ms on every seed of
/// three workloads), and `peak_rss_mb` repeats within 0.1 % for a seed but
/// swings ±30 % between seeds on `tpcc_nothink`. `mr-ledger compare` gates
/// all ten, seed against same seed.
///
/// Each with its contract bound, sized to the spread ten different seeds
/// show on the reference box (see the README's steadiness table).
pub const CONTRACT_END_TO_END: [(&str, f64); 2] = [("setup_s", 0.25), ("ops_per_host_s", 0.25)];

fn contract_bound(name: &str) -> Option<f64> {
    CONTRACT_END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, b)| *b)
}

pub fn contract_end_to_end() -> impl Iterator<Item = (&'static MetricDef, f64)> {
    METRICS
        .iter()
        .filter_map(|d| Some((d, contract_bound(d.name)?)))
}

/// What `BENCHMARK.json` lists as per-layer (reported, never gated): the
/// traced and layer-direct metrics, and the end-to-end metrics the contract
/// cannot gate.
pub fn contract_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|d| contract_bound(d.name).is_none() && !matches!(d.bound, Bound::Abs(_)))
}

/// Upper median: the middle value, or the higher of the middle two.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// An ordered set of measured values.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "unknown metric {name}");
        debug_assert!(self.get(name).is_none(), "metric {name} pushed twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in METRICS {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(contract_per_layer().count() <= 128);
        assert_eq!(of_pass(Pass::E2e).count(), 10);
    }
}
