//! Incident bundles: deterministic forensics captured at the moment a
//! chaos run fails its checker or an online invariant monitor.
//!
//! When [`run_chaos`](crate::nemesis::run_chaos) detects a violation it
//! assembles an [`IncidentBundle`] from the still-live cluster — the
//! offending operations plus the surrounding history window, the fault-
//! schedule step in effect, trace-span subtrees of transactions active
//! around the violation, the admin event log and metrics history around
//! the violation timestamp, and a per-range placement snapshot. The bundle
//! is a flat list of `(filename, JSON contents)` pairs built exclusively
//! from simulation state, so two same-seed runs produce byte-identical
//! bundles — golden-testable, and `write_to` materializes them as a
//! directory for a human (or CI log) to pick through.

use std::io;
use std::path::{Path, PathBuf};

use mr_kv::cluster::Cluster;
use mr_obs::export::JsonWriter;
use mr_obs::Resolution;
use mr_sim::{SimDuration, SimTime};

use crate::checker::CheckReport;
use crate::history::History;
use crate::schedule::FaultSchedule;

/// How much history/telemetry to keep on each side of the violation
/// timestamps.
const WINDOW_MARGIN: SimDuration = SimDuration::from_secs(5);

/// One assembled incident bundle: ordered `(filename, contents)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncidentBundle {
    files: Vec<(String, String)>,
}

impl IncidentBundle {
    /// Capture forensics from a failed run. `None` when there is nothing
    /// to report (checker passed and no monitor violations).
    pub fn collect(
        cluster: &Cluster,
        schedule: &FaultSchedule,
        history: &History,
        report: &CheckReport,
    ) -> Option<IncidentBundle> {
        let monitor_violations = cluster.obs.monitors.violations();
        if report.passed() && monitor_violations.is_empty() {
            return None;
        }

        // The window spans every violation timestamp plus a margin.
        let stamps: Vec<SimTime> = report
            .violations
            .iter()
            .map(|v| v.at)
            .chain(monitor_violations.iter().map(|v| v.at))
            .collect();
        let lo = stamps.iter().min().copied().unwrap_or(SimTime::ZERO);
        let hi = stamps.iter().max().copied().unwrap_or(SimTime::ZERO);
        let from = SimTime(lo.0.saturating_sub(WINDOW_MARGIN.nanos()));
        let to = hi + WINDOW_MARGIN;

        let mut files = vec![
            (
                "violations.json".into(),
                violations_json(report, schedule, cluster),
            ),
            ("schedule.json".into(), schedule_json(schedule)),
            (
                "history_window.json".into(),
                history_json(history, report, from, to),
            ),
            ("spans.json".into(), spans_json(cluster, from, to)),
            ("events_window.json".into(), events_json(cluster, from, to)),
            (
                "metrics_window.json".into(),
                metrics_json(cluster, from, to),
            ),
            ("ranges.json".into(), ranges_json(cluster)),
        ];
        // The manifest goes first but is built last: it indexes the rest.
        let manifest = manifest_json(report, &monitor_violations, from, to, &files);
        files.insert(0, ("manifest.json".into(), manifest));
        Some(IncidentBundle { files })
    }

    /// The bundle's files in order, `manifest.json` first.
    pub fn files(&self) -> &[(String, String)] {
        &self.files
    }

    /// Contents of one file by name.
    pub fn file(&self, name: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
    }

    /// Materialize the bundle as a directory (created if missing); returns
    /// the directory path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        for (name, contents) in &self.files {
            std::fs::write(dir.join(name), contents)?;
        }
        Ok(dir.to_path_buf())
    }
}

fn manifest_json(
    report: &CheckReport,
    monitor_violations: &[mr_obs::monitor::Violation],
    from: SimTime,
    to: SimTime,
    files: &[(String, String)],
) -> String {
    let first = report
        .violations
        .first()
        .map(|v| v.kind)
        .or_else(|| monitor_violations.first().map(|v| v.invariant));
    let mut w = JsonWriter::default();
    w.obj().field("seed", report.seed);
    w.field("schedule", &report.schedule_name);
    w.field("checker_violations", report.violations.len());
    w.field("monitor_violations", monitor_violations.len());
    w.field("first_violation", first);
    w.field("window_from_ns", from.0);
    w.field("window_to_ns", to.0);
    w.key("files").arr_inline();
    w.vals(files.iter().map(|(n, _)| n)).end().end();
    w.finish()
}

/// Checker violations (with the schedule step in effect) followed by
/// online monitor violations.
fn violations_json(report: &CheckReport, schedule: &FaultSchedule, cluster: &Cluster) -> String {
    let mut w = JsonWriter::default();
    w.arr();
    for v in &report.violations {
        let step = schedule.step_before(v.at);
        w.obj_inline().field("source", "checker");
        w.field("kind", v.kind).field("at_ns", v.at.0);
        w.key("ops").arr_inline().vals(&v.ops).end();
        w.field("step", step.map(|(i, _)| i));
        w.field("fault", step.map(|(_, s)| s.fault.to_string()));
        w.field("detail", &v.detail).end();
    }
    for v in cluster.obs.monitors.violations() {
        w.obj_inline().field("source", "monitor");
        w.field("kind", v.invariant).field("at_ns", v.at.0);
        w.field("detail", &v.detail).end();
    }
    w.end();
    w.finish()
}

fn schedule_json(schedule: &FaultSchedule) -> String {
    let mut w = JsonWriter::default();
    w.obj().field("name", &schedule.name).key("steps").arr();
    for (i, s) in schedule.steps.iter().enumerate() {
        w.obj_inline().field("step", i);
        w.field("at_offset_ns", s.at.nanos());
        w.field("fault", s.fault.to_string()).end();
    }
    w.end().end();
    w.finish()
}

/// Ops implicated by a violation (always included, in full) plus every op
/// invoked inside the window.
fn history_json(history: &History, report: &CheckReport, from: SimTime, to: SimTime) -> String {
    let implicated: std::collections::BTreeSet<u64> = report
        .violations
        .iter()
        .flat_map(|v| v.ops.iter().copied())
        .collect();
    let mut w = JsonWriter::default();
    w.arr();
    for op in history.ops() {
        let in_window = op.invoke_at >= from && op.invoke_at <= to;
        let flagged = implicated.contains(&op.id);
        if !in_window && !flagged {
            continue;
        }
        w.obj_inline().field("op", op.id);
        w.field("implicated", flagged);
        w.field("client", op.client).field("kind", op.kind.label());
        w.field("key", &op.key).field("outcome", op.outcome.label());
        w.field("invoke_ns", op.invoke_at.0);
        w.field("complete_ns", op.complete_at.map(|t| t.0));
        w.field("value", op.value).key("ts");
        match op.ts {
            Some(t) => w.arr_inline().val(t.wall).val(t.logical).end(),
            None => w.val(None::<u64>),
        };
        w.field("error", &op.error).end();
    }
    w.end();
    w.finish()
}

/// Span subtrees of transactions alive inside the window: every retained
/// root span whose lifetime overlaps `[from, to]`, flattened with its
/// descendants in creation order.
fn spans_json(cluster: &Cluster, from: SimTime, to: SimTime) -> String {
    let tr = &cluster.obs.tracer;
    let mut w = JsonWriter::default();
    w.arr();
    for root in tr.roots() {
        let Some(r) = tr.try_get(root) else { continue };
        // An unfinished span is still alive: it overlaps any window that
        // starts before `to`.
        let end = r.end.unwrap_or(to);
        if end < from || r.start > to {
            continue;
        }
        let mut ids = vec![root];
        ids.extend(tr.descendants(root));
        for id in ids {
            let Some(s) = tr.try_get(id) else { continue };
            w.obj_inline().field("id", s.id.raw());
            w.field("root", root.raw());
            w.field("parent", s.parent.map(|p| p.raw()));
            w.field("name", &s.name).field("start_ns", s.start.0);
            w.field("end_ns", s.end.map(|t| t.0));
            w.key("attrs").obj_inline();
            for (k, v) in &s.attrs {
                w.field(k, v);
            }
            w.end().key("events").arr_inline();
            for (at, m) in &s.events {
                w.arr_inline().val(at.0).val(m).end();
            }
            w.end().end();
        }
    }
    w.end();
    w.finish()
}

fn events_json(cluster: &Cluster, from: SimTime, to: SimTime) -> String {
    let mut w = JsonWriter::default();
    w.arr();
    for e in cluster.events.events() {
        if e.at < from || e.at > to {
            continue;
        }
        w.obj_inline().field("seq", e.seq).field("at_ns", e.at.0);
        w.field("kind", e.kind.label());
        w.field("range", e.kind.range().map(|r| r.0));
        w.field("detail", e.kind.detail()).end();
    }
    w.end();
    w.finish()
}

/// Every fine-resolution sample inside the window, per metric in name
/// order.
fn metrics_json(cluster: &Cluster, from: SimTime, to: SimTime) -> String {
    let mut w = JsonWriter::default();
    w.obj();
    for (metric, samples) in cluster.obs.scraper.windows(Resolution::Fine, from, to) {
        w.key(&metric).arr_inline();
        for (at, v) in samples {
            w.arr_inline().val(at.0).val(v).end();
        }
        w.end();
    }
    w.end();
    w.finish()
}

/// Placement snapshot of every range at capture time.
fn ranges_json(cluster: &Cluster) -> String {
    let topo = cluster.topology();
    let mut w = JsonWriter::default();
    w.arr();
    for desc in cluster.registry().iter() {
        let mut voters: Vec<u32> = desc.voters().map(|n| n.0).collect();
        voters.sort_unstable();
        let mut non_voters: Vec<u32> = desc.non_voters().map(|n| n.0).collect();
        non_voters.sort_unstable();
        let region = topo.region_name(topo.region_of(desc.leaseholder));
        w.obj_inline().field("range", desc.id.0);
        w.field("span", format!("{:?}", desc.span));
        w.field("leaseholder", desc.leaseholder.0);
        w.field("leaseholder_region", region);
        w.key("voters").arr_inline().vals(voters).end();
        w.key("non_voters").arr_inline().vals(non_voters);
        w.end().end();
    }
    w.end();
    w.finish()
}
