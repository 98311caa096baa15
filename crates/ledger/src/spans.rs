//! In-memory host-time spans for the traced pass.
//!
//! The driver calls [`Recorder::mark`] at every boundary between its own
//! bookkeeping and a call into a layer. Each mark closes the span that runs
//! from the previous mark to now, so the spans tile the measured phase by
//! construction: every host nanosecond belongs to exactly one name.
//! Aggregates are `mr_obs::Histogram`s (count, sum, max, log-linear
//! quantiles; they grow a bucket vector a few dozen times in a run) and the
//! raw-span buffer is pre-allocated, so recording adds next to nothing to
//! the counting allocator's figures.

use mr_obs::Histogram;

use crate::host::now_ns;

/// Span names, in the order of [`Kind`]'s discriminants.
pub const SPAN_NAMES: [&str; 9] = [
    "workload.gen",
    "sql.exec_issue",
    "kv.step_rpc",
    "kv.step_raft",
    "kv.step_tick",
    "kv.step_side",
    "kv.step_wake",
    "kv.step_other",
    "ledger.driver",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Gen = 0,
    SqlExec = 1,
    StepRpc = 2,
    StepRaft = 3,
    StepTick = 4,
    StepSide = 5,
    StepWake = 6,
    StepOther = 7,
    Driver = 8,
}

/// Raw spans kept for the Chrome-trace dump.
pub const RAW_SPAN_CAP: usize = 10_000;

#[derive(Clone, Copy)]
struct RawSpan {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    /// Driver op id for spans that belong to one op (`sql.exec_issue`,
    /// `workload.gen`); `u64::MAX` otherwise.
    op_id: u64,
}

pub struct Recorder {
    enabled: bool,
    cursor: u64,
    aggs: Vec<Histogram>,
    raw: Vec<RawSpan>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            cursor: 0,
            aggs: vec![Histogram::new(); SPAN_NAMES.len()],
            raw: Vec::with_capacity(if enabled { RAW_SPAN_CAP } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start tiling at `now`.
    pub fn begin(&mut self, now: u64) {
        self.cursor = now;
    }

    /// Close the span `[previous mark, now)` under `kind`.
    #[inline]
    pub fn mark(&mut self, kind: Kind) {
        self.mark_op(kind, u64::MAX);
    }

    #[inline]
    pub fn mark_op(&mut self, kind: Kind, op_id: u64) {
        if !self.enabled {
            return;
        }
        let now = now_ns();
        self.aggs[kind as usize].record(now - self.cursor);
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(RawSpan {
                kind,
                start_ns: self.cursor,
                end_ns: now,
                op_id,
            });
        }
        self.cursor = now;
    }

    /// Durations (ns) of every span closed under `kind`.
    pub fn agg(&self, kind: Kind) -> &Histogram {
        &self.aggs[kind as usize]
    }

    /// Sum of every span's duration.
    pub fn total_ns(&self) -> u64 {
        self.aggs.iter().map(Histogram::sum).sum()
    }

    /// The first [`RAW_SPAN_CAP`] spans as a Chrome trace (`chrome://tracing`
    /// / Perfetto "X" events, microsecond timestamps).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}",
                SPAN_NAMES[s.kind as usize],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            ));
            if s.op_id != u64::MAX {
                out.push_str(&format!(",\"args\":{{\"op_id\":{}}}", s.op_id));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_tile_the_interval() {
        let mut r = Recorder::new(true);
        let t0 = now_ns();
        r.begin(t0);
        for i in 0..100 {
            r.mark(Kind::Driver);
            r.mark_op(Kind::SqlExec, i);
        }
        let t1 = r.cursor;
        assert_eq!(r.total_ns(), t1 - t0);
        assert_eq!(r.agg(Kind::SqlExec).count(), 100);
        assert!(r.chrome_json().contains("\"op_id\":99"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.begin(now_ns());
        r.mark(Kind::Gen);
        assert_eq!(r.total_ns(), 0);
        assert_eq!(r.agg(Kind::Gen).count(), 0);
    }
}
