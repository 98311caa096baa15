//! Structured trace spans in sim-time.
//!
//! A span covers one logical step of a request (a SQL statement, a txn
//! commit, one RPC hop) with a parent link, key/value attributes, and
//! point-in-time events. Because timestamps come from the simulator, traces
//! are exactly reproducible — and double as a correctness tool: tests walk a
//! span tree to assert causal properties ("this follower read contains zero
//! cross-region RPC hops") instead of only end-state counters.
//!
//! The tracer is disabled by default (every call is a cheap no-op returning
//! `None`) so instrumented hot paths cost one branch when tracing is off:
//! attribute and event values are taken as `impl Display` and rendered only
//! into a live span, so call sites pass `format_args!(..)` or the value
//! itself and never build a `String` for a span that is not there.
//! Exports: Chrome-trace JSON (load in `chrome://tracing` or Perfetto) and an
//! indented human-readable tree.
//!
//! Retention is a [`Ring`]: once `cap` spans are held, each new span evicts
//! the oldest and bumps a `dropped` counter, so long-running traced workloads
//! hold memory under a fixed cap. Span ids stay **globally monotone** across
//! evictions and [`Tracer::clear`] — an id is never reused, so a stale
//! `SpanId` held across either simply resolves to nothing (mutations become
//! no-ops, `try_get` returns `None`) instead of aliasing a newer span.

use std::cell::RefCell;
use std::fmt::Display;
use std::rc::Rc;

use crate::export::JsonWriter;
use crate::ring::Ring;
use mr_sim::{SimDuration, SimTime};

/// Opaque span handle. Ids are assigned sequentially from 1 and never
/// reused, even across [`Tracer::clear`] or ring eviction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw numeric id (stable join key for SQL surfaces and exports).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from a raw id (the inverse of [`SpanId::raw`], for
    /// joining SQL-visible ids back into the trace store). Unknown or
    /// evicted ids are safe: lookups through [`Tracer::try_get`] return
    /// `None` and mutations no-op.
    pub fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanData {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start: SimTime,
    pub end: Option<SimTime>,
    pub attrs: Vec<(&'static str, String)>,
    pub events: Vec<(SimTime, String)>,
}

impl SpanData {
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e - self.start)
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Default span retention. Statements open a handful of spans each, so this
/// covers tens of thousands of recent statements; long chaos runs roll over
/// with `dropped` accounting.
pub const DEFAULT_SPAN_CAP: usize = 65_536;

struct Inner {
    enabled: bool,
    spans: Ring<SpanData>,
    /// Spans forgotten by `clear`, which the ring does not count as drops:
    /// span `i` of the ring has id `cleared + spans.dropped() + i + 1`.
    cleared: u64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            enabled: false,
            spans: Ring::new(DEFAULT_SPAN_CAP),
            cleared: 0,
        }
    }
}

impl Inner {
    /// Ring index of a live span; `None` for evicted/cleared or
    /// not-yet-allocated ids.
    fn index(&self, id: SpanId) -> Option<usize> {
        let idx = id.0.checked_sub(self.cleared + self.spans.dropped() + 1)?;
        ((idx as usize) < self.spans.len()).then_some(idx as usize)
    }

    fn get(&self, id: SpanId) -> Option<&SpanData> {
        self.spans.get(self.index(id)?)
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanData> {
        let i = self.index(id)?;
        self.spans.get_mut(i)
    }
}

/// The tracer. Cloning shares the underlying span store.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Rc<RefCell<Inner>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.inner.borrow_mut().enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Drop all recorded spans (keeps the enabled flag). Span ids are not
    /// reused: handles held across a clear become no-ops rather than
    /// aliasing spans recorded afterwards.
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.cleared += inner.spans.len() as u64;
        inner.spans.clear();
    }

    /// Change the retention cap, evicting oldest spans if over it.
    pub fn set_capacity(&self, cap: usize) {
        self.inner.borrow_mut().spans.set_cap(cap);
    }

    /// Spans evicted by the retention cap so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().spans.dropped()
    }

    /// Open a span. Returns `None` when tracing is disabled; every other
    /// method accepts `None` as a no-op, so call sites just thread the option.
    pub fn start(&self, name: &str, parent: Option<SpanId>, now: SimTime) -> Option<SpanId> {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return None;
        }
        let id = SpanId(inner.cleared + inner.spans.pushed() + 1);
        inner.spans.push(SpanData {
            id,
            parent,
            name: name.to_string(),
            start: now,
            end: None,
            attrs: Vec::new(),
            events: Vec::new(),
        });
        Some(id)
    }

    pub fn attr(&self, span: Option<SpanId>, key: &'static str, value: impl Display) {
        if let Some(id) = span {
            if let Some(s) = self.inner.borrow_mut().get_mut(id) {
                s.attrs.push((key, value.to_string()));
            }
        }
    }

    pub fn event(&self, span: Option<SpanId>, now: SimTime, message: impl Display) {
        if let Some(id) = span {
            if let Some(s) = self.inner.borrow_mut().get_mut(id) {
                s.events.push((now, message.to_string()));
            }
        }
    }

    pub fn finish(&self, span: Option<SpanId>, now: SimTime) {
        if let Some(id) = span {
            if let Some(s) = self.inner.borrow_mut().get_mut(id) {
                if s.end.is_none() {
                    s.end = Some(now);
                }
            }
        }
    }

    // ---- queries (for tests and reports) ----

    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A retained span, or `None` if the id was evicted or cleared.
    pub fn try_get(&self, id: SpanId) -> Option<SpanData> {
        self.inner.borrow().get(id).cloned()
    }

    pub fn get(&self, id: SpanId) -> SpanData {
        self.try_get(id)
            .unwrap_or_else(|| panic!("span {} is evicted or unknown", id.0))
    }

    /// Spans with no parent, in creation order.
    pub fn roots(&self) -> Vec<SpanId> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.id)
            .collect()
    }

    /// All spans with this exact name, in creation order.
    pub fn find_by_name(&self, name: &str) -> Vec<SpanId> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.id)
            .collect()
    }

    pub fn children(&self, id: SpanId) -> Vec<SpanId> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.id)
            .collect()
    }

    /// Every span transitively below `id` (not including `id`), in creation
    /// order. Evicted ancestors break the chain: only links through retained
    /// spans (or directly to `id`) count.
    pub fn descendants(&self, id: SpanId) -> Vec<SpanId> {
        let inner = self.inner.borrow();
        let mut below = vec![false; inner.spans.len()];
        let mut out = Vec::new();
        for (i, s) in inner.spans.iter().enumerate() {
            let is_below = match s.parent {
                Some(p) if p == id => true,
                Some(p) => inner.index(p).map(|pi| below[pi]).unwrap_or(false),
                None => false,
            };
            below[i] = is_below;
            if is_below {
                out.push(s.id);
            }
        }
        out
    }

    /// Walk up the parent chain to this span's root (or to the deepest
    /// retained ancestor, when the chain crosses an evicted span).
    pub fn root_of(&self, id: SpanId) -> SpanId {
        let inner = self.inner.borrow();
        let mut cur = id;
        while let Some(s) = inner.get(cur) {
            match s.parent {
                Some(p) if inner.index(p).is_some() => cur = p,
                _ => break,
            }
        }
        cur
    }

    // ---- exports ----

    /// Chrome-trace JSON ("X" complete events, ts/dur in microseconds).
    /// Deterministic: spans render in id order with integer-derived times.
    pub fn export_chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut w = JsonWriter::default();
        w.arr();
        for s in inner.spans.iter() {
            let start_ns = s.start.0;
            let dur_ns = s.end.map(|e| e.0 - s.start.0).unwrap_or(0);
            w.obj_inline().field("name", &s.name);
            w.field("cat", "sim").field("ph", "X");
            w.key("ts");
            w.raw(format_args!("{}.{:03}", start_ns / 1000, start_ns % 1000));
            w.key("dur");
            w.raw(format_args!("{}.{:03}", dur_ns / 1000, dur_ns % 1000));
            w.field("pid", 0u64).field("tid", self.root_of(s.id).0);
            w.key("args").obj_inline().field("span", s.id.0);
            w.field("parent", s.parent.map_or(0, |p| p.0));
            for (k, v) in &s.attrs {
                w.field(k, v);
            }
            w.end().end();
        }
        w.end();
        w.finish()
    }

    /// Indented tree rendering of one span and its descendants.
    pub fn render_tree(&self, root: SpanId) -> String {
        let mut out = String::new();
        self.render_into(root, 0, &mut out);
        out
    }

    fn render_into(&self, id: SpanId, depth: usize, out: &mut String) {
        let s = self.get(id);
        let indent = "  ".repeat(depth);
        let dur = match s.duration() {
            Some(d) => format!("{d}"),
            None => "unfinished".to_string(),
        };
        out.push_str(&format!("{indent}{} [{} +{dur}]", s.name, s.start));
        for (k, v) in &s.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for (at, msg) in &s.events {
            out.push_str(&format!("{indent}  · {at}: {msg}\n"));
        }
        let mut kids = self.children(id);
        kids.sort_by_key(|k| (self.get(*k).start, *k));
        for child in kids {
            self.render_into(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime(SimDuration::from_millis(ms).nanos())
    }

    #[test]
    fn disabled_tracer_is_a_noop() {
        let tr = Tracer::new();
        let s = tr.start("op", None, t(0));
        assert!(s.is_none());
        tr.attr(s, "k", "v");
        tr.finish(s, t(1));
        assert!(tr.is_empty());
    }

    #[test]
    fn parent_child_and_queries() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let root = tr.start("sql.stmt", None, t(0));
        let txn = tr.start("txn.commit", root, t(1));
        let rpc = tr.start("rpc.put", txn, t(2));
        tr.attr(rpc, "from_region", "us-east1");
        tr.finish(rpc, t(3));
        tr.finish(txn, t(5));
        tr.finish(root, t(6));

        let root = root.unwrap();
        assert_eq!(tr.roots(), vec![root]);
        assert_eq!(tr.children(root), vec![txn.unwrap()]);
        assert_eq!(tr.descendants(root), vec![txn.unwrap(), rpc.unwrap()]);
        assert_eq!(tr.root_of(rpc.unwrap()), root);
        let rpc_data = tr.get(rpc.unwrap());
        assert_eq!(rpc_data.attr("from_region"), Some("us-east1"));
        assert_eq!(rpc_data.duration(), Some(SimDuration::from_millis(1)));
        assert_eq!(tr.find_by_name("rpc.put"), vec![rpc.unwrap()]);
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let tr = Tracer::new();
            tr.set_enabled(true);
            let a = tr.start("a", None, t(0));
            let b = tr.start("b", a, t(1));
            tr.attr(b, "region", "eu");
            tr.event(b, t(2), "applied");
            tr.finish(b, t(3));
            tr.finish(a, t(4));
            tr
        };
        assert_eq!(build().export_chrome_json(), build().export_chrome_json());
        let tree = build().render_tree(build().roots()[0]);
        // Rendering twice from identically-built tracers is byte-identical.
        assert_eq!(tree, build().render_tree(build().roots()[0]));
        assert!(tree.contains("region=eu"));
        assert!(tree.contains("applied"));
        let json = build().export_chrome_json();
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 1000.000"));
    }

    /// Regression: span ids used to restart at 1 after `clear`, so a stale
    /// handle aliased whatever span was recorded next. Ids must stay
    /// globally monotone and stale handles must become no-ops.
    #[test]
    fn stale_handles_across_clear_do_not_alias_new_spans() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let old = tr.start("before", None, t(0));
        tr.clear();
        let new = tr.start("after", None, t(10));
        assert_ne!(old, new, "cleared ids must never be reused");

        // Mutations through the stale handle are no-ops, not cross-writes.
        tr.attr(old, "k", "stale");
        tr.event(old, t(11), "stale event");
        tr.finish(old, t(12));
        assert!(tr.try_get(old.unwrap()).is_none());
        let fresh = tr.get(new.unwrap());
        assert!(fresh.attrs.is_empty() && fresh.events.is_empty());
        assert_eq!(fresh.end, None);
        assert_eq!(fresh.name, "after");
    }

    #[test]
    fn retention_cap_evicts_oldest_with_monotone_ids_and_dropped_counter() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.set_capacity(2);
        let a = tr.start("a", None, t(0)).unwrap();
        let b = tr.start("b", None, t(1)).unwrap();
        let c = tr.start("c", Some(b), t(2)).unwrap();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 1);
        assert!(tr.try_get(a).is_none(), "oldest span evicted");
        assert_eq!(tr.get(c).parent, Some(b));
        // Queries survive eviction: indices derive from the monotone ids.
        assert_eq!(tr.descendants(b), vec![c]);
        assert_eq!(tr.root_of(c), b);
        assert_eq!(tr.roots(), vec![b]);
        // Mutating the evicted span is a no-op; live spans still work.
        tr.finish(Some(a), t(5));
        tr.finish(Some(c), t(5));
        assert_eq!(tr.get(c).end, Some(t(5)));
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let ids: Vec<_> = (0..5).map(|i| tr.start("s", None, t(i)).unwrap()).collect();
        tr.set_capacity(2);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
        assert!(tr.try_get(ids[2]).is_none());
        assert!(tr.try_get(ids[3]).is_some());
    }
}
