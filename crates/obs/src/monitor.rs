//! Online invariant monitors.
//!
//! A [`MonitorSet`] is the generic machinery behind the simulator's
//! always-on self-checks: named invariants (closed-timestamp monotonicity,
//! follower-read safety, commit-wait sufficiency, placement conformance)
//! evaluated continuously while a workload runs, not just in targeted e2e
//! tests. The callers live in `mr-kv` — this module only records outcomes:
//!
//! * every evaluation increments `obs.monitor.checks{invariant=...}`;
//! * every failure increments `obs.monitor.violations{invariant=...}` and
//!   appends a [`Violation`] to an in-memory log (deterministic order:
//!   violations are appended in sim-event order);
//! * in **strict** mode a failure panics immediately with the invariant
//!   name and detail, so the tier-1 suite and `perf_probe` turn any
//!   invariant regression into a hard failure.
//!
//! Cloning shares the underlying state, mirroring the other `mr-obs`
//! instruments.

use std::cell::RefCell;
use std::rc::Rc;

use crate::registry::{Counter, Registry};
use mr_sim::SimTime;

/// One recorded invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    pub at: SimTime,
    pub invariant: &'static str,
    pub detail: String,
}

#[derive(Default)]
struct Inner {
    strict: bool,
    violations: Vec<Violation>,
    /// `obs.monitor.checks{invariant}` handles, bound on each invariant's
    /// first check (so registration order is that of first use). A handful
    /// of entries: a linear scan beats building a key per check.
    checks: Vec<(&'static str, Counter)>,
}

/// Shared set of online invariant monitors.
#[derive(Clone, Default)]
pub struct MonitorSet {
    inner: Rc<RefCell<Inner>>,
}

impl MonitorSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// In strict mode any violation panics at the point of detection.
    pub fn set_strict(&self, strict: bool) {
        self.inner.borrow_mut().strict = strict;
    }

    pub fn strict(&self) -> bool {
        self.inner.borrow().strict
    }

    /// Evaluate one invariant check: `ok == true` records a pass, `ok ==
    /// false` records a violation (and panics in strict mode). `detail` is
    /// only rendered on failure. A monitor set reports into one registry:
    /// the one its first check of each invariant was handed.
    pub fn check(
        &self,
        registry: &Registry,
        invariant: &'static str,
        at: SimTime,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        {
            let checks = &mut self.inner.borrow_mut().checks;
            let bound = checks.iter().position(|(name, _)| *name == invariant);
            let i = bound.unwrap_or_else(|| {
                let counter = registry.counter("obs.monitor.checks", &[("invariant", invariant)]);
                checks.push((invariant, counter));
                checks.len() - 1
            });
            checks[i].1.inc();
        }
        if !ok {
            self.violation(registry, invariant, at, detail());
        }
    }

    /// Record a violation directly (for callers that detect failure without
    /// a paired pass-path).
    pub fn violation(
        &self,
        registry: &Registry,
        invariant: &'static str,
        at: SimTime,
        detail: String,
    ) {
        registry
            .counter("obs.monitor.violations", &[("invariant", invariant)])
            .inc();
        let strict = {
            let mut inner = self.inner.borrow_mut();
            inner.violations.push(Violation {
                at,
                invariant,
                detail: detail.clone(),
            });
            inner.strict
        };
        if strict {
            panic!("invariant violated at {at}: {invariant}: {detail}");
        }
    }

    /// Total violations recorded so far.
    pub fn violation_count(&self) -> usize {
        self.inner.borrow().violations.len()
    }

    /// Violations recorded for one invariant.
    pub fn violations_for(&self, invariant: &str) -> usize {
        self.inner
            .borrow()
            .violations
            .iter()
            .filter(|v| v.invariant == invariant)
            .count()
    }

    /// Copy of the violation log, in detection order.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.borrow().violations.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_and_violations_are_counted() {
        let r = Registry::new();
        let m = MonitorSet::new();
        m.check(&r, "inv.a", SimTime(1), true, || unreachable!());
        m.check(&r, "inv.a", SimTime(2), false, || "broke".into());
        m.check(&r, "inv.b", SimTime(3), false, || "also broke".into());
        assert_eq!(r.counter_total("obs.monitor.checks"), 3);
        assert_eq!(r.counter_total("obs.monitor.violations"), 2);
        assert_eq!(m.violation_count(), 2);
        assert_eq!(m.violations_for("inv.a"), 1);
        let log = m.violations();
        assert_eq!(log[0].invariant, "inv.a");
        assert_eq!(log[0].detail, "broke");
        assert_eq!(log[1].at, SimTime(3));
    }

    #[test]
    fn strict_mode_panics_on_violation() {
        let r = Registry::new();
        let m = MonitorSet::new();
        m.set_strict(true);
        assert!(m.strict());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.check(&r, "inv.p", SimTime(9), false, || "boom".into());
        }));
        let err = res.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("inv.p"), "panic message names the invariant");
        assert!(msg.contains("boom"));
        // The violation was still recorded before the panic.
        assert_eq!(m.violation_count(), 1);
    }
}
