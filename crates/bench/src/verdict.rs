//! The one gate mechanism of every gated binary. A [`Check`] over a report's
//! numbers becomes a named [`Verdict`]; [`conclude`] writes the report,
//! prints its verdicts and fails the run on a gated one that does not hold.
//! The paper's figures ([`crate::paper`]) and the mechanism probes gate
//! through it alike.

use std::fmt;

/// One claim checked over a report's numbers.
pub struct Verdict {
    /// The claim, with its threshold.
    pub claim: &'static str,
    pub holds: bool,
    /// The values the claim was checked on.
    pub seen: String,
    /// The ROADMAP direction that owns a claim that does not hold yet. Such
    /// a claim is printed, not gated.
    pub open: Option<&'static str>,
}

impl Verdict {
    /// A gated claim that does not hold.
    pub fn fails(&self) -> bool {
        !self.holds && self.open.is_none()
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = match (self.open, self.holds) {
            (Some(_), _) => "open",
            (None, true) => "ok",
            (None, false) => "FAIL",
        };
        write!(f, "shape {status:<4} {}: {}", self.claim, self.seen)?;
        match self.open {
            Some(d) if self.holds => write!(f, " [holds; ROADMAP direction {d}]"),
            Some(d) => write!(f, " [not yet; ROADMAP direction {d}]"),
            None => Ok(()),
        }
    }
}

/// A check over a report: whether it passed, and what it saw.
pub(crate) struct Check(pub(crate) bool, pub(crate) String);

/// Every one of `values` lies in `[lo, hi]`.
pub(crate) fn within(values: &[f64], lo: f64, hi: f64) -> Check {
    Check(values.iter().all(|&v| lo <= v && v <= hi), list(values))
}

/// Every one of `values` is at least `lo`.
pub(crate) fn at_least(values: &[f64], lo: f64) -> Check {
    within(values, lo, f64::INFINITY)
}

/// `values` never fall from one to the next.
pub(crate) fn ascending(values: &[f64]) -> Check {
    Check(values.windows(2).all(|w| w[0] <= w[1]), list(values))
}

/// `values` joined by ` / `, two decimals each.
pub(crate) fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    parts.join(" / ")
}

impl Check {
    /// The gated verdict on `claim`.
    pub(crate) fn gate(self, claim: &'static str) -> Verdict {
        let Check(holds, seen) = self;
        let open = None;
        Verdict {
            claim,
            holds,
            seen,
            open,
        }
    }

    /// The verdict on `claim`, open: ROADMAP `direction` is to make it hold.
    pub(crate) fn open(self, claim: &'static str, direction: &'static str) -> Verdict {
        let mut v = self.gate(claim);
        v.open = Some(direction);
        v
    }
}

/// How many of `verdicts` are gated, how many of those fail, and how many
/// are open.
pub fn tally(verdicts: &[Verdict]) -> [u64; 3] {
    let count = |f: fn(&Verdict) -> bool| verdicts.iter().filter(|v| f(v)).count() as u64;
    let open = count(|v| v.open.is_some());
    [verdicts.len() as u64 - open, count(Verdict::fails), open]
}

/// A gated binary's tail: write `json` to `BENCH_<name>.json` (echoed to
/// stdout), print every verdict and their tally to stderr, and exit with
/// status 1 when a gated verdict fails.
pub fn conclude(name: &str, json: &str, verdicts: &[Verdict]) {
    crate::write_export(&format!("BENCH_{name}.json"), json);
    print!("{json}");
    for v in verdicts {
        eprintln!("{v}");
    }
    let [gated, failed, open] = tally(verdicts);
    eprintln!("{name}: {gated} gated, {failed} failed; {open} open");
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::Verdict;

    /// Every gate of `pass()` holds, and each of `breaks` makes exactly the
    /// gate whose claim starts with its prefix fail. Every gate is broken
    /// by one of them.
    pub(crate) fn gates<R>(
        verdicts: impl Fn(&R) -> Vec<Verdict>,
        pass: impl Fn() -> R,
        breaks: &[(&str, &dyn Fn(&mut R))],
    ) {
        let failing = |r: &R| -> Vec<&'static str> {
            let failed = verdicts(r).into_iter().filter(|v| v.fails());
            failed.map(|v| v.claim).collect()
        };
        assert_eq!(failing(&pass()), Vec::<&str>::new());
        for (claim, break_it) in breaks {
            let mut r = pass();
            break_it(&mut r);
            let failed = failing(&r);
            assert!(
                failed.len() == 1 && failed[0].starts_with(claim),
                "{claim}: {failed:?}"
            );
        }
        for v in verdicts(&pass()).iter().filter(|v| v.open.is_none()) {
            let covered = breaks.iter().any(|(claim, _)| v.claim.starts_with(claim));
            assert!(covered, "no failing report for {:?}", v.claim);
        }
    }

    #[test]
    fn tally_counts_gated_failed_and_open() {
        let v = |holds, open| Verdict {
            claim: "c",
            holds,
            seen: String::new(),
            open,
        };
        let verdicts = [v(true, None), v(false, None), v(false, Some("4"))];
        assert_eq!(super::tally(&verdicts), [2, 1, 1]);
    }
}
