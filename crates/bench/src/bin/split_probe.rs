//! Range-lifecycle probe: the same skewed remote workload (240 transactions
//! per client, seed 1) against a static single range and against the
//! lifecycle controller (size/QPS splits at the load median, cold merges,
//! load-based lease rebalancing). Writes `BENCH_split.json`.
//!
//! Every client lives in regions 1 and 2 while the only range is homed in
//! region 0, so the static baseline pays a cross-region RTT on each op.
//! With the controller on, the range splits on the region boundary of the
//! sampled load median and each half's lease moves toward its demand; after
//! the workload drains, the idle tail must fold the split topology back
//! down. Exits non-zero when a gate of `split_probe_verdicts` fails.
use mr_bench::verdict::conclude;
use mr_bench::{split_probe, split_probe_json, split_probe_verdicts};

fn main() {
    let r = split_probe(1, 240);
    conclude("split", &split_probe_json(&r), &split_probe_verdicts(&r));
}
