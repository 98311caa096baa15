//! paper_probe: every table, figure and ablation of the paper's evaluation
//! (§7), each printed with its shape verdicts (`mr_bench::paper`).
//!
//! Every figure runs at its bench target's default scale except Fig. 6,
//! which runs 4 and 10 regions, PLACEMENT RESTRICTED and the lifecycle
//! section for 20 simulated seconds each. Writes `BENCH_paper.json` (each
//! figure's printed lines and verdicts, byte-identical across runs) and
//! exits non-zero when a gated predicate fails; an open one is printed, not
//! gated.
//!
//!   cargo run --release -p mr-bench --bin paper_probe

use mr_bench::paper::*;
use mr_bench::verdict::{conclude, tally};
use mr_obs::export::JsonWriter;

fn main() {
    let ops = OPS_PER_CLIENT;
    let figures: [(&str, &dyn Fn() -> Box<dyn Figure>); 10] = [
        ("table1", &|| Box::new(Table1::run())),
        ("table2", &|| Box::new(Table2::run())),
        ("fig3", &|| Box::new(Fig3::run(ops))),
        ("fig4a", &|| Box::new(Fig4a::run(ops))),
        ("fig4b", &|| Box::new(Fig4b::run(ops))),
        ("fig4c", &|| Box::new(Fig4c::run(ops))),
        ("fig5", &|| Box::new(Fig5::run(ops))),
        ("fig6", &|| Box::new(Fig6::run(TPCC_WH, 20, &[4, 10]))),
        ("ablation_commit_wait", &|| Box::new(AblationA::run(ops))),
        ("ablation_closed_ts_lead", &|| Box::new(AblationB::run(ops))),
    ];
    let mut w = JsonWriter::default();
    w.obj();
    let mut all = Vec::new();
    for (key, run) in figures {
        let (text, verdicts) = report(&*run());
        println!();
        figure_json(&mut w, key, &text, &verdicts);
        all.extend(verdicts);
    }
    let [gated, failed, open] = tally(&all);
    w.field("gated", gated)
        .field("open", open)
        .field("failed", failed)
        .end();
    conclude("paper", &w.finish(), &all);
}
