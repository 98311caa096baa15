//! Ablation A: commit wait with locks released or held, §6.2 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&AblationA::run(ops_per_client()));
}
