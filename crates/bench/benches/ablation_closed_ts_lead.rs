//! Ablation B: closed-timestamp lead sensitivity, §6.2.1 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&AblationB::run(ops_per_client()));
}
