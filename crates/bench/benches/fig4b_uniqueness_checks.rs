//! Figure 4b: uniqueness checks on INSERT, §7.2.2 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Fig4b::run(ops_per_client()));
}
