//! Figure 4c: rehoming under contention, §7.2.3 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Fig4c::run(ops_per_client()));
}
