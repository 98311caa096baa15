//! Figure 5: GLOBAL against duplicate-index latency CDFs, §7.3 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Fig5::run(ops_per_client()));
}
