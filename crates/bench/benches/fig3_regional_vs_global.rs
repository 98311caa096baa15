//! Figure 3: REGIONAL and GLOBAL table latency, §7.1 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Fig3::run(ops_per_client()));
}
