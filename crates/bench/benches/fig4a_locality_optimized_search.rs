//! Figure 4a: locality-optimized search and rehoming, §7.2.1 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Fig4a::run(ops_per_client()));
}
