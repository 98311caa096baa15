//! Table 1: inter-region round-trip times (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Table1::run());
}
