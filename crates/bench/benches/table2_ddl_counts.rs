//! Table 2: DDL statement counts, legacy against declarative (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Table2::run());
}
