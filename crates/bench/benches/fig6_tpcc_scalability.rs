//! Figure 6: TPC-C scalability at 4, 10 and 26 regions, §7.4 (`mr_bench::paper`).
use mr_bench::paper::*;

fn main() {
    report(&Fig6::run(tpcc_warehouses(), tpcc_secs(), &[4, 10, 26]));
}
