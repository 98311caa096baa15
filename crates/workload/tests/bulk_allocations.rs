//! A bulk load allocates per batch and per run, not per row: rows are
//! encoded into one buffer of keys and one of values, and each range's run
//! is flat. This binary installs a counting allocator, so it holds this one
//! test: a second would allocate on another thread inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mr_kv::cluster::ClusterConfig;
use mr_sim::{RttMatrix, Topology};
use mr_sql::exec::SqlDb;
use mr_workload::bulk;
use mr_workload::ycsb::{self, YcsbTable};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting allocations (a `realloc` is one).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn loading_ten_thousand_rows_allocates_fewer_than_a_thousand_times() {
    let regions: Vec<String> = RttMatrix::paper_table1_regions()
        .iter()
        .map(|r| r.to_string())
        .collect();
    let topo = Topology::build(
        &RttMatrix::paper_table1_regions(),
        3,
        RttMatrix::paper_table1(),
    );
    let mut db = SqlDb::new(topo, ClusterConfig::default());
    let sess = db.session(mr_sim::NodeId(0), None);
    let others: Vec<String> = regions[1..].iter().map(|r| format!("{r:?}")).collect();
    let create = format!(
        "CREATE DATABASE ycsb PRIMARY REGION {:?} REGIONS {}",
        regions[0],
        others.join(", ")
    );
    db.exec_sync(&sess, &create).unwrap();
    let variant = YcsbTable::RegionalByTable;
    db.exec_sync(&sess, &ycsb::schema("usertable", variant, &regions))
        .unwrap();
    let rows = ycsb::dataset(variant, 10_000, |_| unreachable!("unpartitioned"));

    let before = ALLOCS.load(Ordering::Relaxed);
    bulk::load_rows(&mut db, "ycsb", "usertable", &rows);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        allocs < 1_000,
        "loading 10,000 rows allocated {allocs} times"
    );

    let res = db.exec_sync(&sess, "SELECT v FROM usertable WHERE k = 9999");
    assert_eq!(res.unwrap().rows()[0][0].to_string(), "'value-9999'");
}
