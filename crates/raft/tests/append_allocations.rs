//! An append carries a view of the leader's log, not a copy: re-covering a
//! follower's unacked window costs a reference count. This binary installs
//! a counting allocator, so it holds this one test: a second would
//! allocate on another thread inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mr_raft::{RaftConfig, RaftMsg, RaftNode};
use mr_sim::{SimDuration, SimTime};

static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting the bytes it hands out (a `realloc` counts its new
/// size).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PROPOSALS: u64 = 2_000;

/// A learner that never acks is owed the whole log by every append: copied,
/// the windows would sum to `PROPOSALS²/2` entries (tens of MiB).
#[test]
fn appends_to_a_silent_learner_allocate_under_a_mebibyte() {
    let now = SimTime::ZERO;
    let cfg = RaftConfig {
        id: 0,
        voters: vec![0],
        learners: vec![1],
        election_timeout: SimDuration::from_millis(150),
        heartbeat_interval: SimDuration::from_millis(50),
        quiesce: true,
    };
    let mut leader: RaftNode<u64> = RaftNode::new(cfg, now);
    leader.bootstrap_leader(now);
    let mut in_flight = Vec::with_capacity(PROPOSALS as usize);

    let before = BYTES.load(Ordering::Relaxed);
    for p in 1..=PROPOSALS {
        leader.propose_batched(p).unwrap();
        in_flight.extend(leader.flush_appends(now));
    }
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert!(
        bytes < 1 << 20,
        "{PROPOSALS} flushed proposals allocated {bytes} bytes"
    );

    // Every append still covers the window it was cut with.
    assert_eq!(in_flight.len(), PROPOSALS as usize);
    for (n, (to, msg)) in in_flight.iter().enumerate() {
        let RaftMsg::AppendEntries { entries, .. } = msg else {
            panic!("unexpected {msg:?}");
        };
        assert_eq!(*to, 1);
        let entries = entries.entries();
        assert_eq!(entries.len(), n + 1);
        assert!(entries.iter().zip(1..).all(|(e, p)| e.payload == p));
    }
}
