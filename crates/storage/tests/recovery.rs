//! Durability tier: crash the engine at every WAL frame boundary — and at
//! torn offsets inside every frame — and assert the recovered MVCC state is
//! byte-identical to the state the durable prefix described.
//!
//! The sweep covers the two failure shapes the WAL format must handle:
//!
//! * **Clean boundary crash** — the log ends exactly at a frame boundary;
//!   every record before it replays, nothing is invented after it.
//! * **Torn tail** — the log ends mid-frame (a mid-batch torn write). The
//!   per-record CRC detects the tear; the partial record is truncated and
//!   **none** of its ops are applied (records are all-or-nothing).
//! * **Damage** (proptest) — a flipped bit or a cut anywhere in the log
//!   recovers the frames before the damaged one; a checkpoint whose frame is
//!   intact but whose image is not is the typed
//!   [`RecoveryError::CorruptCheckpoint`]. Nothing panics.

use proptest::prelude::*;

use mr_clock::Timestamp;
use mr_proto::{Key, ReadCtx, TxnId, TxnMeta, Value};
use mr_storage::lsm::Engine;
use mr_storage::wal::{replay, WalRecord};
use mr_storage::RecoveryError;

/// Apply one committed write as a sealed + synced WAL entry.
fn apply_write(e: &mut Engine, idx: u64, key: &str, val: &str, ts: u64) {
    let txn = TxnMeta::new(TxnId(idx), Key::from(key), Timestamp::new(ts, 0));
    let out = e
        .put(&Key::from(key), Some(Value::from(val)), &txn)
        .unwrap();
    assert!(e.commit_intent(&Key::from(key), txn.id, out.written_ts));
    e.seal_entry(idx, Timestamp::new(ts / 2, 0));
    e.sync(ts);
}

/// Apply one entry holding a multi-op batch (intent + commit on two keys
/// plus an open intent) — the "mid-batch" case: tearing inside this record
/// must drop the whole batch, not half of it.
fn apply_batch(e: &mut Engine, idx: u64, ts: u64) {
    for (i, key) in ["batch-a", "batch-b"].iter().enumerate() {
        let txn = TxnMeta::new(
            TxnId(idx * 10 + i as u64),
            Key::from(*key),
            Timestamp::new(ts, 0),
        );
        let out = e
            .put(&Key::from(*key), Some(Value::from("batched")), &txn)
            .unwrap();
        assert!(e.commit_intent(&Key::from(*key), txn.id, out.written_ts));
    }
    let open = TxnMeta::new(
        TxnId(idx * 10 + 7),
        Key::from("batch-open"),
        Timestamp::new(ts, 0),
    );
    e.put(
        &Key::from("batch-open"),
        Some(Value::from("pending")),
        &open,
    )
    .unwrap();
    e.seal_entry(idx, Timestamp::new(ts / 2, 0));
    e.sync(ts);
}

/// Build the workload and, after every sealed entry, capture the state
/// image a crash at that point must recover to. `images[k]` is the state
/// after `k` entries.
fn build_workload(e: &mut Engine) -> Vec<Vec<u8>> {
    let mut images = vec![e.state_image()];
    apply_write(e, 1, "alpha", "v1", 10);
    images.push(e.state_image());
    apply_write(e, 2, "beta", "v1", 20);
    images.push(e.state_image());
    apply_write(e, 3, "alpha", "v2", 30);
    images.push(e.state_image());
    apply_batch(e, 4, 40);
    images.push(e.state_image());
    apply_write(e, 5, "gamma", "v1", 50);
    images.push(e.state_image());
    images
}

/// Number of WAL entries a log truncated to `boundary_idx` frame
/// boundaries retains. Frame 0 is the checkpoint record, so the first two
/// boundaries (offset 0 and end-of-checkpoint) both mean "zero entries".
fn entries_at(boundary_idx: usize) -> usize {
    boundary_idx.saturating_sub(1)
}

#[test]
fn crash_at_every_frame_boundary_recovers_exact_prefix() {
    let mut golden = Engine::new();
    let images = build_workload(&mut golden);
    let boundaries = golden.wal().frame_boundaries();
    // checkpoint + 5 entries => 6 frames => 7 boundaries (incl. offset 0).
    assert_eq!(boundaries.len(), 7);

    for (bi, &cut) in boundaries.iter().enumerate() {
        let mut e = golden.clone();
        e.wal_mut().crash_at(cut);
        let info = e.crash_and_recover();
        assert!(!info.torn_tail, "clean boundary {bi} misread as torn");
        let want = &images[entries_at(bi)];
        assert_eq!(
            &e.state_image(),
            want,
            "state after crash at boundary {bi} (offset {cut}) diverged"
        );
        assert_eq!(info.applied_index, entries_at(bi) as u64);
    }
}

#[test]
fn torn_tail_inside_every_frame_truncates_not_replays() {
    let mut golden = Engine::new();
    let images = build_workload(&mut golden);
    let boundaries = golden.wal().frame_boundaries();

    for bi in 0..boundaries.len() - 1 {
        let (start, end) = (boundaries[bi], boundaries[bi + 1]);
        // Tear at several offsets inside the frame: inside the length
        // header, inside the CRC, just into the payload, and one byte
        // short of complete.
        for cut in [start + 2, start + 6, start + 9, end - 1] {
            if cut <= start || cut >= end {
                continue;
            }
            let mut e = golden.clone();
            e.wal_mut().crash_at(cut);
            let info = e.crash_and_recover();
            assert!(
                info.torn_tail,
                "tear at {cut} (frame {bi}) not detected as torn"
            );
            // The torn record contributes nothing: state matches the last
            // complete entry before the tear.
            let want = &images[entries_at(bi)];
            assert_eq!(
                &e.state_image(),
                want,
                "torn crash at {cut} (frame {bi}) replayed partial data"
            );
            // Recovery rewrote a clean log: replaying it afterwards finds
            // no torn tail.
            let post = replay(e.wal().bytes());
            assert!(!post.torn_tail);
        }
    }
}

#[test]
fn mid_batch_tear_drops_the_whole_batch() {
    let mut golden = Engine::new();
    build_workload(&mut golden);
    let boundaries = golden.wal().frame_boundaries();
    // Frame 4 is the multi-op batch entry (checkpoint, 3 writes, batch).
    let (start, end) = (boundaries[4], boundaries[5]);
    let mut e = golden.clone();
    e.wal_mut().crash_at((start + end) / 2);
    let info = e.crash_and_recover();
    assert!(info.torn_tail);
    let ctx = ReadCtx::stale(Timestamp::new(1_000, 0));
    // Neither committed batch key nor the open intent survived — the
    // record applied atomically or not at all.
    assert!(e.get(&Key::from("batch-a"), &ctx).unwrap().value.is_none());
    assert!(e.get(&Key::from("batch-b"), &ctx).unwrap().value.is_none());
    assert!(e.intent(&Key::from("batch-open")).is_none());
    // Earlier entries are intact.
    assert_eq!(
        e.get(&Key::from("alpha"), &ctx).unwrap().value,
        Some(Value::from("v2"))
    );
}

#[test]
fn crash_sweep_after_flush_keeps_runs_and_replays_tail() {
    let mut e = Engine::new();
    apply_write(&mut e, 1, "alpha", "v1", 10);
    apply_write(&mut e, 2, "beta", "v1", 20);
    // Flush: versions move to a durable run, WAL restarts at a checkpoint.
    e.flush(25);
    assert_eq!(e.sst_count(), 1);
    let mut images = vec![e.state_image()];
    apply_write(&mut e, 3, "alpha", "v2", 30);
    images.push(e.state_image());
    apply_write(&mut e, 4, "gamma", "v1", 40);
    images.push(e.state_image());

    let boundaries = e.wal().frame_boundaries();
    assert_eq!(boundaries.len(), 4); // 0, ckpt, e3, e4
                                     // Boundary 0 would lose the checkpoint record itself; checkpoints are
                                     // fsynced at write time, so the sweep starts after it.
    for (bi, &cut) in boundaries.iter().enumerate().skip(1) {
        let mut c = e.clone();
        c.wal_mut().crash_at(cut);
        c.crash_and_recover();
        assert_eq!(c.sst_count(), 1, "runs are durable and must survive");
        assert_eq!(
            &c.state_image(),
            &images[entries_at(bi)],
            "post-flush crash at boundary {bi} diverged"
        );
        // Run-resident data is always readable post-crash.
        let ctx = ReadCtx::stale(Timestamp::new(1_000, 0));
        assert!(c.get(&Key::from("beta"), &ctx).unwrap().value.is_some());
    }
}

#[test]
fn unsynced_entries_never_survive_even_at_clean_boundaries() {
    let mut e = Engine::new();
    apply_write(&mut e, 1, "alpha", "v1", 10);
    // Entry 2 is sealed but never synced.
    let txn = TxnMeta::new(TxnId(2), Key::from("beta"), Timestamp::new(20, 0));
    let out = e
        .put(&Key::from("beta"), Some(Value::from("v1")), &txn)
        .unwrap();
    e.commit_intent(&Key::from("beta"), txn.id, out.written_ts);
    e.seal_entry(2, Timestamp::ZERO);
    let info = e.crash_and_recover();
    assert!(!info.torn_tail);
    assert_eq!(info.applied_index, 1);
    let ctx = ReadCtx::stale(Timestamp::new(1_000, 0));
    assert!(e.get(&Key::from("beta"), &ctx).unwrap().value.is_none());
    assert_eq!(
        e.get(&Key::from("alpha"), &ctx).unwrap().value,
        Some(Value::from("v1"))
    );
}

/// An engine whose checkpoint image has something of everything: a run on
/// disk, committed versions and an open intent in the memtable.
fn engine_with_rich_checkpoint() -> (Engine, Vec<u8>) {
    let mut e = Engine::new();
    apply_write(&mut e, 1, "alpha", "v1", 10);
    e.flush(15);
    apply_write(&mut e, 2, "beta", "v1", 20);
    apply_batch(&mut e, 3, 30);
    e.checkpoint_now(35);
    let records = replay(e.wal().bytes()).records;
    let [WalRecord::Checkpoint(image)] = records.as_slice() else {
        panic!("a fresh checkpoint is the log's only record");
    };
    let image = image.clone();
    (e, image)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// One flipped bit, or a cut, anywhere in the log: the CRC stops replay
    /// at the damaged frame, and the recovered state is the reference image
    /// of the entries before it.
    #[test]
    fn damaged_log_recovers_the_surviving_prefix(
        at in any::<u32>(),
        bit in 0u8..8,
        cut in any::<bool>(),
    ) {
        let mut e = Engine::new();
        let images = build_workload(&mut e);
        let boundaries = e.wal().frame_boundaries();
        let at = at as usize % e.wal().len();
        // The frame `at` falls in; a cut exactly on its first byte tears
        // nothing.
        let frame = boundaries.iter().rposition(|&b| b <= at).unwrap();
        let clean_cut = cut && boundaries[frame] == at;
        if cut {
            e.wal_mut().crash_at(at);
        } else {
            e.wal_mut().flip_bit(at, bit);
        }
        let info = e.crash_and_recover();
        prop_assert_eq!(info.error, None);
        prop_assert_eq!(info.torn_tail, !clean_cut);
        prop_assert_eq!(info.applied_index, entries_at(frame) as u64);
        prop_assert_eq!(&e.state_image(), &images[entries_at(frame)]);
        prop_assert!(!replay(e.wal().bytes()).torn_tail);
    }

    /// A checkpoint record that passes its CRC but carries a cut or
    /// bit-flipped image: the typed error with the memtable restarted
    /// empty, or an image that still decodes — never a panic, and the run
    /// survives either way.
    #[test]
    fn damaged_checkpoint_image_is_a_typed_error(
        at in any::<u32>(),
        bit in 0u8..8,
        cut in any::<bool>(),
    ) {
        let (mut e, mut image) = engine_with_rich_checkpoint();
        let at = at as usize % image.len();
        if cut {
            image.truncate(at);
        } else {
            image[at] ^= 1 << bit;
        }
        e.wal_mut().reset_to_checkpoint(&image, 40);
        let info = e.crash_and_recover();
        if cut {
            prop_assert_eq!(info.error, Some(RecoveryError::CorruptCheckpoint));
        }
        prop_assert_eq!(e.sst_count(), 1);
        if info.error.is_some() {
            prop_assert_eq!(info.applied_index, 0);
            prop_assert_eq!(e.mem_version_count(), 0);
            prop_assert!(e.intent(&Key::from("batch-open")).is_none());
            let ctx = ReadCtx::stale(Timestamp::new(1_000, 0));
            prop_assert_eq!(
                e.get(&Key::from("alpha"), &ctx).unwrap().value,
                Some(Value::from("v1"))
            );
        }
        prop_assert_eq!(e.crash_and_recover().error, None);
    }
}
