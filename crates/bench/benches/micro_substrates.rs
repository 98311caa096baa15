//! Criterion microbenchmarks for the substrates: HLC reads, MVCC point
//! operations, key encoding, Raft proposal/commit round-trips, and the
//! simulator's event calendar. These bound the per-event cost of the
//! experiment harnesses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mr_clock::{Hlc, SkewedClock, Timestamp};
use mr_proto::{Key, ReadCtx, TxnId, TxnMeta, Value};
use mr_raft::{RaftConfig, RaftNode};
use mr_sim::{EventQueue, SimDuration, SimTime};
use mr_sql::encoding::{decode_row, encode_row, index_key};
use mr_sql::types::Datum;
use mr_storage::Engine;

fn bench_hlc(c: &mut Criterion) {
    c.bench_function("hlc/now", |b| {
        let mut hlc = Hlc::new(SkewedClock::new(37));
        let mut t = 0u64;
        b.iter(|| {
            t += 13;
            black_box(hlc.now(SimTime(t)))
        });
    });
    c.bench_function("hlc/update", |b| {
        let mut hlc = Hlc::new(SkewedClock::zero());
        let mut t = 0u64;
        b.iter(|| {
            t += 7;
            hlc.update(Timestamp::new(t * 2, 3), SimTime(t));
            black_box(hlc.peek())
        });
    });
}

fn bench_mvcc(c: &mut Criterion) {
    fn store_with(n: u64) -> Engine {
        let mut s = Engine::new();
        for i in 0..n {
            let key = Key::from_vec(i.to_be_bytes().to_vec());
            s.preload(key, Value::from("v"), Timestamp::new(i + 1, 0));
        }
        s
    }
    c.bench_function("mvcc/get_hit", |b| {
        let s = store_with(100_000);
        let ctx = ReadCtx::stale(Timestamp::new(1 << 40, 0));
        let key = Key::from_vec(42_000u64.to_be_bytes().to_vec());
        b.iter(|| black_box(s.get(&key, &ctx).unwrap()));
    });
    c.bench_function("mvcc/put_commit", |b| {
        b.iter_batched(
            || store_with(1_000),
            |mut s| {
                let key = Key::from_vec(77u64.to_be_bytes().to_vec());
                let txn = TxnMeta::new(TxnId(9), key.clone(), Timestamp::new(1 << 41, 0));
                let out = s.put(&key, Some(Value::from("w")), &txn).unwrap();
                s.commit_intent(&key, txn.id, out.written_ts);
                black_box(s.latest_committed_ts(&key));
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("mvcc/hot_key_deep_chain_get", |b| {
        // 5k versions on one key: what a read of a deep chain costs.
        let mut s = Engine::new();
        let key = Key::from("hot");
        for i in 0..5_000u64 {
            s.preload(key.clone(), Value::from("v"), Timestamp::new(i + 1, 0));
        }
        let ctx = ReadCtx::stale(Timestamp::new(2_500, 0));
        b.iter(|| black_box(s.get(&key, &ctx).unwrap()));
    });
}

fn bench_encoding(c: &mut Criterion) {
    c.bench_function("encoding/index_key", |b| {
        let cols = vec![
            Datum::Region("us-east1".into()),
            Datum::Int(123_456),
            Datum::String("user@example.com".into()),
        ];
        b.iter(|| black_box(index_key(7, 2, Some("us-east1"), &cols)));
    });
    c.bench_function("encoding/row_roundtrip", |b| {
        let row = vec![
            Datum::Int(1),
            Datum::String("some medium length string value".into()),
            Datum::Uuid(0x1234_5678_9abc_def0_1234_5678_9abc_def0),
            Datum::Float(3.15),
            Datum::Region("europe-west2".into()),
        ];
        b.iter(|| {
            let v = encode_row(&row);
            black_box(decode_row(&v).unwrap())
        });
    });
}

fn bench_raft(c: &mut Criterion) {
    c.bench_function("raft/propose_commit_3voters", |b| {
        let mk = |id| {
            RaftNode::<u64>::new(
                RaftConfig {
                    id,
                    voters: vec![0, 1, 2],
                    learners: vec![],
                    election_timeout: SimDuration::from_millis(150),
                    heartbeat_interval: SimDuration::from_millis(50),
                    // The microbench measures raw propose/commit cost;
                    // quiescence would park the idle group mid-iteration.
                    quiesce: false,
                },
                SimTime::ZERO,
            )
        };
        let mut leader = mk(0);
        leader.bootstrap_leader(SimTime::ZERO);
        let mut f1 = mk(1);
        let mut f2 = mk(2);
        let mut payload = 0u64;
        b.iter(|| {
            payload += 1;
            let (_, msgs) = leader.propose(payload, SimTime::ZERO).unwrap();
            for (to, m) in msgs {
                let follower = if to == 1 { &mut f1 } else { &mut f2 };
                for (_, resp) in follower.step(0, m, SimTime::ZERO) {
                    leader.step(to, resp, SimTime::ZERO);
                }
            }
            black_box(leader.take_committed().len())
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            q.schedule(SimDuration::from_micros(i % 500), i);
            if i.is_multiple_of(2) {
                black_box(q.pop());
            }
        });
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(30).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_hlc, bench_mvcc, bench_encoding, bench_raft, bench_event_queue
);
criterion_main!(micro);
