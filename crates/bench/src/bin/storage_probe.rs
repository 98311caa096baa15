//! Durable-storage probe: drives the WAL + LSM + MVCC-GC engine directly
//! through a cold-key point-lookup workload, an overwrite-heavy GC workload
//! under an active protected timestamp, a steady-overwrite workload under
//! tiered compaction, and a closing crash-recovery smoke (seed 1). Writes
//! `BENCH_storage.json`; exits non-zero when a gate of
//! `storage_probe_verdicts` fails.
use mr_bench::verdict::conclude;
use mr_bench::{storage_probe, storage_probe_json, storage_probe_verdicts};

fn main() {
    let r = storage_probe(1);
    conclude(
        "storage",
        &storage_probe_json(&r),
        &storage_probe_verdicts(&r),
    );
}
