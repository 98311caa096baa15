//! Durable-storage probe: drives the WAL + LSM + MVCC-GC engine directly
//! through a cold-key point-lookup workload, an overwrite-heavy GC workload
//! under an active protected timestamp, a steady-overwrite workload under
//! tiered compaction, and a closing crash-recovery smoke. Writes
//! `BENCH_storage.json`.
//!
//! Exits non-zero if the runs' hash indexes stop answering cold-run probes
//! without the run being read (skip rate < 90%; an exact index reads 100%
//! short of a fingerprint collision), GC stops reclaiming shadowed history (< 50% of
//! versions on the overwrite workload), a protected AOST read breaks, a
//! below-threshold read stops erroring, WAL replay loses versions, or
//! compaction stops being incremental (write amplification > 3, more than
//! 9 runs, or more than 1.85 versions kept per live one; DESIGN.md §14 derives
//! the three constants) — CI uses this binary as the storage regression
//! guard.

use mr_bench::{exit_on_regressions, probe_param, storage_probe, storage_probe_json, write_bench};

fn main() {
    let seed: u64 = probe_param("seed", 1);

    eprintln!("storage_probe: seed {seed}");
    let r = storage_probe(seed);
    write_bench("storage", &storage_probe_json(&r));

    let mut failures = Vec::new();
    // The acceptance bar: cold-key lookups are answered by the run indexes
    // alone for (nearly) every run that does not hold the key.
    if r.bloom_skip_milli < 900 {
        failures.push(format!(
            "index skip rate {}/1000 under the 900 floor ({} skips / {} probes over {} runs)",
            r.bloom_skip_milli, r.bloom_skips, r.bloom_probes, r.bloom_runs
        ));
    }
    // GC must reclaim at least half the overwrite-heavy history even
    // while a protection pins a mid-history timestamp.
    if r.gc_reclaim_milli < 500 {
        failures.push(format!(
            "gc reclaimed only {}/1000 of the overwritten versions ({} -> {})",
            r.gc_reclaim_milli, r.gc_versions_before, r.gc_versions_protected
        ));
    }
    if !r.protected_read_ok {
        failures.push("AOST read at the protected timestamp broke after GC".into());
    }
    if !r.below_threshold_read_errors {
        failures
            .push("read below the GC threshold returned data instead of BelowGcThreshold".into());
    }
    // Released protection: history folds to one live version per key.
    if r.gc_versions_after >= r.gc_versions_protected {
        failures.push(format!(
            "releasing the protection reclaimed nothing ({} -> {})",
            r.gc_versions_protected, r.gc_versions_after
        ));
    }
    // Crash-recovery smoke: replay reconstructs the exact surviving state.
    if r.recovered_versions != r.gc_versions_after {
        failures.push(format!(
            "WAL replay recovered {} versions, expected {}",
            r.recovered_versions, r.gc_versions_after
        ));
    }

    // Tiered compaction: a pass rewrites what piled up, not what exists.
    if r.write_amp_milli > 3000 {
        failures.push(format!(
            "write amplification {}/1000 over 3000 ({} flushed, {} rewritten in {} passes)",
            r.write_amp_milli, r.compaction_flushed, r.compaction_rewritten, r.compaction_passes
        ));
    }
    if r.compaction_max_runs > 9 {
        failures.push(format!(
            "{} runs standing after a pass, over the 9 three size classes allow",
            r.compaction_max_runs
        ));
    }
    if r.space_amp_milli > 1850 {
        failures.push(format!(
            "{}/1000 versions retained per live version, over 1850",
            r.space_amp_milli
        ));
    }

    exit_on_regressions(&failures);
    eprintln!(
        "storage_probe: run indexes answered {}/1000 of {} probes across {} runs unread; gc reclaimed \
         {}/1000 of {} versions under an active protection (then {} -> {} on release); \
         compaction wrote each version {}/1000 times over {} passes, at most {} runs and \
         {}/1000 versions per live one; recovery replayed {} wal records — all guards passed",
        r.bloom_skip_milli,
        r.bloom_probes,
        r.bloom_runs,
        r.gc_reclaim_milli,
        r.gc_versions_before,
        r.gc_versions_protected,
        r.gc_versions_after,
        r.write_amp_milli,
        r.compaction_passes,
        r.compaction_max_runs,
        r.space_amp_milli,
        r.wal_replayed
    );
}
