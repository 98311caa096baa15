#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), and the full test
# suite. Run from anywhere; operates on the repository root. Offline-safe:
# all external deps are vendored under third_party/.
#
#   scripts/ci.sh [parent-rev [allowed]]
#
# With a parent revision, also runs scripts/digest_parity.sh against it (the
# gate for a change that claims to move host time only; a change that means
# to move exact counts, or probe files, lists them comma-separated as the
# second argument: `storage.compactions`, `file:BENCH_split.json`) and
# prints scripts/loc_delta.sh, the non-test line delta against it.
#
# Tier-1 budget: the warm test phase (`cargo test -q`) takes <= 25 s on a
# 2-vCPU box; it measured 17.7 s with the simulation crates built at
# opt-level 1 in the dev profile (Cargo.toml), against 66-81 s at opt-level
# 0. New seeds and configurations are paid for from the rest of the budget.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# crates/{kv,sql,workload,chaos,sim,storage}/clippy.toml make walking a
# HashMap/HashSet in those crates an error here (disallowed-methods):
# iteration order there must be structural. Each file sits in its crate, not
# at the root: clippy searches upward and would also gate crates/ledger.
cargo clippy --workspace --all-targets -- -D warnings
# The canary switch (`Cluster::arm_bug`, one `injected-bug` feature on
# mr-kv, forwarded by mr-chaos) only compiles with the feature: lint it too.
cargo clippy -p mr-chaos --features injected-bug --all-targets -- -D warnings

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q -p mr-ledger: both-clocks determinism gate"
# The ledger's own suite, called out so its verdict is not lost among the
# workspace's: same-seed runs give equal sim_digests traced and untraced and
# across processes, different seeds differ, the output audit is clean, and
# BENCHMARK.json lists exactly the metrics the ledger prints.
cargo test -q -p mr-ledger

echo "==> examples: every examples/*.rs runs to completion in release"
# The examples are the facade's walkthroughs (README); `cargo test` only
# builds them. Each must exit zero — `failover` injects zone and region
# failures with no RPC timeout set. All six run in well under a second. A
# file missing its `[[example]]` entry in crates/core/Cargo.toml fails here.
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    cargo run -q --release --offline -p multiregion --example "$name" >/dev/null \
        || { echo "FAIL: example $name exited non-zero" >&2; exit 1; }
done

if [ -n "${1:-}" ]; then
    echo "==> digest_parity: simulated behaviour identical to $1"
    scripts/digest_parity.sh "$1" ${2:+"$2"}
    echo "==> loc_delta: non-test lines against $1"
    scripts/loc_delta.sh "$1"
fi

echo "==> catalog ratchet: the SQL catalog names no range"
# A partition is a key span (`catalog::partitions`) and the range registry is
# the only key -> range map. A `RangeId` in catalog.rs is a second copy that a
# split or merge would leave stale (DESIGN.md §15).
if grep -n 'RangeId' crates/sql/src/catalog.rs; then
    echo "FAIL: crates/sql/src/catalog.rs mentions RangeId" >&2
    exit 1
fi

echo "==> export ratchet: product code renders JSON through one writer"
# Every export renders through `mr_obs::export::JsonWriter` (DESIGN.md §6). A
# string literal holding a JSON key (`\"name\": `) in product code is a
# renderer of its own. Scope as scripts/loc_delta.sh: `crates/*/src` outside
# `crates/ledger` (the benchmark's own writer), each file cut at its first
# `#[cfg(test)]`.
HAND_JSON="$(find crates -path 'crates/*/src/*' -name '*.rs' -not -path 'crates/ledger/*' \
    | sort | while read -r f; do
        awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /\\"[A-Za-z_][A-Za-z0-9_]*\\": / { print f ":" FNR ": " $0 }' "$f"
    done)"
if [ -n "$HAND_JSON" ]; then
    echo "$HAND_JSON" >&2
    echo "FAIL: the lines above hand-build JSON keys; use mr_obs::export::JsonWriter" >&2
    exit 1
fi

echo "==> panic-site ratchet: non-test unwrap/expect/panic!/unreachable! per crate"
# A crash in product code should be a typed error, a documented
# `debug_assert!`, or gone (ROADMAP aim 3). Every `unwrap()`, `expect(`,
# `panic!` and `unreachable!` counts, in the scope of scripts/loc_delta.sh:
# `crates/*/src` outside `crates/ledger`, each file cut at its first
# `#[cfg(test)]`. The ceilings are the counts measured when the gate went in
# (mr-kv read 32 before its send path checked replies in one place, and 22
# while two by-region-name failure wrappers panicked on an unknown name; mr-sql
# read 17 while INSERT, UPDATE and DELETE re-matched their `Rc<Stmt>`;
# mr-workload read 3 while the closed-loop driver panicked on a stall instead
# of returning it) — a ratchet: a change that removes sites lowers its crate's
# ceiling, one that adds them fails.
panic_sites() {
    find "crates/$1/src" -name '*.rs' | sort | while read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$f"
    done | { grep -o 'unwrap()\|expect(\|panic!\|unreachable!' || true; } | wc -l
}
for entry in kv:20 sql:13 chaos:15 obs:2 workload:2 sim:1 storage:0 raft:0; do
    crate="${entry%%:*}" ceiling="${entry#*:}"
    got="$(panic_sites "$crate")"
    if [ "$got" -gt "$ceiling" ]; then
        echo "FAIL: crates/$crate has $got non-test panic sites, over its ceiling of $ceiling" >&2
        exit 1
    fi
    echo "$crate: $got non-test panic sites (ceiling $ceiling)"
done

echo "==> allocation and RSS ratchets: host.allocs_per_op, host.alloc_bytes_per_op, peak_rss_mb under their ceilings"
# Heap allocations per operation repeat for a seed (to the fifth digit), so
# they gate where host time cannot: a clone per statement, a label lookup per
# KV op or a `format!` for a span that is off shows up here as a count. The
# ceilings are the values measured when they were last lowered plus 10 % — a
# ratchet: a change that removes allocations lowers them, one that adds them
# back fails. `tpcc_nothink` read 2,235.9 while every index key cloned its
# columns and regrew its buffer, 2,134.6 since a key is encoded from the row
# into one buffer sized for it, 2,045.0 since a Raft append carries a view
# of the leader's log instead of a copy of every unacked entry, and 1,613.8
# since the SQL lexer's tokens borrow the statement text (no `String` per
# token, no token `Vec`) and a planned key tuple is built once at its size;
# `global_ycsb_b` read 65.2 before that change and 54.2 since.
#
# Bytes allocated per operation gate that copy: an append re-covers its
# follower's whole unacked window (34 entries on `regional_ycsb_a`, 25 on
# `tpcc_nothink`), so a per-message copy of it coming back shows up in bytes
# long before it shows up in counts. `regional_ycsb_a` read 30,192 B per op
# and `tpcc_nothink` 371,178 B while every append cloned its window, 15,958
# and 305,874 B since; `tpcc_nothink` 268,471 B once the lexer stopped copying
# every word of every statement.
#
# Peak RSS on `wide_idle` (260 ranges x 28 replicas, nearly no traffic) is
# what range state costs once per range plus what each of the 7,280 replicas
# keeps of its own. It read 630 MiB while a transaction record lived in two
# maps per replica and every replica re-encoded its own checkpoint at
# install, and 390 MiB with one map and one checkpointed image deep-copied
# into every replica. Since bulk loads and installed images reach a range's
# replicas as shared sorted runs (a refcount per replica; the per-replica
# part is the memtable, WAL and Raft state), it read 43.7 MiB, and 36.1 MiB
# since a run keeps its versions in one flat vector instead of a `Vec` per
# key and loaded keys and values are views into one buffer per load. On
# `regional_ycsb_a` (50k rows x 7 replicas) the shared runs took it from
# 207 to 27.5 MiB and the flat runs to 23.3 MiB: a second ceiling, so a
# per-replica copy of the loaded table shows up where the table is big. Same
# shape of ratchet: + 10 %.
#
# One traced run per workload; every ceiling of that workload is read from
# its output. Arguments after the workload come in threes: metric, ceiling,
# what the metric counts.
ledger_ceilings() {
    local workload="$1" out metric ceiling what got
    shift
    out="$(cargo run -q --release --offline -p mr-ledger -- \
        bench --workload "$workload" --seed 1 --seconds 2 --trace 1)"
    while [ "$#" -gt 0 ]; do
        metric="$1" ceiling="$2" what="$3"
        shift 3
        got="$(grep -o "\"$metric\": {\"value\": [0-9.]*" <<<"$out" | grep -o '[0-9.]*$' || true)"
        if [ -z "$got" ]; then
            echo "FAIL: $workload printed no $metric" >&2
            exit 1
        fi
        if ! awk -v got="$got" -v max="$ceiling" 'BEGIN { exit !(got <= max) }'; then
            echo "FAIL: $workload reads $got $what, over its ceiling of $ceiling" >&2
            exit 1
        fi
        echo "$workload: $got $what (ceiling $ceiling)"
    done
}
ledger_ceilings global_ycsb_b host.allocs_per_op 59 "allocations per op"
ledger_ceilings tpcc_nothink \
    host.allocs_per_op 1775 "allocations per op" \
    host.alloc_bytes_per_op 295300 "bytes allocated per op"
# `regional_ycsb_a` read 111.0 allocations per op while index keys cloned
# their columns, 109.5 since, 99.3 since Raft appends stopped copying, and
# 87.7 since the lexer borrows the statement text.
ledger_ceilings regional_ycsb_a \
    peak_rss_mb 26 "MiB peak RSS" \
    host.allocs_per_op 96 "allocations per op" \
    host.alloc_bytes_per_op 17560 "bytes allocated per op"
# The idle run counted in allocations: 477.7 per op while every
# side-transport tick built a `Vec` of updates per (sender, destination)
# pair, 310.2 with one shared batch per sender, 259.1 once index keys stopped
# regrowing their buffers, 255.3 once Raft appends stopped copying their
# window, 185.0 once a read plan borrowed the database's 26 region names
# instead of cloning each twice. A per-replica or per-pair allocation
# on a periodic path shows up here as a count. Counted in calendar events:
# 74.4 per op while every side-transport delivery was an event, 16.4 since a
# batch that repeats its sender's previous one waits in the receiver's inbox
# instead. A per-link event per tick coming back shows up here.
ledger_ceilings wide_idle \
    peak_rss_mb 40 "MiB peak RSS" \
    host.allocs_per_op 203 "allocations per op" \
    sim.events_per_op 18 "calendar events per op"

echo "==> strict-monitor perf_probe smoke"
# Short probe run with every online invariant monitor escalated to a panic:
# a closed-timestamp regression, an over-fresh follower read, a short commit
# wait, or a non-conforming placement fails CI here.
ROOT="$(pwd)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Every probe must leave its BENCH_<name>.json behind, and the file must be
# well-formed JSON — a probe that silently stops writing results would
# otherwise pass CI while producing nothing.
assert_bench() {
    local probe="$1" file="$SMOKE_DIR/$2"
    if [ ! -s "$file" ]; then
        echo "FAIL: $probe did not write $2" >&2
        exit 1
    fi
    if command -v python3 >/dev/null; then
        python3 -m json.tool "$file" >/dev/null \
            || { echo "FAIL: $probe wrote malformed JSON to $2" >&2; exit 1; }
    elif command -v jq >/dev/null; then
        jq . "$file" >/dev/null \
            || { echo "FAIL: $probe wrote malformed JSON to $2" >&2; exit 1; }
    fi
}

(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin perf_probe >/dev/null)
assert_bench perf_probe BENCH_perf.json

echo "==> chaos_smoke: seeded nemesis schedules + history checker"
# Five fixed-seed fault schedules through the full chaos harness with every
# online invariant monitor escalated to a panic. The offline checker gates
# too: any serializability/recency/availability violation fails CI with the
# seed and schedule step named.
# On a violation the probe exits nonzero after writing the incident bundle
# directory and printing its path (see chaos_probe.rs).
(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin chaos_probe >/dev/null)
assert_bench chaos_probe BENCH_chaos.json

echo "==> commit_probe: parallel-commit round-trip regression guard"
# Measures begin→commit-ack latency per gateway region under legacy vs
# pipelined+parallel commits and fails if the round-trip structure
# regresses: multi-range commits must cost ~1 WAN RTT pipelined (~2
# legacy), and pipelining must never be slower than the legacy path.
(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin commit_probe >/dev/null)
assert_bench commit_probe BENCH_commit.json

echo "==> raft_probe: group-commit occupancy + quiescence regression guard"
# Drives concurrent multi-range writers through a batched-proposal flush
# window and measures idle heartbeat rates over 100 cold ranges. Fails if
# mean batch occupancy sinks toward one command per entry, if the flush
# window costs real throughput, if quiescence stops suppressing idle
# heartbeats by >=10x, or if leaseholder reads stop riding the fast path.
(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin raft_probe >/dev/null)
assert_bench raft_probe BENCH_raft.json

echo "==> obs_probe: load-telemetry + attribution + metrics-cardinality guard"
# Drives a known open-loop skew and fails if the hot-range ranking or its
# decayed QPS drifts >10% from the driven rate, if the scrape store
# mis-reports the commit rate at either resolution, if the named latency
# attribution components stop explaining >=95% of end-to-end transaction
# latency, or if registry cardinality exceeds the budget (per-range load
# must stay in the LoadRecorder, never as per-range registry instruments).
(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin obs_probe >/dev/null)
assert_bench obs_probe BENCH_obs.json

echo "==> split_probe: range-lifecycle regression guard"
# The same skewed remote workload against a static single range and
# against the lifecycle controller. Fails if splits stop firing under
# load, if post-split throughput stops beating the single-range baseline,
# if load stops dispersing across the split ranges, if no lease moves
# toward demand, or if cold-range merges stop folding the keyspace back
# down once traffic ends.
(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin split_probe >/dev/null)
assert_bench split_probe BENCH_split.json

echo "==> storage_probe: WAL/LSM/GC durability regression guard"
# Drives the storage engine through a cold-key point-lookup workload, an
# overwrite-heavy GC workload under an active protected timestamp, a
# steady-overwrite workload under tiered compaction, and a crash-recovery
# smoke. Fails if the run indexes answer under 90% of cold-run probes without
# the run being read, if GC reclaims under
# 50% of the overwritten history, if a protected AOST read breaks, if
# below-threshold reads stop erroring, if WAL replay loses versions, or if
# compaction stops being incremental (write amplification over 3, more
# than 9 runs standing, or over 1.85 versions retained per live one).
(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin storage_probe >/dev/null)
assert_bench storage_probe BENCH_storage.json

echo "==> paper_probe: the paper's tables and figures keep their shape"
# Every table, figure and ablation of the paper's evaluation (§7) at its
# bench target's default scale (Fig. 6 at 4 and 10 regions, 20 s phases),
# each checked by named shape predicates whose thresholds come from the
# paper's text. Fails if a gated predicate does not hold; an open one
# (owned by a ROADMAP direction) is printed, not gated.
(cd "$SMOKE_DIR" && \
    cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin paper_probe >/dev/null)
assert_bench paper_probe BENCH_paper.json

echo "==> durability tier: volatile crashes recover from WAL + SSTs"
# 20 seed-derived durability_storm schedules (volatile node crashes, a
# full region-0 volatile crash, a split racing a recovery) plus the
# scripted full-group recovery — every restart rebuilds state solely from
# WAL + SST replay and the checker must stay clean.
cargo test -q -p mr-chaos --test durability >/dev/null

echo "==> wal-fsync canary: the armed sync-skip bug must be caught"
# Arms the deliberate bug that defers WAL fsyncs (and Raft log syncs) to a
# periodic tick, crashes region 0 volatile between ticks, and requires the
# offline checker to flag the acknowledged-but-lost writes — proving the
# durability tier detects a node that acks before its fsync point.
cargo test -q -p mr-chaos --features injected-bug --test durability \
    injected_wal_skip_fsync_bug_is_caught >/dev/null

echo "==> split-tscache canary: the armed RHS-bound drop must be caught"
# Arms the deliberate split bug that zeroes the right half's timestamp-
# cache bound and forces the race it opens, step by step: an ahead-clock
# read served by the parent, the split under it, then a write with an
# older timestamp on the right half. The checker must flag the stale read
# on every seed, the identical unarmed race must stay clean, and so must
# the unarmed split storm — guards the split surgery's tscache carryover.
cargo test -q -p mr-chaos --features injected-bug --test chaos_e2e \
    injected_split_tscache_bug_is_caught >/dev/null
cargo test -q -p mr-chaos --test chaos_e2e split_tscache_race_without_bug_is_clean >/dev/null
cargo test -q -p mr-chaos --test chaos_e2e split_storm_without_bug_is_clean >/dev/null

echo "==> injected-bug canary: the checker must catch every armed bug"
# Compile the arming switch in and run the whole chaos suite: the stale
# follower read and the premature parallel-commit ack join the two canaries
# above, each beside its unarmed twin — guards against the checker rotting.
cargo test -q -p mr-chaos --features injected-bug >/dev/null

echo "==> forensics_canary: the armed bug must yield a deterministic bundle"
# The same injected bug, asserted through the incident-forensics path: the
# violating run captures a bundle with the expected violation kind and
# non-empty span subtrees, byte-identical across same-seed runs.
cargo test -q -p mr-chaos --features injected-bug --test forensics >/dev/null

echo "CI OK"
