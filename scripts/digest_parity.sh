#!/usr/bin/env bash
# Host-only gate: a change that claims to alter nothing but host time must
# leave the simulation bit for bit where the parent left it.
#
#   scripts/digest_parity.sh <parent-rev> [allowed]
#
# Exports <parent-rev> into a temporary tree, runs
# `mr-ledger run --seed <s> --seconds 2` for the four ledger workloads and
# seeds 1 and 2 on that tree and on this one, and fails unless all eight
# `sim_digest`s match. The digest folds every simulated figure and exact count
# of a run, so equal digests mean equal `sim_*` metrics, events, RPCs, Raft
# entries and WAL bytes. It also runs the eight `mr-bench` probes on both
# trees at `scripts/ci.sh`'s sizes, each tree's from an empty directory, and
# `cmp`s every file they write (`BENCH_*.json`, `perf_probe_*.json` and
# `perf_probe_*.csv`): the ledger workloads never crash, partition or restart
# a node, so `chaos_probe`'s five fault schedules are the only part of the
# gate that drives the failure paths, and the probe files are what every
# export renders. The one layout difference allowed is `BENCH_obs.json`
# against a parent that closed it `…}\n` rather than `…\n}\n` (before the
# shared JSON writer): it passes when both parse to the same JSON value
# (python3). A probe the parent tree does not have (`paper_probe` against a
# parent older than it) is skipped on both trees with a printed note. The
# probes add ~5 min warm. Builds the parent from scratch
# (~3 min); both trees must be committed or at least buildable as they
# stand.
#
# A change that means to move some exact counts (and with them the digest)
# names them up front: with a comma-separated list of metric names as the
# second argument, both runs are `--traced` (the per-layer counts are only in
# a traced result) and `mr-ledger compare` decides instead of the digests —
# every row it marks `changed` must be a metric on the list, on both seeds —
# and the probe files are not compared: such a change moves simulated
# behaviour on purpose. An entry `workload:metric`
# (`wide_idle:sim.events_per_op`) allows the metric to move on that workload
# only; a bare metric name allows it on all four.
#
# A change that moves a probe's simulated behaviour but not the ledger
# workloads' (range surgery, fault handling, the lifecycle: paths the ledger
# never takes) names the probe files it moves instead: an entry
# `file:<name>` (`file:BENCH_split.json`) lets that one file differ and
# prints its diff. With only `file:` entries the run is otherwise the plain
# one — all eight digests must match and every other probe file must be
# byte-identical. Given together with metric entries, the metric mode above
# decides and the probes are not run.
set -euo pipefail

REV="${1:?usage: scripts/digest_parity.sh <parent-rev> [allowed]}"
# Split the allowed list into metric entries and `file:` entries.
METRICS="" MOVED_FILES=""
IFS=',' read -ra ENTRIES <<<"${2:-}"
for entry in "${ENTRIES[@]}"; do
    case "$entry" in
        file:*) MOVED_FILES+=" ${entry#file:}" ;;
        *) METRICS+="${METRICS:+,}$entry" ;;
    esac
done
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/parent"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/parent"

SEEDS="1 2"

# digests <tree> <label>: "seed <s> ## <workload>   sim_digest <hex>", one
# line per seed and workload.
digests() {
    for seed in $SEEDS; do
        (cd "$1" && CARGO_TARGET_DIR="$ROOT/target/digest_parity/$2" \
            cargo run -q --release --offline -p mr-ledger -- \
            run --seed "$seed" --seconds 2 ${METRICS:+--traced} --out "$TMP/$2-$seed-out") \
            | grep '^## ' | sed "s/^/seed $seed /"
    done
}

# Each probe with the environment scripts/ci.sh ran it with before the
# probes fixed their scale as constants. A tree that has them ignores these
# variables; the parent tree may still read them, so they stay until no
# parent does, and can go then.
PROBES=(
    "perf_probe OPS=50 MR_STRICT_MONITORS=1"
    "chaos_probe MR_STRICT_MONITORS=1"
    "commit_probe MR_COMMIT_TXNS=10"
    "raft_probe MR_RAFT_TXNS=20"
    "obs_probe MR_OBS_SKEW_SECS=40 MR_OBS_TXNS=10 MR_METRIC_BUDGET=128"
    "split_probe"
    "storage_probe"
    "paper_probe"
)
# Files whose layout may differ from an older parent's (see the header).
LAYOUT_ONLY="BENCH_obs.json"

# probes <tree> <label>: run every probe from an empty directory of its own,
# skipping one the parent tree has no source for.
probes() {
    mkdir "$TMP/$2-probes"
    local bin vars
    for spec in "${PROBES[@]}"; do
        read -r bin vars <<<"$spec"
        if [ ! -f "$TMP/parent/crates/bench/src/bin/$bin.rs" ]; then
            [ "$2" = parent ] && echo "note: $REV has no $bin; skipped on both trees"
            continue
        fi
        # shellcheck disable=SC2086
        (cd "$TMP/$2-probes" && env $vars CARGO_TARGET_DIR="$ROOT/target/digest_parity/$2" \
            cargo run -q --release --offline --manifest-path "$1/Cargo.toml" \
            -p mr-bench --bin "$bin" >/dev/null)
    done
}

# same_json <a> <b>: both files parse to equal JSON values.
same_json() {
    python3 -c 'import json, sys; sys.exit(json.load(open(sys.argv[1])) != json.load(open(sys.argv[2])))' "$1" "$2"
}

echo "==> parent ($REV)"
digests "$TMP/parent" parent | tee "$TMP/parent.txt"
echo "==> this tree"
digests "$ROOT" change | tee "$TMP/change.txt"

if [ "$(wc -l <"$TMP/parent.txt")" -ne 8 ]; then
    echo "FAIL: expected four workloads x two seeds, parent printed $(wc -l <"$TMP/parent.txt")" >&2
    exit 1
fi
if [ -n "$METRICS" ]; then
    # compare's own exit status also covers host-time rows, which a 2 s run
    # cannot resolve; only the exact rows are judged here.
    for seed in $SEEDS; do
        (cd "$ROOT" && CARGO_TARGET_DIR="$ROOT/target/digest_parity/change" \
            cargo run -q --release --offline -p mr-ledger -- \
            compare "$TMP/parent-$seed-out" "$TMP/change-$seed-out") || true
    done >"$TMP/compare.txt"
    grep -q ' exact ' "$TMP/compare.txt" \
        || { echo "FAIL: compare printed no exact rows" >&2; exit 1; }
    MOVED="$(awk '$1 != "#" && $NF == "changed" { print $1, $2 }' "$TMP/compare.txt" | sort -u)"
    STRAY="$(echo "$MOVED" | awk -v allowed="$METRICS" '
        BEGIN { n = split(allowed, a, ","); for (i = 1; i <= n; i++) ok[a[i]] = 1 }
        NF && !($2 in ok) && !(($1 ":" $2) in ok)')"
    echo "==> exact rows that moved (allowed: $METRICS)"
    echo "${MOVED:-none}"
    if [ -n "$STRAY" ]; then
        echo "FAIL: simulated figures outside the allowed list changed against $REV:" >&2
        echo "$STRAY" >&2
        exit 1
    fi
    echo "digest parity OK: nothing outside the allowed list moved against $REV"
    exit 0
fi
if ! diff "$TMP/parent.txt" "$TMP/change.txt" >/dev/null; then
    echo "FAIL: sim_digest differs from $REV — simulated behaviour changed" >&2
    diff "$TMP/parent.txt" "$TMP/change.txt" >&2 || true
    exit 1
fi
echo "==> the mr-bench probes on both trees"
probes "$TMP/parent" parent
probes "$ROOT" change
FILES="$( (cd "$TMP/parent-probes" && ls; cd "$TMP/change-probes" && ls) | sort -u)"
for f in $FILES; do
    a="$TMP/parent-probes/$f" b="$TMP/change-probes/$f"
    if [ ! -f "$a" ] || [ ! -f "$b" ]; then
        echo "FAIL: $f is written by only one tree" >&2
        exit 1
    fi
    if cmp -s "$a" "$b"; then
        echo "identical  $f"
    elif [[ " $LAYOUT_ONLY " == *" $f "* ]] && same_json "$a" "$b"; then
        echo "same JSON  $f (layout differs)"
    elif [[ " $MOVED_FILES " == *" $f "* ]]; then
        echo "moved      $f (allowed):"
        diff "$a" "$b" || true
    else
        echo "FAIL: $f differs from $REV" >&2
        diff "$a" "$b" | head -20 >&2 || true
        exit 1
    fi
done
echo "digest parity OK: four workloads x seeds $SEEDS and $(echo "$FILES" | wc -w) probe files identical to $REV${MOVED_FILES:+ (allowed to differ:$MOVED_FILES)}"
