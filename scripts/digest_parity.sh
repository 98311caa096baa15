#!/usr/bin/env bash
# Host-only gate: a change that claims to alter nothing but host time must
# leave the simulation bit for bit where the parent left it.
#
#   scripts/digest_parity.sh <parent-rev> [allowed-metrics]
#
# Exports <parent-rev> into a temporary tree, runs
# `mr-ledger run --seed 1 --seconds 2` for the four ledger workloads on that
# tree and on this one, and fails unless all four `sim_digest`s match. The
# digest folds every simulated figure and exact count of a run, so equal
# digests mean equal `sim_*` metrics, events, RPCs, Raft entries and WAL
# bytes. Builds the parent from scratch (~2 min); both trees must be
# committed or at least buildable as they stand.
#
# A change that means to move some exact counts (and with them the digest)
# names them up front: with a comma-separated list of metric names as the
# second argument, both runs are `--traced` (the per-layer counts are only in
# a traced result) and `mr-ledger compare` decides instead of the digests —
# every row it marks `changed` must be a metric on the list.
set -euo pipefail

REV="${1:?usage: scripts/digest_parity.sh <parent-rev> [allowed-metrics]}"
ALLOWED="${2:-}"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/parent"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/parent"

# digests <tree> <label>: "## <workload>   sim_digest <hex>", one line each.
digests() {
    (cd "$1" && CARGO_TARGET_DIR="$ROOT/target/digest_parity/$2" \
        cargo run -q --release --offline -p mr-ledger -- \
        run --seed 1 --seconds 2 ${ALLOWED:+--traced} --out "$TMP/$2-out") | grep '^## '
}

echo "==> parent ($REV)"
digests "$TMP/parent" parent | tee "$TMP/parent.txt"
echo "==> this tree"
digests "$ROOT" change | tee "$TMP/change.txt"

if [ "$(wc -l <"$TMP/parent.txt")" -ne 4 ]; then
    echo "FAIL: expected four workloads, parent printed $(wc -l <"$TMP/parent.txt")" >&2
    exit 1
fi
if [ -n "$ALLOWED" ]; then
    # compare's own exit status also covers host-time rows, which a 2 s run
    # cannot resolve; only the exact rows are judged here.
    (cd "$ROOT" && CARGO_TARGET_DIR="$ROOT/target/digest_parity/change" \
        cargo run -q --release --offline -p mr-ledger -- \
        compare "$TMP/parent-out" "$TMP/change-out") >"$TMP/compare.txt" || true
    grep -q ' exact ' "$TMP/compare.txt" \
        || { echo "FAIL: compare printed no exact rows" >&2; exit 1; }
    MOVED="$(awk '$1 != "#" && $NF == "changed" { print $1, $2 }' "$TMP/compare.txt")"
    STRAY="$(echo "$MOVED" | awk -v allowed="$ALLOWED" '
        BEGIN { n = split(allowed, a, ","); for (i = 1; i <= n; i++) ok[a[i]] = 1 }
        NF && !($2 in ok)')"
    echo "==> exact rows that moved (allowed: $ALLOWED)"
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
echo "digest parity OK: four workloads identical to $REV"
