#!/usr/bin/env bash
# Host-only gate: a change that claims to alter nothing but host time must
# leave the simulation bit for bit where the parent left it.
#
#   scripts/digest_parity.sh <parent-rev>
#
# Exports <parent-rev> into a temporary tree, runs
# `mr-ledger run --seed 1 --seconds 2` for the four ledger workloads on that
# tree and on this one, and fails unless all four `sim_digest`s match. The
# digest folds every simulated figure and exact count of a run, so equal
# digests mean equal `sim_*` metrics, events, RPCs, Raft entries and WAL
# bytes. Builds the parent from scratch (~2 min); both trees must be
# committed or at least buildable as they stand.
set -euo pipefail

REV="${1:?usage: scripts/digest_parity.sh <parent-rev>}"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/parent"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/parent"

# digests <tree> <label>: "## <workload>   sim_digest <hex>", one line each.
digests() {
    (cd "$1" && CARGO_TARGET_DIR="$ROOT/target/digest_parity/$2" \
        cargo run -q --release --offline -p mr-ledger -- \
        run --seed 1 --seconds 2 --out "$TMP/$2-out") | grep '^## '
}

echo "==> parent ($REV)"
digests "$TMP/parent" parent | tee "$TMP/parent.txt"
echo "==> this tree"
digests "$ROOT" change | tee "$TMP/change.txt"

if [ "$(wc -l <"$TMP/parent.txt")" -ne 4 ]; then
    echo "FAIL: expected four workloads, parent printed $(wc -l <"$TMP/parent.txt")" >&2
    exit 1
fi
if ! diff "$TMP/parent.txt" "$TMP/change.txt" >/dev/null; then
    echo "FAIL: sim_digest differs from $REV — simulated behaviour changed" >&2
    diff "$TMP/parent.txt" "$TMP/change.txt" >&2 || true
    exit 1
fi
echo "digest parity OK: four workloads identical to $REV"
