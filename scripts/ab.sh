#!/usr/bin/env bash
# Alternated A/B runs of the host-time ledger: parent revision against this
# tree, one workload, one block of seeds.
#
#   scripts/ab.sh <parent-rev> <workload> [seeds]
#
# `seeds` is a range `first-last` or a space-separated list (default
# `1-10`). Exports <parent-rev> into a temporary tree and builds both release
# `mr-ledger`s once (into `target/ab/parent` and `target/ab/change`), as
# `digest_parity.sh` does, then copies the two binaries aside so a rebuild
# during the block cannot swap them. Pair i runs
# `mr-ledger child run --workload <w> --seed <s_i> --seconds 20 --traced 0`
# (the measured child of the `BENCHMARK.json` command) on both binaries, the
# parent first on odd pairs and second on even pairs: the box drifts over
# minutes, and alternation spreads the drift over both sides.
#
# Fails on the first pair whose two `sim_digest`s differ (a host-only change
# must not move the simulation). Prints one row per pair, then the block's
# table: `ops_per_host_s` medians and quartiles of each side, the change
# ahead in how many pairs, the ratio of the medians, the median of the
# per-pair ratios, the gap between the medians over the parent's quartile
# distance, the measured phase's CPU time per op
# (`host_ns_per_op * host.cpu_share`) and the median `setup_s` of each side.
set -euo pipefail

REV="${1:?usage: scripts/ab.sh <parent-rev> <workload> [seeds]}"
WORKLOAD="${2:?usage: scripts/ab.sh <parent-rev> <workload> [seeds]}"
SEEDS="${3:-1-10}"
if [[ "$SEEDS" =~ ^([0-9]+)-([0-9]+)$ ]]; then
    SEEDS="$(seq "${BASH_REMATCH[1]}" "${BASH_REMATCH[2]}" | tr '\n' ' ')"
fi
SECONDS_PER_RUN=20
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/parent"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/parent"

# build <tree> <label>: the tree's release `mr-ledger`, copied to $TMP.
build() {
    (cd "$1" && CARGO_TARGET_DIR="$ROOT/target/ab/$2" \
        cargo build -q --release --offline -p mr-ledger)
    cp "$ROOT/target/ab/$2/release/mr-ledger" "$TMP/$2-ledger"
}
echo "==> building parent ($REV) and this tree"
build "$TMP/parent" parent
build "$ROOT" change

# run <label> <seed>: one measured child;
# "<ops_per_host_s> <cpu_ns_per_op> <setup_s> <digest>".
run() {
    "$TMP/$1-ledger" child run --workload "$WORKLOAD" --seed "$2" \
        --seconds "$SECONDS_PER_RUN" --traced 0 | tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
m = r["metrics"]
print(m["ops_per_host_s"], r["host_ns_per_op"] * m["host.cpu_share"], m["setup_s"], r["sim_digest"])'
}

echo "==> $WORKLOAD, seeds ${SEEDS% } (${SECONDS_PER_RUN} s each), odd pairs parent first"
printf '%-5s %-5s %12s %12s %8s\n' pair seed parent change ratio
pair=0
for seed in $SEEDS; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then
        p="$(run parent "$seed")" c="$(run change "$seed")"
    else
        c="$(run change "$seed")" p="$(run parent "$seed")"
    fi
    read -r p_ops p_cpu p_setup p_digest <<<"$p"
    read -r c_ops c_cpu c_setup c_digest <<<"$c"
    if [ "$p_digest" != "$c_digest" ]; then
        echo "FAIL: seed $seed sim_digest $p_digest (parent) != $c_digest (change)" >&2
        exit 1
    fi
    echo "$seed $p_ops $c_ops $p_cpu $c_cpu $p_setup $c_setup" >>"$TMP/pairs.txt"
    printf '%-5s %-5s %12.0f %12.0f %7.3fx\n' "$pair" "$seed" "$p_ops" "$c_ops" \
        "$(python3 -c "print($c_ops / $p_ops)")"
done

python3 - "$TMP/pairs.txt" "$WORKLOAD" "$SEEDS" <<'EOF'
import statistics, sys

rows = [list(map(float, line.split())) for line in open(sys.argv[1])]
seeds = sys.argv[3].split()
parent = [r[1] for r in rows]
change = [r[2] for r in rows]
p_cpu = [r[3] for r in rows]
c_cpu = [r[4] for r in rows]
p_setup = statistics.median(r[5] for r in rows)
c_setup = statistics.median(r[6] for r in rows)

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

pq1, pmed, pq3 = quartiles(parent)
cq1, cmed, cq3 = quartiles(change)
ahead = sum(c > p for p, c in zip(parent, change))
paired = statistics.median(c / p for p, c in zip(parent, change))
iqr = pq3 - pq1
gap = (cmed - pmed) / iqr if iqr > 0 else float("inf")
cpu = statistics.median(c / p for p, c in zip(p_cpu, c_cpu))
print()
print(f"`{sys.argv[2]}` `ops_per_host_s`, seeds {seeds[0]}-{seeds[-1]}:")
print("| block | parent median (quartiles) | change median (quartiles) | ratio | change ahead | paired ratio | gap / parent IQR | CPU µs/op parent → change | `setup_s` ms parent → change |")
print("|---|---:|---:|---:|---:|---:|---:|---:|---:|")
print(
    f"| seeds {seeds[0]}-{seeds[-1]} | {pmed:,.0f} ({pq1:,.0f}-{pq3:,.0f}) "
    f"| {cmed:,.0f} ({cq1:,.0f}-{cq3:,.0f}) | {cmed / pmed:.3f}x "
    f"| {ahead} / {len(rows)} | {paired:.3f}x | {gap:.1f} "
    f"| {statistics.median(p_cpu) / 1000:.1f} → {statistics.median(c_cpu) / 1000:.1f} ({cpu:.3f}x) "
    f"| {p_setup * 1000:.1f} → {c_setup * 1000:.1f} |"
)
EOF
