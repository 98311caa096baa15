#!/usr/bin/env bash
# Non-test line delta of this tree against a parent revision: the measure
# every "less code" claim in CHANGES.md / EXPERIMENTS.md uses.
#
#   scripts/loc_delta.sh <parent-rev>
#
# Counts `crates/*/src/**/*.rs` outside `crates/ledger` (the benchmark is
# not the product), each file cut at its first `#[cfg(test)]` line, so unit
# tests, integration tests, benches, examples and docs never count. Prints
# a per-file table of the files whose non-test line count changed,
# `git diff --no-index --shortstat` between the two cut trees, and last one
# net non-test line count per crate. Last, the same table for
# `crates/*/benches` (bench targets hold no tests, so whole files count), and
# each crate's `src` and `benches` together: moving a bench body into a
# crate's library is then not read as growth.
set -euo pipefail

REV="${1:?usage: scripts/loc_delta.sh <parent-rev>}"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/src" "$TMP/parent" "$TMP/change"
git -C "$ROOT" archive "$REV" crates | tar -x -C "$TMP/src"

# cut <tree> <out> [dir]: copy every counted file under `crates/*/<dir>`
# (default `src`), truncated before its tests.
cut_tree() {
    (cd "$1" && find crates -path "crates/*/${3:-src}/*" -name '*.rs' \
        -not -path 'crates/ledger/*' | sort) | while read -r f; do
        mkdir -p "$2/$(dirname "$f")"
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$1/$f" >"$2/$f"
    done
}
cut_tree "$TMP/src" "$TMP/parent"
cut_tree "$ROOT" "$TMP/change"

printf '%-40s %8s %8s %7s\n' file parent change delta
(cd "$TMP" && { cd parent && find . -name '*.rs'; cd ../change && find . -name '*.rs'; } \
    | sort -u) | while read -r f; do
    p=0; c=0
    [ -f "$TMP/parent/$f" ] && p=$(wc -l <"$TMP/parent/$f")
    [ -f "$TMP/change/$f" ] && c=$(wc -l <"$TMP/change/$f")
    [ "$p" -ne "$c" ] && printf '%-40s %8d %8d %+7d\n' "${f#./}" "$p" "$c" $((c - p))
done || true

echo
echo "non-test lines, crates/*/src outside crates/ledger, vs $REV:"
(cd "$TMP" && git diff --no-index --shortstat parent change) || true

echo
echo "net non-test lines per crate, vs $REV:"
printf '%-12s %8s %8s %7s\n' crate parent change net
# lines <tree> <crate>: non-test lines of one crate in one cut tree.
lines() {
    [ -d "$1/crates/$2" ] || { echo 0; return; }
    find "$1/crates/$2" -name '*.rs' -exec cat {} + | wc -l
}
(cd "$TMP" && ls parent/crates change/crates | grep -v ':$' | grep . | sort -u) | while read -r c; do
    p=$(lines "$TMP/parent" "$c"); n=$(lines "$TMP/change" "$c")
    printf '%-12s %8d %8d %+7d\n' "$c" "$p" "$n" $((n - p))
done

mkdir "$TMP/parent-benches" "$TMP/change-benches"
cut_tree "$TMP/src" "$TMP/parent-benches" benches
cut_tree "$ROOT" "$TMP/change-benches" benches
echo
echo "net lines of crates/*/benches, and src + benches together, vs $REV:"
printf '%-12s %8s %8s %7s %12s\n' crate parent change net 'src+benches'
(cd "$TMP" && ls parent-benches/crates change-benches/crates 2>/dev/null | grep -v ':$' | grep . \
    | sort -u) | while read -r c; do
    p=$(lines "$TMP/parent-benches" "$c"); n=$(lines "$TMP/change-benches" "$c")
    ps=$(lines "$TMP/parent" "$c"); ns=$(lines "$TMP/change" "$c")
    printf '%-12s %8d %8d %+7d %+12d\n' "$c" "$p" "$n" $((n - p)) $((n + ns - p - ps))
done
