#!/usr/bin/env bash
# Golden-results gate: regenerate all seven results/*.txt via the bench
# binaries and diff against the committed files, at every thread count in
# REGEN_THREADS (default "1 8"). Catches any accidental virtual-time
# drift — parallel or otherwise: the DESIGN.md §7 invariant says every
# results byte is identical at any thread count.
#
#   scripts/regen_results.sh            # check (fails on any diff)
#   scripts/regen_results.sh --update   # rewrite results/ from a
#                                       # sequential run, then re-check
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=0
[ "${1:-}" = "--update" ] && UPDATE=1

BINS=(fig6a fig6b fig7 table1 ablations fault_sweep latency_breakdown)
THREADS=(${REGEN_THREADS:-1 8})

cargo build --release -p bench --bins

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "$UPDATE" = 1 ]; then
    for bin in "${BINS[@]}"; do
        ./target/release/"$bin" --threads 1 > "results/$bin.txt"
        echo "regenerated results/$bin.txt"
    done
fi

fail=0
for t in "${THREADS[@]}"; do
    for bin in "${BINS[@]}"; do
        ./target/release/"$bin" --threads "$t" > "$tmp/$bin.$t.txt"
        if ! diff -u "results/$bin.txt" "$tmp/$bin.$t.txt" > "$tmp/$bin.$t.diff" 2>&1; then
            echo "DRIFT: results/$bin.txt differs at --threads $t:" >&2
            cat "$tmp/$bin.$t.diff" >&2
            fail=1
        fi
    done
    echo "results/*.txt byte-identical at --threads $t"
done

if [ "$fail" = 1 ]; then
    echo "golden results drifted (see diffs above)" >&2
    exit 1
fi
echo "golden results OK"
