#!/usr/bin/env bash
# Golden-results gate: regenerate all seven results/*.txt via the bench
# binaries and diff against the committed files, at every thread count in
# REGEN_THREADS (default "1 8"). Catches any accidental virtual-time
# drift — parallel or otherwise: the DESIGN.md §7 invariant says every
# results byte is identical at any thread count. Then check the SHA-256
# of each binary's `--trace` JSON at --threads 1 against
# results/trace_digests.txt, so trace bytes cannot drift across commits.
#
#   scripts/regen_results.sh            # check (fails on any diff)
#   scripts/regen_results.sh --update   # rewrite results/ (tables and
#                                       # digests) from a sequential run,
#                                       # then re-check
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

# The trace JSON of every binary, at --threads 1 (it is byte-identical at
# any thread count; crates/bench/tests/trace.rs checks that).
mkdir "$tmp/trace"
for bin in "${BINS[@]}"; do
    ./target/release/"$bin" --threads 1 --trace "$tmp/trace/$bin.json" > /dev/null
done
(cd "$tmp/trace" && sha256sum "${BINS[@]/%/.json}") > "$tmp/trace_digests.txt"
if [ "$UPDATE" = 1 ]; then
    cp "$tmp/trace_digests.txt" results/trace_digests.txt
    echo "regenerated results/trace_digests.txt"
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

if ! diff -u results/trace_digests.txt "$tmp/trace_digests.txt" > "$tmp/trace.diff" 2>&1; then
    echo "DRIFT: trace JSON digests differ from results/trace_digests.txt:" >&2
    cat "$tmp/trace.diff" >&2
    fail=1
else
    echo "trace JSON digests match results/trace_digests.txt"
fi

if [ "$fail" = 1 ]; then
    echo "golden results drifted (see diffs above)" >&2
    exit 1
fi
echo "golden results OK"
