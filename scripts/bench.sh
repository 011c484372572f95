#!/usr/bin/env bash
# Substrate performance gate: regenerates the perf report and refuses to
# update the committed baseline when the wall time of any gated scenario
# regresses by more than 10%. `--force` accepts the regression (e.g.
# after a deliberate trade-off) and updates the baseline anyway.
#
# Scenarios are matched by their `name` field, never by file order, so
# adding, removing, or reordering scenarios cannot silently compare the
# wrong pairs. A gated scenario publishes its wall time as a top-level
# `gate_wall_ms` (handoff_pingpong, sovia_stream_fig6b, fault_sweep, and
# latency_breakdown — the latter also gates the tracing layer: a
# slowdown in the traced re-runs trips it). Scenarios without one (e.g.
# the suite_fig6_sweep scaling scenario) are tracked in the baseline but
# not gated.
set -euo pipefail
cd "$(dirname "$0")/.."

FORCE=0
[ "${1:-}" = "--force" ] && FORCE=1

BASELINE=BENCH_substrate.json
NEW=target/BENCH_substrate.new.json

cargo build --release -p bench --bin perf_report
./target/release/perf_report --out "$NEW" >/dev/null

# Emit "name wall_ms" pairs: each scenario's gated wall time. A
# scenario's name precedes its `gate_wall_ms`.
gate_ms() {
    awk '
        /"name":/          { gsub(/[",]/, "", $2); name = $2 }
        /"gate_wall_ms"/   { gsub(/[",]/, "", $2); print name, $2 }
    ' "$1"
}

# Regression = worse than baseline by >10% AND by >5 ms (the absolute
# slack keeps host noise on short scenarios from tripping the gate).
regressed() {
    awk -v n="$1" -v o="$2" 'BEGIN{exit !(n > o * 1.10 && n > o + 5.0)}'
}

if [ -f "$BASELINE" ]; then
    declare -A old_by_name new_by_name
    while read -r name ms; do old_by_name["$name"]=$ms; done < <(gate_ms "$BASELINE")
    while read -r name ms; do new_by_name["$name"]=$ms; done < <(gate_ms "$NEW")
    fail=0
    for name in "${!old_by_name[@]}"; do
        if [ -z "${new_by_name[$name]:-}" ]; then
            echo "note: baseline scenario '$name' absent from new report (not gated)" >&2
            continue
        fi
        if regressed "${new_by_name[$name]}" "${old_by_name[$name]}"; then
            echo "REGRESSION: scenario '$name' wall ${old_by_name[$name]} ms -> ${new_by_name[$name]} ms (>10%)" >&2
            fail=1
        fi
    done
    if [ "$fail" = 1 ] && [ "$FORCE" = 0 ]; then
        echo "refusing to update $BASELINE (rerun with --force to accept)" >&2
        exit 1
    fi
fi
mv "$NEW" "$BASELINE"
echo "updated $BASELINE"
