#!/usr/bin/env bash
# Non-test line count, per crate and in total.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (all of them when it has none). Counted: every `.rs` file under
# `crates/*/src`, `compat/*/src` and the root package's `src/`; the
# integration suites (`crates/*/tests/`, `tests/`) are not counted.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src compat/*/src src; do
    [ -d "$dir" ] || continue
    name=${dir%/src}
    [ "$dir" = src ] && name="sovia-repro (src)"
    n=$(count "$dir")
    printf '%-24s %7d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-24s %7d\n' total "$total"
