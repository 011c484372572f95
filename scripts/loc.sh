#!/usr/bin/env bash
# Line counts per crate and in total: non-test lines, then test lines;
# then the `.lock()`, `Ordering::` and `Mutex::new(` sites in the non-test
# lines (host mutex acquisitions and atomic accesses written in the
# source, and the mutexes themselves: one site per lock object a type
# builds, however many instances it makes).
#
# A source file's non-test lines are the lines before its first
# `#[cfg(test)]` (all of them when it has none); the rest of the file, its
# `#[cfg(test)]` tail, counts as test lines. Source files: every `.rs` file
# under `crates/*/src`, `compat/*/src` and the root package's `src/`. Every
# line of an integration suite (`crates/*/tests/`, the root `tests/`) is a
# test line too.
#
#   scripts/loc.sh      # columns: name, non-test lines, test lines, .lock() sites, Ordering:: sites, Mutex::new( sites
#
# Informational, like the line counts: nothing gates on these numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

# Print "<non-test> <test> <locks> <orderings> <mutexes>" summed over the `.rs` files
# under `$1` (source) and `$2` (integration suites; may be missing).
count() {
    { [ -d "$1" ] && find "$1" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            in_test { t++; next }
            { n++; l += gsub(/\.lock\(\)/, "&"); o += gsub(/Ordering::/, "&"); m += gsub(/Mutex::new\(/, "&") }
            END { print n + 0, t + 0, l + 0, o + 0, m + 0 }'
      [ -d "$2" ] && find "$2" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r cat | awk 'END { print 0, NR, 0, 0, 0 }'
    } | awk '{ n += $1; t += $2; l += $3; o += $4; m += $5 }
        END { print n + 0, t + 0, l + 0, o + 0, m + 0 }'
}

total=0
total_tests=0
total_locks=0
total_orderings=0
total_mutexes=0
for dir in crates/* compat/* .; do
    [ -d "$dir/src" ] || continue
    name=$dir
    [ "$dir" = . ] && name="sovia-repro"
    read -r n t l o m < <(count "$dir/src" "$dir/tests")
    printf '%-24s %7d %7d %7d %7d %7d\n' "$name" "$n" "$t" "$l" "$o" "$m"
    total=$((total + n))
    total_tests=$((total_tests + t))
    total_locks=$((total_locks + l))
    total_orderings=$((total_orderings + o))
    total_mutexes=$((total_mutexes + m))
done
printf '%-24s %7d %7d %7d %7d %7d\n' total "$total" "$total_tests" "$total_locks" "$total_orderings" \
    "$total_mutexes"
