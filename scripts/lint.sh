#!/usr/bin/env bash
# Static-analysis gate (DESIGN.md §10): sovia-lint enforces the
# determinism & virtual-time discipline (wall-clock, OS threads, hash
# iteration, host randomness, unwrap-on-error-path, lock ordering, lock
# guards held across a park) in sim crates, and the last of those (R7) in
# every tests/ and examples/ file too, since they run simulations; then
# clippy runs with -D warnings over every target of every workspace
# crate, and rustdoc with -D warnings over every workspace crate, so a
# deleted item cannot leave a dangling doc link behind.
#
#   scripts/lint.sh           # human-readable diagnostics
#   scripts/lint.sh --json    # machine-readable sovia-lint output
#
# Exit is non-zero on any unsuppressed sovia-lint finding (including a
# suppression missing its `-- <why>` justification) or any clippy
# warning (clippy or rustdoc).
set -euo pipefail
cd "$(dirname "$0")/.."

JSON=0
[ "${1:-}" = "--json" ] && JSON=1

cargo build --release -q -p analyzer

if [ "$JSON" = 1 ]; then
    ./target/release/sovia-lint --json
else
    ./target/release/sovia-lint
fi

# Clippy is part of the same gate, but only where the toolchain ships it
# (the offline container does; a bare rustup profile may not).
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --release -q -- -D warnings
    [ "$JSON" = 1 ] || echo "clippy OK (-D warnings)"
else
    echo "clippy not installed; skipping (sovia-lint gate still applies)" >&2
fi

RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
[ "$JSON" = 1 ] || echo "rustdoc OK (-D warnings)"

[ "$JSON" = 1 ] || echo "lint OK"
