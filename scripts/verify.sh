#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): release build, then the static-analysis
# gate (scripts/lint.sh: sovia-lint + clippy, DESIGN.md §10), the test
# suite, the full workspace test run (the root `cargo test` only covers
# the root package), and the golden-results check (all seven
# results/*.txt must regenerate byte-identically, sequentially and in
# parallel, and the SHA-256 of each binary's --trace JSON must match
# results/trace_digests.txt).
#
# The socket-scenario suites (DESIGN.md §8): one runner,
# tests/common/scenario.rs, runs each socket program on the eight socket
# platforms (TCP/Ethernet, TCP/LANE, SOVIA single, handler, reqack,
# flowctrl, dacks, combine) and compares per-process transcripts:
#   - tests/sockets_api.rs            the sockets front-end's contract, and
#     Figure 4's descriptor routing on the dual-stack cLAN platform
#   - tests/half_close.rs             teardown + disconnect-while-blocked
#   - tests/scenarios.rs              streams, refusal, duplex, TCP loss
#     recovery (the transport crates' old socket unit tests)
#   - tests/proptest_stream.rs        byte streams survive any config
# the fault-injection suites (DESIGN.md §8):
#   - tests/proptest_faults.rs        random lossy streams, exact-or-error
#   - crates/via/tests/error_paths.rs every VipError via the public API
#   - crates/via/tests/alloc_per_post.rs  posting a descriptor allocates
#     nothing per descriptor (a thread-local counting allocator)
#   - crates/bench/tests/determinism.rs  empty-plan no-op + sweep identity
# the property suites (seeded cases from dsim::rng, tests/common/mod.rs):
#   - tests/proptest_substrate.rs     COW/pin invariants, mappings against
#     a per-page model, wire codecs
# the teardown gate (DESIGN.md §7):
#   - tests/teardown.rs               dropping a Simulation frees every
#     Machine, after clean, lossy and failed runs and without a run, and
#     a clean run's teardown unwinds no process
# the protocol-detail and application suites (root tests/, on
# src/testbed.rs):
#   - tests/protocol_details.rs       SOVIA counters, close-thread drainage,
#     combining, and the paper's latency and bandwidth anchors
#   - tests/ftp_tests.rs, tests/rpc_tests.rs, tests/inetd_pfs_tests.rs
#     FTP, SunRPC, inetd and the striped file store over both transports
# the fast goldens (tier-1 sees simulated output):
#   - tests/goldens.rs                fig6a, fig7, ablations, fault_sweep
#     and latency_breakdown regenerated in-process, tables and trace
#     digests byte-identical to results/, and fig6b's trace digest
# the scheduler suites (DESIGN.md §7):
#   - crates/dsim/tests/sched_edges.rs   event order and counts match the
#     values recorded from the OS-thread scheduler
#   - crates/dsim/tests/many_procs.rs    10,000 lazily committed stacks;
#     the per-thread stack cache stays within its cap and dies with its
#     thread
# and the trace gate (DESIGN.md §9):
#   - crates/bench/tests/trace.rs     tracing is a virtual-time no-op,
#     trace JSON byte-identical at --threads 1/2/8 and across runs, and
#     the latency breakdown sums exactly to the end-to-end numbers
# The explicit invocations below fail loudly if a suite is ever renamed
# or dropped from the workspace (a silent `0 tests run` would otherwise
# pass).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
scripts/lint.sh
cargo test -q
cargo test --workspace -q
cargo test -q --test sockets_api --test half_close --test scenarios --test proptest_stream
cargo test -q --test proptest_faults --test proptest_substrate
cargo test -q --test teardown --test goldens
cargo test -q --test protocol_details --test ftp_tests --test rpc_tests --test inetd_pfs_tests
cargo test -q -p dsim --test many_procs --test sched_edges
cargo test -q -p via --test error_paths --test alloc_per_post
cargo test -q -p bench --test determinism
cargo test -q -p bench --test trace
# The benchmark is a workspace of its own (perfbench/); its self-test
# fails here if the API surface it compiles against breaks.
cargo test -q --release --manifest-path perfbench/Cargo.toml
scripts/regen_results.sh
echo "tier-1 OK"
# Informational only: the line counts (scripts/loc.sh) gate nothing.
scripts/loc.sh | awk '$1 == "total" { print "non-test lines: " $2 ", test lines: " $3 }'
