#!/usr/bin/env bash
# CI entry point: formatting, lints, release build and the full test
# suite. Works fully offline — all external dev-dependencies are
# vendored as shims under crates/shims/.
set -euo pipefail
cd "$(dirname "$0")"

status=0

if command -v rustfmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check || status=1
else
    echo "==> rustfmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings || status=1
else
    echo "==> clippy not installed; skipping lints"
fi

# Rustdoc gate: the API docs must build warning-clean (broken intra-doc
# links, missing code-block languages, bad HTML all fail the build).
# `simkit::par` and `simkit::events` additionally carry
# `#![deny(missing_docs)]`, so every public item there must be documented.
echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q || status=1

# Two-pass static-analysis gate (per-file + workspace call-graph
# rules). The stable JSON report is kept as a CI artifact; on failure
# the human rendering is printed for the log.
echo "==> simlint --workspace (static-analysis gate; artifact: target/simlint.json)"
mkdir -p target
if ! cargo run --release -p simlint -q -- --workspace --json > target/simlint.json; then
    cargo run --release -p simlint -q -- --workspace || true
    status=1
fi

echo "==> cargo build --release"
cargo build --release || status=1

# The root package is a workspace member, so this one step runs every
# integration suite under tests/ as well as the crates' own tests,
# among them:
# - tests/topology.rs: 2-socket × 2-DIMM same-seed snapshot
#   determinism, scheduler placement invariants (nothing feeds a
#   DSA-less slot, occupancy+locality measurably shifts placements) and
#   the per-socket interconnect counters (DESIGN.md §13);
# - tests/event_server.rs: same-seed byte-identical snapshots, p99.9
#   resolution at >10k connections, admission control that fires only
#   above its pressure watermark, and goodput monotone non-increasing in
#   churn (DESIGN.md §12);
# - tests/multichannel.rs and tests/fault_injection.rs: cross-channel
#   bounce recovery and the seeded fault-oracle sweeps, byte-exact.
echo "==> cargo test --release --workspace"
cargo test --release --workspace -q || status=1

# The benchmark under perfbench/ is a workspace of its own that builds
# against the crates by path, so the steps above never compile it: an
# API change that breaks the benchmark would otherwise surface only
# when the benchmark runs.
echo "==> perfbench build + test"
cargo build --offline --release --manifest-path perfbench/Cargo.toml || status=1
cargo test --offline --manifest-path perfbench/Cargo.toml || status=1

# Hot-path bench smoke: tiny iteration counts — asserts the harness
# runs and BENCH_hotpaths.json is produced and parses (check mode).
# Ratios in smoke mode are not meaningful; committed numbers come from
# a `-- full` run (DESIGN.md §7).
echo "==> bench_hotpaths smoke + check"
cargo run --release -p bench --bin bench_hotpaths -q -- smoke || status=1
cargo run --release -p bench --bin bench_hotpaths -q -- check || status=1

# Run-report smoke: exercises the unified telemetry registry end to end,
# including the placement × channel-count sweep (1/2/4 channels, §V-D)
# with its per-channel device/scratchpad/xlat scopes, and the
# event-driven tail-latency sweep (reduced connection count in smoke
# mode). Smoke mode writes target/run_report.smoke.json,
# never the committed report; check mode then validates the committed
# results/run_report.json still parses and covers every stat surface —
# including the new sweep.tail_latency_* scopes (DESIGN.md §8, §12).
echo "==> run_report smoke + check"
cargo run --release -p bench --bin run_report -q -- smoke || status=1
cargo run --release -p bench --bin run_report -q -- check || status=1

exit "$status"
