#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# Single source of truth for the clippy invocation. The hard lint wall
# (clippy::float_cmp, clippy::unwrap_used, forbid(unsafe_code)) lives in
# [workspace.lints] in Cargo.toml; this only adds the blanket -D warnings.
CLIPPY_FLAGS="-D warnings"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- ${CLIPPY_FLAGS}

echo "== vod-lint (workspace semantic analyzer, see DESIGN.md §9/§14) =="
mkdir -p results
# The binary prints the per-rule summary table and exits non-zero on any
# unsuppressed finding; the gate is exact — schema v2, zero findings, no
# baseline slack.
cargo run -p vod-lint --release -- --workspace --json results/LINT_REPORT.json
grep -q '"version": 2' results/LINT_REPORT.json
grep -q '"findings": \[\]' results/LINT_REPORT.json
# Dogfood: the linter's own sources pass the same gate standalone.
cargo run -p vod-lint --release -- --root . crates/lint/src

echo "== cargo doc (deny rustdoc warnings, incl. broken intra-doc links) =="
# First-party crates only: the vendored offline stand-ins (vendor/) are
# path dependencies and would otherwise be documented too.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p vod-prealloc -p vod-dist -p vod-model -p vod-sizing -p vod-workload \
  -p vod-runtime -p vod-sim -p vod-server -p vod-federation -p vod-bench \
  -p vod-lint

echo "== tier-1: build + test =="
cargo build --release
cargo test -q

echo "== crate equivalence suites: scan/backend equivalence, federation identity, proptests =="
# Tier-1 runs only the root package; these crates hold the oracles the
# shared workload driver is pinned against (scan_equivalence,
# backend_equivalence, the 1-shard federation identity with run_harness,
# prop_federation).
cargo test --release -q -p vod-server -p vod-federation -p vod-bench

echo "== cross-validation: model vs sim vs server =="
cargo test --release -q --test cross_validation

echo "== chaos: 3-backend fault matrix (determinism + conservation, see DESIGN.md §10/§13) =="
cargo run --release -p vod-bench --bin chaos
# The bin exits non-zero on any violation; belt-and-braces the written
# report too: schema v2, all 54 cells present, every backend clean, and
# per-tick monotonicity/conservation recorded zero violations.
grep -q '"schema": 2' results/CHAOS_REPORT.json
grep -q '"ok": true' results/CHAOS_REPORT.json
test "$(grep -c '"seed"' results/CHAOS_REPORT.json)" -eq 54
test "$(grep -c '"backend": "pyramid_broadcast"' results/CHAOS_REPORT.json)" -eq 18
test "$(grep -c '"backend": "dedicated_stream"' results/CHAOS_REPORT.json)" -eq 18
test "$(grep -c '"violations": 0' results/CHAOS_REPORT.json)" -eq 54

echo "== federation: sharded-catalog chaos matrix (whole-shard outage failover, see DESIGN.md §15) =="
cargo run --release -p vod-bench --bin federation
# The bin exits non-zero on any violation or determinism break; verify
# the written report too: schema v1, all 42 cells present, the 1-shard
# empty-plan identity with run_harness held, and every cell's per-tick
# conservation audit recorded zero violations.
grep -q '"schema": 1' results/FEDERATION_REPORT.json
grep -q '"ok": true' results/FEDERATION_REPORT.json
grep -q '"identity_ok": true' results/FEDERATION_REPORT.json
test "$(grep -c '"seed"' results/FEDERATION_REPORT.json)" -eq 42
test "$(grep -c '"violations": 0' results/FEDERATION_REPORT.json)" -eq 42

echo "== scale: wheel+arena engine smoke (downscaled; the full run uses --sessions 1000000) =="
# The smoke writes under target/ so the committed headline
# results/BENCH_scale.json (the 1M-session run) is never overwritten.
cargo run --release -p vod-bench --bin scale -- --sessions 50000 --ticks 120 \
  --out target/BENCH_scale_smoke.json

echo "== backend_compare: all three DeliveryBackends, reduced grid (see DESIGN.md §12) =="
cargo run --release -p vod-bench --bin backend_compare -- --smoke

echo "CI OK"
