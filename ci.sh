#!/usr/bin/env bash
# The CI gate: build, test, lint. Run locally before pushing; the GitHub
# Actions workflow (.github/workflows/ci.yml) runs exactly this script.
#
# Every check lives in one place. A property, a golden, a floor on a
# reported ratio is a #[test] and runs once, in the workspace test run
# (on failure cargo names the target: "to rerun pass `-p ckpt-restart
# --test replication_properties`"). The two wall-clock ceilings on the
# experiment suite belong to `report timings`, which measures them. What
# is left for this script is what no test can say about itself: the
# crash matrix's own wall-clock budget, the lints, and that ckptbench, a
# workspace of its own, still builds and runs against this tree.
set -euo pipefail
cd "$(dirname "$0")"

# Each phase prints its wall-clock when the next one starts, and the
# script its total, so CI cost has a trajectory.
PHASE=''
phase() {
    [ -z "$PHASE" ] || echo "-- ${PHASE}: $((SECONDS - PHASE_START))s"
    PHASE=$1
    PHASE_START=$SECONDS
    [ -z "$PHASE" ] || echo "== ${PHASE} =="
}

phase 'cargo build --release'
cargo build --release --workspace

# The exhaustive crash matrix is skipped here and run next, alone, under
# its ceiling; everything else runs here and nowhere else.
MATRIX=full_crash_matrix_has_no_violations_and_no_panics
phase 'workspace tests'
cargo test -q --workspace -- --skip "$MATRIX"

# The one test with a wall-clock budget (tests/crash_matrix.rs): the
# matrix must stay cheap enough to never be sampled or skipped in CI.
# Binaries are already built by the test phase, so the 30 s is all matrix:
# ~5 s here since each cell forks the world at the last request boundary
# before its fault site (~10 s when every cell forked the booted world);
# the ceiling stays where it was.
phase 'crash matrix (2250 cells, cell-for-cell pinned, ~5 s, < 30 s)'
timeout 30 cargo test -q -p ckpt-restart --test crash_matrix "$MATRIX" -- --nocapture

phase 'cargo clippy -- -D warnings'
cargo clippy --workspace --all-targets -- -D warnings

# Broken intra-doc links are how a deleted or renamed type stays
# "documented": the docs must build clean.
phase 'cargo doc -D warnings'
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace --offline

# Exits non-zero, naming the offender, when C7a or the suite total passes
# its ceiling (crates/bench/src/registry.rs); prints wall_s / baseline /
# delta per experiment on every run. Writes BENCH_report.json.
phase 'report timings (wall-clock ceilings)'
./target/release/report timings

# Writes the artifacts CI archives (SWEEP_cXX.json + RUNBOOK.json, repo
# root) and prints each plan's and cell's wall-clock. That they equal the
# committed goldens is sweep_properties' and golden_c12/14/16's to say.
phase 'report sweep (archived artifacts)'
./target/release/report sweep --out .

# benchmark/ is a workspace of its own (path deps on crates/*), so neither
# the build nor the test phase above compiles it: a public-API change
# would break it silently until the perf pipeline ran. Build it, run its
# harness tests, and drive every workload once, untraced and traced, on
# tiny op lists (every restart bit-compared, the traced run's two worlds
# compared round by round).
phase 'ckptbench builds and runs against this tree'
cargo build --offline --release --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline -q)
benchmark/run.sh --smoke

phase ''
# ROADMAP aim 2 tracks net line count; these are the numbers (not a gate),
# so every PR's CI log shows the trajectory. The second makes a PR that
# "removes" code by moving it into tests visible: that is not a reduction.
# The third is ckptbench, which the first two never see. The per-crate
# rows under the first show which layer a simplicity PR shrank.
lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }
echo "source lines (crates/*/src + src, .rs): $(lines crates/*/src src)"
for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '  %-14s %6d\n' "${crate%/src}" "$(lines "$dir")"
done
echo "test lines (tests + crates/*/tests, .rs): $(lines tests crates/*/tests)"
echo "benchmark lines (benchmark/src, .rs): $(lines benchmark/src)"
echo "total: ${SECONDS}s"
echo 'CI OK'
