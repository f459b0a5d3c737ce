#!/usr/bin/env bash
# Build ckptbench (offline, release) and run it with the given arguments;
# see README.md. The driver's form is
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
# glibc malloc serves a 16 MiB image buffer either from a fresh mapping
# (page-faulted in, unmapped again) or from a reused heap block, depending on
# the process's history and on how worker threads' frees happened to coalesce:
# checkpoint time is bistable by +-20% from run to run. Pin the steady state:
# no mmap for allocations, a heap that is never trimmed. README.md says what
# this leaves out.
export MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=1073741824
exec "${CARGO_TARGET_DIR:-$here/target}/release/ckptbench" "$@"
