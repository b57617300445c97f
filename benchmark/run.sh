#!/usr/bin/env bash
# Build the benchmark from source and run it from the root of this
# checkout. Everything after the flags below goes to the binary:
#
#   run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   run.sh --workload all ...      every workload, one child process each
#   run.sh --print-manifest        the text of BENCHMARK.json
#   run.sh --aa N > AA.md          N alternating A/A pairs, see aa.py
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/balg-benchmark"
built_before="$(stat -c %Y "$bin" 2>/dev/null || echo none)"
# Cargo's progress goes to stderr; stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
if [ "$(stat -c %Y "$bin")" != "$built_before" ]; then
    # Whatever starts right after a build runs up to 1.7x slow for about a
    # minute (writeback of the build's output): flush it and let it pass.
    sync
    sleep 45
fi
if [ "${1:-}" = "--aa" ]; then
    shift
    exec python3 benchmark/aa.py "$bin" "$@"
fi
exec "$bin" "$@"
