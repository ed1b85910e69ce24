#!/usr/bin/env bash
# Builds the program's binaries and the benchmark, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload faultsim_1k --seed 1 --seconds 25 --trace 0
#
# Build output goes to standard error; the last line of standard output
# is the benchmark's JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/bench ]; then
    echo "perfbench: run from the repository root (no Cargo.toml and crates/bench here)" >&2
    exit 2
fi
# Both builds, and the binaries the benchmark looks up, share one
# target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p minobswin-bench --bin retimer --bin table1 >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
