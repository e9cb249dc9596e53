#!/usr/bin/env bash
# Builds the benchmark and the paper's artifact bins, then runs one
# workload. From the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root). Both builds are no-ops once up to date.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml"
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" -p fefet-bench --bins
exec "$CARGO_TARGET_DIR/release/benchmark" --bins-dir "$CARGO_TARGET_DIR/release" "$@"
