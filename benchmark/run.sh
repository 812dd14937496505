#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --seed 1 --repeat 5 --out benchmark/results/run.json
#
# Both binaries go to "$CARGO_TARGET_DIR/release" (default: target).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p mba-serve --bin mba_serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mba_benchmark" "$@"
