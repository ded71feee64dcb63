#!/usr/bin/env bash
# Builds the benchmark and the shard server from the workspace manifest —
# the same two binaries `cargo build --release` makes, side by side in one
# target directory — then runs the benchmark:
#   bash crates/bench/src/bin/benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/dht ]; then
    echo "run.sh: run from the root of the repository (no workspace here to build from)" >&2
    exit 2
fi
cargo build --release --offline --quiet \
    -p ampc-bench --bin benchmark -p ampc-dht --bin ampc-shardd
exec "${CARGO_TARGET_DIR:-target}/release/benchmark" "$@"
