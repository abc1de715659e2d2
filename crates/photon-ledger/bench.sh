#!/bin/bash
# What BENCHMARK.json runs, from the root of a checkout:
#   bash crates/photon-ledger/bench.sh --workload W --seed N --seconds S --trace 0|1
# `cargo run` builds only the binary it runs; `--trace 1` is handed to the
# `ledger-traced` binary beside it, so the whole package is built first.
set -e
cargo build --release --quiet -p photon-ledger
exec cargo run --release --quiet -p photon-ledger -- "$@"
