#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. Arguments go to the
# program unchanged: see `run.sh --help`. Run from anywhere; it works from
# the root of the checkout, where the program's crates are `crates/*`.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dgf-benchmark" "$@"
