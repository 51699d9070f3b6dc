#!/usr/bin/env bash
# Build the benchmark from source and run it. Arguments go to the binary:
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   one run (the BENCHMARK.json command)
#   benchmark/run.sh [--seed S] [--seconds T] [--workload W] [--repeat N] [--smoke]   full sets
# See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# The target directory may be given relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
cd "$root"

# Cargo's own progress goes to stderr; stdout carries only the report.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

BENCH_RUSTC="$(rustc --version)" exec "$target/release/mvcc-benchmark" "$@"
