#!/usr/bin/env bash
# Builds e2e_profile from source (release, offline) and runs it with the
# given arguments, from the repository root:
#
#   bench/e2e/run.sh suite --seed 2023            # all six workloads -> results/seed2023.json
#   bench/e2e/run.sh suite --seed 2023 --trace    # ... plus per-layer numbers and a .trace.json
#   bench/e2e/run.sh suite --smoke                # n = 2^8, a few seconds
#   bench/e2e/run.sh compare a.json b.json
#   bench/e2e/run.sh --workload bfv_mul_n13 --seed 1 --seconds 10 --trace 0
#
# Cargo's output goes to stderr, so stdout carries only the benchmark's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/e2e_profile" "$@"
