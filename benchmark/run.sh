#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       the whole ledger: four workloads untraced, then traced; prints
#       every metric by name and writes benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#       (this is the command BENCHMARK.json names)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
case " $* " in
    *" --workload "*) mode=run ;;
    *) mode=suite ;;
esac
exec "$target/release/benchmark" "$mode" "$@"
