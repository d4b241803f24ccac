#!/usr/bin/env bash
# Builds the benchmark and runs it. See benchmark/README.md.
#
#   benchmark/run.sh                              all six workloads, end-to-end then traced
#   benchmark/run.sh --workload serve_warm        one workload, both runs
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run; its last stdout line is the result object
#   benchmark/run.sh --traced --json out/a.json   traced runs only, one line per run appended
#   benchmark/run.sh compare a.json b.json        run-vs-run or parent-vs-change check
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The harness and the CLI read these; the benchmark pins threads and
# scale itself, so a stray value must not reach the crates.
unset MOT3D_THREADS MOT3D_SCALE MOT3D_BENCH_JSON

# A relative CARGO_TARGET_DIR is relative to the caller's directory,
# for cargo and for the path of the binary alike.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/bench"

case "${1:-}" in
compare | spec) exec "$bin" "$@" ;;
esac
exec "$bin" run --out-dir "$here/out" --reference "$here/../BENCH_results.json" "$@"
