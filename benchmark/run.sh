#!/usr/bin/env bash
# Build the benchmark package, then run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload: the command BENCHMARK.json names.
#   benchmark/run.sh [--smoke] [--seed N] [--seconds S] [--out DIR]
#       every workload, --trace 0 then --trace 1: prints every metric by name
#       with its unit; exits non-zero if any check failed.
#   benchmark/run.sh --compare DIR_A DIR_B
#       compare the result files of two such suites (see check.sh).
#
# Each workload runs in a process of its own, so peak_rss_mb is per workload.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
t0=$(date +%s%N)
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
# Printed once in the run header; build time is not a metric.
build_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
printf '# build_s %d.%03d\n' $((build_ms / 1000)) $((build_ms % 1000)) >&2
bin="$target/release/amdb-benchmark"

case " $* " in
*" --workload "* | *" --compare "*) exec "$bin" "$@" ;;
esac

status=0
for workload in paper_5050 paper_8020 planes_on sweep_jobs; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
