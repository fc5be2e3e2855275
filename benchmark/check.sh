#!/usr/bin/env bash
# Self-check of the benchmark.
#
#   benchmark/check.sh [--seed N] [--seconds S]
#       run the whole suite twice and assert that the two agree within the
#       benchmark's own bounds: every end-to-end metric within its bound on
#       every workload, every exact count and every fingerprint identical
#       (also between sweep_jobs and the serial workloads). About 8 minutes.
#   benchmark/check.sh --smoke
#       quick-length cells, one set-up, one rep: the measuring pass of every
#       workload and the tracing pass of one. Under 20 s once built, for ci.sh.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    for workload in paper_5050 paper_8020 planes_on sweep_jobs; do
        benchmark/run.sh --workload "$workload" --trace 0 --smoke --out benchmark/out/smoke
    done
    exec benchmark/run.sh --workload paper_5050 --trace 1 --smoke --out benchmark/out/smoke
fi
benchmark/run.sh --out benchmark/out/check-a "$@"
benchmark/run.sh --out benchmark/out/check-b "$@"
benchmark/run.sh --compare benchmark/out/check-a benchmark/out/check-b
