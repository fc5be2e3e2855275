#!/usr/bin/env bash
# Local CI: formatting, lints, rustdoc, tier-1 build + full test suite, the repo
# benchmark's own checks, the byte-identity table, artifact determinism.
# Everything runs offline; the one dependency is the vendored proptest shim.
#
#   ./ci.sh           the default gates
#   ./ci.sh --full    the default gates, then `amdb paper --jobs 2` in a
#                     scratch directory, whose every CSV must equal results/
set -euo pipefail
cd "$(dirname "$0")"

full=0
case "$*" in
"") ;;
--full) full=1 ;;
*) echo "usage: $0 [--full]" >&2; exit 2 ;;
esac

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (a dangling intra-doc link is an error) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --exclude proptest

echo "== amdb-pool and the three re-export shims are leaves: no workspace crate depends on them =="
# benchmark/, a package outside the workspace, still names these crates: it
# drives SimPool (the cluster models no connection pool), and imports from
# the shims what now lives in amdb_obs::{metrics, telemetry} and
# amdb_cloud::net. Workspace code uses the new homes.
for leaf in amdb-pool amdb-metrics amdb-telemetry amdb-net; do
  dependents=$(cargo tree --workspace --offline -i "$leaf" -e normal,build,dev --prefix none | sed 1d)
  [ -z "$dependents" ] || { echo "$leaf has workspace dependents:"; echo "$dependents"; exit 1; }
done
echo "== the shims hold nothing but comments and pub use lines =="
for shim in metrics telemetry net; do
  extra=$(grep -Ev '^[[:space:]]*(//.*)?$|^pub use [^;]*;$' "crates/$shim/src/lib.rs") || true
  [ -z "$extra" ] || { echo "crates/$shim/src/lib.rs holds more than re-exports:"; echo "$extra"; exit 1; }
  [ "$(find "crates/$shim/src" -name '*.rs' | wc -l)" = 1 ] || { echo "crates/$shim/src holds more than lib.rs"; exit 1; }
done

echo "== tier-1: release build =="
cargo build --release --offline
# The root package build skips workspace-member bins; the table below
# drives the one experiment binary, `amdb`, so build it explicitly.
cargo build --release --offline -p amdb-experiments
# The quickstart example regenerates the quickstart_trace.json artifact;
# read_shapes profiles the read statement shapes (run below).
cargo build --release --offline --example quickstart --example read_shapes

echo "== tier-1: tests =="
cargo test -q --offline

echo "== workspace tests =="
cargo test -q --workspace --offline
# Release-only: fingerprints every rendered table of the quick fig2/5 and
# fig3/6 grids, serial and --jobs 4, against the constants pinned in the test.
cargo test -q --release --offline -p amdb-experiments --test simcore_fingerprint
# Release too: a replica that diverges only where a `debug_assert` would have
# fired is invisible to the debug run above, and release is what every
# experiment runs.
cargo test -q --release --offline --test shared_log

echo "== read shapes: examine and execute examine the same rows =="
# The simulator costs statements through Engine::examine; the example exits
# non-zero if any read statement examines a different row count under it
# than under execute. Its timings are informational. At scale 10 no join
# stage fills a batch (32 scope rows); at scale 300, after 5000 write ops
# have grown the fork's delta, tag_search's stages and upcoming_by_zip's
# index probe fan out past it.
target/release/examples/read_shapes 10
target/release/examples/read_shapes 300 5000

echo "== repo benchmark (BENCHMARK.json): unit tests, smoke, frozen cell fingerprints =="
# benchmark/ is a package of its own, outside the workspace. The smoke runs
# every workload at quick length (invariants, plane-bypass assertions,
# serial == --jobs), but compares no frozen fingerprint; one full-length rep
# of each serial workload at the default seed does. Those 20 cells — native
# client path in paper_*, sharded front with row and shared-log backends in
# planes_on — are the byte contract for any refactor of amdb-core.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/check.sh --smoke >/dev/null
for workload in paper_5050 paper_8020 planes_on; do
  benchmark/run.sh --workload "$workload" --seconds 1 --trace 0 \
    --out benchmark/out/ci >/dev/null \
    || { echo "$workload: a cell left its frozen fingerprint"; exit 1; }
done
# Timing contracts, read from the smoke's layer ledger rather than
# re-measured: a disabled obs probe is a discriminant test (sub-ns), and a
# plan-cache hit beats parse+plan by at least 5x. Both awk checks also hold
# the exact pool.waited_share at 0. The cluster has no pool, and the report
# fills the waited half of pool_stats with 0, so the row is 0 by
# construction until the benchmark re-freeze removes it.
awk '$1 == "metric" || $1 == "exact" { m[$2] = $3 }
  END { p = m["obs.disabled_probe_ns"]; c = m["sql.prepare_cold_ns"]; h = m["sql.prepare_hit_ns"]
        if (p == "" || p + 0 >= 1) { print "obs.disabled_probe_ns = " p ", want < 1"; bad = 1 }
        if (h == "" || c + 0 < 5 * h) { print "sql.prepare_cold_ns = " c " < 5 x sql.prepare_hit_ns = " h; bad = 1 }
        q = m["pool.waited_share"]; if (q == "" || q + 0 != 0) { print "pool.waited_share = " q ", want 0"; bad = 1 }
        exit bad }' benchmark/out/smoke/paper_5050.trace1.txt
# Informational, never a gate: what an enabled probe volley and a tsdb
# record cost, the by-name key lookups of amdb-obs included.
awk '$1 == "metric" && ($2 == "obs.enabled_probe_ns" || $2 == "obs.tsdb_record_ns") {
  print $2 " = " $3 " " $4 " (informational)" }' benchmark/out/smoke/paper_5050.trace1.txt || true
# A third, on the read-heavy workload (the smoke traces only paper_5050, so
# its tracing pass runs here): a SELECT costs at most 8 INSERTs. Both numbers
# come from one process, so host speed cancels; it was 10-13 x before the
# plan-time SELECT pipeline (DESIGN.md, "SQL engine hot path"), 4-5 x with it.
# One pass reads anywhere in 5-9 x on a 2-core host, so unchanged code failed
# a single-pass gate about half the time: three passes run, and their median
# is gated. And on every pass a fork costs at most 20 INSERTs: ~1 000 x while
# a fork copied the template's tables, ~2 x since forks share its frozen base
# (DESIGN.md, "Storage").
ratios=()
for pass in 1 2 3; do
  out=benchmark/out/read_ratio$pass
  benchmark/run.sh --workload paper_8020 --trace 1 --smoke --out "$out" >/dev/null
  ratio=$(awk '$1 == "metric" || $1 == "exact" { m[$2] = $3 }
    END { r = m["sql.read_ns_per_stmt"]; w = m["sql.write_ns_per_stmt"]; f = m["sql.fork_us"]
          q = m["pool.waited_share"]; if (q == "" || q + 0 != 0) { print "pool.waited_share = " q ", want 0"; exit 1 }
          if (r == "" || w == "" || w + 0 <= 0) { print "no sql.read_ns_per_stmt / sql.write_ns_per_stmt"; exit 1 }
          if (f == "" || f * 1000 > 20 * w) {
            print "sql.fork_us = " f " > 20 x sql.write_ns_per_stmt = " w " ns"; exit 1 }
          printf "%.2f\n", r / w }' "$out/paper_8020.trace1.txt") || { echo "$ratio"; exit 1; }
  ratios+=("$ratio")
done
median=$(printf '%s\n' "${ratios[@]}" | sort -n | sed -n 2p)
echo "sql.read_ns_per_stmt / sql.write_ns_per_stmt: ${ratios[*]} (median $median)"
awk -v m="$median" 'BEGIN { exit !(m + 0 <= 8) }' \
  || { echo "median read/write ratio $median > 8"; exit 1; }

echo "== byte-identity table: same tables and CSVs for any --jobs, AMDB_JOBS, --backend statement =="
# amdb writes results/ relative to cwd; each (subcommand, flags) pair runs
# once, in a scratch dir of its own, so quick-fidelity output never clobbers
# the committed full-fidelity CSVs.
BIN="$PWD/target/release"
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT

# once <subcommand> <flags>: run it in $SMOKE/<subcommand>/<flags, spaces as _> unless
# that run exists; sets $dir. A NAME=value word in <flags> is exported, not passed.
once() {
  dir="$SMOKE/$1/${2// /_}"
  [ ! -d "$dir" ] || return 0
  mkdir -p "$dir"
  (cd "$dir"
   args=()
   for word in $2; do
     case "$word" in *=*) export "$word" ;; *) args+=("$word") ;; esac
   done
   "$BIN/amdb" "$1" "${args[@]}" >stdout 2>/dev/null) || { echo "amdb $1 $2 failed"; exit 1; }
}

# identical <subcommand> <flags-a> <flags-b> [artifact…]: stdout and every
# named file under results/ are byte-identical between the two runs.
identical() {
  local cmd=$1 a b file
  once "$cmd" "$2"; a=$dir
  once "$cmd" "$3"; b=$dir
  shift 3
  for file in stdout "${@/#/results/}"; do
    cmp "$a/$file" "$b/$file" || { echo "amdb $cmd: $file differs"; exit 1; }
  done
}

while IFS='|' read -r cmd a b artifacts; do
  # shellcheck disable=SC2086 # artifacts is a space-separated list
  identical "$cmd" "$a" "$b" $artifacts
done <<'TABLE'
fig2|--jobs 1|--jobs 2|
fig5|--jobs 1|AMDB_JOBS=2|
fig2|--jobs 1|--backend statement --jobs 1|
fig5|--jobs 1|--backend statement --jobs 1|
ablations|--jobs 1|--jobs 2|ablations_a1_sync_modes.csv ablations_a2_balancers.csv ablations_a3_binlog_formats.csv
extensions_consistency|--jobs 1|--jobs 2|
extensions_parallel_apply|--jobs 1|--jobs 2|extensions_parallel_apply.csv
obs_slo|--jobs 1|--jobs 2|obs_slo_alerts.csv
obs_slo|--shards 2 --jobs 1|--shards 2 --jobs 2|obs_slo_alerts_shards2.csv
fig2_sharded|--jobs 1|--jobs 2|fig2_sharded.csv fig2_sharded_p95.csv fig2_sharded_cross_ablation.csv fig2_sharded_cross_ablation_p95.csv
extensions_shared_log|--jobs 1|--jobs 2|extensions_shared_log_backends.csv extensions_shared_log_failover.csv extensions_shared_log_faults.csv
fleet_report|--jobs 1|--jobs 2|fleet_report.csv fleet_alerts.csv fleet_metrics.prom
extensions|--jobs 1|--jobs 2|extensions_failover.csv extensions_autoscale.csv extensions_master_failover.csv extensions_workload_classes.csv
TABLE
# A command line amdb cannot parse exits 2; it never falls back to a default run.
for line in nosuch "fig2 --job 2" "rtt --backend row" "fig2 --jobs 0" "obs_slo --shards 0"; do
  # shellcheck disable=SC2086 # line is a space-separated command line
  (cd "$SMOKE" && "$BIN/amdb" $line >/dev/null 2>&1) && status=0 || status=$?
  [ "$status" = 2 ] || { echo "amdb $line: exit $status, want 2"; exit 1; }
done
# The fault grid's acceptance invariant: no cell loses an acked write.
once extensions_shared_log "--jobs 1"
awk -F, 'NR>1 && $NF != 0 { print "fault cell " $1 " lost acked writes"; bad=1 } END { exit bad }' \
  "$dir/results/extensions_shared_log_faults.csv"
# The exposition dump must be well-formed OpenMetrics text: ends in # EOF.
once fleet_report "--jobs 1"
tail -n 1 "$dir/results/fleet_metrics.prom" | grep -qx '# EOF' \
  || { echo "fleet_metrics.prom does not end with # EOF"; exit 1; }

echo "== trace artifacts regenerate deterministically =="
# quickstart_trace.json (the quickstart example) and results/obs_trace.json +
# obs_series.csv (amdb obs_report), and their *_shards2 twins (amdb obs_report
# --shards 2), are regenerable, gitignored artifacts: two fresh regenerations
# must agree byte-for-byte, stdout included, and a repo-root copy — when
# present — must be fresh.
for run in art1 art2; do
  mkdir -p "$SMOKE/$run"
  (cd "$SMOKE/$run" && "$BIN/examples/quickstart" >quickstart.out 2>/dev/null \
    && "$BIN/amdb" obs_report >obs_report.out 2>/dev/null \
    && "$BIN/amdb" obs_report --shards 2 >obs_report_shards2.out 2>/dev/null)
done
for art in quickstart.out quickstart_trace.json obs_report.out \
  results/obs_trace.json results/obs_series.csv obs_report_shards2.out \
  results/obs_trace_shards2.json results/obs_series_shards2.csv; do
  cmp "$SMOKE/art1/$art" "$SMOKE/art2/$art" || { echo "$art not deterministic"; exit 1; }
  if [ -f "$art" ]; then
    cmp "$art" "$SMOKE/art1/$art" || { echo "stale $art — regenerate it"; exit 1; }
  fi
done

echo "== committed results and the benchmark are untouched =="
# benchmark/Cargo.lock is exempt: it still lists amdb-clock (folded into
# amdb-cloud), cargo drops that entry on every build, and only a benchmark PR
# may commit the refreshed file.
dirty=$(git status --porcelain results/ benchmark/ ':!benchmark/Cargo.lock' 'BENCH*.json')
[ -z "$dirty" ] || { echo "$dirty"; exit 1; }

echo "== non-test lines per crate (each file up to its first #[cfg(test)]; informational) =="
# The one line count CHANGES.md quotes; it never fails the run. `workspace`
# sums crates/* only; core/cluster.rs, vendor/ and examples/ are listed after it.
count='FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { printf "%-14s %6d\n", c, n }'
for crate in crates/*/; do
  find "${crate}src" -name '*.rs' -print0 | xargs -0 awk -v c="$(basename "$crate")" "$count"
done | awk '{ print; s += $2 } END { printf "%-14s %6d\n", "workspace", s }' || true
awk -v c=core/cluster.rs "$count" crates/core/src/cluster.rs || true
for dir in vendor examples; do
  find "$dir" -name '*.rs' -print0 | xargs -0 awk -v c="$dir" "$count" || true
done

if [ "$full" = 1 ]; then
  echo "== --full: amdb paper regenerates the committed results/ byte for byte =="
  # `paper` always runs at full fidelity; each CSV it writes must equal the
  # committed copy, so a change that moves a paper figure cannot land with
  # stale results.
  start=$(date +%s)
  once paper "--jobs 2"
  compared=0
  for csv in "$dir"/results/*.csv; do
    name=results/$(basename "$csv")
    cmp "$csv" "$name" || { echo "$name differs from a fresh amdb paper run"; exit 1; }
    compared=$((compared + 1))
  done
  [ "$compared" -gt 0 ] || { echo "amdb paper wrote no CSV"; exit 1; }
  echo "amdb paper --jobs 2: $compared CSVs identical to results/ in $(( $(date +%s) - start )) s"
fi

echo "CI OK"
