#!/usr/bin/env bash
# End-to-end wall-clock harness for the figure/table binaries: times
# every binary at the given workload size and emits BENCH_runtime.json,
# the repo's perf-trajectory baseline (EXPERIMENTS.md records the
# before/after history).
#
# Each binary is timed three times: a *cold* pass starting from a
# purged on-disk trace cache (VISIM_TRACE_DIR, default
# target/trace-cache — the harness deletes and repopulates it), a
# *warm* pass that reuses the cache, and a *sampled* pass running the
# same suite under `--sample` (SMARTS-style windowed estimation) into
# a separate results directory. A fourth pass times the visim-serve
# daemon answering an already-stored manifest (every cell a store hit),
# the serving-latency headline. All four land in the JSON
# (visim-bench-runtime-v6: seconds/exit, seconds_warm/exit_warm, and
# seconds_sampled/exit_sampled per binary; total_seconds,
# total_seconds_warm, total_seconds_sampled, the exact-vs-sampled
# suite speedup, and serve_cells/serve_seconds_warm/
# requests_per_sec_warm plus the per-request hit-path latency
# percentiles serve_p50_ms_warm/serve_p99_ms_warm — read from the
# daemon's live telemetry — for the daemon pass).
#
# Usage:                scripts/bench.sh
#   SIZE=tiny           workload size passed to every binary (default study)
#   VISIM_JOBS=N        worker count for the experiment executor
#                       (default: auto, one worker per core)
#   BENCH_OUT=path      output JSON path (default BENCH_runtime.json)
#   VISIM_TRACE_DIR=dir on-disk trace cache location (purged at start)
#
# A degraded binary (nonzero exit, e.g. under VISIM_FAULT=cell.panic:<bench>) is still
# timed and recorded with its exit status; the harness itself only fails
# on build errors.
set -euo pipefail
cd "$(dirname "$0")/.."

SIZE="${SIZE:-study}"
OUT="${BENCH_OUT:-BENCH_runtime.json}"
BINARIES=(fig1 fig2 fig3 sweep_l1 sweep_l2 kernels14 ablation tables)
# Absolute: the sampled pass runs in a subdirectory and must share it.
export VISIM_TRACE_DIR="${VISIM_TRACE_DIR:-$PWD/target/trace-cache}"
ROOT="$PWD"
SAMPLED_DIR="$ROOT/target/bench-sampled"

echo "== build (release, offline, workspace) =="
# --workspace: a plain root build only covers the root package and its
# lib deps; the visim-bench binaries would stay stale.
cargo build --release --offline --workspace

cores=$(nproc 2>/dev/null || echo 1)
jobs="${VISIM_JOBS:-auto}"
git_rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

# One timing pass over every binary; appends to the named seconds/exit
# arrays and adds to the named total. $4 is the working directory (the
# binaries write results/ relative to it), remaining args are passed to
# every binary (e.g. --sample).
time_pass() {
  local -n secs_out=$1 exit_out=$2
  local total_var=$3 workdir=$4
  shift 4
  local bin start end status secs
  for bin in "${BINARIES[@]}"; do
    start=$(date +%s%N)
    status=0
    (cd "$workdir" && "$ROOT/target/release/$bin" "$SIZE" "$@" \
      >/dev/null 2>&1) || status=$?
    end=$(date +%s%N)
    secs=$(awk -v s="$start" -v e="$end" 'BEGIN{printf "%.3f", (e-s)/1e9}')
    printf -v "$total_var" '%s' \
      "$(awk -v t="${!total_var}" -v s="$secs" 'BEGIN{printf "%.3f", t+s}')"
    printf '%-10s %8ss  (exit %d)\n' "$bin" "$secs" "$status"
    secs_out+=("$secs")
    exit_out+=("$status")
  done
}

echo "== timing pass 1/3: cold trace cache (size=$SIZE, jobs=$jobs, cores=$cores) =="
rm -rf "${VISIM_TRACE_DIR:?}"
cold_secs=() cold_exit=() warm_secs=() warm_exit=() sampled_secs=() sampled_exit=()
total=0
time_pass cold_secs cold_exit total "$ROOT"

echo "== timing pass 2/3: warm trace cache =="
total_warm=0
time_pass warm_secs warm_exit total_warm "$ROOT"

echo "== timing pass 3/3: sampled (--sample, default geometry) =="
# Separate results directory: the exact artifacts in results/json stay
# the ones the fidelity gate below validates, and the sampled twins
# feed the drift gate.
rm -rf "$SAMPLED_DIR"
mkdir -p "$SAMPLED_DIR"
total_sampled=0
time_pass sampled_secs sampled_exit total_sampled "$SAMPLED_DIR" --sample

speedup=$(awk -v w="$total_warm" -v s="$total_sampled" \
  'BEGIN{printf "%.2f", (s > 0) ? w / s : 0}')

echo "== timing pass 4/4: warm-hit serve (daemon, fig2 manifest) =="
# Populate a dedicated store through the daemon, then time a second
# submission of the same manifest: every cell is a checksum-validated
# store hit, so this measures pure serving latency (protocol + store
# reads), not simulation.
SERVE_DIR="$ROOT/target/bench-serve"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
serve="$ROOT/target/release/visim-serve"
(cd "$SERVE_DIR" && "$serve" --addr-file addr.txt >/dev/null 2>&1) \
  & serve_pid=$!
for _ in $(seq 1 300); do
  [ -s "$SERVE_DIR/addr.txt" ] && break
  sleep 0.1
done
serve_addr=$(sed 's/.*"addr":"\([^"]*\)".*/\1/' "$SERVE_DIR/addr.txt")
serve_cells=0 serve_secs=0 rps_warm=0 serve_p50_ms=0 serve_p99_ms=0
if (cd "$SERVE_DIR" && "$serve" client "$serve_addr" manifest fig2 "$SIZE" \
    > cold-serve.txt 2>/dev/null); then
  start=$(date +%s%N)
  (cd "$SERVE_DIR" && "$serve" client "$serve_addr" manifest fig2 "$SIZE" \
    > warm-serve.txt 2>/dev/null) || true
  end=$(date +%s%N)
  serve_secs=$(awk -v s="$start" -v e="$end" 'BEGIN{printf "%.3f", (e-s)/1e9}')
  serve_cells=$(sed -n 's/.*"event":"done".*"cells":\([0-9]*\).*/\1/p' \
    "$SERVE_DIR/warm-serve.txt" | head -1)
  serve_cells="${serve_cells:-0}"
  rps_warm=$(awk -v c="$serve_cells" -v s="$serve_secs" \
    'BEGIN{printf "%.1f", (s > 0) ? c / s : 0}')
  # Per-request warm-hit latency percentiles from the daemon's live
  # telemetry (the stats event's hit-path histogram, ns -> ms).
  (cd "$SERVE_DIR" && "$serve" client "$serve_addr" stats --json \
    > stats-serve.txt 2>/dev/null) || true
  hit_p50_ns=$(sed -n 's/.*"hit":{"count":[0-9]*,"p50_ns":\([0-9]*\).*/\1/p' \
    "$SERVE_DIR/stats-serve.txt" | head -1)
  hit_p99_ns=$(sed -n \
    's/.*"hit":{[^}]*"p99_ns":\([0-9]*\).*/\1/p' \
    "$SERVE_DIR/stats-serve.txt" | head -1)
  serve_p50_ms=$(awk -v n="${hit_p50_ns:-0}" 'BEGIN{printf "%.3f", n/1e6}')
  serve_p99_ms=$(awk -v n="${hit_p99_ns:-0}" 'BEGIN{printf "%.3f", n/1e6}')
  printf '%-10s %8ss  (%s cells, %s req/s warm, hit p50 %sms p99 %sms)\n' \
    "serve" "$serve_secs" "$serve_cells" "$rps_warm" \
    "$serve_p50_ms" "$serve_p99_ms"
else
  echo "serve pass skipped: cold manifest submission failed"
fi
(cd "$SERVE_DIR" && "$serve" client "$serve_addr" shutdown \
  >/dev/null 2>&1) || true
wait "$serve_pid" 2>/dev/null || true

rows=""
for i in "${!BINARIES[@]}"; do
  [ -n "$rows" ] && rows+=$',\n'
  rows+="    {\"name\": \"${BINARIES[$i]}\", \"seconds\": ${cold_secs[$i]}, \"exit\": ${cold_exit[$i]}, \"seconds_warm\": ${warm_secs[$i]}, \"exit_warm\": ${warm_exit[$i]}, \"seconds_sampled\": ${sampled_secs[$i]}, \"exit_sampled\": ${sampled_exit[$i]}}"
done

cat > "$OUT" <<EOF
{
  "schema": "visim-bench-runtime-v6",
  "git_rev": "$git_rev",
  "size": "$SIZE",
  "jobs": "$jobs",
  "host_cores": $cores,
  "binaries": [
$rows
  ],
  "total_seconds": $total,
  "total_seconds_warm": $total_warm,
  "total_seconds_sampled": $total_sampled,
  "speedup_exact_vs_sampled": $speedup,
  "serve_cells": ${serve_cells},
  "serve_seconds_warm": ${serve_secs},
  "requests_per_sec_warm": ${rps_warm},
  "serve_p50_ms_warm": ${serve_p50_ms},
  "serve_p99_ms_warm": ${serve_p99_ms}
}
EOF

echo "== total ${total}s cold, ${total_warm}s warm, ${total_sampled}s sampled (exact-vs-sampled speedup ${speedup}x), serve ${rps_warm} req/s warm; wrote $OUT =="

# The timing loop above regenerated results/json/ as a side effect, so
# the fidelity gate runs against exactly what was just measured.
# pipetrace is not part of the timed 8-binary baseline, but validate
# checks its trace-vs-aggregate artifact, so refresh it first.
./target/release/pipetrace --attribution "$SIZE" >/dev/null 2>&1 || true
fidelity=$(./target/release/validate results/json 2>/dev/null | tail -1) || true
echo "== ${fidelity:-fidelity: validate did not run} =="
# And the sampled twins must stay within their own error bars of the
# exact artifacts (plus the same paper bands).
drift=$(./target/release/validate --drift results/json \
  "$SAMPLED_DIR/results/json" 2>/dev/null | tail -1) || true
echo "== ${drift:-drift: validate did not run} =="
