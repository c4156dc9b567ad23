#!/usr/bin/env bash
# Regenerate the study artifacts of every figure/table binary and check
# them against the paper. Nothing is timed here: perfbench/ is the
# repo's performance record.
#
# Each binary runs twice, into separate directories under target/regen/:
# an exact pass (exact/, stdout saved as exact/<binary>.txt) and a
# sampled pass under `--sample` (sampled/, SMARTS-style windowed
# estimation). pipetrace then writes its trace-vs-aggregate artifact
# next to the exact ones, `validate` checks the exact artifacts against
# the paper's tolerance bands, and `validate --drift` checks that the
# sampled twins stay within their own error bars of the exact ones.
#
# Usage:                scripts/regen.sh
#   SIZE=tiny           workload size passed to every binary (default study)
#   VISIM_JOBS=N        worker count for the experiment executor
#                       (default: auto, one worker per core)
#
# A degraded binary (nonzero exit, e.g. under VISIM_FAULT=cell.panic:<bench>)
# is reported with its exit status; the script itself only fails on
# build errors.
set -euo pipefail
cd "$(dirname "$0")/.."

SIZE="${SIZE:-study}"
BINARIES=(fig1 fig2 fig3 sweep_l1 sweep_l2 kernels14 ablation tables)
ROOT="$PWD"
EXACT_DIR="$ROOT/target/regen/exact"
SAMPLED_DIR="$ROOT/target/regen/sampled"

echo "== build (release, offline, workspace) =="
# --workspace: a plain root build only covers the root package and its
# lib deps; the visim-bench binaries would stay stale.
cargo build --release --offline --workspace

rm -rf "$EXACT_DIR" "$SAMPLED_DIR"
mkdir -p "$EXACT_DIR" "$SAMPLED_DIR"

# Run every binary in $1 (the binaries write results/ relative to it),
# saving each one's stdout as $1/<binary>.txt; remaining args are passed
# to every binary (e.g. --sample).
pass() {
  local dir=$1 bin status
  shift
  for bin in "${BINARIES[@]}"; do
    status=0
    (cd "$dir" && "$ROOT/target/release/$bin" "$SIZE" "$@" \
      > "$bin.txt" 2>/dev/null) || status=$?
    printf '%-10s exit %d\n' "$bin" "$status"
  done
}

echo "== exact pass (size=$SIZE) -> $EXACT_DIR =="
pass "$EXACT_DIR"
echo "== sampled pass (--sample, default geometry) -> $SAMPLED_DIR =="
pass "$SAMPLED_DIR" --sample

# validate checks pipetrace's trace-vs-aggregate artifact too.
(cd "$EXACT_DIR" && "$ROOT/target/release/pipetrace" --attribution "$SIZE" \
  >/dev/null 2>&1) || true
fidelity=$(./target/release/validate "$EXACT_DIR/results/json" 2>/dev/null \
  | tail -1) || true
echo "== ${fidelity:-fidelity: validate did not run} =="
drift=$(./target/release/validate --drift "$EXACT_DIR/results/json" \
  "$SAMPLED_DIR/results/json" 2>/dev/null | tail -1) || true
echo "== ${drift:-drift: validate did not run} =="
