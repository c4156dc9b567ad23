#!/usr/bin/env bash
# Tier-1 verification, fully offline. This is the gate every change
# must pass: a hermetic build (no registry access — the workspace has
# zero third-party dependencies), the complete test suite across all
# crates, formatting, and the paper-fidelity gate (a tiny-size run of
# the figure binaries validated against the paper's tolerance bands).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline, workspace) =="
# --workspace: a plain root build only covers the root package and its
# lib deps; the visim-bench binaries would stay stale.
cargo build --release --offline --workspace

echo "== tests (workspace, offline) =="
cargo test --workspace --offline -q

echo "== clippy (workspace, all targets, offline) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== formatting =="
cargo fmt --check

echo "== metrics gate: one sink, no bare counters =="
# Every run-level count goes through the process-wide metrics sink
# (visim_obs::live::global). A `static NAME: AtomicU64` in crate code
# would be a second counting path. The one allowed is the temp-file
# sequence in util/src/atomic.rs, which names files rather than counts.
bare=$(grep -rnE 'static +[A-Za-z_][A-Za-z0-9_]* *: *AtomicU64' crates/*/src \
  | grep -v '^crates/util/src/atomic.rs:' || true)
if [ -n "$bare" ]; then
  echo "bare AtomicU64 statics (count into visim_obs::live::global instead):"
  echo "$bare"
  exit 1
fi

echo "== paper-fidelity gate (tiny) =="
fidelity_dir=$(mktemp -d)
trap 'rm -rf "$fidelity_dir"' EXIT
for bin in fig1 fig2 fig3; do
  (cd "$fidelity_dir" && "$OLDPWD/target/release/$bin" tiny >/dev/null)
done

echo "== pipeline-trace gate (tiny) =="
# Single-run mode: emits the Chrome trace-event file, round-trips it
# through the visim-obs JSON parser (B/E balance included), and checks
# the trace-derived stall attribution against the Figure 1 aggregate —
# the binary exits nonzero if any of that fails.
(cd "$fidelity_dir" && "$OLDPWD/target/release/pipetrace" blend ooo-vis tiny >/dev/null)
test -s "$fidelity_dir/results/trace/blend.ooo-vis.trace.json"
# Matrix mode: every benchmark x config, aggregates only; validate then
# re-checks the trace-vs-aggregate invariant from the JSON artifact.
(cd "$fidelity_dir" && "$OLDPWD/target/release/pipetrace" --attribution tiny >/dev/null)
./target/release/validate "$fidelity_dir/results/json"

echo "== sampled-drift gate (tiny) =="
# SMARTS-style sampled runs must agree with exact simulation: every
# sampled estimate lands within its own declared 95% CI (floored at
# ±5% relative CPI error), exact-fallback and counted cells match bit
# for bit, and the sampled Figures 1-3 still pass the paper-fidelity
# bands above. Geometry 2000:10000 keeps the per-window pipeline
# fill/drain transient small at tiny size while still sampling every
# timed cell (tiny streams are long enough for >= 2 windows).
sampled_dir="$fidelity_dir/sampled"
mkdir -p "$sampled_dir"
for bin in fig1 fig2 fig3; do
  (cd "$sampled_dir" && "$OLDPWD/target/release/$bin" tiny --sample 2000:10000 \
    --no-store >/dev/null)
done
./target/release/validate --drift "$fidelity_dir/results/json" \
  "$sampled_dir/results/json"

echo "== replay-equivalence gate (tiny) =="
# The trace cache records each dynamic instruction stream once and
# replays it per configuration; text output must be byte-identical to
# direct emission. Run cached vs direct and diff the reports. ablation
# sweeps the window size, so each of its machines has its own ring size;
# kernels14's timed cells replay the appendix kernels' streams.
replay_dir="$fidelity_dir/replay"
mkdir -p "$replay_dir/cached" "$replay_dir/direct"
for bin in fig1 sweep_l1 ablation kernels14; do
  (cd "$replay_dir/cached" && "$OLDPWD/target/release/$bin" tiny \
    > "../$bin.cached.txt")
  (cd "$replay_dir/direct" && "$OLDPWD/target/release/$bin" tiny \
    --no-trace-cache > "../$bin.direct.txt")
  diff "$replay_dir/$bin.cached.txt" "$replay_dir/$bin.direct.txt"
done
# Two workers: cells sharing a stream race for its recording (one
# records, the other waits) and each stream is released after its last
# cell; neither may change the output.
(cd "$replay_dir/cached" && VISIM_JOBS=2 \
  "$OLDPWD/target/release/fig1" tiny --no-store > "../fig1.jobs2.txt")
diff "$replay_dir/fig1.jobs2.txt" "$replay_dir/fig1.direct.txt"

echo "== durability gate: store equivalence + resume (tiny) =="
# The result store must be invisible in the results: store-on,
# store-off, and fully-warm --resume runs are byte-identical.
store_dir="$fidelity_dir/store-equiv"
mkdir -p "$store_dir/on" "$store_dir/off"
(cd "$store_dir/on" && "$OLDPWD/target/release/fig1" tiny > ../on.txt)
(cd "$store_dir/off" && "$OLDPWD/target/release/fig1" tiny --no-store > ../off.txt)
diff "$store_dir/on.txt" "$store_dir/off.txt"
ls "$store_dir/on/results/store"/*.vcell >/dev/null  # cells persisted
if ls "$store_dir/off/results/store"/*.vcell >/dev/null 2>&1; then
  echo "--no-store still wrote cells"; exit 1
fi
(cd "$store_dir/on" && "$OLDPWD/target/release/fig1" tiny --resume \
  > ../resumed.txt 2>/dev/null)
diff "$store_dir/on.txt" "$store_dir/resumed.txt"

echo "== durability gate: kill-resume convergence (tiny) =="
# SIGKILL a run once at least one cell is durable; --resume must then
# converge to the uninterrupted run's bytes.
kill_dir="$fidelity_dir/kill"
mkdir -p "$kill_dir/run"
(cd "$kill_dir/run" && "$OLDPWD/target/release/fig1" tiny \
  >/dev/null 2>&1) & victim=$!
for _ in $(seq 1 600); do
  if ls "$kill_dir/run/results/store"/*.vcell >/dev/null 2>&1; then break; fi
  if ! kill -0 "$victim" 2>/dev/null; then break; fi
  sleep 0.1
done
kill -9 "$victim" 2>/dev/null || true  # a naturally-finished run is fine
wait "$victim" 2>/dev/null || true
ls "$kill_dir/run/results/store"/*.vcell >/dev/null  # something survived
(cd "$kill_dir/run" && "$OLDPWD/target/release/fig1" tiny --resume \
  > ../resumed.txt 2>/dev/null)
diff "$store_dir/on.txt" "$kill_dir/resumed.txt"

echo "== durability gate: fault matrix (tiny) =="
fault_dir="$fidelity_dir/faults"
# 1. A transient fault on one cell's first attempt heals via retry:
#    exit 0 and byte-identical output.
mkdir -p "$fault_dir/transient"
(cd "$fault_dir/transient" && VISIM_FAULT=cell.transient:conv:0 \
  "$OLDPWD/target/release/fig1" tiny > ../transient.txt 2>/dev/null)
diff "$store_dir/on.txt" "$fault_dir/transient.txt"
# 2. Torn store writes (atomic-write discipline bypassed): the run is
#    unaffected; a clean resume purges the tears and converges.
mkdir -p "$fault_dir/torn"
(cd "$fault_dir/torn" && VISIM_FAULT=store.write.torn:1/4 \
  "$OLDPWD/target/release/fig1" tiny > ../torn.txt 2>/dev/null)
diff "$store_dir/on.txt" "$fault_dir/torn.txt"
(cd "$fault_dir/torn" && "$OLDPWD/target/release/fig1" tiny --resume \
  > ../torn-resumed.txt 2>/dev/null)
diff "$store_dir/on.txt" "$fault_dir/torn-resumed.txt"
# 3. A workload panic degrades that benchmark to an error row: exit 1,
#    partial artifacts written, and a resume under the same fault is
#    stable (byte-identical to the failing run).
mkdir -p "$fault_dir/panic"
set +e
(cd "$fault_dir/panic" && VISIM_FAULT=cell.panic:conv \
  "$OLDPWD/target/release/fig1" tiny > ../panic.txt 2>/dev/null)
panic_exit=$?
set -e
test "$panic_exit" -ne 0
test -s "$fault_dir/panic/results/partial/fig1.txt"
set +e
(cd "$fault_dir/panic" && VISIM_FAULT=cell.panic:conv \
  "$OLDPWD/target/release/fig1" tiny --resume > ../panic-resumed.txt 2>/dev/null)
set -e
diff "$fault_dir/panic.txt" "$fault_dir/panic-resumed.txt"

echo "== serve gate: daemon warm-hit round trip (tiny) =="
# Start the job daemon on an ephemeral port, submit the fig2 manifest
# twice, and require the second pass to be served 100% from the store
# (zero re-simulations), then shut down cleanly and leave a metrics doc.
serve_dir="$fidelity_dir/serve"
mkdir -p "$serve_dir"
serve="$PWD/target/release/visim-serve"
(cd "$serve_dir" && "$serve" --addr-file addr.txt >/dev/null 2>&1) & serve_pid=$!
for _ in $(seq 1 300); do
  if [ -s "$serve_dir/addr.txt" ]; then break; fi
  sleep 0.1
done
test -s "$serve_dir/addr.txt"
serve_addr=$(sed 's/.*"addr":"\([^"]*\)".*/\1/' "$serve_dir/addr.txt")
(cd "$serve_dir" && "$serve" client "$serve_addr" manifest fig2 tiny \
  > cold.txt)
(cd "$serve_dir" && "$serve" client "$serve_addr" manifest fig2 tiny \
  > warm.txt)
grep -q '"event":"done"' "$serve_dir/cold.txt"
# Warm pass: all 24 cells are store hits, nothing was simulated.
grep -q '"event":"done".*"ok":24,"failed":0,"hits":24,"misses":0' \
  "$serve_dir/warm.txt"
(cd "$serve_dir" && "$serve" client "$serve_addr" shutdown >/dev/null)
wait "$serve_pid"
test -s "$serve_dir/results/json/serve.json"
grep -q '"serve.hits": 24' "$serve_dir/results/json/serve.json"
(cd "$serve_dir" && "$serve" --store-stats | grep -q "entries: 24")

echo "== telemetry gate: request spans, flight recorder, timeline (tiny) =="
# Daemon A (cold): fig2 tiny fills the store; the stats event must carry
# non-zero simulate percentiles for all 24 misses.
telem_dir="$fidelity_dir/telemetry"
mkdir -p "$telem_dir"
(cd "$telem_dir" && "$serve" --addr-file addr.txt >/dev/null 2>&1) & telem_pid=$!
for _ in $(seq 1 300); do
  if [ -s "$telem_dir/addr.txt" ]; then break; fi
  sleep 0.1
done
telem_addr=$(sed 's/.*"addr":"\([^"]*\)".*/\1/' "$telem_dir/addr.txt")
(cd "$telem_dir" && "$serve" client "$telem_addr" manifest fig2 tiny >/dev/null)
(cd "$telem_dir" && "$serve" client "$telem_addr" stats --json > stats-cold.txt)
grep -q '"simulate":{"count":24,"p50_ns":[1-9]' "$telem_dir/stats-cold.txt"
(cd "$telem_dir" && "$serve" client "$telem_addr" shutdown >/dev/null)
wait "$telem_pid"
# Daemon B (warm, fast recorder tick, request tracing): the same
# manifest is now served 100% from the store, every always-on phase
# observed all 24 requests, watch streams live snapshots, and shutdown
# persists the flight-recorder timeline plus the Chrome request trace.
(cd "$telem_dir" && VISIM_TICK_MS=50 "$serve" --addr-file addr2.txt \
  --trace-out results/trace/serve_requests.trace.json >/dev/null 2>&1) & telem_pid=$!
for _ in $(seq 1 300); do
  if [ -s "$telem_dir/addr2.txt" ]; then break; fi
  sleep 0.1
done
telem_addr=$(sed 's/.*"addr":"\([^"]*\)".*/\1/' "$telem_dir/addr2.txt")
(cd "$telem_dir" && "$serve" client "$telem_addr" manifest fig2 tiny > warm.txt)
grep -q '"event":"done".*"hits":24,"misses":0' "$telem_dir/warm.txt"
(cd "$telem_dir" && "$serve" client "$telem_addr" stats --json > stats-warm.txt)
grep -q '"hit_ratio_pct":100' "$telem_dir/stats-warm.txt"
for phase in read_parse store_lookup queue_wait respond; do
  grep -q "\"$phase\":{\"count\":[1-9][0-9]*,\"p50_ns\":[1-9]" \
    "$telem_dir/stats-warm.txt"
done
grep -q '"paths":{"hit":{"count":24' "$telem_dir/stats-warm.txt"
(cd "$telem_dir" && "$serve" client "$telem_addr" watch 2 --json > watch.txt)
test "$(grep -c '"event":"snapshot"' "$telem_dir/watch.txt")" -ge 2
(cd "$telem_dir" && "$serve" client "$telem_addr" shutdown >/dev/null)
wait "$telem_pid"
test -s "$telem_dir/results/trace/serve_requests.trace.json"
"$serve" --check-timeline "$telem_dir/results/json/serve_timeline.json" \
  | grep -q 'schema visim-serve-timeline-v1'

echo "== frozen benchmark harness: build + smoke (perfbench) =="
# perfbench/harness is a separate Cargo package that calls the library
# directly; building it unmodified and running both workloads in smoke
# mode catches a library change that breaks one of its calls.
python3 perfbench/test_run.py

echo "verify: OK"
