#!/usr/bin/env python3
"""The visim benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload fig1-exact --seed 7 --seconds 20 --trace 0

Run it from the repository root. It builds `perfbench/harness` (a
Cargo package of its own) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload in fresh processes until
`--seconds` of measurement have passed (and at least three passes or
epochs), checks the outputs, and prints a human-readable report
followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics; with
`--trace 1` the traced run reports the per-layer metrics instead.
`--smoke` shrinks every workload to the tiny geometry and one pass so
the whole benchmark finishes in seconds (see test_run.py). Everything
the benchmark writes goes under `.bench_out/` in the checkout.
README.md documents the workloads, metrics, and checks.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS_DIR = ROOT / "perfbench" / "harness"
OUT = ROOT / ".bench_out"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
]

PER_LAYER = [
    ("emit.ns_per_inst", "ns/inst"),
    ("record.ns_per_inst", "ns/inst"),
    ("record.bytes_per_inst", "B/inst"),
    ("replay.ns_per_inst", "ns/inst"),
    ("pipeline.1-way.ns_per_inst", "ns/inst"),
    ("pipeline.4-way.ns_per_inst", "ns/inst"),
    ("pipeline.4-way-ooo.ns_per_inst", "ns/inst"),
    ("pipeline.ns_per_cycle", "ns/cycle"),
    ("mem.ns_per_access", "ns/access"),
    ("mem.reject_ratio", "ratio"),
    ("warming.ns_per_inst", "ns/inst"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.us_each", "us"),
    ("window.count", "count"),
    ("window.ns_per_inst", "ns/inst"),
    ("trace_cache.hits", "count"),
    ("trace_cache.misses", "count"),
    ("trace_cache.resident_mb", "MB"),
    ("store.load_us", "us"),
    ("store.save_us", "us"),
    ("store.entry_bytes", "B"),
    ("manifest.resolve_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.to_start_us", "us"),
    ("serve.start_to_cell_ms", "ms"),
    ("serve.cell_to_done_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.phase.store_lookup_p50_us", "us"),
    ("serve.phase.simulate_p50_ms", "ms"),
    ("serve.phase.respond_p50_us", "us"),
    ("trace.overhead_pct", "%"),
]

# Figure 1 at study geometry; fig1-exact keeps one kernel set, one JPEG
# and one MPEG benchmark so a pass fits the run length (README.md).
EXACT_BENCHES = "addition,thresh,djpeg-np,mpeg-dec"

# `min_passes`: passes or epochs a run makes even past `--seconds`.
WORKLOADS = {
    "fig1-exact": {"kind": "fig1", "benches": EXACT_BENCHES, "min_passes": 3},
    "serve-mixed": {"kind": "serve", "min_passes": 3},
}

# Requests of the per-request script, which is a serve epoch's timed
# region; then the untimed verification pass.
SERVE_REQUESTS = 3000
VERIFY_CELLS = 16
# Set-up is timed on dedicated start-ups (a few milliseconds each),
# this many after every pass or epoch, so that the median spans the run
# rather than one instant of it.
SETUP_STARTS = 15
# The serve layer's traced epoch for fig1-exact.
TRACED_SERVE_REQUESTS = 200
# Every child is killed and the run fails if it is not done by then.
RUN_DEADLINE_S = 170
LIVE = []


def fail_hard(msg):
    """Abort without a result line (build failure, missing harness)."""
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


# ---------------------------------------------------------------- setup


def bench_env():
    """The environment every child runs in: no inherited VISIM_* knob,
    one simulation worker, quiet logging."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VISIM_")}
    env["VISIM_JOBS"] = "1"
    env["VISIM_QUIET"] = "1"
    return env


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    manifest = HARNESS_DIR / "Cargo.toml"
    if not manifest.is_file() or not (ROOT / "crates").is_dir():
        fail_hard("the simulator sources are not here; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    r = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail_hard("harness build failed")
    exe = target / "release" / "perfbench-harness"
    if not exe.is_file():
        fail_hard(f"harness binary missing at {exe}")
    return str(exe)


def source_digest():
    """A content digest of everything that builds the harness: the
    simulator crates, the workspace manifests, and the benchmark."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "perfbench"]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for r in roots:
        files.extend(p for p in r.rglob("*") if p.is_file())
    for p in sorted(files):
        if not p.is_file() or "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(src):
    rev = None
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if r.returncode == 0:
            rev = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "commit": rev or "unknown",
        "source": src,
    }


# ----------------------------------------------------------- processes


def spawn(argv, cwd, log_path, env):
    """Start `argv` with stdout piped and stderr in `log_path`. Returns
    the process and its start time, taken once the log file exists so
    that set-up times hold no file creation."""
    with open(log_path, "w") as log_file:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=log_file, text=True
        )
    LIVE.append(proc)
    return proc, t0


def reap(proc):
    """Wait for `proc` and return (exit code, cpu seconds, peak RSS MB)
    from its own rusage."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    LIVE.remove(proc)
    return proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_child(argv, cwd, env, log_path):
    """Run a child to completion; returns (exit code, stdout)."""
    proc, _ = spawn(argv, cwd, log_path, env)
    out = proc.stdout.read()
    code, _, _ = reap(proc)
    return code, out


def on_deadline(signum, frame):
    for proc in list(LIVE):
        proc.kill()
        os.waitpid(proc.pid, 0)
    fail_hard(f"run exceeded {RUN_DEADLINE_S} s; children killed")


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line")


def keep_going(durations, a):
    """Start another pass or epoch while it is expected to end within
    `--seconds` of measurement (and always until the minimum count)."""
    if len(durations) < a.min_passes:
        return True
    return sum(durations) + statistics.median(durations) <= a.seconds


def percentile(values, q):
    """The q-th percentile (q in [0, 100]), interpolating linearly
    between order statistics."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = q / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_level(n):
    """The highest standard percentile with at least ten samples beyond
    it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


# ---------------------------------------------------------------- fig1


def fig1_args(exe, size, seed, benches):
    return [exe, "fig1", "--size", size, "--seed", str(seed), "--benches", benches]


def fig1_pass(argv, run_dir, env, tag):
    """One fresh process: set-up time to the dispatch line, the pass
    result, and the process's own CPU time and peak RSS."""
    proc, t0 = spawn(argv, run_dir, run_dir / f"{tag}.log", env)
    first = proc.stdout.readline()
    setup = time.monotonic() - t0
    rest = proc.stdout.read()
    code, cpu, rss = reap(proc)
    if code != 0 or '"dispatch"' not in first:
        raise RuntimeError(f"{tag}: harness exited {code}; see {run_dir}/{tag}.log")
    result = last_json(rest) if rest.strip() else None
    return setup, result, cpu, rss


def committed_fig1():
    """Cycles per label from the committed study-size Figure 1 artifact."""
    path = ROOT / "results" / "json" / "fig1.json"
    doc = json.loads(path.read_text())
    out = {}
    for c in doc["cells"]:
        cfg = c["config"]
        variant = "vis" if cfg["vis"] else "base"
        out[f'{c["benchmark"]}/{cfg["arch"]}/{variant}'] = c["cycles"]
    return out


class Checks:
    def __init__(self):
        self.failures = []
        self.passed = []

    def check(self, ok, what):
        (self.passed if ok else self.failures).append(what)
        return ok


def record_digest(src, workload, size, seed, digest, checks, what):
    """Same-seed runs (traced or not) must produce the same digest."""
    path = OUT / "digests" / f"{src}-{workload}-{size}-{seed}.txt"
    if path.is_file():
        prior = path.read_text().strip()
        checks.check(prior == digest, f"{what} digest {digest} == earlier run's {prior}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest + "\n")
        checks.check(True, f"{what} digest {digest} recorded")


def check_cells(cells, checks, tag):
    bad_status = [c["label"] for c in cells if c["status"] != "ok"]
    checks.check(not bad_status, f"{tag}: every cell status ok {bad_status or ''}")
    bad_identity = [
        c["label"]
        for c in cells
        if c["status"] == "ok"
        and abs(c["breakdown_total"] - c["cycles"]) > 1e-6 * max(1, c["cycles"])
    ]
    checks.check(
        not bad_identity,
        f"{tag}: breakdown total == cycles for every cell {bad_identity or ''}",
    )


def run_fig1(a, exe, spec, size, env, run_dir, src, checks, report):
    argv = fig1_args(exe, size, a.seed, spec["benches"])
    passes = []
    setups = []
    durations = []
    while keep_going(durations, a):
        t0 = time.monotonic()
        _, result, cpu, rss = fig1_pass(argv, run_dir, env, f"pass{len(passes)}")
        durations.append(time.monotonic() - t0)
        passes.append((result, cpu, rss))
        for i in range(a.setup_starts):
            setup, _, _, _ = fig1_pass(argv + ["--dry-run", "1"], run_dir, env, f"setup{i}")
            setups.append(setup)

    attempted = sum(r["attempted"] for r, _, _ in passes)
    failed = sum(r["failed"] for r, _, _ in passes)
    for i, (r, _, _) in enumerate(passes):
        check_cells(r["cells"], checks, f"pass {i}")
    digests = {r["digest"] for r, _, _ in passes}
    checks.check(len(digests) == 1, f"digest identical across {len(passes)} passes")
    digest = passes[0][0]["digest"]
    record_digest(src, a.workload, size, a.seed, digest, checks, "untraced")
    cells = passes[0][0]["cells"]

    if a.workload == "fig1-exact" and size == "study" and a.seed == 7:
        committed = committed_fig1()
        diff = [c["label"] for c in cells if committed.get(c["label"]) != c["cycles"]]
        checks.check(not diff, f"seed 7 cycles == results/json/fig1.json {diff or ''}")

    walls = [r["wall_s"] for r, _, _ in passes]
    cell_ms = [[c["cell_ms"] for c in r["cells"] if c["status"] == "ok"] for r, _, _ in passes]
    # p50_ms is the median over passes of a pass's mean cell time. The
    # median over the 24 cells is reported but not used: it rests on the
    # one or two cells at the middle rank, so it moves with their own
    # noise, two to three times as far as wall_s between runs. The tail
    # pools over passes, at a level fixed by the minimum pass count so
    # it is the same percentile on every run.
    by_cell = {}
    for r, _, _ in passes:
        for c in r["cells"]:
            if c["status"] == "ok":
                by_cell.setdefault(c["label"], []).append(c["cell_ms"])
    typical = [statistics.median(v) for v in by_cell.values()]
    pooled = [x for v in cell_ms for x in v]
    n_cells = min(len(v) for v in cell_ms)
    q = tail_level(n_cells * a.min_passes)
    retired = sum(c["retired"] for c in cells if c["status"] == "ok")
    report.append(
        f"sim_minst_per_s {statistics.median(retired / 1e6 / w for w in walls):.4f} Minst/s"
    )
    report.append(
        f"cell_p50_ms {percentile(typical, 50):.4f} ms (median over {len(typical)} cells "
        f"of each cell's median over passes)"
    )
    report.append(f"fail_ratio {failed / max(1, attempted):.6f}")
    report.append(
        f"{len(passes)} passes x {n_cells} cells; p50_ms is the median of the passes' "
        f"mean cell times, tail_ms is p{q:g} of {len(pooled)} cell host times; "
        f"setup_s over {len(setups)} process starts",
    )
    report.append("pass wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpu for _, cpu, _ in passes),
        "peak_rss_mb": statistics.median(rss for _, _, rss in passes),
        "req_per_s": statistics.median(len(v) / w for v, w in zip(cell_ms, walls)),
        "p50_ms": statistics.median(statistics.mean(v) for v in cell_ms),
        "tail_ms": percentile(pooled, q),
    }
    return attempted, failed, metrics


# --------------------------------------------------------------- serve


def start_daemon(exe, epoch_dir, env):
    """Spawn a daemon with an empty store in its own working directory
    (its serve.json and timeline land there). Returns (proc, addr,
    setup seconds)."""
    if epoch_dir.exists():
        shutil.rmtree(epoch_dir)
    epoch_dir.mkdir(parents=True)
    proc, t0 = spawn(
        [exe, "daemon", "--store-dir", "store"], epoch_dir, epoch_dir / "daemon.log", env
    )
    line = proc.stdout.readline()
    setup = time.monotonic() - t0
    try:
        event = json.loads(line)
        addr = event["addr"]
    except (ValueError, KeyError):
        proc.kill()
        reap(proc)
        raise RuntimeError(f"daemon did not start; see {epoch_dir}/daemon.log")
    return proc, addr, setup


def stop_daemon(proc, addr):
    host, port = addr.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port)), timeout=30) as s:
            s.sendall(b'{"op":"shutdown"}\n')
            s.recv(4096)
    except OSError:
        proc.kill()
    return reap(proc)


def serve_epoch(exe, a, env, epoch_dir, requests, epoch, trace_out=None):
    """One daemon lifetime under the two-connection load, `requests`
    long."""
    proc, addr, setup = start_daemon(exe, epoch_dir, env)
    argv = [
        exe,
        "serve-load",
        "--addr",
        addr,
        "--seed",
        str(a.seed),
        "--epoch",
        str(epoch),
        "--requests",
        str(requests),
        "--verify",
        str(a.verify),
    ]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    try:
        load_code, out = run_child(argv, epoch_dir, env, epoch_dir / "load.log")
    finally:
        code, cpu, rss = stop_daemon(proc, addr)
    if load_code != 0:
        raise RuntimeError(f"load generator exited {load_code}; see {epoch_dir}/load.log")
    return setup, last_json(out), code, cpu, rss


def check_serve(result, code, checks, tag):
    checks.check(code == 0, f"{tag}: daemon exited cleanly ({code})")
    checks.check(result["failed"] == 0, f"{tag}: no failed request ({result['failed']})")
    checks.check(
        result["mismatches"] == 0,
        f"{tag}: every hit returned the value its miss stored ({result['mismatches']} mismatches)",
    )


def run_serve(a, exe, env, run_dir, src, checks, report):
    epochs = []
    setups = []
    durations = []
    while keep_going(durations, a):
        t0 = time.monotonic()
        _, result, code, cpu, rss = serve_epoch(
            exe, a, env, run_dir / f"epoch{len(epochs)}", a.requests, len(epochs),
        )
        durations.append(time.monotonic() - t0)
        check_serve(result, code, checks, f"epoch {len(epochs)}")
        epochs.append((result, cpu, rss))
        for i in range(a.setup_starts):
            proc, addr, setup = start_daemon(exe, run_dir / f"setup{i}", env)
            stop_daemon(proc, addr)
            setups.append(setup)

    digests = {r["verify_digest"] for r, _, _ in epochs}
    checks.check(len(digests) == 1, f"verification digest identical across {len(epochs)} epochs")
    record_digest(src, a.workload, f"verify{a.verify}", a.seed,
                  epochs[0][0]["verify_digest"], checks, "serve")

    attempted = sum(r["attempted"] for r, _, _ in epochs)
    failed = sum(r["failed"] for r, _, _ in epochs)
    perreq = [r["perreq_ms"] for r, _, _ in epochs]
    q = tail_level(min(len(v) for v in perreq))
    pooled = lambda k: [x for r, _, _ in epochs for x in r[k]]  # noqa: E731
    hits, misses, session = pooled("hit_ms"), pooled("miss_ms"), pooled("session_ms")
    hq, mq = tail_level(len(hits)), min(90.0, tail_level(len(misses)))
    report.extend(
        [
            f"hit_p50_ms {percentile(hits, 50):.4f} ms, hit_p{hq:g}_ms "
            f"{percentile(hits, hq):.4f} ms (n={len(hits)})",
            f"miss_p50_ms {percentile(misses, 50):.4f} ms, miss_p{mq:g}_ms "
            f"{percentile(misses, mq):.4f} ms (n={len(misses)})",
            f"session_p50_ms {percentile(session, 50):.4f} ms (n={len(session)})",
            f"coalesced {sum(r['coalesced'] for r, _, _ in epochs)}",
            f"fail_ratio {failed / max(1, attempted):.6f}",
            f"{len(epochs)} epochs x {a.requests} per-request requests, "
            f"{len(session)} session requests; tail_ms is "
            f"p{q:g} of per-request latency; setup_s over {len(setups)} daemon starts",
        ]
    )
    walls = [r["wall_s"] for r, _, _ in epochs]
    report.append("epoch wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    report.append("epoch p50_ms: " + " ".join(f"{percentile(v, 50):.4f}" for v in perreq))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpu for _, cpu, _ in epochs),
        "peak_rss_mb": statistics.median(rss for _, _, rss in epochs),
        "req_per_s": statistics.median(r["timed_requests"] / r["wall_s"] for r, _, _ in epochs),
        "p50_ms": statistics.median(percentile(v, 50) for v in perreq),
        "tail_ms": statistics.median(percentile(v, q) for v in perreq),
    }
    return attempted, failed, metrics


# -------------------------------------------------------------- traced


def run_traced(a, exe, spec, size, env, run_dir, src, checks, report):
    """Per-layer metrics: the in-process layer probe over the
    workload's cells, plus a traced serve epoch for the serve layer."""
    if spec["kind"] == "serve":
        argv = [exe, "traced", "--workload", a.workload, "--size", "tiny",
                "--seed", "7", "--benches", "all"]
        requests = a.requests
    else:
        argv = [exe, "traced", "--workload", a.workload, "--size", size,
                "--seed", str(a.seed), "--benches", spec["benches"]]
        requests = a.requests if a.smoke else TRACED_SERVE_REQUESTS
    argv += ["--out", str(run_dir)]
    code, out = run_child(argv, run_dir, env, run_dir / "traced.log")
    if code != 0:
        raise RuntimeError(f"traced run exited {code}; see {run_dir}/traced.log")
    probe = last_json(out)
    layers = dict(probe["layers"])
    checks.check(
        probe["digest"] == probe["untraced_digest"] == probe["engine_digest"],
        f"traced digest {probe['digest']} == untraced pass {probe['untraced_digest']} "
        f"== engine {probe['engine_digest']}",
    )
    if spec["kind"] == "fig1":
        record_digest(src, a.workload, size, a.seed, probe["digest"], checks, "traced")
    overhead = (probe["traced_s"] - probe["untraced_s"]) / probe["untraced_s"] * 100.0
    layers["trace.overhead_pct"] = overhead

    _, result, code, _, _ = serve_epoch(
        exe, a, env, run_dir / "traced-serve", requests, 0,
        trace_out=run_dir / "serve.trace.json",
    )
    check_serve(result, code, checks, "traced serve epoch")
    if spec["kind"] == "serve":
        record_digest(src, a.workload, f"verify{a.verify}", a.seed,
                      result["verify_digest"], checks, "serve")
    layers.update(result["layers"])

    report.append(
        f"tracing overhead {overhead:+.2f}% (layer probe {probe['untraced_s']:.3f} s "
        f"untraced, {probe['traced_s']:.3f} s traced)"
    )
    report.append("self time by span (ms):")
    for name, t in sorted(probe["self_times"].items(), key=lambda kv: -kv[1]["self_ms"]):
        report.append(
            f"  {name:<22} n={t['count']:<6} total {t['total_ms']:>12.3f}  self {t['self_ms']:>12.3f}"
        )
    report.append(f"traces: {run_dir}/layers.trace.json, {run_dir}/serve.trace.json")
    attempted = 1 + result["attempted"]
    return attempted, result["failed"], layers


# ---------------------------------------------------------------- main


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny geometry, one pass: finishes in seconds")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")
    spec = WORKLOADS[a.workload]
    size = "tiny" if a.smoke else "study"
    a.min_passes = 1 if a.smoke else spec["min_passes"]
    a.setup_starts = 2 if a.smoke else SETUP_STARTS
    a.requests = 60 if a.smoke else SERVE_REQUESTS
    a.verify = 4 if a.smoke else VERIFY_CELLS
    if a.smoke:
        a.seconds = 0

    exe = build()
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    env = bench_env()
    src = source_digest()
    prov = provenance(src)
    run_dir = OUT / "runs" / f"{a.workload}-s{a.seed}-t{a.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    checks = Checks()
    report = []
    try:
        if a.trace:
            attempted, failed, values = run_traced(
                a, exe, spec, size, env, run_dir, src, checks, report)
            names = PER_LAYER
        elif spec["kind"] == "fig1":
            attempted, failed, values = run_fig1(
                a, exe, spec, size, env, run_dir, src, checks, report)
            names = END_TO_END
        else:
            attempted, failed, values = run_serve(
                a, exe, env, run_dir, src, checks, report)
            names = END_TO_END
    except RuntimeError as e:
        fail_hard(str(e))

    missing = [n for n, _ in names if n not in values]
    checks.check(not missing, f"every metric measured {missing or ''}")
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in names}
    correct = not checks.failures and failed == 0

    record = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "size": size, "provenance": prov, "checks_failed": checks.failures,
        "checks_passed": checks.passed, "report": report, "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace} size={size} "
          f"nproc={prov['nproc']} kernel={prov['kernel']} commit={prov['commit']} "
          f"source={src}")
    for n, u in names:
        print(f"  {n:<34} {metrics[n]['value']:>16.6f} {u}")
    for line in report:
        print(f"  {line}")
    print(f"  checks: {len(checks.passed)} passed, {len(checks.failures)} failed")
    for f in checks.failures:
        print(f"  CHECK FAILED: {f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
