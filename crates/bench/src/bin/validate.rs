//! Paper-fidelity validation gate over the `visim-results-v2` JSON
//! artifacts.
//!
//! Loads `fig1.json`, `fig2.json`, and `fig3.json` from a results
//! directory (default `results/json/`, override with the first
//! argument) and asserts the paper's headline quantitative claims as
//! tolerance bands:
//!
//! * **ILP** (§3.1, Figure 1): 1-way in-order → 4-way out-of-order
//!   speeds every benchmark up; the paper quotes 2.3–4.2X. The
//!   reproduction's per-benchmark spread is wider (the codecs sit low,
//!   the kernels high), so the gate checks the geometric mean against
//!   the paper band with a documented ±~25% tolerance and a per-bench
//!   floor.
//! * **VIS** (§3.2, Figure 1): media extensions add 1.1–4.2X on top of
//!   the out-of-order core and never slow a benchmark down.
//! * **Prefetch** (§4.2, Figure 3): software prefetching adds 1.4–2.5X
//!   on the memory-bound benchmarks and never loses performance.
//! * **Branch work** (§3.2.2, Figure 2): VIS removes data-dependent
//!   branches, so the misprediction rate drops for conv, thresh, and
//!   mpeg-enc.
//! * **Rearrangement overhead** (§3.2.3): ~41% of VIS instructions are
//!   subword rearrangement / alignment overhead on average.
//! * **Trace attribution** (`pipetrace.json`): the cycle-level trace's
//!   per-cycle stall attribution must equal the pipeline's aggregate
//!   Figure 1 breakdown **exactly** — same integer unit counts and
//!   `total_units == cycles × width` — for every benchmark × six main
//!   configurations. Unlike the tolerance bands above this is an
//!   invariant, not physics: the two attributions are computed by
//!   independent code paths from the same charging rule, so any
//!   difference is a tracing bug.
//!
//! The bands hold at both `tiny` and `study` workload sizes (measured:
//! ILP geomean 2.86/2.88, VIS 1.89/2.01, prefetch 1.58/1.96, overhead
//! 0.406/0.405 at study/tiny), so the gate runs on tiny artifacts in
//! `scripts/verify.sh` and on study artifacts in `scripts/regen.sh`.
//!
//! A `"status": "failed"` cell is reported as **CRASH** (the simulation
//! died) and an out-of-band aggregate as **DRIFT** (the simulation ran
//! but the physics moved) — different failure classes for a consumer
//! scanning the output. Exit status: 0 all checks pass, 1 any crash or
//! drift, 2 artifacts missing or unreadable.
//!
//! # Sampled-vs-exact drift mode
//!
//! `validate --drift <exact-dir> <sampled-dir>` compares the figure
//! artifacts of an exact run against those of a `--sample` run of the
//! same workload size. Per matched cell:
//!
//! * a sampled estimate (`cell.sampling.mode` = 1) must land within the
//!   cell's own declared 95% CI (`cell.sampling.ci_centipct`), widened
//!   to a conservative floor of ±[`DRIFT_FLOOR`] relative CPI error —
//!   SMARTS CIs are computed from few windows at small sizes and can
//!   underestimate;
//! * an exact-fallback cell (`mode` = 2) must match the exact run's
//!   cycle count bit for bit;
//! * counted cells (Figure 2, no timing model) must carry identical
//!   functional payloads — sampling never touches functional state.
//!
//! The sampled artifacts are then run through the same paper-fidelity
//! bands as an exact run, so sampled Figures 1–3 must stay inside the
//! paper's claims, not merely near the exact reproduction.

use std::collections::BTreeMap;
use std::process::ExitCode;

use visim_obs::schema::RESULTS_SCHEMA;
use visim_obs::Json;

/// Accumulates check outcomes and renders the one-line-per-check log.
struct Gate {
    checks: u32,
    failures: u32,
}

impl Gate {
    fn new() -> Self {
        Gate {
            checks: 0,
            failures: 0,
        }
    }

    /// Assert `value` lies inside `[lo, hi]`.
    fn band(&mut self, label: &str, value: f64, lo: f64, hi: f64) {
        self.checks += 1;
        if value >= lo && value <= hi {
            println!("  ok    {label}: {value:.3} in [{lo:.3}, {hi:.3}]");
        } else {
            self.failures += 1;
            println!("  DRIFT {label}: {value:.3} outside [{lo:.3}, {hi:.3}]");
        }
    }

    /// Assert a named condition already evaluated by the caller.
    fn claim(&mut self, label: &str, ok: bool, detail: &str) {
        self.checks += 1;
        if ok {
            println!("  ok    {label}: {detail}");
        } else {
            self.failures += 1;
            println!("  DRIFT {label}: {detail}");
        }
    }

    /// Record crashed cells (status "failed") from one document.
    fn crashes(&mut self, doc_name: &str, cells: &[&Json]) {
        self.checks += 1;
        if cells.is_empty() {
            println!("  ok    {doc_name}: no crashed cells");
            return;
        }
        self.failures += 1;
        for c in cells {
            let bench = c.get("benchmark").and_then(Json::as_str).unwrap_or("?");
            let kind = c.get("error_kind").and_then(Json::as_str).unwrap_or("?");
            println!("  CRASH {doc_name}: {bench} failed ({kind})");
        }
    }
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Load one results document and verify its schema tag.
fn load(dir: &str, name: &str) -> Result<Json, String> {
    let path = format!("{dir}/{name}.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == RESULTS_SCHEMA => Ok(doc),
        other => Err(format!(
            "{path}: schema {other:?}, expected {RESULTS_SCHEMA:?}"
        )),
    }
}

/// Split a document's cells into ok and failed.
fn cells(doc: &Json) -> (Vec<&Json>, Vec<&Json>) {
    let all = doc
        .get("cells")
        .and_then(Json::elements)
        .map(|c| c.iter().collect::<Vec<_>>())
        .unwrap_or_default();
    all.into_iter()
        .partition(|c| c.get("status").and_then(Json::as_str) == Some("ok"))
}

fn config_str<'a>(cell: &'a Json, key: &str) -> Option<&'a str> {
    cell.get("config")
        .and_then(|c| c.get(key))
        .and_then(Json::as_str)
}

fn check_fig1(gate: &mut Gate, doc: &Json) {
    let (ok, failed) = cells(doc);
    gate.crashes("fig1", &failed);
    // cycles by (benchmark, arch label, vis flag)
    let mut cyc: BTreeMap<(String, String, bool), f64> = BTreeMap::new();
    for c in &ok {
        let (Some(b), Some(a), Some(v)) = (
            c.get("benchmark").and_then(Json::as_str),
            config_str(c, "arch"),
            c.get("config")
                .and_then(|c| c.get("vis"))
                .map(|j| j == &Json::Bool(true)),
        ) else {
            continue;
        };
        if let Some(cycles) = c.get("cycles").and_then(Json::as_f64) {
            cyc.insert((b.to_string(), a.to_string(), v), cycles);
        }
    }
    let benches: Vec<String> = {
        let mut b: Vec<String> = cyc.keys().map(|(b, _, _)| b.clone()).collect();
        b.dedup();
        b
    };
    let mut ilp = Vec::new();
    let mut vis = Vec::new();
    for b in &benches {
        let get = |arch: &str, v: bool| cyc.get(&(b.clone(), arch.to_string(), v)).copied();
        if let (Some(one), Some(ooo)) = (get("1-way", false), get("4-way ooo", false)) {
            ilp.push(one / ooo);
        }
        if let (Some(base), Some(with)) = (get("4-way ooo", false), get("4-way ooo", true)) {
            vis.push(base / with);
        }
    }
    // Paper §3.1: ILP alone buys 2.3-4.2X. Tolerance: the reproduction's
    // per-benchmark spread is wider (1.9-6.8X measured), so gate the
    // geometric mean at paper band ± ~25% and floor each benchmark.
    gate.claim(
        "fig1.ilp.per-bench-floor",
        !ilp.is_empty() && ilp.iter().all(|&s| s >= 1.5),
        &format!(
            "min ILP speedup {:.2} >= 1.5 over {} benchmarks",
            ilp.iter().cloned().fold(f64::INFINITY, f64::min),
            ilp.len()
        ),
    );
    gate.band("fig1.ilp.geomean", geomean(&ilp), 2.0, 4.5);
    // Paper §3.2: VIS adds 1.1-4.2X and never hurts. Tolerance: geomean
    // in [1.3, 3.0] (measured 1.89 study / 2.01 tiny); per-benchmark
    // floor at parity.
    gate.claim(
        "fig1.vis.never-slower",
        !vis.is_empty() && vis.iter().all(|&s| s >= 1.0),
        &format!(
            "min VIS speedup {:.2} >= 1.0 over {} benchmarks",
            vis.iter().cloned().fold(f64::INFINITY, f64::min),
            vis.len()
        ),
    );
    gate.band("fig1.vis.geomean", geomean(&vis), 1.3, 3.0);
}

fn check_fig2(gate: &mut Gate, doc: &Json) {
    let (ok, failed) = cells(doc);
    gate.crashes("fig2", &failed);
    // cpu stats by (benchmark, variant)
    let mut stats: BTreeMap<(String, String), &Json> = BTreeMap::new();
    for c in &ok {
        if let (Some(b), Some(v), Some(cpu)) = (
            c.get("benchmark").and_then(Json::as_str),
            config_str(c, "variant"),
            c.get("cpu"),
        ) {
            stats.insert((b.to_string(), v.to_string()), cpu);
        }
    }
    // Paper §3.2.3: ~41% of VIS instructions are rearrangement /
    // alignment overhead on average. Tolerance: [0.30, 0.52] (measured
    // 0.406 study / 0.405 tiny).
    let overheads: Vec<f64> = stats
        .iter()
        .filter(|((_, v), _)| v == "vis")
        .filter_map(|(_, cpu)| {
            let vis_count = cpu.get("mix")?.get("vis").and_then(Json::as_f64)?;
            if vis_count > 0.0 {
                cpu.get("vis_overhead_fraction").and_then(Json::as_f64)
            } else {
                None
            }
        })
        .collect();
    let avg = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    gate.band("fig2.vis-overhead.mean", avg, 0.30, 0.52);
    // Paper §3.2.2: VIS removes the data-dependent branches of
    // saturation/thresholding, dropping the misprediction rate for
    // conv, thresh, and mpeg-enc. Tolerance: VIS rate <= 0.85x base
    // (measured ratios 0.16-0.68 across sizes).
    for bench in ["conv", "thresh", "mpeg-enc"] {
        let rate = |variant: &str| {
            stats
                .get(&(bench.to_string(), variant.to_string()))
                .and_then(|cpu| cpu.get("mispredict_rate"))
                .and_then(Json::as_f64)
        };
        match (rate("base"), rate("vis")) {
            (Some(base), Some(vis)) => gate.claim(
                &format!("fig2.mispredict-drop.{bench}"),
                vis <= 0.85 * base,
                &format!("{:.1}% -> {:.1}% with VIS", 100.0 * base, 100.0 * vis),
            ),
            _ => gate.claim(
                &format!("fig2.mispredict-drop.{bench}"),
                false,
                "cells missing",
            ),
        }
    }
}

fn check_fig3(gate: &mut Gate, doc: &Json) {
    let (ok, failed) = cells(doc);
    gate.crashes("fig3", &failed);
    let mut cyc: BTreeMap<(String, String), f64> = BTreeMap::new();
    for c in &ok {
        if let (Some(b), Some(v), Some(cycles)) = (
            c.get("benchmark").and_then(Json::as_str),
            config_str(c, "variant"),
            c.get("cycles").and_then(Json::as_f64),
        ) {
            cyc.insert((b.to_string(), v.to_string()), cycles);
        }
    }
    let mut speedups = Vec::new();
    let benches: Vec<String> = {
        let mut b: Vec<String> = cyc.keys().map(|(b, _)| b.clone()).collect();
        b.dedup();
        b
    };
    for b in &benches {
        if let (Some(vis), Some(pf)) = (
            cyc.get(&(b.clone(), "vis".to_string())),
            cyc.get(&(b.clone(), "vis+pf".to_string())),
        ) {
            speedups.push(vis / pf);
        }
    }
    // Paper §4.2: prefetching buys 1.4-2.5X on the memory-bound set and
    // never loses. Tolerance: geomean in [1.2, 2.8] (measured 1.58
    // study / 1.96 tiny); per-benchmark floor just under parity for
    // the already-compute-bound members of the set.
    gate.claim(
        "fig3.prefetch.never-slower",
        !speedups.is_empty() && speedups.iter().all(|&s| s >= 0.95),
        &format!(
            "min prefetch speedup {:.2} >= 0.95 over {} benchmarks",
            speedups.iter().cloned().fold(f64::INFINITY, f64::min),
            speedups.len()
        ),
    );
    gate.band("fig3.prefetch.geomean", geomean(&speedups), 1.2, 2.8);
}

/// `pipetrace.json`: exact equality between the trace-derived and the
/// aggregate (Figure 1) stall attribution, per cell. Every unit member
/// must match as a `u64`, and the totals must account for every issue
/// slot of every cycle (`total_units == cycles * width`).
fn check_pipetrace(gate: &mut Gate, doc: &Json) {
    let (ok, failed) = cells(doc);
    gate.crashes("pipetrace", &failed);
    gate.claim(
        "pipetrace.coverage",
        ok.len() + failed.len() == 72,
        &format!(
            "{} cells ({} ok), expected 12 benchmarks x 6 configs = 72",
            ok.len() + failed.len(),
            ok.len()
        ),
    );
    const UNIT_MEMBERS: [&str; 7] = [
        "width",
        "cycles",
        "busy_units",
        "fu_stall_units",
        "l1_hit_units",
        "l1_miss_units",
        "total_units",
    ];
    let mut checked = 0usize;
    let mut bad: Vec<String> = Vec::new();
    for c in &ok {
        let bench = c.get("benchmark").and_then(Json::as_str).unwrap_or("?");
        let arch = config_str(c, "arch").unwrap_or("?");
        let vis = c
            .get("config")
            .and_then(|cfg| cfg.get("vis"))
            .map(|j| j == &Json::Bool(true))
            .unwrap_or(false);
        let label = format!("{bench}/{arch}{}", if vis { "+vis" } else { "" });
        let (Some(aggregate), Some(trace), Some(cycles)) = (
            c.get("aggregate"),
            c.get("trace"),
            c.get("cycles").and_then(Json::as_u64),
        ) else {
            bad.push(format!("{label} (members missing)"));
            continue;
        };
        checked += 1;
        let field = |obj: &Json, k: &str| obj.get(k).and_then(Json::as_u64);
        let mut mismatch = UNIT_MEMBERS
            .iter()
            .any(|k| field(trace, k).is_none() || field(trace, k) != field(aggregate, k));
        let width = field(trace, "width").unwrap_or(0);
        if field(trace, "cycles") != Some(cycles)
            || field(trace, "total_units") != Some(cycles * width)
        {
            mismatch = true;
        }
        if mismatch {
            bad.push(label);
        }
    }
    let detail = if bad.is_empty() {
        format!("exact (all unit members) for {checked}/{checked} cells")
    } else {
        format!(
            "{} of {} cells disagree: {}",
            bad.len(),
            checked + bad.len(),
            bad.join(", ")
        )
    };
    gate.claim(
        "pipetrace.trace-vs-aggregate",
        checked > 0 && bad.is_empty(),
        &detail,
    );
}

/// Conservative floor on the allowed relative CPI error of a sampled
/// cell, applied when the cell's own declared CI is tighter. SMARTS
/// confidence intervals come from per-window CPI variance; with the
/// handful of windows a tiny-size stream yields they can understate
/// the true error, so the gate never demands better than ±5%.
const DRIFT_FLOOR: f64 = 0.05;

/// `cell.sampling.*` counter values from a cell's metrics.
fn sampling_counter(cell: &Json, name: &str) -> Option<u64> {
    cell.get("metrics")?
        .get("counters")?
        .get(name)
        .and_then(Json::as_u64)
}

/// Identity of a cell for exact↔sampled pairing: benchmark name plus
/// the full configuration object (compact-serialized).
fn cell_key(cell: &Json) -> String {
    let bench = cell.get("benchmark").and_then(Json::as_str).unwrap_or("?");
    let config = cell.get("config").map(Json::to_compact).unwrap_or_default();
    format!("{bench} {config}")
}

/// Short human label for drift diagnostics: benchmark + the
/// distinguishing config members.
fn cell_label(cell: &Json) -> String {
    let bench = cell.get("benchmark").and_then(Json::as_str).unwrap_or("?");
    let arch = config_str(cell, "arch").unwrap_or("");
    let variant = config_str(cell, "variant").unwrap_or("");
    let vis = cell
        .get("config")
        .and_then(|c| c.get("vis"))
        .map(|j| j == &Json::Bool(true))
        .unwrap_or(false);
    let mut label = bench.to_string();
    if !arch.is_empty() {
        label.push_str(&format!("/{arch}"));
    }
    if !variant.is_empty() {
        label.push_str(&format!("/{variant}"));
    }
    if vis {
        label.push_str("+vis");
    }
    label
}

/// Compare one figure document between an exact and a sampled run:
/// sampled estimates within their declared CI (floored), fallback and
/// counted cells identical.
fn check_drift(gate: &mut Gate, name: &str, exact: &Json, sampled: &Json) {
    let (exact_ok, exact_failed) = cells(exact);
    let (sampled_ok, sampled_failed) = cells(sampled);
    gate.crashes(&format!("{name}(exact)"), &exact_failed);
    gate.crashes(&format!("{name}(sampled)"), &sampled_failed);
    let exact_by_key: BTreeMap<String, &Json> =
        exact_ok.iter().map(|c| (cell_key(c), *c)).collect();
    let mut estimated = 0usize;
    let mut exact_matched = 0usize;
    let mut worst = 0.0f64;
    let mut bad: Vec<String> = Vec::new();
    for s in &sampled_ok {
        let label = cell_label(s);
        let Some(e) = exact_by_key.get(&cell_key(s)) else {
            bad.push(format!("{label}: no exact twin"));
            continue;
        };
        let (exact_cycles, sampled_cycles) = (
            e.get("cycles").and_then(Json::as_u64),
            s.get("cycles").and_then(Json::as_u64),
        );
        let (Some(exact_cycles), Some(sampled_cycles)) = (exact_cycles, sampled_cycles) else {
            // Counted cell (no timing model): sampling must not have
            // touched it — the functional payload is identical.
            if e.get("cpu") == s.get("cpu") {
                exact_matched += 1;
            } else {
                bad.push(format!("{label}: counted payload differs under sampling"));
            }
            continue;
        };
        match sampling_counter(s, "cell.sampling.mode") {
            Some(1) => {
                estimated += 1;
                let ci =
                    sampling_counter(s, "cell.sampling.ci_centipct").unwrap_or(0) as f64 / 10_000.0;
                let allowed = ci.max(DRIFT_FLOOR);
                let err = (sampled_cycles as f64 - exact_cycles as f64).abs()
                    / exact_cycles.max(1) as f64;
                worst = worst.max(err);
                if err > allowed {
                    bad.push(format!(
                        "{label}: CPI error {:.2}% > allowed {:.2}% (ci ±{:.2}%)",
                        100.0 * err,
                        100.0 * allowed,
                        100.0 * ci
                    ));
                }
            }
            Some(2) => {
                // Exact fallback: same pipeline, same stream — the
                // cycle count must be bit-identical.
                if exact_cycles == sampled_cycles {
                    exact_matched += 1;
                } else {
                    bad.push(format!(
                        "{label}: exact-fallback cell differs ({sampled_cycles} vs {exact_cycles})"
                    ));
                }
            }
            _ => bad.push(format!("{label}: timed cell missing cell.sampling.mode")),
        }
    }
    let detail = if bad.is_empty() {
        format!(
            "{estimated} estimates within CI (worst {:.2}%), {exact_matched} exact-equal cells",
            100.0 * worst
        )
    } else {
        format!(
            "{} of {} cells out: {}",
            bad.len(),
            sampled_ok.len(),
            bad.join("; ")
        )
    };
    gate.claim(
        &format!("{name}.sampled-within-ci"),
        !sampled_ok.is_empty() && bad.is_empty(),
        &detail,
    );
}

/// `--drift` entry point: per-cell exact-vs-sampled comparison for
/// Figures 1–3, then the standard paper-fidelity bands over the
/// sampled artifacts.
fn run_drift(exact_dir: &str, sampled_dir: &str) -> ExitCode {
    let mut gate = Gate::new();
    println!("sampled-vs-exact drift validation: exact={exact_dir}/ sampled={sampled_dir}/");
    let docs: Vec<(&str, Check)> = vec![
        ("fig1", check_fig1),
        ("fig2", check_fig2),
        ("fig3", check_fig3),
    ];
    for (name, fidelity) in docs {
        match (load(exact_dir, name), load(sampled_dir, name)) {
            (Ok(exact), Ok(sampled)) => {
                println!("{name}.json:");
                check_drift(&mut gate, name, &exact, &sampled);
                // The sampled artifact must also satisfy the paper's
                // bands in its own right.
                fidelity(&mut gate, &sampled);
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("validate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if gate.failures == 0 {
        println!("drift: OK ({} checks)", gate.checks);
        ExitCode::SUCCESS
    } else {
        println!("drift: {} of {} checks FAILED", gate.failures, gate.checks);
        ExitCode::FAILURE
    }
}

type Check = fn(&mut Gate, &Json);

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("--help") | Some("-h") => {
            println!(
                "validate: paper-fidelity gate over the visim-results-v2 JSON artifacts\n\
                 \n\
                 Usage: validate [results-dir] [--help]\n\
                 \x20      validate --drift <exact-dir> <sampled-dir>\n\
                 \n\
                 Loads fig1.json, fig2.json, fig3.json, and pipetrace.json from the\n\
                 given directory (default results/json) and checks the paper's headline\n\
                 claims as tolerance bands, plus the exact trace-vs-aggregate stall\n\
                 attribution invariant. Exit: 0 ok, 1 drift/crash, 2 missing artifacts.\n\
                 \n\
                 --drift compares an exact run's Figures 1-3 against a --sample run of\n\
                 the same workload size: every sampled estimate must land within its\n\
                 own declared 95% CI (floored at +/-5% relative CPI error), fallback\n\
                 and counted cells must match exactly, and the sampled artifacts must\n\
                 still pass the paper-fidelity bands."
            );
            return ExitCode::SUCCESS;
        }
        Some("--drift") => {
            let (exact_dir, sampled_dir) = match (std::env::args().nth(2), std::env::args().nth(3))
            {
                (Some(e), Some(s)) => (e, s),
                _ => {
                    eprintln!("validate: --drift needs <exact-dir> <sampled-dir>");
                    return ExitCode::from(2);
                }
            };
            return run_drift(&exact_dir, &sampled_dir);
        }
        _ => {}
    }
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/json".to_string());
    let mut gate = Gate::new();
    println!("paper-fidelity validation over {dir}/");
    let docs: Vec<(&str, Check)> = vec![
        ("fig1", check_fig1),
        ("fig2", check_fig2),
        ("fig3", check_fig3),
        ("pipetrace", check_pipetrace),
    ];
    for (name, check) in docs {
        match load(&dir, name) {
            Ok(doc) => {
                let size = doc.get("size").and_then(Json::as_str).unwrap_or("?");
                println!("{name}.json (size={size}):");
                check(&mut gate, &doc);
            }
            Err(e) => {
                eprintln!("validate: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if gate.failures == 0 {
        println!("fidelity: OK ({} checks)", gate.checks);
        ExitCode::SUCCESS
    } else {
        println!(
            "fidelity: {} of {} checks FAILED",
            gate.failures, gate.checks
        );
        ExitCode::FAILURE
    }
}
