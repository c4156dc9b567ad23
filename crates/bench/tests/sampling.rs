//! Sampled-simulation determinism and store-isolation acceptance tests.
//!
//! A sampled run must be byte-identical across worker counts and
//! repeats (windows fan out over the pool, but scheduling never
//! influences the estimate), must compose with `--resume` (sampled
//! cells live under sampling-aware store keys), and must never leak
//! estimates into exact runs through the store — in either direction.

use std::path::{Path, PathBuf};
use std::process::Output;

use visim_obs::Json;
use visim_util::hermetic_command;

/// Small enough that every tiny-size stream yields several windows.
const GEOMETRY: &str = "200:1000";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-sampling-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_fig1(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = hermetic_command(env!("CARGO_BIN_EXE_fig1"));
    cmd.arg("tiny")
        .args(args)
        .current_dir(dir)
        .env("VISIM_JOBS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("fig1 runs")
}

fn doc(dir: &Path) -> Json {
    let text = std::fs::read_to_string(dir.join("results/json/fig1.json")).unwrap();
    Json::parse(&text).unwrap()
}

fn doc_counter(dir: &Path, name: &str) -> u64 {
    doc(dir)
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("doc metrics counter {name} present"))
}

/// Per-cell `cell.sampling.mode` values across the document (absent
/// counters count as 0 = exact).
fn sampling_modes(dir: &Path) -> Vec<u64> {
    let d = doc(dir);
    let cells = d.get("cells").and_then(Json::elements).expect("cells");
    cells
        .iter()
        .map(|cell| {
            cell.get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("cell.sampling.mode"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        })
        .collect()
}

/// Drop run-varying members (wall clock, jobs, run metrics) and each
/// cell's wall-clock-bearing `cell.emit_micros`/`cell.simulate_micros`
/// counters — but KEEP the `cell.sampling.*` counters: they are part of
/// the simulation output and must themselves be deterministic.
fn scrubbed(dir: &Path) -> Json {
    let Json::Obj(members) = doc(dir) else {
        panic!("results doc is an object")
    };
    Json::Obj(
        members
            .into_iter()
            .filter(|(k, _)| k != "wall_seconds" && k != "metrics" && k != "jobs")
            .map(|(k, v)| {
                if k != "cells" {
                    return (k, v);
                }
                let Json::Arr(cells) = v else {
                    panic!("cells is an array")
                };
                (k, Json::Arr(cells.into_iter().map(scrub_cell).collect()))
            })
            .collect(),
    )
}

fn scrub_cell(cell: Json) -> Json {
    let Json::Obj(members) = cell else {
        return cell;
    };
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| {
                if k != "metrics" {
                    return (k, v);
                }
                let Json::Obj(metrics) = v else {
                    return (k, v);
                };
                (
                    k,
                    Json::Obj(
                        metrics
                            .into_iter()
                            .map(|(mk, mv)| {
                                if mk != "counters" {
                                    return (mk, mv);
                                }
                                let Json::Obj(counters) = mv else {
                                    return (mk, mv);
                                };
                                (
                                    mk,
                                    Json::Obj(
                                        counters
                                            .into_iter()
                                            .filter(|(name, _)| {
                                                name.starts_with("cell.sampling.")
                                                    || !name.starts_with("cell.")
                                            })
                                            .collect(),
                                    ),
                                )
                            })
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

/// Sampled output — including every `cell.sampling.*` counter — is
/// byte-identical across worker counts (window fan-out included) and
/// across repeated runs, and the env knob agrees with the CLI flag.
#[test]
fn sampled_runs_are_deterministic_across_jobs_and_repeats() {
    let serial = scratch_dir("jobs1");
    let par = scratch_dir("jobs8");
    let rep = scratch_dir("jobs8-rep");
    let env = scratch_dir("env");
    let out_serial = run_fig1(&serial, &["--sample", GEOMETRY, "--no-store"], &[]);
    let out_par = run_fig1(
        &par,
        &["--sample", GEOMETRY, "--no-store"],
        &[("VISIM_JOBS", "8")],
    );
    let out_rep = run_fig1(
        &rep,
        &["--sample", GEOMETRY, "--no-store"],
        &[("VISIM_JOBS", "8")],
    );
    let out_env = run_fig1(
        &env,
        &["--no-store"],
        &[("VISIM_SAMPLE", GEOMETRY), ("VISIM_JOBS", "8")],
    );
    for (label, out) in [
        ("serial", &out_serial),
        ("jobs8", &out_par),
        ("repeat", &out_rep),
        ("env", &out_env),
    ] {
        assert!(
            out.status.success(),
            "{label} sampled run fails: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(out_serial.stdout, out_par.stdout, "jobs 1 vs 8 diverge");
    assert_eq!(out_par.stdout, out_rep.stdout, "repeat diverges");
    assert_eq!(out_par.stdout, out_env.stdout, "env vs flag diverge");
    let reference = scrubbed(&serial);
    assert_eq!(reference, scrubbed(&par), "jobs 1 vs 8 JSON diverges");
    assert_eq!(reference, scrubbed(&rep), "repeat JSON diverges");
    assert_eq!(reference, scrubbed(&env), "env vs flag JSON diverges");

    // The run actually sampled: every cell declares a mode, and the
    // majority were estimated from windows rather than falling back.
    let modes = sampling_modes(&serial);
    assert_eq!(modes.len(), 72, "all 72 cells present");
    assert!(modes.iter().all(|&m| m == 1 || m == 2), "{modes:?}");
    let sampled = modes.iter().filter(|&&m| m == 1).count();
    assert!(sampled > 36, "only {sampled}/72 cells were sampled");
}

/// Sampled cells persist under sampling-aware keys and a sampled
/// `--resume` serves every one of them back byte-identically.
#[test]
fn sampled_resume_is_byte_identical() {
    let dir = scratch_dir("resume");
    let first = run_fig1(&dir, &["--sample", GEOMETRY], &[("VISIM_JOBS", "8")]);
    assert!(first.status.success());
    let resumed = run_fig1(
        &dir,
        &["--sample", GEOMETRY, "--resume"],
        &[("VISIM_JOBS", "8")],
    );
    assert!(resumed.status.success());
    assert_eq!(first.stdout, resumed.stdout, "sampled resume diverges");
    assert_eq!(
        doc_counter(&dir, "store.hit"),
        72,
        "all sampled cells served from the store"
    );
}

/// Store isolation between modes: an exact `--resume` over a store
/// populated by a sampled run must not be served a single estimate
/// (and vice versa), because the sampling geometry is folded into
/// every timed cell's content address.
#[test]
fn sampled_and_exact_cells_never_cross_serve() {
    let exact_ref = scratch_dir("exact-ref");
    let ref_out = run_fig1(&exact_ref, &["--no-store"], &[]);
    assert!(ref_out.status.success());

    // Populate a store with sampled cells, then resume WITHOUT
    // sampling: every exact cell must recompute (zero hits) and match
    // the exact reference bit for bit.
    let dir = scratch_dir("cross");
    let sampled = run_fig1(&dir, &["--sample", GEOMETRY], &[]);
    assert!(sampled.status.success());
    let exact = run_fig1(&dir, &["--resume"], &[]);
    assert!(exact.status.success());
    assert_eq!(
        doc_counter(&dir, "store.hit"),
        0,
        "exact resume was served sampled entries"
    );
    assert_eq!(
        exact.stdout, ref_out.stdout,
        "exact run over a sampled store diverges from the exact reference"
    );

    // And back: a sampled resume over the now-mixed store serves only
    // the sampled entries, reproducing the original sampled output.
    let resampled = run_fig1(&dir, &["--sample", GEOMETRY, "--resume"], &[]);
    assert!(resampled.status.success());
    assert_eq!(
        doc_counter(&dir, "store.hit"),
        72,
        "sampled resume should hit its own 72 entries"
    );
    assert_eq!(resampled.stdout, sampled.stdout, "sampled resume diverges");

    // A different geometry is a different address: no hits.
    let other = run_fig1(&dir, &["--sample", "400:2000", "--resume"], &[]);
    assert!(other.status.success());
    assert_eq!(
        doc_counter(&dir, "store.hit"),
        0,
        "a different sampling geometry must not share entries"
    );
}
