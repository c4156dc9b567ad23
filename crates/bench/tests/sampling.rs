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

mod common;

/// Small enough that every tiny-size stream yields several windows.
const GEOMETRY: &str = "200:1000";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-sampling-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_fig1(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    run_bin(env!("CARGO_BIN_EXE_fig1"), dir, args, envs)
}

fn run_bin(bin: &str, dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = hermetic_command(bin);
    cmd.arg("tiny")
        .args(args)
        .current_dir(dir)
        .env("VISIM_JOBS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("figure binary runs")
}

fn doc(dir: &Path) -> Json {
    doc_of(dir, "fig1")
}

fn doc_of(dir: &Path, name: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(format!("results/json/{name}.json"))).unwrap();
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

/// A cell's `cell.sampling.mode` (an absent counter counts as 0 =
/// exact).
fn sampling_mode(cell: &Json) -> u64 {
    cell.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("cell.sampling.mode"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Per-cell `cell.sampling.mode` values across the document.
fn sampling_modes(dir: &Path) -> Vec<u64> {
    let d = doc(dir);
    let cells = d.get("cells").and_then(Json::elements).expect("cells");
    cells.iter().map(sampling_mode).collect()
}

/// The document scrubbed of run-varying members
/// ([`common::scrub_doc`]) — but KEEPING the `cell.sampling.*`
/// counters: they are part of the simulation output and must
/// themselves be deterministic.
fn scrubbed(dir: &Path) -> Json {
    common::scrub_doc(doc(dir), &|name| name.starts_with("cell.sampling."))
}

/// Sampled output — including every `cell.sampling.*` counter — is
/// byte-identical across worker counts (window fan-out included) and
/// across repeated runs.
#[test]
fn sampled_runs_are_deterministic_across_jobs_and_repeats() {
    let serial = scratch_dir("jobs1");
    let par = scratch_dir("jobs8");
    let rep = scratch_dir("jobs8-rep");
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
    for (label, out) in [
        ("serial", &out_serial),
        ("jobs8", &out_par),
        ("repeat", &out_rep),
    ] {
        assert!(
            out.status.success(),
            "{label} sampled run fails: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(out_serial.stdout, out_par.stdout, "jobs 1 vs 8 diverge");
    assert_eq!(out_par.stdout, out_rep.stdout, "repeat diverges");
    let reference = scrubbed(&serial);
    assert_eq!(reference, scrubbed(&par), "jobs 1 vs 8 JSON diverges");
    assert_eq!(reference, scrubbed(&rep), "repeat JSON diverges");

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

/// The appendix kernels sample like every other figure: each timed
/// kernel cell declares a sampling mode, and the counted cells (whose
/// counts sampling never estimates) equal the exact run's.
#[test]
fn kernels14_timed_cells_sample_and_counted_cells_stay_exact() {
    let kernels14 = env!("CARGO_BIN_EXE_kernels14");
    let exact_dir = scratch_dir("k14-exact");
    let sampled_dir = scratch_dir("k14-sampled");
    for (dir, args) in [
        (&exact_dir, &["--no-store"][..]),
        (&sampled_dir, &["--sample", "2000:10000", "--no-store"][..]),
    ] {
        let out = run_bin(kernels14, dir, args, &[]);
        assert!(
            out.status.success(),
            "kernels14 {args:?} fails: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let cells = |dir: &Path| {
        let d = doc_of(dir, "kernels14");
        d.get("cells")
            .and_then(Json::elements)
            .expect("cells")
            .to_vec()
    };
    let (exact, sampled) = (cells(&exact_dir), cells(&sampled_dir));
    assert_eq!(exact.len(), 56, "four cells per kernel");
    assert_eq!(sampled.len(), exact.len());
    let mut timed = 0;
    for (e, s) in exact.iter().zip(&sampled) {
        let is_timed = s.get("config").and_then(|c| c.get("timed")) == Some(&Json::Bool(true));
        if is_timed {
            timed += 1;
            let mode = sampling_mode(s);
            assert!(
                mode == 1 || mode == 2,
                "timed kernel cell has mode {mode}: {s:?}"
            );
        } else {
            assert_eq!(e, s, "a counted kernel cell differs under --sample");
        }
    }
    assert_eq!(timed, 28, "two timed cells per kernel");
}
