//! Manifest-engine determinism: every figure binary is now a thin
//! invocation of `visim::experiment::run_manifest` over its embedded
//! manifest, so (a) each binary must render byte-identically whether
//! one worker or eight executed the grid, and (b) `--manifest F`
//! pointing at a copy of the embedded manifest must reproduce the
//! embedded run exactly.
//!
//! (`fig1` has the same worker-count check, plus fault-injection
//! coverage, in `tests/parallel.rs`.)

use std::path::{Path, PathBuf};
use std::process::Output;

use visim::manifest::Manifest;
use visim_util::hermetic_command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-manifest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_bin(exe: &str, dir: &Path, jobs: &str, extra: &[&str]) -> Output {
    hermetic_command(exe)
        .arg("tiny")
        .args(extra)
        .env("VISIM_JOBS", jobs)
        .current_dir(dir)
        .output()
        .expect("figure binary runs")
}

fn check_jobs_equality(name: &str, exe: &str) {
    let dir = scratch_dir(name);
    let serial = run_bin(exe, &dir, "1", &[]);
    let parallel = run_bin(exe, &dir, "8", &[]);
    assert!(
        serial.status.success(),
        "{name} serial run: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert!(
        parallel.status.success(),
        "{name} parallel run: {}",
        String::from_utf8_lossy(&parallel.stderr)
    );
    assert_eq!(
        serial.stdout, parallel.stdout,
        "{name}: VISIM_JOBS=1 and VISIM_JOBS=8 must render identically"
    );
    assert!(!serial.stdout.is_empty(), "{name} rendered something");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig2_is_byte_identical_across_worker_counts() {
    check_jobs_equality("fig2", env!("CARGO_BIN_EXE_fig2"));
}

#[test]
fn fig3_is_byte_identical_across_worker_counts() {
    check_jobs_equality("fig3", env!("CARGO_BIN_EXE_fig3"));
}

#[test]
fn sweep_l1_is_byte_identical_across_worker_counts() {
    check_jobs_equality("sweep_l1", env!("CARGO_BIN_EXE_sweep_l1"));
}

#[test]
fn sweep_l2_is_byte_identical_across_worker_counts() {
    check_jobs_equality("sweep_l2", env!("CARGO_BIN_EXE_sweep_l2"));
}

#[test]
fn tables_is_byte_identical_across_worker_counts() {
    check_jobs_equality("tables", env!("CARGO_BIN_EXE_tables"));
}

#[test]
fn ablation_is_byte_identical_across_worker_counts() {
    check_jobs_equality("ablation", env!("CARGO_BIN_EXE_ablation"));
}

#[test]
fn kernels14_is_byte_identical_across_worker_counts() {
    check_jobs_equality("kernels14", env!("CARGO_BIN_EXE_kernels14"));
}

#[test]
fn manifest_flag_override_reproduces_the_embedded_run() {
    let dir = scratch_dir("override");
    // A byte-for-byte copy of the embedded manifest, loaded through the
    // --manifest file path, must change nothing about the output.
    let copy = dir.join("fig2-copy.json");
    std::fs::write(
        &copy,
        Manifest::builtin_text("fig2").expect("embedded fig2 manifest"),
    )
    .unwrap();
    let embedded = run_bin(env!("CARGO_BIN_EXE_fig2"), &dir, "2", &[]);
    let overridden = run_bin(
        env!("CARGO_BIN_EXE_fig2"),
        &dir,
        "2",
        &["--manifest", copy.to_str().unwrap()],
    );
    assert!(embedded.status.success() && overridden.status.success());
    assert_eq!(
        embedded.stdout, overridden.stdout,
        "--manifest with a copy of the embedded manifest is a no-op"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_flag_rejects_missing_and_malformed_files() {
    let dir = scratch_dir("badfile");
    let missing = run_bin(
        env!("CARGO_BIN_EXE_fig2"),
        &dir,
        "1",
        &["--manifest", "no-such-file.json"],
    );
    assert_eq!(missing.status.code(), Some(2), "missing manifest exits 2");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\":\"wrong\"}").unwrap();
    let malformed = run_bin(
        env!("CARGO_BIN_EXE_fig2"),
        &dir,
        "1",
        &["--manifest", bad.to_str().unwrap()],
    );
    assert_eq!(malformed.status.code(), Some(2), "bad manifest exits 2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_custom_manifest_file_reshapes_the_grid() {
    let dir = scratch_dir("custom");
    // A two-benchmark fig2 subset: the engine must honor the file's
    // grid, not the embedded one.
    let custom = dir.join("fig2-small.json");
    std::fs::write(
        &custom,
        r#"{
  "schema": "visim-manifest-v1",
  "name": "fig2-small",
  "about": "two-benchmark fig2 subset",
  "title": "Figure 2 subset",
  "grid": {
    "kind": "fig2",
    "benchmarks": ["addition", "conv"],
    "mispredict_highlights": ["conv"]
  }
}"#,
    )
    .unwrap();
    let out = run_bin(
        env!("CARGO_BIN_EXE_fig2"),
        &dir,
        "2",
        &["--manifest", custom.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("addition") && stdout.contains("conv"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("mpeg-enc"),
        "subset grid excludes the other benchmarks: {stdout}"
    );
    // The JSON artifact is named after the manifest, not the binary.
    assert!(
        dir.join("results/json/fig2-small.json").exists(),
        "artifact follows the manifest name"
    );
    std::fs::remove_dir_all(&dir).ok();
}
