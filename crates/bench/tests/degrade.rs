//! End-to-end acceptance tests for graceful degradation: a deliberately
//! failing benchmark (`VISIM_FAULT=cell.panic:<bench>`) must not take
//! down a figure binary — the other benchmarks still produce their
//! rows, the failure becomes an error row, the partial output lands
//! under `results/partial/`, and the process exits nonzero. `fig1`
//! covers the timed path, `fig2` the counted path.

use std::path::PathBuf;
use std::process::Output;

use visim_util::hermetic_command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-degrade-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_tiny(exe: &str, dir: &PathBuf, fault: Option<&str>) -> Output {
    let mut cmd = hermetic_command(exe);
    cmd.arg("tiny").current_dir(dir);
    if let Some(plan) = fault {
        cmd.env("VISIM_FAULT", plan);
    }
    cmd.output().expect("figure binary runs")
}

#[test]
fn fig1_survives_an_injected_benchmark_failure() {
    let dir = scratch_dir("fig1");
    let out = run_tiny(env!("CARGO_BIN_EXE_fig1"), &dir, Some("cell.panic:blend"));

    assert!(!out.status.success(), "a failed benchmark exits nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // The injected benchmark became an error row...
    assert!(
        stdout.contains("blend: ERROR:") && stdout.contains("cell.panic"),
        "error row present:\n{stdout}"
    );
    // ...while the other eleven still produced all six bars.
    for bench in [
        "addition", "conv", "dotprod", "scaling", "thresh", "cjpeg", "djpeg", "cjpeg-np",
        "djpeg-np", "mpeg-enc", "mpeg-dec",
    ] {
        let section = format!("=== {bench} ===");
        let idx = stdout
            .find(&section)
            .unwrap_or_else(|| panic!("{section} missing"));
        assert!(
            stdout[idx..].contains("VIS 4-way ooo"),
            "{bench} produced bars"
        );
    }

    // Partial results preserved for the healthy benchmarks.
    let partial = dir.join("results/partial/fig1.txt");
    assert!(stderr.contains("partial results"), "{stderr}");
    let contents = std::fs::read_to_string(&partial).expect("partial file written");
    assert!(contents.contains("blend: ERROR:"));
    assert!(contents.contains("=== mpeg-dec ==="));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig2_survives_an_injected_benchmark_failure() {
    let dir = scratch_dir("fig2");
    let out = run_tiny(env!("CARGO_BIN_EXE_fig2"), &dir, Some("cell.panic:blend"));

    assert!(!out.status.success(), "a failed benchmark exits nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("blend: ERROR:") && stdout.contains("cell.panic"),
        "error row present:\n{stdout}"
    );
    // Every other benchmark keeps its instruction-mix row.
    let table = &stdout[..stdout.find("blend: ERROR:").unwrap()];
    for bench in [
        "addition", "conv", "dotprod", "scaling", "thresh", "cjpeg", "djpeg", "cjpeg-np",
        "djpeg-np", "mpeg-enc", "mpeg-dec",
    ] {
        assert!(
            table.lines().any(|l| l.starts_with(bench)),
            "{bench} row missing:\n{stdout}"
        );
    }
    assert!(
        !table.lines().any(|l| l.starts_with("blend")),
        "the failed benchmark has no row:\n{stdout}"
    );
    let partial = std::fs::read_to_string(dir.join("results/partial/fig2.txt"))
        .expect("partial file written");
    assert!(partial.contains("blend: ERROR:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig1_exits_zero_when_everything_succeeds() {
    let dir = scratch_dir("ok");
    let out = run_tiny(env!("CARGO_BIN_EXE_fig1"), &dir, None);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("ERROR:"));
    assert!(stdout.contains("=== mpeg-dec ==="));

    std::fs::remove_dir_all(&dir).ok();
}
