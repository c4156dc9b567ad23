//! Parallel-vs-serial determinism: the experiment executor must produce
//! byte-identical figure output whether one worker or eight ran the
//! simulations — including on the graceful-degradation path, where a
//! fault-injected benchmark becomes an error row and the partial
//! artifacts land under `results/partial/`.

use std::path::{Path, PathBuf};
use std::process::Output;

use visim_util::hermetic_command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-parallel-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_fig1(dir: &Path, jobs: &str, fail_bench: Option<&str>) -> Output {
    let mut cmd = hermetic_command(env!("CARGO_BIN_EXE_fig1"));
    cmd.arg("tiny").env("VISIM_JOBS", jobs).current_dir(dir);
    if let Some(bench) = fail_bench {
        cmd.env("VISIM_FAULT", format!("cell.panic:{bench}"));
    }
    cmd.output().expect("fig1 runs")
}

#[test]
fn fig1_output_is_byte_identical_across_worker_counts() {
    let dir = scratch_dir("ok");
    let serial = run_fig1(&dir, "1", None);
    let parallel = run_fig1(&dir, "8", None);
    assert!(serial.status.success(), "serial run succeeds");
    assert!(parallel.status.success(), "parallel run succeeds");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "VISIM_JOBS=1 and VISIM_JOBS=8 must render the same figure"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig1_fault_injection_is_deterministic_across_worker_counts() {
    let serial_dir = scratch_dir("fault-serial");
    let parallel_dir = scratch_dir("fault-parallel");
    let serial = run_fig1(&serial_dir, "1", Some("blend"));
    let parallel = run_fig1(&parallel_dir, "8", Some("blend"));

    assert!(!serial.status.success(), "injected fault exits nonzero");
    assert!(!parallel.status.success(), "injected fault exits nonzero");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "degraded output must also be byte-identical across worker counts"
    );
    let stdout = String::from_utf8_lossy(&parallel.stdout);
    assert!(stdout.contains("blend: ERROR:"), "error row:\n{stdout}");

    // Both runs preserve the shared partial stream and the
    // uniquely-named per-benchmark failure artifact.
    for dir in [&serial_dir, &parallel_dir] {
        let stream = dir.join("results/partial/fig1.txt");
        let per_bench = dir.join("results/partial/fig1.blend.txt");
        let stream = std::fs::read_to_string(&stream).expect("partial stream written");
        assert!(stream.contains("blend: ERROR:"));
        let artifact = std::fs::read_to_string(&per_bench).expect("per-benchmark artifact written");
        assert!(artifact.contains("cell.panic"), "{artifact}");
    }
    let serial_stream =
        std::fs::read_to_string(serial_dir.join("results/partial/fig1.txt")).unwrap();
    let parallel_stream =
        std::fs::read_to_string(parallel_dir.join("results/partial/fig1.txt")).unwrap();
    assert_eq!(serial_stream, parallel_stream, "partial files identical");

    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&parallel_dir).ok();
}
