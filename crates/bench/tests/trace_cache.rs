//! Trace-cache equivalence: the record-once/replay-many engine must be
//! invisible in the results. Text output is byte-identical with the
//! cache on or off, at any worker count, and whether a stream was
//! replayed or freshly recorded; the JSON artifacts agree after
//! scrubbing the run-varying wall-clock members.

use std::path::{Path, PathBuf};
use std::process::Output;

use visim_obs::Json;
use visim_util::hermetic_command;

mod common;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-tcache-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one figure binary at tiny size in `dir` with a hermetic
/// environment plus the given overrides.
fn run_bin(exe: &str, dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = hermetic_command(exe);
    cmd.arg("tiny")
        .args(args)
        .current_dir(dir)
        .env("VISIM_JOBS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("figure binary runs")
}

/// `results/json/<bin>.json` from `dir`, scrubbed of every
/// run-varying member ([`common::scrub_doc`]).
fn scrubbed_json(dir: &Path, bin: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(format!("results/json/{bin}.json"))).unwrap();
    common::scrub_doc(Json::parse(&text).unwrap(), &|_| false)
}

#[test]
fn fig1_is_identical_with_cache_on_and_flag_off() {
    let on = scratch_dir("fig1-on");
    let flag_off = scratch_dir("fig1-flagoff");
    let exe = env!("CARGO_BIN_EXE_fig1");
    let a = run_bin(exe, &on, &[], &[]);
    let c = run_bin(exe, &flag_off, &["--no-trace-cache"], &[]);
    assert!(a.status.success() && c.status.success());
    assert_eq!(a.stdout, c.stdout, "replay differs from direct emission");
    assert_eq!(
        scrubbed_json(&on, "fig1"),
        scrubbed_json(&flag_off, "fig1"),
        "JSON artifacts differ (beyond run-varying members) cache on/off"
    );
    for dir in [on, flag_off] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sweep_l1_is_identical_across_cache_modes_and_worker_counts() {
    let on1 = scratch_dir("l1-on1");
    let on8 = scratch_dir("l1-on8");
    let off1 = scratch_dir("l1-off1");
    let exe = env!("CARGO_BIN_EXE_sweep_l1");
    let a = run_bin(exe, &on1, &[], &[]);
    let b = run_bin(exe, &on8, &[], &[("VISIM_JOBS", "8")]);
    let c = run_bin(exe, &off1, &["--no-trace-cache"], &[]);
    assert!(a.status.success() && b.status.success() && c.status.success());
    assert_eq!(a.stdout, b.stdout, "cache + 8 workers differs from serial");
    assert_eq!(a.stdout, c.stdout, "replay differs from direct emission");
    assert_eq!(
        scrubbed_json(&on1, "sweep_l1"),
        scrubbed_json(&off1, "sweep_l1")
    );
    assert_eq!(
        scrubbed_json(&on1, "sweep_l1"),
        scrubbed_json(&on8, "sweep_l1")
    );
    for dir in [on1, on8, off1] {
        std::fs::remove_dir_all(&dir).ok();
    }
}
