//! Trace-cache equivalence: the record-once/replay-many engine must be
//! invisible in the results. Text output is byte-identical with the
//! cache on or off, at any worker count, and whether a stream was
//! replayed or freshly recorded; the JSON artifacts agree after
//! scrubbing the run-varying wall-clock members.

use std::path::{Path, PathBuf};
use std::process::Output;

use visim_obs::Json;
use visim_util::hermetic_command;

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

/// Load `results/json/<bin>.json` from `dir` and drop every
/// run-varying member: the document's `wall_seconds`, `jobs`, and
/// run-level `metrics` (pool timings, trace-cache counters), and each
/// cell's `cell.*` counters (emit/simulate wall clock, replay/hit
/// flags). Everything that remains is simulation output and must be
/// identical however the stream was obtained.
fn scrubbed_json(dir: &Path, bin: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(format!("results/json/{bin}.json"))).unwrap();
    scrub_doc(Json::parse(&text).unwrap())
}

fn scrub_doc(doc: Json) -> Json {
    let Json::Obj(members) = doc else {
        panic!("results doc is an object")
    };
    Json::Obj(
        members
            .into_iter()
            .filter(|(k, _)| k != "wall_seconds" && k != "metrics" && k != "jobs")
            .map(|(k, v)| {
                if k == "cells" {
                    let Json::Arr(cells) = v else {
                        panic!("cells is an array")
                    };
                    (k, Json::Arr(cells.into_iter().map(scrub_cell).collect()))
                } else {
                    (k, v)
                }
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
                if k == "metrics" {
                    (k, scrub_cell_metrics(v))
                } else {
                    (k, v)
                }
            })
            .collect(),
    )
}

fn scrub_cell_metrics(metrics: Json) -> Json {
    let Json::Obj(members) = metrics else {
        return metrics;
    };
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| {
                if k == "counters" {
                    let Json::Obj(counters) = v else {
                        return (k, v);
                    };
                    (
                        k,
                        Json::Obj(
                            counters
                                .into_iter()
                                .filter(|(name, _)| !name.starts_with("cell."))
                                .collect(),
                        ),
                    )
                } else {
                    (k, v)
                }
            })
            .collect(),
    )
}

#[test]
fn fig1_is_identical_with_cache_on_env_off_and_flag_off() {
    let on = scratch_dir("fig1-on");
    let env_off = scratch_dir("fig1-envoff");
    let flag_off = scratch_dir("fig1-flagoff");
    let exe = env!("CARGO_BIN_EXE_fig1");
    let a = run_bin(exe, &on, &[], &[]);
    let b = run_bin(exe, &env_off, &[], &[("VISIM_NO_TRACE_CACHE", "1")]);
    let c = run_bin(exe, &flag_off, &["--no-trace-cache"], &[]);
    assert!(a.status.success() && b.status.success() && c.status.success());
    assert_eq!(a.stdout, b.stdout, "replay differs from direct emission");
    assert_eq!(a.stdout, c.stdout, "--no-trace-cache differs from env");
    assert_eq!(
        scrubbed_json(&on, "fig1"),
        scrubbed_json(&env_off, "fig1"),
        "JSON artifacts differ (beyond run-varying members) cache on/off"
    );
    assert_eq!(
        scrubbed_json(&env_off, "fig1"),
        scrubbed_json(&flag_off, "fig1")
    );
    for dir in [on, env_off, flag_off] {
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
    let c = run_bin(exe, &off1, &[], &[("VISIM_NO_TRACE_CACHE", "1")]);
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
