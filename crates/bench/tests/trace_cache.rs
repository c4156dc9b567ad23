//! Trace-cache equivalence: the record-once/replay-many engine must be
//! invisible in the results. Text output is byte-identical with the
//! cache on or off, at any worker count, and whether a stream came from
//! memory, disk, or a fresh recording; the JSON artifacts agree after
//! scrubbing the run-varying wall-clock members. Corrupted on-disk
//! traces are purged and re-recorded, never trusted and never fatal.

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

#[test]
fn disk_spill_warms_a_second_process_and_purges_corruption() {
    let dir = scratch_dir("disk");
    let tc = dir.join("trace-cache");
    let tc_str = tc.to_str().unwrap().to_string();
    let exe = env!("CARGO_BIN_EXE_fig1");
    // Force every stream to disk: tiny streams re-emit faster than the
    // spill policy's threshold and would otherwise (rightly) not spill.
    let spill_env = ("VISIM_SPILL_EMIT_MBPS", "1000000");

    let cold = run_bin(
        exe,
        &dir,
        &[],
        &[("VISIM_TRACE_DIR", tc_str.as_str()), spill_env],
    );
    assert!(cold.status.success());
    let vtrc_count = std::fs::read_dir(&tc)
        .expect("spill directory created")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .and_then(|x| x.to_str())
                == Some("vtrc")
        })
        .count();
    // Figure 1 uses 12 benchmarks × {scalar, VIS} = 24 distinct streams.
    assert_eq!(vtrc_count, 24, "one spill file per distinct stream");

    let warm = run_bin(
        exe,
        &dir,
        &[],
        &[("VISIM_TRACE_DIR", tc_str.as_str()), spill_env],
    );
    assert!(warm.status.success());
    assert_eq!(cold.stdout, warm.stdout, "disk-warmed run differs");

    // Corrupt one spill file: the run must still succeed with identical
    // output, purging and re-recording the bad entry.
    let victim = std::fs::read_dir(&tc)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|x| x.to_str()) == Some("vtrc"))
        .expect("at least one spill file");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    let healed = run_bin(
        exe,
        &dir,
        &[],
        &[("VISIM_TRACE_DIR", tc_str.as_str()), spill_env],
    );
    assert!(
        healed.status.success(),
        "corrupt spill file must not be fatal"
    );
    assert_eq!(
        cold.stdout, healed.stdout,
        "output differs after corruption"
    );
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert!(stderr.contains("purged"), "purge not reported: {stderr}");
    let rewritten = std::fs::read(&victim).expect("purged entry re-recorded");
    assert_ne!(rewritten, bytes, "corrupt bytes were left in place");

    std::fs::remove_dir_all(&dir).ok();
}

/// The spill policy: streams that re-emit faster than the configured
/// disk-rate threshold never reach disk. Threshold 0 makes that
/// deterministic (no stream is ever slow enough), so the run leaves no
/// `.vtrc` files and reports every skip — while the results stay
/// byte-identical to a spilling run, because the spill only ever
/// changes wall clock.
#[test]
fn fast_streams_skip_the_disk_spill() {
    let dir = scratch_dir("nospill");
    let tc = dir.join("trace-cache");
    let tc_str = tc.to_str().unwrap().to_string();
    let exe = env!("CARGO_BIN_EXE_fig1");
    let out = run_bin(
        exe,
        &dir,
        &[],
        &[
            ("VISIM_TRACE_DIR", tc_str.as_str()),
            ("VISIM_SPILL_EMIT_MBPS", "0"),
        ],
    );
    assert!(out.status.success());
    let vtrc_count = std::fs::read_dir(&tc)
        .map(|rd| {
            rd.filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("vtrc")
            })
            .count()
        })
        .unwrap_or(0);
    assert_eq!(vtrc_count, 0, "threshold 0 must never spill");
    let text = std::fs::read_to_string(dir.join("results/json/fig1.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    let skipped = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("trace_cache.spill_skipped"))
        .and_then(Json::as_u64);
    assert_eq!(skipped, Some(24), "every distinct stream reports its skip");
    std::fs::remove_dir_all(&dir).ok();
}
