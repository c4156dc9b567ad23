//! Crash-safety equivalence: a run that is SIGKILLed mid-flight and
//! then resumed must produce byte-identical text output and (after
//! scrubbing run-varying wall-clock members) identical JSON artifacts
//! to an uninterrupted run — at any worker count. The result store
//! itself must be invisible in the results: store on, store off, and
//! resume-from-store runs all agree, and deterministic failures served
//! from the store reproduce the original failing run exactly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use visim_obs::Json;
use visim_util::hermetic_command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a fig1-tiny command running in `dir` with a hermetic
/// environment plus the given overrides. The store uses the binaries'
/// default `results/store` under `dir`.
fn fig1_cmd(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Command {
    let mut cmd = hermetic_command(env!("CARGO_BIN_EXE_fig1"));
    cmd.arg("tiny")
        .args(args)
        .current_dir(dir)
        .env("VISIM_JOBS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd
}

fn run_fig1(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    fig1_cmd(dir, args, envs).output().expect("fig1 runs")
}

/// Load `results/json/fig1.json` from `dir` and drop every run-varying
/// member: the document's `wall_seconds`, `jobs`, and run-level
/// `metrics` (pool timings, store/retry/fault counters), plus each
/// cell's `cell.*` counters. Everything that remains is simulation
/// output and must be identical however (and in how many processes)
/// the run was executed.
fn scrubbed_json(dir: &Path) -> Json {
    let text = std::fs::read_to_string(dir.join("results/json/fig1.json")).unwrap();
    scrub_doc(Json::parse(&text).unwrap())
}

fn doc_counter(dir: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(dir.join("results/json/fig1.json")).unwrap();
    Json::parse(&text)
        .unwrap()
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("doc metrics counter {name} present"))
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

/// Count the `.vcell` entries currently in `dir`'s store.
fn store_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("results/store"))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "vcell"))
                .count()
        })
        .unwrap_or(0)
}

/// The tentpole acceptance check: start a fig1 run, SIGKILL it at a
/// seeded pseudo-random point after the first cell has been persisted,
/// resume with `--resume`, and demand byte-identical text plus
/// scrub-identical JSON against an uninterrupted reference run.
fn kill_then_resume_matches_reference(jobs: &str, seed: u64) {
    // Uninterrupted reference (serial, store on): the ground truth.
    let ref_dir = scratch_dir(&format!("ref-j{jobs}"));
    let ref_out = run_fig1(&ref_dir, &[], &[]);
    assert!(ref_out.status.success(), "reference run fails");

    // Victim run at the requested worker count, killed mid-flight.
    let dir = scratch_dir(&format!("kill-j{jobs}"));
    let mut child = fig1_cmd(&dir, &[], &[("VISIM_JOBS", jobs)])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim spawns");
    // Wait until at least one cell is durable, then add a seeded
    // pseudo-random extra delay so different runs die at different
    // points in the schedule (SplitMix64 step over the seed).
    let deadline = Instant::now() + Duration::from_secs(60);
    while store_entries(&dir) == 0
        && child.try_wait().expect("victim polls").is_none()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    std::thread::sleep(Duration::from_millis(z % 80));
    child.kill().ok(); // SIGKILL; a naturally-finished child is fine too
    child.wait().expect("victim reaped");
    let entries_after_kill = store_entries(&dir);
    assert!(
        entries_after_kill > 0,
        "no cell became durable before the kill"
    );

    // Resume and compare against the uninterrupted reference.
    let out = run_fig1(&dir, &["--resume"], &[("VISIM_JOBS", jobs)]);
    assert!(
        out.status.success(),
        "resume fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, ref_out.stdout,
        "jobs={jobs}: resumed text differs from the uninterrupted run"
    );
    assert_eq!(
        scrubbed_json(&dir),
        scrubbed_json(&ref_dir),
        "jobs={jobs}: resumed JSON differs from the uninterrupted run"
    );
    // The resume actually used the store (every surviving cell was
    // served, not recomputed).
    assert!(
        doc_counter(&dir, "store.hit") >= 1,
        "resume did not serve any cell from the store"
    );
    // All five store counters are surfaced in the doc metrics.
    for name in [
        "store.hit",
        "store.miss",
        "store.writes",
        "store.corrupt_purged",
        "store.stale_purged",
    ] {
        doc_counter(&dir, name);
    }
}

#[test]
fn kill_then_resume_is_byte_identical_serial() {
    kill_then_resume_matches_reference("1", 7);
}

#[test]
fn kill_then_resume_is_byte_identical_jobs8() {
    kill_then_resume_matches_reference("8", 1999);
}

/// The store must be invisible in the results: store-on, store-off, and
/// full-resume runs produce byte-identical text and scrub-identical
/// JSON.
#[test]
fn store_on_off_and_resume_agree() {
    let on = scratch_dir("store-on");
    let off = scratch_dir("store-off");
    let out_on = run_fig1(&on, &[], &[]);
    let out_off = run_fig1(&off, &["--no-store"], &[]);
    assert!(out_on.status.success() && out_off.status.success());
    assert_eq!(out_on.stdout, out_off.stdout, "store changes the text");
    assert_eq!(scrubbed_json(&on), scrubbed_json(&off));
    assert_eq!(store_entries(&off), 0, "--no-store still wrote cells");

    // A fully-warm resume serves every timed cell and still agrees.
    let resumed = run_fig1(&on, &["--resume"], &[]);
    assert!(resumed.status.success());
    assert_eq!(out_on.stdout, resumed.stdout, "resume changes the text");
    assert_eq!(scrubbed_json(&on), scrubbed_json(&off));
    assert_eq!(doc_counter(&on, "store.hit"), 72, "72 cells served");
    // Cross-process reuse is the store's job: the warm second process
    // records no stream at all.
    assert_eq!(
        doc_counter(&on, "trace_cache.misses"),
        0,
        "a fully-warm resume records a stream"
    );
}

/// Deterministic failures are first-class store entries: a resumed run
/// serves the recorded error without re-running the benchmark, and the
/// degraded output is byte-identical to the original failing run.
#[test]
fn resume_serves_stored_deterministic_failures() {
    let dir = scratch_dir("fail");
    let failed = run_fig1(&dir, &[], &[("VISIM_FAULT", "cell.panic:blend")]);
    assert_eq!(failed.status.code(), Some(1), "injected failure exits 1");

    // Resume WITHOUT the injection: the stored failed cells are served
    // back, so the run still reports blend's error rows byte-for-byte.
    let resumed = run_fig1(&dir, &["--resume"], &[]);
    assert_eq!(resumed.status.code(), Some(1), "stored failure re-raised");
    assert_eq!(
        resumed.stdout, failed.stdout,
        "served failure differs from the original failing run"
    );
    assert!(
        doc_counter(&dir, "store.hit") >= 66,
        "surviving cells served"
    );
}
