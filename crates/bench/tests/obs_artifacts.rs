//! End-to-end acceptance tests for the `visim-results-v2` JSON
//! artifacts: every figure binary writes `results/json/<name>.json`
//! alongside its text output, the document parses with the in-tree
//! parser, carries the full per-cell payload, and an injected failure
//! becomes a `"status": "failed"` cell plus a standalone partial
//! artifact under `results/partial/`.

use std::path::{Path, PathBuf};

use visim_obs::schema::{RESULTS_SCHEMA, STATUS_FAILED, STATUS_OK};
use visim_obs::Json;
use visim_util::hermetic_command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-obs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn load_doc(dir: &Path, name: &str) -> Json {
    let path = dir.join(format!("results/json/{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} readable: {e}", path.display()));
    Json::parse(&text).expect("artifact parses")
}

#[test]
fn fig1_writes_a_full_results_document() {
    let dir = temp_dir("fig1");
    let out = hermetic_command(env!("CARGO_BIN_EXE_fig1"))
        .arg("tiny")
        .current_dir(&dir)
        .output()
        .expect("fig1 runs");
    assert!(out.status.success());

    let doc = load_doc(&dir, "fig1");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(RESULTS_SCHEMA)
    );
    assert_eq!(doc.get("size").and_then(Json::as_str), Some("tiny"));
    assert!(doc.get("git_rev").and_then(Json::as_str).is_some());
    assert!(
        doc.get("wall_seconds").and_then(Json::as_f64).unwrap() >= 0.0,
        "wall clock recorded"
    );

    // 12 benchmarks x 6 bars (scalar/VIS x three machines), all ok.
    let cells = doc.get("cells").and_then(Json::elements).expect("cells");
    assert_eq!(cells.len(), 72);
    for cell in cells {
        assert_eq!(
            cell.get("status").and_then(Json::as_str),
            Some(STATUS_OK),
            "every cell ok"
        );
        assert!(cell.get("benchmark").and_then(Json::as_str).is_some());
        assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        // Full per-cell payload: cycle breakdown, instruction mix, and
        // the cache/MSHR/predictor metrics registry.
        let cpu = cell.get("cpu").expect("cpu stats");
        assert!(cpu.get("breakdown").and_then(|b| b.get("busy")).is_some());
        assert!(cpu.get("mix").and_then(|m| m.get("memory")).is_some());
        let metrics = cell.get("metrics").expect("metrics registry");
        let counters = metrics.get("counters").expect("counters");
        assert!(counters.get("cpu.predictor.updates").is_some());
        assert!(counters.get("mem.l1_mshr_peak").is_some());
        let hists = metrics.get("histograms").expect("histograms");
        assert!(hists.get("cpu.window_occupancy").is_some());
    }

    // The run-level registry carries the worker-pool metrics.
    let metrics = doc.get("metrics").expect("run metrics");
    let jobs = metrics
        .get("counters")
        .and_then(|c| c.get("pool.jobs"))
        .and_then(Json::as_u64)
        .expect("pool.jobs counter");
    assert!(jobs > 0, "pool recorded its jobs");
    assert!(
        metrics
            .get("histograms")
            .and_then(|h| h.get("pool.job_run_ns"))
            .is_some(),
        "per-job latency histogram drained into the artifact"
    );
    // Every run-level counter the run carries even when nothing
    // happened to it: a zero is evidence, not a missing metric.
    let counters = metrics.get("counters").expect("run counters");
    let always = "fault.injected retry.attempts retry.recovered retry.exhausted \
        store.hit store.miss store.writes store.corrupt_purged store.stale_purged \
        trace_cache.hits trace_cache.misses trace_cache.evictions trace_cache.released \
        trace_cache.resident_bytes trace_cache.resident_entries \
        trace_cache.peak_resident_bytes pool.runs pool.jobs pool.workers";
    for name in always.split_whitespace() {
        assert!(
            counters.get(name).and_then(Json::as_u64).is_some(),
            "run-level counter {name} present"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_injected_failure_becomes_a_failed_cell_and_partial_artifact() {
    let dir = temp_dir("fig1-fail");
    let out = hermetic_command(env!("CARGO_BIN_EXE_fig1"))
        .arg("tiny")
        .env("VISIM_FAULT", "cell.panic:blend")
        .current_dir(&dir)
        .output()
        .expect("fig1 runs");
    assert!(!out.status.success());

    let doc = load_doc(&dir, "fig1");
    let cells = doc.get("cells").and_then(Json::elements).expect("cells");
    let failed: Vec<&Json> = cells
        .iter()
        .filter(|c| c.get("status").and_then(Json::as_str) == Some(STATUS_FAILED))
        .collect();
    assert_eq!(failed.len(), 1, "exactly the injected benchmark failed");
    assert_eq!(
        failed[0].get("benchmark").and_then(Json::as_str),
        Some("blend")
    );
    assert_eq!(
        failed[0].get("error_kind").and_then(Json::as_str),
        Some("Workload"),
        "SimError variant recorded"
    );
    assert!(
        failed[0]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("cell.panic"),
        "full error message recorded"
    );
    // The other eleven benchmarks still produced their six bars each.
    assert_eq!(cells.len() - failed.len(), 66);

    // The standalone partial artifact wraps the same failed cell.
    let partial = std::fs::read_to_string(dir.join("results/partial/fig1.blend.json"))
        .expect("partial JSON artifact written");
    let partial = Json::parse(&partial).expect("partial artifact parses");
    assert_eq!(
        partial.get("schema").and_then(Json::as_str),
        Some(RESULTS_SCHEMA)
    );
    assert_eq!(
        partial
            .get("cell")
            .and_then(|c| c.get("status"))
            .and_then(Json::as_str),
        Some(STATUS_FAILED)
    );

    std::fs::remove_dir_all(&dir).ok();
}
