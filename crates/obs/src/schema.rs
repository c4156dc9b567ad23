//! Versioned machine-readable output schemas.
//!
//! Every JSON artifact the repo produces names its schema here — this
//! module is the single place that versions output formats:
//!
//! * [`RESULTS_SCHEMA`] (`visim-results-v2`) — the per-binary result
//!   documents under `results/json/<name>.json` and the per-failure
//!   artifacts under `results/partial/<name>.<benchmark>.json` (v2
//!   added the sampled-simulation cell counters, `cell.sampling.*`);
//! * [`TRACE_SCHEMA`] (`visim-trace-v1`) — the Chrome trace-event /
//!   Perfetto files under `results/trace/` written by `pipetrace`
//!   (schema tag carried in the file's `otherData`); the serve
//!   daemon's `--trace-out` request timeline reuses the same format
//!   with request phases in place of pipeline stages;
//! * [`SERVE_TIMELINE_SCHEMA`] (`visim-serve-timeline-v1`) — the
//!   daemon's flight-recorder timeline
//!   (`results/json/serve_timeline.json`): the bounded ring of
//!   per-interval snapshots (request/hit/miss deltas, per-phase
//!   latency percentiles, in-flight count, store size) the tick
//!   thread sampled, persisted at shutdown.
//!
//! # `visim-results-v2`
//!
//! ```json
//! {
//!   "schema": "visim-results-v2",
//!   "name": "fig1",                  // binary name
//!   "size": "study",                 // workload size label
//!   "git_rev": "abc123…|unknown",
//!   "jobs": 8,                       // worker-pool width used
//!   "wall_seconds": 1.234,           // whole-binary wall clock
//!   "cells": [ { … }, … ],           // one object per (bench × config)
//!   "metrics": { "counters": {…}, "histograms": {…} }
//! }
//! ```
//!
//! Each cell carries `"status": "ok"` with the full simulation payload,
//! or `"status": "failed"` with the `SimError` variant and message, so
//! a consumer can distinguish *drifted* (ok cells outside a fidelity
//! band) from *crashed* (failed cells).
//!
//! Cells produced by a sampled run (`--sample`)
//! additionally carry, in their `metrics.counters`:
//!
//! * `cell.sampling.mode` — `1` sampled estimate, `2` exact fallback
//!   (stream unsampleable); absent entirely on exact runs;
//! * `cell.sampling.windows` — detailed windows measured;
//! * `cell.sampling.sampled_insts` — instructions simulated in detail;
//! * `cell.sampling.ci_centipct` — 95% CI half-width on CPI relative
//!   to the estimate, in centi-percent (250 = ±2.5%).

use crate::json::Json;
use crate::metrics::Registry;

/// Schema tag for the figure/sweep/ablation result documents.
pub const RESULTS_SCHEMA: &str = "visim-results-v2";

/// Schema tag for the Chrome trace-event files written by `pipetrace`.
pub const TRACE_SCHEMA: &str = "visim-trace-v1";

/// Schema tag for the serve daemon's flight-recorder timeline
/// (`results/json/serve_timeline.json`).
pub const SERVE_TIMELINE_SCHEMA: &str = "visim-serve-timeline-v1";

/// Cell status: the simulation completed and its payload is present.
pub const STATUS_OK: &str = "ok";

/// Cell status: the simulation failed; `error_kind`/`error` are present.
pub const STATUS_FAILED: &str = "failed";

/// The current git revision (`git rev-parse --short=12 HEAD`), or
/// `"unknown"` when git is unavailable — artifacts must still be
/// written in hermetic environments without a `.git` directory.
pub fn git_rev() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output();
    match out {
        Ok(out) if out.status.success() => {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if rev.is_empty() {
                "unknown".to_string()
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// [`git_rev`] computed once per process — for callers on a request
/// path (the serve daemon's health check) that must not fork a git
/// subprocess per probe.
pub fn git_rev_cached() -> &'static str {
    static REV: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REV.get_or_init(git_rev)
}

/// An accumulating `visim-results-v2` document.
#[derive(Debug, Clone)]
pub struct ResultsDoc {
    name: String,
    size: String,
    jobs: u64,
    cells: Vec<Json>,
    /// Run-level metrics (worker-pool timings, queue depths, …) drained
    /// into the artifact at the end of the run.
    pub metrics: Registry,
}

impl ResultsDoc {
    /// Start a document for the binary `name` at workload size `size`,
    /// run with `jobs` pool workers.
    pub fn new(name: &str, size: &str, jobs: usize) -> Self {
        ResultsDoc {
            name: name.to_string(),
            size: size.to_string(),
            jobs: jobs as u64,
            cells: Vec::new(),
            metrics: Registry::new(),
        }
    }

    /// Append one result cell (see [`ok_cell`] / [`failed_cell`]).
    pub fn push_cell(&mut self, cell: Json) {
        self.cells.push(cell);
    }

    /// Number of cells recorded so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Serialize the complete document. `wall_seconds` is the binary's
    /// whole-process wall clock (measured by the caller so the document
    /// build itself is included).
    pub fn to_json(&self, wall_seconds: f64) -> Json {
        Json::obj(vec![
            ("schema", Json::from(RESULTS_SCHEMA)),
            ("name", Json::from(self.name.as_str())),
            ("size", Json::from(self.size.as_str())),
            ("git_rev", Json::from(git_rev())),
            ("jobs", Json::from(self.jobs)),
            ("wall_seconds", Json::from(wall_seconds)),
            ("cells", Json::Arr(self.cells.clone())),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// A successful result cell: `benchmark` + configuration members +
/// the simulation payload members, tagged `"status": "ok"`.
pub fn ok_cell(benchmark: &str, config: Json, payload: Vec<(&str, Json)>) -> Json {
    let mut members = vec![
        ("status".to_string(), Json::from(STATUS_OK)),
        ("benchmark".to_string(), Json::from(benchmark)),
        ("config".to_string(), config),
    ];
    members.extend(payload.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(members)
}

/// A failed result cell: the `SimError` variant name and rendered
/// message, tagged `"status": "failed"` so consumers can distinguish a
/// crashed run from a drifted one.
pub fn failed_cell(benchmark: &str, config: Json, error_kind: &str, error: &str) -> Json {
    Json::obj(vec![
        ("status", Json::from(STATUS_FAILED)),
        ("benchmark", Json::from(benchmark)),
        ("config", config),
        ("error_kind", Json::from(error_kind)),
        ("error", Json::from(error)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_doc_serializes_with_schema_header() {
        let mut doc = ResultsDoc::new("fig1", "tiny", 4);
        doc.push_cell(ok_cell(
            "addition",
            Json::obj(vec![("arch", Json::from("4-way ooo"))]),
            vec![("cycles", Json::from(1234u64))],
        ));
        doc.metrics.add("pool.jobs", 72);
        let j = doc.to_json(0.5);
        assert_eq!(j.get("schema").unwrap(), &Json::from(RESULTS_SCHEMA));
        assert_eq!(j.get("name").and_then(Json::as_str), Some("fig1"));
        assert_eq!(j.get("jobs").and_then(Json::as_u64), Some(4));
        let cells = j.get("cells").and_then(Json::elements).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(cells[0].get("cycles").and_then(Json::as_u64), Some(1234));
        // The document round-trips through the parser.
        let text = j.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn failed_cells_carry_the_error_taxonomy() {
        let c = failed_cell(
            "blend",
            Json::obj(vec![("arch", Json::from("1-way"))]),
            "Workload",
            "fault injected",
        );
        assert_eq!(c.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(c.get("error_kind").and_then(Json::as_str), Some("Workload"));
        assert!(c.get("cycles").is_none());
    }

    #[test]
    fn git_rev_is_never_empty() {
        assert!(!git_rev().is_empty());
    }
}
