//! `visim-obs` — observability substrate for the visim workspace.
//!
//! The workspace builds hermetically (no registry access), so this
//! crate provides the std-only machinery a metrics/eval harness would
//! normally pull from serde + prometheus:
//!
//! * [`codec`] — a little-endian byte writer/reader pair for the
//!   versioned binary payloads the result store persists (exact
//!   integer round-trips, which the derived-float JSON views cannot
//!   provide);
//! * [`json`] — a JSON value model with an emitter (compact and
//!   pretty) and a recursive-descent parser, so the figure binaries can
//!   write machine-readable artifacts and the `validate` gate can read
//!   them back without third-party crates;
//! * [`metrics`] — a lightweight registry of named counters and
//!   fixed-bucket histograms: the value type for per-cell metrics
//!   (threaded through the pipeline and the memory system), result-store
//!   payloads and snapshots;
//! * [`live`] — the thread-safe counterpart and the process-wide
//!   metrics sink ([`live::global`]): a sharded registry of atomic
//!   counters and mutex-guarded histograms that every run-level counter
//!   (store, trace cache, retry, faults, worker pool, serve daemon)
//!   records into and any thread snapshots or drains at any instant;
//! * [`log`] — a leveled structured stderr logger (`VISIM_LOG`,
//!   `VISIM_QUIET`) shared by the binaries' progress heartbeat and the
//!   daemon's diagnostics;
//! * [`schema`] — the versioned result schemas (`visim-results-v2`,
//!   `visim-trace-v1`, `visim-serve-timeline-v1`): one place that names
//!   and versions every machine-readable output format the repo
//!   produces;
//! * [`trace`] — cycle-level event tracing: a bounded ring of
//!   instruction lifecycle spans, instant events, and per-cycle
//!   stall-cause samples, with a Chrome trace-event / Perfetto JSON
//!   exporter and an exact Figure 1-style attribution accumulator.
//!
//! This crate sits at the bottom of the dependency graph (it depends on
//! nothing, not even `visim-util`) so every other crate can report into
//! it.

pub mod codec;
pub mod json;
pub mod live;
pub mod log;
pub mod metrics;
pub mod schema;
pub mod trace;

pub use json::Json;
pub use metrics::{Histogram, Registry};
