//! `visim-serve`: a job daemon over the content-addressed result store.
//!
//! The figure binaries run one manifest and exit; the daemon keeps the
//! simulation substrate warm and serves manifests (or single cells) to
//! concurrent clients over TCP. Three properties make it more than a
//! remote shell around the binaries:
//!
//! - **Store-first.** The daemon runs with store resume permanently
//!   on, so every requested cell is first looked up in the
//!   content-addressed store (checksum-validated, stale entries
//!   purged); only misses are simulated. Submitting the same manifest
//!   twice therefore simulates nothing the second time.
//! - **Single-flight.** Concurrent requests for the same cell identity
//!   (its result-store key under the daemon's run context,
//!   [`visim::RunCtx::cell_key`]) coalesce onto one in-flight
//!   simulation; followers wait for the leader's result instead of
//!   duplicating work.
//! - **Crash-safe.** Completed cells persist in the store, so a daemon
//!   killed mid-manifest loses at most the cells in flight; after a
//!   restart the resubmitted manifest serves the finished cells as
//!   store hits and converges.
//!
//! Cells come from [`visim::manifest::Manifest::cells`] and run through
//! [`visim::RunCtx::run_keyed`], the body of `run_spec` — the same grid
//! expansion and the same executor the figure binaries use.
//!
//! - **Observable.** Every request is timed through its lifecycle
//!   phases into the process-wide metrics sink
//!   ([`visim_obs::live::global`], see [`telemetry`]); a flight
//!   recorder samples the daemon state every `VISIM_TICK_MS` into a
//!   bounded ring that `watch` clients stream live and that persists
//!   as `results/json/serve_timeline.json` at shutdown. The `stats`
//!   event carries per-phase and per-path latency percentiles, `ping`
//!   answers a health check (uptime, git rev, in-flight count), and
//!   `--trace-out` exports one Chrome-trace span per request.
//!
//! The wire protocol is newline-delimited JSON ([`proto`]): one request
//! object per line from the client, a stream of event objects back
//! (`cell` progress and `snapshot` telemetry events, then a terminal
//! `done`/`pong`/`stats`/`bye`/`error` event). See DESIGN.md §14–§15
//! for the full specification.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod telemetry;

/// Protocol/schema tag carried by the daemon's `listening` event and
/// every terminal reply, so clients can detect incompatible daemons
/// (v2 added the `watch` op, the health-check `pong`, and the
/// percentile-bearing `stats` event).
pub const SERVE_SCHEMA: &str = "visim-serve-v2";

use visim::store::Store;

/// Render a [`Store::stats`] scan as the `--store-stats` report: the
/// directory, the totals, and one line per (schema, revision) pairing.
pub fn store_stats_text(store: Option<&Store>) -> String {
    let mut out = String::new();
    match store {
        None => out.push_str("store: disabled (--no-store)\n"),
        Some(store) => {
            let stats = store.stats();
            out.push_str(&format!("store: {}\n", store.dir));
            out.push_str(&format!(
                "  entries: {}  bytes: {}  invalid: {}\n",
                stats.entries, stats.bytes, stats.invalid
            ));
            for rev in &stats.revs {
                out.push_str(&format!(
                    "  {} @ {}: {} entries, {} bytes\n",
                    rev.schema, rev.rev, rev.entries, rev.bytes
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_stats_text_reports_disabled_store() {
        // Without a store the report says so instead of lying with
        // zeros.
        let text = store_stats_text(None);
        assert!(text.starts_with("store: disabled"), "{text}");
    }
}
