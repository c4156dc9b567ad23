//! Live telemetry for the daemon: the flight-recorder snapshot ring and
//! the documents it and the `--trace-out` request spans persist as. The
//! daemon owns one ring and one span list (`crate::daemon`).
//!
//! The metrics themselves live in the process-wide sink
//! ([`visim_obs::live::global`]), which the daemon shares with the
//! library: the daemon records its request counters and most
//! request-lifecycle phases there, `visim::experiment` records the
//! store-lookup and simulate phases (names shared via
//! [`visim_obs::live::names`]) and the worker pool's batch stats. A
//! tick thread samples the whole state into the bounded
//! [`SnapshotRing`]; `watch` clients stream new snapshots off the ring;
//! and at shutdown the ring persists as
//! `results/json/serve_timeline.json` under
//! [`SERVE_TIMELINE_SCHEMA`](visim_obs::schema::SERVE_TIMELINE_SCHEMA).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use visim_obs::schema::SERVE_TIMELINE_SCHEMA;
use visim_obs::trace::InstSpan;
use visim_obs::Json;

/// Snapshots retained by the flight recorder: at the default one-
/// second tick this is 12 minutes of history; older snapshots fall
/// off the front (the ring is evidence of *recent* behaviour, the
/// store carries the durable record).
pub const RING_CAPACITY: usize = 720;

/// A bounded ring of telemetry snapshots with sequence numbers, shared
/// between the tick thread (producer), `watch` connections (blocking
/// consumers), and the shutdown path (drains everything into the
/// timeline artifact).
pub(crate) struct SnapshotRing {
    inner: Mutex<RingState>,
    cv: Condvar,
}

struct RingState {
    /// `(seq, snapshot)` pairs, seq strictly increasing from 1.
    items: VecDeque<(u64, Json)>,
    next_seq: u64,
    /// Total snapshots ever pushed (== evicted + retained).
    pushed: u64,
}

impl SnapshotRing {
    /// An empty ring.
    pub fn new() -> Self {
        SnapshotRing {
            inner: Mutex::new(RingState {
                items: VecDeque::new(),
                next_seq: 1,
                pushed: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Append one snapshot (evicting the oldest past capacity) and
    /// wake every waiting watcher. Returns the snapshot's sequence
    /// number.
    pub fn push(&self, snapshot: Json) -> u64 {
        let mut st = self.inner.lock().expect("snapshot ring lock");
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pushed += 1;
        if st.items.len() == RING_CAPACITY {
            st.items.pop_front();
        }
        st.items.push_back((seq, snapshot));
        drop(st);
        self.cv.notify_all();
        seq
    }

    /// Block (up to `timeout`) for snapshots newer than `after`, and
    /// return them oldest-first with their sequence numbers. An empty
    /// vector means the timeout elapsed — callers re-check their stop
    /// condition and wait again.
    pub fn wait_newer(&self, after: u64, timeout: Duration) -> Vec<(u64, Json)> {
        let mut st = self.inner.lock().expect("snapshot ring lock");
        if st.items.back().is_none_or(|(seq, _)| *seq <= after) {
            let (lock, _timed_out) = self
                .cv
                .wait_timeout(st, timeout)
                .expect("snapshot ring wait");
            st = lock;
        }
        st.items
            .iter()
            .filter(|(seq, _)| *seq > after)
            .map(|(seq, s)| (*seq, s.clone()))
            .collect()
    }

    /// The sequence number of the most recent snapshot ever pushed
    /// (0 before the first) — where a new `watch` subscriber starts, so
    /// it streams from *now* instead of replaying retained history.
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().expect("snapshot ring lock").next_seq - 1
    }

    /// Every retained snapshot, oldest first, plus the total ever
    /// pushed (retained + evicted).
    pub fn drain_all(&self) -> (Vec<Json>, u64) {
        let st = self.inner.lock().expect("snapshot ring lock");
        (st.items.iter().map(|(_, s)| s.clone()).collect(), st.pushed)
    }
}

/// Build the `visim-serve-timeline-v1` document from the recorder
/// state. `snapshots` is the retained ring (oldest first), `sampled`
/// the total ever pushed.
pub fn timeline_doc(snapshots: Vec<Json>, sampled: u64, tick: Duration) -> Json {
    Json::obj(vec![
        ("schema", Json::from(SERVE_TIMELINE_SCHEMA)),
        ("name", Json::from("serve")),
        ("git_rev", Json::from(visim_obs::schema::git_rev())),
        ("tick_ms", Json::from(tick.as_millis() as u64)),
        ("sampled", Json::from(sampled)),
        ("retained", Json::from(snapshots.len())),
        ("snapshots", Json::Arr(snapshots)),
    ])
}

/// Validate a serialized timeline document: parses, carries the
/// current schema tag, and its `snapshots` member is an array matching
/// `retained`. Returns a one-line summary for the `--check-timeline`
/// CLI.
pub fn check_timeline_text(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("timeline does not parse: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("timeline has no schema tag")?;
    if schema != SERVE_TIMELINE_SCHEMA {
        return Err(format!(
            "timeline schema is {schema:?}, expected {SERVE_TIMELINE_SCHEMA:?}"
        ));
    }
    let snapshots = doc
        .get("snapshots")
        .and_then(Json::elements)
        .ok_or("timeline has no snapshots array")?;
    let retained = doc
        .get("retained")
        .and_then(Json::as_u64)
        .ok_or("timeline has no retained count")?;
    if snapshots.len() as u64 != retained {
        return Err(format!(
            "timeline retains {} snapshots but claims {retained}",
            snapshots.len()
        ));
    }
    for (ix, s) in snapshots.iter().enumerate() {
        if s.get("t_ms").and_then(Json::as_u64).is_none() {
            return Err(format!("snapshot {ix} has no t_ms"));
        }
    }
    Ok(format!(
        "serve_timeline: schema {SERVE_TIMELINE_SCHEMA}, {} snapshot(s) retained of {} sampled",
        snapshots.len(),
        doc.get("sampled").and_then(Json::as_u64).unwrap_or(0)
    ))
}

/// Export request spans as a Chrome trace-event / Perfetto JSON
/// document (1 µs of request time = 1 trace µs; one span lane per
/// concurrently in-flight request).
pub fn trace_doc(spans: &[InstSpan]) -> Json {
    let mut trace_ring = visim_obs::trace::TraceRing::new(spans.len().max(1));
    for span in spans {
        trace_ring.span(*span);
    }
    trace_ring.into_trace().chrome_trace(vec![
        ("tool", Json::from("visim-serve")),
        ("clock_note", Json::from("1us = 1us of request wall time")),
        ("spans", Json::from(spans.len() as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pushes_wakes_waiters_and_bounds_history() {
        let ring = SnapshotRing::new();
        assert!(ring.wait_newer(0, Duration::from_millis(10)).is_empty());
        let s1 = ring.push(Json::obj(vec![("t_ms", Json::from(1u64))]));
        let s2 = ring.push(Json::obj(vec![("t_ms", Json::from(2u64))]));
        assert_eq!((s1, s2), (1, 2));
        let fresh = ring.wait_newer(s1, Duration::from_millis(10));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].0, s2);
        // A waiter blocked before the push sees it arrive.
        std::thread::scope(|s| {
            let r = &ring;
            let waiter = s.spawn(move || r.wait_newer(2, Duration::from_secs(10)));
            std::thread::sleep(Duration::from_millis(30));
            r.push(Json::obj(vec![("t_ms", Json::from(3u64))]));
            let got = waiter.join().unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, 3);
        });
        for t in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(Json::obj(vec![("t_ms", Json::from(t))]));
        }
        let (all, pushed) = ring.drain_all();
        assert_eq!(all.len(), RING_CAPACITY);
        assert_eq!(pushed, 3 + RING_CAPACITY as u64 + 10);
    }

    #[test]
    fn timeline_doc_round_trips_through_the_checker() {
        let doc = timeline_doc(
            vec![
                Json::obj(vec![("t_ms", Json::from(10u64))]),
                Json::obj(vec![("t_ms", Json::from(20u64))]),
            ],
            5,
            Duration::from_millis(250),
        );
        let summary = check_timeline_text(&doc.to_pretty()).expect("valid timeline");
        assert!(summary.contains("2 snapshot(s) retained of 5"), "{summary}");
        assert!(check_timeline_text("not json").is_err());
        assert!(check_timeline_text("{\"schema\":\"other\"}").is_err());
        let mut bad = doc.to_pretty();
        bad = bad.replace("\"retained\": 2", "\"retained\": 7");
        assert!(check_timeline_text(&bad).is_err(), "retained mismatch");
    }

    #[test]
    fn trace_doc_exports_request_spans() {
        let doc = trace_doc(&[sample_span(2)]);
        let events = doc
            .get("traceEvents")
            .and_then(Json::elements)
            .expect("chrome trace events");
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("miss")
                && e.get("ph").and_then(Json::as_str) == Some("B")
        }));
    }

    fn sample_span(seq: u64) -> InstSpan {
        InstSpan {
            seq,
            pc: seq,
            op: "miss",
            fetch: 10,
            dispatch: 11,
            issue: 12,
            complete: 40,
            retire: 41,
        }
    }
}
