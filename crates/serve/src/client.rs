//! The bundled client: connect, send one request, relay the event
//! stream to stdout, and turn the terminal event into an exit code.
//!
//! Scripts and tests use this instead of hand-rolling the protocol;
//! `scripts/verify.sh` drives its serve gate entirely through
//! `visim-serve client`. Telemetry events (`stats`, `snapshot`,
//! `pong`) additionally have a human rendering ([`Render::Human`]) so
//! `stats` reads as a table and `watch` as a live dashboard line per
//! tick; `--json` keeps the raw event lines for scripts.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;

use visim_obs::Json;

use crate::proto::Request;

/// How the event stream is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Render {
    /// Relay raw event lines verbatim (what scripts parse).
    Raw,
    /// Render telemetry events (`stats`, `snapshot`, `pong`) for
    /// humans; everything else relays raw.
    Human,
}

/// Send `request` to the daemon at `addr`, print every event the
/// daemon streams back (raw lines), and return the process exit code:
/// 0 when the terminal event reports success, 1 when a run finished
/// with failed cells or the daemon reported an error, and an `Err` for
/// transport problems.
pub fn run(addr: &str, request: &Request) -> Result<i32, String> {
    run_with(addr, request, Render::Raw)
}

/// [`run`], with an explicit rendering mode.
pub fn run_with(addr: &str, request: &Request, render: Render) -> Result<i32, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // The daemon's socket options: each line leaves when it is written.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut line = request.to_line();
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    for event_line in BufReader::new(stream).lines() {
        let event_line = event_line.map_err(|e| format!("read: {e}"))?;
        if event_line.is_empty() {
            continue;
        }
        let event = Json::parse(&event_line).map_err(|e| format!("bad event line: {e}"))?;
        let kind = event.get("event").and_then(Json::as_str).unwrap_or("");
        match (render, kind) {
            (Render::Human, "stats") => print!("{}", render_stats(&event)),
            (Render::Human, "snapshot") => println!("{}", render_snapshot(&event)),
            (Render::Human, "pong") => println!("{}", render_pong(&event)),
            (Render::Human, "done") if event.get("snapshots").is_some() => println!(
                "watched {} snapshot(s)",
                event.get("snapshots").and_then(Json::as_u64).unwrap_or(0)
            ),
            _ => println!("{event_line}"),
        }
        match kind {
            "done" => {
                let failed = event.get("failed").and_then(Json::as_u64).unwrap_or(0);
                return Ok(if failed == 0 { 0 } else { 1 });
            }
            "pong" | "stats" | "bye" => return Ok(0),
            "error" => return Ok(1),
            // `listening`, `start`, `cell`, and `snapshot` events keep
            // streaming.
            _ => {}
        }
    }
    Err("daemon closed the connection before a terminal event".into())
}

/// A nanosecond quantity at human scale (`843ns`, `12.3us`, `4.5ms`,
/// `1.20s`).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Append one table row per entry of a `phases`/`paths` group object.
fn latency_rows(group: Option<&Json>, kind: &str, out: &mut String) {
    let Some(Json::Obj(members)) = group else {
        return;
    };
    for (name, row) in members {
        let cell = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "  {kind:<5} {name:<13} {:>7}  p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}\n",
            cell("count"),
            fmt_ns(cell("p50_ns")),
            fmt_ns(cell("p90_ns")),
            fmt_ns(cell("p99_ns")),
            fmt_ns(cell("max_ns")),
        ));
    }
}

/// Human rendering of the `stats` event: a serve-counter headline, one
/// latency row per observed phase and path, and the store size.
fn render_stats(event: &Json) -> String {
    let serve = |k: &str| {
        event
            .get("serve")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let uptime = event
        .get("uptime_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let mut out = format!(
        "up {uptime:.1}s  requests {}: {} hits, {} misses, {} coalesced, {} failed  \
         (hit ratio {}%, {} in flight)\n",
        serve("requests"),
        serve("hits"),
        serve("misses"),
        serve("coalesced"),
        serve("failures"),
        serve("hit_ratio_pct"),
        serve("in_flight"),
    );
    latency_rows(event.get("phases"), "phase", &mut out);
    latency_rows(event.get("paths"), "path", &mut out);
    if let Some(store) = event.get("store") {
        let cell = |k: &str| store.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "  store: {} entries, {:.1} MB, {} invalid\n",
            cell("entries"),
            cell("bytes") as f64 / 1e6,
            cell("invalid"),
        ));
    }
    out
}

/// Human rendering of one flight-recorder `snapshot`: a single
/// dashboard line.
fn render_snapshot(event: &Json) -> String {
    let cell = |k: &str| event.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut line = format!(
        "t+{:7.1}s  requests {:>6}  hit {:>3}%  in-flight {:>2}",
        cell("t_ms") as f64 / 1e3,
        cell("requests"),
        cell("hit_ratio_pct"),
        cell("in_flight"),
    );
    if let Some(p99) = event
        .get("phases")
        .and_then(|p| p.get("simulate"))
        .and_then(|s| s.get("p99_ns"))
        .and_then(Json::as_u64)
    {
        line.push_str(&format!("  simulate p99 {:>8}", fmt_ns(p99)));
    }
    if event.get("store_entries").is_some() {
        line.push_str(&format!(
            "  store {} cells / {:.1} MB",
            cell("store_entries"),
            cell("store_bytes") as f64 / 1e6,
        ));
    }
    line
}

/// Human rendering of the health-check `pong`.
fn render_pong(event: &Json) -> String {
    format!(
        "pong: schema {}, rev {}, up {:.1}s, {} in flight",
        event.get("schema").and_then(Json::as_str).unwrap_or("?"),
        event.get("git_rev").and_then(Json::as_str).unwrap_or("?"),
        event
            .get("uptime_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        event.get("in_flight").and_then(Json::as_u64).unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_a_dead_daemon_is_a_transport_error() {
        // Port 1 on localhost is essentially never listening.
        let err = run("127.0.0.1:1", &Request::Ping).unwrap_err();
        assert!(err.starts_with("connect"), "{err}");
    }

    #[test]
    fn nanoseconds_render_at_human_scale() {
        assert_eq!(fmt_ns(843), "843ns");
        assert_eq!(fmt_ns(12_340), "12.3us");
        assert_eq!(fmt_ns(4_500_000), "4.5ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }

    #[test]
    fn stats_and_snapshot_render_the_telemetry_members() {
        let stats = Json::parse(
            r#"{"event":"stats","schema":"visim-serve-v2","uptime_seconds":2.5,
                "serve":{"requests":48,"hits":24,"misses":24,"coalesced":0,
                         "failures":0,"in_flight":0,"hit_ratio_pct":50},
                "phases":{"simulate":{"count":24,"p50_ns":2000000,"p90_ns":3000000,
                          "p99_ns":4000000,"max_ns":5000000}},
                "paths":{"hit":{"count":24,"p50_ns":30000,"p90_ns":40000,
                         "p99_ns":50000,"max_ns":60000}},
                "store":{"entries":24,"bytes":1200000,"invalid":0}}"#,
        )
        .unwrap();
        let text = render_stats(&stats);
        assert!(text.contains("requests 48: 24 hits, 24 misses"), "{text}");
        assert!(text.contains("hit ratio 50%"), "{text}");
        assert!(text.contains("phase simulate"), "{text}");
        assert!(text.contains("path  hit"), "{text}");
        assert!(text.contains("p99    4.0ms"), "{text}");
        assert!(text.contains("store: 24 entries, 1.2 MB"), "{text}");

        let snap = Json::parse(
            r#"{"event":"snapshot","t_ms":1500,"requests":48,"hits":24,
                "misses":24,"coalesced":0,"failures":0,"hit_ratio_pct":50,
                "in_flight":2,
                "phases":{"simulate":{"count":24,"p50_ns":2000000,
                          "p90_ns":3000000,"p99_ns":4000000,"max_ns":5000000}},
                "store_entries":24,"store_bytes":1200000}"#,
        )
        .unwrap();
        let line = render_snapshot(&snap);
        assert!(line.contains("t+    1.5s"), "{line}");
        assert!(line.contains("requests     48"), "{line}");
        assert!(line.contains("hit  50%"), "{line}");
        assert!(line.contains("simulate p99    4.0ms"), "{line}");
        assert!(line.contains("store 24 cells / 1.2 MB"), "{line}");
    }

    #[test]
    fn pong_renders_the_health_fields() {
        let pong = Json::parse(
            r#"{"event":"pong","schema":"visim-serve-v2","uptime_seconds":9.5,
                "git_rev":"abc123def456","in_flight":1}"#,
        )
        .unwrap();
        let line = render_pong(&pong);
        assert_eq!(
            line,
            "pong: schema visim-serve-v2, rev abc123def456, up 9.5s, 1 in flight"
        );
    }
}
