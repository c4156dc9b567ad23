//! End-to-end daemon tests: single-flight coalescing across concurrent
//! clients, crash recovery through the result store, and the
//! transient-fault retry path — all against the real binary over real
//! TCP connections.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use visim_obs::Json;
use visim_util::hermetic_command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("visim-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the daemon in `dir` on an ephemeral port and return the child
/// plus the bound address (polled from the `--addr-file`).
fn spawn_daemon(dir: &Path, envs: &[(&str, &str)]) -> (Child, String) {
    let addr_file = dir.join("addr.txt");
    std::fs::remove_file(&addr_file).ok();
    let mut cmd = hermetic_command(env!("CARGO_BIN_EXE_visim-serve"));
    cmd.arg("--addr-file")
        .arg(&addr_file)
        .current_dir(dir)
        .env("VISIM_JOBS", "2")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let child = cmd.spawn().expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(line) = std::fs::read_to_string(&addr_file) {
            if line.ends_with('\n') {
                let event = Json::parse(line.trim()).expect("listening event parses");
                assert_eq!(event.get("event").and_then(Json::as_str), Some("listening"));
                break event
                    .get("addr")
                    .and_then(Json::as_str)
                    .expect("listening event carries the address")
                    .to_string();
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its address");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

/// Connect, send one request line, and stream events until (and
/// including) the one `stop` accepts.
fn request(addr: &str, line: &str, mut stop: impl FnMut(&Json) -> bool) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut events = Vec::new();
    for event_line in BufReader::new(stream).lines() {
        let event = Json::parse(&event_line.expect("event line")).expect("event parses");
        let is_stop = stop(&event);
        events.push(event);
        if is_stop {
            break;
        }
    }
    events
}

fn is_done(event: &Json) -> bool {
    event.get("event").and_then(Json::as_str) == Some("done")
}

fn counter(event: &Json, name: &str) -> u64 {
    event.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn shutdown(addr: &str, mut child: Child) {
    request(addr, "{\"op\":\"shutdown\"}", |e| {
        e.get("event").and_then(Json::as_str) == Some("bye")
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            return;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("daemon did not exit after shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn concurrent_clients_on_one_cell_simulate_exactly_once() {
    let dir = scratch_dir("coalesce");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let req = "{\"op\":\"cell\",\"name\":\"fig2\",\"label\":\"conv/base\",\"size\":\"tiny\"}";
    let dones: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.as_str();
                s.spawn(move || {
                    let events = request(addr, req, is_done);
                    events.into_iter().find(is_done).expect("done event")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (mut hits, mut misses, mut coalesced) = (0, 0, 0);
    for done in &dones {
        assert_eq!(counter(done, "ok"), 1, "{done:?}");
        assert_eq!(counter(done, "failed"), 0, "{done:?}");
        hits += counter(done, "hits");
        misses += counter(done, "misses");
        coalesced += counter(done, "coalesced");
    }
    // Whatever the interleaving — all four racing, or some arriving
    // after the store already has the cell — exactly one client can
    // miss: the in-flight table coalesces the racers and the store
    // serves the stragglers.
    assert_eq!(misses, 1, "exactly one simulation ran: {dones:?}");
    assert_eq!(hits + coalesced, 3, "the rest shared it: {dones:?}");
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_daemon_resumes_from_store_on_restart() {
    let dir = scratch_dir("kill");
    let (mut child, addr) = spawn_daemon(&dir, &[]);
    // Submit a full manifest and kill the daemon after three cells have
    // durably completed (each cell event is sent only after the cell
    // was stored).
    let seen = request(
        &addr,
        "{\"op\":\"manifest\",\"name\":\"fig2\",\"size\":\"tiny\"}",
        |e| e.get("event").and_then(Json::as_str) == Some("cell") && counter(e, "done") >= 3,
    );
    assert!(
        seen.iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("cell")),
        "saw cell progress before the kill: {seen:?}"
    );
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");

    // Restart over the same store: the resubmitted manifest converges
    // without failures, serving at least the pre-kill cells straight
    // from the store — the store-hit count is the resume evidence.
    let (child, addr) = spawn_daemon(&dir, &[]);
    let events = request(
        &addr,
        "{\"op\":\"manifest\",\"name\":\"fig2\",\"size\":\"tiny\"}",
        is_done,
    );
    let done = events.iter().find(|e| is_done(e)).expect("done event");
    assert_eq!(counter(done, "ok"), 24, "{done:?}");
    assert_eq!(counter(done, "failed"), 0, "{done:?}");
    assert!(
        counter(done, "hits") >= 3,
        "pre-kill cells came from the store: {done:?}"
    );
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_fault_is_retried_behind_the_daemon() {
    let dir = scratch_dir("fault");
    // Fire one injected transient fault on conv's first attempt; the
    // bounded-retry policy inside the cell runner must absorb it.
    let (child, addr) = spawn_daemon(&dir, &[("VISIM_FAULT", "cell.transient:conv:0")]);
    let events = request(
        &addr,
        "{\"op\":\"cell\",\"name\":\"fig2\",\"label\":\"conv/base\",\"size\":\"tiny\"}",
        is_done,
    );
    let cell = events
        .iter()
        .find(|e| e.get("event").and_then(Json::as_str) == Some("cell"))
        .expect("cell event");
    assert_eq!(
        cell.get("status").and_then(Json::as_str),
        Some("ok"),
        "retry recovered the injected fault: {cell:?}"
    );
    let done = events.iter().find(|e| is_done(e)).expect("done event");
    assert_eq!(counter(done, "failed"), 0, "{done:?}");
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
}

/// The named member of a nested object (`event.paths.hit.count`-style,
/// two levels).
fn nested(event: &Json, outer: &str, inner: &str, leaf: &str) -> u64 {
    event
        .get(outer)
        .and_then(|o| o.get(inner))
        .and_then(|i| i.get(leaf))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn telemetry_invariants_hold_over_a_cold_then_warm_manifest() {
    let dir = scratch_dir("telemetry");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let manifest = "{\"op\":\"manifest\",\"name\":\"fig2\",\"size\":\"tiny\"}";
    for _ in 0..2 {
        let events = request(&addr, manifest, is_done);
        let done = events.iter().find(|e| is_done(e)).expect("done event");
        assert_eq!(counter(done, "failed"), 0, "{done:?}");
    }
    let events = request(&addr, "{\"op\":\"stats\"}", |e| {
        e.get("event").and_then(Json::as_str) == Some("stats")
    });
    let stats = events.last().expect("stats event");
    assert_eq!(
        stats.get("schema").and_then(Json::as_str),
        Some("visim-serve-v2")
    );
    let serve = |k: &str| {
        stats
            .get("serve")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .expect(k)
    };
    assert_eq!(serve("requests"), 48, "two 24-cell manifests: {stats:?}");
    assert_eq!(serve("hits"), 24, "warm pass all hits: {stats:?}");
    assert_eq!(serve("misses"), 24, "cold pass all misses: {stats:?}");
    assert_eq!(serve("failures"), 0);
    assert_eq!(serve("in_flight"), 0, "nothing in flight at rest");
    assert_eq!(serve("hit_ratio_pct"), 50);

    // Conservation: every request is classified onto exactly one
    // serving path, so the path latency histogram counts sum to the
    // request counter.
    let paths_total = nested(stats, "paths", "hit", "count")
        + nested(stats, "paths", "miss", "count")
        + nested(stats, "paths", "coalesced", "count");
    assert_eq!(paths_total, serve("requests"), "{stats:?}");

    // Every always-on phase observed work (coalesce_wait legitimately
    // stays empty without concurrent identical requests).
    for phase in ["read_parse", "queue_wait", "store_lookup", "respond"] {
        assert!(
            nested(stats, "phases", phase, "count") > 0,
            "phase {phase} never observed: {stats:?}"
        );
    }
    assert_eq!(
        nested(stats, "phases", "simulate", "count"),
        24,
        "only the cold pass simulated: {stats:?}"
    );
    assert_eq!(
        nested(stats, "phases", "store_lookup", "count"),
        48,
        "every cell consulted the store: {stats:?}"
    );

    // The store-served path must be far faster than simulation: a warm
    // hit's p99 stays under the miss path's p50.
    let hit_p99 = nested(stats, "paths", "hit", "p99_ns");
    let miss_p50 = nested(stats, "paths", "miss", "p50_ns");
    assert!(hit_p99 > 0 && miss_p50 > 0, "{stats:?}");
    assert!(
        hit_p99 < miss_p50,
        "warm hits (p99 {hit_p99}ns) must undercut cold misses (p50 {miss_p50}ns)"
    );
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_streams_ticked_snapshots_and_the_timeline_persists() {
    let dir = scratch_dir("watch");
    // Fast recorder tick so the bounded watch finishes quickly.
    let (child, addr) = spawn_daemon(&dir, &[("VISIM_TICK_MS", "50")]);
    let events = request(&addr, "{\"op\":\"watch\",\"count\":3}", is_done);
    let snapshots: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("snapshot"))
        .collect();
    assert_eq!(snapshots.len(), 3, "{events:?}");
    let done = events.iter().find(|e| is_done(e)).expect("done event");
    assert_eq!(counter(done, "snapshots"), 3, "{done:?}");
    let times: Vec<u64> = snapshots
        .iter()
        .map(|s| s.get("t_ms").and_then(Json::as_u64).expect("t_ms"))
        .collect();
    assert!(times.is_sorted(), "snapshot clock goes forward: {times:?}");
    for s in &snapshots {
        assert!(s.get("requests").is_some(), "{s:?}");
        assert!(s.get("in_flight").is_some(), "{s:?}");
        assert!(s.get("hit_ratio_pct").is_some(), "{s:?}");
    }
    shutdown(&addr, child);

    // Shutdown persisted the flight recorder; the bundled checker
    // accepts the artifact.
    let timeline = dir.join("results/json/serve_timeline.json");
    let text = std::fs::read_to_string(&timeline).expect("timeline written at shutdown");
    let doc = Json::parse(&text).expect("timeline parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("visim-serve-timeline-v1")
    );
    let check = hermetic_command(env!("CARGO_BIN_EXE_visim-serve"))
        .arg("--check-timeline")
        .arg(&timeline)
        .output()
        .expect("checker runs");
    assert!(
        check.status.success(),
        "--check-timeline rejected the artifact: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ping_answers_a_health_check() {
    let dir = scratch_dir("health");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let events = request(&addr, "{\"op\":\"ping\"}", |e| {
        e.get("event").and_then(Json::as_str) == Some("pong")
    });
    let pong = events.last().expect("pong event");
    assert_eq!(
        pong.get("schema").and_then(Json::as_str),
        Some("visim-serve-v2")
    );
    assert!(
        pong.get("uptime_seconds").and_then(Json::as_f64).is_some(),
        "{pong:?}"
    );
    let rev = pong.get("git_rev").and_then(Json::as_str).expect("git_rev");
    assert!(!rev.is_empty());
    assert_eq!(counter(pong, "in_flight"), 0, "{pong:?}");
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_requests_get_error_events_not_disconnects() {
    let dir = scratch_dir("badreq");
    let (child, addr) = spawn_daemon(&dir, &[]);
    for bad in [
        "not json",
        "{\"op\":\"warp\"}",
        "{\"op\":\"manifest\",\"name\":\"nope\"}",
        "{\"op\":\"cell\",\"name\":\"fig2\",\"label\":\"nope\",\"size\":\"tiny\"}",
        "{\"op\":\"manifest\",\"name\":\"fig2\",\"size\":\"huge\"}",
    ] {
        let events = request(&addr, bad, |e| {
            e.get("event").and_then(Json::as_str) == Some("error")
        });
        let last = events.last().expect("error event");
        assert!(
            last.get("error").and_then(Json::as_str).is_some(),
            "{bad} -> {last:?}"
        );
    }
    // The daemon is still healthy afterwards.
    let events = request(&addr, "{\"op\":\"ping\"}", |e| {
        e.get("event").and_then(Json::as_str) == Some("pong")
    });
    assert_eq!(events.len(), 1);
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
}

/// A persistent connection streams store hits without the delayed-ACK
/// stall. Each reply is three small writes (`start`, `cell`, `done`);
/// without `TCP_NODELAY` on the daemon's socket, Nagle's algorithm
/// holds the second until the client's delayed ACK of the first, about
/// 40 ms a request, so 50 requests could not finish in 2 s. Without the
/// stall they take milliseconds. The client keeps default socket
/// options, as the benchmark's load generator does.
#[test]
fn a_persistent_connection_streams_hits_without_a_stall() {
    let dir = scratch_dir("burst");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let req = "{\"op\":\"cell\",\"name\":\"fig2\",\"label\":\"conv/base\",\"size\":\"tiny\"}";
    let warm = request(&addr, req, is_done);
    assert_eq!(counter(warm.last().unwrap(), "ok"), 1, "{warm:?}");
    let mut stream = TcpStream::connect(&addr).expect("connect to daemon");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let line = format!("{req}\n");
    let begun = Instant::now();
    for i in 0..50 {
        stream.write_all(line.as_bytes()).unwrap();
        let mut cells = 0;
        loop {
            let mut text = String::new();
            assert!(
                reader.read_line(&mut text).unwrap() > 0,
                "request {i}: closed"
            );
            let event = Json::parse(text.trim_end()).expect("event parses");
            match event.get("event").and_then(Json::as_str) {
                Some("cell") => {
                    cells += 1;
                    assert_eq!(
                        event.get("from_store"),
                        Some(&Json::Bool(true)),
                        "request {i}: {event:?}"
                    );
                }
                Some("done") => break,
                Some("start") => {}
                other => panic!("request {i}: unexpected event {other:?}: {event:?}"),
            }
        }
        assert_eq!(cells, 1, "request {i}");
    }
    let took = begun.elapsed();
    drop((stream, reader));
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        took < Duration::from_secs(1),
        "50 store hits over one connection took {took:?}"
    );
}

#[test]
fn an_overlong_request_line_is_refused_and_the_daemon_stays_healthy() {
    const MAX_LINE: usize = 1 << 20;
    let dir = scratch_dir("longline");
    let (child, addr) = spawn_daemon(&dir, &[]);
    let mut stream = TcpStream::connect(&addr).expect("connect to daemon");
    // One byte over the cap and no newline: the daemon reads exactly
    // this much, answers, and closes.
    stream.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut text = String::new();
    reader.read_line(&mut text).expect("error event");
    let event = Json::parse(text.trim_end()).expect("event parses");
    assert_eq!(
        event.get("event").and_then(Json::as_str),
        Some("error"),
        "{event:?}"
    );
    let error = event.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("longer than 1048576 bytes"), "{error}");
    text.clear();
    assert_eq!(
        reader.read_line(&mut text).unwrap_or(0),
        0,
        "the connection is closed: {text:?}"
    );
    // A line exactly at the cap is still a request, and a fresh short
    // one is answered too.
    let padded = format!("{{\"op\":\"ping\"}}{}", " ".repeat(MAX_LINE - 13));
    let events = request(&addr, &padded, |e| {
        matches!(
            e.get("event").and_then(Json::as_str),
            Some("pong" | "error")
        )
    });
    assert_eq!(
        events
            .last()
            .and_then(|e| e.get("event"))
            .and_then(Json::as_str),
        Some("pong"),
        "{events:?}"
    );
    let events = request(&addr, "{\"op\":\"ping\"}", |e| {
        e.get("event").and_then(Json::as_str) == Some("pong")
    });
    assert_eq!(events.len(), 1);
    shutdown(&addr, child);
    std::fs::remove_dir_all(&dir).ok();
}
