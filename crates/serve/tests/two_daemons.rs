//! Two daemons, one after the other, in one process: each `serve()`
//! owns its state, so the second answers exactly as the first did.
//!
//! This binary holds a single test, so it may move the process's
//! working directory (where a daemon writes `results/json`) to a
//! scratch directory.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use visim::RunCtx;
use visim_obs::Json;
use visim_serve::daemon::{serve, DaemonConfig};
use visim_serve::proto::{ManifestSource, Request};

/// Poll the daemon's `--addr-file` for its bound address.
fn wait_for_addr(addr_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(line) = std::fs::read_to_string(addr_file) {
            if line.ends_with('\n') {
                let event = Json::parse(line.trim()).expect("listening event parses");
                return event
                    .get("addr")
                    .and_then(Json::as_str)
                    .expect("listening event carries the address")
                    .to_string();
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its address");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Send one request on a fresh connection and return the events up to
/// and including the one named `last`.
fn request(addr: &str, req: &Request, last: &str) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    writeln!(stream, "{}", req.to_line()).unwrap();
    let mut events = Vec::new();
    for line in BufReader::new(stream).lines() {
        let event = Json::parse(&line.expect("event line")).expect("event parses");
        let done = event.get("event").and_then(Json::as_str) == Some(last);
        events.push(event);
        if done {
            return events;
        }
    }
    panic!("connection closed before a {last:?} event: {events:?}");
}

/// Run one daemon on a thread, ping it, run `fig2 tiny` through it and
/// shut it down over the protocol.
fn one_daemon(round: u32) {
    let addr_file = std::env::current_dir()
        .unwrap()
        .join(format!("addr-{round}.txt"));
    let cfg = DaemonConfig {
        port: 0,
        addr_file: Some(addr_file.to_string_lossy().into_owned()),
        trace_out: None,
    };
    let ctx = RunCtx {
        jobs: 2,
        ..RunCtx::default()
    };
    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(&cfg, ctx));
        let addr = wait_for_addr(&addr_file);
        let pong = request(&addr, &Request::Ping, "pong");
        assert_eq!(pong.len(), 1, "round {round}: {pong:?}");
        let fig2 = Request::Manifest {
            source: ManifestSource::Builtin("fig2".into()),
            size: "tiny".into(),
        };
        let events = request(&addr, &fig2, "done");
        let done = events.last().unwrap();
        assert_eq!(done.get("ok").and_then(Json::as_u64), Some(24), "{done:?}");
        assert_eq!(done.get("failed").and_then(Json::as_u64), Some(0));
        request(&addr, &Request::Shutdown, "bye");
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
}

#[test]
fn a_second_daemon_in_the_same_process_serves_like_the_first() {
    let dir = std::env::temp_dir().join(format!("visim-two-daemons-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();
    for round in [1, 2] {
        one_daemon(round);
        assert!(Path::new("results/json/serve.json").exists());
        std::fs::remove_dir_all("results").unwrap();
    }
    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
