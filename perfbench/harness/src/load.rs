//! The `serve-mixed` load generator: one process, two concurrent
//! closed-loop connections to a `visim-serve` daemon, default socket
//! options.
//!
//! - The *per-request* connection reconnects for every request, as
//!   `visim-serve client` does, and sends `--requests` cell requests.
//! - The *session* connection sends its requests over one socket, as
//!   the line protocol allows, for as long as the per-request script
//!   runs.
//!
//! The timed region is the per-request script; the session is
//! concurrent load on the daemon. Both connections draw by seeded Zipf
//! sampling over the 114 tiny cells of `fig1`, `fig2` and `fig3`, with
//! the same popular cells, so a cell both request while it simulates
//! coalesces onto one simulation. Afterwards an untimed verification
//! pass requests a fixed seeded subset of the cells. Latency is
//! measured at the client, from before `connect` (per-request) or
//! before the request write (session) to the terminal event. With
//! `--trace-out`, every request also records client-side spans
//! (connect, sent → `start`, `start` → `cell`, `cell` → `done`) and the
//! daemon's `stats` are read at the end.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use visim::manifest::Manifest;
use visim_obs::Json;
use visim_util::{fnv1a64, Rng};

use crate::args::Args;
use crate::spans::{Span, Spans};

/// Root span names of the two connections' requests.
const PER_REQUEST: &str = "serve.request";
const SESSION: &str = "serve.session_request";

/// One cell a request names.
#[derive(Clone)]
struct Target {
    manifest: String,
    label: String,
}

impl Target {
    /// Labels repeat across manifests (`fig2` and `fig3` both have
    /// `conv/vis`), so cells are keyed by manifest and label.
    fn key(&self) -> String {
        format!("{}:{}", self.manifest, self.label)
    }
}

/// What one request observed.
struct Reply {
    label: String,
    ms: f64,
    /// When the request ended, in seconds since the timed region began.
    end_s: f64,
    ok: bool,
    /// `hit`, `miss`, `coalesced`, or `failed`.
    path: &'static str,
    /// Simulated cycles (timed cells) or retired instructions (counted
    /// cells), as the daemon reported them.
    value: Option<u64>,
}

impl Reply {
    /// A request that never got a terminal event (connect failed).
    fn failed(label: String) -> Reply {
        Reply {
            label,
            ms: 0.0,
            end_s: 0.0,
            ok: false,
            path: "failed",
            value: None,
        }
    }
}

/// The builtin manifests whose cells the load requests.
const MANIFESTS: [&str; 3] = ["fig1", "fig2", "fig3"];
/// The workload size every request names.
const SIZE: &str = "tiny";

/// The cells of `MANIFESTS`.
fn targets() -> Result<Vec<Target>, String> {
    let mut out = Vec::new();
    for name in MANIFESTS {
        let m = Manifest::builtin(name).ok_or_else(|| format!("no builtin manifest {name:?}"))?;
        for cell in m.cells() {
            out.push(Target {
                manifest: name.to_string(),
                label: cell.label().to_string(),
            });
        }
    }
    Ok(out)
}

/// The Zipf exponent of both connections' cell popularity.
const ZIPF_S: f64 = 1.0;

/// A seeded Zipf(`s`) sampler over `n` ranks. The rank → cell mapping
/// is a permutation seeded by `order_seed`, so that seed picks the
/// popular cells; `draw_seed` seeds the draws.
struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
    rng: Rng,
}

impl Zipf {
    fn new(n: usize, s: f64, order_seed: u64, draw_seed: u64) -> Zipf {
        let mut order: Vec<usize> = (0..n).collect();
        let mut shuffle = Rng::seed_from_u64(order_seed);
        for i in (1..n).rev() {
            let j = shuffle.gen_range(0..i + 1);
            order.swap(i, j);
        }
        let rng = Rng::seed_from_u64(draw_seed);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, order, rng }
    }

    fn next(&mut self) -> usize {
        let u = self.rng.f64_unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

fn request_line(t: &Target) -> String {
    let mut line = Json::obj(vec![
        ("op", Json::from("cell")),
        ("name", Json::from(t.manifest.as_str())),
        ("label", Json::from(t.label.as_str())),
        ("size", Json::from(SIZE)),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// Client-side timestamps of one request, in ns since the run epoch.
#[derive(Default)]
struct Stamps {
    begin: u64,
    connected: u64,
    sent: u64,
    start: u64,
    cell: u64,
    done: u64,
}

/// Send `line` on an open connection and read events to the terminal
/// one. Transport errors and `error` events are failures.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    line: &str,
    label: &str,
    epoch: Instant,
    st: &mut Stamps,
) -> Reply {
    let ns = || epoch.elapsed().as_nanos() as u64;
    let mut reply = Reply::failed(label.to_string());
    if reader.get_mut().write_all(line.as_bytes()).is_err() || reader.get_mut().flush().is_err() {
        return reply;
    }
    st.sent = ns();
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) | Err(_) => return reply,
            Ok(_) => {}
        }
        let Ok(event) = Json::parse(buf.trim_end()) else {
            return reply;
        };
        match event.get("event").and_then(Json::as_str) {
            Some("start") => st.start = ns(),
            Some("cell") => {
                st.cell = ns();
                let ok = event.get("status").and_then(Json::as_str) == Some("ok");
                let flag = |k| event.get(k) == Some(&Json::Bool(true));
                reply.ok = ok;
                reply.path = match (ok, flag("coalesced"), flag("from_store")) {
                    (false, _, _) => "failed",
                    (true, true, _) => "coalesced",
                    (true, false, true) => "hit",
                    (true, false, false) => "miss",
                };
                reply.value = event
                    .get("cycles")
                    .or_else(|| event.get("retired"))
                    .and_then(Json::as_u64);
            }
            Some("done") => {
                st.done = ns();
                let failed = event.get("failed").and_then(Json::as_u64).unwrap_or(1);
                reply.ok &= failed == 0 && reply.value.is_some();
                return reply;
            }
            _ => return Reply { ok: false, ..reply },
        }
    }
}

fn connect(addr: &str) -> Option<BufReader<TcpStream>> {
    TcpStream::connect(addr).ok().map(BufReader::new)
}

/// Client-side spans of one request: the whole request and its phases.
fn request_spans(spans: &mut Spans, st: &Stamps, conn: &'static str, id: &str) {
    let root = spans.push(Span {
        name: conn,
        start_ns: st.begin,
        end_ns: st.done.max(st.begin),
        parent: None,
        id: id.to_string(),
    });
    let mut phase = |name, a: u64, b: u64| {
        if a > 0 && b >= a {
            spans.push(Span {
                name,
                start_ns: a,
                end_ns: b,
                parent: Some(root),
                id: id.to_string(),
            });
        }
    };
    phase("serve.connect", st.begin, st.connected);
    phase("serve.to_start", st.sent, st.start);
    phase("serve.start_to_cell", st.start, st.cell);
    phase("serve.cell_to_done", st.cell, st.done);
}

/// One control request (`stats`) on a fresh connection.
fn control(addr: &str, op: &str) -> Option<Json> {
    let mut reader = connect(addr)?;
    let line = format!("{{\"op\":\"{op}\"}}\n");
    reader.get_mut().write_all(line.as_bytes()).ok()?;
    let mut buf = String::new();
    reader.read_line(&mut buf).ok()?;
    Json::parse(buf.trim_end()).ok()
}

fn ms_json(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::from(x)).collect())
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// What both connections of the timed region share.
struct Load<'a> {
    addr: &'a str,
    cells: &'a [Target],
    /// Seeds the rank → cell permutation of both connections.
    order_seed: u64,
    /// The clock of the client-side spans.
    epoch: Instant,
    /// The start of the timed region.
    t0: Instant,
    tracing: bool,
    /// Set when the per-request script ends; the session stops then.
    stop: AtomicBool,
}

impl Load<'_> {
    /// One connection's closed-loop script: up to `n` requests drawn
    /// by Zipf sampling over the cells, ending early once `stop` is
    /// set. A per-request connection (`persistent` off) connects for
    /// every request; a session keeps one socket and reconnects only
    /// after a failure. Returns the replies and, when tracing, their
    /// spans.
    fn run_script(&self, n: usize, seed: u64, persistent: bool) -> (Vec<Reply>, Spans) {
        let (root, prefix) = if persistent {
            (SESSION, "s")
        } else {
            (PER_REQUEST, "r")
        };
        let epoch = self.epoch;
        let mut spans = Spans::new(epoch);
        let mut zipf = Zipf::new(self.cells.len(), ZIPF_S, self.order_seed, seed);
        let mut replies = Vec::new();
        let mut session = None;
        for i in 0..n {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let t = &self.cells[zipf.next()];
            let mut st = Stamps::default();
            let r0 = Instant::now();
            st.begin = epoch.elapsed().as_nanos() as u64;
            let mut fresh;
            let conn = if persistent {
                if session.is_none() {
                    session = connect(self.addr);
                }
                session.as_mut()
            } else {
                fresh = connect(self.addr);
                st.connected = epoch.elapsed().as_nanos() as u64;
                fresh.as_mut()
            };
            let reply = match conn {
                Some(c) => exchange(c, &request_line(t), &t.key(), epoch, &mut st),
                None => Reply::failed(t.key()),
            };
            if !reply.ok {
                session = None;
            }
            let ms = r0.elapsed().as_secs_f64() * 1e3;
            let end_s = self.t0.elapsed().as_secs_f64();
            if self.tracing {
                request_spans(&mut spans, &st, root, &format!("{prefix}{i}"));
            }
            replies.push(Reply { ms, end_s, ..reply });
        }
        (replies, spans)
    }
}

pub fn main(args: &Args) -> Result<(), String> {
    let addr = args.str("addr")?;
    let seed = args.u64("seed")?;
    // Each epoch of a run draws its own request scripts; the
    // verification set depends on the run seed alone.
    let script_seed = seed ^ args.u64("epoch")?.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let requests = args.u64("requests")? as usize;
    let verify = args.u64("verify")? as usize;
    let trace_out = args.opt("trace-out").map(str::to_string);
    let cells = targets()?;
    let epoch = Instant::now();

    // The timed region: the per-request script, with the session
    // running next to it until it ends.
    let load = Load {
        addr: &addr,
        cells: &cells,
        order_seed: seed,
        epoch,
        t0: Instant::now(),
        tracing: trace_out.is_some(),
        stop: AtomicBool::new(false),
    };
    let (wall_s, (perreq, perreq_spans), (session, session_spans)) = std::thread::scope(|s| {
        let session = s.spawn(|| load.run_script(usize::MAX, script_seed ^ 0x5e55_1011, true));
        let perreq = load.run_script(requests, script_seed, false);
        let wall_s = load.t0.elapsed().as_secs_f64();
        load.stop.store(true, Ordering::Relaxed);
        (wall_s, perreq, session.join().expect("session thread"))
    });
    let timed = perreq.len() + session.iter().filter(|r| r.end_s <= wall_s).count();

    // Untimed verification pass over a fixed seeded subset of the cells.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x7e21_f1ed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let verify_set: Vec<Target> = order
        .iter()
        .take(verify)
        .map(|&ix| cells[ix].clone())
        .collect();
    let verified: Vec<Reply> = verify_set
        .iter()
        .map(|t| {
            let mut st = Stamps::default();
            match connect(&addr) {
                Some(mut c) => exchange(&mut c, &request_line(t), &t.key(), epoch, &mut st),
                None => Reply::failed(t.key()),
            }
        })
        .collect();

    // Every request for a cell must report the same value: a hit
    // returns what the miss that stored it computed.
    let mut values: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut mismatches = 0u64;
    for r in perreq.iter().chain(&session).chain(&verified) {
        if let Some(v) = r.value {
            if *values.entry(r.label.as_str()).or_insert(v) != v {
                mismatches += 1;
            }
        }
    }
    let mut digest_input = String::new();
    for r in &verified {
        digest_input.push_str(&format!("{}={:?}\n", r.label, r.value));
    }
    let by_path = |rs: &[Reply], p: &str| -> Vec<f64> {
        rs.iter().filter(|r| r.path == p).map(|r| r.ms).collect()
    };
    let all = || perreq.iter().chain(&session).chain(&verified);
    let failed = all().filter(|r| !r.ok).count();
    let mut members = vec![
        ("wall_s", Json::from(wall_s)),
        ("timed_requests", Json::from(timed)),
        ("attempted", Json::from(all().count())),
        ("failed", Json::from(failed)),
        ("mismatches", Json::from(mismatches)),
        (
            "verify_digest",
            Json::from(format!("{:016x}", fnv1a64(digest_input.as_bytes()))),
        ),
        ("hit_ms", ms_json(&by_path(&perreq, "hit"))),
        ("miss_ms", ms_json(&by_path(&perreq, "miss"))),
        (
            "perreq_ms",
            ms_json(&perreq.iter().map(|r| r.ms).collect::<Vec<_>>()),
        ),
        (
            "session_ms",
            ms_json(&session.iter().map(|r| r.ms).collect::<Vec<_>>()),
        ),
        (
            "coalesced",
            Json::from(all().filter(|r| r.path == "coalesced").count()),
        ),
    ];
    if let Some(path) = &trace_out {
        let mut spans = perreq_spans;
        spans.absorb(session_spans);
        members.push(("layers", serve_layers(&spans, &addr)));
        let mut text = spans.chrome_trace().to_compact();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", Json::obj(members).to_compact());
    Ok(())
}

/// The `serve.*` per-layer metrics: client-side span medians plus the
/// daemon's own `stats` (hit ratio, coalesced count, phase medians).
fn serve_layers(spans: &Spans, addr: &str) -> Json {
    // Median duration of phase `name` under the requests of one
    // connection (`conn` names their root spans).
    let phase_ns = |conn: &str, name: &str| -> f64 {
        let all = spans.spans();
        let durations = all
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| all[p].name == conn))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        median(durations)
    };
    let stats = control(addr, "stats").unwrap_or(Json::Null);
    let phase_p50 = |phase: &str| -> f64 {
        stats
            .get("phases")
            .and_then(|p| p.get(phase))
            .and_then(|p| p.get("p50_ns"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let serve = stats.get("serve");
    let counter = |k: &str| {
        serve
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let requests = counter("requests").max(1.0);
    Json::obj(vec![
        (
            "serve.connect_us",
            Json::from(phase_ns(PER_REQUEST, "serve.connect") / 1e3),
        ),
        (
            "serve.to_start_us",
            Json::from(phase_ns(PER_REQUEST, "serve.to_start") / 1e3),
        ),
        (
            "serve.start_to_cell_ms",
            Json::from(phase_ns(SESSION, "serve.start_to_cell") / 1e6),
        ),
        (
            "serve.cell_to_done_ms",
            Json::from(phase_ns(SESSION, "serve.cell_to_done") / 1e6),
        ),
        ("serve.hit_ratio", Json::from(counter("hits") / requests)),
        ("serve.coalesced", Json::from(counter("coalesced"))),
        (
            "serve.phase.store_lookup_p50_us",
            Json::from(phase_p50("store_lookup") / 1e3),
        ),
        (
            "serve.phase.simulate_p50_ms",
            Json::from(phase_p50("simulate") / 1e6),
        ),
        (
            "serve.phase.respond_p50_us",
            Json::from(phase_p50("respond") / 1e3),
        ),
    ])
}
