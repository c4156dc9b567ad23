//! The daemon: TCP accept loop, per-connection protocol handling, and
//! the single-flight cell executor over the result store.
//!
//! Threading model: one OS thread per connection, joined by the accept
//! loop once it has ended, with each manifest request fanning its cells
//! out over the experiment worker pool (the run context's `jobs`,
//! scoped threads — concurrent manifests each get their own pool scope
//! and share the process-wide metrics sink). Cell deduplication
//! happens *across* connections through the single-flight table, so two
//! clients submitting overlapping manifests never simulate a cell twice.
//!
//! Telemetry: every cell request is counted (`serve.*`) and timed
//! through its lifecycle phases (read/parse → store lookup → coalesce
//! wait → queue wait → simulate → respond) into the process-wide
//! metrics sink ([`visim_obs::live::global`]) — the one the library's
//! store, trace-cache, retry, fault and pool counters also land in.
//! The `stats` event and the flight recorder (a tick thread sampling
//! the sink every `VISIM_TICK_MS`, streamed to `watch` clients) read it
//! live; at shutdown one drain of it becomes `results/json/serve.json`,
//! and the recorder persists as `results/json/serve_timeline.json`
//! (plus, with `--trace-out`, a Chrome-trace request timeline).
//!
//! Everything else a daemon keeps is one `Daemon` value that [`serve`]
//! builds and every handler takes by reference, so two daemons in one
//! process share nothing but the metrics sink.
//!
//! A store hit costs what a store lookup costs: every accepted socket
//! sets `TCP_NODELAY`, so each event line leaves when it is written; a
//! builtin manifest is resolved once per daemon and size, on first use,
//! with each cell's store key formatted once beside it; and the accept
//! loop joins the connection threads that have ended.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use visim::bench::WorkloadSize;
use visim::ctx::{self, RunCtx};
use visim::experiment::{self, CellOutput};
use visim::manifest::{CellSpec, Manifest};
use visim::store::CellKey;
use visim_obs::live::{self, names};
use visim_obs::log;
use visim_obs::schema::ResultsDoc;
use visim_obs::trace::InstSpan;
use visim_obs::{Histogram, Json};

use crate::proto::{size_from_name, ManifestSource, Request};
use crate::telemetry::{self, SnapshotRing};
use crate::SERVE_SCHEMA;

/// Requests received, counted per cell (a manifest of 24 cells is 24
/// requests).
const REQUESTS: &str = "serve.requests";
/// Cells served straight from the result store.
const HITS: &str = "serve.hits";
/// Cells that had to be simulated.
const MISSES: &str = "serve.misses";
/// Cells that joined another request's in-flight simulation.
const COALESCED: &str = "serve.coalesced";
/// Cells whose simulation failed.
const FAILURES: &str = "serve.failures";
/// The daemon's counters, declared in the sink at startup so
/// `serve.json` carries them even at zero.
const COUNTERS: [&str; 5] = [REQUESTS, HITS, MISSES, COALESCED, FAILURES];
/// The longest request line the daemon reads, newline excluded. A
/// longer one gets an `error` event and the connection is closed, so a
/// stream without newlines cannot grow the daemon's buffer unbounded.
const MAX_LINE: usize = 1 << 20;

/// One running daemon's state, built once by [`serve`].
struct Daemon {
    /// The run context every connection runs its requests under.
    ctx: RunCtx,
    /// The epoch of phase, span and snapshot timestamps.
    started: Instant,
    /// Graceful-shutdown latch, set by the `shutdown` op.
    shutdown: AtomicBool,
    /// The single-flight table.
    flights: Flights,
    /// The builtin manifests requested so far, resolved.
    manifests: Manifests,
    /// The flight recorder's snapshot ring.
    ring: SnapshotRing,
    /// Request spans for `--trace-out`; `None` without the flag, so the
    /// request path takes no lock.
    spans: Option<Mutex<Vec<InstSpan>>>,
    /// The flight-recorder tick interval (`VISIM_TICK_MS`).
    tick: Duration,
    /// The slow-request threshold (`VISIM_SLOW_MS`), `None` if disabled.
    slow_ns: Option<u64>,
}

/// A millisecond count from the environment variable `name`.
fn env_ms(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// One in-flight cell simulation: the leader fills `slot` and notifies;
/// followers wait on `cv`.
struct Flight {
    slot: Mutex<Option<CellResult>>,
    cv: Condvar,
}

/// The single-flight table, keyed on the text of a cell's store key.
type Flights = Mutex<HashMap<String, Arc<Flight>>>;

/// Retires a leader's flight when dropped: fills the slot with a failed
/// result unless the leader published one (its compute panicked), wakes
/// the followers, and removes the key so later requests start afresh.
struct Retire<'a>(&'a Flights, &'a str, &'a Flight);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let Retire(flights, key, flight) = self;
        // Never panic in drop: this may run while a panic unwinds.
        if let Ok(mut slot) = flight.slot.lock() {
            slot.get_or_insert_with(|| CellResult::failed("the cell's simulation panicked".into()));
        }
        flight.cv.notify_all();
        if let Ok(mut map) = flights.lock() {
            map.remove(*key);
        }
    }
}

/// The outcome of one cell, shared verbatim between the leader and any
/// coalesced followers.
#[derive(Debug, Clone)]
struct CellResult {
    /// The error text when the simulation failed.
    error: Option<String>,
    /// Whether the result came from the store (leader's perspective;
    /// followers report `coalesced` instead).
    from_store: bool,
    /// Small headline payload members for the `cell` event.
    payload: Vec<(String, Json)>,
}

impl CellResult {
    fn failed(error: String) -> CellResult {
        CellResult {
            error: Some(error),
            from_store: false,
            payload: Vec::new(),
        }
    }
}

/// One cell of a resolved manifest and its store key, formatted on
/// first use.
struct Cell {
    spec: CellSpec,
    key: OnceLock<CellKey>,
}

impl Cell {
    /// The cell's result-store key under `ctx` ([`RunCtx::cell_key`],
    /// sampling geometry included), formatted once. Its text is also
    /// the cell's single-flight key: two requests coalesce exactly when
    /// the store would file their results under one entry.
    fn key(&self, ctx: &RunCtx, size: &WorkloadSize) -> &CellKey {
        self.key.get_or_init(|| ctx.cell_key(&self.spec, size))
    }
}

/// A manifest resolved at one workload size: its cells in grid order
/// and where each label sits among them.
struct Resolved {
    /// The manifest's name, for the `start` and `done` events.
    name: String,
    size: WorkloadSize,
    cells: Vec<Cell>,
    by_label: HashMap<String, Vec<usize>>,
}

impl Resolved {
    fn new(manifest: &Manifest, size: WorkloadSize) -> Resolved {
        let cells: Vec<Cell> = manifest
            .cells()
            .into_iter()
            .map(|spec| Cell {
                spec,
                key: OnceLock::new(),
            })
            .collect();
        let mut by_label: HashMap<String, Vec<usize>> = HashMap::new();
        for (ix, cell) in cells.iter().enumerate() {
            by_label
                .entry(cell.spec.label().to_string())
                .or_default()
                .push(ix);
        }
        Resolved {
            name: manifest.name.clone(),
            size,
            cells,
            by_label,
        }
    }

    /// Every cell, or only those labeled `label`, in grid order.
    fn select(&self, label: Option<&str>) -> Result<Vec<&Cell>, String> {
        let Some(label) = label else {
            return Ok(self.cells.iter().collect());
        };
        let ixs = self
            .by_label
            .get(label)
            .ok_or_else(|| format!("manifest {} has no cell labeled {label:?}", self.name))?;
        Ok(ixs.iter().map(|&ix| &self.cells[ix]).collect())
    }
}

/// The builtin manifests a daemon has served, by name and then size
/// name, each resolved by the first request that names it.
#[derive(Default)]
struct Manifests(Mutex<HashMap<String, HashMap<String, Arc<Resolved>>>>);

impl Manifests {
    /// Resolve a request's manifest source at `size_name`. A builtin
    /// comes from the memo after its first request; a path is read from
    /// the daemon's filesystem on every request, so an edited file is
    /// served from its new text.
    fn resolve(&self, source: &ManifestSource, size_name: &str) -> Result<Arc<Resolved>, String> {
        let name = match source {
            ManifestSource::Builtin(name) => name,
            ManifestSource::Path(path) => {
                let manifest = Manifest::load_file(path)?;
                return Ok(Arc::new(Resolved::new(
                    &manifest,
                    size_from_name(size_name)?,
                )));
            }
        };
        let memo = self.0.lock().expect("manifest memo lock");
        if let Some(hit) = memo
            .get(name.as_str())
            .and_then(|by_size| by_size.get(size_name))
        {
            return Ok(Arc::clone(hit));
        }
        drop(memo);
        let manifest = Manifest::builtin(name).ok_or_else(|| {
            format!(
                "unknown builtin manifest {name:?}; have: {}",
                Manifest::builtin_names().join(", ")
            )
        })?;
        let resolved = Arc::new(Resolved::new(&manifest, size_from_name(size_name)?));
        // Two first requests may race here; the first to insert wins.
        let mut map = self.0.lock().expect("manifest memo lock");
        Ok(Arc::clone(
            map.entry(name.clone())
                .or_default()
                .entry(size_name.to_string())
                .or_insert(resolved),
        ))
    }
}

/// Execute `compute` under single-flight in `flights`: the first
/// requester of `key` runs it, everyone else arriving before completion
/// waits and shares the result. Returns the result plus whether *this*
/// caller coalesced. A leader whose compute panics still retires its
/// flight (followers get a failed result) before the panic goes on.
fn single_flight(
    flights: &Flights,
    key: &str,
    compute: impl FnOnce() -> CellResult,
) -> (CellResult, bool) {
    let flight = {
        let mut map = flights.lock().expect("flight table lock");
        if let Some(f) = map.get(key) {
            Arc::clone(f)
        } else {
            let f = Arc::new(Flight {
                slot: Mutex::new(None),
                cv: Condvar::new(),
            });
            map.insert(key.to_string(), Arc::clone(&f));
            drop(map);
            // Leader: simulate outside the table lock, publish, then
            // retire the flight so later requests go to the store.
            let _retire = Retire(flights, key, &f);
            let result = compute();
            *f.slot.lock().expect("flight slot lock") = Some(result.clone());
            return (result, false);
        }
    };
    let waited = Instant::now();
    let mut slot = flight.slot.lock().expect("flight slot lock");
    while slot.is_none() {
        slot = flight.cv.wait(slot).expect("flight slot wait");
    }
    live::global().observe_latency_ns(
        names::PHASE_COALESCE_WAIT,
        waited.elapsed().as_nanos() as u64,
    );
    (slot.clone().expect("flight slot filled"), true)
}

/// Cells currently in flight (single-flight leaders that have not yet
/// published their result).
fn in_flight_count(daemon: &Daemon) -> u64 {
    daemon.flights.lock().expect("flight table lock").len() as u64
}

/// Run one cell through the experiment layer's cell executor
/// ([`RunCtx::run_keyed`]), which owns the store lookup, checksum
/// validation, stale purge, fault injection and retry, and adapt its
/// outcome onto the `cell` event's shape.
fn serve_cell(ctx: &RunCtx, spec: &CellSpec, key: &CellKey, size: &WorkloadSize) -> CellResult {
    match ctx.run_keyed(spec, key, size) {
        Ok((output, from_store)) => {
            let payload = match output {
                CellOutput::Timed(s) => vec![("cycles".to_string(), Json::from(s.cycles()))],
                CellOutput::Counted(c) => vec![("retired".to_string(), Json::from(c.retired))],
            };
            CellResult {
                error: None,
                from_store,
                payload,
            }
        }
        Err(e) => CellResult::failed(e.to_string()),
    }
}

/// Write one event line to the (shared) client stream, reporting
/// whether the client is still reachable. Most callers ignore the
/// answer: a client that hung up mid-manifest must not abort the
/// simulations — their results still land in the store for the next
/// requester. Streaming loops use it to stop instead of spinning
/// against a dead socket.
fn send(stream: &Mutex<TcpStream>, event: &Json) -> bool {
    let mut line = event.to_compact();
    line.push('\n');
    let mut guard = stream.lock().expect("client stream lock");
    guard.write_all(line.as_bytes()).is_ok() && guard.flush().is_ok()
}

/// Per-request tally, reported in the terminal `done` event (the
/// `serve.*` counters aggregate the same quantities daemon-wide).
#[derive(Default)]
struct Tally {
    failed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    done: AtomicU64,
}

/// Run `cells` over the worker pool, streaming a `cell` event per
/// completion, and return the tally for the `done` event.
///
/// This is where the request lifecycle is stitched together: each cell
/// gets a daemon-wide request id, its queue wait, serving path (hit /
/// miss / coalesced), respond time, and end-to-end latency land in the
/// live registry (the store-lookup and simulate phases are recorded
/// inside `visim::experiment`), slow requests are logged, and — when
/// `--trace-out` armed the collector — the whole lifecycle becomes one
/// trace span.
fn run_cells(
    daemon: &Daemon,
    cells: Vec<&Cell>,
    size: &WorkloadSize,
    stream: &Mutex<TcpStream>,
) -> Tally {
    let ctx = &daemon.ctx;
    let total = cells.len();
    let tally = Tally::default();
    let live = live::global();
    // Counter handles, looked up once per request batch: the per-cell
    // path is then one atomic add per counter, and the request counter's
    // `fetch_add` hands out the daemon-wide request id.
    let [requests, hits, misses, coalesced_n, failures] = COUNTERS.map(|n| live.handle(n));
    let work: Vec<_> = cells
        .into_iter()
        .map(|cell| {
            let tally = &tally;
            let (requests, hits, misses, coalesced_n, failures) =
                (&requests, &hits, &misses, &coalesced_n, &failures);
            let enqueued = Instant::now();
            move || {
                let id = requests.fetch_add(1, Ordering::Relaxed) + 1;
                let begun = Instant::now();
                live.observe_latency_ns(
                    names::PHASE_QUEUE_WAIT,
                    begun.duration_since(enqueued).as_nanos() as u64,
                );
                let (spec, key) = (&cell.spec, cell.key(ctx, size));
                let (result, coalesced) = single_flight(&daemon.flights, key.text(), || {
                    serve_cell(ctx, spec, key, size)
                });
                let served = Instant::now();
                let (path, path_op) = if coalesced {
                    coalesced_n.fetch_add(1, Ordering::Relaxed);
                    tally.coalesced.fetch_add(1, Ordering::Relaxed);
                    (names::PATH_COALESCED, "coalesced")
                } else if result.from_store {
                    hits.fetch_add(1, Ordering::Relaxed);
                    tally.hits.fetch_add(1, Ordering::Relaxed);
                    (names::PATH_HIT, "hit")
                } else {
                    misses.fetch_add(1, Ordering::Relaxed);
                    tally.misses.fetch_add(1, Ordering::Relaxed);
                    (names::PATH_MISS, "miss")
                };
                let ok = result.error.is_none();
                if !ok {
                    failures.fetch_add(1, Ordering::Relaxed);
                    tally.failed.fetch_add(1, Ordering::Relaxed);
                }
                let done = tally.done.fetch_add(1, Ordering::Relaxed) + 1;
                let mut members = vec![
                    ("event", Json::from("cell")),
                    ("label", Json::from(spec.label())),
                    ("status", Json::from(if ok { "ok" } else { "failed" })),
                    ("from_store", Json::Bool(result.from_store)),
                    ("coalesced", Json::Bool(coalesced)),
                    ("done", Json::from(done)),
                    ("total", Json::from(total)),
                ];
                for (k, v) in &result.payload {
                    members.push((k.as_str(), v.clone()));
                }
                if let Some(e) = &result.error {
                    members.push(("error", Json::from(e.as_str())));
                }
                send(stream, &Json::obj(members));
                let finished = Instant::now();
                live.observe_latency_ns(
                    names::PHASE_RESPOND,
                    finished.duration_since(served).as_nanos() as u64,
                );
                let total_ns = finished.duration_since(enqueued).as_nanos() as u64;
                live.observe_latency_ns(path, total_ns);
                if daemon.slow_ns.is_some_and(|t| total_ns >= t) {
                    log::warn(
                        "serve",
                        &format!(
                            "slow request #{id} {} ({path_op}): {:.1} ms end to end",
                            spec.label(),
                            total_ns as f64 / 1e6
                        ),
                    );
                }
                if let Some(spans) = &daemon.spans {
                    let us = |t: Instant| t.duration_since(daemon.started).as_micros() as u64;
                    spans.lock().expect("request spans lock").push(InstSpan {
                        seq: id,
                        pc: id,
                        op: if ok { path_op } else { "failed" },
                        fetch: us(enqueued),
                        dispatch: us(begun),
                        issue: us(begun),
                        complete: us(served),
                        retire: us(finished),
                    });
                }
            }
        })
        .collect();
    ctx.run_parallel(work);
    tally
}

/// Handle a `manifest` or `cell` request end to end: resolve, run,
/// stream, and send the terminal `done` event.
fn handle_run(
    daemon: &Daemon,
    source: &ManifestSource,
    only_label: Option<&str>,
    size_name: &str,
    stream: &Mutex<TcpStream>,
) -> Result<(), String> {
    let manifest = daemon.manifests.resolve(source, size_name)?;
    let cells = manifest.select(only_label)?;
    send(
        stream,
        &Json::obj(vec![
            ("event", Json::from("start")),
            ("manifest", Json::from(manifest.name.as_str())),
            ("size", Json::from(size_name)),
            ("cells", Json::from(cells.len())),
        ]),
    );
    let tally = run_cells(daemon, cells, &manifest.size, stream);
    let (done, failed) = (tally.done.into_inner(), tally.failed.into_inner());
    send(
        stream,
        &Json::obj(vec![
            ("event", Json::from("done")),
            ("manifest", Json::from(manifest.name.as_str())),
            ("cells", Json::from(done)),
            ("ok", Json::from(done - failed)),
            ("failed", Json::from(failed)),
            ("hits", Json::from(tally.hits.load(Ordering::Relaxed))),
            ("misses", Json::from(tally.misses.load(Ordering::Relaxed))),
            (
                "coalesced",
                Json::from(tally.coalesced.load(Ordering::Relaxed)),
            ),
        ]),
    );
    Ok(())
}

/// The daemon-wide serve counters, read live off the sink, plus the
/// in-flight count and the integer hit ratio in percent (hits × 100 /
/// requests, 0 before the first request; integral so shell gates can
/// grep it exactly). Shared by the `stats` and `snapshot` events.
fn serve_members(daemon: &Daemon) -> Vec<(&'static str, Json)> {
    let sink = live::global();
    let [requests, hits, misses, coalesced, failures] = COUNTERS.map(|n| sink.counter(n));
    vec![
        ("requests", Json::from(requests)),
        ("hits", Json::from(hits)),
        ("misses", Json::from(misses)),
        ("coalesced", Json::from(coalesced)),
        ("failures", Json::from(failures)),
        ("in_flight", Json::from(in_flight_count(daemon))),
        (
            "hit_ratio_pct",
            Json::from((hits * 100).checked_div(requests).unwrap_or(0)),
        ),
    ]
}

/// Latency percentiles of one live histogram, for the `stats` and
/// `snapshot` events.
fn percentiles_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::from(h.count())),
        ("p50_ns", Json::from(h.quantile(0.50))),
        ("p90_ns", Json::from(h.quantile(0.90))),
        ("p99_ns", Json::from(h.quantile(0.99))),
        ("max_ns", Json::from(h.max())),
    ])
}

/// One object member per *observed* metric in `group` (phases or
/// paths), keyed by short name — empty histograms are omitted rather
/// than reported as zeros.
fn latency_group_json(group: &[&str]) -> Json {
    let live = live::global();
    let mut members = Vec::new();
    for name in group {
        if let Some(h) = live.histogram(name) {
            if h.count() > 0 {
                members.push((names::short(name).to_string(), percentiles_json(&h)));
            }
        }
    }
    Json::Obj(members)
}

/// The `stats` event body: the daemon-wide serve counters, per-phase
/// and per-path latency percentiles from the live registry, and a
/// (checksumming) store scan.
fn stats_event(daemon: &Daemon) -> Json {
    let mut members = vec![
        ("event", Json::from("stats")),
        ("schema", Json::from(SERVE_SCHEMA)),
        (
            "uptime_seconds",
            Json::from(daemon.started.elapsed().as_secs_f64()),
        ),
        ("serve", Json::obj(serve_members(daemon))),
        ("phases", latency_group_json(&names::PHASES)),
        ("paths", latency_group_json(&names::PATHS)),
    ];
    if let Some(stats) = daemon.ctx.store.as_ref().map(|s| s.stats()) {
        members.push((
            "store",
            Json::obj(vec![
                ("entries", Json::from(stats.entries)),
                ("bytes", Json::from(stats.bytes)),
                ("invalid", Json::from(stats.invalid)),
            ]),
        ));
    }
    Json::obj(members)
}

/// The health-check `pong`: schema plus enough to tell *which* daemon
/// answered and whether it is busy. Uses the cached git rev — a probe
/// must not fork a subprocess.
fn pong_event(daemon: &Daemon) -> Json {
    Json::obj(vec![
        ("event", Json::from("pong")),
        ("schema", Json::from(SERVE_SCHEMA)),
        (
            "uptime_seconds",
            Json::from(daemon.started.elapsed().as_secs_f64()),
        ),
        ("git_rev", Json::from(visim_obs::schema::git_rev_cached())),
        ("in_flight", Json::from(in_flight_count(daemon))),
    ])
}

/// One flight-recorder snapshot of the daemon's current state. Runs on
/// the tick thread (and once at shutdown), so it only uses cheap
/// probes: sink counter loads, histogram clones, and the
/// metadata-only store scan ([`visim::store::Store::quick_scan`], no
/// checksumming).
fn snapshot_json(daemon: &Daemon) -> Json {
    let mut members = vec![
        ("event", Json::from("snapshot")),
        (
            "t_ms",
            Json::from(daemon.started.elapsed().as_millis() as u64),
        ),
    ];
    members.extend(serve_members(daemon));
    members.push(("phases", latency_group_json(&names::PHASES)));
    if let Some(h) = live::global().histogram("pool.queue_depth") {
        members.push(("queue_depth_max", Json::from(h.max())));
    }
    if let Some((entries, bytes)) = daemon.ctx.store.as_ref().map(|s| s.quick_scan()) {
        members.push(("store_entries", Json::from(entries)));
        members.push(("store_bytes", Json::from(bytes)));
    }
    Json::obj(members)
}

/// Stream flight-recorder snapshots to a `watch` subscriber: one
/// immediate snapshot (not pushed to the ring — watchers must not
/// perturb the recorded timeline), then every ring tick as it lands,
/// until `count` snapshots were delivered (`0` = until shutdown), the
/// client hangs up, or the daemon shuts down. Ends with a `done` event
/// carrying the delivered count.
fn handle_watch(daemon: &Daemon, count: u64, stream: &Mutex<TcpStream>) {
    let ring = &daemon.ring;
    let mut last = ring.last_seq();
    if !send(stream, &snapshot_json(daemon)) {
        return;
    }
    let mut sent = 1u64;
    'stream: while (count == 0 || sent < count) && !daemon.shutdown.load(Ordering::SeqCst) {
        for (seq, snap) in ring.wait_newer(last, Duration::from_millis(250)) {
            last = seq;
            if !send(stream, &snap) {
                return;
            }
            sent += 1;
            if count != 0 && sent >= count {
                break 'stream;
            }
        }
    }
    send(
        stream,
        &Json::obj(vec![
            ("event", Json::from("done")),
            ("snapshots", Json::from(sent)),
        ]),
    );
}

/// Send an `error` event carrying `error`.
fn send_error(stream: &Mutex<TcpStream>, error: &str) {
    send(
        stream,
        &Json::obj(vec![
            ("event", Json::from("error")),
            ("error", Json::from(error)),
        ]),
    );
}

/// Serve one client connection until it closes, sends a line longer
/// than [`MAX_LINE`], or asks for shutdown.
fn handle_conn(daemon: &Daemon, stream: TcpStream, daemon_addr: std::net::SocketAddr) {
    // Every event is one small write; without this, Nagle's algorithm
    // holds each one after the first until the client's delayed ACK.
    if let Err(e) = stream.set_nodelay(true) {
        log::warn("serve", &format!("cannot set TCP_NODELAY: {e}"));
    }
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let stream = Mutex::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE {
            send_error(
                &stream,
                &format!("request line longer than {MAX_LINE} bytes"),
            );
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        let accepted = Instant::now();
        let parsed = Request::parse(line);
        live::global().observe_latency_ns(
            names::PHASE_READ_PARSE,
            accepted.elapsed().as_nanos() as u64,
        );
        let outcome = match parsed {
            Ok(Request::Ping) => {
                send(&stream, &pong_event(daemon));
                Ok(())
            }
            Ok(Request::Stats) => {
                send(&stream, &stats_event(daemon));
                Ok(())
            }
            Ok(Request::Watch { count }) => {
                handle_watch(daemon, count, &stream);
                Ok(())
            }
            Ok(Request::Shutdown) => {
                log::info("serve", "shutdown requested");
                send(&stream, &Json::obj(vec![("event", Json::from("bye"))]));
                daemon.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the latch.
                let _ = TcpStream::connect(daemon_addr);
                return;
            }
            Ok(Request::Manifest { source, size }) => {
                handle_run(daemon, &source, None, &size, &stream)
            }
            Ok(Request::Cell {
                source,
                label,
                size,
            }) => handle_run(daemon, &source, Some(&label), &size, &stream),
            Err(e) => Err(e),
        };
        if let Err(e) = outcome {
            send_error(&stream, &e);
        }
    }
}

/// Daemon configuration from the CLI, beside its [`RunCtx`].
pub struct DaemonConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// When set, the `listening` event line is also written here
    /// (atomically), so scripts can poll one file instead of parsing
    /// the daemon's stdout.
    pub addr_file: Option<String>,
    /// When set, every request's lifecycle span is collected and
    /// exported to this path at shutdown as a Chrome trace-event /
    /// Perfetto file (one lane per concurrently in-flight request).
    pub trace_out: Option<String>,
}

/// Run the daemon under the process default (see [`visim::ctx`]; the
/// benchmark harness's entry point).
pub fn run(cfg: &DaemonConfig) -> Result<(), String> {
    serve(cfg, ctx::process_default())
}

/// Run the daemon until a client sends `shutdown`, with resume always
/// on in `ctx`'s store. On exit, writes the run's results document
/// (`results/json/serve.json`: one drain of the metrics sink — pool,
/// store, trace-cache, fault, retry and `serve.*` counters plus the
/// request-lifecycle histograms), the flight-recorder timeline
/// (`results/json/serve_timeline.json`), and the request trace when
/// `--trace-out` asked for one.
pub fn serve(cfg: &DaemonConfig, mut ctx: RunCtx) -> Result<(), String> {
    // The daemon is store-first by definition: every lookup path goes
    // through the store before any simulation is scheduled.
    if let Some(store) = &mut ctx.store {
        store.resume = true;
    }
    // The thresholds are read once, here: the recorder tick defaults to
    // 1000 ms (floored at 10), the slow-request warning to 1000 ms (0
    // turns it off).
    let tick_ms = env_ms("VISIM_TICK_MS")
        .filter(|&ms| ms > 0)
        .unwrap_or(1_000);
    let slow_ms = env_ms("VISIM_SLOW_MS").unwrap_or(1_000);
    let daemon = Daemon {
        ctx,
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        flights: Flights::default(),
        manifests: Manifests::default(),
        ring: SnapshotRing::new(),
        spans: cfg.trace_out.as_ref().map(|_| Mutex::new(Vec::new())),
        tick: Duration::from_millis(tick_ms.max(10)),
        slow_ns: (slow_ms > 0).then(|| slow_ms.saturating_mul(1_000_000)),
    };
    live::global().declare(&COUNTERS);
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))
        .map_err(|e| format!("bind 127.0.0.1:{}: {e}", cfg.port))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let listening = Json::obj(vec![
        ("event", Json::from("listening")),
        ("schema", Json::from(SERVE_SCHEMA)),
        ("addr", Json::from(addr.to_string())),
        ("pid", Json::from(u64::from(std::process::id()))),
    ]);
    println!("{}", listening.to_compact());
    let _ = std::io::stdout().flush();
    if let Some(path) = &cfg.addr_file {
        let mut line = listening.to_compact();
        line.push('\n');
        visim_util::atomic::write_atomic(path, line.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    log::info(
        "serve",
        &format!("listening on {addr} (pid {})", std::process::id()),
    );
    std::thread::scope(|s| {
        let daemon = &daemon;
        // The flight recorder's tick thread: sample the daemon state
        // into the snapshot ring every VISIM_TICK_MS until `stop` drops.
        let (stop, stopped) = mpsc::channel::<()>();
        let ticks = s.spawn(move || {
            while stopped.recv_timeout(daemon.tick) == Err(RecvTimeoutError::Timeout) {
                daemon.ring.push(snapshot_json(daemon));
            }
        });
        let mut conns = Vec::new();
        for conn in listener.incoming() {
            if daemon.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            conns.push(s.spawn(move || handle_conn(daemon, stream, addr)));
            // Join the connections that have ended, once the new one is
            // on its way: a client that reconnects per request opens
            // thousands, and an unjoined thread keeps its stack. A
            // connection whose cell panicked has died alone; joining it
            // keeps its panic out of the scope.
            for ended in conns.extract_if(.., |h| h.is_finished()) {
                let _ = ended.join();
            }
        }
        drop(stop);
        // Drain in-flight connections so the doc sees their final
        // counters.
        for handle in conns {
            let _ = handle.join();
        }
        let _ = ticks.join();
    });
    // Final flight-recorder sample, so even a daemon shut down inside
    // its first tick retains at least one snapshot.
    daemon.ring.push(snapshot_json(&daemon));
    let mut doc = ResultsDoc::new("serve", "daemon", daemon.ctx.jobs);
    doc.metrics = experiment::drain_pool_metrics();
    let mut text = doc
        .to_json(daemon.started.elapsed().as_secs_f64())
        .to_pretty();
    text.push('\n');
    visim_util::atomic::write_atomic("results/json/serve.json", text.as_bytes())
        .map_err(|e| format!("write results/json/serve.json: {e}"))?;
    let (snapshots, sampled) = daemon.ring.drain_all();
    let retained = snapshots.len();
    let mut text = telemetry::timeline_doc(snapshots, sampled, daemon.tick).to_pretty();
    text.push('\n');
    visim_util::atomic::write_atomic("results/json/serve_timeline.json", text.as_bytes())
        .map_err(|e| format!("write results/json/serve_timeline.json: {e}"))?;
    if let (Some(path), Some(spans)) = (&cfg.trace_out, daemon.spans) {
        let spans = spans.into_inner().expect("request spans lock");
        let mut text = telemetry::trace_doc(&spans).to_pretty();
        text.push('\n');
        visim_util::atomic::write_atomic(path, text.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
        log::info("serve", &format!("request trace written to {path}"));
    }
    log::info(
        "serve",
        &format!(
            "shutdown after {:.1}s: {} requests ({} hits, {} misses, {} coalesced, {} failed), \
             {retained} timeline snapshot(s) retained",
            daemon.started.elapsed().as_secs_f64(),
            doc.metrics.counter(REQUESTS),
            doc.metrics.counter(HITS),
            doc.metrics.counter(MISSES),
            doc.metrics.counter(COALESCED),
            doc.metrics.counter(FAILURES),
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flight_leader_runs_once_and_followers_share() {
        let (flights, key) = (Flights::default(), "test|cell");
        let result = CellResult {
            error: None,
            from_store: false,
            payload: vec![("cycles".to_string(), Json::from(7u64))],
        };
        // Sequential callers never coalesce: the flight retires as the
        // leader returns.
        let (r1, c1) = single_flight(&flights, key, || result.clone());
        assert!(r1.error.is_none() && !c1);
        let (_r2, c2) = single_flight(&flights, key, || result.clone());
        assert!(!c2, "no in-flight leader to join");
        assert_eq!(flights.lock().unwrap().len(), 0, "flights retire");
    }

    /// A leader whose compute panics retires its flight on the way out:
    /// the next request for the cell leads a flight of its own instead
    /// of waiting forever on the dead one.
    #[test]
    fn a_panicking_leader_retires_its_flight() {
        let flights = Arc::new(Flights::default());
        let key = "panic|cell".to_string();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            single_flight(&flights, &key, || panic!("simulator panic"))
        }));
        assert!(panicked.is_err(), "the leader's panic propagates");
        // Not a scoped thread: a wedged request must fail the test, not
        // hang it.
        let (tx, rx) = std::sync::mpsc::channel();
        let next = {
            let flights = Arc::clone(&flights);
            std::thread::spawn(move || {
                let ok = CellResult {
                    error: None,
                    from_store: false,
                    payload: Vec::new(),
                };
                tx.send(single_flight(&flights, &key, || ok)).unwrap();
            })
        };
        let (r, coalesced) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the next request runs instead of waiting on the dead flight");
        assert!(r.error.is_none() && !coalesced);
        next.join().unwrap();
        assert_eq!(flights.lock().unwrap().len(), 0, "both flights retired");
    }

    /// A request's coalescing key is its cell's store key: a sampled
    /// daemon never joins an exact flight of the same cell, or the
    /// other way round.
    #[test]
    fn flight_key_is_the_store_key_and_carries_the_sampling_geometry() {
        let source = ManifestSource::Builtin("fig1".into());
        let size = WorkloadSize::tiny();
        let exact = RunCtx::default();
        let sampled = RunCtx {
            sample: Some(visim::sampling::SampleConfig {
                window: 2_000,
                period: 10_000,
            }),
            ..RunCtx::default()
        };
        // Each daemon formats its cells' keys under its own context.
        let key = |ctx: &RunCtx| {
            let fig1 = Manifests::default().resolve(&source, "tiny").unwrap();
            fig1.cells[0].key(ctx, &size).text().to_string()
        };
        let spec = Manifest::builtin("fig1").unwrap().cells().remove(0);
        assert_eq!(key(&exact), exact.cell_key(&spec, &size).text());
        assert_ne!(key(&exact), key(&sampled));
    }

    /// The memo serves every builtin manifest's cells exactly as
    /// `Manifest::cells` expands them, a label selects what a filter
    /// over that expansion selects, and each key is formatted once.
    #[test]
    fn the_manifest_memo_matches_a_fresh_expansion() {
        let manifests = Manifests::default();
        let ctx = RunCtx::default();
        for name in Manifest::builtin_names() {
            let source = ManifestSource::Builtin(name.to_string());
            let expanded = Manifest::builtin(name).unwrap().cells();
            let resolved = manifests.resolve(&source, "tiny").unwrap();
            let memo: Vec<String> = resolved
                .cells
                .iter()
                .map(|c| format!("{:?}", c.spec))
                .collect();
            let fresh: Vec<String> = expanded.iter().map(|c| format!("{c:?}")).collect();
            assert_eq!(memo, fresh, "{name}");
            for spec in &expanded {
                let label = spec.label();
                let selected: Vec<String> = resolved
                    .select(Some(label))
                    .unwrap()
                    .iter()
                    .map(|c| format!("{:?}", c.spec))
                    .collect();
                let filtered: Vec<String> = expanded
                    .iter()
                    .filter(|c| c.label() == label)
                    .map(|c| format!("{c:?}"))
                    .collect();
                assert_eq!(selected, filtered, "{name} {label}");
            }
            let again = manifests.resolve(&source, "tiny").unwrap();
            assert!(Arc::ptr_eq(&resolved, &again), "{name} resolved once");
            if let Some(cell) = resolved.cells.first() {
                let size = WorkloadSize::tiny();
                assert!(std::ptr::eq(
                    cell.key(&ctx, &size),
                    again.cells[0].key(&ctx, &size)
                ));
            }
        }
        // Sizes are memoized apart, and a bad size fails as before.
        let fig2 = ManifestSource::Builtin("fig2".into());
        let (tiny, study) = (
            manifests.resolve(&fig2, "tiny").unwrap(),
            manifests.resolve(&fig2, "study").unwrap(),
        );
        assert!(!Arc::ptr_eq(&tiny, &study));
        assert_eq!(study.size, WorkloadSize::study());
        assert!(manifests.resolve(&fig2, "huge").is_err());
    }

    /// A manifest named by path is read on every request: an edit
    /// between two requests is served from the new text.
    #[test]
    fn a_path_manifest_is_reread_on_every_request() {
        let dir = std::env::temp_dir().join(format!("visim-memo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        let fig2 = Manifest::builtin_text("fig2").unwrap();
        let manifests = Manifests::default();
        let source = ManifestSource::Path(path.to_string_lossy().into_owned());
        std::fs::write(&path, fig2).unwrap();
        let before = manifests.resolve(&source, "tiny").unwrap();
        std::fs::write(&path, fig2.replacen("\"fig2\"", "\"fig2-edited\"", 1)).unwrap();
        let after = manifests.resolve(&source, "tiny").unwrap();
        assert_eq!(before.name, "fig2");
        assert_eq!(after.name, "fig2-edited");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_followers_coalesce_onto_one_computation() {
        use std::sync::atomic::AtomicUsize;
        let computed = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let coalesced_total = AtomicUsize::new(0);
        let flights = Flights::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    let (r, coalesced) = single_flight(&flights, "race|cell", || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the
                        // other threads to arrive and become followers.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        CellResult {
                            error: None,
                            from_store: false,
                            payload: Vec::new(),
                        }
                    });
                    assert!(r.error.is_none());
                    if coalesced {
                        coalesced_total.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let runs = computed.load(Ordering::SeqCst);
        let joined = coalesced_total.load(Ordering::SeqCst);
        assert_eq!(runs + joined, 4, "every caller either led or joined");
        assert!(runs >= 1, "someone computed");
        assert!(
            joined >= 4 - runs,
            "followers that arrived in-flight coalesced"
        );
    }
}
