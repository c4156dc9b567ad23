//! The process-wide metrics sink: a thread-safe registry readable at
//! any instant.
//!
//! [`Registry`](crate::metrics::Registry) is the `&mut`-only value type
//! (per-cell metrics, store payloads, drained snapshots). Everything
//! that counts across a run — result store, trace cache, retries, fault
//! injection, worker pool, request phases, the serve daemon — records
//! into one [`LiveRegistry`], the [`global`] sink. A figure binary
//! drains it once into its artifact; the daemon reads it live and
//! drains it once at shutdown.
//!
//! * counters are `AtomicU64`s behind shard locks: an increment is a
//!   map lookup plus one atomic add and allocates only on a name's
//!   first touch; [`LiveRegistry::handle`] removes even the lookup;
//! * a counter written with [`LiveRegistry::set`] is a gauge (a level,
//!   not a count) and keeps its value across [`LiveRegistry::drain`],
//!   which resets every other counter to zero but keeps its name;
//! * histograms are the mergeable [`Histogram`]s behind per-shard
//!   mutexes, so readers never see one half-updated (no torn reads).
//!
//! Names are spread over a fixed set of shards by FNV-1a hash, so
//! threads hammering *different* metrics rarely contend. The daemon's
//! request-lifecycle phase and per-path latency names live here too
//! ([`names`]), shared between `visim::experiment` (which records the
//! store-lookup and simulate phases for every cell) and `visim-serve`
//! (which records the rest), so both sides agree on the vocabulary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Histogram, Registry};

/// Request-lifecycle metric names shared by the daemon and the
/// experiment layer. Phase histograms time one phase of a request;
/// path histograms time whole requests, classified by how they were
/// served (exactly one path per request, so the path counts sum to the
/// request count).
pub mod names {
    /// Reading and parsing one request line off the socket.
    pub const PHASE_READ_PARSE: &str = "serve.phase.read_parse_ns";
    /// Content-addressed store lookup (recorded by `visim::experiment`).
    pub const PHASE_STORE_LOOKUP: &str = "serve.phase.store_lookup_ns";
    /// A follower waiting on another request's in-flight simulation.
    pub const PHASE_COALESCE_WAIT: &str = "serve.phase.coalesce_wait_ns";
    /// Waiting in the worker-pool queue before the cell ran.
    pub const PHASE_QUEUE_WAIT: &str = "serve.phase.queue_wait_ns";
    /// Running the simulation proper (recorded by `visim::experiment`).
    pub const PHASE_SIMULATE: &str = "serve.phase.simulate_ns";
    /// Encoding and writing the reply event to the client.
    pub const PHASE_RESPOND: &str = "serve.phase.respond_ns";
    /// Whole-request latency of cells served from the store.
    pub const PATH_HIT: &str = "serve.lat.hit_ns";
    /// Whole-request latency of cells that simulated.
    pub const PATH_MISS: &str = "serve.lat.miss_ns";
    /// Whole-request latency of cells that joined an in-flight leader.
    pub const PATH_COALESCED: &str = "serve.lat.coalesced_ns";

    /// Every request-phase histogram, in lifecycle order.
    pub const PHASES: [&str; 6] = [
        PHASE_READ_PARSE,
        PHASE_STORE_LOOKUP,
        PHASE_COALESCE_WAIT,
        PHASE_QUEUE_WAIT,
        PHASE_SIMULATE,
        PHASE_RESPOND,
    ];

    /// Every per-path latency histogram.
    pub const PATHS: [&str; 3] = [PATH_HIT, PATH_MISS, PATH_COALESCED];

    /// The short display name of a phase or path metric
    /// (`"serve.phase.queue_wait_ns"` → `"queue_wait"`).
    pub fn short(name: &str) -> &str {
        let base = name.rsplit('.').next().unwrap_or(name);
        base.strip_suffix("_ns").unwrap_or(base)
    }
}

/// Histogram layout for request-latency metrics: 1 µs to ~2 min in
/// nanoseconds, two buckets per octave (±~25% quantile resolution) so
/// hit-path and miss-path percentiles stay distinguishable.
pub fn latency_histogram() -> Histogram {
    let mut bounds = Vec::with_capacity(56);
    let mut b: u64 = 1 << 10;
    for _ in 0..28 {
        bounds.push(b);
        bounds.push(b + b / 2);
        b <<= 1;
    }
    Histogram::new(&bounds)
}

/// Number of shards. A small power of two: enough to keep a dozen
/// worker threads off each other's locks, few enough that drains
/// stay cheap.
const SHARDS: usize = 16;

/// One named counter. A gauge (last written by [`LiveRegistry::set`])
/// holds a level rather than a count, so a drain keeps its value.
struct Counter {
    value: Arc<AtomicU64>,
    gauge: bool,
}

#[derive(Default)]
struct Shard {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A sharded, thread-safe registry of named counters and histograms.
/// See the module docs for the design; all methods take `&self`.
#[derive(Default)]
pub struct LiveRegistry {
    shards: [Shard; SHARDS],
}

/// The process-wide metrics sink every library counter and the serve
/// daemon record into. See the module docs.
pub fn global() -> &'static LiveRegistry {
    static GLOBAL: OnceLock<LiveRegistry> = OnceLock::new();
    GLOBAL.get_or_init(LiveRegistry::new)
}

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl LiveRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        LiveRegistry::default()
    }

    fn shard(&self, name: &str) -> &Shard {
        &self.shards[(fnv1a(name) as usize) % SHARDS]
    }

    /// Run `f` on the counter `name` under its shard lock, creating it
    /// at zero on first use (the only time the name is allocated).
    fn with_counter<R>(&self, name: &str, f: impl FnOnce(&mut Counter) -> R) -> R {
        let mut map = self.shard(name).counters.lock().expect("counter shard");
        if let Some(c) = map.get_mut(name) {
            return f(c);
        }
        let c = map.entry(name.to_string()).or_insert(Counter {
            value: Arc::new(AtomicU64::new(0)),
            gauge: false,
        });
        f(c)
    }

    /// The counter cell for `name`, created at zero on first use. Hot
    /// paths keep the handle and `fetch_add` on it directly.
    pub fn handle(&self, name: &str) -> Arc<AtomicU64> {
        self.with_counter(name, |c| Arc::clone(&c.value))
    }

    /// Create every counter in `names` that is absent, at zero.
    pub fn declare(&self, names: &[&str]) {
        for name in names {
            self.with_counter(name, |_| ());
        }
    }

    /// Add `by` to the counter `name`.
    pub fn add(&self, name: &str, by: u64) {
        self.with_counter(name, |c| c.value.fetch_add(by, Ordering::Relaxed));
    }

    /// Set the gauge `name` to exactly `value`. A gauge is a level, not
    /// a count: [`LiveRegistry::drain`] keeps its value.
    pub fn set(&self, name: &str, value: u64) {
        self.with_counter(name, |c| {
            c.gauge = true;
            c.value.store(value, Ordering::Relaxed);
        });
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        let map = self.shard(name).counters.lock().expect("counter shard");
        map.get(name).map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Record `value` into histogram `name`, creating it with the given
    /// layout on first use (the only time the name is allocated).
    pub fn observe_with(&self, name: &str, value: u64, mk: impl FnOnce() -> Histogram) {
        let mut map = self.shard(name).histograms.lock().expect("histogram shard");
        match map.get_mut(name) {
            Some(h) => h.observe(value),
            None => map
                .entry(name.to_string())
                .or_insert_with(mk)
                .observe(value),
        }
    }

    /// Record a latency sample in nanoseconds under the shared
    /// [`latency_histogram`] layout. Zero-duration samples clamp to
    /// 1 ns so a recorded phase is never mistaken for an absent one.
    pub fn observe_latency_ns(&self, name: &str, ns: u64) {
        self.observe_with(name, ns.max(1), latency_histogram);
    }

    /// A copy of the histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let map = self.shard(name).histograms.lock().expect("histogram shard");
        map.get(name).cloned()
    }

    /// Fold a plain [`Registry`] in: counters add, histograms merge (or
    /// are adopted when absent here). This is how post-run batch stats
    /// (the worker pool's `PoolRunStats`) join the sink.
    pub fn merge(&self, other: &Registry) {
        for (name, v) in other.counters() {
            self.add(name, v);
        }
        for (name, h) in other.histograms() {
            let mut map = self.shard(name).histograms.lock().expect("histogram shard");
            match map.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    map.insert(name.to_string(), h.clone());
                }
            }
        }
    }

    /// Snapshot into an ordinary [`Registry`] and reset: counters go
    /// back to zero (gauges keep their level) but stay present, and
    /// histograms are taken whole. Shards lock one at a time, and each
    /// counter is swapped atomically, so an increment racing the drain
    /// lands in exactly one of two drains.
    pub fn drain(&self) -> Registry {
        let mut reg = Registry::new();
        for shard in &self.shards {
            for (name, c) in shard.counters.lock().expect("counter shard").iter() {
                let v = if c.gauge {
                    c.value.load(Ordering::Relaxed)
                } else {
                    c.value.swap(0, Ordering::Relaxed)
                };
                reg.set(name, v);
            }
            let taken = std::mem::take(&mut *shard.histograms.lock().expect("histogram shard"));
            for (name, h) in taken {
                reg.insert_histogram(&name, h);
            }
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_record_exactly() {
        let live = LiveRegistry::new();
        live.add("a", 2);
        live.add("a", 3);
        live.set("b", 7);
        live.observe_latency_ns("lat", 5_000);
        live.observe_latency_ns("lat", 0); // clamps to 1 ns
        assert_eq!(live.counter("a"), 5);
        assert_eq!(live.counter("b"), 7);
        assert_eq!(live.counter("absent"), 0);
        let h = live.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5_000);
    }

    #[test]
    fn merge_folds_batch_registries_into_the_live_view() {
        let live = LiveRegistry::new();
        live.add("pool.jobs", 1);
        let mut batch = Registry::new();
        batch.add("pool.jobs", 9);
        batch.observe_with("pool.queue_depth", 3, || Histogram::new(&[1, 2, 4]));
        live.merge(&batch);
        live.merge(&batch);
        assert_eq!(live.counter("pool.jobs"), 19);
        assert_eq!(live.histogram("pool.queue_depth").unwrap().count(), 2);
    }

    /// The tentpole concurrency guarantee: N threads hammering the same
    /// counters and histograms lose nothing and tear nothing — totals
    /// are exact and every read taken mid-flight is internally
    /// consistent (histogram bucket sums always equal its count).
    #[test]
    fn concurrent_recording_is_exact_and_untorn() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 5_000;
        let live = LiveRegistry::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let live = &live;
                s.spawn(move || {
                    let fast = live.handle("stress.count");
                    for i in 0..PER_THREAD {
                        fast.fetch_add(1, Ordering::Relaxed);
                        live.add("stress.slow", 1);
                        live.observe_latency_ns("stress.lat", (t as u64 + 1) * (i % 7 + 1));
                    }
                });
            }
            // A reader samples while the writers run; whatever it sees
            // must be internally coherent.
            let live = &live;
            s.spawn(move || {
                for _ in 0..50 {
                    if let Some(h) = live.histogram("stress.lat") {
                        let j = h.to_json();
                        let counts = j.get("counts").and_then(crate::json::Json::elements);
                        let sum: u64 = counts
                            .unwrap()
                            .iter()
                            .filter_map(crate::json::Json::as_u64)
                            .sum();
                        assert_eq!(sum, h.count(), "torn histogram read");
                    }
                    assert!(live.counter("stress.count") <= THREADS as u64 * PER_THREAD);
                }
            });
        });
        let want = THREADS as u64 * PER_THREAD;
        assert_eq!(live.counter("stress.count"), want);
        assert_eq!(live.counter("stress.slow"), want);
        assert_eq!(live.histogram("stress.lat").unwrap().count(), want);
    }

    #[test]
    fn drain_returns_then_resets_and_keeps_declared_names() {
        let live = LiveRegistry::new();
        live.declare(&["d.quiet", "d.busy"]);
        live.add("d.busy", 4);
        live.set("d.level", 9);
        live.observe_latency_ns("d.lat", 1_000);
        let first = live.drain();
        assert_eq!(first.counter("d.busy"), 4);
        assert_eq!(first.counters().count(), 3, "declared zero present");
        assert_eq!(first.histogram("d.lat").unwrap().count(), 1);
        let second = live.drain();
        let names: Vec<&str> = second.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["d.busy", "d.level", "d.quiet"]);
        assert_eq!(second.counter("d.busy"), 0, "counts reset");
        assert_eq!(second.counter("d.level"), 9, "gauges keep their level");
        assert!(second.histogram("d.lat").is_none(), "histograms taken");
        live.add("d.busy", 1);
        assert_eq!(live.drain().counter("d.busy"), 1);
    }

    #[test]
    fn phase_names_shorten_for_display() {
        assert_eq!(names::short(names::PHASE_QUEUE_WAIT), "queue_wait");
        assert_eq!(names::short(names::PATH_HIT), "hit");
        assert_eq!(names::short("plain"), "plain");
    }

    #[test]
    fn latency_layout_resolves_neighbouring_octaves() {
        let mut h = latency_histogram();
        for _ in 0..100 {
            h.observe(100_000);
        }
        for _ in 0..100 {
            h.observe(1_000_000);
        }
        let p25 = h.quantile(0.25);
        let p75 = h.quantile(0.75);
        assert!(p75 > p25 * 5, "p25 {p25} vs p75 {p75}");
    }
}
