//! A run's cache of recorded instruction streams.
//!
//! A dynamic instruction stream is a pure function of (benchmark,
//! workload size, code variant) — the machine configuration only
//! *consumes* it. The experiment runners therefore record each stream
//! once (`visim_trace::Recorder`) and replay it into every pipeline
//! configuration that needs it; a [`TraceCache`] is the shared, keyed
//! store that makes the "once" hold across cells and figure sections.
//! The run context owns it ([`crate::RunCtx::trace_cache`]): clones of a
//! context share its cache, two contexts built apart do not. It is
//! memory-only: across processes, the result store's `--resume` reuses
//! finished cells, so a warm second process records no stream at all.
//!
//! * **Keying.** [`key_for`] derives `"<bench>.<variant bits>.<fnv1a64
//!   of the workload geometry's Debug form>"`. Anything that can change
//!   the emitted stream is in the key; anything that cannot (arch,
//!   cache sizes, tracing) is not.
//! * **Consumer-counted residency.** [`crate::RunCtx::run_manifest`]
//!   knows every cell of its batch up front, so before the batch starts
//!   it registers one [`Consumer`] per timed cell under the cell's key;
//!   each is dropped when its cell finishes — succeeded, failed, or
//!   served from the result store. When the last consumer of a key is
//!   dropped, its stream leaves the resident set at once
//!   (`trace_cache.released`, not an eviction). Resident memory then
//!   tracks the streams the running cells still need, not the budget:
//!   a study-size `fig1 --no-store` at `VISIM_JOBS=1` peaks at one
//!   stream. Nothing registers consumers for the serve daemon's direct
//!   [`crate::RunCtx::run_spec`] calls, so its streams outlive a
//!   request under the LRU as before.
//! * **Single flight.** The first worker to miss a key records it; a
//!   worker that misses the same key meanwhile waits for that recording
//!   ([`Recording`]) and then hits, so a stream is recorded once at any
//!   worker count.
//! * **Budget.** The resident set is LRU-bounded by the cache's budget
//!   (`--trace-cache-mb`, default 1024 MB). The same budget caps a
//!   single capture: a stream that outgrows it poisons its recorder and
//!   the cell falls back to direct emission. The study suite's 36
//!   distinct streams (81.5 M instructions) take 605 MB in the compact
//!   form (`visim_trace::Recorded`, 7.8 B/inst), the largest (`mpeg-enc`
//!   base) 164 MB; with consumer counting a figure run holds far less
//!   than either. The default still does *not* aim to hold everything
//!   a long-lived daemon ever sees: on virtualized hosts with on-demand
//!   paging, first-touch page-fault cost grows with resident set size,
//!   and a measured study run with a 4 GB budget was slower end to end
//!   than with 1 GB.
//! * **Opt-out.** A run without a cache (`--no-trace-cache`) does not
//!   record streams; every cell then emits directly, and output must be
//!   byte-identical either way.
//!
//! Results never depend on cache state: a replayed stream pushes
//! bit-identical `Inst` values in the original order, so hit, miss,
//! and disabled paths produce byte-identical simulations. Only the
//! wall-clock observability (`cell.*` and `trace_cache.*` counters in
//! the JSON artifacts) reflects which path ran. The `trace_cache.*`
//! counters ([`COUNTERS`]) live in the process-wide metrics sink; the
//! `resident_*` gauges and the `peak_resident_bytes` high-water mark
//! are set from the cache whose resident set last changed.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use media_kernels::Variant;
use visim_obs::live;
use visim_trace::Recorded;
use visim_util::fnv1a64;

use crate::bench::WorkloadSize;

/// The process default's trace budget in bytes, 0 without a cache (see
/// [`crate::ctx`]; the benchmark harness's entry point).
pub fn budget_bytes() -> usize {
    crate::ctx::process_default()
        .trace_cache
        .map_or(0, |cache| cache.budget())
}

/// The cache key for a cell. Everything the emitted stream depends on
/// is folded in: benchmark, variant bits, and the full workload geometry
/// (seed included).
pub fn key_for(bench: &str, size: &WorkloadSize, variant: Variant) -> String {
    format!(
        "{bench}.{}{}.{:016x}",
        if variant.vis { 'v' } else { 's' },
        if variant.prefetch { 'p' } else { '-' },
        fnv1a64(format!("{size:?}").as_bytes())
    )
}

const HITS: &str = "trace_cache.hits";
const MISSES: &str = "trace_cache.misses";
const EVICTIONS: &str = "trace_cache.evictions";
const RESIDENT_BYTES: &str = "trace_cache.resident_bytes";
const RESIDENT_ENTRIES: &str = "trace_cache.resident_entries";
const RELEASED: &str = "trace_cache.released";
const PEAK_RESIDENT_BYTES: &str = "trace_cache.peak_resident_bytes";

/// The cache's counters and resident-set gauges in the process-wide
/// metrics sink, declared in every run's metrics block.
pub const COUNTERS: [&str; 7] = [
    HITS,
    MISSES,
    EVICTIONS,
    RELEASED,
    RESIDENT_BYTES,
    RESIDENT_ENTRIES,
    PEAK_RESIDENT_BYTES,
];

/// The resident store: keyed `Arc<Recorded>` with least-recently-used
/// eviction on a byte budget. `order` holds keys from cold (front) to
/// hot (back).
#[derive(Default)]
struct Lru {
    map: HashMap<String, Arc<Recorded>>,
    order: Vec<String>,
    bytes: usize,
    /// High-water mark of `bytes`.
    peak: usize,
    /// Per key: registered [`Consumer`]s not yet dropped.
    consumers: HashMap<String, usize>,
    /// Keys some worker is recording right now.
    in_flight: HashSet<String>,
}

impl Lru {
    fn touch(&mut self, id: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == id) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }

    fn lookup(&mut self, id: &str) -> Option<Arc<Recorded>> {
        let rec = self.map.get(id).cloned()?;
        self.touch(id);
        Some(rec)
    }

    /// Insert under `id`, evicting cold entries until the budget holds.
    /// A stream bigger than the whole budget is not kept resident at
    /// all (the caller still owns its `Arc` for the current cell).
    /// Returns the number of evictions.
    fn insert(&mut self, id: String, rec: Arc<Recorded>, budget: usize) -> u64 {
        let bytes = rec.approx_bytes();
        if bytes > budget {
            return 0;
        }
        self.drop_resident(&id);
        let mut evicted = 0;
        while !self.order.is_empty() && self.bytes + bytes > budget {
            let cold = self.order.remove(0);
            self.drop_resident(&cold);
            evicted += 1;
        }
        self.bytes += bytes;
        self.peak = self.peak.max(self.bytes);
        self.map.insert(id.clone(), rec);
        self.order.push(id);
        evicted
    }

    /// Remove `id` from the resident set, if it is there.
    fn drop_resident(&mut self, id: &str) -> bool {
        let Some(old) = self.map.remove(id) else {
            return false;
        };
        self.bytes -= old.approx_bytes();
        self.order.retain(|k| k != id);
        true
    }

    /// Drop one consumer of `id`; when it was the last, release the
    /// stream. Returns the number of streams released (0 or 1).
    fn release(&mut self, id: &str) -> u64 {
        let Some(n) = self.consumers.get_mut(id) else {
            return 0;
        };
        *n -= 1;
        if *n > 0 {
            return 0;
        }
        self.consumers.remove(id);
        u64::from(self.drop_resident(id))
    }
}

/// One run's trace cache: the resident set within its byte budget, and
/// the signal a finished recording gives the workers waiting for it.
pub struct TraceCache {
    budget: usize,
    lru: Mutex<Lru>,
    recorded: Condvar,
}

impl TraceCache {
    /// An empty cache holding at most `budget` bytes. The budget also
    /// caps a single capture.
    pub fn new(budget: usize) -> TraceCache {
        TraceCache {
            budget,
            lru: Mutex::new(Lru::default()),
            recorded: Condvar::new(),
        }
    }

    /// The resident budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("trace cache lock")
    }

    /// Register one more consumer of `id`.
    pub fn consumer(&self, id: String) -> Consumer<'_> {
        *self.lock().consumers.entry(id.clone()).or_default() += 1;
        Consumer(self, id)
    }

    /// True when `id` is in the resident set (test probe).
    #[cfg(test)]
    pub(crate) fn is_resident(&self, id: &str) -> bool {
        self.lock().map.contains_key(id)
    }

    /// Look up a resident stream. While another worker records the same
    /// key, wait for it. Counts one hit or one miss.
    pub fn lookup(&self, id: &str) -> Lookup<'_> {
        let mut lru = self.lock();
        loop {
            if let Some(rec) = lru.lookup(id) {
                live::global().add(HITS, 1);
                return Lookup::Hit(rec);
            }
            if !lru.in_flight.contains(id) {
                break;
            }
            lru = self.recorded.wait(lru).expect("trace cache lock");
        }
        lru.in_flight.insert(id.to_string());
        live::global().add(MISSES, 1);
        Lookup::Miss(Recording(self, id.to_string()))
    }
}

/// Add `n` to `counter` and set the resident gauges. Callers hold the
/// lock, so the gauges follow every change in order.
fn publish(lru: &Lru, counter: &str, n: u64) {
    let sink = live::global();
    sink.add(counter, n);
    sink.set(RESIDENT_BYTES, lru.bytes as u64);
    sink.set(RESIDENT_ENTRIES, lru.order.len() as u64);
    sink.set(PEAK_RESIDENT_BYTES, lru.peak as u64);
}

/// One expected reader of a stream in its cache. While any `Consumer`
/// of a key is alive, the stream stays resident (budget permitting);
/// dropping the last one releases it at once instead of leaving it for
/// the LRU. [`crate::RunCtx::run_manifest`] registers one per timed
/// cell before the batch starts, so a stream lives exactly as long as
/// the cells that read it.
pub struct Consumer<'a>(&'a TraceCache, String);

impl Drop for Consumer<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned lock only keeps the stream
        // resident.
        if let Ok(mut lru) = self.0.lru.lock() {
            let released = lru.release(&self.1);
            publish(&lru, RELEASED, released);
        }
    }
}

/// The outcome of [`TraceCache::lookup`].
pub enum Lookup<'a> {
    /// The resident stream.
    Hit(Arc<Recorded>),
    /// Not cached: the caller records it and hands it to
    /// [`Recording::store`].
    Miss(Recording<'a>),
}

/// The right to record one stream into its cache. Workers that miss
/// the same key in the meantime wait in [`TraceCache::lookup`] until it
/// is dropped (stored or not), so concurrent cells never record one
/// stream twice.
pub struct Recording<'a>(&'a TraceCache, String);

impl Drop for Recording<'_> {
    fn drop(&mut self) {
        // Never panic in drop: waiters on a poisoned lock fail anyway.
        if let Ok(mut lru) = self.0.lru.lock() {
            lru.in_flight.remove(&self.1);
        }
        self.0.recorded.notify_all();
    }
}

impl Recording<'_> {
    /// Store the freshly captured stream into the resident LRU, within
    /// the cache's budget. Dropping `self` afterwards wakes the workers
    /// waiting for it.
    pub fn store(self, rec: &Arc<Recorded>) {
        let mut lru = self.0.lock();
        let evicted = lru.insert(self.1.clone(), rec.clone(), self.0.budget);
        publish(&lru, EVICTIONS, evicted);
        drop(lru);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visim_isa::{Inst, Op, Reg};

    fn stream_of(n: u32) -> Arc<Recorded> {
        let mut rec = Recorded::new();
        for i in 0..n {
            rec.push(Inst::compute(Op::IntAlu, i as u64, Reg(i), [Reg::NONE; 3]));
        }
        Arc::new(rec)
    }

    #[test]
    fn lru_evicts_coldest_first_and_tracks_bytes() {
        let mut lru = Lru::default();
        let one = stream_of(10).approx_bytes();
        let budget = 3 * one;
        assert_eq!(lru.insert("a".into(), stream_of(10), budget), 0);
        assert_eq!(lru.insert("b".into(), stream_of(10), budget), 0);
        assert_eq!(lru.insert("c".into(), stream_of(10), budget), 0);
        // Touch "a" so "b" is now the coldest.
        assert!(lru.lookup("a").is_some());
        assert_eq!(lru.insert("d".into(), stream_of(10), budget), 1);
        assert!(lru.lookup("b").is_none(), "coldest entry evicted");
        assert!(lru.lookup("a").is_some());
        assert!(lru.lookup("c").is_some());
        assert!(lru.lookup("d").is_some());
        assert_eq!(lru.bytes, 3 * one);
    }

    #[test]
    fn lru_skips_entries_bigger_than_the_whole_budget() {
        let mut lru = Lru::default();
        let big = stream_of(1000);
        assert_eq!(lru.insert("big".into(), big.clone(), 16), 0);
        assert!(lru.lookup("big").is_none());
        assert_eq!(lru.bytes, 0);
    }

    #[test]
    fn lru_reinsert_replaces_in_place() {
        let mut lru = Lru::default();
        let budget = 10 * stream_of(10).approx_bytes();
        lru.insert("a".into(), stream_of(10), budget);
        lru.insert("a".into(), stream_of(20), budget);
        assert_eq!(lru.bytes, stream_of(20).approx_bytes());
        assert_eq!(lru.order.len(), 1);
        assert_eq!(lru.lookup("a").unwrap().len(), 20);
    }

    #[test]
    fn the_last_consumer_releases_and_peak_stays() {
        let mut lru = Lru::default();
        let budget = 10 * stream_of(10).approx_bytes();
        lru.insert("a".into(), stream_of(10), budget);
        lru.insert("b".into(), stream_of(10), budget);
        lru.consumers.insert("a".into(), 2);
        assert_eq!(lru.release("a"), 0, "one consumer left");
        assert!(lru.lookup("a").is_some());
        assert_eq!(lru.release("a"), 1, "last consumer releases");
        assert!(lru.lookup("a").is_none());
        assert!(!lru.consumers.contains_key("a"));
        // Keys nobody registered (the daemon's) stay under the LRU.
        assert_eq!(lru.release("b"), 0);
        assert!(lru.lookup("b").is_some());
        assert_eq!(lru.bytes, stream_of(10).approx_bytes());
        assert_eq!(lru.peak, 2 * stream_of(10).approx_bytes());
        assert_eq!(lru.order, ["b"]);
    }

    #[test]
    fn keys_separate_benchmarks_variants_and_sizes() {
        let s1 = WorkloadSize::tiny();
        let mut s2 = WorkloadSize::tiny();
        s2.seed += 1;
        let k = key_for;
        assert_ne!(
            k("conv", &s1, Variant::VIS),
            k("conv", &s1, Variant::SCALAR)
        );
        assert_ne!(
            k("conv", &s1, Variant::VIS),
            k("conv", &s1, Variant::VIS_PF)
        );
        assert_ne!(k("conv", &s1, Variant::VIS), k("blend", &s1, Variant::VIS));
        assert_ne!(k("conv", &s1, Variant::VIS), k("conv", &s2, Variant::VIS));
        assert_eq!(k("conv", &s1, Variant::VIS), k("conv", &s1, Variant::VIS));
    }
}
