//! The cell executor behind every figure, table and the serve daemon.
//!
//! Every number the paper reports is one (benchmark × machine ×
//! variant) simulation cell. [`Manifest::cells`] expands an experiment
//! grid into [`CellSpec`]s, and [`RunCtx::run_spec`] is the one way to
//! run a cell: it consults the content-addressed result store, injects
//! the `cell.panic`/`cell.transient` faults, retries transient failures,
//! and persists the outcome. [`RunCtx::run_manifest`] is the figure
//! binaries' view of the same path: it runs a manifest's cells as one
//! worker-pool batch and folds them into figure-shaped rows, where a
//! benchmark whose cell fails becomes an error row while the others
//! keep their bars.
//!
//! # Parallel execution
//!
//! The full result set is ~100+ independent cycle-level simulations
//! (Figure 1 alone is 12 benchmarks × 6 configurations). Every cell is
//! a pure function of its inputs, so cells fan out over a worker pool
//! ([`RunCtx::run_parallel`]) and the results come back in deterministic
//! input order: output is bit-identical for any worker count. The run
//! context's `jobs` is the worker count (`1` = the serial reference
//! path, no threads at all).
//!
//! Pool batch stats, retry counters and every cell's store-lookup and
//! simulate phase timings go to the process-wide metrics sink
//! ([`visim_obs::live::global`]), as do the store's, the trace cache's
//! and fault injection's counters; [`drain_pool_metrics`] takes them.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use media_kernels::Variant;
use visim_cpu::{
    CountingSink, CpuConfig, CpuStats, Pipeline, SimSink, Summary, Traced, WarmingSink,
};
use visim_mem::MemConfig;
use visim_obs::live::{self, names as live_names};
use visim_obs::trace::{Trace, TraceRing};
use visim_obs::Registry;
use visim_trace::{Checkpoint, Recorded, Recorder, ReplayCursor};
use visim_util::{fault, pool, SimError};

use media_kernels::KernelId;

use crate::bench::{Bench, Workload, WorkloadSize};
use crate::config::Arch;
use crate::ctx::{self, RunCtx};
use crate::manifest::{CellSpec, Grid, Manifest, SweepCache};
use crate::sampling::{self, SampleConfig};
use crate::store::{self, CellKey};
use crate::trace_cache;

/// Snapshot and reset the process-wide metrics sink: `pool.*`,
/// `serve.phase.*`, `trace_cache.*`, `store.*`, `fault.*`, `retry.*`
/// (and, in the daemon, `serve.*`) since the last drain. The library's
/// counters are declared first, so each is present even at zero.
pub fn drain_pool_metrics() -> Registry {
    let sink = live::global();
    sink.declare(&store::COUNTERS);
    sink.declare(&trace_cache::COUNTERS);
    sink.declare(&RETRY_COUNTERS);
    sink.declare(&[fault::INJECTED_TOTAL]);
    sink.drain()
}

/// Per-cell retry policy: a cell whose attempt fails with a
/// *transient* fault (see [`SimError::is_transient`]) is retried up to
/// this many attempts with a short exponential backoff. Deterministic
/// errors — workload panics, invariant violations, cycle-budget
/// exhaustion — fail fast on the first attempt: re-running them would
/// reproduce the same failure and waste the budget.
const MAX_ATTEMPTS: u32 = 3;

const RETRY_ATTEMPTS: &str = "retry.attempts";
const RETRY_RECOVERED: &str = "retry.recovered";
const RETRY_EXHAUSTED: &str = "retry.exhausted";
const RETRY_COUNTERS: [&str; 3] = [RETRY_ATTEMPTS, RETRY_RECOVERED, RETRY_EXHAUSTED];

/// Run one cell attempt function under the retry policy. The attempt
/// number is passed in so the `cell.transient` fault point can be
/// scoped to a specific attempt (`VISIM_FAULT=cell.transient:conv:0`
/// fires on attempt 0 and heals on the retry — the recovery path the
/// fault gate exercises).
fn with_retry<T>(mut attempt_fn: impl FnMut(u32) -> Result<T, SimError>) -> Result<T, SimError> {
    let mut attempt = 0u32;
    loop {
        match attempt_fn(attempt) {
            Ok(v) => {
                if attempt > 0 {
                    live::global().add(RETRY_RECOVERED, 1);
                }
                return Ok(v);
            }
            Err(e) if e.is_transient() && attempt + 1 < MAX_ATTEMPTS => {
                live::global().add(RETRY_ATTEMPTS, 1);
                std::thread::sleep(std::time::Duration::from_millis(1u64 << attempt));
                attempt += 1;
            }
            Err(e) => {
                if e.is_transient() {
                    live::global().add(RETRY_EXHAUSTED, 1);
                }
                return Err(e);
            }
        }
    }
}

/// The crash-safety wrapper every cell runs through.
///
/// Without a store in `ctx`, the cell just computes. On a resume run, a
/// valid store entry under `key` short-circuits the simulation entirely
/// — including entries with `status: failed`, whose recorded
/// deterministic error is re-raised so a resumed run renders the same
/// error row without re-running a known failure. Otherwise the cell
/// computes under the retry policy (with the `cell.transient` fault
/// point armed per attempt; `tag` names the workload) and the
/// outcome — success or deterministic failure, never a transient one —
/// is persisted atomically. The flag is `true` when the result came from the store.
/// The store lookup (on resume) and the computation are timed into the
/// sink's `serve.phase.store_lookup_ns` and `serve.phase.simulate_ns`.
fn run_cell<T: Clone>(
    ctx: &RunCtx,
    key: CellKey,
    tag: &str,
    compute: impl Fn() -> Result<T, SimError>,
    to_entry: impl Fn(&T) -> store::Entry,
    from_entry: impl Fn(store::Entry) -> Option<T>,
) -> Result<(T, bool), SimError> {
    let sink = live::global();
    if let Some(store) = ctx.store.as_ref().filter(|s| s.resume) {
        let t0 = Instant::now();
        let loaded = store.load(&key);
        sink.observe_latency_ns(
            live_names::PHASE_STORE_LOOKUP,
            t0.elapsed().as_nanos() as u64,
        );
        match loaded {
            Some(store::Entry::Failed(e)) => return Err(e),
            Some(entry) => {
                if let Some(v) = from_entry(entry) {
                    return Ok((v, true));
                }
            }
            None => {}
        }
    }
    let t1 = Instant::now();
    let result = with_retry(|attempt| {
        fault::trip_transient("cell.transient", &format!("{tag}:{attempt}"))?;
        compute()
    });
    sink.observe_latency_ns(live_names::PHASE_SIMULATE, t1.elapsed().as_nanos() as u64);
    if let Some(store) = &ctx.store {
        match &result {
            Ok(v) => store.save(&key, &to_entry(v)),
            Err(e) if !e.is_transient() => store.save(&key, &store::Entry::Failed(e.clone())),
            Err(_) => {}
        }
    }
    result.map(|v| (v, false))
}

/// Fire the `cell.panic` fault point (keyed by the workload's name)
/// inside the panic-catching boundary, so an injected panic takes the
/// exact recovery path a real workload panic does.
fn injected_panic(tag: &str) {
    if fault::fires("cell.panic", tag) {
        panic!("fault injected: cell.panic at {tag}");
    }
}

/// Run `f`, converting a workload panic into `SimError::Workload`
/// (`tag` names the workload).
fn catch_workload<R>(tag: &str, f: impl FnOnce() -> R) -> Result<R, SimError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SimError::Workload {
            bench: tag.to_string(),
            detail,
        }
    })
}

/// The dynamic instruction stream a timed cell will feed its pipeline.
enum Stream {
    /// A recorded stream (fresh capture or cache hit) to replay.
    Replay { rec: Arc<Recorded>, cache_hit: bool },
    /// No usable recording (cache disabled, or the stream outgrew the
    /// capture budget): emit directly into the pipeline as before.
    Direct,
}

/// Obtain the cell's instruction stream, consulting and feeding the
/// process-wide [`trace_cache`] within the run's trace budget. The
/// stream depends only on (workload, size, variant) — never on the
/// machine configuration — which is what lets one capture serve every
/// architecture and cache size. On a miss, the stream is captured
/// through a pure [`Recorder`] (no timing model attached); emission
/// faults surface here exactly as they would on the direct path,
/// because emission is deterministic.
fn obtain_stream(
    ctx: &RunCtx,
    workload: Workload,
    size: &WorkloadSize,
    variant: Variant,
) -> Result<Stream, SimError> {
    let Some(budget) = ctx.trace_budget else {
        return Ok(Stream::Direct);
    };
    let name = workload.name();
    let key = trace_cache::key_for(&name, size, variant);
    let recording = match trace_cache::lookup(&key) {
        trace_cache::Lookup::Hit(rec) => {
            return Ok(Stream::Replay {
                rec,
                cache_hit: true,
            })
        }
        trace_cache::Lookup::Miss(recording) => recording,
    };
    let mut recorder = Recorder::new(budget);
    catch_workload(&name, || workload.run(&mut recorder, size, variant))?;
    match recorder.finish() {
        Some(rec) => {
            let rec = Arc::new(rec);
            recording.store(&rec, budget);
            Ok(Stream::Replay {
                rec,
                cache_hit: false,
            })
        }
        // Over the capture budget: this cell re-emits directly. Slower,
        // never wrong.
        None => Ok(Stream::Direct),
    }
}

/// Feed `stream` into `sink` (replaying the recording, or emitting
/// directly), and stamp the per-cell observability counters into
/// `metrics` afterwards via [`stamp_cell_metrics`].
fn feed<S: SimSink>(
    workload: Workload,
    size: &WorkloadSize,
    variant: Variant,
    stream: &Stream,
    sink: &mut S,
) -> Result<(), SimError> {
    let name = workload.name();
    match stream {
        Stream::Replay { rec, .. } => catch_workload(&name, || rec.replay(sink)),
        Stream::Direct => catch_workload(&name, || workload.run(sink, size, variant)),
    }
}

/// Record how a cell obtained and consumed its stream:
/// `cell.emit_micros` is the time to *obtain* it (recording on a miss,
/// near zero on a hit), `cell.simulate_micros` the time to feed the
/// pipeline (pure replay, or combined emission+simulation on the
/// direct path), `cell.trace_replay`/`cell.trace_cache_hit` are 0/1
/// flags. All four are wall-clock observability — scrubbed, never
/// compared, in equivalence tests.
fn stamp_cell_metrics(
    metrics: &mut Registry,
    emit: std::time::Duration,
    simulate: std::time::Duration,
    stream: &Stream,
) {
    let (replayed, hit) = match stream {
        Stream::Replay { cache_hit, .. } => (1, u64::from(*cache_hit)),
        Stream::Direct => (0, 0),
    };
    metrics.set("cell.emit_micros", emit.as_micros() as u64);
    metrics.set("cell.simulate_micros", simulate.as_micros() as u64);
    metrics.set("cell.trace_replay", replayed);
    metrics.set("cell.trace_cache_hit", hit);
}

/// Integrity key for one window's checkpoint frame: identifies the
/// cell's stream, the sampling geometry, and the window index, so a
/// frame can never be replayed against the wrong window.
fn ckpt_key(
    workload: Workload,
    size: &WorkloadSize,
    variant: Variant,
    scfg: SampleConfig,
    ix: usize,
) -> String {
    format!(
        "{}|{}{}|{size:?}|w{}p{}|win{ix}",
        workload.name(),
        if variant.vis { 'v' } else { 's' },
        if variant.prefetch { 'p' } else { '-' },
        scfg.window,
        scfg.period
    )
}

/// Exact simulation standing in for a sampled cell (`cell.sampling.mode
/// = 2`): the stream was not replayable, too short for two windows, or
/// the sample was degenerate. The result is a measurement, not an
/// estimate, so the interval is zero-width — but it still lives under a
/// sampling-suffixed store key, because it was produced by a sampled
/// run.
fn sampled_exact_fallback(
    workload: Workload,
    cpu: &CpuConfig,
    mem: &MemConfig,
    size: &WorkloadSize,
    variant: Variant,
    stream: &Stream,
) -> Result<Summary, SimError> {
    let mut pipe = Pipeline::new(cpu.clone(), mem.clone());
    feed(workload, size, variant, stream, &mut pipe)?;
    let mut summary = pipe.try_finish()?;
    summary.metrics.set("cell.sampling.windows", 0);
    summary
        .metrics
        .set("cell.sampling.sampled_insts", summary.cpu.retired);
    summary.metrics.set("cell.sampling.ci_centipct", 0);
    summary
        .metrics
        .set("cell.sampling.mode", sampling::MODE_EXACT_FALLBACK);
    Ok(summary)
}

/// Simulate one timed cell from its stream: exactly, or, when the run
/// samples (`ctx.sample`), under SMARTS-style sampling. There a
/// functional-warming pass over the recorded stream serializes an
/// architectural checkpoint ([`Checkpoint`]) at every window boundary,
/// the detailed windows fan out across the worker pool (each job
/// independently validates its checkpoint frame, restores it into a
/// fresh pipeline, and replays just its window span), and
/// [`visim_cpu::extrapolate`] combines the warming pass's exact
/// functional totals with the windows' cycle measurements into the
/// full-run estimate.
///
/// The sampled result is deterministic for any worker count: windows
/// are scheduled from instruction indices alone, the pool returns
/// results in input order, and extrapolation is integer arithmetic over
/// those ordered summaries. Anything that prevents sampling degrades to
/// [`sampled_exact_fallback`] rather than failing the cell.
fn simulate(
    ctx: &RunCtx,
    workload: Workload,
    cpu: &CpuConfig,
    mem: &MemConfig,
    size: &WorkloadSize,
    variant: Variant,
    stream: &Stream,
) -> Result<Summary, SimError> {
    let Some(scfg) = ctx.sample else {
        let mut pipe = Pipeline::new(cpu.clone(), mem.clone());
        feed(workload, size, variant, stream, &mut pipe)?;
        return pipe.try_finish();
    };
    // Windows address dynamic instruction indices, so sampling needs a
    // recorded stream; direct emission (cache disabled or over budget)
    // falls back to exact.
    let rec = match stream {
        Stream::Replay { rec, .. } => Arc::clone(rec),
        Stream::Direct => return sampled_exact_fallback(workload, cpu, mem, size, variant, stream),
    };
    let n = rec.len() as u64;
    let starts: Vec<u64> = (0u64..)
        .map(|k| k.saturating_mul(scfg.period))
        .take_while(|s| s.saturating_add(scfg.window) <= n)
        .collect();
    if starts.len() < 2 {
        return sampled_exact_fallback(workload, cpu, mem, size, variant, stream);
    }

    // Warming pass: advance the functional model through the whole
    // stream (windows included — state continuity is the point),
    // serializing a framed checkpoint at each window's *warm-up* entry:
    // `warmup()` instructions before the measured span, so the detailed
    // replay can refill the pipeline, ports, and banks before the
    // window starts counting. The first window has no warm-up — at
    // instruction 0 the cold start is the program's, not sampling's.
    let warmup = scfg.warmup();
    let entries: Vec<u64> = starts.iter().map(|&s| s.saturating_sub(warmup)).collect();
    let mut warm = WarmingSink::new(cpu, mem.clone());
    let mut cursor = ReplayCursor::start();
    let mut frames = Vec::with_capacity(entries.len());
    for (ix, &entry) in entries.iter().enumerate() {
        cursor = rec.replay_span(cursor, entry - warm.insts(), &mut warm);
        let ck = Checkpoint {
            cursor,
            state: warm.checkpoint(),
        };
        frames.push(ck.encode(&ckpt_key(workload, size, variant, scfg, ix)));
    }
    rec.replay_span(cursor, u64::MAX, &mut warm);
    let total = warm.finish();

    // Detailed windows: independent jobs on the worker pool (the plain
    // pool entry point, not `run_parallel` — window jobs are an
    // implementation detail of one cell, not top-level progress). Each
    // job re-validates its checkpoint frame end to end before trusting
    // it.
    let window_jobs: Vec<_> = frames
        .into_iter()
        .enumerate()
        .map(|(ix, frame)| {
            let rec = Arc::clone(&rec);
            let cpu = cpu.clone();
            let mem = mem.clone();
            let key = ckpt_key(workload, size, variant, scfg, ix);
            let window = scfg.window;
            // How far this window's checkpoint sits before its
            // measured span (0 for the first window).
            let warm_insts = starts[ix] - entries[ix];
            move || -> Result<Summary, SimError> {
                let ck = Checkpoint::decode_for(&frame, &key, &rec).map_err(|detail| {
                    SimError::Invariant {
                        model: "sampling",
                        detail,
                    }
                })?;
                let mut pipe = Pipeline::new(cpu, mem);
                pipe.restore_checkpoint(&ck.state)
                    .map_err(|detail| SimError::Invariant {
                        model: "sampling",
                        detail,
                    })?;
                // Detailed warm-up, then measure: the warm-up span
                // refills the pipeline and memory-system timing state
                // the checkpoint cannot carry, and `reset_stats`
                // discards its cycles so only the window is counted.
                let cursor = rec.replay_span(ck.cursor, warm_insts, &mut pipe);
                pipe.reset_stats();
                rec.replay_span(cursor, window, &mut pipe);
                pipe.try_finish()
            }
        })
        .collect();
    let mut windows = Vec::with_capacity(starts.len());
    for w in pool::run_ordered(ctx.jobs, window_jobs) {
        windows.push(w?);
    }

    match visim_cpu::extrapolate(&total, &windows) {
        Some((mut summary, est)) => {
            summary.metrics.set("cell.sampling.windows", est.windows);
            summary
                .metrics
                .set("cell.sampling.sampled_insts", est.sampled_insts);
            summary
                .metrics
                .set("cell.sampling.ci_centipct", est.ci_centipct);
            summary.metrics.set("cell.sampling.warmup_insts", warmup);
            summary
                .metrics
                .set("cell.sampling.mode", sampling::MODE_SAMPLED);
            Ok(summary)
        }
        None => sampled_exact_fallback(workload, cpu, mem, size, variant, stream),
    }
}

/// One workload through the detailed timing model: the body of a
/// [`CellSpec::Timed`] cell, store-aware (see [`run_cell`]) and
/// stamped with whether it came from the store. Replays the shared
/// recorded stream when the trace cache has it; the result is
/// byte-identical to direct emission either way. Workload panics,
/// invariant violations, and watchdog aborts surface as errors.
fn timed_cell(
    ctx: &RunCtx,
    key: CellKey,
    workload: Workload,
    cpu: &CpuConfig,
    mem: &MemConfig,
    size: &WorkloadSize,
    variant: Variant,
) -> Result<(Summary, bool), SimError> {
    let name = workload.name();
    let (mut summary, from_store) = run_cell(
        ctx,
        key,
        &name,
        || {
            catch_workload(&name, || injected_panic(&name))?;
            let t0 = Instant::now();
            let stream = obtain_stream(ctx, workload, size, variant)?;
            let emit = t0.elapsed();
            let t1 = Instant::now();
            let mut summary = simulate(ctx, workload, cpu, mem, size, variant, &stream)?;
            stamp_cell_metrics(&mut summary.metrics, emit, t1.elapsed(), &stream);
            Ok(summary)
        },
        |s| store::Entry::Timed(Box::new(s.clone())),
        |entry| match entry {
            store::Entry::Timed(s) => Some(*s),
            _ => None,
        },
    )?;
    summary.metrics.set("cell.store_hit", u64::from(from_store));
    Ok((summary, from_store))
}

/// One workload through the functional counter: the body of a
/// [`CellSpec::Counted`] cell (fast; the instruction-mix experiments).
fn counted_cell(
    ctx: &RunCtx,
    key: CellKey,
    workload: Workload,
    size: &WorkloadSize,
    variant: Variant,
) -> Result<(CpuStats, bool), SimError> {
    let name = workload.name();
    run_cell(
        ctx,
        key,
        &name,
        || {
            let mut sink = CountingSink::new();
            catch_workload(&name, || {
                injected_panic(&name);
                workload.run(&mut sink, size, variant)
            })?;
            Ok(sink.finish())
        },
        |c| store::Entry::Counted(c.clone()),
        |entry| match entry {
            store::Entry::Counted(c) => Some(c),
            _ => None,
        },
    )
}

/// What one cell produced, by [`CellSpec`] kind. The large payloads are
/// boxed so a batch of results stays compact.
#[derive(Debug, Clone)]
pub enum CellOutput {
    /// A [`CellSpec::Timed`] cell's timing summary.
    Timed(Box<Summary>),
    /// A [`CellSpec::Counted`] cell's instruction counts.
    Counted(Box<CpuStats>),
}

impl CellOutput {
    /// The summary of a timed cell.
    ///
    /// # Panics
    ///
    /// On any other kind: a spec fixes its output's kind, so a mismatch
    /// is a bug in the caller.
    pub fn into_summary(self) -> Summary {
        match self {
            CellOutput::Timed(s) => *s,
            _ => panic!("not a timed cell"),
        }
    }

    /// The counts of a counted cell. Panics like [`Self::into_summary`].
    pub fn into_counts(self) -> CpuStats {
        match self {
            CellOutput::Counted(c) => *c,
            _ => panic!("not a counted cell"),
        }
    }
}

/// One bar of Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1Bar {
    /// Architecture variation.
    pub arch: Arch,
    /// With or without VIS.
    pub vis: bool,
    /// Timing result.
    pub summary: Summary,
}

/// One pair of Figure 2 bars: base and VIS instruction mixes.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// The benchmark.
    pub bench: Bench,
    /// Scalar-variant counts.
    pub base: CpuStats,
    /// VIS-variant counts.
    pub vis: CpuStats,
}

/// One pair of Figure 3 bars: VIS and VIS+prefetch timings.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The benchmark.
    pub bench: Bench,
    /// VIS baseline.
    pub vis: Summary,
    /// VIS + software prefetching.
    pub pf: Summary,
}

/// One row of the appendix kernel table: a kernel's four cells.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Scalar-variant instruction counts.
    pub base: CpuStats,
    /// VIS-variant instruction counts.
    pub vis: CpuStats,
    /// Scalar-variant detailed timing (4-way ooo).
    pub timed_base: Summary,
    /// VIS-variant detailed timing (4-way ooo).
    pub timed_vis: Summary,
}

/// A cache-size sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Cache size in bytes.
    pub bytes: u64,
    /// Timing result.
    pub summary: Summary,
}

/// The result of executing one manifest: one variant per grid kind,
/// carrying exactly what that kind's renderer needs.
pub enum ManifestOutcome {
    /// Figure 1 bars per benchmark.
    Fig1(Vec<(Bench, Result<Vec<Fig1Bar>, SimError>)>),
    /// Figure 2 instruction-mix rows per benchmark.
    Fig2(Vec<(Bench, Result<Fig2Row, SimError>)>),
    /// Figure 3 prefetch pairs per benchmark.
    Fig3(Vec<(Bench, Result<Fig3Row, SimError>)>),
    /// §4.1 sweep curves per benchmark.
    Sweep {
        /// Which cache was varied.
        cache: SweepCache,
        /// Sweep points per benchmark.
        results: Vec<(Bench, Result<Vec<SweepPoint>, SimError>)>,
    },
    /// Tables 1-4 (static; nothing was simulated).
    Tables,
    /// Ablation summaries: one vector per ratio section (in manifest
    /// order; per benchmark, the out-of-order baseline followed by one
    /// run per sweep value) plus the histogram section's summaries.
    Ablation {
        /// Ratio-section summaries, one inner vector per section.
        sections: Vec<Vec<Summary>>,
        /// Histogram-section summaries.
        histogram: Vec<Summary>,
    },
    /// Appendix kernel rows per kernel.
    Kernels14(Vec<(KernelId, Result<KernelRow, SimError>)>),
}

/// Run `m` under the process default (see [`crate::ctx`]; the
/// benchmark harness's entry point).
pub fn run_manifest(m: &Manifest, size: &WorkloadSize) -> ManifestOutcome {
    ctx::process_default().run_manifest(m, size)
}

impl RunCtx {
    /// Run independent experiment jobs on the worker pool (`self.jobs`
    /// workers) and return the results in input order. Each job must be
    /// a pure function of its captures; the result vector is then
    /// independent of the worker count, which is what makes 1 and 8
    /// workers produce byte-identical figures. The progress observer
    /// sees every completion. Each batch's per-job wall-clock and queue
    /// timings fold into the metrics sink once ([`drain_pool_metrics`]);
    /// they never influence the results.
    pub fn run_parallel<T, F>(&self, work: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        // An empty batch is not a pool run: it leaves no trace in the
        // metrics (the `tables` manifest has no cells).
        if work.is_empty() {
            return Vec::new();
        }
        let observer = self.progress.as_deref().map(|obs| obs as _);
        let (results, stats) = pool::run_ordered_timed_observed(self.jobs, work, observer);
        let mut batch = Registry::new();
        stats.export(&mut batch);
        live::global().merge(&batch);
        results
    }

    /// Run one cell — the single executor behind the figure binaries
    /// ([`Self::run_manifest`]) and the serve daemon. A valid result-store entry
    /// is served without simulating (on resume runs); otherwise the cell
    /// simulates under the fault points and retry policy, and its outcome
    /// is persisted. Returns the output and whether it came from the store.
    pub fn run_spec(
        &self,
        spec: &CellSpec,
        size: &WorkloadSize,
    ) -> Result<(CellOutput, bool), SimError> {
        let key = self.cell_key(spec, size);
        match spec {
            CellSpec::Timed {
                workload,
                cpu,
                mem,
                variant,
                ..
            } => timed_cell(self, key, *workload, cpu, mem, size, *variant)
                .map(|(s, hit)| (CellOutput::Timed(Box::new(s)), hit)),
            CellSpec::Counted {
                workload, variant, ..
            } => counted_cell(self, key, *workload, size, *variant)
                .map(|(c, hit)| (CellOutput::Counted(Box::new(c)), hit)),
        }
    }

    /// The cell's one identity under this context: its result-store
    /// key, which folds in the sampling geometry of timed cells. The
    /// store files the cell under it, and the serve daemon coalesces
    /// concurrent requests on its text.
    pub fn cell_key(&self, spec: &CellSpec, size: &WorkloadSize) -> CellKey {
        match spec {
            CellSpec::Timed {
                workload,
                cpu,
                mem,
                variant,
                ..
            } => CellKey::timed(&workload.name(), cpu, mem, size, *variant, self.sample),
            CellSpec::Counted {
                workload, variant, ..
            } => CellKey::counted(&workload.name(), size, *variant),
        }
    }

    /// Execute a manifest: run its cells ([`Manifest::cells`]) through
    /// [`Self::run_spec`] as one worker-pool batch, then fold the results
    /// into the grid-shaped outcome for rendering.
    pub fn run_manifest(&self, m: &Manifest, size: &WorkloadSize) -> ManifestOutcome {
        fold(&m.grid, run_cells(self, &m.cells(), size))
    }

    /// Run one benchmark through the detailed timing model with
    /// cycle-level tracing attached, returning both the summary and the
    /// recorded [`Trace`]. The caller configures the ring (capacity, cycle
    /// window) before passing it in; the simulation result is identical to
    /// the same [`CellSpec::Timed`] cell under [`Self::run_spec`] — tracing only
    /// observes. The `cell.panic` fault point is armed; the result store is
    /// not consulted.
    pub fn try_run_traced(
        &self,
        bench: Bench,
        arch: Arch,
        mem: Option<MemConfig>,
        size: &WorkloadSize,
        variant: Variant,
        ring: TraceRing,
    ) -> Result<(Summary, Trace), SimError> {
        let workload = Workload::Bench(bench);
        catch_workload(bench.name(), || injected_panic(bench.name()))?;
        let t0 = Instant::now();
        let stream = obtain_stream(self, workload, size, variant)?;
        let emit = t0.elapsed();
        let t1 = Instant::now();
        let ring = Rc::new(RefCell::new(ring));
        let mut sink = Traced::new(
            Pipeline::new(arch.cpu(), mem.unwrap_or_default()),
            ring.clone(),
        );
        feed(workload, size, variant, &stream, &mut sink)?;
        let mut summary = sink.into_inner().try_finish()?;
        stamp_cell_metrics(&mut summary.metrics, emit, t1.elapsed(), &stream);
        // `try_finish` consumed the pipeline, dropping every clone the
        // tracer hooks held; this handle is now the sole owner.
        let ring = Rc::try_unwrap(ring)
            .expect("pipeline dropped; sole ring owner")
            .into_inner();
        Ok((summary, ring.into_trace()))
    }
}

/// Run `cells` as one worker-pool batch, results in input order. Each
/// timed cell holds a [`trace_cache::Consumer`] of its stream, all
/// registered before the batch starts and each dropped when its cell
/// finishes — succeeded, failed or served from the store — so a
/// recorded stream is released right after its last reader instead of
/// lingering in the LRU.
fn run_cells(
    ctx: &RunCtx,
    cells: &[CellSpec],
    size: &WorkloadSize,
) -> Vec<Result<CellOutput, SimError>> {
    let consumers: Vec<_> = cells
        .iter()
        .map(|spec| match spec {
            CellSpec::Timed {
                workload, variant, ..
            } if ctx.trace_budget.is_some() => Some(trace_cache::Consumer::new(
                trace_cache::key_for(&workload.name(), size, *variant),
            )),
            _ => None,
        })
        .collect();
    ctx.run_parallel(
        cells
            .iter()
            .zip(consumers)
            .map(|(spec, consumer)| {
                move || {
                    let result = ctx.run_spec(spec, size).map(|(out, _)| out);
                    drop(consumer);
                    result
                }
            })
            .collect(),
    )
}

/// Fold a manifest's cell results, in [`Manifest::cells`] order, into
/// its grid-shaped outcome. One rule covers every figure: a benchmark
/// whose cells include a failure reports the first failing cell in grid
/// order as its error — the first failing bar of Figure 1 or point of a
/// sweep, and for Figures 2 and 3 a failing base run masks its VIS
/// partner; a kernel reports the first failure among its four cells.
/// Ablations have no degraded rendering: any failure panics.
fn fold(grid: &Grid, results: Vec<Result<CellOutput, SimError>>) -> ManifestOutcome {
    let mut results = results.into_iter();
    match grid {
        Grid::Fig1 {
            benchmarks,
            archs,
            variants,
        } => ManifestOutcome::Fig1(per_bench(
            benchmarks,
            archs.len() * variants.len(),
            &mut results,
            |_, outs| {
                let bars = variants
                    .iter()
                    .flat_map(|v| archs.iter().map(move |&arch| (arch, v.vis)));
                bars.zip(outs)
                    .map(|((arch, vis), out)| Fig1Bar {
                        arch,
                        vis,
                        summary: out.into_summary(),
                    })
                    .collect()
            },
        )),
        Grid::Fig2 { benchmarks, .. } => {
            ManifestOutcome::Fig2(per_bench(benchmarks, 2, &mut results, |bench, outs| {
                let [base, vis]: [CellOutput; 2] = outs.try_into().expect("base and VIS cells");
                Fig2Row {
                    bench,
                    base: base.into_counts(),
                    vis: vis.into_counts(),
                }
            }))
        }
        Grid::Fig3 { benchmarks } => {
            ManifestOutcome::Fig3(per_bench(benchmarks, 2, &mut results, |bench, outs| {
                let [vis, pf]: [CellOutput; 2] = outs.try_into().expect("VIS and prefetch cells");
                Fig3Row {
                    bench,
                    vis: vis.into_summary(),
                    pf: pf.into_summary(),
                }
            }))
        }
        Grid::Sweep {
            cache,
            benchmarks,
            bytes,
        } => ManifestOutcome::Sweep {
            cache: *cache,
            results: per_bench(benchmarks, bytes.len(), &mut results, |_, outs| {
                bytes
                    .iter()
                    .zip(outs)
                    .map(|(&bytes, out)| SweepPoint {
                        bytes,
                        summary: out.into_summary(),
                    })
                    .collect()
            }),
        },
        Grid::Tables => ManifestOutcome::Tables,
        Grid::Ablation {
            benchmarks,
            sections,
            ..
        } => {
            let mut summaries = results.map(|r| {
                r.unwrap_or_else(|e| panic!("ablation cell failed: {e}"))
                    .into_summary()
            });
            ManifestOutcome::Ablation {
                sections: sections
                    .iter()
                    .map(|s| {
                        let cells = benchmarks.len() * (s.values.len() + 1);
                        summaries.by_ref().take(cells).collect()
                    })
                    .collect(),
                histogram: summaries.collect(),
            }
        }
        Grid::Kernels14 { kernels } => {
            ManifestOutcome::Kernels14(per_bench(kernels, 4, &mut results, |_, outs| {
                let [base, vis, timed_base, timed_vis]: [CellOutput; 4] =
                    outs.try_into().expect("two counted and two timed cells");
                KernelRow {
                    base: base.into_counts(),
                    vis: vis.into_counts(),
                    timed_base: timed_base.into_summary(),
                    timed_vis: timed_vis.into_summary(),
                }
            }))
        }
    }
}

/// Give each benchmark (or kernel) its next `per` results:
/// `row(bench, outputs)` when all of them succeeded, else the first
/// failure's error.
fn per_bench<B: Copy, T>(
    benchmarks: &[B],
    per: usize,
    results: &mut impl Iterator<Item = Result<CellOutput, SimError>>,
    row: impl Fn(B, Vec<CellOutput>) -> T,
) -> Vec<(B, Result<T, SimError>)> {
    benchmarks
        .iter()
        .map(|&bench| {
            // Take the whole group before looking for errors, so a
            // failure never shifts the next benchmark's cells.
            let group: Vec<_> = results.by_ref().take(per).collect();
            let outs: Result<Vec<_>, _> = group.into_iter().collect();
            (bench, outs.map(|outs| row(bench, outs)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::variant_label;

    fn tiny() -> WorkloadSize {
        let mut s = WorkloadSize::tiny();
        s.image_w = 32;
        s.image_h = 32;
        s.dotprod_n = 512;
        s
    }

    fn timed(bench: Bench, arch: Arch, variant: Variant) -> Summary {
        timed_in(&RunCtx::default(), bench, arch, variant)
    }

    fn timed_in(ctx: &RunCtx, bench: Bench, arch: Arch, variant: Variant) -> Summary {
        let spec = CellSpec::Timed {
            label: format!(
                "{}/{}/{}",
                bench.name(),
                arch.label(),
                variant_label(variant)
            ),
            workload: bench.into(),
            cpu: arch.cpu(),
            mem: MemConfig::default(),
            variant,
        };
        ctx.run_spec(&spec, &tiny())
            .expect("timed cell runs")
            .0
            .into_summary()
    }

    #[test]
    fn timed_run_produces_consistent_summary() {
        let s = timed(Bench::Addition, Arch::Ooo4, Variant::SCALAR);
        assert!(s.cycles() > 0);
        let b = s.cpu.breakdown();
        assert!((b.total() - s.cycles() as f64).abs() < 1e-6);
        assert!(s.cpu.retired > 1000);
    }

    #[test]
    fn ooo_beats_inorder_on_a_kernel() {
        let io = timed(Bench::Scaling, Arch::InOrder1, Variant::SCALAR);
        let ooo = timed(Bench::Scaling, Arch::Ooo4, Variant::SCALAR);
        let speedup = io.cycles() as f64 / ooo.cycles() as f64;
        assert!(speedup > 1.5, "ILP speedup {speedup:.2}");
    }

    #[test]
    fn vis_beats_scalar_on_a_kernel() {
        let s = timed(Bench::Thresh, Arch::Ooo4, Variant::SCALAR);
        let v = timed(Bench::Thresh, Arch::Ooo4, Variant::VIS);
        let speedup = s.cycles() as f64 / v.cycles() as f64;
        assert!(speedup > 1.5, "VIS speedup {speedup:.2}");
    }

    /// The load-bearing tentpole invariant: a replayed stream drives
    /// the pipeline to the *exact* state direct emission does — every
    /// counter, breakdown and histogram, not just final cycles. Run
    /// twice so both the cold (record→replay) and warm (cache-hit
    /// replay) paths are checked against the direct reference.
    #[test]
    fn replay_matches_direct_emission_exactly() {
        let size = tiny();
        for pass in ["cold", "warm"] {
            let r = timed(Bench::Blend, Arch::Ooo4, Variant::VIS);
            let mut pipe = Pipeline::new(Arch::Ooo4.cpu(), MemConfig::default());
            Bench::Blend.run(&mut pipe, &size, Variant::VIS);
            let d = pipe.try_finish().unwrap();
            assert_eq!(
                format!("{:?}", r.cpu),
                format!("{:?}", d.cpu),
                "{pass}: cpu stats diverge under replay"
            );
            assert_eq!(r.mem, d.mem, "{pass}: mem stats diverge under replay");
            assert_eq!(
                r.mshr_histogram, d.mshr_histogram,
                "{pass}: MSHR histogram diverges under replay"
            );
        }
    }

    /// A failing cell still drops its consumer: once both readers of
    /// a stream are done, one of them wedged by a one-cycle watchdog,
    /// the stream has left the resident set.
    #[test]
    fn a_failing_cell_still_releases_its_stream() {
        let mut size = tiny();
        size.seed = 0x5eed_f00d; // a stream no other test records
        let mut wedged = Arch::Ooo4.cpu();
        wedged.watchdog_cycles = 1;
        let cell = |label: &str, cpu| CellSpec::Timed {
            label: label.into(),
            workload: Bench::Addition.into(),
            cpu,
            mem: MemConfig::default(),
            variant: Variant::SCALAR,
        };
        let results = run_cells(
            &RunCtx::default(),
            &[cell("ok", Arch::Ooo4.cpu()), cell("wedged", wedged)],
            &size,
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "the wedged cell fails");
        let key = trace_cache::key_for("addition", &size, Variant::SCALAR);
        assert!(!trace_cache::is_resident(&key), "stream released");
    }

    /// The manifest engine folds exactly what the per-cell executor
    /// returns, and Figure 2's shape holds: VIS never adds instructions
    /// and cuts the kernels' counts sharply.
    #[test]
    fn fig2_manifest_matches_per_cell_runs() {
        let (ctx, size) = (RunCtx::default(), tiny());
        let m = Manifest::builtin("fig2").unwrap();
        let ManifestOutcome::Fig2(rows) = ctx.run_manifest(&m, &size) else {
            panic!("fig2 manifest folds into Figure 2 rows");
        };
        assert_eq!(rows.len(), 12);
        let mut cells = m.cells().into_iter();
        for (bench, row) in rows {
            let r = row.unwrap();
            for (counts, what) in [(&r.base, "base"), (&r.vis, "vis")] {
                let cell = ctx.run_spec(&cells.next().unwrap(), &size).unwrap().0;
                let solo = cell.into_counts();
                assert_eq!(counts.retired, solo.retired, "{bench:?} {what}");
                assert_eq!(counts.mix, solo.mix, "{bench:?} {what} mix");
            }
            assert!(
                r.vis.retired <= r.base.retired,
                "{}: VIS should not add instructions",
                bench.name()
            );
            if bench == Bench::Addition {
                assert!(r.vis.retired * 2 < r.base.retired);
            }
        }
    }

    fn ok_timed(cycles: u64) -> Result<CellOutput, SimError> {
        let mut cpu = CpuStats::default();
        cpu.cycles = cycles;
        Ok(CellOutput::Timed(Box::new(Summary {
            cpu,
            mem: visim_mem::MemStats::default(),
            mshr_histogram: Vec::new(),
            metrics: Registry::new(),
        })))
    }

    fn ok_counted(retired: u64) -> Result<CellOutput, SimError> {
        let mut counts = CpuStats::default();
        counts.retired = retired;
        Ok(CellOutput::Counted(Box::new(counts)))
    }

    fn injected(bench: Bench, n: u32) -> Result<CellOutput, SimError> {
        Err(SimError::Workload {
            bench: bench.name().to_string(),
            detail: format!("injected #{n}"),
        })
    }

    fn error_detail<T>(row: &Result<T, SimError>) -> String {
        match row {
            Err(SimError::Workload { detail, .. }) => detail.clone(),
            Err(e) => panic!("unexpected error {e}"),
            Ok(_) => panic!("expected an error row"),
        }
    }

    #[test]
    fn fig1_and_sweep_rows_take_the_first_failing_cell() {
        let benchmarks = vec![Bench::Addition, Bench::Blend, Bench::Conv];
        let grid = Grid::Fig1 {
            benchmarks: benchmarks.clone(),
            archs: Arch::all().to_vec(),
            variants: vec![Variant::SCALAR, Variant::VIS],
        };
        let results = (0..18u64)
            .map(|i| match i {
                8 => injected(Bench::Blend, 1),
                10 => injected(Bench::Blend, 2),
                _ => ok_timed(i),
            })
            .collect();
        let ManifestOutcome::Fig1(rows) = fold(&grid, results) else {
            panic!("fig1 grid folds into Figure 1 bars");
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(error_detail(&rows[1].1), "injected #1");
        for (ix, first) in [(0, 0u64), (2, 12)] {
            let (bench, bars) = &rows[ix];
            assert_eq!(*bench, benchmarks[ix]);
            let bars = bars.as_ref().expect("healthy benchmark keeps its bars");
            let cycles: Vec<u64> = bars.iter().map(|b| b.summary.cycles()).collect();
            assert_eq!(cycles, (first..first + 6).collect::<Vec<_>>());
            for (b, bar) in bars.iter().enumerate() {
                assert_eq!(bar.arch, Arch::all()[b % 3]);
                assert_eq!(bar.vis, b >= 3);
            }
        }

        let grid = Grid::Sweep {
            cache: SweepCache::L2,
            benchmarks: vec![Bench::Addition, Bench::Blend],
            bytes: vec![1, 2, 3],
        };
        let results = vec![
            ok_timed(1),
            ok_timed(2),
            ok_timed(3),
            ok_timed(4),
            injected(Bench::Blend, 1),
            injected(Bench::Blend, 2),
        ];
        let ManifestOutcome::Sweep { results: rows, .. } = fold(&grid, results) else {
            panic!("sweep grid folds into sweep curves");
        };
        let points = rows[0].1.as_ref().expect("addition keeps its curve");
        let bytes: Vec<u64> = points.iter().map(|p| p.bytes).collect();
        assert_eq!(bytes, [1, 2, 3]);
        assert_eq!(error_detail(&rows[1].1), "injected #1");

        let grid = Grid::Kernels14 {
            kernels: vec![KernelId::Copy, KernelId::Lookup],
        };
        let results = vec![
            ok_counted(90),
            ok_counted(30),
            ok_timed(80),
            ok_timed(20),
            ok_counted(70),
            injected(Bench::Blend, 1),
            ok_timed(60),
            injected(Bench::Blend, 2),
        ];
        let ManifestOutcome::Kernels14(rows) = fold(&grid, results) else {
            panic!("kernels14 grid folds into kernel rows");
        };
        let copy = rows[0].1.as_ref().expect("copy keeps its row");
        assert_eq!((copy.base.retired, copy.vis.retired), (90, 30));
        assert_eq!(
            (copy.timed_base.cycles(), copy.timed_vis.cycles()),
            (80, 20)
        );
        assert_eq!(rows[1].0, KernelId::Lookup);
        assert_eq!(error_detail(&rows[1].1), "injected #1");
    }

    #[test]
    fn fig2_and_fig3_base_failures_mask_the_vis_partner() {
        let grid = Grid::Fig2 {
            benchmarks: vec![Bench::Addition, Bench::Blend, Bench::Conv],
            highlights: Vec::new(),
        };
        let results = vec![
            ok_counted(100),
            ok_counted(40),
            injected(Bench::Blend, 1),
            ok_counted(30),
            ok_counted(90),
            injected(Bench::Conv, 2),
        ];
        let ManifestOutcome::Fig2(rows) = fold(&grid, results) else {
            panic!("fig2 grid folds into Figure 2 rows");
        };
        let addition = rows[0].1.as_ref().expect("addition keeps its row");
        assert_eq!((addition.base.retired, addition.vis.retired), (100, 40));
        assert_eq!(error_detail(&rows[1].1), "injected #1", "base masks VIS");
        assert_eq!(error_detail(&rows[2].1), "injected #2", "VIS fails alone");

        let grid = Grid::Fig3 {
            benchmarks: vec![Bench::Addition, Bench::Blend],
        };
        let results = vec![
            injected(Bench::Addition, 1),
            injected(Bench::Addition, 2),
            ok_timed(7),
            ok_timed(5),
        ];
        let ManifestOutcome::Fig3(rows) = fold(&grid, results) else {
            panic!("fig3 grid folds into Figure 3 rows");
        };
        assert_eq!(error_detail(&rows[0].1), "injected #1", "VIS masks VIS+PF");
        let blend = rows[1].1.as_ref().expect("blend keeps its row");
        assert_eq!((blend.vis.cycles(), blend.pf.cycles()), (7, 5));
    }

    /// A context sampling at `scfg`; with `direct`, also without a
    /// trace cache, so no cell stream can be windowed.
    fn sampled_ctx(scfg: SampleConfig, direct: bool) -> RunCtx {
        let ctx = RunCtx::default();
        RunCtx {
            sample: Some(scfg),
            trace_budget: ctx.trace_budget.filter(|_| !direct),
            ..ctx
        }
    }

    /// Short enough for tiny streams.
    const SHORT: SampleConfig = SampleConfig {
        window: 500,
        period: 2_000,
    };

    /// Sampling accuracy and telemetry. The sampled context runs beside
    /// the exact ones of the other tests; nothing leaks between them.
    #[test]
    fn sampled_estimate_tracks_exact_cycles() {
        let exact = timed(Bench::Addition, Arch::Ooo4, Variant::SCALAR);
        let ctx = sampled_ctx(SHORT, false);
        let s = timed_in(&ctx, Bench::Addition, Arch::Ooo4, Variant::SCALAR);
        assert_eq!(
            s.metrics.counter("cell.sampling.mode"),
            sampling::MODE_SAMPLED
        );
        assert!(s.metrics.counter("cell.sampling.windows") >= 2);
        assert!(s.metrics.counter("cell.sampling.sampled_insts") >= 1_000);
        assert_eq!(
            s.cpu.retired, exact.cpu.retired,
            "functional counters are exact, not estimated"
        );
        assert_eq!(s.cpu.mix, exact.cpu.mix);
        assert_eq!(s.cpu.mispredicts, exact.cpu.mispredicts);
        // Cache hit/miss behaviour is reproduced exactly by the warming
        // pass; only retry-dependent counters (accesses, MSHR rejects)
        // depend on issue timing and may differ.
        assert_eq!(s.mem.l1_hits, exact.mem.l1_hits);
        assert_eq!(s.mem.l1_primary_misses, exact.mem.l1_primary_misses);
        assert_eq!(s.mem.l1_merged_misses, exact.mem.l1_merged_misses);
        assert_eq!(s.mem.l2_accesses, exact.mem.l2_accesses);
        assert_eq!(s.mem.l2_misses, exact.mem.l2_misses);
        let err = (s.cycles() as f64 - exact.cycles() as f64).abs() / exact.cycles() as f64;
        assert!(
            err < 0.15,
            "sampled {} vs exact {} cycles ({:.1}% off)",
            s.cycles(),
            exact.cycles(),
            100.0 * err
        );
        // The attribution stays exhaustive on the estimated summary.
        let b = s.cpu.breakdown();
        assert!((b.total() - s.cycles() as f64).abs() < 1e-6);

        // Repeatability: the sampled estimate is deterministic.
        let again = timed_in(&ctx, Bench::Addition, Arch::Ooo4, Variant::SCALAR);
        assert_eq!(format!("{:?}", again.cpu), format!("{:?}", s.cpu));
    }

    /// Streams sampling cannot window (direct emission, or too short
    /// for two windows) degrade to exact simulation and say so.
    #[test]
    fn unsampleable_cells_fall_back_to_exact() {
        let exact = timed(Bench::Addition, Arch::Ooo4, Variant::SCALAR);
        let huge = SampleConfig {
            window: 1 << 40,
            period: 1 << 40,
        };
        for ctx in [sampled_ctx(SHORT, true), sampled_ctx(huge, false)] {
            let s = timed_in(&ctx, Bench::Addition, Arch::Ooo4, Variant::SCALAR);
            assert_eq!(
                s.metrics.counter("cell.sampling.mode"),
                sampling::MODE_EXACT_FALLBACK
            );
            assert_eq!(s.metrics.counter("cell.sampling.windows"), 0);
            assert_eq!(s.cycles(), exact.cycles(), "fallback is exact");
        }
    }

    fn transient() -> SimError {
        SimError::Transient {
            point: "test.retry".into(),
            detail: "injected".into(),
        }
    }

    /// Both retry outcomes in one test: the retry counters are
    /// process-wide, and no other test in this crate raises a transient
    /// error, so deltas read from the sink are exact.
    #[test]
    fn retry_counts_recovered_and_exhausted_transients() {
        let counts = || RETRY_COUNTERS.map(|n| live::global().counter(n));
        let delta = |before: [u64; 3]| {
            let after = counts();
            [0, 1, 2].map(|i| after[i] - before[i])
        };
        // [attempts, recovered, exhausted]
        let before = counts();
        let got = with_retry(|attempt| (attempt > 0).then_some(attempt).ok_or_else(transient));
        assert_eq!(got.unwrap(), 1);
        assert_eq!(delta(before), [1, 1, 0]);

        let before = counts();
        let got: Result<(), SimError> = with_retry(|_| Err(transient()));
        assert!(got.unwrap_err().is_transient());
        assert_eq!(delta(before), [u64::from(MAX_ATTEMPTS) - 1, 0, 1]);
    }
}
