//! The traced run: re-execute a workload's cells by calling each
//! layer's public functions directly, with one span around every call.
//!
//! For each distinct instruction stream (benchmark × code variant) of
//! the workload's grid, the probe
//!
//! 1. emits it into a `CountingSink` (`emit`),
//! 2. records it into a `Recorder` (`record`, which includes emission),
//! 3. replays it into a no-op sink (`replay`),
//! 4. feeds its memory references in order to `MemSystem::access`,
//!    retrying rejected demand accesses at `Rejection::retry_at` (`mem`),
//! 5. per architecture, runs the functional warming pass with a
//!    checkpoint at every window entry (`warming`, `checkpoint.save`),
//!    and the detailed windows from those checkpoints (`window`,
//!    `checkpoint.decode`, `checkpoint.restore`), then extrapolates —
//!    the sampled-mode computation of `experiment::run_manifest`,
//! 6. per architecture, replays it into a fresh `Pipeline`
//!    (`pipeline.<arch>`): the exact cell.
//!
//! The probe runs twice, first without and then with span recording;
//! the wall-clock difference is the tracing overhead. The traced pass
//! also yields every cell's simulated statistics, whose digest must
//! equal the untraced benchmark run's. Afterwards the grid runs once
//! through `experiment::run_manifest` for the trace-cache counters,
//! the cell summaries go through `store::save`/`store::load`, and the
//! manifest resolution the daemon performs per request is timed.

use std::collections::BTreeMap;
use std::time::Instant;

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::config::Arch;
use visim::experiment;
use visim::manifest::{CellSpec, Manifest};
use visim::sampling::SampleConfig;
use visim::{store, trace_cache};
use visim_cpu::{CountingSink, CpuConfig, Pipeline, SimSink, Summary, WarmingSink};
use visim_isa::{Inst, MemKind};
use visim_mem::{MemConfig, MemSystem, Request};
use visim_obs::Json;
use visim_trace::{Checkpoint, Recorded, Recorder, ReplayCursor};
use visim_util::fnv1a64;

use crate::args::Args;
use crate::fig1;
use crate::spans::Spans;

/// Replay target that only consumes the instructions.
struct Nop;

impl SimSink for Nop {
    fn push(&mut self, inst: Inst) {
        std::hint::black_box(inst);
    }
}

/// Collects the stream's memory references in program order.
#[derive(Default)]
struct MemRefs(Vec<(u64, u8, MemKind)>);

impl SimSink for MemRefs {
    fn push(&mut self, inst: Inst) {
        if let Some(m) = inst.mem {
            self.0.push((m.addr, m.size, m.kind));
        }
    }
}

/// One instruction stream and the architectures that consume it.
struct Stream {
    bench: Bench,
    variant: Variant,
    archs: Vec<Arch>,
}

/// Work counts accumulated alongside the spans.
#[derive(Default)]
struct Counts {
    insts: u64,
    rec_bytes: u64,
    accesses: u64,
    attempts: u64,
    rejects: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    windows: u64,
    window_insts: u64,
    /// Per architecture label: instructions replayed into the pipeline
    /// and cycles simulated.
    pipe_insts: BTreeMap<&'static str, u64>,
    pipe_cycles: u64,
    /// Warming passes run (one per architecture per stream).
    warm_insts: u64,
}

/// A span recorder that can be switched off for the untraced pass.
struct Probe {
    spans: Spans,
    on: bool,
}

impl Probe {
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.on {
            self.spans.time(name, parent, id, f)
        } else {
            f()
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, id: &str) -> Option<usize> {
        self.on.then(|| self.spans.begin(name, parent, id))
    }

    fn end(&mut self, ix: Option<usize>) {
        if let Some(ix) = ix {
            self.spans.end(ix);
        }
    }
}

fn pipeline_span(arch: Arch) -> &'static str {
    match arch {
        Arch::InOrder1 => "pipeline.1-way",
        Arch::InOrder4 => "pipeline.4-way",
        Arch::Ooo4 => "pipeline.4-way-ooo",
    }
}

fn ckpt_key(id: &str, arch: Arch, ix: usize) -> String {
    format!("{id}|{}|win{ix}", arch.label())
}

fn invariant(detail: String) -> String {
    format!("sampling invariant: {detail}")
}

/// Feed the recorded memory references to a fresh memory system in
/// order, one instruction slot per reference, retrying rejected demand
/// accesses at the cycle the rejection names (prefetches are dropped,
/// as the pipeline drops them).
fn drive_mem(refs: &[(u64, u8, MemKind)], counts: &mut Counts) {
    let mut mem = MemSystem::new(MemConfig::default());
    let mut now = 0u64;
    for &(addr, size, kind) in refs {
        now += 1;
        loop {
            counts.attempts += 1;
            match mem.access(Request::new(addr, size, kind), now) {
                Ok(_) => break,
                Err(rej) => {
                    counts.rejects += 1;
                    if kind == MemKind::Prefetch {
                        break;
                    }
                    now = rej.retry_at.max(now + 1);
                }
            }
        }
    }
    counts.accesses += refs.len() as u64;
}

/// The sampled-mode computation for one cell, mirroring
/// `experiment::run_manifest` under `--sample`: a warming pass with a
/// checkpoint at each window's warm-up entry, then each window
/// restored into a fresh pipeline, warmed up in detail, measured, and
/// extrapolated. Streams too short for two windows fall back to exact
/// simulation, as the engine does.
#[allow(clippy::too_many_arguments)]
fn sampled_cell(
    p: &mut Probe,
    parent: Option<usize>,
    id: &str,
    rec: &Recorded,
    arch: Arch,
    scfg: SampleConfig,
    counts: &mut Counts,
) -> Result<Summary, String> {
    let cpu: CpuConfig = arch.cpu();
    let n = rec.len() as u64;
    let starts: Vec<u64> = (0u64..)
        .map(|k| k.saturating_mul(scfg.period))
        .take_while(|s| s.saturating_add(scfg.window) <= n)
        .collect();
    if starts.len() < 2 {
        return exact_cell(p, parent, id, rec, arch, counts);
    }
    let warmup = scfg.warmup();
    let entries: Vec<u64> = starts.iter().map(|&s| s.saturating_sub(warmup)).collect();
    let warm_ix = p.begin("warming", parent, id);
    let mut warm = WarmingSink::new(&cpu, MemConfig::default());
    let mut cursor = ReplayCursor::start();
    let mut frames = Vec::with_capacity(entries.len());
    for (ix, &entry) in entries.iter().enumerate() {
        cursor = rec.replay_span(cursor, entry - warm.insts(), &mut warm);
        let frame = p.time("checkpoint.save", warm_ix, id, || {
            Checkpoint {
                cursor,
                state: warm.checkpoint(),
            }
            .encode(&ckpt_key(id, arch, ix))
        });
        counts.checkpoints += 1;
        counts.checkpoint_bytes += frame.len() as u64;
        frames.push(frame);
    }
    rec.replay_span(cursor, u64::MAX, &mut warm);
    let total = warm.finish();
    p.end(warm_ix);
    counts.warm_insts += n;

    let mut windows = Vec::with_capacity(frames.len());
    for (ix, frame) in frames.iter().enumerate() {
        let w_ix = p.begin("window", parent, id);
        let ck = p
            .time("checkpoint.decode", w_ix, id, || {
                Checkpoint::decode_for(frame, &ckpt_key(id, arch, ix), rec)
            })
            .map_err(invariant)?;
        let mut pipe = Pipeline::new(cpu.clone(), MemConfig::default());
        p.time("checkpoint.restore", w_ix, id, || {
            pipe.restore_checkpoint(&ck.state)
        })
        .map_err(invariant)?;
        let warm_insts = starts[ix] - entries[ix];
        let cursor = rec.replay_span(ck.cursor, warm_insts, &mut pipe);
        pipe.reset_stats();
        rec.replay_span(cursor, scfg.window, &mut pipe);
        let summary = pipe.try_finish().map_err(|e| e.to_string())?;
        p.end(w_ix);
        counts.windows += 1;
        counts.window_insts += warm_insts + scfg.window;
        windows.push(summary);
    }
    match visim_cpu::extrapolate(&total, &windows) {
        Some((summary, _)) => Ok(summary),
        None => exact_cell(p, parent, id, rec, arch, counts),
    }
}

/// Exact simulation of one cell: the whole stream replayed into a
/// fresh pipeline.
fn exact_cell(
    p: &mut Probe,
    parent: Option<usize>,
    id: &str,
    rec: &Recorded,
    arch: Arch,
    counts: &mut Counts,
) -> Result<Summary, String> {
    let summary = p.time(pipeline_span(arch), parent, id, || {
        let mut pipe = Pipeline::new(arch.cpu(), MemConfig::default());
        rec.replay(&mut pipe);
        pipe.try_finish()
    });
    let summary = summary.map_err(|e| e.to_string())?;
    *counts.pipe_insts.entry(pipeline_span(arch)).or_default() += rec.len() as u64;
    counts.pipe_cycles += summary.cycles();
    Ok(summary)
}

/// Run every layer over every stream. Returns the cell summaries keyed
/// by manifest label.
fn probe_streams(
    p: &mut Probe,
    streams: &[Stream],
    size: &WorkloadSize,
    scfg: SampleConfig,
    counts: &mut Counts,
) -> Result<BTreeMap<String, Summary>, String> {
    let mut cells = BTreeMap::new();
    for s in streams {
        let id = format!(
            "{}/{}",
            s.bench.name(),
            visim::manifest::variant_label(s.variant)
        );
        let root = p.begin("stream", None, &id);
        let mut counter = CountingSink::new();
        p.time("emit", root, &id, || {
            s.bench.run(&mut counter, size, s.variant)
        });
        let rec = p
            .time("record", root, &id, || {
                let mut recorder = Recorder::new(trace_cache::budget_bytes());
                s.bench.run(&mut recorder, size, s.variant);
                recorder.finish()
            })
            .ok_or_else(|| format!("{id}: stream exceeds the trace budget"))?;
        counts.insts += rec.len() as u64;
        counts.rec_bytes += rec.approx_bytes() as u64;
        p.time("replay", root, &id, || rec.replay(&mut Nop));
        let mut refs = MemRefs::default();
        rec.replay(&mut refs);
        p.time("mem", root, &id, || drive_mem(&refs.0, counts));
        drop(refs);
        for &arch in &s.archs {
            let label = cell_label(s.bench, arch, s.variant);
            sampled_cell(p, root, &id, &rec, arch, scfg, counts)?;
            let summary = exact_cell(p, root, &id, &rec, arch, counts)?;
            cells.insert(label, summary);
        }
        p.end(root);
    }
    Ok(cells)
}

/// The manifest label of a timed cell (Figure 1 and Figure 3 grids).
fn cell_label(bench: Bench, arch: Arch, variant: Variant) -> String {
    if variant.prefetch {
        format!(
            "{}/{}",
            bench.name(),
            visim::manifest::variant_label(variant)
        )
    } else {
        fig1::label(bench, arch, variant.vis)
    }
}

/// The streams of a Figure 1 grid over `benches`, plus (for the serve
/// cell set) the Figure 3 prefetch streams on the 4-way ooo machine.
fn streams(benches: &[Bench], with_fig3: bool) -> Vec<Stream> {
    let mut out = Vec::new();
    for &bench in benches {
        for variant in [Variant::SCALAR, Variant::VIS] {
            out.push(Stream {
                bench,
                variant,
                archs: Arch::all().to_vec(),
            });
        }
    }
    if with_fig3 {
        for bench in Bench::prefetch_set() {
            out.push(Stream {
                bench,
                variant: Variant::VIS_PF,
                archs: vec![Arch::Ooo4],
            });
        }
    }
    out
}

fn per_inst(ns: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns / n as f64
    }
}

pub fn main(args: &Args) -> Result<(), String> {
    let size = args.workload_size()?;
    let workload = args.str("workload")?;
    let out_dir = args.str("out")?;
    let benches = fig1::benches(args)?;
    // The sampled-mode computation runs for the warming and checkpoint
    // layers; the cells are the exact ones.
    let scfg = args.window_geometry()?;
    let serve_cells = workload == "serve-mixed";
    let streams = streams(&benches, serve_cells);
    let epoch = Instant::now();

    // Untraced pass, then traced pass: the difference is the overhead.
    let mut untraced = Probe {
        spans: Spans::new(epoch),
        on: false,
    };
    let t0 = Instant::now();
    let reference = probe_streams(
        &mut untraced,
        &streams,
        &size,
        scfg,
        &mut Counts::default(),
    )?;
    let untraced_s = t0.elapsed().as_secs_f64();
    let mut p = Probe {
        spans: Spans::new(epoch),
        on: true,
    };
    let mut counts = Counts::default();
    let t1 = Instant::now();
    let cells = probe_streams(&mut p, &streams, &size, scfg, &mut counts)?;
    let traced_s = t1.elapsed().as_secs_f64();
    let layer_digest = digest(&cells, &benches);
    let reference_digest = digest(&reference, &benches);

    // The engine itself, for the trace-cache counters (and a third
    // opinion on the digest).
    fig1::pin_exact();
    let manifests: Vec<Manifest> = if serve_cells {
        ["fig1", "fig3"]
            .iter()
            .filter_map(|n| Manifest::builtin(n))
            .collect()
    } else {
        vec![fig1::manifest(benches.clone())]
    };
    experiment::drain_pool_metrics();
    let mut engine_digest = String::new();
    for m in &manifests {
        let outcome = p.time("run_manifest", None, "engine", || {
            experiment::run_manifest(m, &size)
        });
        if m.name == "fig1" {
            engine_digest = fig1::outcome_cells(&outcome).1;
        }
    }
    let pool = experiment::drain_pool_metrics();

    // Store I/O over the cell set, in a scratch store directory.
    let store_dir = format!("{out_dir}/store");
    let _ = std::fs::remove_dir_all(&store_dir);
    store::set_cli_dir(&store_dir);
    let mut keyed = Vec::new();
    for s in &streams {
        for &arch in &s.archs {
            let label = cell_label(s.bench, arch, s.variant);
            if let (Some(key), Some(summary)) = (
                store::timed_key(
                    s.bench.name(),
                    &arch.cpu(),
                    &MemConfig::default(),
                    &size,
                    s.variant,
                ),
                cells.get(&label),
            ) {
                keyed.push((key, summary.clone(), label));
            }
        }
    }
    let mut entry_bytes = 0u64;
    for (key, summary, label) in &keyed {
        p.time("store.save", None, label, || {
            store::save(key, &store::Entry::Timed(Box::new(summary.clone())))
        });
        entry_bytes += std::fs::metadata(format!("{store_dir}/{}", key.file_name()))
            .map(|m| m.len())
            .unwrap_or(0);
    }
    let mut loaded = 0u64;
    for (key, _, label) in &keyed {
        if p.time("store.load", None, label, || store::load(key))
            .is_some()
        {
            loaded += 1;
        }
    }
    if loaded != keyed.len() as u64 {
        return Err(format!(
            "store: {loaded} of {} entries read back",
            keyed.len()
        ));
    }

    // Manifest resolution, as the daemon does it for every request.
    let labels: Vec<(String, String)> = manifests
        .iter()
        .flat_map(|m| {
            m.cells()
                .into_iter()
                .map(|c| (m.name.clone(), c.label().to_string()))
        })
        .collect();
    for (name, label) in &labels {
        let found = p.time("manifest.resolve", None, label, || {
            let m = Manifest::builtin(name)?;
            let mut specs: Vec<CellSpec> = m.cells();
            specs.retain(|s| s.label() == label);
            (!specs.is_empty()).then_some(())
        });
        if found.is_none() {
            return Err(format!("manifest {name}: no cell {label:?}"));
        }
    }

    let totals = p.spans.totals();
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64);
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let replay_per_inst = per_inst(total_ns("replay"), counts.insts);
    let mut metrics: Vec<(String, f64)> = vec![
        (
            "emit.ns_per_inst".into(),
            per_inst(total_ns("emit"), counts.insts),
        ),
        (
            "record.ns_per_inst".into(),
            per_inst(total_ns("record") - total_ns("emit"), counts.insts),
        ),
        (
            "record.bytes_per_inst".into(),
            per_inst(counts.rec_bytes as f64, counts.insts),
        ),
        ("replay.ns_per_inst".into(), replay_per_inst),
    ];
    // Pipeline cost per instruction and per cycle, net of the
    // full-stream replays.
    let mut pipe_net_total = 0.0;
    for arch in Arch::all() {
        let name = pipeline_span(arch);
        let n = counts.pipe_insts.get(name).copied().unwrap_or(0);
        let net = total_ns(name) - replay_per_inst * n as f64;
        pipe_net_total += net;
        metrics.push((format!("{name}.ns_per_inst"), per_inst(net, n)));
    }
    metrics.push((
        "pipeline.ns_per_cycle".into(),
        per_inst(pipe_net_total, counts.pipe_cycles),
    ));
    metrics.extend([
        (
            "mem.ns_per_access".into(),
            per_inst(total_ns("mem"), counts.accesses),
        ),
        (
            "mem.reject_ratio".into(),
            per_inst(counts.rejects as f64, counts.attempts),
        ),
        (
            "warming.ns_per_inst".into(),
            per_inst(
                self_ns("warming") - replay_per_inst * counts.warm_insts as f64,
                counts.warm_insts,
            ),
        ),
        ("checkpoint.count".into(), counts.checkpoints as f64),
        (
            "checkpoint.bytes".into(),
            per_inst(counts.checkpoint_bytes as f64, counts.checkpoints),
        ),
        (
            "checkpoint.us_each".into(),
            per_inst(
                total_ns("checkpoint.save")
                    + total_ns("checkpoint.decode")
                    + total_ns("checkpoint.restore"),
                counts.checkpoints,
            ) / 1e3,
        ),
        ("window.count".into(), counts.windows as f64),
        (
            "window.ns_per_inst".into(),
            per_inst(self_ns("window"), counts.window_insts),
        ),
        (
            "trace_cache.hits".into(),
            pool.counter("trace_cache.hits") as f64,
        ),
        (
            "trace_cache.misses".into(),
            pool.counter("trace_cache.misses") as f64,
        ),
        (
            "trace_cache.resident_mb".into(),
            pool.counter("trace_cache.resident_bytes") as f64 / (1 << 20) as f64,
        ),
        (
            "store.load_us".into(),
            per_inst(total_ns("store.load"), count("store.load")) / 1e3,
        ),
        (
            "store.save_us".into(),
            per_inst(total_ns("store.save"), count("store.save")) / 1e3,
        ),
        (
            "store.entry_bytes".into(),
            per_inst(entry_bytes as f64, keyed.len() as u64),
        ),
        (
            "manifest.resolve_us".into(),
            per_inst(total_ns("manifest.resolve"), count("manifest.resolve")) / 1e3,
        ),
    ]);

    let mut text = p.spans.chrome_trace().to_compact();
    text.push('\n');
    let trace_path = format!("{out_dir}/layers.trace.json");
    std::fs::write(&trace_path, text).map_err(|e| format!("write {trace_path}: {e}"))?;

    let self_times = Json::Obj(
        totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("count", Json::from(t.count)),
                        ("total_ms", Json::from(t.total_ns as f64 / 1e6)),
                        ("self_ms", Json::from(t.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("untraced_s", Json::from(untraced_s)),
        ("traced_s", Json::from(traced_s)),
        ("digest", Json::from(layer_digest)),
        ("untraced_digest", Json::from(reference_digest)),
        ("engine_digest", Json::from(engine_digest)),
        ("self_times", self_times),
        (
            "layers",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::from(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_compact());
    Ok(())
}

/// The digest of the Figure 1 cells among `cells`, in figure order —
/// the same text `fig1::outcome_cells` digests.
fn digest(cells: &BTreeMap<String, Summary>, benches: &[Bench]) -> String {
    let mut input = String::new();
    for &bench in benches {
        for vis in [false, true] {
            for arch in Arch::all() {
                let label = fig1::label(bench, arch, vis);
                if let Some(s) = cells.get(&label) {
                    input.push_str(&fig1::digest_line(&label, s));
                }
            }
        }
    }
    format!("{:016x}", fnv1a64(input.as_bytes()))
}
