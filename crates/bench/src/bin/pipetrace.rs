//! Cycle-level pipeline tracing: record per-instruction lifecycle
//! spans (fetch→dispatch→issue→complete→retire), microarchitectural
//! instant events (branch mispredicts, cache hits/misses, MSHR
//! allocate/drain, prefetch issues), and per-cycle stall-cause samples
//! for one benchmark × configuration, then export them as a Chrome
//! trace-event / Perfetto JSON file under `results/trace/`.
//!
//! Alongside the trace file the binary prints a stall-attribution
//! report: the trace-derived per-cycle attribution next to the
//! pipeline's aggregate Figure 1 breakdown. The two are computed by
//! independent code paths from the same per-cycle charging rule
//! (§2.3.4 of the paper), so they must agree **exactly** — in integer
//! units of `1/issue_width` cycles — and the binary exits nonzero when
//! they do not.
//!
//! `--attribution` switches to matrix mode: every benchmark × six main
//! configurations runs with an aggregates-only ring (capacity 0, no
//! event storage) on the experiment worker pool, and the per-cell
//! trace/aggregate attribution pairs land in
//! `results/json/pipetrace.json` for the `validate` gate's
//! cycle-for-cycle cross-check.

use media_kernels::Variant;
use visim::artifact;
use visim::bench::{Bench, WorkloadSize};
use visim::config::Arch;
use visim::ctx::{self, RunCtx};
use visim_bench::{heartbeat, Report};
use visim_cpu::Summary;
use visim_obs::trace::{Trace, TraceRing};
use visim_obs::{schema, Json};
use visim_util::atomic::write_atomic;
use visim_util::SimError;

/// The six main configurations of Figure 1, by CLI name.
const CONFIGS: [(&str, Arch, bool); 6] = [
    ("1way", Arch::InOrder1, false),
    ("4way", Arch::InOrder4, false),
    ("ooo", Arch::Ooo4, false),
    ("1way-vis", Arch::InOrder1, true),
    ("4way-vis", Arch::InOrder4, true),
    ("ooo-vis", Arch::Ooo4, true),
];

/// Event capacity of the trace ring in single-run mode. Oldest events
/// are evicted (and counted) past this; the attribution aggregates are
/// exact regardless.
const RING_CAP: usize = 1 << 18;

fn usage() -> String {
    let benches: Vec<&str> = Bench::all().iter().map(|b| b.name()).collect();
    let configs: Vec<&str> = CONFIGS.iter().map(|&(name, _, _)| name).collect();
    format!(
        "pipetrace: cycle-level pipeline tracing with Perfetto/Chrome trace export\n\
         \n\
         Usage: pipetrace <benchmark> <config> [tiny|study|paper] [--cycles A..B] [--out PATH]\n\
         \x20      pipetrace --attribution [tiny|study|paper]\n\
         \n\
         Modes:\n\
         \x20 <benchmark> <config>  trace one run; write a Chrome trace-event JSON file\n\
         \x20                       (default results/trace/<benchmark>.<config>.trace.json)\n\
         \x20                       and print the stall-attribution report\n\
         \x20 --attribution         run every benchmark x config (aggregates only; no event\n\
         \x20                       storage) and write results/json/pipetrace.json for the\n\
         \x20                       validate gate's trace-vs-Figure-1 cross-check\n\
         \n\
         Options:\n\
         \x20 --cycles A..B   keep only events in the half-open cycle window [A, B)\n\
         \x20                 (attribution aggregates always cover the whole run)\n\
         \x20 --out PATH      trace file destination (single-run mode)\n\
         \x20 --no-trace-cache emit every run directly; no record/replay\n\
         \n\
         Sizes default to tiny (traces are per-cycle; study/paper files get large).\n\
         Benchmarks: {}\n\
         Configs:    {}",
        benches.join(" "),
        configs.join(" ")
    )
}

fn die_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("\n{}", usage());
    std::process::exit(2);
}

struct Cli {
    attribution: bool,
    bench: Option<Bench>,
    config: Option<(&'static str, Arch, bool)>,
    size_label: &'static str,
    size: WorkloadSize,
    cycles: Option<(u64, u64)>,
    out: Option<String>,
    ctx: RunCtx,
}

fn parse_bench(name: &str) -> Option<Bench> {
    Bench::all().into_iter().find(|b| b.name() == name)
}

fn parse_config(name: &str) -> Option<(&'static str, Arch, bool)> {
    CONFIGS.into_iter().find(|&(n, _, _)| n == name)
}

fn parse_cycles(spec: &str) -> Option<(u64, u64)> {
    let (a, b) = spec.split_once("..")?;
    let start: u64 = a.parse().ok()?;
    let end: u64 = b.parse().ok()?;
    (start < end).then_some((start, end))
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        attribution: false,
        bench: None,
        config: None,
        size_label: "tiny",
        size: WorkloadSize::tiny(),
        cycles: None,
        out: None,
        ctx: RunCtx::default(),
    };
    // Traced runs are exact and never consult the store.
    let flags = ["--no-trace-cache"];
    let parsed = ctx::parse_args(std::env::args().skip(1), &flags, |arg, args| {
        match arg {
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--attribution" => cli.attribution = true,
            "--cycles" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| die_usage("--cycles needs a range argument"));
                cli.cycles = Some(parse_cycles(&spec).unwrap_or_else(|| {
                    die_usage(&format!(
                        "bad cycle window '{spec}', expected A..B with A < B"
                    ))
                }));
            }
            "--out" => {
                cli.out = Some(
                    args.next()
                        .unwrap_or_else(|| die_usage("--out needs a path argument")),
                );
            }
            "tiny" => (cli.size_label, cli.size) = ("tiny", WorkloadSize::tiny()),
            "study" => (cli.size_label, cli.size) = ("study", WorkloadSize::study()),
            "paper" => (cli.size_label, cli.size) = ("paper", WorkloadSize::paper()),
            other if cli.bench.is_none() && !cli.attribution => {
                cli.bench = Some(
                    parse_bench(other)
                        .unwrap_or_else(|| die_usage(&format!("unknown benchmark '{other}'"))),
                );
            }
            other if cli.config.is_none() && !cli.attribution => {
                cli.config = Some(parse_config(other).unwrap_or_else(|| {
                    die_usage(&format!("unknown config '{other}', expected one of 1way|4way|ooo|1way-vis|4way-vis|ooo-vis"))
                }));
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
        Ok(())
    });
    cli.ctx = parsed.unwrap_or_else(|e| die_usage(&e));
    cli
}

/// Format the side-by-side stall-attribution report and return whether
/// the two attributions agree exactly.
fn attribution_report(summary: &Summary, trace: &Trace) -> (String, bool) {
    let agg = summary.cpu.attribution();
    let tr = trace.attribution;
    let mut s = String::new();
    s.push_str(&format!(
        "{:<12} {:>14} {:>14}\n",
        "component", "aggregate", "trace"
    ));
    for (name, a, t) in [
        ("busy", agg.busy_units, tr.busy_units),
        ("fu_stall", agg.fu_stall_units, tr.fu_stall_units),
        ("l1_hit", agg.l1_hit_units, tr.l1_hit_units),
        ("l1_miss", agg.l1_miss_units, tr.l1_miss_units),
        ("total", agg.total_units(), tr.total_units()),
    ] {
        let mark = if a == t { "" } else { "   <-- MISMATCH" };
        s.push_str(&format!("{name:<12} {a:>14} {t:>14}{mark}\n"));
    }
    s.push_str(&format!(
        "cycles       {:>14}   (x width {} = {} units)\n",
        summary.cycles(),
        agg.width,
        summary.cycles() * agg.width,
    ));
    let ok = agg == tr && tr.total_units() == summary.cycles() * agg.width;
    (s, ok)
}

/// Validity check on the exported document: it must parse as a JSON
/// object with a non-empty `traceEvents` array whose `"B"`/`"E"` events
/// balance per thread id. This re-derives the invariant from the
/// serialized text (not from the in-memory `Trace`), so a broken
/// exporter cannot vouch for itself.
fn check_trace_doc(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::elements)
        .ok_or("missing traceEvents array")?;
    let mut depth: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event lacks ph")?;
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("tid {tid}: E without matching B"));
                }
            }
            _ => {}
        }
    }
    if let Some((tid, d)) = depth.iter().find(|&(_, &d)| d != 0) {
        return Err(format!("tid {tid}: {d} unclosed B events"));
    }
    Ok(events.len())
}

/// Single-run mode: trace one benchmark × configuration, write the
/// Chrome trace file, and print the stall-attribution report.
fn run_single(cli: &Cli) -> ! {
    let bench = cli.bench.unwrap_or_else(|| die_usage("missing benchmark"));
    let (cfg_name, arch, vis) = cli.config.unwrap_or_else(|| die_usage("missing config"));
    let variant = if vis { Variant::VIS } else { Variant::SCALAR };
    let mut ring = TraceRing::new(RING_CAP);
    if let Some((start, end)) = cli.cycles {
        ring.set_window(start, end);
    }
    let (summary, trace) = match cli
        .ctx
        .try_run_traced(bench, arch, None, &cli.size, variant, ring)
    {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("pipetrace: {}: {e}", bench.name());
            std::process::exit(1);
        }
    };
    let chrome = trace.chrome_trace(vec![
        ("benchmark", Json::from(bench.name())),
        ("config", Json::from(cfg_name)),
        ("arch", Json::from(arch.label())),
        ("vis", Json::from(vis)),
        ("size", Json::from(cli.size_label)),
        ("git_rev", Json::from(schema::git_rev())),
    ]);
    let mut text = chrome.to_pretty();
    text.push('\n');
    let n_events = match check_trace_doc(&text) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("pipetrace: invalid trace export: {e}");
            std::process::exit(1);
        }
    };
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| format!("results/trace/{}.{}.trace.json", bench.name(), cfg_name));
    if let Err(e) = write_atomic(&out, text.as_bytes()) {
        eprintln!("pipetrace: could not write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "pipetrace: {} {} (size {}): {} events -> {}",
        bench.name(),
        cfg_name,
        cli.size_label,
        n_events,
        out
    );
    if trace.dropped > 0 {
        println!(
            "  ring full: {} oldest events evicted (aggregates below stay exact)",
            trace.dropped
        );
    }
    if let Some((start, end)) = cli.cycles {
        println!("  cycle window [{start}, {end}) applied to stored events");
    }
    println!("\nstall-attribution report (units of 1/{} cycle):", {
        summary.cpu.attribution().width
    });
    let (report, ok) = attribution_report(&summary, &trace);
    print!("{report}");
    if ok {
        println!("\ntrace attribution == Figure 1 aggregate, cycle-for-cycle: ok");
        std::process::exit(0);
    }
    eprintln!("\npipetrace: trace attribution DISAGREES with the Figure 1 aggregate");
    std::process::exit(1);
}

/// Matrix mode: every benchmark × six configurations at the given size,
/// aggregates-only rings, artifact under `results/json/pipetrace.json`.
fn run_attribution(cli: &Cli) -> ! {
    let size = &cli.size;
    let mut cells = Vec::new();
    for bench in Bench::all() {
        for (cfg_name, arch, vis) in CONFIGS {
            cells.push((bench, cfg_name, arch, vis));
        }
    }
    // Report first: its wall clock covers the simulations and the
    // progress heartbeat observes the pool below.
    let mut ctx = cli.ctx.clone();
    ctx.progress = heartbeat("pipetrace");
    let mut out = Report::new("pipetrace", cli.size_label, ctx.jobs);
    let results = ctx.run_parallel(
        cells
            .iter()
            .map(|&(bench, _, arch, vis)| {
                let variant = if vis { Variant::VIS } else { Variant::SCALAR };
                // Capacity 0: no event storage, exact aggregates only.
                let ctx = &ctx;
                move || ctx.try_run_traced(bench, arch, None, size, variant, TraceRing::new(0))
            })
            .collect(),
    );
    out.line("pipetrace --attribution: trace-derived vs. aggregate Figure 1 breakdown");
    out.line(format!(
        "(inputs: {}x{} images, {} dotprod elements, {}x{} video)",
        size.image_w, size.image_h, size.dotprod_n, size.video_w, size.video_h
    ));
    let mut current_bench = None;
    for ((bench, cfg_name, arch, vis), result) in cells.into_iter().zip(results) {
        if current_bench != Some(bench) {
            out.section(bench.name());
            current_bench = Some(bench);
        }
        let label = format!("{}.{}", bench.name(), cfg_name);
        match result {
            Ok((summary, trace)) => {
                let agg = summary.cpu.attribution();
                let tr = trace.attribution;
                let exact = agg == tr && tr.total_units() == summary.cycles() * agg.width;
                let cell = artifact::pipetrace_cell(bench, arch, vis, &summary, &trace);
                if exact {
                    out.line(format!(
                        "{:<9} cycles {:>10}  busy {:>10} fu {:>9} l1h {:>9} l1m {:>9}  ok",
                        cfg_name,
                        summary.cycles(),
                        tr.busy_units,
                        tr.fu_stall_units,
                        tr.l1_hit_units,
                        tr.l1_miss_units,
                    ));
                    out.cell(cell);
                } else {
                    let err = SimError::Invariant {
                        model: "trace",
                        detail: format!(
                            "trace attribution {tr:?} != aggregate {agg:?} (cycles {})",
                            summary.cycles()
                        ),
                    };
                    out.fail(&label, &err, cell);
                }
            }
            Err(e) => {
                let cell =
                    artifact::failed_cell(bench.name(), artifact::pipetrace_config(arch, vis), &e);
                out.fail(&label, &e, cell);
            }
        }
    }
    out.finish();
}

fn main() {
    let cli = parse_cli();
    if cli.attribution {
        run_attribution(&cli);
    }
    run_single(&cli);
}
