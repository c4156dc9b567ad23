//! The generic manifest renderer behind every figure/table binary.
//!
//! Each binary reduces to `render::manifest_main("<name>")`: load the
//! built-in manifest (or the `--manifest <path>` override), parse the
//! shared CLI, execute the grid through `RunCtx::run_manifest`, and
//! render the outcome. Rendering is keyed by grid *kind* — table
//! layouts, headline ratios, and in-text statistics are presentation,
//! so they live here, while the manifest carries the data axes. The
//! text and `results/json/` output of every built-in manifest is
//! byte-identical to the hand-rolled drivers this module replaced.

use visim::artifact;
use visim::bench::WorkloadSize;
use visim::experiment::ManifestOutcome;
use visim::manifest::{Grid, Manifest, SweepCache};
use visim::report;
use visim_obs::Json;

use crate::{heartbeat, parse_cli, Report};

/// Entry point for a figure/table binary: parse the CLI, load the
/// manifest (built-in `bin`, or the `--manifest` override), run it, and
/// render. Never returns (the report's `finish` exits).
pub fn manifest_main(bin: &'static str) -> ! {
    let builtin =
        Manifest::builtin(bin).unwrap_or_else(|| panic!("no built-in manifest named {bin:?}"));
    let cli = parse_cli(bin, &builtin.about);
    let m = match &cli.manifest {
        Some(path) => match Manifest::load_file(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("--manifest {path}: {e}");
                std::process::exit(2);
            }
        },
        None => builtin,
    };
    let (size, mut ctx) = (cli.size, cli.ctx);
    ctx.progress = heartbeat(&m.name);
    let mut out = Report::new(&m.name, cli.size_label, ctx.jobs);
    let outcome = ctx.run_manifest(&m, &size);
    match outcome {
        ManifestOutcome::Fig1(results) => render_fig1(&mut out, &m, &size, results),
        ManifestOutcome::Fig2(results) => render_fig2(&mut out, &m, results),
        ManifestOutcome::Fig3(results) => render_fig3(&mut out, &m, results),
        ManifestOutcome::Sweep { cache, results } => render_sweep(&mut out, &m, cache, results),
        ManifestOutcome::Tables => out.push(&report::tables_text()),
        ManifestOutcome::Ablation {
            sections,
            histogram,
        } => render_ablation(&mut out, &m, sections, histogram),
        ManifestOutcome::Kernels14(results) => render_kernels14(&mut out, &m, results),
    }
    out.finish();
}

type BenchResults<T> = Vec<(visim::Bench, Result<T, visim_util::SimError>)>;

fn render_fig1(
    out: &mut Report,
    m: &Manifest,
    size: &WorkloadSize,
    results: BenchResults<Vec<visim::experiment::Fig1Bar>>,
) {
    let Grid::Fig1 { archs, .. } = &m.grid else {
        unreachable!("fig1 outcome from a non-fig1 grid");
    };
    if let Some(title) = &m.title {
        out.line(title);
    }
    out.line(format!(
        "(inputs: {}x{} images, {} dotprod elements, {}x{} video)",
        size.image_w, size.image_h, size.dotprod_n, size.video_w, size.video_h
    ));
    for (bench, outcome) in results {
        out.section(bench.name());
        let bars = match outcome {
            Ok(bars) => bars,
            Err(e) => {
                let cell = artifact::failed_cell(bench.name(), artifact::figure_config("fig1"), &e);
                out.fail(bench.name(), &e, cell);
                continue;
            }
        };
        for bar in &bars {
            out.cell(artifact::fig1_cell(bench, bar));
        }
        out.push(&report::table(
            &report::fig1_headers(),
            &report::fig1_rows(&bars),
        ));
        if bars.is_empty() {
            continue;
        }
        // The headline ratios the paper quotes: first-bar vs. last-arch
        // of the base variant, and vs. the last bar overall (for the
        // built-in grid: 1-way base, ooo base, ooo VIS).
        let t = |i: usize| bars[i].summary.cycles() as f64;
        let base_last = archs.len() - 1;
        let last = bars.len() - 1;
        out.line(format!(
            "ILP speedup (1-way -> ooo): {:.2}x   VIS speedup (ooo): {:.2}x   combined: {:.2}x",
            t(0) / t(base_last),
            t(base_last) / t(last),
            t(0) / t(last),
        ));
    }
}

fn render_fig2(out: &mut Report, m: &Manifest, results: BenchResults<visim::experiment::Fig2Row>) {
    let Grid::Fig2 { highlights, .. } = &m.grid else {
        unreachable!("fig2 outcome from a non-fig2 grid");
    };
    if let Some(title) = &m.title {
        out.line(title);
    }
    out.section("instruction mix (percent of the base variant's count)");
    let rows: Vec<_> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().cloned())
        .collect();
    out.push(&report::table(
        &report::fig2_headers(),
        &report::fig2_rows(&rows),
    ));
    for (bench, r) in &results {
        match r {
            Ok(row) => {
                for cell in artifact::fig2_cells(row) {
                    out.cell(cell);
                }
            }
            Err(e) => {
                let cell = artifact::failed_cell(bench.name(), artifact::figure_config("fig2"), e);
                out.fail(bench.name(), e, cell);
            }
        }
    }

    out.section("in-text statistics (paper §3.2.2 / §3.2.3)");
    let mut overhead_sum = 0.0;
    let mut overhead_n = 0;
    for r in &rows {
        if r.vis.mix[3] > 0 {
            overhead_sum += r.vis.vis_overhead_fraction();
            overhead_n += 1;
        }
    }
    out.line(format!(
        "average VIS rearrangement/alignment overhead: {:.0}% of VIS instructions (paper: ~41%)",
        100.0 * overhead_sum / overhead_n.max(1) as f64
    ));
    for name in highlights {
        if let Some(r) = rows.iter().find(|r| r.bench.name() == name) {
            out.line(format!(
                "{name}: branch misprediction {:.1}% -> {:.1}% with VIS",
                100.0 * r.base.mispredict_rate(),
                100.0 * r.vis.mispredict_rate()
            ));
        }
    }
}

fn render_fig3(out: &mut Report, m: &Manifest, results: BenchResults<visim::experiment::Fig3Row>) {
    if let Some(title) = &m.title {
        out.line(title);
    }
    out.section("normalized execution time");
    let rows: Vec<_> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().cloned())
        .collect();
    out.push(&report::table(
        &report::fig3_headers(),
        &report::fig3_rows(&rows),
    ));
    for (bench, r) in &results {
        match r {
            Ok(row) => {
                for cell in artifact::fig3_cells(row) {
                    out.cell(cell);
                }
            }
            Err(e) => {
                let cell = artifact::failed_cell(bench.name(), artifact::figure_config("fig3"), e);
                out.fail(bench.name(), e, cell);
            }
        }
    }

    // The paper's claim: with prefetching, every benchmark reverts to
    // being compute-bound.
    out.section("compute- vs memory-bound after prefetching");
    for r in &rows {
        let bd = r.pf.cpu.breakdown();
        let memfrac = bd.memory() / r.pf.cycles() as f64;
        out.line(format!(
            "{:<10} memory fraction {:>5.1}%  -> {}",
            r.bench.name(),
            100.0 * memfrac,
            if memfrac < 0.5 {
                "compute-bound"
            } else {
                "memory-bound"
            }
        ));
    }
}

fn render_sweep(
    out: &mut Report,
    m: &Manifest,
    cache: SweepCache,
    results: BenchResults<Vec<visim::experiment::SweepPoint>>,
) {
    if let Some(title) = &m.title {
        out.line(title);
    }
    for (bench, outcome) in results {
        out.section(bench.name());
        let points = match outcome {
            Ok(points) => points,
            Err(e) => {
                let cell = artifact::failed_cell(
                    bench.name(),
                    artifact::figure_config(&format!("sweep_{}", cache.key())),
                    &e,
                );
                out.fail(bench.name(), &e, cell);
                continue;
            }
        };
        for pt in &points {
            out.cell(artifact::sweep_cell(bench, cache.key(), pt));
        }
        out.push(&report::table(
            &report::sweep_headers(),
            &report::sweep_rows(&points),
        ));
        if points.is_empty() {
            continue;
        }
        let best = points
            .iter()
            .map(|pt| pt.summary.cycles())
            .min()
            .unwrap_or(1) as f64;
        match cache {
            SweepCache::L1 => {
                let worst = points
                    .iter()
                    .map(|pt| pt.summary.cycles())
                    .max()
                    .unwrap_or(1) as f64;
                out.line(format!("1K-vs-64K spread: {:.2}x", worst / best));
            }
            SweepCache::L2 => {
                let base = points[0].summary.cycles() as f64;
                out.line(format!("max benefit from larger L2: {:.2}x", base / best));
            }
        }
    }
}

/// Cell configuration for one ablation run: which sweep (`section`) and
/// which point on it (`value`, with `"base"` for the baseline run).
fn ablation_config(key: &str, value: &str) -> Json {
    Json::obj(vec![
        ("figure", Json::from("ablation")),
        ("section", Json::from(key)),
        ("value", Json::from(value)),
    ])
}

fn render_ablation(
    out: &mut Report,
    m: &Manifest,
    section_sums: Vec<Vec<visim_cpu::Summary>>,
    histogram_sums: Vec<visim_cpu::Summary>,
) {
    let Grid::Ablation {
        benchmarks,
        sections,
        histogram,
    } = &m.grid
    else {
        unreachable!("ablation outcome from a non-ablation grid");
    };
    for (section, sums) in sections.iter().zip(section_sums) {
        out.section(&section.title);
        let per_bench = section.values.len() + 1;
        let mut rows = Vec::new();
        for (bench, chunk) in benchmarks.iter().zip(sums.chunks_exact(per_bench)) {
            let values =
                std::iter::once("base").chain(section.headers[1..].iter().map(String::as_str));
            for (s, value) in chunk.iter().zip(values) {
                out.cell(artifact::timed_cell(
                    bench.name(),
                    ablation_config(&section.key, value),
                    s,
                ));
            }
            let base = chunk[0].cycles() as f64;
            let mut row = vec![bench.name().to_string()];
            for s in &chunk[1..] {
                row.push(format!("{:.2}x", s.cycles() as f64 / base));
            }
            rows.push(row);
        }
        let headers: Vec<&str> = section.headers.iter().map(String::as_str).collect();
        out.push(&report::table(&headers, &rows));
    }

    out.section(&histogram.title);
    let mut sums = histogram_sums.into_iter();
    for bench in &histogram.benchmarks {
        for (label, _) in &histogram.variants {
            let s = sums.next().expect("one summary per histogram cell");
            out.cell(artifact::timed_cell(
                bench.name(),
                ablation_config("mshr-occupancy", label),
                &s,
            ));
            let hist = &s.mshr_histogram;
            let total: u64 = hist.iter().sum();
            let frac_ge5: u64 = hist.iter().skip(5).sum();
            out.line(format!(
                "{:<10} {:<7} cycles with >=5 outstanding misses: {:>5.1}%",
                bench.name(),
                label,
                100.0 * frac_ge5 as f64 / total.max(1) as f64
            ));
        }
    }
}

/// Cell configuration for the kernel sweep's runs.
fn kernels_config(timed: bool, variant: &str) -> Json {
    Json::obj(vec![
        ("figure", Json::from("kernels14")),
        ("timed", Json::from(timed)),
        ("variant", Json::from(variant)),
    ])
}

fn render_kernels14(
    out: &mut Report,
    m: &Manifest,
    results: Vec<(
        media_kernels::KernelId,
        Result<visim::experiment::KernelRow, visim_util::SimError>,
    )>,
) {
    use media_kernels::KernelId;
    if let Some(title) = &m.title {
        out.section(title);
    }
    let mut rows = Vec::new();
    for (k, result) in &results {
        let cell = match result {
            Ok(cell) => cell,
            Err(e) => {
                out.fail(
                    k.name(),
                    e,
                    artifact::failed_cell(k.name(), kernels_config(true, "any"), e),
                );
                continue;
            }
        };
        out.cell(artifact::counted_cell(
            k.name(),
            kernels_config(false, "base"),
            &cell.base,
        ));
        out.cell(artifact::counted_cell(
            k.name(),
            kernels_config(false, "vis"),
            &cell.vis,
        ));
        out.cell(artifact::timed_cell(
            k.name(),
            kernels_config(true, "base"),
            &cell.timed_base,
        ));
        out.cell(artifact::timed_cell(
            k.name(),
            kernels_config(true, "vis"),
            &cell.timed_vis,
        ));
        rows.push(vec![
            k.name().to_string(),
            if KernelId::reported().contains(k) {
                "reported".into()
            } else {
                String::new()
            },
            format!(
                "{:.1}",
                100.0 * cell.vis.retired as f64 / cell.base.retired as f64
            ),
            format!(
                "{:.2}x",
                cell.timed_base.cycles() as f64 / cell.timed_vis.cycles() as f64
            ),
            format!(
                "{:.0}%",
                100.0 * cell.timed_vis.cpu.breakdown().memory() / cell.timed_vis.cycles() as f64
            ),
        ]);
    }
    out.push(&report::table(
        &[
            "kernel",
            "in paper figs",
            "VIS insts %",
            "VIS speedup",
            "mem% (VIS)",
        ],
        &rows,
    ));
    out.line(
        "\nlookup and histogram are the VIS-inapplicable scatter/gather cases \
         (§3.2.3);\ncopy is bandwidth-bound in both variants.",
    );
}
