//! One Figure 1 pass: a manifest grid run through
//! `experiment::run_manifest`, exactly as the `fig1` binary runs it,
//! minus rendering and artifacts.

use std::io::Write as _;
use std::time::Instant;

use media_kernels::Variant;
use visim::bench::Bench;
use visim::config::Arch;
use visim::experiment::{self, ManifestOutcome};
use visim::manifest::{variant_label, Grid, Manifest};
use visim::sampling;
use visim_cpu::Summary;
use visim_obs::Json;
use visim_util::fnv1a64;

use crate::args::Args;

/// The benchmarks named by `--benches` (comma-separated figure labels,
/// or `all`).
pub fn benches(args: &Args) -> Result<Vec<Bench>, String> {
    let spec = args.str("benches")?;
    if spec == "all" {
        return Ok(Bench::all().to_vec());
    }
    spec.split(',')
        .map(|name| {
            Bench::all()
                .into_iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| format!("unknown benchmark {name:?}"))
        })
        .collect()
}

/// The Figure 1 manifest over `benchmarks`: every architecture, base
/// and VIS.
pub fn manifest(benchmarks: Vec<Bench>) -> Manifest {
    Manifest {
        name: "fig1".into(),
        about: "Figure 1 benchmark grid".into(),
        title: None,
        grid: Grid::Fig1 {
            benchmarks,
            archs: Arch::all().to_vec(),
            variants: vec![Variant::SCALAR, Variant::VIS],
        },
    }
}

/// Pin exact simulation through the public CLI hook the figure
/// binaries use, whatever `VISIM_SAMPLE` says.
pub fn pin_exact() {
    sampling::set_cli(Some(None));
}

/// The cell label the manifest engine uses: `bench/arch/variant`.
pub fn label(bench: Bench, arch: Arch, vis: bool) -> String {
    let variant = if vis { Variant::VIS } else { Variant::SCALAR };
    format!(
        "{}/{}/{}",
        bench.name(),
        arch.label(),
        variant_label(variant)
    )
}

/// The simulated statistics of one cell as digest input: every
/// pipeline and memory-system counter, and nothing host-dependent.
pub fn digest_line(label: &str, s: &Summary) -> String {
    format!("{label}|{:?}|{:?}|{:?}\n", s.cpu, s.mem, s.mshr_histogram)
}

/// The per-cell record the checks in `run.py` consume.
pub fn cell_json(label: &str, s: &Summary) -> Json {
    let b = s.cpu.breakdown();
    Json::obj(vec![
        ("label", Json::from(label)),
        ("status", Json::from("ok")),
        ("cycles", Json::from(s.cycles())),
        ("retired", Json::from(s.cpu.retired)),
        // Host time the engine spent on the cell: obtaining its stream
        // plus simulating it.
        (
            "cell_ms",
            Json::from(
                (s.metrics.counter("cell.emit_micros") + s.metrics.counter("cell.simulate_micros"))
                    as f64
                    / 1e3,
            ),
        ),
        ("breakdown_total", Json::from(b.total())),
    ])
}

/// Flatten a Figure 1 outcome into cell records plus the statistics
/// digest. A failed benchmark yields one `failed` record and counts
/// every one of its bars as failed.
pub fn outcome_cells(outcome: &ManifestOutcome) -> (Vec<Json>, String, u64) {
    let ManifestOutcome::Fig1(rows) = outcome else {
        unreachable!("a Figure 1 manifest yields a Figure 1 outcome")
    };
    let mut cells = Vec::new();
    let mut digest_input = String::new();
    let mut failed = 0u64;
    for (bench, row) in rows {
        match row {
            Ok(bars) => {
                for bar in bars {
                    let label = label(*bench, bar.arch, bar.vis);
                    digest_input.push_str(&digest_line(&label, &bar.summary));
                    cells.push(cell_json(&label, &bar.summary));
                }
            }
            Err(e) => {
                failed += 2 * Arch::all().len() as u64;
                cells.push(Json::obj(vec![
                    ("label", Json::from(bench.name())),
                    ("status", Json::from("failed")),
                    ("error", Json::from(e.to_string())),
                ]));
            }
        }
    }
    (
        cells,
        format!("{:016x}", fnv1a64(digest_input.as_bytes())),
        failed,
    )
}

pub fn main(args: &Args) -> Result<(), String> {
    let size = args.workload_size()?;
    pin_exact();
    let m = manifest(benches(args)?);
    let attempted = m.cells().len();
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{{\"event\":\"dispatch\"}}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    // `--dry-run 1` measures set-up alone: stop at the dispatch point.
    if args.opt("dry-run") == Some("1") {
        return Ok(());
    }
    let t0 = Instant::now();
    let outcome = experiment::run_manifest(&m, &size);
    let wall_s = t0.elapsed().as_secs_f64();
    let (cells, digest, failed) = outcome_cells(&outcome);
    let result = Json::obj(vec![
        ("wall_s", Json::from(wall_s)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("digest", Json::from(digest)),
        ("cells", Json::Arr(cells)),
    ]);
    println!("{}", result.to_compact());
    Ok(())
}
