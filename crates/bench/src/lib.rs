//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary accepts an optional size argument:
//!
//! ```text
//! cargo run --release -p visim-bench --bin fig1 [tiny|study|paper]
//! ```
//!
//! `study` (the default) is the scaled-down geometry documented in
//! DESIGN.md; `paper` is the full 1024×640 / 352×240 geometry (slow).
//!
//! The simulation binaries degrade gracefully: a benchmark whose
//! simulation fails (workload panic, invariant violation, watchdog
//! abort — see `visim_util::SimError`) becomes an error row while the
//! remaining benchmarks still produce bars. On failure the partial
//! output is also written to `results/partial/<name>.txt` (plus one
//! uniquely-named `<name>.<benchmark>.txt` artifact per failure) and
//! the process exits nonzero.
//!
//! All simulation binaries run their (benchmark × configuration) cells
//! on the experiment worker pool: `VISIM_JOBS=N` selects the worker
//! count, `VISIM_JOBS=1` is the serial reference path, and unset (or
//! `0`) auto-detects one worker per core. Output is byte-identical for
//! any worker count.
//!
//! Every binary is also crash-safe: finished cells persist in the
//! content-addressed result store (`results/store/` by default, see
//! `visim::store`), and `--resume` serves them
//! back instead of re-simulating, producing byte-identical text output.
//! `--no-store` opts out; `VISIM_FAULT` arms the deterministic
//! fault-injection harness for testing the recovery paths.

pub mod render;

use std::io::IsTerminal as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use visim::bench::WorkloadSize;
use visim_obs::schema::{self, ResultsDoc};
use visim_obs::Json;
use visim_util::SimError;

/// Environment variable that silences the stderr progress heartbeat
/// when set to `1` (it is also suppressed whenever stderr is not a
/// terminal). Shared with the structured logger
/// ([`visim_obs::log::QUIET_ENV`]): one knob silences both.
pub const QUIET_ENV: &str = visim_obs::log::QUIET_ENV;

/// The usage text for a figure/table binary named `bin` whose one-line
/// purpose is `about`.
pub fn usage(bin: &str, about: &str) -> String {
    format!(
        "{bin}: {about}\n\
         \n\
         Usage: {bin} [tiny|study|paper] [--resume] [--no-store] [--store-dir D]\n\
         \x20         [--no-trace-cache] [--trace-cache-mb N] [--sample [W:P]]\n\
         \x20         [--manifest F] [--help]\n\
         \n\
         Sizes:\n\
         \x20 tiny    smallest inputs; seconds, used by tests and CI\n\
         \x20 study   scaled-down geometry documented in DESIGN.md (default)\n\
         \x20 paper   full 1024x640 / 352x240 geometry of the paper (slow)\n\
         \n\
         Experiment manifest (declarative grid; see results/manifests/):\n\
         \x20 --manifest F         run the visim-manifest-v1 file F instead of the built-in manifest\n\
         \n\
         Result store (crash-safe resume; results are byte-identical either way):\n\
         \x20 --resume             serve finished cells from the result store, simulate only misses\n\
         \x20 --no-store           do not persist or serve per-cell results\n\
         \x20 --store-dir D        result-store directory (default results/store)\n\
         \n\
         Trace cache (results are byte-identical with it on or off):\n\
         \x20 --no-trace-cache     emit every cell directly; no record/replay\n\
         \x20 --trace-cache-mb N   resident trace budget in MB (default 1024)\n\
         \n\
         Sampled simulation (SMARTS-style; estimates carry confidence intervals):\n\
         \x20 --sample             detailed windows + functional warming, default geometry\n\
         \x20 --sample W:P         explicit window/period in instructions (e.g. 8000:160000)\n\
         \n\
         Environment:\n\
         \x20 VISIM_JOBS            worker count (1 = serial reference path; unset/0 = one per core)\n\
         \x20 VISIM_QUIET           set to 1 to silence the stderr progress heartbeat and logs\n\
         \x20 VISIM_LOG             stderr log level: debug|info|warn|error (default info)\n\
         \x20 VISIM_NO_STORE        set to 1 to disable the result store (same as --no-store)\n\
         \x20 VISIM_STORE_DIR       result-store directory (flag takes precedence)\n\
         \x20 VISIM_FAULT           inject deterministic faults, e.g. cell.transient:conv:0 (see EXPERIMENTS.md)\n\
         \x20 VISIM_NO_TRACE_CACHE  set to 1 to disable the trace cache (same as the flag)\n\
         \x20 VISIM_SAMPLE          1 or W:P to enable sampled simulation (flag takes precedence)\n\
         \n\
         Output: text report on stdout, machine-readable twin under results/json/."
    )
}

/// Parse the common CLI of a figure/table binary: an optional size
/// argument (defaults to `study`), the trace-cache flags
/// (`--no-trace-cache`, `--trace-cache-mb N` — applied to the
/// process-wide [`visim::trace_cache`] before any simulation runs),
/// the result-store flags (`--resume`, `--no-store`, `--store-dir D` —
/// applied to [`visim::store`]), plus `--help`/`-h`. Installs
/// `results/store` as the default store directory, which is why only
/// the binaries (never library unit tests) persist cells. Returns the
/// size label alongside the geometry (the label goes into the JSON
/// artifact's `"size"` member). Unknown or malformed arguments print
/// the usage text to stderr and exit 2.
pub fn parse_size_args(bin: &str, about: &str) -> (&'static str, WorkloadSize) {
    visim::store::set_default_dir("results/store");
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        eprintln!("\n{}", usage(bin, about));
        std::process::exit(2);
    };
    let mut picked: Option<(&'static str, WorkloadSize)> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage(bin, about));
                std::process::exit(0);
            }
            "--resume" => visim::store::set_cli_resume(),
            "--no-store" => visim::store::set_cli_disabled(),
            "--store-dir" => match args.next() {
                Some(d) if !d.is_empty() && !d.starts_with('-') => {
                    visim::store::set_cli_dir(&d);
                }
                _ => bad("--store-dir expects a directory path".into()),
            },
            "--no-trace-cache" => visim::trace_cache::set_cli_disabled(),
            "--manifest" => match args.next() {
                Some(p) if !p.is_empty() && !p.starts_with('-') => {
                    visim::manifest::set_cli_path(&p);
                }
                _ => bad("--manifest expects a manifest file path".into()),
            },
            "--sample" => {
                // An optional W:P geometry may follow; a size word or
                // another flag means the default geometry.
                let spec = match args.peek() {
                    Some(next) if next.contains(':') => args.next().unwrap(),
                    _ => "1".to_string(),
                };
                match visim::sampling::parse_spec(&spec) {
                    Ok(cfg) => visim::sampling::set_cli(Some(cfg)),
                    Err(e) => bad(format!("--sample: {e}")),
                }
            }
            "--trace-cache-mb" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(mb) if mb >= 1 => visim::trace_cache::set_cli_budget_mb(mb),
                _ => bad("--trace-cache-mb expects a positive integer (megabytes)".into()),
            },
            "tiny" | "study" | "paper" if picked.is_none() => {
                picked = Some(match arg.as_str() {
                    "tiny" => ("tiny", WorkloadSize::tiny()),
                    "paper" => ("paper", WorkloadSize::paper()),
                    _ => ("study", WorkloadSize::study()),
                });
            }
            other => bad(format!(
                "unknown argument '{other}', expected tiny|study|paper or a --flag"
            )),
        }
    }
    picked.unwrap_or(("study", WorkloadSize::study()))
}

/// Render one heartbeat message: completed cells out of the total, plus
/// a naive ETA extrapolated from the mean per-cell latency so far. The
/// binary's label is carried by the log line's component field, not
/// repeated here.
pub fn format_heartbeat(done: usize, total: usize, elapsed_secs: f64) -> String {
    let eta = if done > 0 {
        elapsed_secs / done as f64 * total.saturating_sub(done) as f64
    } else {
        0.0
    };
    format!("{done}/{total} cells done, ETA ~{eta:.0}s")
}

/// Whether the stderr heartbeat should run: stderr must be a terminal
/// (so redirected/CI runs stay clean) and the structured logger must be
/// at `info` or chattier — `VISIM_QUIET=1` and `VISIM_LOG=warn|error`
/// both silence it, uniformly with the daemon's log lines.
fn heartbeat_enabled() -> bool {
    visim_obs::log::enabled(visim_obs::log::Level::Info) && std::io::stderr().is_terminal()
}

/// Heartbeat warm-up: no lines in the first couple of seconds, so quick
/// tiny-size runs stay silent.
const HEARTBEAT_WARMUP_MS: u64 = 2_000;

/// Heartbeat rate limit: at most one line per second after warm-up.
const HEARTBEAT_PERIOD_MS: u64 = 1_000;

/// Install the stderr progress heartbeat for the binary named `label`:
/// after every completed worker-pool cell (and past a short warm-up) it
/// prints a rate-limited `label: N/M cells done, ETA ~Xs` line. The
/// observer only sees completion counts, so simulation output is
/// unaffected; it is a no-op when [`heartbeat_enabled`] says so.
fn install_heartbeat(label: String) {
    if !heartbeat_enabled() {
        return;
    }
    let started = Instant::now();
    let last_ms = AtomicU64::new(0);
    visim::experiment::set_progress_observer(Some(Box::new(move |done, total, _run_ns| {
        let elapsed = started.elapsed();
        let now_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
        if now_ms < HEARTBEAT_WARMUP_MS {
            return;
        }
        let prev = last_ms.load(Ordering::Relaxed);
        if done < total && now_ms.saturating_sub(prev) < HEARTBEAT_PERIOD_MS {
            return;
        }
        // One printer per tick: racing workers that lose the exchange
        // drop their line instead of double-printing.
        if last_ms
            .compare_exchange(prev, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        visim_obs::log::info(
            &label,
            &format_heartbeat(done, total, elapsed.as_secs_f64()),
        );
    })));
}

/// Print a titled section.
pub fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Accumulating report writer for the simulation binaries.
///
/// Mirrors everything to stdout (so redirecting a healthy run into
/// `results/<name>.txt` keeps working unchanged) while buffering the
/// text and recording failures; [`Report::finish`] turns failures into
/// a partial-results file and a nonzero exit.
///
/// Alongside the text stream, the report accumulates a
/// `visim-results-v2` document ([`Report::cell`]) that [`Report::finish`]
/// writes to `results/json/<name>.json` — the machine-readable twin of
/// the text output, carrying the full per-cell simulation payload plus
/// run-level metrics (worker-pool timings, wall clock, git revision).
/// Wall-clock data lives only in the JSON artifact, never in the text
/// stream, which stays byte-identical across runs and worker counts.
pub struct Report {
    name: String,
    buf: String,
    failures: Vec<(String, SimError)>,
    /// Write artifacts under `results/` (disabled in unit tests so they
    /// do not touch the working tree).
    artifacts: bool,
    doc: ResultsDoc,
    started: Instant,
}

impl Report {
    /// A report for the experiment named `name` (used for the partial
    /// file and the JSON artifact; historically the binary name, now
    /// the manifest name) at workload size `size_label`.
    pub fn new(name: &str, size_label: &str) -> Self {
        install_heartbeat(name.to_string());
        Report {
            name: name.to_string(),
            buf: String::new(),
            failures: Vec::new(),
            artifacts: true,
            doc: ResultsDoc::new(name, size_label, visim::experiment::jobs()),
            started: Instant::now(),
        }
    }

    /// Append one line (adds the newline).
    pub fn line(&mut self, s: impl AsRef<str>) {
        println!("{}", s.as_ref());
        self.buf.push_str(s.as_ref());
        self.buf.push('\n');
    }

    /// Append pre-formatted text verbatim (tables end with their own
    /// newline).
    pub fn push(&mut self, s: &str) {
        print!("{s}");
        self.buf.push_str(s);
    }

    /// Append a titled section, in the same format as [`section`].
    pub fn section(&mut self, title: &str) {
        self.line(format!("\n=== {title} ===\n"));
    }

    /// Append one machine-readable result cell to the JSON document
    /// (see `visim::artifact` for the cell builders).
    pub fn cell(&mut self, cell: Json) {
        self.doc.push_cell(cell);
    }

    /// Number of cells recorded so far.
    pub fn cell_count(&self) -> usize {
        self.doc.cell_count()
    }

    /// Record a failed unit of work (one benchmark, usually) and emit
    /// its error row. `cell` is the matching `"status": "failed"`
    /// result cell; it joins the JSON document and is also written as
    /// `results/partial/<binary>.<benchmark>.json`. Each failure also
    /// gets its own uniquely-named text artifact under
    /// `results/partial/` (`<binary>.<benchmark>.txt`), so
    /// per-benchmark diagnostics never share a file — concurrent runs
    /// of different binaries cannot interleave inside one.
    pub fn fail(&mut self, label: &str, err: &SimError, cell: Json) {
        self.line(format!("{label}: ERROR: {err}"));
        if self.artifacts {
            let detail = format!("{}: {label}: ERROR: {err}\n", self.name);
            if let Err(e) = write_atomic(
                &format!("results/partial/{}.{}.txt", self.name, sanitize(label)),
                detail.as_bytes(),
            ) {
                eprintln!("could not write per-benchmark failure artifact: {e}");
            }
            let artifact = Json::obj(vec![
                ("schema", Json::from(schema::RESULTS_SCHEMA)),
                ("name", Json::from(self.name.as_str())),
                ("cell", cell.clone()),
            ]);
            let mut text = artifact.to_pretty();
            text.push('\n');
            if let Err(e) = write_atomic(
                &format!("results/partial/{}.{}.json", self.name, sanitize(label)),
                text.as_bytes(),
            ) {
                eprintln!("could not write per-benchmark failure JSON artifact: {e}");
            }
        }
        self.doc.push_cell(cell);
        self.failures.push((label.to_string(), err.clone()));
    }

    /// Number of failures recorded so far.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Finish the run: write the JSON artifact, then exit 0 when
    /// everything succeeded; otherwise write the partial output to
    /// `results/partial/<name>.txt`, summarize the failures on stderr,
    /// and exit 1.
    ///
    /// The report stream has a single writer by construction — the
    /// experiment executor fans simulations out over worker threads,
    /// but every [`Report`] method runs on the main thread after the
    /// results are reassembled — and the file lands via a write-to-temp
    /// then atomic-rename, so a concurrently running sibling process
    /// can never observe (or splice into) a half-written report.
    pub fn finish(mut self) -> ! {
        // Drain the process-wide metrics sink into the document, then
        // write it — failed
        // cells included, so a degraded run still leaves a usable
        // machine-readable record.
        self.doc.metrics = visim::experiment::drain_pool_metrics();
        if self.artifacts {
            let json_path = format!("results/json/{}.json", self.name);
            let mut text = self
                .doc
                .to_json(self.started.elapsed().as_secs_f64())
                .to_pretty();
            text.push('\n');
            if let Err(e) = write_atomic(&json_path, text.as_bytes()) {
                eprintln!("could not write JSON artifact to {json_path}: {e}");
            }
        }
        if self.failures.is_empty() {
            std::process::exit(0);
        }
        let path = format!("results/partial/{}.txt", self.name);
        match write_atomic(&path, self.buf.as_bytes()) {
            Ok(()) => eprintln!("partial results written to {path}"),
            Err(e) => eprintln!("could not write partial results to {path}: {e}"),
        }
        eprintln!("{}: {} of the runs failed:", self.name, self.failures.len());
        for (label, err) in &self.failures {
            eprintln!("  {label}: {err}");
        }
        std::process::exit(1);
    }
}

/// Map a benchmark label onto a filename-safe slug.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Write `bytes` to `path` atomically. Delegates to the workspace-wide
/// write path ([`visim_util::atomic::write_atomic`]) so every durable
/// artifact — JSON documents, partial-failure droppings, result-store
/// cells — lands through the same temp-file, `sync_all`,
/// rename discipline. Readers (and concurrent writers of the same path)
/// see either the old complete file or the new complete file, never a
/// mix.
pub fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    visim_util::atomic::write_atomic(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_size_is_study() {
        // No args in the test harness beyond the binary name; argv[1]
        // may hold a test filter, so only check it does not panic for
        // the recognized names.
        let s = WorkloadSize::study();
        assert_eq!(s.image_w, 256);
    }

    #[test]
    fn report_accumulates_failures() {
        let mut r = Report::new("test", "tiny");
        r.artifacts = false; // keep unit tests out of the working tree
        r.line("hello");
        r.push("table\n");
        assert_eq!(r.failure_count(), 0);
        let err = SimError::Workload {
            bench: "blend".into(),
            detail: "injected".into(),
        };
        let cell = visim::artifact::failed_cell(
            "blend",
            Json::obj(vec![("figure", Json::from("test"))]),
            &err,
        );
        r.fail("blend", &err, cell);
        assert_eq!(r.failure_count(), 1);
        assert_eq!(r.cell_count(), 1, "failed cell joins the JSON doc");
        assert!(r.buf.contains("blend: ERROR:"), "{}", r.buf);
    }

    #[test]
    fn heartbeat_lines_report_progress_and_eta() {
        assert_eq!(format_heartbeat(18, 72, 9.0), "18/72 cells done, ETA ~27s");
        assert_eq!(format_heartbeat(72, 72, 30.0), "72/72 cells done, ETA ~0s");
        // No division by zero before the first completion.
        assert_eq!(format_heartbeat(0, 72, 1.0), "0/72 cells done, ETA ~0s");
    }

    #[test]
    fn usage_names_the_binary_and_the_sizes() {
        let u = usage("fig1", "regenerate Figure 1");
        assert!(u.starts_with("fig1: regenerate Figure 1"));
        for needle in [
            "tiny",
            "study",
            "paper",
            "--help",
            "--no-trace-cache",
            "--trace-cache-mb",
            "VISIM_JOBS",
            "VISIM_QUIET",
            "VISIM_LOG",
            "--resume",
            "--no-store",
            "--store-dir",
            "VISIM_NO_STORE",
            "VISIM_STORE_DIR",
            "VISIM_FAULT",
            "VISIM_NO_TRACE_CACHE",
            "--sample",
            "VISIM_SAMPLE",
            "--manifest",
        ] {
            assert!(u.contains(needle), "usage misses {needle}: {u}");
        }
    }

    #[test]
    fn sanitize_keeps_benchmark_names_and_defangs_the_rest() {
        assert_eq!(sanitize("mpeg-enc"), "mpeg-enc");
        assert_eq!(sanitize("cjpeg-np"), "cjpeg-np");
        assert_eq!(sanitize("../evil name"), "___evil_name");
    }
}
