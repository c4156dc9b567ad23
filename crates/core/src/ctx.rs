//! The run context: every setting that decides how a cell runs, built
//! once at the binary edge and passed explicitly down to the store and
//! the trace cache.
//!
//! A figure bar is one (benchmark × machine × variant) cell. Whether
//! finished cells persist and are served back, how much memory the
//! trace cache may hold, whether the cell is sampled, how many workers
//! share the batch and who watches progress is one [`RunCtx`]. The
//! figure binaries, `pipetrace` and `visim-serve` build it from their
//! command line with [`parse_args`]; library callers and tests build it
//! in code, so two contexts can run side by side in one process.
//!
//! `VISIM_JOBS` is the one environment variable a context reads, in
//! the parser and in the process default below.
//!
//! # The process default
//!
//! The benchmark harness under `perfbench/` calls a handful of entry
//! points that predate the context: `experiment::run_manifest`,
//! `store::{set_cli_dir, timed_key, load, save}`, `sampling::set_cli`,
//! `trace_cache::budget_bytes` and `visim_serve::daemon::run`. Each is
//! a one-line wrapper over [`process_default`], the only configuration
//! static left: store off until `store::set_cli_dir`, the trace cache on
//! at its default budget, exact unless `sampling::set_cli`, workers from
//! `VISIM_JOBS`. The wrappers exist so that harness keeps building
//! unchanged; nothing else calls them.

use std::iter::Peekable;
use std::sync::{Arc, Mutex};

use crate::sampling::{self, SampleConfig};
use crate::store::Store;

/// Environment variable selecting the worker count. `1` forces the
/// serial reference path; `0`, unset or garbage means one worker per
/// available core.
const JOBS_ENV: &str = "VISIM_JOBS";

/// The trace cache's default resident budget (`--trace-cache-mb`).
const DEFAULT_TRACE_BUDGET_MB: u64 = 1024;

/// Where the binaries keep the result store unless `--store-dir` moves it.
pub const DEFAULT_STORE_DIR: &str = "results/store";

/// Every run-context flag [`parse_args`] handles. A binary passes the
/// ones that apply to it; the figure binaries take them all.
pub const ALL_FLAGS: &[&str] = &[
    "--resume",
    "--no-store",
    "--store-dir",
    "--no-trace-cache",
    "--trace-cache-mb",
    "--sample",
];

/// A progress callback, called as `(done, total, run_ns)` after every
/// completed [`RunCtx::run_parallel`] job. It only ever sees completion
/// counts and job latencies, so it cannot influence results.
pub type ProgressObserver = Arc<dyn Fn(usize, usize, u64) + Send + Sync>;

/// How cells run: one value per setting, each with one source.
#[derive(Clone)]
pub struct RunCtx {
    /// The result store, or `None` for a store-less run.
    pub store: Option<Store>,
    /// The trace cache's resident budget in bytes (also the per-capture
    /// limit), or `None` to emit every cell directly.
    pub trace_budget: Option<usize>,
    /// The sampling geometry, or `None` for exact simulation.
    pub sample: Option<SampleConfig>,
    /// Worker-pool size; `1` is the serial reference path.
    pub jobs: usize,
    /// Called after every completed batch job.
    pub progress: Option<ProgressObserver>,
}

impl Default for RunCtx {
    /// Exact simulation without a store, the trace cache at its default
    /// budget, one worker per core, nobody watching.
    fn default() -> Self {
        RunCtx {
            store: None,
            trace_budget: Some(mb_to_bytes(DEFAULT_TRACE_BUDGET_MB)),
            sample: None,
            jobs: per_core(),
            progress: None,
        }
    }
}

fn mb_to_bytes(mb: u64) -> usize {
    usize::try_from(mb.saturating_mul(1 << 20)).unwrap_or(usize::MAX)
}

/// Parse a `VISIM_JOBS` value: a positive integer, or else one worker
/// per available core.
fn parse_jobs(value: &str) -> usize {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => per_core(),
    }
}

fn per_core() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn env_jobs() -> usize {
    parse_jobs(&std::env::var(JOBS_ENV).unwrap_or_default())
}

/// The value of a flag that names a path: present, non-empty, and not
/// itself a flag.
pub fn path_value(args: &mut impl Iterator<Item = String>, what: &str) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.is_empty() && !v.starts_with('-') => Ok(v),
        _ => Err(format!("{what} expects a path")),
    }
}

/// Parse a command line into a [`RunCtx`]. The run-context flags named
/// in `flags` (a subset of [`ALL_FLAGS`]) are handled here: `--resume`,
/// `--no-store`, `--store-dir D` (else [`DEFAULT_STORE_DIR`]),
/// `--no-trace-cache`, `--trace-cache-mb N` and `--sample [W:P]`. Every
/// other argument, a run-context flag the binary does not take included,
/// goes to `other`, with the remaining arguments for any value it takes.
/// The first error, from either, is returned.
pub fn parse_args<I: Iterator<Item = String>>(
    args: I,
    flags: &[&str],
    mut other: impl FnMut(&str, &mut Peekable<I>) -> Result<(), String>,
) -> Result<RunCtx, String> {
    let mut args = args.peekable();
    let (mut resume, mut no_store, mut no_trace_cache) = (false, false, false);
    let mut dir = None;
    let mut budget_mb = DEFAULT_TRACE_BUDGET_MB;
    let mut sample = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            a if !flags.contains(&a) => other(a, &mut args)?,
            "--resume" => resume = true,
            "--no-store" => no_store = true,
            "--store-dir" => dir = Some(path_value(&mut args, "--store-dir")?),
            "--no-trace-cache" => no_trace_cache = true,
            "--trace-cache-mb" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(mb) if mb >= 1 => budget_mb = mb,
                _ => return Err("--trace-cache-mb expects a positive integer (megabytes)".into()),
            },
            "--sample" => {
                // An optional W:P geometry may follow; a size word or
                // another flag means the default geometry.
                let spec = match args.peek() {
                    Some(next) if next.contains(':') => args.next().unwrap(),
                    _ => "1".to_string(),
                };
                sample = sampling::parse_spec(&spec).map_err(|e| format!("--sample: {e}"))?;
            }
            _ => other(&arg, &mut args)?,
        }
    }
    Ok(RunCtx {
        store: (!no_store).then(|| Store {
            dir: dir.unwrap_or_else(|| DEFAULT_STORE_DIR.to_string()),
            resume,
        }),
        trace_budget: (!no_trace_cache).then(|| mb_to_bytes(budget_mb)),
        sample,
        jobs: env_jobs(),
        progress: None,
    })
}

static PROCESS_DEFAULT: Mutex<Option<RunCtx>> = Mutex::new(None);

/// Read or change the process default (see the module docs).
pub(crate) fn with_default<R>(f: impl FnOnce(&mut RunCtx) -> R) -> R {
    let mut slot = PROCESS_DEFAULT.lock().expect("run context lock");
    f(slot.get_or_insert_with(|| RunCtx {
        jobs: env_jobs(),
        ..RunCtx::default()
    }))
}

/// A copy of the process default, for the harness entry points.
pub fn process_default() -> RunCtx {
    with_default(|ctx| ctx.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_env_parses_positive_integers_only() {
        for (value, want) in [
            ("3", 3),
            (" 2 ", 2),
            ("0", per_core()),
            ("", per_core()),
            ("x", per_core()),
            ("-1", per_core()),
        ] {
            assert_eq!(parse_jobs(value), want, "VISIM_JOBS={value:?}");
        }
    }

    fn parse_only(flags: &[&str], args: &[&str]) -> Result<(RunCtx, Vec<String>), String> {
        let mut rest = Vec::new();
        let ctx = parse_args(args.iter().map(|a| a.to_string()), flags, |a, _| {
            rest.push(a.to_string());
            Ok(())
        })?;
        Ok((ctx, rest))
    }

    fn parse(args: &[&str]) -> Result<(RunCtx, Vec<String>), String> {
        parse_only(ALL_FLAGS, args)
    }

    #[test]
    fn flags_build_the_context_and_pass_the_rest_on() {
        let (ctx, rest) = parse(&["tiny", "--resume", "--sample", "--x"]).unwrap();
        let store = ctx.store.map(|s| (s.dir, s.resume));
        assert_eq!(store, Some((DEFAULT_STORE_DIR.to_string(), true)));
        assert_eq!(ctx.trace_budget, Some(1024 << 20));
        assert_eq!(ctx.sample, sampling::parse_spec("1").unwrap());
        assert_eq!(rest, ["tiny", "--x"]);

        // Order does not matter: --no-store wins over a later directory.
        let (ctx, _) = parse(&["--no-store", "--store-dir", "e", "--sample", "2:10"]).unwrap();
        assert_eq!(ctx.store, None);
        assert_eq!(ctx.sample, sampling::parse_spec("2:10").unwrap());
        let (ctx, _) = parse(&["--store-dir", "e", "--trace-cache-mb", "3"]).unwrap();
        assert_eq!(ctx.store.unwrap().dir, "e");
        assert_eq!(ctx.trace_budget, Some(3 << 20));
        assert_eq!(parse(&["--no-trace-cache"]).unwrap().0.trace_budget, None);

        for bad in [
            &["--store-dir", "-x"][..],
            &["--trace-cache-mb", "0"],
            &["--sample", "5:1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }

        // A flag the binary does not take goes to its own handler, value
        // and all, and leaves the context at its default.
        let (ctx, rest) =
            parse_only(&["--no-store"], &["--trace-cache-mb", "3", "--resume"]).unwrap();
        assert_eq!(ctx.trace_budget, Some(1024 << 20));
        assert!(!ctx.store.unwrap().resume);
        assert_eq!(rest, ["--trace-cache-mb", "3", "--resume"]);
    }
}
