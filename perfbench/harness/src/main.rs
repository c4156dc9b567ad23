//! `perfbench-harness`: the compiled half of the visim benchmark.
//!
//! `perfbench/run.py` drives this binary; every subcommand runs in a
//! fresh process so each measurement starts from a cold trace cache
//! and an empty heap. Subcommands:
//!
//! - `fig1` — one Figure 1 pass through `experiment::run_manifest`
//!   (exact simulation), printing a `dispatch` line just before the
//!   first cell is handed to the engine and a result line at the end;
//! - `daemon` — the `visim-serve` daemon (`visim_serve::daemon::run`,
//!   the code path the shipped binary runs) with its store in a given
//!   directory;
//! - `serve-load` — the two-connection closed-loop load generator;
//! - `traced` — the per-layer traced run (see `layers`).
//!
//! Every result is one JSON object on the last line of stdout.

mod args;
mod fig1;
mod layers;
mod load;
mod spans;

use args::Args;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-harness fig1 --size tiny|study --seed N --benches all|B,... \
         [--dry-run 1]\n\
         \x20      perfbench-harness daemon --store-dir DIR\n\
         \x20      perfbench-harness serve-load --addr HOST:PORT --seed N --epoch N \
         --requests N --verify N [--trace-out FILE]\n\
         \x20      perfbench-harness traced --workload W --size tiny|study --seed N \
         --benches all|B,... --out DIR"
    );
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    let args = Args::parse(argv).unwrap_or_else(|e| {
        eprintln!("perfbench-harness: {e}");
        usage()
    });
    let result = match cmd.as_str() {
        "fig1" => fig1::main(&args),
        "daemon" => daemon(&args),
        "serve-load" => load::main(&args),
        "traced" => layers::main(&args),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("perfbench-harness {cmd}: {e}");
        std::process::exit(1);
    }
}

/// Run the serve daemon exactly as `visim-serve` does, with its store
/// at `--store-dir`.
fn daemon(args: &Args) -> Result<(), String> {
    visim::store::set_cli_dir(&args.str("store-dir")?);
    let cfg = visim_serve::daemon::DaemonConfig {
        port: 0,
        addr_file: None,
        trace_out: None,
    };
    visim_serve::daemon::run(&cfg)
}
