//! `visim-serve` CLI: daemon mode (default), client mode, and the
//! `--store-stats` / `--check-timeline` reports.

use visim::ctx;
use visim_serve::proto::{ManifestSource, Request};
use visim_serve::{client, daemon, telemetry};

fn usage() -> String {
    "visim-serve: job daemon serving manifest simulations over the content-addressed store\n\
     \n\
     Usage:\n\
     \x20 visim-serve [--port N] [--addr-file F] [--trace-out F] [--store-dir D] [--no-store]\n\
     \x20             [--no-trace-cache] [--sample [W:P]]\n\
     \x20 visim-serve client <addr> <command>\n\
     \x20 visim-serve --store-stats [--store-dir D]\n\
     \x20 visim-serve --check-timeline <file>\n\
     \n\
     Daemon flags:\n\
     \x20 --port N        TCP port on 127.0.0.1 (default 0 = ephemeral; the bound\n\
     \x20                 address is printed in the `listening` event)\n\
     \x20 --addr-file F   also write the `listening` event line to file F\n\
     \x20 --trace-out F   at shutdown, write one Chrome-trace span per served\n\
     \x20                 request to file F (load in Perfetto / chrome://tracing)\n\
     \x20 --store-dir D   result-store directory (default results/store)\n\
     \x20 --no-store      serve without persistence (every request simulates)\n\
     \x20 --no-trace-cache, --sample [W:P]\n\
     \x20                 trace cache and sampling, as for the figure binaries\n\
     \n\
     Client commands (addr as printed by the daemon, e.g. 127.0.0.1:38141):\n\
     \x20 ping                          health check (schema, git rev, uptime,\n\
     \x20                               in-flight count)\n\
     \x20 stats [--json]                serve counters + per-phase/per-path latency\n\
     \x20                               percentiles + store scan (--json: raw event)\n\
     \x20 watch [N] [--json]            stream flight-recorder snapshots, one\n\
     \x20                               dashboard line per tick (N snapshots, or\n\
     \x20                               until shutdown; --watch is an alias)\n\
     \x20 shutdown                      graceful daemon shutdown\n\
     \x20 manifest <name|path> [size]   run a manifest (builtin name, or a\n\
     \x20                               daemon-local .json path); size is\n\
     \x20                               tiny|study|paper (default study)\n\
     \x20 cell <name|path> <label> [size]  run one cell of a manifest by label\n\
     \n\
     --store-stats       print store size/entry counts per schema revision and exit\n\
     --check-timeline F  validate a serve_timeline.json flight-recorder artifact\n\
     \n\
     Environment: VISIM_JOBS, VISIM_FAULT, VISIM_QUIET and VISIM_LOG as for the\n\
     figure binaries; VISIM_TICK_MS sets the flight-recorder interval,\n\
     VISIM_SLOW_MS the slow-request warning threshold."
        .to_string()
}

fn bad(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("\n{}", usage());
    std::process::exit(2);
}

/// A manifest argument: an embedded name, or anything path-like.
fn source_arg(arg: &str) -> ManifestSource {
    if arg.contains('/') || arg.ends_with(".json") {
        ManifestSource::Path(arg.to_string())
    } else {
        ManifestSource::Builtin(arg.to_string())
    }
}

fn client_request(args: &[String]) -> Request {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "watch" | "--watch" => Request::Watch {
            count: match args.get(1) {
                Some(n) => n
                    .parse::<u64>()
                    .unwrap_or_else(|_| bad("client watch: the count must be a number")),
                None => 0,
            },
        },
        "shutdown" => Request::Shutdown,
        "manifest" => match args.get(1) {
            Some(m) => Request::Manifest {
                source: source_arg(m),
                size: args.get(2).cloned().unwrap_or_else(|| "study".into()),
            },
            None => bad("client manifest: expected a manifest name or path"),
        },
        "cell" => match (args.get(1), args.get(2)) {
            (Some(m), Some(label)) => Request::Cell {
                source: source_arg(m),
                label: label.clone(),
                size: args.get(3).cloned().unwrap_or_else(|| "study".into()),
            },
            _ => bad("client cell: expected a manifest name/path and a cell label"),
        },
        other => bad(&format!(
            "unknown client command {other:?}, expected ping|stats|watch|shutdown|manifest|cell"
        )),
    }
}

fn main() {
    let mut cfg = daemon::DaemonConfig {
        port: 0,
        addr_file: None,
        trace_out: None,
    };
    let mut store_stats = false;
    // The daemon always resumes and keeps the default trace budget.
    let flags = ["--store-dir", "--no-store", "--no-trace-cache", "--sample"];
    let parsed = ctx::parse_args(std::env::args().skip(1), &flags, |arg, args| {
        match arg {
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--store-stats" => store_stats = true,
            "--port" => match args.next().and_then(|v| v.parse::<u16>().ok()) {
                Some(p) => cfg.port = p,
                None => return Err("--port expects a TCP port number".into()),
            },
            "--addr-file" => cfg.addr_file = Some(ctx::path_value(args, "--addr-file")?),
            "--trace-out" => cfg.trace_out = Some(ctx::path_value(args, "--trace-out")?),
            "--check-timeline" => check_timeline(&ctx::path_value(args, "--check-timeline")?),
            "client" => client(args.collect()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        Ok(())
    });
    let ctx = parsed.unwrap_or_else(|e| bad(&e));
    if store_stats {
        print!("{}", visim_serve::store_stats_text(ctx.store.as_ref()));
        return;
    }
    if let Err(e) = daemon::serve(&cfg, ctx) {
        eprintln!("visim-serve: {e}");
        std::process::exit(1);
    }
}

/// `--check-timeline F`: validate a flight-recorder artifact and exit.
fn check_timeline(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("visim-serve: read {path}: {e}");
            std::process::exit(1);
        }
    };
    match telemetry::check_timeline_text(&text) {
        Ok(summary) => {
            println!("{summary}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("visim-serve: {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `client <addr> <command>`: send one request and exit with its status.
fn client(mut rest: Vec<String>) -> ! {
    let json = rest.iter().any(|a| a == "--json");
    rest.retain(|a| a != "--json");
    let (addr, cmd) = match rest.split_first() {
        Some((addr, cmd)) if !cmd.is_empty() => (addr.clone(), cmd.to_vec()),
        _ => bad("client: expected an address and a command"),
    };
    let request = client_request(&cmd);
    // Telemetry views render for humans unless --json asked for the raw
    // event lines; run streams stay raw either way (scripts parse their
    // cell/done events).
    let render = match request {
        _ if json => client::Render::Raw,
        Request::Stats | Request::Watch { .. } | Request::Ping => client::Render::Human,
        _ => client::Render::Raw,
    };
    match client::run_with(&addr, &request, render) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("visim-serve client: {e}");
            std::process::exit(1);
        }
    }
}
