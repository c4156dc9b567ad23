//! `visim` — the study façade reproducing Ranganathan, Adve & Jouppi,
//! *Performance of Image and Video Processing with General-Purpose
//! Processors and Media ISA Extensions* (ISCA 1999).
//!
//! This crate ties the simulator substrate (`visim-cpu`, `visim-mem`,
//! `visim-trace`) to the twelve workloads (`media-kernels`,
//! `media-jpeg`, `media-mpeg`) and provides:
//!
//! * [`bench`](mod@bench) — the paper's 12-benchmark registry (Table 1),
//!   the code that drives each benchmark through a
//!   [`visim_cpu::SimSink`], and [`Workload`], the stream source of one
//!   cell (a benchmark or an appendix kernel);
//! * [`config`] — the architecture variations of Figure 1 and the
//!   Table 2/3 machine parameters;
//! * [`ctx`] — the run context ([`RunCtx`]): store, trace budget,
//!   sampling, worker count and progress observer, built once from the
//!   command line by [`ctx::parse_args`] and passed explicitly;
//! * [`experiment`] — the one cell executor ([`RunCtx::run_spec`])
//!   and the manifest engine ([`RunCtx::run_manifest`]) that folds
//!   cells into every figure and table: Figure 1 (ILP × VIS
//!   execution-time breakdowns), Figure 2 (dynamic instruction mix),
//!   Figure 3 (software prefetching), and the §4.1 cache-size sweeps;
//! * [`report`] — plain-text rendering of the results;
//! * [`trace_cache`] — the record-once/replay-many stream cache the
//!   runners use to avoid re-emitting the same dynamic instruction
//!   stream for every machine configuration;
//! * [`store`] — the content-addressed result store behind crash-safe
//!   `--resume` runs: finished cells (successes *and* deterministic
//!   failures) persist atomically and are served back instead of
//!   re-simulated;
//! * [`sampling`] — SMARTS-style sampled-simulation configuration:
//!   detailed windows + functional warming, opt-in via `--sample`,
//!   with exact simulation the byte-stable default;
//! * [`manifest`] — declarative `visim-manifest-v1` experiment
//!   descriptions (`results/manifests/*.json`): benchmarks, config
//!   axes, variants and titles as data, expanded into cells by
//!   [`manifest::Manifest::cells`];
//! * [`kernels14`] — the appendix 14-kernel VSDK emitters behind
//!   [`Workload::Kernel`];
//! * [`artifact`] — `visim-results-v2` JSON cell builders pairing each
//!   text row with a machine-readable record (see `visim-obs`).
//!
//! # Example
//!
//! ```no_run
//! use visim::bench::{Bench, WorkloadSize};
//! use visim::config::Arch;
//! use visim::manifest::CellSpec;
//! use visim::RunCtx;
//!
//! let spec = CellSpec::Timed {
//!     label: "addition/4-way ooo/vis".into(),
//!     workload: Bench::Addition.into(),
//!     cpu: Arch::Ooo4.cpu(),
//!     mem: Default::default(),
//!     variant: media_kernels::Variant::VIS,
//! };
//! let (out, _from_store) = RunCtx::default().run_spec(&spec, &WorkloadSize::tiny()).unwrap();
//! println!("addition/VIS: {} cycles", out.into_summary().cycles());
//! ```

pub mod artifact;
pub mod bench;
pub mod config;
pub mod ctx;
pub mod experiment;
pub mod kernels14;
pub mod manifest;
pub mod report;
pub mod sampling;
pub mod store;
pub mod trace_cache;

pub use bench::{Bench, Workload, WorkloadSize};
pub use config::Arch;
pub use ctx::RunCtx;
