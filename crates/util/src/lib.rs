//! `visim-util` — zero-dependency substrate utilities for the visim
//! workspace.
//!
//! The workspace builds hermetically (`cargo build --offline` with no
//! registry access); this crate provides the in-tree replacements for
//! the three external crates the seed depended on, plus the shared
//! fault model:
//!
//! * [`rng`] — seeded SplitMix64 / xoshiro256** PRNG (replaces `rand`)
//!   for the deterministic synthetic inputs;
//! * [`prop`] — a property-testing harness with closure generators and
//!   iteration-bounded shrinking (replaces `proptest`);
//! * [`bench`] — a wall-clock microbenchmark runner (replaces
//!   `criterion`) for `harness = false` bench targets;
//! * [`atomic`] — temp-file + `sync_all` + rename writes, the single
//!   write path every durable artifact (result-store cells, JSON
//!   artifacts, partial-failure droppings) lands through;
//! * [`error`] — [`SimError`], the typed fault model threaded through
//!   the pipeline watchdog, the memory-model invariant checks and the
//!   experiment runners;
//! * [`fault`] — the deterministic seeded fault-injection harness
//!   (`VISIM_FAULT=<point>:<spec>`) exercising the store and
//!   worker-pool failure paths;
//! * [`hash`] — stable 64-bit FNV-1a hashing for digests that must
//!   agree across processes and builds (trace-cache keys, result-store
//!   and checkpoint checksums);
//! * [`pool`] — a scoped worker pool with a bounded job queue (replaces
//!   `rayon`) for the parallel experiment executor; it also records
//!   per-job queue-wait and run wall-clock plus queue-depth samples,
//!   exported into a `visim_obs` metrics registry for the JSON result
//!   artifacts;
//! * [`heap`] — the process-wide heap policy that keeps large,
//!   short-lived buffers (trace-stream columns) in their own mappings so
//!   that freeing them returns the memory;
//! * [`hermetic_command`] — a subprocess that inherits none of the
//!   caller's `VISIM_*` knobs, for end-to-end tests of the binaries.

pub mod atomic;
pub mod bench;
pub mod error;
pub mod fault;
pub mod hash;
pub mod heap;
pub mod pool;
pub mod prop;
pub mod rng;

pub use error::SimError;
pub use hash::fnv1a64;
pub use rng::Rng;

/// A [`Command`](std::process::Command) for `program` that inherits
/// none of this process's `VISIM_*` variables, so the spawned binary
/// sees only the knobs the caller then sets on it explicitly. The
/// end-to-end tests spawn every binary through this (the benchmark
/// harness `perfbench/run.py` follows the same rule).
pub fn hermetic_command(program: impl AsRef<std::ffi::OsStr>) -> std::process::Command {
    let mut cmd = std::process::Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(|k| k.starts_with("VISIM_")) {
            cmd.env_remove(key);
        }
    }
    cmd
}
