//! Trace residency under the manifest engine: a manifest releases every
//! stream it records once the stream's last cell is done, concurrent
//! workers never record one stream twice, and a stream recorded outside
//! a manifest (the serve daemon's `run_spec` path) stays cached for the
//! next request.
//!
//! The trace cache and the metrics sink are process-wide, so this binary
//! holds a single test that takes its steps in order. The worker count
//! is each run context's own.

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::config::Arch;
use visim::experiment::drain_pool_metrics;
use visim::manifest::{CellSpec, Grid, Manifest};
use visim::RunCtx;
use visim_mem::MemConfig;

fn size() -> WorkloadSize {
    let mut s = WorkloadSize::tiny();
    s.image_w = 32;
    s.image_h = 32;
    s.dotprod_n = 512;
    s
}

/// Figure 1 over two benchmarks: four streams, each read by the three
/// architectures.
fn fig1() -> Manifest {
    let mut m = Manifest::builtin("fig1").expect("built-in fig1 manifest");
    let Grid::Fig1 { benchmarks, .. } = &mut m.grid else {
        panic!("fig1 manifest has a fig1 grid");
    };
    *benchmarks = vec![Bench::Addition, Bench::Thresh];
    m
}

/// The trace-cache counters since the last drain, as
/// `[hits, misses, released, resident_entries, resident_bytes]`.
fn drain() -> [u64; 5] {
    let m = drain_pool_metrics();
    [
        "trace_cache.hits",
        "trace_cache.misses",
        "trace_cache.released",
        "trace_cache.resident_entries",
        "trace_cache.resident_bytes",
    ]
    .map(|name| m.counter(name))
}

#[test]
fn manifests_release_their_streams_and_record_each_once() {
    let (m, size) = (fig1(), size());
    drain();
    for jobs in [1, 2] {
        let ctx = RunCtx {
            jobs,
            ..RunCtx::default()
        };
        ctx.run_manifest(&m, &size);
        // Every stream missed once, hit by its other two readers, and
        // released after the third; two workers wait for each other's
        // recordings instead of missing twice.
        assert_eq!(drain(), [8, 4, 4, 0, 0], "{jobs} workers");
    }
    assert!(
        drain_pool_metrics().counter("trace_cache.peak_resident_bytes") > 0,
        "the high-water gauge saw the streams"
    );

    // Outside a manifest nothing counts consumers: the stream stays
    // under the LRU, and a second run of the cell hits it.
    let cell = CellSpec::Timed {
        label: "addition/4-way ooo/base".into(),
        workload: Bench::Addition.into(),
        cpu: Arch::Ooo4.cpu(),
        mem: MemConfig::default(),
        variant: Variant::SCALAR,
    };
    let ctx = RunCtx::default();
    ctx.run_spec(&cell, &size).expect("first run");
    ctx.run_spec(&cell, &size).expect("second run");
    let [hits, misses, released, entries, _] = drain();
    assert_eq!([hits, misses, released, entries], [1, 1, 0, 1]);
}
