//! Cross-crate integration tests for the §4.1 cache-size results.

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::experiment::run_spec;
use visim::manifest::{CellSpec, SweepCache};
use visim::Arch;
use visim_cpu::Summary;
use visim_mem::MemConfig;

fn size() -> WorkloadSize {
    let mut s = WorkloadSize::tiny();
    s.image_w = 64;
    s.image_h = 48;
    s.dotprod_n = 8192;
    s
}

/// One timed cell on the 4-way out-of-order machine.
fn timed(bench: Bench, mem: MemConfig, variant: Variant) -> Summary {
    let spec = CellSpec::Timed {
        label: bench.name().into(),
        bench,
        cpu: Arch::Ooo4.cpu(),
        mem,
        variant,
    };
    run_spec(&spec, &size())
        .expect("timed cell runs")
        .0
        .into_summary()
}

#[test]
fn streaming_kernels_are_insensitive_to_l2_size() {
    // §4.1: "Increasing the size of the L2 cache has no impact on the
    // performance of the 6 image processing kernels."
    for bench in [Bench::Addition, Bench::Scaling] {
        let l2 =
            |bytes| timed(bench, SweepCache::L2.mem_config(bytes), Variant::VIS).cycles() as f64;
        let (small, large) = (l2(128 << 10), l2(1 << 20));
        assert!(
            (small / large) < 1.05,
            "{}: streaming data has no reuse ({:.3})",
            bench.name(),
            small / large
        );
    }
}

#[test]
fn progressive_jpeg_benefits_from_a_working_set_sized_l2() {
    // §4.1: the progressive codecs reuse the image-sized coefficient
    // buffer; a cache that captures it helps (<= ~1.2x in the paper).
    // At this miniature scale the whole working set fits even in 128K,
    // so instead shrink the L2 to force the effect.
    // (The 64K default L1 swallows the miniature working set, so probe
    // with an 8K L1 to expose the L2 reuse.)
    let cfg = |l2: u64| {
        let mut m = MemConfig::default();
        m.l1.size = 8 << 10;
        m.l2.size = l2;
        m
    };
    let small = timed(Bench::Djpeg, cfg(16 << 10), Variant::VIS);
    let large = timed(Bench::Djpeg, cfg(128 << 10), Variant::VIS);
    let ratio = small.cycles() as f64 / large.cycles() as f64;
    assert!(
        ratio > 1.005,
        "progressive decode likes a bigger L2: {ratio:.3}"
    );
}

#[test]
fn small_l1_works_for_kernels_but_hurts_table_driven_codecs() {
    // §4.1: L1 size has no impact on the streaming kernels; the
    // benchmarks with table working sets want 4-16K.
    let l1 =
        |bench, bytes| timed(bench, SweepCache::L1.mem_config(bytes), Variant::VIS).cycles() as f64;
    let ratio = l1(Bench::Addition, 1 << 10) / l1(Bench::Addition, 64 << 10);
    assert!(
        ratio < 1.25,
        "addition barely cares about L1 size: {ratio:.3}"
    );

    let pts: Vec<f64> = [1 << 10, 16 << 10, 64 << 10]
        .into_iter()
        .map(|bytes| l1(Bench::DjpegNp, bytes))
        .collect();
    let spread = pts[0] / pts[2];
    assert!(
        spread > 1.02,
        "table-driven codec feels a 1K L1: {spread:.3}"
    );
    // 16K gets close to 64K (paper: within 3%; allow slack at tiny scale).
    let near = pts[1] / pts[2];
    assert!(near < 1.10, "16K L1 is nearly enough: {near:.3}");
}

#[test]
fn mshr_starvation_slows_streaming_writes() {
    // §3.1: the MSHR write backup. Halving MSHRs must not speed
    // anything up, and 2 MSHRs must clearly hurt a streaming kernel.
    let mem_with = |n: u32| {
        let mut m = MemConfig::default();
        m.l1.mshrs = n;
        m
    };
    let few = timed(Bench::Addition, mem_with(2), Variant::VIS);
    let many = timed(Bench::Addition, mem_with(12), Variant::VIS);
    // Like the paper's observation, load-miss overlap rarely exceeds
    // 2-3, so the slowdown is modest — but the structural rejections
    // must appear and the ordering must hold.
    assert!(few.cycles() >= many.cycles());
    assert!(
        few.mem.rejects_mshr_full > 100,
        "2 MSHRs cause structural rejections: {}",
        few.mem.rejects_mshr_full
    );
    // The byte-granularity write backup (§3.1) shows as merge-limit
    // rejections in the SCALAR variant even with all 12 MSHRs.
    let scalar = timed(Bench::Addition, MemConfig::default(), Variant::SCALAR);
    assert!(
        scalar.mem.rejects_merge_limit > 50,
        "scalar byte stores exhaust the 8-merge limit: {}",
        scalar.mem.rejects_merge_limit
    );
}
