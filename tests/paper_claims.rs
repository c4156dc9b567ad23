//! Cross-crate integration tests: the paper's headline claims must hold
//! qualitatively on miniature inputs.

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::experiment::ManifestOutcome;
use visim::manifest::{CellSpec, Manifest};
use visim::{Arch, RunCtx};
use visim_cpu::Summary;
use visim_mem::MemConfig;

fn size() -> WorkloadSize {
    let mut s = WorkloadSize::tiny();
    s.image_w = 64;
    s.image_h = 48;
    s.dotprod_n = 8192;
    s
}

/// One timed cell on the default memory system.
fn timed(bench: Bench, arch: Arch, variant: Variant) -> Summary {
    let spec = CellSpec::Timed {
        label: bench.name().into(),
        workload: bench.into(),
        cpu: arch.cpu(),
        mem: MemConfig::default(),
        variant,
    };
    RunCtx::default()
        .run_spec(&spec, &size())
        .expect("timed cell runs")
        .0
        .into_summary()
}

#[test]
fn claim_base_machine_is_compute_bound() {
    // §3: "On the base single-issue in-order processor, all the
    // benchmarks are primarily compute-bound."
    for bench in [Bench::Addition, Bench::Thresh, Bench::CjpegNp] {
        let s = timed(bench, Arch::InOrder1, Variant::SCALAR);
        let bd = s.cpu.breakdown();
        assert!(
            bd.memory() < 0.5 * s.cycles() as f64,
            "{}: memory fraction {:.2}",
            bench.name(),
            bd.memory() / s.cycles() as f64
        );
    }
}

#[test]
fn claim_ilp_features_speed_up_every_benchmark() {
    // §3.1: multiple issue + out-of-order = 2.3x-4.2x. On miniature
    // inputs we assert ordering and a healthy magnitude.
    for bench in [Bench::Addition, Bench::Conv, Bench::CjpegNp] {
        let t1 = timed(bench, Arch::InOrder1, Variant::SCALAR).cycles();
        let t4 = timed(bench, Arch::InOrder4, Variant::SCALAR).cycles();
        let to = timed(bench, Arch::Ooo4, Variant::SCALAR).cycles();
        assert!(t4 < t1, "{}: multiple issue helps", bench.name());
        assert!(to < t4, "{}: out-of-order helps more", bench.name());
        let speedup = t1 as f64 / to as f64;
        assert!(
            speedup > 1.5,
            "{}: ILP speedup only {speedup:.2}",
            bench.name()
        );
    }
}

#[test]
fn claim_vis_speedups_range_and_ordering() {
    // §3.2: 1.1x-4.2x on the out-of-order machine; kernels near the
    // top, Huffman-bound JPEG codecs near the bottom.
    let mut speedups = Vec::new();
    for bench in [
        Bench::Scaling,
        Bench::Thresh,
        Bench::Dotprod,
        Bench::DjpegNp,
    ] {
        let s = timed(bench, Arch::Ooo4, Variant::SCALAR).cycles();
        let v = timed(bench, Arch::Ooo4, Variant::VIS).cycles();
        speedups.push((bench, s as f64 / v as f64));
    }
    for &(b, sp) in &speedups {
        assert!(sp > 1.0, "{}: VIS never hurts ({sp:.2})", b.name());
    }
    let get = |b: Bench| speedups.iter().find(|(x, _)| *x == b).unwrap().1;
    assert!(
        get(Bench::Scaling) > get(Bench::DjpegNp),
        "kernels gain more than Huffman-bound codecs: {:.2} vs {:.2}",
        get(Bench::Scaling),
        get(Bench::DjpegNp)
    );
}

#[test]
fn claim_kernels_become_memory_bound_with_ilp_and_vis() {
    // §3.3: five image kernels spend 55-66% in memory stalls after
    // ILP+VIS. Streaming kernels must be majority-memory here.
    for bench in [Bench::Addition, Bench::Scaling] {
        let s = timed(bench, Arch::Ooo4, Variant::VIS);
        let frac = s.cpu.breakdown().memory() / s.cycles() as f64;
        assert!(
            frac > 0.5,
            "{}: memory-bound after VIS ({frac:.2})",
            bench.name()
        );
    }
}

#[test]
fn claim_prefetching_makes_everything_compute_bound() {
    // §4.2 + conclusion: with software prefetching all benchmarks
    // revert to being compute-bound.
    let fig3 = Manifest::builtin("fig3").unwrap();
    let ManifestOutcome::Fig3(rows) = RunCtx::default().run_manifest(&fig3, &size()) else {
        panic!("fig3 manifest folds into Figure 3 rows");
    };
    for (bench, row) in rows {
        let r = row.unwrap_or_else(|e| panic!("{bench:?}: {e}"));
        let frac = r.pf.cpu.breakdown().memory() / r.pf.cycles() as f64;
        assert!(
            frac < 0.5,
            "{}: still memory-bound after PF ({frac:.2})",
            r.bench.name()
        );
        // Prefetch instruction overhead may cost a sliver when the
        // working set already fits the caches (tiny inputs).
        assert!(
            (r.pf.cycles() as f64) <= 1.03 * r.vis.cycles() as f64,
            "{}: prefetching is at worst neutral ({} vs {})",
            r.bench.name(),
            r.pf.cycles(),
            r.vis.cycles()
        );
    }
}

#[test]
fn claim_vis_cuts_dynamic_instruction_counts() {
    // Figure 2's shape: kernels drop to ~18-30%, dotprod stays high,
    // JPEG codecs in between.
    let sz = size();
    let retired = |bench: Bench, variant| {
        let spec = CellSpec::Counted {
            label: bench.name().into(),
            workload: bench.into(),
            variant,
        };
        let out = RunCtx::default()
            .run_spec(&spec, &sz)
            .expect("counted cell runs")
            .0;
        out.into_counts().retired as f64
    };
    let ratio = |b: Bench| retired(b, Variant::VIS) / retired(b, Variant::SCALAR);
    let blend = ratio(Bench::Blend);
    let dotprod = ratio(Bench::Dotprod);
    let cjpeg = ratio(Bench::Cjpeg);
    assert!(blend < 0.4, "blend ratio {blend:.2}");
    assert!(dotprod > blend, "dotprod is the weakest kernel win");
    assert!(cjpeg > blend, "cjpeg {cjpeg:.2} vs blend {blend:.2}");
    assert!(cjpeg < 1.0 && dotprod < 1.0);
}

#[test]
fn determinism_across_full_timed_runs() {
    let a = timed(Bench::Blend, Arch::Ooo4, Variant::VIS);
    let b = timed(Bench::Blend, Arch::Ooo4, Variant::VIS);
    assert_eq!(a.cycles(), b.cycles());
    assert_eq!(a.cpu.retired, b.cpu.retired);
    assert_eq!(a.mem, b.mem);
}
