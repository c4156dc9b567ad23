//! Determinism regression: the whole stack — synthetic inputs, codec
//! emission, and the timing model — must be bit-reproducible, or the
//! committed `results/` files stop being regenerable.

use visim::bench::{Bench, WorkloadSize};
use visim::experiment::{run_manifest, Fig1Bar, ManifestOutcome};
use visim::manifest::{Grid, Manifest};
use visim::report;

/// Figure 1 at a miniature size, restricted to `benchmarks`.
fn fig1(benchmarks: &[Bench]) -> Vec<Vec<Fig1Bar>> {
    let mut size = WorkloadSize::tiny();
    size.image_w = 32;
    size.image_h = 32;
    size.dotprod_n = 512;
    let mut m = Manifest::builtin("fig1").expect("built-in fig1 manifest");
    let Grid::Fig1 { benchmarks: b, .. } = &mut m.grid else {
        panic!("fig1 manifest has a fig1 grid");
    };
    *b = benchmarks.to_vec();
    let ManifestOutcome::Fig1(rows) = run_manifest(&m, &size) else {
        panic!("fig1 grid folds into Figure 1 bars");
    };
    rows.into_iter()
        .map(|(bench, bars)| bars.unwrap_or_else(|e| panic!("{bench:?}: {e}")))
        .collect()
}

#[test]
fn fig1_is_byte_identical_across_runs() {
    // One kernel and one codec cover both emission paths without
    // running the full 12-benchmark figure twice.
    let benchmarks = [Bench::Addition, Bench::CjpegNp];
    let first = fig1(&benchmarks);
    let second = fig1(&benchmarks);
    for ((a, b), bench) in first.iter().zip(&second).zip(benchmarks) {
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.arch, y.arch);
            assert_eq!(x.vis, y.vis);
            assert_eq!(
                x.summary.cycles(),
                y.summary.cycles(),
                "{bench:?} {:?} vis={} cycle count drifted",
                x.arch,
                x.vis
            );
            assert_eq!(x.summary.cpu.retired, y.summary.cpu.retired);
        }
        // The rendered rows (everything the figure file contains) match
        // byte for byte.
        assert_eq!(report::fig1_rows(a), report::fig1_rows(b));
    }
}
