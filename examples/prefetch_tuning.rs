//! Software-prefetch exploration (paper §4.2): how much of each
//! kernel's memory stall time does Mowry-style prefetching recover, and
//! what happens to the busy/stall split.
//!
//! ```text
//! cargo run --release --example prefetch_tuning
//! ```

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::experiment::run_spec;
use visim::manifest::CellSpec;
use visim::Arch;

fn main() {
    let mut size = WorkloadSize::tiny();
    size.image_w = 128;
    size.image_h = 80;
    size.dotprod_n = 32768;

    println!("software prefetching on the image kernels (4-way ooo):\n");
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "kernel", "VIS", "VIS+PF", "speedup", "mem% before", "mem% after"
    );
    for bench in Bench::kernels() {
        let timed = |variant| {
            let spec = CellSpec::Timed {
                label: bench.name().into(),
                bench,
                cpu: Arch::Ooo4.cpu(),
                mem: Default::default(),
                variant,
            };
            let (out, _from_store) = run_spec(&spec, &size).expect("kernel simulates");
            out.into_summary()
        };
        let (vis, pf) = (timed(Variant::VIS), timed(Variant::VIS_PF));
        let mem_before = vis.cpu.breakdown().memory() / vis.cycles() as f64;
        let mem_after = pf.cpu.breakdown().memory() / pf.cycles() as f64;
        println!(
            "{:<10} {:>10} {:>10} {:>7.2}x {:>11.1}% {:>11.1}%",
            bench.name(),
            vis.cycles(),
            pf.cycles(),
            vis.cycles() as f64 / pf.cycles() as f64,
            100.0 * mem_before,
            100.0 * mem_after,
        );
    }
    println!(
        "\nPrefetching converts L1-miss stall into overlap; per the paper, \
         every kernel\nreverts to being compute-bound (memory fraction well \
         below half)."
    );
}
