//! Design-choice ablations beyond the paper's figures (DESIGN.md E12/
//! E13): issue-width and window scaling, MSHR capacity, and the
//! mispredict-penalty sensitivity, plus MSHR-occupancy histograms.
//!
//! The section definitions — sweep parameters, values, table headers —
//! live in `results/manifests/ablation.json` (embedded at compile
//! time, `--manifest` overrides). Every (benchmark × configuration)
//! cell is independent, so the whole grid fans out over the experiment
//! worker pool (`VISIM_JOBS` workers) as one batch and prints from a
//! single thread; the output is byte-identical for any worker count.

fn main() {
    visim_bench::render::manifest_main("ablation");
}
