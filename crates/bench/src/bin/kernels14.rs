//! Appendix: the full 14-kernel VSDK sweep. The paper studies all 14
//! VSDK kernels but reports six for space (§2.1.1); this binary prints
//! scalar-vs-VIS instruction counts and 4-way-OOO timings for the whole
//! family, including the VIS-inapplicable scatter/gather kernels.
//!
//! The kernel list lives in `results/manifests/kernels14.json`
//! (embedded at compile time, `--manifest` overrides); the kernels'
//! emitters are in `visim::kernels14`. Each kernel is four ordinary
//! cells — counted base and VIS, timed base and VIS — run like every
//! other figure's cells, with the same result store, resume, retry,
//! fault injection, trace cache and `--sample` support.

fn main() {
    visim_bench::render::manifest_main("kernels14");
}
