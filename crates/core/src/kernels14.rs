//! The appendix 14-kernel VSDK sweep: the kernel emitters behind
//! [`Workload::Kernel`](crate::bench::Workload).
//!
//! The paper studies all 14 VSDK kernels but reports six for space
//! (§2.1.1); this module drives the whole family — including the
//! VIS-inapplicable scatter/gather kernels. The `kernels14` grid
//! expands each kernel into four ordinary cells (counted base and VIS,
//! then timed base and VIS on the 4-way out-of-order machine), and
//! [`RunCtx::run_spec`](crate::RunCtx::run_spec) runs them like every
//! other figure's cells: result store, trace cache and sampling
//! included.

use media_image::synth;
use media_kernels::{blend, conv, pointwise, reduce, simimg::SimImage, thresh, KernelId, Variant};
use visim_cpu::SimSink;
use visim_trace::Program;

/// Emit one kernel's instruction stream into `p` over synthetic
/// `w`×`h` inputs.
pub fn drive<S: SimSink>(p: &mut Program<S>, k: KernelId, w: usize, h: usize, v: Variant) {
    let img = synth::still(w, h, 3, 1);
    let img2 = synth::still(w, h, 3, 2);
    let al = synth::alpha(w, h, 3, 3);
    let img1b = synth::still(w, h, 1, 4);
    let img1b2 = synth::still(w, h, 1, 5);
    let al1b = synth::alpha(w, h, 1, 6);
    match k {
        KernelId::Addition => {
            let a = SimImage::from_image(p, &img);
            let b = SimImage::from_image(p, &img2);
            let d = SimImage::alloc(p, w, h, 3);
            pointwise::addition(p, &a, &b, &d, v);
        }
        KernelId::Blend => {
            let a = SimImage::from_image(p, &img);
            let b = SimImage::from_image(p, &img2);
            let m = SimImage::from_image(p, &al);
            let d = SimImage::alloc(p, w, h, 3);
            blend::blend(p, &a, &b, &m, &d, v);
        }
        KernelId::Blend1 => {
            let a = SimImage::from_image(p, &img1b);
            let b = SimImage::from_image(p, &img1b2);
            let m = SimImage::from_image(p, &al1b);
            let d = SimImage::alloc(p, w, h, 1);
            blend::blend(p, &a, &b, &m, &d, v);
        }
        KernelId::Conv => {
            let a = SimImage::from_image(p, &img);
            let d = SimImage::alloc(p, w, h, 3);
            conv::conv(p, &a, &d, &conv::SHARPEN_STRONG, v);
        }
        KernelId::ConvSep => {
            let a = SimImage::from_image(p, &img);
            let t = SimImage::alloc(p, w, h, 3);
            let d = SimImage::alloc(p, w, h, 3);
            conv::convsep(p, &a, &t, &d, v);
        }
        KernelId::Copy => {
            let a = SimImage::from_image(p, &img);
            let d = SimImage::alloc(p, w, h, 3);
            pointwise::copy(p, &a, &d, v);
        }
        KernelId::Dotprod => {
            let n = w * h;
            let a = reduce::alloc_i16_array(p, n, 1);
            let b = reduce::alloc_i16_array(p, n, 2);
            let _ = reduce::dotprod(p, a, b, n, v);
        }
        KernelId::Invert => {
            let a = SimImage::from_image(p, &img);
            let d = SimImage::alloc(p, w, h, 3);
            pointwise::invert(p, &a, &d, v);
        }
        KernelId::Lookup => {
            let a = SimImage::from_image(p, &img1b);
            let d = SimImage::alloc(p, w, h, 1);
            let mut table = [0u8; 256];
            for (i, t) in table.iter_mut().enumerate() {
                *t = (i as u8).wrapping_mul(31);
            }
            pointwise::lookup(p, &a, &d, &table, v);
        }
        KernelId::Histogram => {
            let a = SimImage::from_image(p, &img1b);
            let _ = pointwise::histogram(p, &a, v);
        }
        KernelId::Sad => {
            let a = SimImage::from_image(p, &img1b);
            let b = SimImage::from_image(p, &img1b2);
            let _ = reduce::sad(p, &a, &b, v);
        }
        KernelId::Scaling => {
            let a = SimImage::from_image(p, &img);
            let d = SimImage::alloc(p, w, h, 3);
            pointwise::scaling(p, &a, &d, 307, -12, v);
        }
        KernelId::Thresh => {
            let a = SimImage::from_image(p, &img);
            let d = SimImage::alloc(p, w, h, 3);
            thresh::thresh(p, &a, &d, &thresh::ThreshParams::example(), v);
        }
        KernelId::Thresh1 => {
            let a = SimImage::from_image(p, &img);
            let d = SimImage::alloc(p, w, h, 3);
            thresh::thresh1(p, &a, &d, &[100, 120, 140, 0], &[250, 1, 128, 0], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::WorkloadSize;
    use crate::experiment::ManifestOutcome;
    use crate::manifest::{Grid, Manifest};
    use crate::RunCtx;

    #[test]
    fn kernel_cell_runs_all_four_variants() {
        let mut size = WorkloadSize::tiny();
        size.image_w = 16;
        size.image_h = 16;
        let m = Manifest {
            name: "k14-addition".into(),
            about: String::new(),
            title: None,
            grid: Grid::Kernels14 {
                kernels: vec![KernelId::Addition],
            },
        };
        assert_eq!(m.cells().len(), 4, "two counted and two timed cells");
        let ManifestOutcome::Kernels14(rows) = RunCtx::default().run_manifest(&m, &size) else {
            panic!("kernels14 grid folds into kernel rows");
        };
        let (kernel, row) = &rows[0];
        assert_eq!(*kernel, KernelId::Addition);
        let row = row.as_ref().expect("cells run");
        assert!(row.base.retired > 0);
        assert!(
            row.vis.retired < row.base.retired,
            "VIS reduces instruction count on addition"
        );
        assert!(row.timed_base.cycles() > row.timed_vis.cycles());
        // The default context has no store, so
        // nothing can have been served from it.
        assert_eq!(row.timed_base.metrics.counter("cell.store_hit"), 0);
    }
}
