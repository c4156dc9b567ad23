//! The appendix 14-kernel VSDK sweep as a library: the kernel driver
//! and the body of a [`CellSpec::Kernel`](crate::manifest::CellSpec)
//! cell.
//!
//! The paper studies all 14 VSDK kernels but reports six for space
//! (§2.1.1); this module drives the whole family — including the
//! VIS-inapplicable scatter/gather kernels. Both the `kernels14` figure
//! binary and the `visim-serve` daemon run these cells through
//! [`experiment::run_spec`].

use media_image::synth;
use media_kernels::{blend, conv, pointwise, reduce, simimg::SimImage, thresh, KernelId, Variant};
use visim_cpu::{CountingSink, CpuConfig, CpuStats, Pipeline, SimSink, Summary};
use visim_mem::MemConfig;
use visim_trace::Program;
use visim_util::SimError;

use crate::bench::WorkloadSize;
use crate::experiment;

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

/// The four runs behind one `kernels14` table row.
#[derive(Debug, Clone)]
pub struct KernelCell {
    /// Scalar-variant instruction counts.
    pub base: CpuStats,
    /// VIS-variant instruction counts.
    pub vis: CpuStats,
    /// Scalar-variant detailed timing (4-way ooo).
    pub timed_base: Summary,
    /// VIS-variant detailed timing (4-way ooo).
    pub timed_vis: Summary,
}

/// Run one kernel's full cell — two counted and two timed runs —
/// through the store-aware custom-cell runners, so the appendix gets
/// the same crash-safe resume, retry, and fault-injection coverage as
/// the registry-driven figures. The flag is `true` when all four runs
/// were served from the result store.
pub(crate) fn kernel_cell(
    k: KernelId,
    size: &WorkloadSize,
) -> Result<(KernelCell, bool), SimError> {
    let (w, h) = (size.image_w, size.image_h);
    let counted_run = |v: Variant, vname: &str| {
        experiment::custom_counted(&format!("k14.{}.{vname}", k.name()), size, || {
            let mut sink = CountingSink::new();
            {
                let mut p = Program::new(&mut sink);
                drive(&mut p, k, w, h, v);
            }
            Ok(sink.finish())
        })
    };
    let (base, base_hit) = counted_run(Variant::SCALAR, "base")?;
    let (vis, vis_hit) = counted_run(Variant::VIS, "vis")?;
    let cpu = CpuConfig::ooo_4way();
    let mem = MemConfig::default();
    let timed_run = |v: Variant, vname: &str| {
        experiment::custom_timed(
            &format!("k14.{}.{vname}", k.name()),
            &cpu,
            &mem,
            size,
            || {
                let mut pipe = Pipeline::new(cpu.clone(), mem.clone());
                {
                    let mut p = Program::new(&mut pipe);
                    drive(&mut p, k, w, h, v);
                }
                Ok(pipe.finish())
            },
        )
    };
    let (timed_base, timed_base_hit) = timed_run(Variant::SCALAR, "base")?;
    let (timed_vis, timed_vis_hit) = timed_run(Variant::VIS, "vis")?;
    let cell = KernelCell {
        base,
        vis,
        timed_base,
        timed_vis,
    };
    Ok((cell, base_hit && vis_hit && timed_base_hit && timed_vis_hit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cell_runs_all_four_variants() {
        let mut size = WorkloadSize::tiny();
        size.image_w = 16;
        size.image_h = 16;
        let (cell, from_store) = kernel_cell(KernelId::Addition, &size).expect("cell runs");
        assert!(cell.base.retired > 0);
        assert!(
            cell.vis.retired < cell.base.retired,
            "VIS reduces instruction count on addition"
        );
        assert!(cell.timed_base.cycles() > cell.timed_vis.cycles());
        // The store is disabled in unit tests (no default dir), so
        // nothing can have been served from it.
        assert!(!from_store);
    }
}
