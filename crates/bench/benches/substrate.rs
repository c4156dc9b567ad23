//! Microbenchmarks of the simulator substrate's hot paths (host
//! performance, not simulated time): the memory system, the pipeline
//! loop, packed-op semantics, and the DSP kernels. Runs on the
//! zero-dependency `visim_util::bench` wall-clock runner
//! (`VISIM_BENCH_MS` adjusts the per-benchmark budget).

use media_kernels::{pointwise, SimImage, Variant};
use visim_cpu::{CpuConfig, Pipeline, SimSink};
use visim_isa::{vis, Inst, MemKind, Op, Reg};
use visim_mem::{MemConfig, MemSystem, Request};
use visim_trace::Program;
use visim_util::bench::{black_box, Runner};

fn bench_mem_system(r: &mut Runner) {
    r.bench_function("mem_stream_1k_lines", || {
        let mut m = MemSystem::new(MemConfig::default());
        let mut t = 0u64;
        for i in 0..1000u64 {
            if let Ok(rr) = m.access(Request::new(0x10000 + i * 64, 8, MemKind::Load), t) {
                t = t.max(rr.done_at) + 1;
            }
        }
        black_box(m.stats().l1_primary_misses)
    });
}

fn bench_pipeline(r: &mut Runner) {
    r.bench_function("pipeline_10k_alu", || {
        let mut p = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
        for i in 0..10_000u32 {
            p.push(Inst::compute(Op::IntAlu, 0x100, Reg(i + 1), [Reg::NONE; 3]));
        }
        black_box(p.finish().cycles())
    });
    r.bench_function("pipeline_load_stream", || {
        let mut p = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
        for i in 0..2_000u32 {
            p.push(Inst::memory(
                Op::Load,
                0x200,
                Reg(i + 1),
                [Reg::NONE; 3],
                visim_isa::MemRef {
                    addr: 0x10000 + i as u64 * 32,
                    size: 8,
                    kind: MemKind::Load,
                },
            ));
        }
        black_box(p.finish().cycles())
    });
    // Eight dependent ALU chains interleaved in program order, each
    // restarted behind a load to a fresh line: the window fills with
    // consumers of unissued producers, the out-of-order wake-up path.
    r.bench_function("pipeline_dep_chains_ooo", || {
        const CHAINS: u64 = 8;
        let mut p = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
        let mut reg = 0u32;
        let mut fresh = || {
            reg += 1;
            Reg(reg)
        };
        for round in 0..64u64 {
            let mut last = [Reg::NONE; CHAINS as usize];
            for (c, l) in last.iter_mut().enumerate() {
                *l = fresh();
                p.push(Inst::memory(
                    Op::Load,
                    0x300,
                    *l,
                    [Reg::NONE; 3],
                    visim_isa::MemRef {
                        addr: 0x100000 + (round * CHAINS + c as u64) * 64,
                        size: 8,
                        kind: MemKind::Load,
                    },
                ));
            }
            for _ in 0..16 {
                for l in last.iter_mut() {
                    let d = fresh();
                    p.push(Inst::compute(
                        Op::IntAlu,
                        0x304,
                        d,
                        [*l, Reg::NONE, Reg::NONE],
                    ));
                    *l = d;
                }
            }
        }
        black_box(p.finish().cycles())
    });
}

fn bench_vis_ops(r: &mut Runner) {
    let a = vis::pack16([100, -200, 300, -400]);
    let bb = vis::pack16([7, -9, 11, -13]);
    r.bench_function("vis_mul16_q8", || {
        black_box(vis::mul16_q8(black_box(a), black_box(bb)))
    });
    let x = vis::pack8([1, 2, 3, 4, 5, 6, 7, 8]);
    let y = vis::pack8([8, 7, 6, 5, 4, 3, 2, 1]);
    r.bench_function("vis_pdist", || {
        black_box(vis::pdist(black_box(x), black_box(y), 0))
    });
}

fn bench_dct(r: &mut Runner) {
    let mut block = [0i32; 64];
    for (i, v) in block.iter_mut().enumerate() {
        *v = ((i as i32 * 29) % 255) - 128;
    }
    r.bench_function("dsp_fdct8x8", || {
        black_box(media_dsp::fdct8x8(black_box(&block)))
    });
    let coef = media_dsp::fdct8x8(&block);
    r.bench_function("dsp_idct8x8", || {
        black_box(media_dsp::idct8x8(black_box(&coef)))
    });
}

fn bench_kernel_end_to_end(r: &mut Runner) {
    let img1 = media_image::synth::still(64, 40, 3, 1);
    let img2 = media_image::synth::still(64, 40, 3, 2);
    r.bench_function("sim_addition_vis_64x40", || {
        let mut pipe = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
        {
            let mut p = Program::new(&mut pipe);
            let a = SimImage::from_image(&mut p, &img1);
            let bb = SimImage::from_image(&mut p, &img2);
            let d = SimImage::alloc(&mut p, 64, 40, 3);
            pointwise::addition(&mut p, &a, &bb, &d, Variant::VIS);
        }
        black_box(pipe.finish().cycles())
    });
}

fn main() {
    let mut r = Runner::new();
    bench_mem_system(&mut r);
    bench_pipeline(&mut r);
    bench_vis_ops(&mut r);
    bench_dct(&mut r);
    bench_kernel_end_to_end(&mut r);
}
