//! The 12-benchmark registry (paper Table 1) and workload drivers.

use media_image::synth;
use media_jpeg as jpeg;
use media_kernels::{blend, conv, pointwise, reduce, thresh, SimImage, Variant};
use media_mpeg as mpeg;
use visim_cpu::SimSink;
use visim_trace::Program;

/// The sink of the untimed input preparation: the decode benchmarks
/// read only the encoder's memory image afterwards, so its instructions
/// feed no statistic and are dropped as they are emitted.
struct Discard;

impl SimSink for Discard {
    fn push(&mut self, _: visim_isa::Inst) {}
}

/// Input-size configuration for the whole suite.
///
/// The paper runs 1024×640 images and the 352×240 `mei16v2` stream;
/// those geometries make detailed simulation impractically slow (the
/// paper itself skipped full-screen sizes for the same reason), so the
/// study defaults scale everything down while preserving aspect ratios
/// and structure. EXPERIMENTS.md discusses how cache-sweep results shift
/// with the working-set scale.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSize {
    /// Still-image width (multiple of 16).
    pub image_w: usize,
    /// Still-image height (multiple of 16).
    pub image_h: usize,
    /// Dot-product element count.
    pub dotprod_n: usize,
    /// Video width (multiple of 16).
    pub video_w: usize,
    /// Video height (multiple of 16).
    pub video_h: usize,
    /// Video frame count (the paper encodes 4: I-B-B-P).
    pub frames: usize,
    /// JPEG quality.
    pub jpeg_quality: u32,
    /// MPEG encoder parameters.
    pub mpeg: mpeg::MpegParams,
    /// Deterministic input seed.
    pub seed: u64,
}

impl WorkloadSize {
    /// Miniature inputs for unit/integration tests.
    pub fn tiny() -> Self {
        WorkloadSize {
            image_w: 64,
            image_h: 48,
            dotprod_n: 4096,
            video_w: 48,
            video_h: 32,
            frames: 4,
            jpeg_quality: 80,
            mpeg: mpeg::MpegParams {
                search_range: 3,
                ..Default::default()
            },
            seed: 7,
        }
    }

    /// The study defaults used by the figure/table binaries: same 8:5
    /// aspect as the paper's 1024×640 inputs at 1/4 linear scale.
    pub fn study() -> Self {
        WorkloadSize {
            image_w: 256,
            image_h: 160,
            dotprod_n: 262_144,
            video_w: 96,
            video_h: 64,
            frames: 4,
            jpeg_quality: 80,
            mpeg: mpeg::MpegParams::default(),
            seed: 7,
        }
    }

    /// The paper's full geometry (slow; provided for completeness).
    pub fn paper() -> Self {
        WorkloadSize {
            image_w: 1024,
            image_h: 640,
            dotprod_n: 1_048_576,
            video_w: 352,
            video_h: 240,
            frames: 4,
            jpeg_quality: 80,
            mpeg: mpeg::MpegParams::default(),
            seed: 7,
        }
    }
}

/// The paper's 12 benchmarks (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// Image addition (mean of two images).
    Addition,
    /// Three-band alpha blend.
    Blend,
    /// General 3×3 convolution.
    Conv,
    /// 16×16-bit dot product.
    Dotprod,
    /// Linear intensity scaling.
    Scaling,
    /// Double-limit thresholding.
    Thresh,
    /// JPEG progressive encoding.
    Cjpeg,
    /// JPEG progressive decoding.
    Djpeg,
    /// JPEG baseline encoding.
    CjpegNp,
    /// JPEG baseline decoding.
    DjpegNp,
    /// MPEG-2 encoding (I-B-B-P).
    MpegEnc,
    /// MPEG-2 decoding.
    MpegDec,
}

impl Bench {
    /// All 12 benchmarks in the paper's figure order.
    pub fn all() -> [Bench; 12] {
        use Bench::*;
        [
            Addition, Blend, Conv, Dotprod, Scaling, Thresh, Cjpeg, Djpeg, CjpegNp, DjpegNp,
            MpegEnc, MpegDec,
        ]
    }

    /// The image-processing kernels.
    pub fn kernels() -> [Bench; 6] {
        use Bench::*;
        [Addition, Blend, Conv, Dotprod, Scaling, Thresh]
    }

    /// The Figure 3 set (benchmarks with non-trivial memory stall).
    pub fn prefetch_set() -> [Bench; 9] {
        use Bench::*;
        [
            Addition, Blend, Conv, Dotprod, Scaling, Thresh, Cjpeg, Djpeg, MpegDec,
        ]
    }

    /// Figure label.
    pub fn name(self) -> &'static str {
        use Bench::*;
        match self {
            Addition => "addition",
            Blend => "blend",
            Conv => "conv",
            Dotprod => "dotprod",
            Scaling => "scaling",
            Thresh => "thresh",
            Cjpeg => "cjpeg",
            Djpeg => "djpeg",
            CjpegNp => "cjpeg-np",
            DjpegNp => "djpeg-np",
            MpegEnc => "mpeg-enc",
            MpegDec => "mpeg-dec",
        }
    }

    /// Table 1 description.
    pub fn description(self) -> &'static str {
        use Bench::*;
        match self {
            Addition => "addition of two images using the mean of pixel values",
            Blend => "alpha blending of two images with an alpha image",
            Conv => "general 3x3 saturating image convolution",
            Dotprod => "16x16-bit dot product of a linear array",
            Scaling => "linear intensity scaling with saturation",
            Thresh => "double-limit thresholding of an image",
            Cjpeg => "JPEG progressive encoding",
            Djpeg => "JPEG progressive decoding",
            CjpegNp => "JPEG non-progressive (baseline) encoding",
            DjpegNp => "JPEG non-progressive (baseline) decoding",
            MpegEnc => "MPEG-2 encoding of 4 frames (I-B-B-P)",
            MpegDec => "MPEG-2 decoding into YUV components",
        }
    }

    /// Drive this benchmark through `sink` at the given size/variant.
    ///
    /// For the decode benchmarks the input stream is produced by an
    /// *untimed* helper run (the paper likewise excludes input file I/O)
    /// and copied into the measured program's address space.
    pub fn run<S: SimSink>(self, sink: &mut S, size: &WorkloadSize, variant: Variant) {
        let mut p = Program::new(sink);
        self.run_in(&mut p, size, variant);
    }

    /// Like [`Bench::run`] but into an existing program.
    pub fn run_in<S: SimSink>(self, p: &mut Program<S>, size: &WorkloadSize, variant: Variant) {
        let (w, h) = (size.image_w, size.image_h);
        match self {
            Bench::Addition => {
                let a = SimImage::from_image(p, &synth::still(w, h, 3, size.seed));
                let b = SimImage::from_image(p, &synth::still(w, h, 3, size.seed + 1));
                let d = SimImage::alloc(p, w, h, 3);
                pointwise::addition(p, &a, &b, &d, variant);
            }
            Bench::Blend => {
                let a = SimImage::from_image(p, &synth::still(w, h, 3, size.seed));
                let b = SimImage::from_image(p, &synth::still(w, h, 3, size.seed + 1));
                let al = SimImage::from_image(p, &synth::alpha(w, h, 3, size.seed + 2));
                let d = SimImage::alloc(p, w, h, 3);
                blend::blend(p, &a, &b, &al, &d, variant);
            }
            Bench::Conv => {
                let a = SimImage::from_image(p, &synth::still(w, h, 3, size.seed));
                let d = SimImage::alloc(p, w, h, 3);
                conv::conv(p, &a, &d, &conv::SHARPEN_STRONG, variant);
            }
            Bench::Dotprod => {
                let a = reduce::alloc_i16_array(p, size.dotprod_n, size.seed);
                let b = reduce::alloc_i16_array(p, size.dotprod_n, size.seed + 1);
                let _ = reduce::dotprod(p, a, b, size.dotprod_n, variant);
            }
            Bench::Scaling => {
                let a = SimImage::from_image(p, &synth::still(w, h, 3, size.seed));
                let d = SimImage::alloc(p, w, h, 3);
                pointwise::scaling(p, &a, &d, 307, -12, variant);
            }
            Bench::Thresh => {
                let a = SimImage::from_image(p, &synth::still(w, h, 3, size.seed));
                let d = SimImage::alloc(p, w, h, 3);
                thresh::thresh(p, &a, &d, &thresh::ThreshParams::example(), variant);
            }
            Bench::Cjpeg | Bench::CjpegNp => {
                let img = synth::still(w, h, 3, size.seed);
                let params = jpeg::EncodeParams {
                    quality: size.jpeg_quality,
                    progressive: self == Bench::Cjpeg,
                };
                let _ = jpeg::encode(p, &img, params, variant);
            }
            Bench::Djpeg | Bench::DjpegNp => {
                // Untimed encode, then copy the bytes into the measured
                // program (standing in for the benchmark's input file).
                let progressive = self == Bench::Djpeg;
                let (bytes, meta) = {
                    let mut aux = Discard;
                    let mut ap = Program::new(&mut aux);
                    let img = synth::still(w, h, 3, size.seed);
                    let params = jpeg::EncodeParams {
                        quality: size.jpeg_quality,
                        progressive,
                    };
                    let s = jpeg::encode(&mut ap, &img, params, Variant::SCALAR);
                    (ap.mem().bytes(s.addr, s.len).to_vec(), s)
                };
                let addr = p.mem_mut().alloc(bytes.len(), 8);
                p.mem_mut().write_bytes(addr, &bytes);
                let stream = jpeg::JpegStream { addr, ..meta };
                let _ = jpeg::decode(p, &stream, variant);
            }
            Bench::MpegEnc => {
                let frames = synth::video(size.video_w, size.video_h, size.frames, size.seed);
                let gop = default_gop(size.frames);
                let _ = mpeg::encode(p, &frames, &gop, size.mpeg, variant);
            }
            Bench::MpegDec => {
                let (bytes, meta) = {
                    let mut aux = Discard;
                    let mut ap = Program::new(&mut aux);
                    let frames = synth::video(size.video_w, size.video_h, size.frames, size.seed);
                    let gop = default_gop(size.frames);
                    let ev = mpeg::encode(&mut ap, &frames, &gop, size.mpeg, Variant::SCALAR);
                    (ap.mem().bytes(ev.addr, ev.len).to_vec(), ev)
                };
                let addr = p.mem_mut().alloc(bytes.len(), 8);
                p.mem_mut().write_bytes(addr, &bytes);
                let ev = mpeg::EncodedVideo { addr, ..meta };
                let _ = mpeg::decode(p, &ev, variant);
            }
        }
    }
}

impl std::fmt::Display for Bench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An I-B-B-P-like pattern for `n` frames.
pub fn default_gop(n: usize) -> Vec<mpeg::FrameType> {
    let base = mpeg::gop_ibbp();
    (0..n).map(|i| base[i % base.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use visim_cpu::CountingSink;

    #[test]
    fn registry_matches_table_1() {
        assert_eq!(Bench::all().len(), 12);
        assert_eq!(Bench::kernels().len(), 6);
        assert_eq!(Bench::prefetch_set().len(), 9);
        let names: Vec<&str> = Bench::all().iter().map(|b| b.name()).collect();
        assert!(names.contains(&"cjpeg-np"));
        assert!(names.contains(&"mpeg-enc"));
        for b in Bench::all() {
            assert!(!b.description().is_empty());
        }
    }

    #[test]
    fn every_benchmark_runs_functionally() {
        let size = WorkloadSize {
            image_w: 32,
            image_h: 32,
            dotprod_n: 256,
            video_w: 32,
            video_h: 32,
            frames: 2,
            jpeg_quality: 80,
            mpeg: media_mpeg::MpegParams {
                search_range: 2,
                ..Default::default()
            },
            seed: 3,
        };
        for b in Bench::all() {
            for v in [Variant::SCALAR, Variant::VIS] {
                let mut sink = CountingSink::new();
                b.run(&mut sink, &size, v);
                let st = sink.finish();
                assert!(st.retired > 500, "{b:?}/{v:?}: {}", st.retired);
                if v.vis {
                    assert!(st.mix[3] > 0, "{b:?} VIS variant emits VIS ops");
                }
            }
        }
    }

    #[test]
    fn gop_pattern_tiles() {
        let g = default_gop(6);
        use media_mpeg::FrameType::*;
        assert_eq!(g, vec![I, B, B, P, I, B]);
    }
}
