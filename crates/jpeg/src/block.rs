//! Emitted 8×8 block processing: sample load/store, the "islow"
//! fixed-point forward/inverse DCT (mirroring `media_dsp::dct`
//! instruction for instruction), quantization with explicit divides and
//! sign branches, and zig-zag ordering (compile-time constant offsets,
//! as unrolled codec code has).

use media_dsp::{ZIGZAG, ZIGZAG_INV};
use visim_cpu::SimSink;
use visim_trace::{Cond, Program, VVal, Val};

use crate::color::clamp255;
use crate::SimPlane;

const CONST_BITS: i64 = 13;
const PASS1_BITS: i64 = 2;

const FIX: [i64; 12] = [
    2446,  // 0.298631336
    3196,  // 0.390180644
    4433,  // 0.541196100
    6270,  // 0.765366865
    7373,  // 0.899976223
    9633,  // 1.175875602
    12299, // 1.501321110
    15137, // 1.847759065
    16069, // 1.961570560
    16819, // 2.053119869
    20995, // 2.562915447
    25172, // 3.072711026
];

fn fix(i: usize) -> i64 {
    FIX[i]
}

/// Emit `descale(x, n) = (x + (1 << (n-1))) >> n`.
fn descale<S: SimSink>(p: &mut Program<S>, x: &Val, n: i64) -> Val {
    let t = p.addi(x, 1 << (n - 1));
    p.srai(&t, n as u32)
}

/// Load an 8×8 block from `plane` at block coordinates `(bx, by)` and
/// level-shift by −128. Returns row-major sample registers.
pub fn load_block<S: SimSink>(
    p: &mut Program<S>,
    plane: &SimPlane,
    bx: usize,
    by: usize,
) -> Vec<Val> {
    let mut out = Vec::with_capacity(64);
    let mut row = p.li(plane.row(by * 8) as i64 + (bx * 8) as i64);
    for r in 0..8 {
        for c in 0..8i64 {
            let s = p.load_u8(&row, c);
            out.push(p.addi(&s, -128));
        }
        if r != 7 {
            row = p.addi(&row, plane.w as i64);
        }
    }
    out
}

/// Level-shift back by +128, clamp, and store an 8×8 block.
pub fn store_block<S: SimSink>(
    p: &mut Program<S>,
    plane: &SimPlane,
    bx: usize,
    by: usize,
    vals: &[Val],
) {
    assert_eq!(vals.len(), 64);
    let mut row = p.li(plane.row(by * 8) as i64 + (bx * 8) as i64);
    for r in 0..8 {
        for c in 0..8usize {
            let s = p.addi(&vals[r * 8 + c], 128);
            let s = clamp255(p, &s);
            p.store_u8(&row, c as i64, &s);
        }
        if r != 7 {
            row = p.addi(&row, plane.w as i64);
        }
    }
}

/// One emitted 1-D forward DCT pass (the dsp crate's `fdct_1d`).
fn fdct_1d<S: SimSink>(p: &mut Program<S>, d: &[Val; 8], down: i64, up: i64) -> [Val; 8] {
    let t0 = p.add(&d[0], &d[7]);
    let t7 = p.sub(&d[0], &d[7]);
    let t1 = p.add(&d[1], &d[6]);
    let t6 = p.sub(&d[1], &d[6]);
    let t2 = p.add(&d[2], &d[5]);
    let t5 = p.sub(&d[2], &d[5]);
    let t3 = p.add(&d[3], &d[4]);
    let t4 = p.sub(&d[3], &d[4]);

    let t10 = p.add(&t0, &t3);
    let t13 = p.sub(&t0, &t3);
    let t11 = p.add(&t1, &t2);
    let t12 = p.sub(&t1, &t2);

    let s0 = p.add(&t10, &t11);
    let s4 = p.sub(&t10, &t11);
    let (o0, o4) = if up >= 0 {
        (p.shli(&s0, up as u32), p.shli(&s4, up as u32))
    } else {
        (descale(p, &s0, -up), descale(p, &s4, -up))
    };

    let z = p.add(&t12, &t13);
    let z1 = p.muli(&z, fix(2));
    let m = p.muli(&t13, fix(3));
    let s2 = p.add(&z1, &m);
    let o2 = descale(p, &s2, down);
    let m = p.muli(&t12, fix(7));
    let s6 = p.sub(&z1, &m);
    let o6 = descale(p, &s6, down);

    let z1 = p.add(&t4, &t7);
    let z2 = p.add(&t5, &t6);
    let z3 = p.add(&t4, &t6);
    let z4 = p.add(&t5, &t7);
    let zs = p.add(&z3, &z4);
    let z5 = p.muli(&zs, fix(5));

    let m4 = p.muli(&t4, fix(0));
    let m5 = p.muli(&t5, fix(9));
    let m6 = p.muli(&t6, fix(11));
    let m7 = p.muli(&t7, fix(6));
    let z1 = p.muli(&z1, -fix(4));
    let z2 = p.muli(&z2, -fix(10));
    let z3 = p.muli(&z3, -fix(8));
    let z4 = p.muli(&z4, -fix(1));
    let z3 = p.add(&z3, &z5);
    let z4 = p.add(&z4, &z5);

    let s = p.add(&m4, &z1);
    let s = p.add(&s, &z3);
    let o7 = descale(p, &s, down);
    let s = p.add(&m5, &z2);
    let s = p.add(&s, &z4);
    let o5 = descale(p, &s, down);
    let s = p.add(&m6, &z2);
    let s = p.add(&s, &z3);
    let o3 = descale(p, &s, down);
    let s = p.add(&m7, &z1);
    let s = p.add(&s, &z4);
    let o1 = descale(p, &s, down);
    [o0, o1, o2, o3, o4, o5, o6, o7]
}

/// Emitted forward 8×8 DCT; same scaling as [`media_dsp::fdct8x8`].
pub fn fdct<S: SimSink>(p: &mut Program<S>, block: &[Val]) -> Vec<Val> {
    assert_eq!(block.len(), 64);
    let mut tmp: Vec<Val> = block.to_vec();
    for r in 0..8 {
        let d: [Val; 8] = tmp[r * 8..r * 8 + 8].try_into().expect("row of 8");
        let o = fdct_1d(p, &d, CONST_BITS - PASS1_BITS, PASS1_BITS);
        tmp[r * 8..r * 8 + 8].copy_from_slice(&o);
    }
    for c in 0..8 {
        let d: [Val; 8] = std::array::from_fn(|r| tmp[r * 8 + c]);
        let o = fdct_1d(p, &d, CONST_BITS + PASS1_BITS + 3, -(PASS1_BITS + 3));
        for r in 0..8 {
            tmp[r * 8 + c] = o[r];
        }
    }
    tmp
}

/// One emitted 1-D inverse DCT pass.
fn idct_1d<S: SimSink>(p: &mut Program<S>, d: &[Val; 8], down: i64) -> [Val; 8] {
    let z = p.add(&d[2], &d[6]);
    let z1 = p.muli(&z, fix(2));
    let m = p.muli(&d[6], -fix(7));
    let t2 = p.add(&z1, &m);
    let m = p.muli(&d[2], fix(3));
    let t3 = p.add(&z1, &m);

    let s = p.add(&d[0], &d[4]);
    let t0 = p.shli(&s, CONST_BITS as u32);
    let s = p.sub(&d[0], &d[4]);
    let t1 = p.shli(&s, CONST_BITS as u32);

    let t10 = p.add(&t0, &t3);
    let t13 = p.sub(&t0, &t3);
    let t11 = p.add(&t1, &t2);
    let t12 = p.sub(&t1, &t2);

    let z1 = p.add(&d[7], &d[1]);
    let z2 = p.add(&d[5], &d[3]);
    let z3 = p.add(&d[7], &d[3]);
    let z4 = p.add(&d[5], &d[1]);
    let zs = p.add(&z3, &z4);
    let z5 = p.muli(&zs, fix(5));

    let m0 = p.muli(&d[7], fix(0));
    let m1 = p.muli(&d[5], fix(9));
    let m2 = p.muli(&d[3], fix(11));
    let m3 = p.muli(&d[1], fix(6));
    let z1 = p.muli(&z1, -fix(4));
    let z2 = p.muli(&z2, -fix(10));
    let z3 = p.muli(&z3, -fix(8));
    let z4 = p.muli(&z4, -fix(1));
    let z3 = p.add(&z3, &z5);
    let z4 = p.add(&z4, &z5);

    let s = p.add(&m0, &z1);
    let t0f = p.add(&s, &z3);
    let s = p.add(&m1, &z2);
    let t1f = p.add(&s, &z4);
    let s = p.add(&m2, &z2);
    let t2f = p.add(&s, &z3);
    let s = p.add(&m3, &z1);
    let t3f = p.add(&s, &z4);

    let s = p.add(&t10, &t3f);
    let o0 = descale(p, &s, down);
    let s = p.sub(&t10, &t3f);
    let o7 = descale(p, &s, down);
    let s = p.add(&t11, &t2f);
    let o1 = descale(p, &s, down);
    let s = p.sub(&t11, &t2f);
    let o6 = descale(p, &s, down);
    let s = p.add(&t12, &t1f);
    let o2 = descale(p, &s, down);
    let s = p.sub(&t12, &t1f);
    let o5 = descale(p, &s, down);
    let s = p.add(&t13, &t0f);
    let o3 = descale(p, &s, down);
    let s = p.sub(&t13, &t0f);
    let o4 = descale(p, &s, down);
    [o0, o1, o2, o3, o4, o5, o6, o7]
}

/// Emitted inverse 8×8 DCT; same scaling as [`media_dsp::idct8x8`].
pub fn idct<S: SimSink>(p: &mut Program<S>, coef: &[Val]) -> Vec<Val> {
    assert_eq!(coef.len(), 64);
    let mut tmp: Vec<Val> = coef.to_vec();
    for c in 0..8 {
        let d: [Val; 8] = std::array::from_fn(|r| tmp[r * 8 + c]);
        let o = idct_1d(p, &d, CONST_BITS - PASS1_BITS);
        for r in 0..8 {
            tmp[r * 8 + c] = o[r];
        }
    }
    for r in 0..8 {
        let d: [Val; 8] = tmp[r * 8..r * 8 + 8].try_into().expect("row of 8");
        let o = idct_1d(p, &d, CONST_BITS + PASS1_BITS + 3);
        tmp[r * 8..r * 8 + 8].copy_from_slice(&o);
    }
    tmp
}

/// A quantization table in simulated memory (u16 per coefficient, raster
/// order).
#[derive(Debug, Clone, Copy)]
pub struct SimQuant {
    table: u64,
}

impl SimQuant {
    /// Install a (quality-scaled) table.
    pub fn install<S: SimSink>(p: &mut Program<S>, table: &[u16; 64]) -> Self {
        let addr = p.mem_mut().alloc(128, 8);
        for (i, &q) in table.iter().enumerate() {
            p.mem_mut().write_u16(addr + 2 * i as u64, q);
        }
        SimQuant { table: addr }
    }

    /// Emit quantization of raster-order coefficients into zig-zag-order
    /// levels (divide with round-to-nearest, sign handled by a branch —
    /// the non-vectorizable form the paper notes for quantization).
    pub fn quantize<S: SimSink>(&self, p: &mut Program<S>, coef: &[Val]) -> Vec<Val> {
        assert_eq!(coef.len(), 64);
        let tb = p.li(self.table as i64);
        let mut zz = Vec::with_capacity(64);
        for &raster in ZIGZAG.iter() {
            let c = &coef[raster];
            let q = p.load_u16(&tb, 2 * raster as i64);
            let half = p.srai(&q, 1);
            let level = if p.bcond_i(Cond::Ge, c, 0, false) {
                let t = p.add(c, &half);
                p.div(&t, &q)
            } else {
                let z = p.li(0);
                let neg = p.sub(&z, c);
                let t = p.add(&neg, &half);
                let d = p.div(&t, &q);
                p.sub(&z, &d)
            };
            zz.push(level);
        }
        zz
    }

    /// Emit dead-zone quantization (truncate toward zero, the MPEG-2
    /// non-intra rule): small coefficients — and in particular re-coded
    /// quantization noise in residuals — fall to zero.
    pub fn quantize_trunc<S: SimSink>(&self, p: &mut Program<S>, coef: &[Val]) -> Vec<Val> {
        assert_eq!(coef.len(), 64);
        let tb = p.li(self.table as i64);
        let mut zz = Vec::with_capacity(64);
        for &raster in ZIGZAG.iter() {
            let c = &coef[raster];
            let q = p.load_u16(&tb, 2 * raster as i64);
            let level = if p.bcond_i(Cond::Ge, c, 0, false) {
                p.div(c, &q)
            } else {
                let z = p.li(0);
                let neg = p.sub(&z, c);
                let d = p.div(&neg, &q);
                p.sub(&z, &d)
            };
            zz.push(level);
        }
        zz
    }

    /// Emit dequantization of one zig-zag-position level back to a
    /// raster coefficient value; returns `(raster_index, value)`.
    pub fn dequant_one<S: SimSink>(
        &self,
        p: &mut Program<S>,
        k: usize,
        level: &Val,
    ) -> (usize, Val) {
        let raster = ZIGZAG[k];
        let tb = p.li(self.table as i64);
        let q = p.load_u16(&tb, 2 * raster as i64);
        let v = p.mul(level, &q);
        (raster, v)
    }
}

/// Map a raster index to its zig-zag position (compile-time in real
/// codecs; free here).
pub fn zz_of(raster: usize) -> usize {
    ZIGZAG_INV[raster]
}

#[cfg(test)]
mod tests {
    use super::*;
    use media_dsp::quant::LUMA_Q;
    use visim_cpu::CountingSink;

    fn vals<S: SimSink>(p: &mut Program<S>, xs: &[i32]) -> Vec<Val> {
        xs.iter().map(|&x| p.li(x as i64)).collect()
    }

    #[test]
    fn emitted_fdct_matches_host_dct() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let mut block = [0i32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as i32 * 13) % 255) - 128;
        }
        let b = vals(&mut p, &block);
        let got = fdct(&mut p, &b);
        let want = media_dsp::fdct8x8(&block);
        for i in 0..64 {
            assert_eq!(got[i].value(), want[i] as i64, "coef {i}");
        }
    }

    #[test]
    fn emitted_idct_matches_host_idct() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let mut coef = [0i32; 64];
        coef[0] = 480;
        coef[1] = -120;
        coef[8] = 77;
        coef[27] = -33;
        let c = vals(&mut p, &coef);
        let got = idct(&mut p, &c);
        let want = media_dsp::idct8x8(&coef);
        for i in 0..64 {
            assert_eq!(got[i].value(), want[i] as i64, "pixel {i}");
        }
    }

    #[test]
    fn block_load_store_roundtrip() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let plane = SimPlane::alloc(&mut p, 16, 16);
        for i in 0..256u64 {
            p.mem_mut().write_u8(plane.addr + i, (i % 251) as u8);
        }
        let b = load_block(&mut p, &plane, 1, 1);
        let out = SimPlane::alloc(&mut p, 16, 16);
        store_block(&mut p, &out, 1, 1, &b);
        for r in 0..8u64 {
            for c in 0..8u64 {
                let src = p.mem().read_u8(plane.addr + (8 + r) * 16 + 8 + c);
                let dst = p.mem().read_u8(out.addr + (8 + r) * 16 + 8 + c);
                assert_eq!(src, dst);
            }
        }
    }

    #[test]
    fn quantize_matches_host_reference() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let sq = SimQuant::install(&mut p, &LUMA_Q);
        let mut coef = [0i32; 64];
        for (i, v) in coef.iter_mut().enumerate() {
            *v = (i as i32 - 32) * 17;
        }
        let c = vals(&mut p, &coef);
        let zz = sq.quantize(&mut p, &c);
        for (k, level) in zz.iter().enumerate() {
            let raster = media_dsp::ZIGZAG[k];
            let want = media_dsp::quant::quantize(coef[raster], LUMA_Q[raster]);
            assert_eq!(level.value(), want as i64, "zz {k}");
        }
    }

    #[test]
    fn dequant_inverts_scaling() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let sq = SimQuant::install(&mut p, &LUMA_Q);
        let lvl = p.li(-3);
        let (raster, v) = sq.dequant_one(&mut p, 5, &lvl);
        assert_eq!(raster, media_dsp::ZIGZAG[5]);
        assert_eq!(v.value(), -3 * LUMA_Q[raster] as i64);
        assert_eq!(zz_of(raster), 5);
    }

    #[test]
    fn vis_idct_matches_scalar_within_tolerance() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        // A realistic dequantized coefficient block.
        let mut block = [0i32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (((i * 37) % 200) as i32) - 100;
        }
        let f = media_dsp::fdct8x8(&block);
        let coef: Vec<Val> = f.iter().map(|&c| p.li(c as i64)).collect();
        // Scalar reference path.
        let want = media_dsp::idct8x8(&f);
        // VIS path into a plane.
        let plane = SimPlane::alloc(&mut p, 16, 16);
        idct_store_vis(&mut p, &coef, &plane, 1, 1);
        for r in 0..8 {
            for c in 0..8usize {
                let got = p.mem().read_u8(plane.row(8 + r) + 8 + c as u64) as i32;
                let exp = (want[r * 8 + c] + 128).clamp(0, 255);
                assert!(
                    (got - exp).abs() <= 3,
                    "pixel ({r},{c}): vis {got} vs scalar {exp}"
                );
            }
        }
        // The VIS path must actually be packed work.
        let st = sink.finish();
        assert!(st.mix[3] > 200, "VIS ops: {}", st.mix[3]);
    }

    #[test]
    fn vis_idct_dc_only_block() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let zero = p.li(0);
        let mut coef = vec![zero; 64];
        coef[0] = p.li(400); // DC=400 -> pixel 400/8 + 128 = 178
        let plane = SimPlane::alloc(&mut p, 8, 8);
        idct_store_vis(&mut p, &coef, &plane, 0, 0);
        for i in 0..64u64 {
            let v = p.mem().read_u8(plane.addr + i) as i32;
            assert!((v - 178).abs() <= 2, "sample {i}: {v}");
        }
    }

    #[test]
    fn dct_roundtrip_through_emitted_pipeline() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let mut block = [0i32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (((i * 29) % 200) as i32) - 100;
        }
        let b = vals(&mut p, &block);
        let f = fdct(&mut p, &b);
        let back = idct(&mut p, &f);
        for i in 0..64 {
            assert!(
                (back[i].value() - block[i] as i64).abs() <= 2,
                "pixel {i}: {} vs {}",
                back[i].value(),
                block[i]
            );
        }
    }
}

// ---------------------------------------------------------------------
// VIS packed IDCT (the MediaLib-style 16-bit SIMD inverse DCT).
// ---------------------------------------------------------------------

/// The islow constants rounded to Q8 for packed 16-bit multiplies.
const FIXQ8: [i64; 12] = [
    76,  // 0.298631336
    100, // 0.390180644
    139, // 0.541196100
    196, // 0.765366865
    230, // 0.899976223
    301, // 1.175875602
    384, // 1.501321110
    473, // 1.847759065
    502, // 1.961570560
    526, // 2.053119869
    656, // 2.562915447
    787, // 3.072711026
];

/// One packed row-major 8×8 block: 16 vectors, `[lo(row 0), hi(row 0),
/// lo(row 1), ...]` where `lo` holds columns 0-3 and `hi` columns 4-7.
type PackedBlock = Vec<VVal>;

/// Q8 lane multiply by a broadcast constant: the 3-instruction
/// `fmul8sux16 + fmul8ulx16 + fpadd16` emulation.
fn vmulq8c<S: SimSink>(p: &mut Program<S>, a: &VVal, c: &VVal) -> VVal {
    let s = p.vmul8sux16(a, c);
    let u = p.vmul8ulx16(a, c);
    p.vadd16(&s, &u)
}

/// 8×8 16-bit lane transpose via merge sequences (the cost of the real
/// `fpmerge` network, with host-computed lane contents).
fn vtranspose<S: SimSink>(p: &mut Program<S>, v: &[VVal]) -> PackedBlock {
    assert_eq!(v.len(), 16);
    // Host-side lane matrix.
    let mut m = [[0i16; 8]; 8];
    for (r, row) in m.iter_mut().enumerate() {
        let lo = v[2 * r].lanes16();
        let hi = v[2 * r + 1].lanes16();
        row[..4].copy_from_slice(&lo[..4]);
        row[4..].copy_from_slice(&hi[..4]);
    }
    let mut out = Vec::with_capacity(16);
    // `r` walks the columns of `m` (the transpose axis), so there is no
    // row slice to iterate over.
    #[allow(clippy::needless_range_loop)]
    for r in 0..8 {
        for half in 0..2 {
            let mut lanes = [0i16; 4];
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane = m[half * 4 + k][r];
            }
            let bits = visim_isa::vis::pack16(lanes);
            // Each output vector costs two merge-class instructions in
            // the real fpmerge network.
            let srcs = [
                &v[(half * 8) % 16],
                &v[(half * 8 + 2) % 16],
                &v[(half * 8 + 4) % 16],
            ];
            out.push(p.vshuffle_composite(&srcs, 2, bits));
        }
    }
    out
}

/// One packed 1-D islow inverse-DCT pass, lane-wise over eight vectors
/// (natural Q0 scaling: DC-only input reproduces its value).
fn idct_1d_vis<S: SimSink>(p: &mut Program<S>, d: &[&VVal; 8], k: &[VVal; 12]) -> Vec<VVal> {
    let s26 = p.vadd16(d[2], d[6]);
    let z1 = vmulq8c(p, &s26, &k[2]);
    let m6 = vmulq8c(p, d[6], &k[7]);
    let t2 = p.vsub16(&z1, &m6);
    let m2 = vmulq8c(p, d[2], &k[3]);
    let t3 = p.vadd16(&z1, &m2);
    let t0 = p.vadd16(d[0], d[4]);
    let t1 = p.vsub16(d[0], d[4]);
    let t10 = p.vadd16(&t0, &t3);
    let t13 = p.vsub16(&t0, &t3);
    let t11 = p.vadd16(&t1, &t2);
    let t12 = p.vsub16(&t1, &t2);

    let z1s = p.vadd16(d[7], d[1]);
    let z2s = p.vadd16(d[5], d[3]);
    let z3s = p.vadd16(d[7], d[3]);
    let z4s = p.vadd16(d[5], d[1]);
    let z34 = p.vadd16(&z3s, &z4s);
    let z5 = vmulq8c(p, &z34, &k[5]);
    let m0 = vmulq8c(p, d[7], &k[0]);
    let m1 = vmulq8c(p, d[5], &k[9]);
    let m2o = vmulq8c(p, d[3], &k[11]);
    let m3 = vmulq8c(p, d[1], &k[6]);
    let z1m = vmulq8c(p, &z1s, &k[4]);
    let z2m = vmulq8c(p, &z2s, &k[10]);
    let z3m = vmulq8c(p, &z3s, &k[8]);
    let z4m = vmulq8c(p, &z4s, &k[1]);
    let z3f = p.vsub16(&z5, &z3m);
    let z4f = p.vsub16(&z5, &z4m);
    let a = p.vsub16(&m0, &z1m);
    let t0f = p.vadd16(&a, &z3f);
    let a = p.vsub16(&m1, &z2m);
    let t1f = p.vadd16(&a, &z4f);
    let a = p.vsub16(&m2o, &z2m);
    let t2f = p.vadd16(&a, &z3f);
    let a = p.vsub16(&m3, &z1m);
    let t3f = p.vadd16(&a, &z4f);

    vec![
        p.vadd16(&t10, &t3f),
        p.vadd16(&t11, &t2f),
        p.vadd16(&t12, &t1f),
        p.vadd16(&t13, &t0f),
        p.vsub16(&t13, &t0f),
        p.vsub16(&t12, &t1f),
        p.vsub16(&t11, &t2f),
        p.vsub16(&t10, &t3f),
    ]
}

/// Packed (MediaLib-style) inverse DCT context: one reusable scratch
/// block and the twelve hoisted Q8 constant vectors (hoisted per image,
/// as a real codec does).
#[derive(Debug, Clone, Copy)]
pub struct VisIdct {
    scratch: u64,
    k: [VVal; 12],
    bias: VVal,
}

impl VisIdct {
    /// Allocate the scratch block and materialize the constants.
    pub fn new<S: SimSink>(p: &mut Program<S>) -> Self {
        let scratch = p.mem_mut().alloc(128, 8);
        let k: [VVal; 12] =
            std::array::from_fn(|i| p.vli(visim_isa::vis::pack16([FIXQ8[i] as i16; 4])));
        let bias = p.vli(visim_isa::vis::pack16([1024; 4]));
        VisIdct { scratch, k, bias }
    }

    /// Run the packed IDCT for one intra block; see [`idct_store_vis`].
    pub fn run<S: SimSink>(
        &self,
        p: &mut Program<S>,
        coef: &[Val],
        plane: &SimPlane,
        bx: usize,
        by: usize,
    ) {
        idct_store_vis_with(p, self, coef, plane, bx, by)
    }
}

/// One-shot convenience wrapper around [`VisIdct`] (tests and callers
/// that only transform a single block).
pub fn idct_store_vis<S: SimSink>(
    p: &mut Program<S>,
    coef: &[Val],
    plane: &SimPlane,
    bx: usize,
    by: usize,
) {
    let ctx = VisIdct::new(p);
    ctx.run(p, coef, plane, bx, by)
}

/// Packed (MediaLib-style) inverse DCT + level shift + saturating store
/// of an intra block: writes the raster coefficients to the context's
/// scratch block, runs two lane-wise 16-bit islow passes with a merge
/// transpose between, then packs `(v + 1024) / 8` — i.e.
/// `clamp(pixel + 128)` — straight into the plane.
///
/// Precision: Q8 constants round each product to ±0.5, so outputs can
/// differ from the scalar islow path by ±2 — within the paper's
/// "visually imperceptible" criterion (§2.3.2), verified by PSNR tests.
fn idct_store_vis_with<S: SimSink>(
    p: &mut Program<S>,
    ctx: &VisIdct,
    coef: &[Val],
    plane: &SimPlane,
    bx: usize,
    by: usize,
) {
    assert_eq!(coef.len(), 64);
    // Spill the coefficient block (codecs keep it in memory anyway).
    let sb = p.li(ctx.scratch as i64);
    for (kix, c) in coef.iter().enumerate() {
        p.store_u16(&sb, 2 * kix as i64, c);
    }
    // Load as packed rows.
    let mut rows: PackedBlock = Vec::with_capacity(16);
    for r in 0..8i64 {
        rows.push(p.loadv(&sb, r * 16));
        rows.push(p.loadv(&sb, r * 16 + 8));
    }
    let k = ctx.k;

    // Column pass (lanes are columns).
    let lo: Vec<VVal> = (0..8).map(|r| rows[2 * r]).collect();
    let hi: Vec<VVal> = (0..8).map(|r| rows[2 * r + 1]).collect();
    let lo_refs: [&VVal; 8] = std::array::from_fn(|i| &lo[i]);
    let hi_refs: [&VVal; 8] = std::array::from_fn(|i| &hi[i]);
    let c_lo = idct_1d_vis(p, &lo_refs, &k);
    let c_hi = idct_1d_vis(p, &hi_refs, &k);
    let mut inter: PackedBlock = Vec::with_capacity(16);
    for r in 0..8 {
        inter.push(c_lo[r]);
        inter.push(c_hi[r]);
    }
    // Transpose, row pass, transpose back.
    let t = vtranspose(p, &inter);
    let lo: Vec<VVal> = (0..8).map(|r| t[2 * r]).collect();
    let hi: Vec<VVal> = (0..8).map(|r| t[2 * r + 1]).collect();
    let lo_refs: [&VVal; 8] = std::array::from_fn(|i| &lo[i]);
    let hi_refs: [&VVal; 8] = std::array::from_fn(|i| &hi[i]);
    let r_lo = idct_1d_vis(p, &lo_refs, &k);
    let r_hi = idct_1d_vis(p, &hi_refs, &k);
    let mut back: PackedBlock = Vec::with_capacity(16);
    for r in 0..8 {
        back.push(r_lo[r]);
        back.push(r_hi[r]);
    }
    let out = vtranspose(p, &back);

    // Level shift + /8 + saturate + store: (v + 1024) packed at scale 4
    // yields clamp((v + 1024) / 8) = clamp(pixel + 128).
    p.set_gsr_scale(4);
    let bias = ctx.bias;
    for r in 0..8 {
        let lo = p.vadd16(&out[2 * r], &bias);
        let hi = p.vadd16(&out[2 * r + 1], &bias);
        let bytes = p.vpack16_pair(&lo, &hi);
        let row = p.li(plane.row(by * 8 + r) as i64 + (bx * 8) as i64);
        p.storev(&row, 0, &bytes);
    }
}
