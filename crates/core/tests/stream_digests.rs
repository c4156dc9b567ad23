//! Pins the dynamic instruction stream every benchmark emits.
//!
//! Each of the 12 benchmarks runs at [`WorkloadSize::tiny`] in both
//! variants into a sink that folds every field of every `Inst` into a
//! 64-bit FNV-1a digest. A change to a kernel, a codec, the emitter or
//! the untimed input preparation of the decode benchmarks that alters
//! even one instruction changes a digest here, before any timing model
//! sees the stream.

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim_cpu::SimSink;
use visim_isa::Inst;

/// FNV-1a over the little-endian bytes of every `Inst` field, in
/// declaration order, with a presence byte before each optional part.
struct HashSink {
    h: u64,
    n: u64,
}

impl HashSink {
    fn new() -> Self {
        HashSink {
            h: 0xcbf2_9ce4_8422_2325,
            n: 0,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl SimSink for HashSink {
    fn push(&mut self, inst: Inst) {
        self.n += 1;
        self.feed(&[inst.op as u8]);
        self.feed(&inst.pc.to_le_bytes());
        self.feed(&inst.dst.0.to_le_bytes());
        for r in inst.srcs {
            self.feed(&r.0.to_le_bytes());
        }
        match inst.mem {
            Some(m) => {
                self.feed(&[1, m.size, m.kind as u8]);
                self.feed(&m.addr.to_le_bytes());
            }
            None => self.feed(&[0]),
        }
        match inst.branch {
            Some(b) => {
                self.feed(&[1, b.kind as u8, b.taken as u8, b.backward as u8]);
                self.feed(&b.target.to_le_bytes());
            }
            None => self.feed(&[0]),
        }
    }
}

/// `(benchmark, vis, instructions, digest)` at `WorkloadSize::tiny()`.
const PINNED: &[(&str, bool, u64, u64)] = &[
    ("addition", false, 74166, 0x05941352f522baed),
    ("addition", true, 16615, 0x9b171765dbe71ad1),
    ("blend", false, 138727, 0x968649e2331b5abe),
    ("blend", true, 22425, 0x9839b7a8a7ae394f),
    ("conv", false, 312154, 0x8a0f663c41bf5237),
    ("conv", true, 123302, 0x752a2cbfb89ae632),
    ("dotprod", false, 19462, 0x40ee3903f0974189),
    ("dotprod", true, 13329, 0xcc0c480bd92644e4),
    ("scaling", false, 111079, 0x1d7b99b67649aa94),
    ("scaling", true, 13112, 0x00ce6b2222cf570e),
    ("thresh", false, 88841, 0xa4837541f04dac40),
    ("thresh", true, 20036, 0x9f949e129f19a92f),
    ("cjpeg", false, 290476, 0x54e27e66b5fcb3ce),
    ("cjpeg", true, 193595, 0x2186a1f0b64efaf4),
    ("djpeg", false, 298406, 0x3c336ce2bba7f9f2),
    ("djpeg", true, 144007, 0xcabcd44709eab34e),
    ("cjpeg-np", false, 280882, 0x933cb8db6b5a3be4),
    ("cjpeg-np", true, 183996, 0x02e75c6982a431d1),
    ("djpeg-np", false, 280823, 0xe0c46ded0f023133),
    ("djpeg-np", true, 126424, 0x7c2fa346a58ddd20),
    ("mpeg-enc", false, 2069524, 0x8feb0667efe1d6fe),
    ("mpeg-enc", true, 734137, 0x9cd5824ddc76971b),
    ("mpeg-dec", false, 258747, 0xd0679c61d80bd27a),
    ("mpeg-dec", true, 181710, 0x08eeb4a48d4cb1f1),
];

#[test]
fn every_benchmark_emits_its_pinned_stream() {
    let size = WorkloadSize::tiny();
    let mut got = Vec::new();
    for b in Bench::all() {
        for v in [Variant::SCALAR, Variant::VIS] {
            let mut sink = HashSink::new();
            b.run(&mut sink, &size, v);
            got.push((b.name(), v.vis, sink.n, sink.h));
        }
    }
    let table: String = got
        .iter()
        .map(|(b, vis, n, h)| format!("    ({b:?}, {vis}, {n}, {h:#018x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "emitted streams changed; now:\n{table}");
}
