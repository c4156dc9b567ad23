//! Record-once / replay-many trace capture.
//!
//! Functional emission (running a workload through [`Program`] to
//! produce its dynamic instruction stream) and timing simulation
//! (feeding that stream to a pipeline model) are independent phases:
//! the stream depends only on the benchmark, its input geometry, and
//! the code variant — never on the machine configuration consuming it.
//! The experiment runners exploit that by capturing each distinct
//! stream once into a [`Recorded`] buffer and replaying it into every
//! (architecture × cache) configuration that needs it, skipping the
//! per-instruction register-value computation, address arithmetic, and
//! emitter bookkeeping on all but the first run.
//!
//! # Compact form
//!
//! [`Recorded`] stores a stream in about a quarter of the 31 bytes per
//! instruction a verbatim [`Inst`] copy takes, by splitting each
//! instruction into what its static site fixes and what varies per
//! execution:
//!
//! * **Sites.** A workload has a few hundred static instruction sites
//!   at most, and the pc, op, memory size/kind and branch kind never
//!   differ between two executions of one site. Each distinct
//!   `(pc, op, mem size/kind, branch kind)` tuple is stored once in a
//!   site table; an instruction carries a `u16` index into it.
//! * **Registers.** The emitter allocates destination registers in
//!   sequence, and sources are mostly recent producers. A running
//!   register base (the next register the sequence would allocate)
//!   turns a destination into one flag bit and each present source into
//!   a `u16` distance back from the base.
//! * **Meta byte.** Per instruction: the destination mode (none, next
//!   in sequence, or escaped), which of the three source slots are
//!   present, and the branch outcome bits (taken, backward, non-zero
//!   linkage target).
//! * **Side tables.** Memory addresses and non-zero branch targets are
//!   dense `u64` columns consumed in stream order.
//! * **Escapes.** Anything the compact fields cannot express — a site
//!   index past `u16`, a destination out of sequence, a source that is
//!   not a recent earlier register — goes verbatim into one `u32`
//!   escape column, also consumed in stream order. The encoding is
//!   lossless for *any* `Inst` sequence; nothing about the emitter's
//!   habits is assumed, only rewarded.
//!
//! Replay rebuilds and pushes bit-identical `Inst` values in the
//! original order, which is what makes replay-vs-direct byte-identity
//! hold by construction: the pipeline cannot distinguish the two paths.
//!
//! A stream lives only in memory. What does cross a process boundary
//! is a [`ReplayCursor`] inside an architectural checkpoint
//! ([`crate::Checkpoint`], `VCKP` framing), restored against a stream
//! recorded afresh.
//!
//! [`Program`]: crate::Program

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use visim_cpu::SimSink;
use visim_isa::{BranchInfo, BranchKind, Inst, MemKind, MemRef, Op, Reg};

/// The static part of an instruction: everything one emitter call site
/// fixes. `mem` is the reference's `(size, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Site {
    pc: u64,
    op: Op,
    mem: Option<(u8, MemKind)>,
    branch: Option<BranchKind>,
}

/// Multiply-rotate hasher for the site index: the keys are a handful of
/// small fields, looked up once per recorded instruction, and never
/// adversarial.
#[derive(Default)]
struct SiteHasher(u64);

impl Hasher for SiteHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Site-column value meaning "the site index is the next escape".
const SITE_ESC: u16 = u16::MAX;
/// Source-column value meaning "the register is the next escape".
const SRC_ESC: u16 = 0;

/// Meta byte, bits 0–1: the destination mode.
const DST_MASK: u8 = 0b11;
const DST_NONE: u8 = 0;
/// The destination is the register base, which then advances by one.
const DST_NEXT: u8 = 1;
/// The destination is the next escape; the base moves past it.
const DST_ESC: u8 = 2;
/// Meta byte, bits 2–4: source slot `k` is present when bit `2 + k` is set.
const SRC_SHIFT: u32 = 2;
/// Meta byte, bits 5–7: branch outcome (branch sites only).
const TAKEN: u8 = 1 << 5;
const BACKWARD: u8 = 1 << 6;
/// A `targets` entry follows (a zero target is implied otherwise).
const TARGET: u8 = 1 << 7;

/// The most escapes one instruction can take: its site, its
/// destination and three sources.
const MAX_ESC_PER_INST: u64 = 5;

/// A captured dynamic instruction stream in compact columnar form (see
/// the module docs).
///
/// One entry per instruction in `site` and `meta`; one `srcs` entry
/// per present source; the `escapes`, `addrs` and `targets` columns are
/// dense and consumed in stream order during replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorded {
    sites: Vec<Site>,
    /// Reverse of `sites`, for recording.
    site_ix: HashMap<Site, u32, BuildHasherDefault<SiteHasher>>,
    site: Vec<u16>,
    meta: Vec<u8>,
    srcs: Vec<u16>,
    escapes: Vec<u32>,
    addrs: Vec<u64>,
    targets: Vec<u64>,
    /// The register base after the last instruction.
    reg: u32,
}

/// A resumable position in a [`Recorded`] stream: the instruction index
/// plus the column cursors and register base that make mid-stream
/// replay decode the right payloads. Produced by
/// [`Recorded::replay_span`]; serialized inside architectural
/// checkpoints (see [`crate::Checkpoint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCursor {
    pub(crate) inst: u64,
    pub(crate) src: u64,
    pub(crate) esc: u64,
    pub(crate) addr: u64,
    pub(crate) target: u64,
    pub(crate) reg: u32,
}

impl ReplayCursor {
    /// The beginning of the stream.
    pub fn start() -> Self {
        ReplayCursor::default()
    }

    /// Dynamic instruction index this cursor points at.
    pub fn inst(&self) -> u64 {
        self.inst
    }

    /// True when the column cursors are possible for the instruction
    /// index alone: each instruction has at most three sources, five
    /// escapes, one address and one target. [`Recorded::cursor_in_bounds`]
    /// adds the checks against a particular stream.
    pub(crate) fn is_consistent(&self) -> bool {
        self.src <= self.inst.saturating_mul(3)
            && self.esc <= self.inst.saturating_mul(MAX_ESC_PER_INST)
            && self.addr <= self.inst
            && self.target <= self.inst
    }
}

impl Recorded {
    /// An empty stream.
    pub fn new() -> Self {
        Recorded::default()
    }

    /// Number of instructions captured.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Approximate resident size in bytes (used for cache budgeting).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sites.len() * (2 * size_of::<Site>() + size_of::<u32>())
            + self.site.len() * size_of::<u16>()
            + self.meta.len()
            + self.srcs.len() * size_of::<u16>()
            + self.escapes.len() * size_of::<u32>()
            + (self.addrs.len() + self.targets.len()) * size_of::<u64>()
    }

    /// Release the columns' spare capacity (a finished recording never
    /// grows again).
    fn shrink_to_fit(&mut self) {
        self.site.shrink_to_fit();
        self.meta.shrink_to_fit();
        self.srcs.shrink_to_fit();
        self.escapes.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.targets.shrink_to_fit();
    }

    /// The index of `site`, adding it to the table on first sight.
    fn intern(&mut self, site: Site) -> u32 {
        if let Some(&ix) = self.site_ix.get(&site) {
            return ix;
        }
        let ix = u32::try_from(self.sites.len()).expect("fewer than 2^32 static sites");
        self.sites.push(site);
        self.site_ix.insert(site, ix);
        ix
    }

    /// Append one instruction. Every field survives replay exactly.
    pub fn push(&mut self, inst: Inst) {
        let ix = self.intern(Site {
            pc: inst.pc,
            op: inst.op,
            mem: inst.mem.map(|m| (m.size, m.kind)),
            branch: inst.branch.map(|b| b.kind),
        });
        match u16::try_from(ix) {
            Ok(ix) if ix != SITE_ESC => self.site.push(ix),
            _ => {
                self.site.push(SITE_ESC);
                self.escapes.push(ix);
            }
        }
        let base = self.reg;
        let mut meta = match inst.dst {
            Reg::NONE => DST_NONE,
            // `dst` is not `Reg::NONE`, so neither increment overflows.
            Reg(d) if d == base => {
                self.reg = d + 1;
                DST_NEXT
            }
            Reg(d) => {
                self.escapes.push(d);
                self.reg = d + 1;
                DST_ESC
            }
        };
        for (k, &Reg(r)) in inst.srcs.iter().enumerate() {
            if r == Reg::NONE.0 {
                continue;
            }
            meta |= 1 << (SRC_SHIFT + k as u32);
            match src_distance(base, r) {
                Some(d) => self.srcs.push(d),
                None => {
                    self.srcs.push(SRC_ESC);
                    self.escapes.push(r);
                }
            }
        }
        if let Some(m) = inst.mem {
            self.addrs.push(m.addr);
        }
        if let Some(b) = inst.branch {
            meta |= if b.taken { TAKEN } else { 0 } | if b.backward { BACKWARD } else { 0 };
            if b.target != 0 {
                meta |= TARGET;
                self.targets.push(b.target);
            }
        }
        self.meta.push(meta);
    }

    /// Decode instruction `i`, advancing `pos` past every column entry
    /// it consumed.
    #[inline(always)]
    fn inst_at(&self, i: usize, pos: &mut ReplayCursor) -> Inst {
        let meta = self.meta[i];
        let site = match self.site[i] {
            SITE_ESC => take(&self.escapes, &mut pos.esc) as usize,
            ix => ix as usize,
        };
        let site = self.sites[site];
        let base = pos.reg;
        let dst = match meta & DST_MASK {
            DST_NONE => Reg::NONE,
            DST_NEXT => Reg(base),
            _ => Reg(take(&self.escapes, &mut pos.esc)),
        };
        if dst != Reg::NONE {
            pos.reg = dst.0.wrapping_add(1);
        }
        let mut srcs = [Reg::NONE; 3];
        for (k, slot) in srcs.iter_mut().enumerate() {
            if meta & (1 << (SRC_SHIFT + k as u32)) != 0 {
                *slot = Reg(match take(&self.srcs, &mut pos.src) {
                    SRC_ESC => take(&self.escapes, &mut pos.esc),
                    d => base.wrapping_sub(d as u32),
                });
            }
        }
        Inst {
            op: site.op,
            pc: site.pc,
            dst,
            srcs,
            mem: site.mem.map(|(size, kind)| MemRef {
                addr: take(&self.addrs, &mut pos.addr),
                size,
                kind,
            }),
            branch: site.branch.map(|kind| BranchInfo {
                kind,
                taken: meta & TAKEN != 0,
                backward: meta & BACKWARD != 0,
                target: if meta & TARGET != 0 {
                    take(&self.targets, &mut pos.target)
                } else {
                    0
                },
            }),
        }
    }

    /// Feed the captured stream to `sink`, in order, as the exact
    /// `Inst` values originally pushed.
    pub fn replay<S: SimSink>(&self, sink: &mut S) {
        self.replay_span(ReplayCursor::start(), u64::MAX, sink);
    }

    /// Replay up to `count` instructions starting at `cursor`, returning
    /// the cursor one past the span (clamped to the end of the stream).
    /// `Recorded::replay` equals one `replay_span` from
    /// [`ReplayCursor::start`] over the whole stream; chained spans
    /// reproduce it instruction for instruction, which is what lets a
    /// sampled run carve the stream into independently replayable
    /// windows.
    pub fn replay_span<S: SimSink>(
        &self,
        cursor: ReplayCursor,
        count: u64,
        sink: &mut S,
    ) -> ReplayCursor {
        let start = (cursor.inst as usize).min(self.len());
        let end = (cursor.inst.saturating_add(count) as usize).min(self.len());
        let mut pos = cursor;
        for i in start..end {
            sink.push(self.inst_at(i, &mut pos));
        }
        pos.inst = end as u64;
        pos
    }

    /// True when `cursor` is a structurally possible position in this
    /// stream: every index within its column, and no column cursor
    /// ahead of what the instructions before it could have consumed. A
    /// checkpoint restored from disk is validated with this before any
    /// replay uses it.
    pub fn cursor_in_bounds(&self, cursor: ReplayCursor) -> bool {
        cursor.is_consistent()
            && cursor.inst <= self.len() as u64
            && cursor.src <= self.srcs.len() as u64
            && cursor.esc <= self.escapes.len() as u64
            && cursor.addr <= self.addrs.len() as u64
            && cursor.target <= self.targets.len() as u64
    }
}

/// The entry of `column` at `*ix`, advancing `*ix` past it.
#[inline(always)]
fn take<T: Copy>(column: &[T], ix: &mut u64) -> T {
    let v = column[*ix as usize];
    *ix += 1;
    v
}

/// The `u16` distance that names source `r` from register base `base`,
/// when `r` is one of the 65,535 registers allocated just before it.
fn src_distance(base: u32, r: u32) -> Option<u16> {
    if r < base {
        u16::try_from(base - r).ok()
    } else {
        None
    }
}

/// A byte-budgeted recording sink.
///
/// Feed a workload into it exactly as into a pipeline; [`Recorder::finish`]
/// yields the captured stream. A stream whose resident size exceeds the
/// budget *poisons* the recorder — the buffer is dropped immediately
/// (so a too-big capture never holds the memory) and `finish` returns
/// `None`, letting the caller fall back to direct emission.
#[derive(Debug)]
pub struct Recorder {
    buf: Recorded,
    budget: usize,
    poisoned: bool,
}

impl Recorder {
    /// A recorder that gives up past `budget_bytes` of resident stream.
    ///
    /// Its columns grow to many MB and are freed when the stream is
    /// released, so it keeps such blocks out of the brk heap
    /// ([`visim_util::heap`]), where freed stream memory could stay
    /// resident.
    pub fn new(budget_bytes: usize) -> Self {
        visim_util::heap::keep_large_blocks_mapped();
        Recorder {
            buf: Recorded::new(),
            budget: budget_bytes,
            poisoned: false,
        }
    }

    /// True once the budget was exceeded and the capture abandoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The captured stream, or `None` when the capture was poisoned.
    pub fn finish(mut self) -> Option<Recorded> {
        self.buf.shrink_to_fit();
        (!self.poisoned).then_some(self.buf)
    }
}

impl SimSink for Recorder {
    fn push(&mut self, inst: Inst) {
        if self.poisoned {
            return;
        }
        self.buf.push(inst);
        if self.buf.approx_bytes() > self.budget {
            self.poisoned = true;
            self.buf = Recorded::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that stores every pushed instruction.
    #[derive(Default)]
    struct Collect(Vec<Inst>);

    impl SimSink for Collect {
        fn push(&mut self, inst: Inst) {
            self.0.push(inst);
        }
    }

    fn sample_stream() -> Vec<Inst> {
        vec![
            Inst::compute(Op::IntAlu, 10, Reg(1), [Reg::NONE; 3]),
            Inst::memory(
                Op::Load,
                11,
                Reg(2),
                [Reg(1), Reg::NONE, Reg::NONE],
                MemRef {
                    addr: 0x1000,
                    size: 8,
                    kind: MemKind::Load,
                },
            ),
            Inst::control(
                Op::Branch,
                12,
                [Reg(2), Reg::NONE, Reg::NONE],
                BranchInfo::cond(true, true),
            ),
            Inst::memory(
                Op::Store,
                13,
                Reg::NONE,
                [Reg(1), Reg(2), Reg::NONE],
                MemRef {
                    addr: 0xffff_ffff_0008,
                    size: 64,
                    kind: MemKind::BlockStore,
                },
            ),
            Inst::control(
                Op::Ret,
                14,
                [Reg::NONE; 3],
                BranchInfo::linkage(BranchKind::Ret, 0xdead),
            ),
            Inst::compute(Op::VisPdist, 15, Reg(3), [Reg(1), Reg(2), Reg(3)]),
        ]
    }

    #[test]
    fn replay_reproduces_the_pushed_stream_exactly() {
        let stream = sample_stream();
        let mut rec = Recorded::new();
        for &i in &stream {
            rec.push(i);
        }
        assert_eq!(rec.len(), stream.len());
        let mut out = Collect::default();
        rec.replay(&mut out);
        assert_eq!(out.0, stream);
    }

    #[test]
    fn chained_spans_equal_whole_stream_replay() {
        let stream = sample_stream();
        let mut rec = Recorded::new();
        for &i in &stream {
            rec.push(i);
        }
        let mut whole = Collect::default();
        rec.replay(&mut whole);
        // Spans of uneven sizes, chained through the returned cursors.
        for sizes in [[1u64, 2, 100], [2, 2, 2], [6, 1, 1]] {
            let mut out = Collect::default();
            let mut cur = ReplayCursor::start();
            for n in sizes {
                assert!(rec.cursor_in_bounds(cur));
                cur = rec.replay_span(cur, n, &mut out);
            }
            cur = rec.replay_span(cur, u64::MAX, &mut out);
            assert_eq!(cur.inst(), rec.len() as u64);
            assert_eq!(out.0, whole.0, "spans {sizes:?}");
            // Replaying past the end is a no-op.
            let end = rec.replay_span(cur, 5, &mut out);
            assert_eq!(end, cur);
            assert_eq!(out.0.len(), whole.0.len());
        }
        // A column cursor ahead of what the instructions before it
        // could consume is structurally impossible.
        assert!(!rec.cursor_in_bounds(ReplayCursor {
            inst: 1,
            addr: 2,
            ..ReplayCursor::start()
        }));
        assert!(!rec.cursor_in_bounds(ReplayCursor {
            inst: 1,
            src: 4,
            ..ReplayCursor::start()
        }));
        assert!(!rec.cursor_in_bounds(ReplayCursor {
            inst: u64::MAX,
            ..ReplayCursor::start()
        }));
    }

    #[test]
    fn recorder_poisons_past_its_budget_and_drops_the_buffer() {
        let mut r = Recorder::new(200);
        for i in 0..100 {
            r.push(Inst::compute(Op::IntAlu, i, Reg(i as u32), [Reg::NONE; 3]));
        }
        assert!(r.is_poisoned());
        assert!(r.finish().is_none());

        let mut ok = Recorder::new(1 << 20);
        ok.push(Inst::compute(Op::IntAlu, 1, Reg(1), [Reg::NONE; 3]));
        assert!(!ok.is_poisoned());
        assert_eq!(ok.finish().expect("under budget").len(), 1);
    }

    #[test]
    fn empty_stream_replays() {
        let rec = Recorded::new();
        assert!(rec.is_empty());
        let mut out = Collect::default();
        rec.replay(&mut out);
        assert!(out.0.is_empty());
    }
}
