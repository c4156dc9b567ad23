//! The instruction-emitting program builder.

use std::panic::Location;

use visim_cpu::SimSink;
use visim_isa::vis::{self, Gsr};
use visim_isa::{BranchInfo, BranchKind, Inst, MemKind, MemRef, Op, Reg};

use crate::memimg::MemImage;
use crate::value::{VVal, Val};

/// Comparison conditions for [`Program::bcond`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `a < b` (signed).
    Lt,
    /// `a <= b` (signed).
    Le,
    /// `a > b` (signed).
    Gt,
    /// `a >= b` (signed).
    Ge,
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
}

impl Cond {
    fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
            Cond::Eq => a == b,
            Cond::Ne => a != b,
        }
    }
}

/// Derive a stable static-instruction identity from a Rust call site.
fn site_pc(loc: &'static Location<'static>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in loc.file().as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ loc.line() as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h = (h ^ loc.column() as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h
}

macro_rules! caller_pc {
    () => {
        site_pc(Location::caller())
    };
}

/// The emitter: builds a dynamic instruction stream while computing on a
/// simulated address space.
///
/// Each public method emits exactly the instructions a SPARC-like
/// compiler would produce for the operation (immediates fold into
/// instructions; address arithmetic folds into the memory operation's
/// address-generation stage). See the crate documentation for an
/// example.
#[derive(Debug)]
pub struct Program<'s, S: SimSink> {
    sink: &'s mut S,
    mem: MemImage,
    next_reg: u32,
    gsr: Gsr,
    gsr_reg: Reg,
    call_stack: Vec<u64>,
    emitted: u64,
}

impl<'s, S: SimSink> Program<'s, S> {
    /// Build a program feeding `sink`.
    pub fn new(sink: &'s mut S) -> Self {
        Program {
            sink,
            mem: MemImage::new(),
            next_reg: 1,
            gsr: Gsr::default(),
            gsr_reg: Reg::NONE,
            call_stack: Vec::new(),
            emitted: 0,
        }
    }

    /// The simulated address space (read-only).
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    /// The simulated address space (for allocation and host-side
    /// initialization, which emit no instructions).
    pub fn mem_mut(&mut self) -> &mut MemImage {
        &mut self.mem
    }

    /// Number of dynamic instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, inst: Inst) {
        self.emitted += 1;
        self.sink.push(inst);
    }

    fn compute(&mut self, op: Op, pc: u64, srcs: [Reg; 3], v: i64) -> Val {
        let dst = self.fresh();
        self.emit(Inst::compute(op, pc, dst, srcs));
        Val::new(dst, v)
    }

    fn compute_v(&mut self, op: Op, pc: u64, srcs: [Reg; 3], v: u64) -> VVal {
        let dst = self.fresh();
        self.emit(Inst::compute(op, pc, dst, srcs));
        VVal::new(dst, v)
    }

    // -----------------------------------------------------------------
    // Scalar integer operations.
    // -----------------------------------------------------------------

    /// Materialize a constant (one ALU instruction).
    #[track_caller]
    pub fn li(&mut self, v: i64) -> Val {
        let pc = caller_pc!();
        self.compute(Op::IntAlu, pc, [Reg::NONE; 3], v)
    }

    /// Register-to-register move.
    #[track_caller]
    pub fn mv(&mut self, a: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(Op::IntAlu, pc, [a.reg, Reg::NONE, Reg::NONE], a.v)
    }

    /// `a + b`.
    #[track_caller]
    pub fn add(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntAlu,
            pc,
            [a.reg, b.reg, Reg::NONE],
            a.v.wrapping_add(b.v),
        )
    }

    /// `a + imm` (immediate folds into the instruction).
    #[track_caller]
    pub fn addi(&mut self, a: &Val, imm: i64) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntAlu,
            pc,
            [a.reg, Reg::NONE, Reg::NONE],
            a.v.wrapping_add(imm),
        )
    }

    /// `a - b`.
    #[track_caller]
    pub fn sub(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntAlu,
            pc,
            [a.reg, b.reg, Reg::NONE],
            a.v.wrapping_sub(b.v),
        )
    }

    /// `a * b` (integer multiply, 7 cycles).
    #[track_caller]
    pub fn mul(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            a.v.wrapping_mul(b.v),
        )
    }

    /// `a * imm`.
    #[track_caller]
    pub fn muli(&mut self, a: &Val, imm: i64) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntMul,
            pc,
            [a.reg, Reg::NONE, Reg::NONE],
            a.v.wrapping_mul(imm),
        )
    }

    /// `a / b` (integer divide, 12 cycles).
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[track_caller]
    pub fn div(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(Op::IntDiv, pc, [a.reg, b.reg, Reg::NONE], a.v / b.v)
    }

    /// `a & b`.
    #[track_caller]
    pub fn and(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(Op::IntAlu, pc, [a.reg, b.reg, Reg::NONE], a.v & b.v)
    }

    /// `a & imm`.
    #[track_caller]
    pub fn andi(&mut self, a: &Val, imm: i64) -> Val {
        let pc = caller_pc!();
        self.compute(Op::IntAlu, pc, [a.reg, Reg::NONE, Reg::NONE], a.v & imm)
    }

    /// `a | b`.
    #[track_caller]
    pub fn or(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(Op::IntAlu, pc, [a.reg, b.reg, Reg::NONE], a.v | b.v)
    }

    /// `a ^ b`.
    #[track_caller]
    pub fn xor(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(Op::IntAlu, pc, [a.reg, b.reg, Reg::NONE], a.v ^ b.v)
    }

    /// `a << imm`.
    #[track_caller]
    pub fn shli(&mut self, a: &Val, imm: u32) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntAlu,
            pc,
            [a.reg, Reg::NONE, Reg::NONE],
            a.v.wrapping_shl(imm),
        )
    }

    /// Logical `a >> imm` (on the low 64 bits).
    #[track_caller]
    pub fn shri(&mut self, a: &Val, imm: u32) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntAlu,
            pc,
            [a.reg, Reg::NONE, Reg::NONE],
            ((a.v as u64).wrapping_shr(imm)) as i64,
        )
    }

    /// `a << b` (variable shift).
    #[track_caller]
    pub fn shl(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        let v = a.v.wrapping_shl(b.v as u32);
        self.compute(Op::IntAlu, pc, [a.reg, b.reg, Reg::NONE], v)
    }

    /// Logical `a >> b` (variable shift).
    #[track_caller]
    pub fn shr(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        let v = ((a.v as u64).wrapping_shr(b.v as u32)) as i64;
        self.compute(Op::IntAlu, pc, [a.reg, b.reg, Reg::NONE], v)
    }

    /// Arithmetic `a >> imm`.
    #[track_caller]
    pub fn srai(&mut self, a: &Val, imm: u32) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::IntAlu,
            pc,
            [a.reg, Reg::NONE, Reg::NONE],
            a.v.wrapping_shr(imm),
        )
    }

    /// Conditional move: returns `t` if `c` is non-zero else `f`
    /// (SPARC V9 `movcc`; one instruction, no branch).
    #[track_caller]
    pub fn select(&mut self, c: &Val, t: &Val, f: &Val) -> Val {
        let pc = caller_pc!();
        let v = if c.v != 0 { t.v } else { f.v };
        self.compute(Op::IntAlu, pc, [c.reg, t.reg, f.reg], v)
    }

    // -----------------------------------------------------------------
    // Scalar floating point (f64 carried as bit patterns).
    // -----------------------------------------------------------------

    /// Materialize an `f64` constant.
    #[track_caller]
    pub fn lif(&mut self, v: f64) -> Val {
        let pc = caller_pc!();
        self.compute(Op::FpMove, pc, [Reg::NONE; 3], v.to_bits() as i64)
    }

    /// Floating multiply.
    #[track_caller]
    pub fn fmul(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        let v = (a.as_f64() * b.as_f64()).to_bits() as i64;
        self.compute(Op::FpOp, pc, [a.reg, b.reg, Reg::NONE], v)
    }

    /// Floating divide (12 cycles, non-pipelined).
    #[track_caller]
    pub fn fdiv(&mut self, a: &Val, b: &Val) -> Val {
        let pc = caller_pc!();
        let v = (a.as_f64() / b.as_f64()).to_bits() as i64;
        self.compute(Op::FpDiv, pc, [a.reg, b.reg, Reg::NONE], v)
    }

    /// Convert integer to floating point.
    #[track_caller]
    pub fn i2f(&mut self, a: &Val) -> Val {
        let pc = caller_pc!();
        let v = (a.v as f64).to_bits() as i64;
        self.compute(Op::FpConv, pc, [a.reg, Reg::NONE, Reg::NONE], v)
    }

    /// Convert floating point to integer (truncating).
    #[track_caller]
    pub fn f2i(&mut self, a: &Val) -> Val {
        let pc = caller_pc!();
        self.compute(
            Op::FpConv,
            pc,
            [a.reg, Reg::NONE, Reg::NONE],
            a.as_f64() as i64,
        )
    }

    // -----------------------------------------------------------------
    // Control transfer.
    // -----------------------------------------------------------------

    /// Compare-and-branch (two instructions: `cmp` + `bcc`); returns the
    /// condition so host control flow can mirror the branch.
    #[track_caller]
    pub fn bcond(&mut self, c: Cond, a: &Val, b: &Val, backward: bool) -> bool {
        let pc = caller_pc!();
        let cc = self.compute(Op::IntAlu, pc, [a.reg, b.reg, Reg::NONE], 0);
        let taken = c.eval(a.v, b.v);
        self.emit(Inst::control(
            Op::Branch,
            pc ^ 1,
            [cc.reg, Reg::NONE, Reg::NONE],
            BranchInfo::cond(taken, backward),
        ));
        taken
    }

    /// Compare-and-branch against an immediate.
    #[track_caller]
    pub fn bcond_i(&mut self, c: Cond, a: &Val, imm: i64, backward: bool) -> bool {
        let pc = caller_pc!();
        let cc = self.compute(Op::IntAlu, pc, [a.reg, Reg::NONE, Reg::NONE], 0);
        let taken = c.eval(a.v, imm);
        self.emit(Inst::control(
            Op::Branch,
            pc ^ 1,
            [cc.reg, Reg::NONE, Reg::NONE],
            BranchInfo::cond(taken, backward),
        ));
        taken
    }

    /// Unconditional jump.
    #[track_caller]
    pub fn jump(&mut self) {
        let pc = caller_pc!();
        self.emit(Inst::control(
            Op::Jump,
            pc,
            [Reg::NONE; 3],
            BranchInfo {
                kind: BranchKind::Jump,
                taken: true,
                backward: false,
                target: 0,
            },
        ));
    }

    /// Procedure call (pushes the return-address stack).
    #[track_caller]
    pub fn call(&mut self) {
        let pc = caller_pc!();
        self.call_stack.push(pc);
        self.emit(Inst::control(
            Op::Call,
            pc,
            [Reg::NONE; 3],
            BranchInfo::linkage(BranchKind::Call, pc),
        ));
    }

    /// Procedure return (pops the return-address stack).
    ///
    /// # Panics
    ///
    /// Panics when there is no matching [`Program::call`].
    #[track_caller]
    pub fn ret(&mut self) {
        let target = self.call_stack.pop().expect("ret without call");
        let pc = caller_pc!();
        self.emit(Inst::control(
            Op::Ret,
            pc,
            [Reg::NONE; 3],
            BranchInfo::linkage(BranchKind::Ret, target),
        ));
    }

    /// Run `f` bracketed by a call/return pair.
    #[track_caller]
    pub fn subroutine<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.call();
        let r = f(self);
        self.ret();
        r
    }

    /// A counted loop: `body` runs for `i` in `start, start+step, ...`
    /// while `i < end`, with the loop-overhead instructions (index
    /// update, compare, backward branch) emitted per iteration exactly
    /// as compiled code would.
    #[track_caller]
    pub fn loop_range(
        &mut self,
        start: i64,
        end: i64,
        step: i64,
        mut body: impl FnMut(&mut Self, &Val),
    ) {
        assert!(step > 0, "loop_range requires a positive step");
        let pc = caller_pc!();
        let mut i = self.compute(Op::IntAlu, pc, [Reg::NONE; 3], start);
        // Top guard (run-before test), as a compiler emits for a loop
        // with an unknown trip count.
        let guard = self.compute(Op::IntAlu, pc ^ 2, [i.reg, Reg::NONE, Reg::NONE], 0);
        self.emit(Inst::control(
            Op::Branch,
            pc ^ 3,
            [guard.reg, Reg::NONE, Reg::NONE],
            BranchInfo::cond(start >= end, false),
        ));
        while i.v < end {
            body(self, &i);
            i = self.compute(
                Op::IntAlu,
                pc ^ 4,
                [i.reg, Reg::NONE, Reg::NONE],
                i.v + step,
            );
            let cc = self.compute(Op::IntAlu, pc ^ 5, [i.reg, Reg::NONE, Reg::NONE], 0);
            self.emit(Inst::control(
                Op::Branch,
                pc ^ 6,
                [cc.reg, Reg::NONE, Reg::NONE],
                BranchInfo::cond(i.v < end, true),
            ));
        }
    }

    /// A pointer-chasing loop: `body` receives the running pointer,
    /// which advances by `step` bytes per iteration until it reaches
    /// `end` (an address known to the host). The emitted overhead per
    /// iteration is one add, one compare and one backward branch — the
    /// code a compiler generates for a strength-reduced array loop.
    #[track_caller]
    pub fn loop_ptr(
        &mut self,
        start: &Val,
        end: i64,
        step: i64,
        mut body: impl FnMut(&mut Self, &Val),
    ) {
        assert!(step > 0, "loop_ptr requires a positive step");
        let pc = caller_pc!();
        // Top guard for the zero-trip case.
        let guard = self.compute(Op::IntAlu, pc ^ 2, [start.reg, Reg::NONE, Reg::NONE], 0);
        self.emit(Inst::control(
            Op::Branch,
            pc ^ 3,
            [guard.reg, Reg::NONE, Reg::NONE],
            BranchInfo::cond(start.v >= end, false),
        ));
        let mut ptr = *start;
        while ptr.v < end {
            body(self, &ptr);
            ptr = self.compute(
                Op::IntAlu,
                pc ^ 4,
                [ptr.reg, Reg::NONE, Reg::NONE],
                ptr.v + step,
            );
            let cc = self.compute(Op::IntAlu, pc ^ 5, [ptr.reg, Reg::NONE, Reg::NONE], 0);
            self.emit(Inst::control(
                Op::Branch,
                pc ^ 6,
                [cc.reg, Reg::NONE, Reg::NONE],
                BranchInfo::cond(ptr.v < end, true),
            ));
        }
    }

    // -----------------------------------------------------------------
    // Memory operations.
    // -----------------------------------------------------------------

    // Internal helper shared by every load shape; the arguments mirror
    // the fields of the emitted instruction one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn ld(
        &mut self,
        pc: u64,
        op: Op,
        base: &Val,
        idx: Reg,
        addr: u64,
        size: u8,
        v: i64,
        kind: MemKind,
    ) -> Val {
        let dst = self.fresh();
        self.emit(Inst::memory(
            op,
            pc,
            dst,
            [base.reg, idx, Reg::NONE],
            MemRef { addr, size, kind },
        ));
        Val::new(dst, v)
    }

    /// Load an unsigned byte at `base + off`.
    #[track_caller]
    pub fn load_u8(&mut self, base: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        let v = self.mem.read_u8(addr) as i64;
        self.ld(pc, Op::Load, base, Reg::NONE, addr, 1, v, MemKind::Load)
    }

    /// Load an unsigned byte at `base + idx + off`.
    #[track_caller]
    pub fn load_u8_idx(&mut self, base: &Val, idx: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        let v = self.mem.read_u8(addr) as i64;
        self.ld(pc, Op::Load, base, idx.reg, addr, 1, v, MemKind::Load)
    }

    /// Load a signed 16-bit value at `base + off`.
    #[track_caller]
    pub fn load_i16(&mut self, base: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        let v = self.mem.read_u16(addr) as i16 as i64;
        self.ld(pc, Op::Load, base, Reg::NONE, addr, 2, v, MemKind::Load)
    }

    /// Load an unsigned 16-bit value at `base + off`.
    #[track_caller]
    pub fn load_u16(&mut self, base: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        let v = self.mem.read_u16(addr) as i64;
        self.ld(pc, Op::Load, base, Reg::NONE, addr, 2, v, MemKind::Load)
    }

    /// Load an unsigned 16-bit value at `base + idx + off`.
    #[track_caller]
    pub fn load_u16_idx(&mut self, base: &Val, idx: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        let v = self.mem.read_u16(addr) as i64;
        self.ld(pc, Op::Load, base, idx.reg, addr, 2, v, MemKind::Load)
    }

    /// Load a signed 16-bit value at `base + idx + off`.
    #[track_caller]
    pub fn load_i16_idx(&mut self, base: &Val, idx: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        let v = self.mem.read_u16(addr) as i16 as i64;
        self.ld(pc, Op::Load, base, idx.reg, addr, 2, v, MemKind::Load)
    }

    /// Load a signed 32-bit value at `base + off`.
    #[track_caller]
    pub fn load_i32(&mut self, base: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        let v = self.mem.read_u32(addr) as i32 as i64;
        self.ld(pc, Op::Load, base, Reg::NONE, addr, 4, v, MemKind::Load)
    }

    /// Load a signed 32-bit value at `base + idx + off`.
    #[track_caller]
    pub fn load_i32_idx(&mut self, base: &Val, idx: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        let v = self.mem.read_u32(addr) as i32 as i64;
        self.ld(pc, Op::Load, base, idx.reg, addr, 4, v, MemKind::Load)
    }

    /// Load a 64-bit value at `base + off`.
    #[track_caller]
    pub fn load_u64(&mut self, base: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        let v = self.mem.read_u64(addr) as i64;
        self.ld(pc, Op::Load, base, Reg::NONE, addr, 8, v, MemKind::Load)
    }

    /// Store the low byte of `v` at `base + off`.
    #[track_caller]
    pub fn store_u8(&mut self, base: &Val, off: i64, v: &Val) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        self.mem.write_u8(addr, v.v as u8);
        self.st(pc, base, Reg::NONE, v.reg, addr, 1);
    }

    /// Store the low byte of `v` at `base + idx + off`.
    #[track_caller]
    pub fn store_u8_idx(&mut self, base: &Val, idx: &Val, off: i64, v: &Val) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        self.mem.write_u8(addr, v.v as u8);
        self.st(pc, base, idx.reg, v.reg, addr, 1);
    }

    /// Store the low 16 bits of `v` at `base + off`.
    #[track_caller]
    pub fn store_u16(&mut self, base: &Val, off: i64, v: &Val) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        self.mem.write_u16(addr, v.v as u16);
        self.st(pc, base, Reg::NONE, v.reg, addr, 2);
    }

    /// Store the low 32 bits of `v` at `base + off`.
    #[track_caller]
    pub fn store_u32(&mut self, base: &Val, off: i64, v: &Val) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        self.mem.write_u32(addr, v.v as u32);
        self.st(pc, base, Reg::NONE, v.reg, addr, 4);
    }

    /// Store the low 32 bits of `v` at `base + idx + off`.
    #[track_caller]
    pub fn store_u32_idx(&mut self, base: &Val, idx: &Val, off: i64, v: &Val) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        self.mem.write_u32(addr, v.v as u32);
        self.st(pc, base, idx.reg, v.reg, addr, 4);
    }

    /// Store `v` (64 bits) at `base + off`.
    #[track_caller]
    pub fn store_u64(&mut self, base: &Val, off: i64, v: &Val) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        self.mem.write_u64(addr, v.v as u64);
        self.st(pc, base, Reg::NONE, v.reg, addr, 8);
    }

    fn st(&mut self, pc: u64, base: &Val, idx: Reg, data: Reg, addr: u64, size: u8) {
        self.emit(Inst::memory(
            Op::Store,
            pc,
            Reg::NONE,
            [base.reg, idx, data],
            MemRef {
                addr,
                size,
                kind: MemKind::Store,
            },
        ));
    }

    /// Non-binding software prefetch of the line at `base + off`.
    #[track_caller]
    pub fn prefetch(&mut self, base: &Val, off: i64) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        self.emit(Inst::memory(
            Op::Prefetch,
            pc,
            Reg::NONE,
            [base.reg, Reg::NONE, Reg::NONE],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::Prefetch,
            },
        ));
    }

    /// Non-binding software prefetch of the line at `base + idx + off`.
    #[track_caller]
    pub fn prefetch_idx(&mut self, base: &Val, idx: &Val, off: i64) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        self.emit(Inst::memory(
            Op::Prefetch,
            pc,
            Reg::NONE,
            [base.reg, idx.reg, Reg::NONE],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::Prefetch,
            },
        ));
    }

    // -----------------------------------------------------------------
    // VIS memory operations.
    // -----------------------------------------------------------------

    /// Load a packed 8-byte VIS register at `base + off` (8-aligned).
    #[track_caller]
    pub fn loadv(&mut self, base: &Val, off: i64) -> VVal {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        let v = self.mem.read_u64(addr);
        let dst = self.fresh();
        self.emit(Inst::memory(
            Op::Load,
            pc,
            dst,
            [base.reg, Reg::NONE, Reg::NONE],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::Load,
            },
        ));
        VVal::new(dst, v)
    }

    /// Load a packed 8-byte VIS register at `base + idx + off`.
    #[track_caller]
    pub fn loadv_idx(&mut self, base: &Val, idx: &Val, off: i64) -> VVal {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        let v = self.mem.read_u64(addr);
        let dst = self.fresh();
        self.emit(Inst::memory(
            Op::Load,
            pc,
            dst,
            [base.reg, idx.reg, Reg::NONE],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::Load,
            },
        ));
        VVal::new(dst, v)
    }

    /// Store a packed VIS register at `base + off`.
    #[track_caller]
    pub fn storev(&mut self, base: &Val, off: i64, v: &VVal) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        self.mem.write_u64(addr, v.v);
        self.emit(Inst::memory(
            Op::Store,
            pc,
            Reg::NONE,
            [base.reg, v.reg, Reg::NONE],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::Store,
            },
        ));
    }

    /// Store the low four bytes of a packed VIS register at
    /// `base + idx + off` (a 32-bit FP-half store).
    #[track_caller]
    pub fn storev4_idx(&mut self, base: &Val, idx: &Val, off: i64, v: &VVal) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        self.mem.write_u32(addr, v.v as u32);
        self.emit(Inst::memory(
            Op::Store,
            pc,
            Reg::NONE,
            [base.reg, idx.reg, v.reg],
            MemRef {
                addr,
                size: 4,
                kind: MemKind::Store,
            },
        ));
    }

    /// Store a packed VIS register at `base + idx + off`.
    #[track_caller]
    pub fn storev_idx(&mut self, base: &Val, idx: &Val, off: i64, v: &VVal) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(idx.v).wrapping_add(off) as u64;
        self.mem.write_u64(addr, v.v);
        self.emit(Inst::memory(
            Op::Store,
            pc,
            Reg::NONE,
            [base.reg, idx.reg, v.reg],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::Store,
            },
        ));
    }

    /// VIS partial store: write only the byte lanes selected by the low
    /// eight bits of `mask`.
    #[track_caller]
    pub fn partial_store(&mut self, base: &Val, off: i64, data: &VVal, mask: &Val) {
        let pc = caller_pc!();
        let addr = base.v.wrapping_add(off) as u64;
        let old = self.mem.read_u64(addr);
        let merged = vis::partial_store_merge(old, data.v, mask.v as u8);
        self.mem.write_u64(addr, merged);
        self.emit(Inst::memory(
            Op::Store,
            pc,
            Reg::NONE,
            [base.reg, data.reg, mask.reg],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::PartialStore,
            },
        ));
    }

    // -----------------------------------------------------------------
    // VIS computation.
    // -----------------------------------------------------------------

    /// Materialize a packed constant into a VIS register.
    #[track_caller]
    pub fn vli(&mut self, bits: u64) -> VVal {
        let pc = caller_pc!();
        self.compute_v(Op::VisLogic, pc, [Reg::NONE; 3], bits)
    }

    /// `fpadd16`.
    #[track_caller]
    pub fn vadd16(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisAdd,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fpadd16(a.v, b.v),
        )
    }

    /// `fpsub16`.
    #[track_caller]
    pub fn vsub16(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisAdd,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fpsub16(a.v, b.v),
        )
    }

    /// `fpadd32`.
    #[track_caller]
    pub fn vadd32(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisAdd,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fpadd32(a.v, b.v),
        )
    }

    /// `fxor`.
    #[track_caller]
    pub fn vxor(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(Op::VisLogic, pc, [a.reg, b.reg, Reg::NONE], a.v ^ b.v)
    }

    /// `fmul8x16`: four low bytes of `a` times the 16-bit lanes of `b`.
    #[track_caller]
    pub fn vmul8x16(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmul8x16(a.v, b.v),
        )
    }

    /// `fmul8x16` reading its pixels from the upper four bytes of `a`.
    #[track_caller]
    pub fn vmul8x16_hi(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmul8x16_hi(a.v, b.v),
        )
    }

    /// `fmul8x16au`: four low bytes of `a` times the scalar coefficient
    /// in `w` (low 16 bits).
    #[track_caller]
    pub fn vmul8x16au(&mut self, a: &VVal, w: &Val) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, w.reg, Reg::NONE],
            vis::fmul8x16au(a.v, w.v as i16),
        )
    }

    /// `fmul8x16au` reading its pixels from the upper four bytes of `a`.
    #[track_caller]
    pub fn vmul8x16au_hi(&mut self, a: &VVal, w: &Val) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, w.reg, Reg::NONE],
            vis::fmul8x16au_hi(a.v, w.v as i16),
        )
    }

    /// `fmul8sux16`.
    #[track_caller]
    pub fn vmul8sux16(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmul8sux16(a.v, b.v),
        )
    }

    /// `fmul8ulx16`.
    #[track_caller]
    pub fn vmul8ulx16(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmul8ulx16(a.v, b.v),
        )
    }

    /// `fmuld8sux16` on lanes 0-1: widening multiply (upper-byte part).
    #[track_caller]
    pub fn vmuld_sux_lo(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmuld8sux16_lo(a.v, b.v),
        )
    }

    /// `fmuld8ulx16` on lanes 0-1: widening multiply (lower-byte part).
    #[track_caller]
    pub fn vmuld_ulx_lo(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmuld8ulx16_lo(a.v, b.v),
        )
    }

    /// `fmuld8sux16` on lanes 2-3.
    #[track_caller]
    pub fn vmuld_sux_hi(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmuld8sux16_hi(a.v, b.v),
        )
    }

    /// `fmuld8ulx16` on lanes 2-3.
    #[track_caller]
    pub fn vmuld_ulx_hi(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        self.compute_v(
            Op::VisMul,
            pc,
            [a.reg, b.reg, Reg::NONE],
            vis::fmuld8ulx16_hi(a.v, b.v),
        )
    }

    /// Set the GSR packing scale factor (one GSR-write instruction).
    #[track_caller]
    pub fn set_gsr_scale(&mut self, scale: u8) {
        let pc = caller_pc!();
        self.gsr.scale = scale;
        let dst = self.fresh();
        self.emit(Inst::compute(Op::VisGsr, pc, dst, [Reg::NONE; 3]));
        self.gsr_reg = dst;
    }

    /// `fpack16` on one register: the four 16-bit lanes of `a` saturate
    /// into the four low byte lanes of the result.
    #[track_caller]
    pub fn vpack16(&mut self, a: &VVal) -> VVal {
        let pc = caller_pc!();
        let packed = vis::fpack16(self.gsr, a.v);
        let bits = u32::from_le_bytes(packed) as u64;
        self.compute_v(Op::VisPack, pc, [a.reg, self.gsr_reg, Reg::NONE], bits)
    }

    /// Two `fpack16` instructions packing `a` (low four bytes) and `b`
    /// (high four bytes) into one 8-byte register, as VIS code does when
    /// producing a full pixel octet.
    #[track_caller]
    pub fn vpack16_pair(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        let lo = self.compute_v(
            Op::VisPack,
            pc,
            [a.reg, self.gsr_reg, Reg::NONE],
            u32::from_le_bytes(vis::fpack16(self.gsr, a.v)) as u64,
        );
        // The second pack writes the other half of the destination
        // register pair, so it depends on the first.
        let bits = vis::fpack16_pair(self.gsr, a.v, b.v);
        self.compute_v(Op::VisPack, pc ^ 1, [b.reg, self.gsr_reg, lo.reg], bits)
    }

    /// `fexpand` of the low four bytes of `a`.
    #[track_caller]
    pub fn vexpand_lo(&mut self, a: &VVal) -> VVal {
        let pc = caller_pc!();
        let b = vis::unpack8(a.v);
        let v = vis::fexpand([b[0], b[1], b[2], b[3]]);
        self.compute_v(Op::VisExpand, pc, [a.reg, Reg::NONE, Reg::NONE], v)
    }

    /// `fexpand` of the high four bytes of `a`.
    #[track_caller]
    pub fn vexpand_hi(&mut self, a: &VVal) -> VVal {
        let pc = caller_pc!();
        let b = vis::unpack8(a.v);
        let v = vis::fexpand([b[4], b[5], b[6], b[7]]);
        self.compute_v(Op::VisExpand, pc, [a.reg, Reg::NONE, Reg::NONE], v)
    }

    /// `fpmerge` of the low four bytes of each operand.
    #[track_caller]
    pub fn vmerge_lo(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        let (x, y) = (vis::unpack8(a.v), vis::unpack8(b.v));
        let v = vis::fpmerge([x[0], x[1], x[2], x[3]], [y[0], y[1], y[2], y[3]]);
        self.compute_v(Op::VisMerge, pc, [a.reg, b.reg, Reg::NONE], v)
    }

    /// `fpmerge` of the high four bytes of each operand.
    #[track_caller]
    pub fn vmerge_hi(&mut self, a: &VVal, b: &VVal) -> VVal {
        let pc = caller_pc!();
        let (x, y) = (vis::unpack8(a.v), vis::unpack8(b.v));
        let v = vis::fpmerge([x[4], x[5], x[6], x[7]], [y[4], y[5], y[6], y[7]]);
        self.compute_v(Op::VisMerge, pc, [a.reg, b.reg, Reg::NONE], v)
    }

    /// Emit a subword-rearrangement *sequence*: `n_ops` chained
    /// merge-class instructions (≥1) consuming `srcs` and producing
    /// `bits`.
    ///
    /// MediaLib-style VIS code rearranges data (RGB de/interleave,
    /// lane compaction) with sequences of `fpmerge`/`faligndata` whose
    /// intermediate lane contents are tedious to reproduce but whose
    /// *cost* — `n_ops` single-cycle instructions on the VIS multiplier
    /// path, all counted as rearrangement overhead (paper §3.2.3) — is
    /// what the simulation needs. This helper emits that dependency
    /// chain and attaches the final, functionally correct value.
    #[track_caller]
    pub fn vshuffle_composite(&mut self, srcs: &[&VVal], n_ops: u32, bits: u64) -> VVal {
        assert!(n_ops >= 1, "composite needs at least one instruction");
        let pc = caller_pc!();
        let mut s = [Reg::NONE; 3];
        for (i, v) in srcs.iter().take(3).enumerate() {
            s[i] = v.reg;
        }
        let mut last = self.compute_v(Op::VisMerge, pc, s, 0);
        for k in 1..n_ops {
            let mut s2 = s;
            s2[2] = last.reg;
            last = self.compute_v(Op::VisMerge, pc ^ k as u64, s2, 0);
        }
        VVal::new(last.reg, bits)
    }

    /// `falignaddr`: returns the 8-aligned address of `base + off` and
    /// latches the misalignment into the GSR.
    #[track_caller]
    pub fn valignaddr(&mut self, base: &Val, off: i64) -> Val {
        let pc = caller_pc!();
        let (aligned, k) = vis::falignaddr(base.v as u64, off);
        self.gsr.align = k;
        let dst = self.fresh();
        self.emit(Inst::compute(
            Op::VisAlign,
            pc,
            dst,
            [base.reg, Reg::NONE, Reg::NONE],
        ));
        self.gsr_reg = dst;
        Val::new(dst, aligned as i64)
    }

    /// `faligndata` on two consecutive aligned loads.
    #[track_caller]
    pub fn valigndata(&mut self, lo: &VVal, hi: &VVal) -> VVal {
        let pc = caller_pc!();
        let v = vis::faligndata(self.gsr, lo.v, hi.v);
        self.compute_v(Op::VisAlign, pc, [lo.reg, hi.reg, self.gsr_reg], v)
    }

    /// `fcmple16`: 4-bit less-or-equal mask.
    #[track_caller]
    pub fn vcmple16(&mut self, a: &VVal, b: &VVal) -> Val {
        let pc = caller_pc!();
        let m = vis::fcmple16(a.v, b.v) as i64;
        self.compute(Op::VisCmp, pc, [a.reg, b.reg, Reg::NONE], m)
    }

    /// `edge8`: boundary byte mask for `[cur, end]`.
    #[track_caller]
    pub fn vedge8(&mut self, cur: &Val, end: &Val) -> Val {
        let pc = caller_pc!();
        let m = vis::edge8(cur.v as u64, end.v as u64) as i64;
        self.compute(Op::VisEdge, pc, [cur.reg, end.reg, Reg::NONE], m)
    }

    /// `pdist`: accumulate the sum of absolute byte differences.
    #[track_caller]
    pub fn vpdist(&mut self, a: &VVal, b: &VVal, acc: &Val) -> Val {
        let pc = caller_pc!();
        let v = vis::pdist(a.v, b.v, acc.v as u64) as i64;
        self.compute(Op::VisPdist, pc, [a.reg, b.reg, acc.reg], v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visim_cpu::CountingSink;

    fn with_program<R>(
        f: impl FnOnce(&mut Program<CountingSink>) -> R,
    ) -> (R, visim_cpu::CpuStats) {
        let mut sink = CountingSink::new();
        let r = {
            let mut p = Program::new(&mut sink);
            f(&mut p)
        };
        (r, sink.finish())
    }

    #[test]
    fn arithmetic_computes_and_emits() {
        let ((), stats) = with_program(|p| {
            let a = p.li(6);
            let b = p.li(7);
            let c = p.mul(&a, &b);
            assert_eq!(c.value(), 42);
            let d = p.addi(&c, -2);
            assert_eq!(d.value(), 40);
            let e = p.shri(&d, 2);
            assert_eq!(e.value(), 10);
        });
        assert_eq!(stats.retired, 5);
    }

    #[test]
    fn loads_and_stores_hit_the_mem_image() {
        let ((), _) = with_program(|p| {
            let buf = p.mem_mut().alloc(64, 8);
            let base = p.li(buf as i64);
            let v = p.li(0x1234);
            p.store_u16(&base, 6, &v);
            let r = p.load_i16(&base, 6);
            assert_eq!(r.value(), 0x1234);
            let i = p.li(3);
            let b = p.li(0xfe);
            p.store_u8_idx(&base, &i, 0, &b);
            let r = p.load_u8_idx(&base, &i, 0);
            assert_eq!(r.value(), 0xfe);
        });
    }

    #[test]
    fn loop_range_runs_host_body_and_emits_overhead() {
        let (sum, stats) = with_program(|p| {
            let mut sum = 0i64;
            p.loop_range(0, 10, 1, |p, i| {
                let x = p.addi(i, 1);
                sum += x.value();
            });
            sum
        });
        assert_eq!(sum, 55);
        // li + guard(2) + 10 * (body 1 + add + cmp + branch).
        assert_eq!(stats.retired, 3 + 10 * 4);
        assert_eq!(stats.cond_branches, 11);
        assert!(stats.mispredicts <= 2, "loop branches predict well");
    }

    #[test]
    fn empty_loop_emits_only_the_guard() {
        let ((), stats) = with_program(|p| {
            p.loop_range(5, 5, 1, |_, _| panic!("body must not run"));
        });
        assert_eq!(stats.retired, 3);
    }

    #[test]
    fn branches_report_host_condition() {
        let ((), stats) = with_program(|p| {
            let a = p.li(1);
            let b = p.li(2);
            assert!(p.bcond(Cond::Lt, &a, &b, false));
            assert!(!p.bcond(Cond::Gt, &a, &b, false));
            assert!(p.bcond_i(Cond::Eq, &a, 1, false));
        });
        assert_eq!(stats.cond_branches, 3);
        assert_eq!(stats.retired, 2 + 6);
    }

    #[test]
    fn vis_pipeline_computes_packed_data() {
        let ((), stats) = with_program(|p| {
            let buf = p.mem_mut().alloc(64, 8);
            p.mem_mut()
                .write_u64(buf, u64::from_le_bytes([10, 20, 30, 40, 50, 60, 70, 80]));
            let base = p.li(buf as i64);
            let pix = p.loadv(&base, 0);
            let lo = p.vexpand_lo(&pix);
            let hi = p.vexpand_hi(&pix);
            let sum = p.vadd16(&lo, &hi);
            p.set_gsr_scale(3);
            let packed = p.vpack16_pair(&sum, &sum);
            // 10+50=60, 20+60=80, 30+70=100, 40+80=120, twice.
            assert_eq!(packed.lanes8(), [60, 80, 100, 120, 60, 80, 100, 120]);
            p.storev(&base, 8, &packed);
            assert_eq!(
                p.mem().bytes(buf + 8, 8),
                &[60, 80, 100, 120, 60, 80, 100, 120]
            );
        });
        // li(base), load, 2 expands, add, gsr, 2 packs, store.
        assert_eq!(stats.retired, 9);
        assert_eq!(stats.mix[3], 6, "six VIS ops");
    }

    #[test]
    fn alignment_pipeline_reproduces_unaligned_load() {
        let ((), _) = with_program(|p| {
            let buf = p.mem_mut().alloc(32, 8);
            for i in 0..16 {
                p.mem_mut().write_u8(buf + i, i as u8);
            }
            let misaligned = p.li(buf as i64 + 3);
            let aligned = p.valignaddr(&misaligned, 0);
            assert_eq!(aligned.value() as u64, buf);
            let d0 = p.loadv(&aligned, 0);
            let d1 = p.loadv(&aligned, 8);
            let win = p.valigndata(&d0, &d1);
            assert_eq!(win.lanes8(), [3, 4, 5, 6, 7, 8, 9, 10]);
        });
    }

    #[test]
    fn partial_store_respects_masks() {
        let ((), _) = with_program(|p| {
            let buf = p.mem_mut().alloc(16, 8);
            p.mem_mut().write_u64(buf, 0xaaaa_aaaa_aaaa_aaaa);
            let base = p.li(buf as i64);
            let data = p.vli(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
            let end = p.li(buf as i64 + 2);
            let mask = p.vedge8(&base, &end); // bytes 0..=2
            p.partial_store(&base, 0, &data, &mask);
            assert_eq!(
                p.mem().bytes(buf, 8),
                &[1, 2, 3, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa]
            );
        });
    }

    #[test]
    fn pdist_accumulates() {
        let ((), stats) = with_program(|p| {
            let a = p.vli(u64::from_le_bytes([0, 0, 0, 0, 0, 0, 0, 0]));
            let b = p.vli(u64::from_le_bytes([1, 2, 3, 4, 0, 0, 0, 0]));
            let acc = p.li(0);
            let acc = p.vpdist(&a, &b, &acc);
            assert_eq!(acc.value(), 10);
            let acc = p.vpdist(&a, &b, &acc);
            assert_eq!(acc.value(), 20);
        });
        assert_eq!(stats.mix[3], 4, "2 vli + 2 pdist");
    }

    #[test]
    fn calls_and_returns_balance() {
        let (v, stats) = with_program(|p| {
            p.subroutine(|p| {
                let x = p.li(5);
                p.subroutine(|p| p.addi(&x, 1)).value()
            })
        });
        assert_eq!(v, 6);
        assert_eq!(stats.ras_mispredicts, 0);
        assert_eq!(stats.mix[1], 4, "2 calls + 2 rets");
    }

    #[test]
    fn select_is_branchless() {
        let ((), stats) = with_program(|p| {
            let c = p.li(1);
            let t = p.li(10);
            let f = p.li(20);
            let r = p.select(&c, &t, &f);
            assert_eq!(r.value(), 10);
            let z = p.li(0);
            let r = p.select(&z, &t, &f);
            assert_eq!(r.value(), 20);
        });
        assert_eq!(stats.cond_branches, 0);
    }

    #[test]
    fn fp_ops_carry_f64() {
        let ((), _) = with_program(|p| {
            let a = p.lif(1.5);
            let b = p.lif(2.0);
            let c = p.fmul(&a, &b);
            assert_eq!(c.as_f64(), 3.0);
            let d = p.fdiv(&c, &b);
            assert_eq!(d.as_f64(), 1.5);
            let i = p.f2i(&d);
            assert_eq!(i.value(), 1);
            let f = p.i2f(&i);
            assert_eq!(f.as_f64(), 1.0);
        });
    }

    #[test]
    fn distinct_call_sites_get_distinct_pcs() {
        let mut sink = CountingSink::new();
        let mut p = Program::new(&mut sink);
        let a = p.li(1);
        let b = p.li(2);
        // The two `li` calls are on different lines, so their counters
        // must not alias: approximated by checking emitted regs differ.
        assert_ne!(a.reg(), b.reg());
    }
}
