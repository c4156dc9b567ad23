//! Behavioural tests of the pipeline models: the architectural effects
//! the paper's analysis relies on must be visible in the timing.

use visim_cpu::{CpuConfig, Pipeline, SimSink, Summary};
use visim_isa::{BranchInfo, Inst, MemKind, MemRef, Op, Reg};
use visim_mem::MemConfig;

/// Small builder for hand-written instruction streams.
struct Prog {
    insts: Vec<Inst>,
    next_reg: u32,
    pc: u64,
}

impl Prog {
    fn new() -> Self {
        Prog {
            insts: Vec::new(),
            next_reg: 1,
            pc: 0x1000,
        }
    }

    fn reg(&mut self) -> Reg {
        self.next_reg += 1;
        Reg(self.next_reg - 1)
    }

    fn pc(&mut self) -> u64 {
        self.pc += 4;
        self.pc
    }

    fn alu(&mut self, srcs: [Reg; 3]) -> Reg {
        let d = self.reg();
        let pc = self.pc();
        self.insts.push(Inst::compute(Op::IntAlu, pc, d, srcs));
        d
    }

    fn op(&mut self, op: Op, srcs: [Reg; 3]) -> Reg {
        let d = self.reg();
        let pc = self.pc();
        self.insts.push(Inst::compute(op, pc, d, srcs));
        d
    }

    fn load(&mut self, addr: u64) -> Reg {
        let d = self.reg();
        let pc = self.pc();
        self.insts.push(Inst::memory(
            Op::Load,
            pc,
            d,
            [Reg::NONE; 3],
            MemRef {
                addr,
                size: 8,
                kind: MemKind::Load,
            },
        ));
        d
    }

    fn store(&mut self, addr: u64, size: u8, src: Reg) {
        let pc = self.pc();
        self.insts.push(Inst::memory(
            Op::Store,
            pc,
            Reg::NONE,
            [src, Reg::NONE, Reg::NONE],
            MemRef {
                addr,
                size,
                kind: MemKind::Store,
            },
        ));
    }

    fn branch_at(&mut self, pc: u64, taken: bool, backward: bool) {
        self.insts.push(Inst::control(
            Op::Branch,
            pc,
            [Reg::NONE; 3],
            BranchInfo::cond(taken, backward),
        ));
    }

    fn run(self, cfg: CpuConfig) -> Summary {
        let mut p = Pipeline::new(cfg, MemConfig::default());
        for i in self.insts {
            p.push(i);
        }
        p.finish()
    }
}

/// N independent ALU ops.
fn independent_alus(n: usize) -> Prog {
    let mut p = Prog::new();
    for _ in 0..n {
        p.alu([Reg::NONE; 3]);
    }
    p
}

/// N dependent ALU ops (a serial chain).
fn dependent_alus(n: usize) -> Prog {
    let mut p = Prog::new();
    let mut r = p.alu([Reg::NONE; 3]);
    for _ in 1..n {
        r = p.alu([r, Reg::NONE, Reg::NONE]);
    }
    p
}

#[test]
fn wide_issue_speeds_up_independent_work() {
    let one = independent_alus(4000).run(CpuConfig::inorder_1way());
    let four = independent_alus(4000).run(CpuConfig::inorder_4way());
    let speedup = one.cycles() as f64 / four.cycles() as f64;
    assert!(
        speedup > 1.8,
        "4-way should be much faster on ILP=inf: {speedup:.2}"
    );
}

#[test]
fn dependent_chain_defeats_width() {
    let four = dependent_alus(4000).run(CpuConfig::ooo_4way());
    assert!(
        four.cycles() >= 4000,
        "serial chain is latency bound: {}",
        four.cycles()
    );
    let b = four.cpu.breakdown();
    assert!(b.fu_stall > b.busy, "stalls dominate a serial chain: {b:?}");
}

#[test]
fn breakdown_total_equals_cycles() {
    for cfg in [
        CpuConfig::inorder_1way(),
        CpuConfig::inorder_4way(),
        CpuConfig::ooo_4way(),
    ] {
        let mut p = Prog::new();
        for i in 0..200u64 {
            let r = p.load(0x10000 + i * 256);
            p.alu([r, Reg::NONE, Reg::NONE]);
        }
        let s = p.run(cfg);
        let b = s.cpu.breakdown();
        assert!(
            (b.total() - s.cycles() as f64).abs() < 1e-6,
            "attribution must be exhaustive: {} vs {}",
            b.total(),
            s.cycles()
        );
    }
}

#[test]
fn ooo_overlaps_independent_misses_better_than_inorder() {
    // Loads at line-stride with a dependent consumer right behind each:
    // in-order issue stalls at the first consumer, OOO keeps going.
    let build = || {
        let mut p = Prog::new();
        for i in 0..400u64 {
            let r = p.load(0x4_0000 + i * 64);
            let x = p.alu([r, Reg::NONE, Reg::NONE]);
            p.alu([x, Reg::NONE, Reg::NONE]);
        }
        p
    };
    let io = build().run(CpuConfig::inorder_4way());
    let ooo = build().run(CpuConfig::ooo_4way());
    let speedup = io.cycles() as f64 / ooo.cycles() as f64;
    assert!(
        speedup > 1.3,
        "OOO should overlap miss latency: {speedup:.2}"
    );
}

#[test]
fn load_misses_show_up_as_l1_miss_stall() {
    let mut p = Prog::new();
    for i in 0..300u64 {
        let r = p.load(0x8_0000 + i * 64); // all cold misses
        p.alu([r, Reg::NONE, Reg::NONE]);
    }
    let s = p.run(CpuConfig::ooo_4way());
    let b = s.cpu.breakdown();
    assert!(
        b.l1_miss > 0.3 * b.total(),
        "streaming misses dominate: {b:?}"
    );
    assert!(s.mem.l1_primary_misses >= 290);
}

#[test]
fn cache_hits_do_not_accumulate_miss_stall() {
    let mut p = Prog::new();
    // Warm a single line, then hammer it.
    let _ = p.load(0x1_0000);
    for _ in 0..2000 {
        let r = p.load(0x1_0000);
        p.alu([r, Reg::NONE, Reg::NONE]);
    }
    let s = p.run(CpuConfig::ooo_4way());
    let b = s.cpu.breakdown();
    // Only the single 122-cycle cold miss contributes miss stall.
    assert!(
        b.l1_miss < 130.0 && b.l1_miss < 0.2 * b.total(),
        "one cold miss only: {b:?}"
    );
    // Early loads merge into the in-flight cold miss; the rest hit.
    assert!(s.mem.l1_hits >= 1900, "hits = {}", s.mem.l1_hits);
    assert!(s.mem.l1_primary_misses == 1);
}

#[test]
fn mispredicted_branches_cost_cycles() {
    // Same branch site: first alternating (hard), then always-taken
    // backward (easy).
    let mut hard = Prog::new();
    for i in 0..2000u64 {
        hard.branch_at(0x500, i % 2 == 0, false);
        hard.alu([Reg::NONE; 3]);
    }
    let mut easy = Prog::new();
    for _ in 0..2000u64 {
        easy.branch_at(0x500, true, true);
        easy.alu([Reg::NONE; 3]);
    }
    let sh = hard.run(CpuConfig::ooo_4way());
    let se = easy.run(CpuConfig::ooo_4way());
    assert!(
        sh.cpu.mispredict_rate() > 0.3,
        "{}",
        sh.cpu.mispredict_rate()
    );
    assert!(
        se.cpu.mispredict_rate() < 0.05,
        "{}",
        se.cpu.mispredict_rate()
    );
    assert!(
        sh.cycles() > se.cycles() * 2,
        "mispredicts are expensive: {} vs {}",
        sh.cycles(),
        se.cycles()
    );
}

#[test]
fn byte_store_bursts_back_up_the_mshrs() {
    // The paper's write-backup effect: 64 one-byte stores per line,
    // streaming over many lines, with merge limit 8 per MSHR.
    let mut p = Prog::new();
    let v = p.alu([Reg::NONE; 3]);
    for line in 0..64u64 {
        for b in 0..64u64 {
            p.store(0x20_0000 + line * 64 + b, 1, v);
        }
    }
    let s = p.run(CpuConfig::ooo_4way());
    assert!(
        s.mem.rejects_merge_limit > 0,
        "write bursts should exhaust MSHR merges"
    );
    let b = s.cpu.breakdown();
    assert!(b.memory() > 0.0);
}

#[test]
fn vis_units_are_scarce() {
    // Packed multiplies all contend for the single VIS multiplier.
    let mut muls = Prog::new();
    for _ in 0..2000 {
        muls.op(Op::VisMul, [Reg::NONE; 3]);
    }
    // Mixed adds/muls split across the two units.
    let mut mixed = Prog::new();
    for i in 0..2000 {
        let op = if i % 2 == 0 { Op::VisMul } else { Op::VisAdd };
        mixed.op(op, [Reg::NONE; 3]);
    }
    let sm = muls.run(CpuConfig::ooo_4way());
    let sx = mixed.run(CpuConfig::ooo_4way());
    assert!(
        sm.cycles() as f64 > 0.9 * 2000.0,
        "one multiplier serializes: {}",
        sm.cycles()
    );
    assert!(
        (sx.cycles() as f64) < 0.7 * sm.cycles() as f64,
        "mixing units doubles throughput: {} vs {}",
        sx.cycles(),
        sm.cycles()
    );
}

#[test]
fn stores_do_not_block_retirement() {
    // Stores to warm lines drain through the store buffer without ever
    // stalling retirement: the mixed store/ALU stream sustains IPC > 1.
    let mut p = Prog::new();
    let v = p.alu([Reg::NONE; 3]);
    for i in 0..64u64 {
        p.store(0x30_0000 + i * 64, 8, v); // warming pass (misses)
    }
    for _ in 0..10 {
        for i in 0..64u64 {
            p.store(0x30_0000 + i * 64, 8, v);
            for _ in 0..4 {
                p.alu([Reg::NONE; 3]); // independent work
            }
        }
    }
    let s = p.run(CpuConfig::ooo_4way());
    let ipc = s.cpu.ipc();
    assert!(ipc > 1.2, "store hits are non-blocking: IPC {ipc:.2}");
}

#[test]
fn prefetches_convert_miss_stall_to_busy() {
    // Enough computation per element that the loop is latency-bound, not
    // MSHR-bandwidth-bound — the regime where Mowry-style prefetching
    // pays off (paper §4.2).
    let stride = 64u64;
    let iters = 400u64;
    let build = |prefetch: bool| {
        let mut p = Prog::new();
        for i in 0..iters {
            let addr = 0x40_0000 + i * stride;
            if prefetch {
                // Prefetch 8 lines ahead (prefetches drain through the
                // post-retirement memory queue, so part of the distance
                // covers the window depth).
                let pc = p.pc();
                p.insts.push(Inst::memory(
                    Op::Prefetch,
                    pc,
                    Reg::NONE,
                    [Reg::NONE; 3],
                    MemRef {
                        addr: addr + 8 * stride,
                        size: 8,
                        kind: MemKind::Prefetch,
                    },
                ));
            }
            let r = p.load(addr);
            // A dependent chain of computation per element.
            let mut x = p.alu([r, Reg::NONE, Reg::NONE]);
            for _ in 0..15 {
                x = p.alu([x, Reg::NONE, Reg::NONE]);
            }
        }
        p
    };
    let base = build(false).run(CpuConfig::ooo_4way());
    let pf = build(true).run(CpuConfig::ooo_4way());
    // Rejected prefetches retry, so every prefetch is eventually issued.
    assert_eq!(pf.mem.prefetches_issued, iters, "{:?}", pf.mem);
    let speedup = base.cycles() as f64 / pf.cycles() as f64;
    assert!(
        speedup > 1.3,
        "prefetching should hide streaming misses: {speedup:.2}"
    );
    let bb = base.cpu.breakdown();
    let pb = pf.cpu.breakdown();
    assert!(pb.l1_miss < bb.l1_miss * 0.8, "{pb:?} vs {bb:?}");
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let mut p = Prog::new();
        for i in 0..500u64 {
            let r = p.load(0x1000 + (i * 72) % 4096);
            let x = p.alu([r, Reg::NONE, Reg::NONE]);
            p.store(0x9000 + i * 8, 8, x);
            p.branch_at(0x700, i % 7 != 0, true);
        }
        p.run(CpuConfig::ooo_4way())
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.cycles(), b.cycles());
    assert_eq!(a.cpu.retired, b.cpu.retired);
    assert_eq!(a.mem, b.mem);
}

#[test]
fn retired_counts_match_pushed_instructions() {
    let mut p = Prog::new();
    let n = 1234;
    for _ in 0..n {
        p.alu([Reg::NONE; 3]);
    }
    let s = p.run(CpuConfig::inorder_1way());
    assert_eq!(s.cpu.retired, n);
    assert_eq!(s.cpu.mix[0], n);
}

#[test]
fn rejected_prefetches_retry_until_accepted() {
    // More prefetch streams than MSHRs: every prefetch must still be
    // issued eventually (RSIM retry semantics, not hardware drop).
    let mut p = Prog::new();
    for i in 0..200u64 {
        let pc = p.pc();
        p.insts.push(Inst::memory(
            Op::Prefetch,
            pc,
            Reg::NONE,
            [Reg::NONE; 3],
            MemRef {
                addr: 0x60_0000 + i * 64,
                size: 8,
                kind: MemKind::Prefetch,
            },
        ));
    }
    let s = p.run(CpuConfig::ooo_4way());
    assert_eq!(s.mem.prefetches_issued, 200, "{:?}", s.mem);
    assert!(
        s.mem.prefetches_rejected > 0,
        "12 MSHRs cannot hold 200 fills at once"
    );
}

#[test]
fn return_address_stack_predicts_call_ret_pairs() {
    use visim_isa::BranchKind;
    let mut p = Prog::new();
    // 50 well-nested call/ret pairs with work in between.
    for i in 0..50u64 {
        let target = 0x9000 + i;
        p.insts.push(Inst::control(
            Op::Call,
            0x100 + i,
            [Reg::NONE; 3],
            BranchInfo::linkage(BranchKind::Call, target),
        ));
        for _ in 0..3 {
            p.alu([Reg::NONE; 3]);
        }
        p.insts.push(Inst::control(
            Op::Ret,
            0x200 + i,
            [Reg::NONE; 3],
            BranchInfo::linkage(BranchKind::Ret, target),
        ));
    }
    let s = p.run(CpuConfig::ooo_4way());
    assert_eq!(s.cpu.ras_mispredicts, 0, "nested pairs predict perfectly");

    // A mismatched return mispredicts and costs front-end cycles.
    let mut q = Prog::new();
    for i in 0..50u64 {
        q.insts.push(Inst::control(
            Op::Ret,
            0x300 + i,
            [Reg::NONE; 3],
            BranchInfo::linkage(BranchKind::Ret, 0xdead),
        ));
        for _ in 0..3 {
            q.alu([Reg::NONE; 3]);
        }
    }
    let sq = q.run(CpuConfig::ooo_4way());
    assert_eq!(sq.cpu.ras_mispredicts, 50);
    assert!(
        sq.cycles() > s.cycles(),
        "{} vs {}",
        sq.cycles(),
        s.cycles()
    );
}

#[test]
fn speculative_branch_limit_throttles_dispatch() {
    // A long run of easy branches with no other work: dispatch may hold
    // at most 16 unresolved branches (Table 2).
    let mut p = Prog::new();
    for _ in 0..500 {
        p.branch_at(0x700, true, true);
    }
    let s = p.run(CpuConfig::ooo_4way());
    // One taken branch per fetch cycle is the tighter Table 2 limit.
    assert!(
        s.cycles() >= 500,
        "taken-branch fetch limit enforced: {}",
        s.cycles()
    );
}

#[test]
fn blocking_loads_model_is_strictly_slower() {
    // The §5 related-work contrast: a blocking-loads core cannot
    // overlap misses, so streaming loads pay full serial latency.
    let build = || {
        let mut p = Prog::new();
        for i in 0..200u64 {
            let r = p.load(0x7_0000 + i * 64);
            p.alu([r, Reg::NONE, Reg::NONE]);
        }
        p
    };
    // Out-of-order with non-blocking loads overlaps the misses; the
    // same core with blocking loads serializes them. (A scoreboarded
    // in-order core with an immediate consumer per load serializes too
    // — which is why the paper's kernels skew and unroll.)
    let nb = build().run(CpuConfig::ooo_4way());
    let mut cfg = CpuConfig::ooo_4way();
    cfg.blocking_loads = true;
    let bl = build().run(cfg);
    assert!(
        bl.cycles() as f64 > 1.5 * nb.cycles() as f64,
        "blocking loads serialize misses: {} vs {}",
        bl.cycles(),
        nb.cycles()
    );
    assert!(
        bl.cycles() >= 200 * 100,
        "near serial miss latency: {}",
        bl.cycles()
    );
}

#[test]
fn watchdog_terminates_a_wedged_pipeline_with_a_diagnostic() {
    // A self-referential instruction (reads its own destination) can
    // never see its source become ready: the scoreboard marks the
    // register in flight at dispatch, so issue blocks forever. Without
    // the watchdog this hangs retirement — exactly the "wedged model"
    // failure mode the harness must survive.
    let mut cfg = CpuConfig::ooo_4way();
    cfg.watchdog_cycles = 2_000;
    let mut p = Pipeline::new(cfg, MemConfig::default());
    p.push(Inst::compute(Op::IntAlu, 0x100, Reg(1), [Reg::NONE; 3]));
    p.push(Inst::compute(
        Op::IntAlu,
        0x104,
        Reg(7),
        [Reg(7), Reg::NONE, Reg::NONE],
    ));
    p.push(Inst::compute(Op::IntAlu, 0x108, Reg(2), [Reg::NONE; 3]));
    match p.try_finish() {
        Err(visim_util::SimError::CycleBudget { cycle, diagnostic }) => {
            assert!(cycle >= 2_000, "watchdog respected the budget: {cycle}");
            // The dump must localize the wedge: occupancy, queue depth,
            // and the oldest un-retired instruction.
            assert!(diagnostic.contains("window"), "{diagnostic}");
            assert!(diagnostic.contains("fetch_q"), "{diagnostic}");
            assert!(diagnostic.contains("oldest un-retired"), "{diagnostic}");
            assert!(diagnostic.contains("issued=false"), "{diagnostic}");
            // The self-dependent 0x104 waits on itself and stays
            // unissued however the issue stage tracks blocked slots;
            // 0x100 and 0x108 both issue.
            assert!(diagnostic.contains("unissued 1 "), "{diagnostic}");
            assert!(diagnostic.contains("pc 0x104"), "{diagnostic}");
        }
        other => panic!("expected CycleBudget, got {other:?}"),
    }
}

#[test]
fn watchdog_does_not_fire_on_legitimate_long_stalls() {
    // A dependent chain through the slowest units plus cache misses:
    // slow, but always making progress.
    let mut cfg = CpuConfig::ooo_4way();
    cfg.watchdog_cycles = 2_000;
    let mut p = Prog::new();
    let mut last = p.load(0x4_0000);
    for i in 0..64 {
        last = p.op(Op::FpDiv, [last, Reg::NONE, Reg::NONE]);
        let l = p.load(0x8_0000 + i * 4096);
        last = p.alu([last, l, Reg::NONE]);
    }
    let s = p.run(cfg);
    assert_eq!(s.cpu.retired, 64 * 2 + 64 + 1);
}

#[test]
fn inflight_destination_reuse_is_a_release_mode_invariant() {
    // Two instructions writing the same register while the first is
    // still in flight: a corrupted emitter stream. The long-latency
    // first write guarantees the overlap.
    let mut p = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
    p.push(Inst::compute(Op::FpDiv, 0x100, Reg(3), [Reg::NONE; 3]));
    p.push(Inst::compute(Op::IntAlu, 0x104, Reg(3), [Reg::NONE; 3]));
    match p.try_finish() {
        Err(visim_util::SimError::Invariant { model, detail }) => {
            assert_eq!(model, "pipeline");
            assert!(detail.contains("reused while in flight"), "{detail}");
        }
        other => panic!("expected Invariant, got {other:?}"),
    }
}

#[test]
fn straddling_access_faults_the_run_in_release_mode() {
    // Emit a load that crosses a cache-line boundary straight into the
    // memory system wrapper: the memory model records the invariant
    // violation and the pipeline surfaces it.
    let mut p = Prog::new();
    let d = p.reg();
    let pc = p.pc();
    p.insts.push(Inst::memory(
        Op::Load,
        pc,
        d,
        [Reg::NONE; 3],
        MemRef {
            addr: 0x1_003c, // 4 bytes below a 64-byte boundary
            size: 8,
            kind: MemKind::Load,
        },
    ));
    let mut pipe = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
    for &i in &p.insts {
        pipe.push(i);
    }
    match pipe.try_finish() {
        Err(visim_util::SimError::Invariant { model, detail }) => {
            assert_eq!(model, "mem");
            assert!(detail.contains("straddle"), "{detail}");
        }
        other => panic!("expected mem Invariant, got {other:?}"),
    }
}
