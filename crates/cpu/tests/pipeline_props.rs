//! Property tests of the pipeline: for random well-formed instruction
//! streams, the simulation must terminate, retire everything exactly
//! once, account every cycle, and replay deterministically.

use visim_cpu::{CpuConfig, Pipeline, SimSink};
use visim_isa::{BranchInfo, Inst, MemKind, MemRef, Op, Reg};
use visim_mem::MemConfig;
use visim_util::prop::{self, Config, Shrink};
use visim_util::{prop_assert, prop_assert_eq, Rng};

/// A compact generator-friendly instruction description.
#[derive(Debug, Clone, Copy)]
enum Gen {
    Alu { dep: bool },
    Mul,
    Fp,
    Div,
    Vis(u8),
    Load { addr: u16 },
    Store { addr: u16 },
    Prefetch { addr: u16 },
    Branch { taken: bool, backward: bool },
}

// No value-level candidates: streams shrink structurally (the Vec
// harness drops and halves elements).
impl Shrink for Gen {}

fn arb_gen(rng: &mut Rng) -> Gen {
    match rng.gen_range(0u32..9) {
        0 => Gen::Alu { dep: rng.bool() },
        1 => Gen::Mul,
        2 => Gen::Fp,
        3 => Gen::Div,
        4 => Gen::Vis(rng.gen_range(0u8..6)),
        5 => Gen::Load { addr: rng.u16() },
        6 => Gen::Store { addr: rng.u16() },
        7 => Gen::Prefetch { addr: rng.u16() },
        _ => Gen::Branch {
            taken: rng.bool(),
            backward: rng.bool(),
        },
    }
}

fn materialize(gens: &[Gen]) -> Vec<Inst> {
    let mut out = Vec::with_capacity(gens.len());
    let mut reg = 1u32;
    let mut last = Reg::NONE;
    for (i, g) in gens.iter().enumerate() {
        let pc = 0x1000 + (i as u64 % 37) * 4;
        let fresh = |reg: &mut u32| {
            let r = Reg(*reg);
            *reg += 1;
            r
        };
        let inst = match *g {
            Gen::Alu { dep } => {
                let d = fresh(&mut reg);
                let src = if dep { last } else { Reg::NONE };
                Inst::compute(Op::IntAlu, pc, d, [src, Reg::NONE, Reg::NONE])
            }
            Gen::Mul => Inst::compute(
                Op::IntMul,
                pc,
                fresh(&mut reg),
                [last, Reg::NONE, Reg::NONE],
            ),
            Gen::Fp => Inst::compute(Op::FpOp, pc, fresh(&mut reg), [Reg::NONE; 3]),
            Gen::Div => Inst::compute(Op::FpDiv, pc, fresh(&mut reg), [Reg::NONE; 3]),
            Gen::Vis(k) => {
                let op = [
                    Op::VisAdd,
                    Op::VisMul,
                    Op::VisPack,
                    Op::VisPdist,
                    Op::VisLogic,
                    Op::VisMerge,
                ][k as usize % 6];
                Inst::compute(op, pc, fresh(&mut reg), [last, Reg::NONE, Reg::NONE])
            }
            Gen::Load { addr } => Inst::memory(
                Op::Load,
                pc,
                fresh(&mut reg),
                [Reg::NONE; 3],
                MemRef {
                    addr: 0x1_0000 + (addr as u64) * 8,
                    size: 8,
                    kind: MemKind::Load,
                },
            ),
            Gen::Store { addr } => Inst::memory(
                Op::Store,
                pc,
                Reg::NONE,
                [last, Reg::NONE, Reg::NONE],
                MemRef {
                    addr: 0x1_0000 + (addr as u64) * 8,
                    size: 8,
                    kind: MemKind::Store,
                },
            ),
            Gen::Prefetch { addr } => Inst::memory(
                Op::Prefetch,
                pc,
                Reg::NONE,
                [Reg::NONE; 3],
                MemRef {
                    addr: 0x1_0000 + (addr as u64) * 8,
                    size: 8,
                    kind: MemKind::Prefetch,
                },
            ),
            Gen::Branch { taken, backward } => Inst::control(
                Op::Branch,
                pc,
                [last, Reg::NONE, Reg::NONE],
                BranchInfo::cond(taken, backward),
            ),
        };
        if inst.dst.is_some() {
            last = inst.dst;
        }
        out.push(inst);
    }
    out
}

fn run(insts: &[Inst], cfg: CpuConfig) -> visim_cpu::Summary {
    let mut p = Pipeline::new(cfg, MemConfig::default());
    for &i in insts {
        p.push(i);
    }
    p.finish()
}

#[test]
fn random_streams_retire_everything() {
    prop::check(
        Config::cases(48),
        |rng| rng.vec(1..400, arb_gen),
        |gens: &Vec<Gen>| {
            if gens.is_empty() {
                return Ok(());
            }
            let insts = materialize(gens);
            for cfg in [
                CpuConfig::inorder_1way(),
                CpuConfig::inorder_4way(),
                CpuConfig::ooo_4way(),
            ] {
                let s = run(&insts, cfg);
                prop_assert_eq!(s.cpu.retired, insts.len() as u64);
                let b = s.cpu.breakdown();
                prop_assert!(
                    (b.total() - s.cycles() as f64).abs() < 1e-6,
                    "attribution covers every cycle"
                );
                prop_assert!(
                    s.cycles() >= (insts.len() as u64).div_ceil(4),
                    "cannot beat the retire width"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn replay_is_deterministic() {
    prop::check(
        Config::cases(48),
        |rng| rng.vec(1..200, arb_gen),
        |gens: &Vec<Gen>| {
            let insts = materialize(gens);
            let a = run(&insts, CpuConfig::ooo_4way());
            let b = run(&insts, CpuConfig::ooo_4way());
            prop_assert_eq!(a.cycles(), b.cycles());
            prop_assert_eq!(a.mem, b.mem);
            prop_assert_eq!(a.cpu.mispredicts, b.cpu.mispredicts);
            Ok(())
        },
    );
}

#[test]
fn ooo_never_loses_to_inorder() {
    prop::check(
        Config::cases(48),
        |rng| rng.vec(1..300, arb_gen),
        |gens: &Vec<Gen>| {
            let insts = materialize(gens);
            let io = run(&insts, CpuConfig::inorder_4way());
            let ooo = run(&insts, CpuConfig::ooo_4way());
            // Same width, strictly more scheduling freedom: allow a tiny
            // tolerance for edge effects at the end of the stream.
            prop_assert!(
                ooo.cycles() <= io.cycles() + 4,
                "ooo {} vs inorder {}",
                ooo.cycles(),
                io.cycles()
            );
            Ok(())
        },
    );
}

/// Pins every statistic the pipeline reports on fixed-seed random
/// streams, per machine configuration, so a change to the scheduler's
/// bookkeeping that alters any issue cycle, memory access or counter
/// fails here. The windows of 16 and 128 bracket the 64-entry base
/// machine; `blocking_loads` takes the stall-on-load issue path.
#[test]
fn statistics_are_pinned_on_fixed_streams() {
    let streams: Vec<Vec<Inst>> = (0..4u64)
        .map(|seed| {
            let mut rng = Rng::seed_from_u64(seed);
            let gens: Vec<Gen> = (0..3000).map(|_| arb_gen(&mut rng)).collect();
            materialize(&gens)
        })
        .collect();
    let configs = [
        ("inorder_1way", CpuConfig::inorder_1way()),
        ("inorder_4way", CpuConfig::inorder_4way()),
        ("ooo_4way", CpuConfig::ooo_4way()),
        (
            "ooo_4way/window16",
            CpuConfig {
                window: 16,
                ..CpuConfig::ooo_4way()
            },
        ),
        (
            "ooo_4way/window128",
            CpuConfig {
                window: 128,
                ..CpuConfig::ooo_4way()
            },
        ),
        (
            "ooo_4way/blocking_loads",
            CpuConfig {
                blocking_loads: true,
                ..CpuConfig::ooo_4way()
            },
        ),
        (
            "ooo_4way/window100",
            CpuConfig {
                window: 100,
                ..CpuConfig::ooo_4way()
            },
        ),
        (
            "ooo_4way/window200",
            CpuConfig {
                window: 200,
                ..CpuConfig::ooo_4way()
            },
        ),
        (
            "inorder_4way/blocking_loads",
            CpuConfig {
                blocking_loads: true,
                ..CpuConfig::inorder_4way()
            },
        ),
    ];
    let digests: Vec<(&str, u64)> = configs
        .iter()
        .map(|(name, cfg)| {
            let mut text = String::new();
            for insts in &streams {
                let s = run(insts, cfg.clone());
                text += &format!("{:?}|{:?}|{:?}\n", s.cpu, s.mem, s.mshr_histogram);
            }
            (*name, visim_util::fnv1a64(text.as_bytes()))
        })
        .collect();
    let pinned: Vec<(&str, u64)> = vec![
        ("inorder_1way", 0x0ab4_d5a3_4583_dca9),
        ("inorder_4way", 0xa71f_51e8_1255_9598),
        ("ooo_4way", 0x87ec_5fb8_c15a_cf01),
        ("ooo_4way/window16", 0x713d_2c6a_bd72_78e8),
        ("ooo_4way/window128", 0x02ed_223f_03d4_bcb0),
        ("ooo_4way/blocking_loads", 0x1bfc_d916_f010_9949),
        ("ooo_4way/window100", 0x8e81_0464_ca4a_502c),
        ("ooo_4way/window200", 0x4c59_794b_5512_dd0b),
        ("inorder_4way/blocking_loads", 0xf045_81ec_2e3e_994c),
    ];
    assert_eq!(digests, pinned, "pipeline statistics changed");
}
