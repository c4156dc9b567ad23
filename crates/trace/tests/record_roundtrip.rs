//! Property tests for the record/replay engine: an arbitrary dynamic
//! instruction stream survives record → replay exactly, and replay
//! resumes exactly from any checkpointed cursor.

use visim_cpu::SimSink;
use visim_isa::{BranchInfo, BranchKind, Inst, MemKind, MemRef, Op, Reg};
use visim_trace::{Checkpoint, Recorded, ReplayCursor};
use visim_util::prop::{self, Config};
use visim_util::prop_assert;

/// A sink that stores every pushed instruction.
#[derive(Default)]
struct Collect(Vec<Inst>);

impl SimSink for Collect {
    fn push(&mut self, inst: Inst) {
        self.0.push(inst);
    }
}

const OPS: [Op; 26] = [
    Op::IntAlu,
    Op::IntMul,
    Op::IntDiv,
    Op::FpOp,
    Op::FpMove,
    Op::FpConv,
    Op::FpDiv,
    Op::Branch,
    Op::Jump,
    Op::Call,
    Op::Ret,
    Op::Load,
    Op::Store,
    Op::Prefetch,
    Op::VisAdd,
    Op::VisLogic,
    Op::VisAlign,
    Op::VisEdge,
    Op::VisCmp,
    Op::VisMul,
    Op::VisPack,
    Op::VisExpand,
    Op::VisMerge,
    Op::VisPdist,
    Op::VisArray,
    Op::VisGsr,
];

const MEM_KINDS: [MemKind; 6] = [
    MemKind::Load,
    MemKind::Store,
    MemKind::Prefetch,
    MemKind::PartialStore,
    MemKind::BlockLoad,
    MemKind::BlockStore,
];

const BRANCH_KINDS: [BranchKind; 4] = [
    BranchKind::Cond,
    BranchKind::Jump,
    BranchKind::Call,
    BranchKind::Ret,
];

/// One generated instruction, as a `Shrink`-able tuple:
/// (op selector, pc, dst, srcs, mem (present, addr, size, kind sel),
/// branch (present, kind sel, taken, backward, target)).
type Spec = (
    u8,
    u64,
    u32,
    [u32; 3],
    (bool, u64, u8, u8),
    (bool, u8, bool, bool, u64),
);

/// Build the exact `Inst` a spec denotes. Deliberately uses the struct
/// literal, not the `Inst` constructors: the round-trip must hold for
/// *any* field combination, not only the shapes the emitter produces.
fn inst_of(spec: &Spec) -> Inst {
    let &(op_sel, pc, dst, srcs, (has_mem, addr, size, mk), (has_br, bk, taken, backward, target)) =
        spec;
    Inst {
        op: OPS[op_sel as usize % OPS.len()],
        pc,
        dst: Reg(dst),
        srcs: [Reg(srcs[0]), Reg(srcs[1]), Reg(srcs[2])],
        mem: has_mem.then_some(MemRef {
            addr,
            size,
            kind: MEM_KINDS[mk as usize % MEM_KINDS.len()],
        }),
        branch: has_br.then_some(BranchInfo {
            kind: BRANCH_KINDS[bk as usize % BRANCH_KINDS.len()],
            taken,
            backward,
            target,
        }),
    }
}

fn gen_spec(rng: &mut visim_util::Rng) -> Spec {
    (
        rng.u8(),
        rng.u64(),
        rng.u32(),
        [rng.u32(), rng.u32(), rng.u32()],
        (rng.bool(), rng.u64(), rng.u8(), rng.u8()),
        (rng.bool(), rng.u8(), rng.bool(), rng.bool(), rng.u64()),
    )
}

#[test]
fn record_replay_round_trips_any_stream() {
    prop::check(
        Config::cases(64),
        |rng| {
            let n = rng.gen_range(0u32..200) as usize;
            (0..n).map(|_| gen_spec(rng)).collect::<Vec<Spec>>()
        },
        |specs| {
            let stream: Vec<Inst> = specs.iter().map(inst_of).collect();
            let mut rec = Recorded::new();
            for &i in &stream {
                rec.push(i);
            }
            let mut out = Collect::default();
            rec.replay(&mut out);
            prop_assert!(
                out.0 == stream,
                "replayed stream differs from the recorded one"
            );
            Ok(())
        },
    );
}

/// A stream shaped like the emitter's — a few static pcs, destinations
/// allocated in sequence, sources mostly recent producers — with every
/// shape the compact encoding must escape mixed in: destinations out of
/// sequence or absent, one pc executing several ops, sources far back,
/// ahead of the sequence or arbitrary, `Reg::NONE` in any slot, zero
/// and non-zero branch targets.
fn gen_shaped(rng: &mut visim_util::Rng) -> Vec<Spec> {
    let pcs: Vec<u64> = (0..rng.gen_range(1u32..6)).map(|_| rng.u64()).collect();
    let mut next = if rng.bool() { 0 } else { rng.u32() };
    (0..rng.gen_range(0u32..400))
        .map(|_| {
            let src = |rng: &mut visim_util::Rng| match rng.gen_range(0u32..10) {
                0 | 1 => Reg::NONE.0,
                2 => next.wrapping_sub(rng.gen_range(256u32..200_000)),
                3 => rng.u32(),
                4 => next.wrapping_add(rng.gen_range(0u32..3)),
                _ => next.wrapping_sub(rng.gen_range(1u32..256)),
            };
            let srcs = [src(rng), src(rng), src(rng)];
            let dst = match rng.gen_range(0u32..10) {
                0 => Reg::NONE.0,
                1 => rng.u32(),
                _ => next,
            };
            if dst != Reg::NONE.0 {
                next = dst.wrapping_add(1);
            }
            let target = if rng.bool() { 0 } else { rng.u64() };
            (
                rng.u8(),
                pcs[rng.gen_range(0..pcs.len() as u32) as usize],
                dst,
                srcs,
                (rng.bool(), rng.u64(), rng.u8() % 3 * 4, rng.u8()),
                (rng.bool(), rng.u8(), rng.bool(), rng.bool(), target),
            )
        })
        .collect()
}

fn record(stream: &[Inst]) -> Recorded {
    let mut rec = Recorded::new();
    for &i in stream {
        rec.push(i);
    }
    rec
}

#[test]
fn emitter_shaped_streams_round_trip_through_every_escape() {
    prop::check(Config::cases(128), gen_shaped, |specs| {
        let stream: Vec<Inst> = specs.iter().map(inst_of).collect();
        let rec = record(&stream);
        let mut out = Collect::default();
        rec.replay(&mut out);
        prop_assert!(out.0 == stream, "record -> replay differs");
        Ok(())
    });
}

#[test]
fn site_indices_past_u16_escape_losslessly() {
    let stream: Vec<Inst> = (0..70_000u64)
        .map(|pc| Inst::compute(Op::IntAlu, pc, Reg(pc as u32), [Reg::NONE; 3]))
        .collect();
    let rec = record(&stream);
    let mut out = Collect::default();
    rec.replay(&mut out);
    assert!(out.0 == stream);
}

/// Replay resumed from a cursor that went through a checkpoint frame —
/// one every `period` instructions, as a sampled run takes them —
/// reproduces the rest of the whole-stream replay exactly.
#[test]
fn replay_from_every_checkpointed_cursor_matches_the_whole_stream() {
    prop::check(
        Config::cases(64),
        |rng| (gen_shaped(rng), rng.gen_range(1u32..40) as u64),
        |(specs, period)| {
            let stream: Vec<Inst> = specs.iter().map(inst_of).collect();
            let rec = record(&stream);
            let mut cursor = ReplayCursor::start();
            let mut prefix = Collect::default();
            loop {
                let frame = Checkpoint {
                    cursor,
                    state: vec![],
                }
                .encode("ck");
                let ck = Checkpoint::decode_for(&frame, "ck", &rec)
                    .map_err(|e| format!("checkpoint at {}: {e}", cursor.inst()))?;
                let mut rest = Collect::default();
                let end = rec.replay_span(ck.cursor, u64::MAX, &mut rest);
                prop_assert!(end.inst() == stream.len() as u64, "replay ends early");
                prop_assert!(
                    rest.0[..] == stream[cursor.inst() as usize..],
                    "replay from instruction {} differs",
                    cursor.inst()
                );
                if cursor.inst() == stream.len() as u64 {
                    break;
                }
                cursor = rec.replay_span(cursor, *period, &mut prefix);
            }
            prop_assert!(prefix.0 == stream, "chained spans differ");
            Ok(())
        },
    );
}
