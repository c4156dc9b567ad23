//! The sink abstraction connecting workloads to a consumer of dynamic
//! instructions.

use visim_isa::{BranchKind, Inst};

use crate::predictor::{AgreePredictor, ReturnAddressStack};
use crate::stats::CpuStats;

/// A consumer of dynamic instructions.
///
/// Workloads are written against this trait so the same benchmark code
/// can drive the full timing model ([`crate::Pipeline`]) or a cheap
/// functional counter ([`CountingSink`], used for the paper's Figure 2
/// instruction-mix experiment and for fast functional tests).
pub trait SimSink {
    /// Feed one dynamic instruction, in program order.
    fn push(&mut self, inst: Inst);
}

/// A sink that only counts: instruction mix, VIS overhead, and branch
/// prediction statistics (through the same predictor structures as the
/// timing model), with no timing simulation.
#[derive(Debug)]
pub struct CountingSink {
    stats: CpuStats,
    pred: AgreePredictor,
    ras: ReturnAddressStack,
}

impl CountingSink {
    /// A counting sink with the default Table 2 predictor sizes.
    pub fn new() -> Self {
        CountingSink {
            stats: CpuStats::new(1),
            pred: AgreePredictor::new(2048),
            ras: ReturnAddressStack::new(32),
        }
    }

    /// Finish and return the accumulated statistics. `cycles` stays 0.
    pub fn finish(self) -> CpuStats {
        self.stats
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }
}

impl Default for CountingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl SimSink for CountingSink {
    fn push(&mut self, inst: Inst) {
        self.stats.note_retired(inst.op);
        if let Some(b) = inst.branch {
            match b.kind {
                BranchKind::Cond => {
                    self.stats.cond_branches += 1;
                    if self.pred.predict(inst.pc, b.backward) != b.taken {
                        self.stats.mispredicts += 1;
                    }
                    self.pred.update(inst.pc, b.backward, b.taken);
                }
                BranchKind::Call => self.ras.push(b.target),
                BranchKind::Ret => {
                    if !self.ras.pop_matches(b.target) {
                        self.stats.ras_mispredicts += 1;
                    }
                }
                BranchKind::Jump => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visim_isa::{BranchInfo, Op, Reg};

    #[test]
    fn counts_mix_and_branches() {
        let mut s = CountingSink::new();
        s.push(Inst::compute(Op::IntAlu, 1, Reg(1), [Reg::NONE; 3]));
        s.push(Inst::compute(
            Op::VisAdd,
            2,
            Reg(2),
            [Reg(1), Reg::NONE, Reg::NONE],
        ));
        // A loop branch taken 100 times then falling through once.
        for i in 0..101 {
            s.push(Inst::control(
                Op::Branch,
                3,
                [Reg::NONE; 3],
                BranchInfo::cond(i < 100, true),
            ));
        }
        let st = s.finish();
        assert_eq!(st.retired, 103);
        assert_eq!(st.mix, [1, 101, 0, 1]);
        assert_eq!(st.cond_branches, 101);
        // Backward bias predicts the loop; only the exit mispredicts.
        assert!(st.mispredicts <= 2, "mispredicts = {}", st.mispredicts);
    }
}
