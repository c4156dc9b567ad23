//! Processor pipeline models for the `visim` simulator.
//!
//! Implements the two processor models of §2.2.1 of Ranganathan, Adve &
//! Jouppi (ISCA 1999):
//!
//! * an **in-order** model (21164/UltraSPARC-II-like): instructions issue
//!   in program order with a scoreboard, but loads and stores are
//!   non-blocking, so independent work continues past outstanding misses;
//! * an **out-of-order** model (21264/R10000-like): a 64-entry
//!   instruction window, 32-entry memory queue, 4-wide issue/retire.
//!
//! Both share the branch-prediction structures of Table 2 (2K-entry
//! bimodal *agree* predictor, 32-entry return-address stack, one taken
//! branch fetched per cycle, at most 16 unresolved speculated branches)
//! and a functional-unit pool (2 integer ALUs, 2 FP units, 2 address
//! generation units, 1 VIS multiplier, 1 VIS adder by default).
//!
//! Execution time is attributed to *Busy / FU stall / L1 hit / L1 miss*
//! components with the paper's retirement-based convention (§2.3.4): at
//! every cycle, the fraction of the maximum retire rate actually used is
//! busy time, and the rest is charged to the first instruction that could
//! not retire.
//!
//! # Example
//!
//! ```
//! use visim_cpu::{CpuConfig, Pipeline, SimSink};
//! use visim_isa::{Inst, Op, Reg};
//! use visim_mem::MemConfig;
//!
//! let mut p = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
//! // A tiny dependent chain.
//! p.push(Inst::compute(Op::IntAlu, 0x10, Reg(1), [Reg::NONE; 3]));
//! p.push(Inst::compute(Op::IntAlu, 0x14, Reg(2), [Reg(1), Reg::NONE, Reg::NONE]));
//! let summary = p.finish();
//! assert_eq!(summary.cpu.retired, 2);
//! ```

mod artifact;
mod config;
mod fu;
mod pipeline;
mod predictor;
mod sink;
mod stats;
mod warming;

pub use config::{CpuConfig, FuCounts, IssuePolicy};
pub use pipeline::{Pipeline, Summary};
pub use predictor::{AgreePredictor, ReturnAddressStack};
pub use sink::{CountingSink, SimSink};
pub use stats::{Breakdown, CpuStats, StallClass};
pub use warming::{extrapolate, SamplingEstimate, WarmingSink};
