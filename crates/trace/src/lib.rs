//! Execution-driven workload framework for the `visim` simulator.
//!
//! The paper simulates compiled SPARC binaries with RSIM. Here,
//! benchmarks are ordinary Rust functions written against the
//! [`Program`] emitter: every emitted operation *both* computes real
//! data (loads and stores act on a simulated flat address space, the
//! [`MemImage`]) *and* synchronously feeds one dynamic instruction —
//! with register data-flow, memory address, and branch outcome — into a
//! [`visim_cpu::SimSink`] (the timing pipeline or a cheap counter).
//!
//! Values are carried by [`Val`] (a 64-bit scalar) and [`VVal`] (a
//! 64-bit VIS packed register) handles, which pair the functional value
//! with the virtual register holding it, so dependences are tracked
//! automatically. Static instruction identities (the "PC" used by the
//! branch predictor) derive from the Rust call site via
//! `#[track_caller]`.
//!
//! # Example
//!
//! ```
//! use visim_cpu::CountingSink;
//! use visim_trace::Program;
//!
//! let mut sink = CountingSink::new();
//! let mut p = Program::new(&mut sink);
//! let buf = p.mem_mut().alloc(64, 8);
//! let base = p.li(buf as i64);
//! let x = p.li(7);
//! let y = p.addi(&x, 35);
//! p.store_u64(&base, 0, &y);
//! let z = p.load_u64(&base, 0);
//! assert_eq!(z.value(), 42);
//! ```

mod checkpoint;
mod memimg;
mod program;
mod record;
mod value;

pub use checkpoint::{Checkpoint, CKPT_FORMAT_VERSION};
pub use memimg::MemImage;
pub use program::{Cond, Program};
pub use record::{Recorded, Recorder, ReplayCursor};
pub use value::{VVal, Val};
