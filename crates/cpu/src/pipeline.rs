//! The unified pipeline model (in-order and out-of-order issue).
//!
//! The pipeline is *execution driven*: the workload synchronously pushes
//! dynamic instructions (via [`crate::SimSink`]) into a bounded fetch
//! buffer, and the model advances its cycle-by-cycle simulation whenever
//! the buffer fills. Stage order within a cycle is: complete/resolve →
//! retire → issue → dispatch → drain stores. Dispatch after issue gives
//! every instruction a one-cycle decode stage.
//!
//! The instruction window and the fetch buffer share one power-of-two
//! ring indexed by sequence number: instruction `seq` is written once,
//! at `seq & mask`, when it is fetched, and stays there through dispatch
//! until it retires, so every access — fetch and dispatch at the tail,
//! retirement at the head, a consumer reading its producer — is one
//! masked index.

use std::collections::VecDeque;

use visim_isa::{BranchKind, Inst, MemKind, MemRef, Op, Reg};
use visim_mem::{MemConfig, MemStats, MemSystem, Request, ServiceLevel};
use visim_obs::codec::ByteReader;
use visim_obs::trace::{InstSpan, InstantKind, SharedTraceRing};
use visim_obs::{Histogram, Registry};
use visim_util::SimError;

use crate::config::{CpuConfig, IssuePolicy};
use crate::fu::FuPool;
use crate::predictor::{AgreePredictor, ReturnAddressStack};
use crate::sink::SimSink;
use crate::stats::{CpuStats, StallClass};

/// In-flight producer map: register number → producer sequence number.
///
/// Direct-mapped on the low byte of the register number. The emitter
/// allocates SSA-style registers from a counter and at most `window`
/// (≤ 128) producers are in flight, so live registers span fewer than
/// 256 consecutive numbers and never collide — every operation is one
/// array access. Arbitrary (non-emitter) streams stay exactly correct
/// through the `overflow` list, which holds entries whose home slot is
/// taken by a different register.
#[derive(Debug)]
struct RegMap {
    slots: Box<[(u32, u64); 256]>,
    overflow: Vec<(u32, u64)>,
}

/// Empty-slot marker; valid keys never equal it because [`Reg::NONE`]
/// (`u32::MAX`) is filtered out before every map operation.
const REG_EMPTY: u32 = u32::MAX;

impl RegMap {
    fn new() -> Self {
        RegMap {
            slots: Box::new([(REG_EMPTY, 0); 256]),
            overflow: Vec::new(),
        }
    }

    /// Same contract as `HashMap::insert`: records `reg → seq` and
    /// returns the previously mapped sequence number, if any.
    fn insert(&mut self, reg: u32, seq: u64) -> Option<u64> {
        let slot = &mut self.slots[(reg & 255) as usize];
        if slot.0 == reg {
            return Some(std::mem::replace(&mut slot.1, seq));
        }
        if let Some(e) = self.overflow.iter_mut().find(|e| e.0 == reg) {
            return Some(std::mem::replace(&mut e.1, seq));
        }
        if slot.0 == REG_EMPTY {
            *slot = (reg, seq);
        } else {
            self.overflow.push((reg, seq));
        }
        None
    }

    fn get(&self, reg: u32) -> Option<u64> {
        let slot = self.slots[(reg & 255) as usize];
        if slot.0 == reg {
            return Some(slot.1);
        }
        if self.overflow.is_empty() {
            return None;
        }
        self.overflow.iter().find(|e| e.0 == reg).map(|e| e.1)
    }

    fn remove(&mut self, reg: u32) {
        let slot = &mut self.slots[(reg & 255) as usize];
        if slot.0 == reg {
            slot.0 = REG_EMPTY;
            return;
        }
        if let Some(i) = self.overflow.iter().position(|e| e.0 == reg) {
            self.overflow.swap_remove(i);
        }
    }
}

/// Sentinel sequence number: no (remaining) dependency in
/// [`Slot::src_seqs`], and the end of a waiter list.
const NO_DEP: u64 = u64::MAX;

/// Bucket bounds of the `cpu.window_occupancy` histogram.
const WINDOW_OCC_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

#[derive(Debug, Clone, Copy)]
struct Slot {
    inst: Inst,
    issued: bool,
    done_at: u64,
    mem_level: Option<ServiceLevel>,
    /// Last issue attempt was rejected by the memory system (MSHR
    /// contention); retry no earlier than `mem_retry_at`.
    mem_blocked: bool,
    mem_retry_at: u64,
    mispredicted: bool,
    resolved: bool,
    /// Producer sequence numbers of the source registers, resolved once
    /// at dispatch (register renaming). A producer still in flight sits
    /// at ring index `seq & mask` of [`Pipeline::window`], so the
    /// per-cycle wake-up check is flat array indexing with no hash
    /// lookups; entries flip to [`NO_DEP`] as producers complete so
    /// satisfied dependencies are never re-checked.
    src_seqs: [u64; 3],
    /// Head of the list of slots parked on this one (sequence numbers
    /// linked through [`Slot::next_waiter`]; [`NO_DEP`] when empty).
    /// See [`Pipeline::wake_at`].
    waiters: u64,
    /// Next slot parked on the same producer as this one.
    next_waiter: u64,
}

impl Slot {
    fn new(inst: Inst) -> Self {
        Slot {
            inst,
            issued: false,
            done_at: 0,
            mem_level: None,
            mem_blocked: false,
            mem_retry_at: 0,
            mispredicted: false,
            resolved: false,
            src_seqs: [NO_DEP; 3],
            waiters: NO_DEP,
            next_waiter: NO_DEP,
        }
    }
}

/// Running state of one issue scan, shared by both policies' walks
/// through [`Pipeline::examine`].
#[derive(Debug)]
struct Scan {
    /// Instructions issued so far this cycle.
    issued: u32,
    /// The rebuilt [`Pipeline::issue_scan_at`]: the minimum wake-up
    /// bound over the slots examined, clamped to `now + 1` by any early
    /// exit that leaves unissued slots unexamined.
    next: u64,
}

/// What [`Pipeline::examine`] did with a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    /// The slot issued.
    Issued,
    /// The slot stays unissued (skipped on its wake-up bound, blocked,
    /// or parked).
    Waiting,
    /// The scan must end here: the issue width is used up or a blocking
    /// load just issued.
    Stop,
}

/// What a slot's source operands wait for (see
/// [`Pipeline::sources_ready_at`]).
#[derive(Debug, Clone, Copy)]
enum SrcWait {
    /// Every producer has completed.
    Ready,
    /// Every pending producer has issued; the last completes at this
    /// cycle.
    Until(u64),
    /// The producer with this sequence number has not issued yet.
    Producer(u64),
}

/// A span under construction: lifecycle cycles gathered while the
/// instruction is in flight, completed into an
/// [`InstSpan`] at retirement.
#[derive(Debug, Clone, Copy, Default)]
struct SpanBuild {
    fetch: u64,
    dispatch: u64,
    issue: u64,
    complete: u64,
}

/// Tracing state attached to a pipeline (boxed so the untraced
/// `Pipeline` only grows by one pointer-sized `Option`).
///
/// `spans` parallels the window ring: an instruction's span is written
/// at fetch and dispatch and read at retirement through the same ring
/// index as its slot.
#[derive(Debug)]
struct PipeTracer {
    ring: SharedTraceRing,
    spans: Box<[SpanBuild]>,
    /// Instructions before this sequence number were fetched before the
    /// tracer was attached and have no recorded fetch cycle.
    untraced_until: u64,
}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Pipeline-side statistics (cycles, mix, attribution, branches).
    pub cpu: CpuStats,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Time-weighted L1 MSHR occupancy histogram.
    pub mshr_histogram: Vec<u64>,
    /// Observability metrics accumulated over the run: predictor
    /// training behaviour, RAS pressure, window occupancy, and the
    /// memory system's eviction / MSHR-peak counters.
    pub metrics: Registry,
}

impl Summary {
    /// Total execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.cpu.cycles
    }
}

/// The processor pipeline simulator.
///
/// See the crate documentation for an example.
#[derive(Debug)]
pub struct Pipeline {
    cfg: CpuConfig,
    mem: MemSystem,
    fus: FuPool,
    pred: AgreePredictor,
    ras: ReturnAddressStack,
    /// Fetched instructions beyond this many make `push` run cycles.
    fetch_cap: usize,
    /// The instruction window and fetch buffer: a ring of
    /// `window + fetch_cap + 1` rounded up to a power of two slots, so
    /// it holds every instruction from the oldest in flight to the
    /// newest fetched. The in-flight instructions are the sequence
    /// numbers `[head_seq, tail_seq)`, the fetched but undispatched ones
    /// `[tail_seq, fetch_tail)`, and instruction `seq` occupies ring
    /// index `seq & (len - 1)` (see [`Pipeline::ix`]) from fetch to
    /// retirement.
    window: Box<[Slot]>,
    /// Producer sequence number for every register whose producer has not
    /// retired yet; a missing entry means the value is available.
    produced: RegMap,
    /// Sequence number of the oldest in-flight instruction.
    head_seq: u64,
    /// Sequence number of the oldest fetched, undispatched instruction
    /// (the next to dispatch).
    tail_seq: u64,
    /// Sequence number the next fetched instruction takes.
    fetch_tail: u64,
    now: u64,
    /// Cycle at which the front end may dispatch again (`u64::MAX` while
    /// an unresolved mispredicted branch blocks it).
    fetch_resume_at: u64,
    unresolved_branches: u32,
    /// Sequence numbers of dispatched-but-unresolved branches.
    unresolved_seqs: Vec<u64>,
    /// Earliest cycle any unresolved branch can complete (the minimum
    /// `done_at` over the issued ones; `u64::MAX` when none is issued —
    /// an unissued branch cannot resolve, and issuing one lowers the
    /// bound). The per-cycle resolution scan is skipped until then.
    resolve_check_at: u64,
    /// Number of dispatched-but-unissued slots, parked ones included.
    /// Under the in-order policy issue is strictly in program order, so
    /// the unissued slots are always the contiguous range
    /// `[tail_seq - unissued, tail_seq)`.
    unissued: u32,
    /// One bit per ring index, set for every unissued slot that is not
    /// parked (`ceil(ring / 64)` words). The out-of-order scan walks the
    /// set bits in program order from `head_seq`; a slot leaves the
    /// bitmap when it issues or parks, and its producer's wake loop puts
    /// a parked slot back.
    waiting: Box<[u64]>,
    /// Lower bound on the next cycle any unissued slot could issue (the
    /// minimum of their [`Pipeline::wake_at`] bounds as of the last scan;
    /// parked slots contribute `u64::MAX`, since the chain they wait on
    /// ends at an unparked slot whose own bound is already included).
    /// While `now < issue_scan_at` the per-cycle issue scan is skipped
    /// entirely: during a long memory stall the window is full of
    /// instructions waiting on an in-flight load's immutable `done_at`,
    /// and walking them every cycle dominated the simulation profile.
    issue_scan_at: u64,
    /// Per unissued slot, a lower bound on the next cycle it could
    /// issue; the issue scan skips the slot while `now < wake_at`. Set
    /// from immutable facts only: an issued producer completes exactly
    /// at its `done_at`, and a rejected memory access retries no earlier
    /// than `mem_retry_at`. A slot waiting on an *unissued* producer is
    /// parked on that producer's [`Slot::waiters`] list with
    /// `wake_at = u64::MAX`; the producer lowers it to its own `done_at`
    /// when it issues.
    ///
    /// Indexed like [`Pipeline::window`] but kept apart from `Slot`:
    /// the scan's skip test, its most frequent operation, then reads one
    /// dense word instead of a window slot.
    wake_at: Box<[u64]>,
    /// Completion times of loads occupying memory-queue slots.
    inflight_loads: Vec<u64>,
    /// Earliest completion time in `inflight_loads` (`u64::MAX` when
    /// empty): the per-cycle prune only scans when a load can actually
    /// have completed, instead of a `retain` sweep every cycle.
    inflight_min: u64,
    /// Retired stores waiting to be accepted by the L1.
    store_buffer: VecDeque<(Request, u64)>,
    /// With `blocking_loads`, no instruction issues before this cycle.
    issue_blocked_until: u64,
    stats: CpuStats,
    /// Per-cycle instruction-window occupancy (sampled after dispatch):
    /// entry `n` counts the cycles that ended with `n` occupied slots.
    /// Folded into the `cpu.window_occupancy` histogram at the end.
    window_occ: Vec<u64>,
    /// Cycle at which the pipeline state last changed (watchdog anchor).
    last_progress: u64,
    /// First failure observed: watchdog wedge, model invariant, or a
    /// fault propagated from the memory system. Once set the simulation
    /// stops advancing and `try_finish` reports it.
    fault: Option<SimError>,
    /// Cycle-level tracing state; `None` (the default) in normal runs,
    /// where every hook is one never-taken branch.
    tracer: Option<Box<PipeTracer>>,
}

impl Pipeline {
    /// Build a pipeline over a fresh memory system.
    pub fn new(cfg: CpuConfig, mem_cfg: MemConfig) -> Self {
        let fus = FuPool::new(&cfg);
        let pred = AgreePredictor::new(cfg.predictor_entries);
        let ras = ReturnAddressStack::new(cfg.ras_entries);
        let stats = CpuStats::new(cfg.issue_width);
        let fetch_cap = (cfg.window as usize * 2).max(64);
        let ring = (cfg.window as usize + fetch_cap + 1).next_power_of_two();
        let vacant = Slot::new(Inst::compute(Op::IntAlu, 0, Reg::NONE, [Reg::NONE; 3]));
        Pipeline {
            fetch_cap,
            fus,
            pred,
            ras,
            window: vec![vacant; ring].into_boxed_slice(),
            produced: RegMap::new(),
            head_seq: 0,
            tail_seq: 0,
            fetch_tail: 0,
            now: 0,
            fetch_resume_at: 0,
            unresolved_branches: 0,
            unresolved_seqs: Vec::new(),
            resolve_check_at: u64::MAX,
            unissued: 0,
            waiting: vec![0; ring.div_ceil(64)].into_boxed_slice(),
            issue_scan_at: 0,
            wake_at: vec![0; ring].into_boxed_slice(),
            inflight_loads: Vec::new(),
            inflight_min: u64::MAX,
            store_buffer: VecDeque::new(),
            issue_blocked_until: 0,
            stats,
            window_occ: vec![0; cfg.window as usize + 1],
            last_progress: 0,
            fault: None,
            tracer: None,
            mem: MemSystem::new(mem_cfg),
            cfg,
        }
    }

    /// Number of in-flight (dispatched, unretired) instructions.
    fn occupancy(&self) -> usize {
        (self.tail_seq - self.head_seq) as usize
    }

    /// Number of fetched, undispatched instructions.
    fn fetch_len(&self) -> usize {
        (self.fetch_tail - self.tail_seq) as usize
    }

    /// The oldest in-flight instruction's slot, if any.
    fn front(&self) -> Option<&Slot> {
        (self.tail_seq != self.head_seq).then(|| &self.window[self.ix(self.head_seq)])
    }

    fn work_pending(&self) -> bool {
        self.fetch_tail != self.head_seq // fetched or in flight
            || !self.store_buffer.is_empty()
            || !self.inflight_loads.is_empty()
    }

    /// Run the simulation to completion and return the statistics, or
    /// the failure that stopped it: a watchdog-detected wedge
    /// ([`SimError::CycleBudget`]) or a violated model invariant
    /// ([`SimError::Invariant`], from this pipeline or the memory
    /// system).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] observed; the simulation stops at
    /// that point instead of hanging or corrupting statistics.
    pub fn try_finish(mut self) -> Result<Summary, SimError> {
        while self.fault.is_none() && self.work_pending() {
            self.cycle();
        }
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        let hist = self.mem.mshr_histogram(self.now);
        let mut metrics = Registry::new();
        let ps = self.pred.stats();
        metrics.set("cpu.predictor.updates", ps.updates);
        metrics.set("cpu.predictor.bias_agreements", ps.bias_agreements);
        metrics.set("cpu.predictor.flips", ps.flips);
        metrics.set("cpu.ras.overflows", self.ras.overflows());
        metrics.set("cpu.ras.underflows", self.ras.underflows());
        let mut window_occ = Histogram::new(&WINDOW_OCC_BOUNDS);
        for (occupancy, &n) in self.window_occ.iter().enumerate() {
            window_occ.observe_n(occupancy as u64, n);
        }
        metrics.insert_histogram("cpu.window_occupancy", window_occ);
        self.mem.export_metrics(&mut metrics);
        Ok(Summary {
            cpu: self.stats,
            mem: self.mem.stats().clone(),
            mshr_histogram: hist,
            metrics,
        })
    }

    /// Run the simulation to completion and return the statistics.
    ///
    /// # Panics
    ///
    /// Panics on a simulation fault; use [`Pipeline::try_finish`] in
    /// study runs that must degrade gracefully.
    pub fn finish(self) -> Summary {
        self.try_finish()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Restore an architectural checkpoint captured by
    /// [`crate::WarmingSink::checkpoint`]: predictor counters,
    /// return-address stack, and cache/MSHR residency. Must be called
    /// on a freshly built pipeline, before any instruction is pushed —
    /// the pipeline then observes its sample window on a warmed machine
    /// with clean statistics. The pipeline and the checkpoint must share
    /// the same processor and memory geometry.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the pipeline unusable — discard it) on
    /// geometry mismatch, malformed state, or trailing bytes.
    pub fn restore_checkpoint(&mut self, state: &[u8]) -> Result<(), String> {
        if self.now != 0 || self.fetch_len() != 0 || self.occupancy() != 0 {
            return Err("checkpoint restored into a running pipeline".into());
        }
        let mut r = ByteReader::new(state);
        self.pred.load_state(&mut r)?;
        self.ras.load_state(&mut r)?;
        self.mem.load_state(&mut r)?;
        r.done()
    }

    /// Zero the statistics a sampled window reports — the cycle /
    /// retirement / stall-attribution accumulators and the
    /// window-occupancy histogram — while leaving every piece of
    /// machine state (caches, predictor, RAS, in-flight instructions,
    /// the current cycle) untouched. The sampled runner calls this at
    /// the boundary between a window's detailed warm-up span and its
    /// measured span, so the measurement starts from a *busy* pipeline
    /// instead of the empty one a checkpoint restore leaves behind,
    /// without the warm-up's cycles contaminating the estimate.
    ///
    /// Instructions in flight at the reset retire into the measured
    /// statistics (and the measured span's own tail drains past its
    /// last push) — the two edges model the steady state a window cut
    /// from a longer run would see, which is exactly what the
    /// extrapolation assumes.
    pub fn reset_stats(&mut self) {
        self.stats = CpuStats::new(self.cfg.issue_width);
        self.window_occ.fill(0);
    }

    /// The first failure observed so far, if any.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// The processor configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Ring index of the instruction with sequence number `seq` in
    /// [`Pipeline::window`], [`Pipeline::wake_at`] and
    /// [`Pipeline::waiting`].
    fn ix(&self, seq: u64) -> usize {
        seq as usize & (self.window.len() - 1)
    }

    /// Put ring index `ix` into the waiting-slot bitmap.
    fn set_waiting(&mut self, ix: usize) {
        self.waiting[ix / 64] |= 1 << (ix % 64);
    }

    /// Take ring index `ix` out of the waiting-slot bitmap.
    fn clear_waiting(&mut self, ix: usize) {
        self.waiting[ix / 64] &= !(1 << (ix % 64));
    }

    fn mem_queue_used(&self) -> usize {
        self.inflight_loads.len() + self.store_buffer.len()
    }

    fn record_fault(&mut self, fault: SimError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    /// Occupancy/depth fingerprint: unchanged across a cycle means the
    /// machine made no externally-visible progress that cycle.
    fn progress_signature(&self) -> (u64, usize, usize, usize, usize) {
        (
            self.head_seq,
            self.occupancy(),
            self.fetch_len(),
            self.store_buffer.len(),
            self.inflight_loads.len(),
        )
    }

    /// State dump attached to a watchdog abort (DESIGN.md-level detail:
    /// enough to localize a wedged model without rerunning).
    fn wedge_diagnostic(&self) -> String {
        let oldest = match self.front() {
            Some(s) => format!(
                "seq {} op {:?} pc {:#x} issued={} done_at={} mem_blocked={} retry_at={} resolved={}",
                self.head_seq,
                s.inst.op,
                s.inst.pc,
                s.issued,
                s.done_at,
                s.mem_blocked,
                s.mem_retry_at,
                s.resolved
            ),
            None => "none".into(),
        };
        format!(
            "window {}/{} fetch_q {} store_buffer {} inflight_loads {} \
             unissued {} fetch_resume_at {} unresolved_branches {} \
             issue_blocked_until {}; oldest un-retired: {oldest}",
            self.occupancy(),
            self.cfg.window,
            self.fetch_len(),
            self.store_buffer.len(),
            self.inflight_loads.len(),
            self.unissued,
            self.fetch_resume_at,
            self.unresolved_branches,
            self.issue_blocked_until
        )
    }

    /// Fast-forward over cycles in which every pipeline stage is a
    /// provable no-op, accounting them in bulk.
    ///
    /// Each stage is already guarded by a lower bound on the next cycle
    /// it can act (`inflight_min`, `resolve_check_at`, `issue_scan_at`,
    /// the front slot's `done_at`, `fetch_resume_at`, the store buffer's
    /// retry time). When *all* of those bounds lie in the future, the
    /// intervening cycles only run the per-cycle accounting — the same
    /// `(0, stall)` attribution and window occupancy every time, because
    /// no stage mutates any state they read — so they can be added in
    /// one step. The skip stops at the earliest bound (clamped to the
    /// watchdog deadline so a wedged model still faults at the exact
    /// same cycle), which keeps every statistic, fault, and text output
    /// byte-identical to the cycle-by-cycle loop.
    fn idle_skip(&mut self) {
        if self.tracer.is_some() {
            return; // traced runs sample the ring every cycle
        }
        let now = self.now;
        if self.inflight_min <= now || self.resolve_check_at <= now {
            return;
        }
        let mut next = self.inflight_min.min(self.resolve_check_at);
        // Retire: blocked on the front slot; its stall classification is
        // constant while no other stage acts.
        let stall = match self.front() {
            Some(s) if !s.issued => {
                if s.inst.op.is_mem() && s.mem_blocked {
                    StallClass::L1Hit
                } else {
                    StallClass::FuStall
                }
            }
            Some(s) => {
                if s.done_at <= now {
                    return; // retires this cycle
                }
                next = next.min(s.done_at);
                match s.mem_level {
                    Some(level) if level.is_l1_miss() => StallClass::L1Miss,
                    Some(_) => StallClass::L1Hit,
                    None if s.inst.op.is_mem() => StallClass::L1Hit,
                    None => StallClass::FuStall,
                }
            }
            None => StallClass::FuStall,
        };
        // Issue.
        if self.unissued != 0 {
            let mut eligible_at = self.issue_scan_at;
            if self.cfg.blocking_loads {
                eligible_at = eligible_at.max(self.issue_blocked_until);
            }
            if eligible_at <= now {
                return;
            }
            next = next.min(eligible_at);
        }
        // Dispatch.
        if self.fetch_len() != 0 && self.occupancy() < self.cfg.window as usize {
            if self.fetch_resume_at > now {
                next = next.min(self.fetch_resume_at);
            } else if let Some(b) = self.window[self.ix(self.tail_seq)].inst.branch {
                if self.unresolved_branches >= self.cfg.max_spec_branches {
                    // Blocked until a branch resolves; resolution is
                    // bounded by the resolve/issue bounds above.
                } else if b.taken && self.cfg.taken_per_cycle == 0 {
                    // Permanently blocked: only the watchdog ends this.
                } else {
                    return; // dispatches this cycle
                }
            } else {
                return; // dispatches this cycle
            }
        }
        // Stores.
        if let Some(&(_, retry_at)) = self.store_buffer.front() {
            if retry_at <= now {
                return;
            }
            next = next.min(retry_at);
        }
        // Let the watchdog cycle itself run normally so a wedge faults
        // at the exact cycle the unskipped loop would report.
        next = next.min(
            self.last_progress
                .saturating_add(self.cfg.watchdog_cycles)
                .saturating_add(1),
        );
        if next <= now {
            return;
        }
        let n = next - now;
        self.stats.account_idle(n, stall);
        let occupancy = self.occupancy();
        self.window_occ[occupancy] += n;
        self.now = next;
    }

    fn cycle(&mut self) {
        self.idle_skip();
        let sig = self.progress_signature();
        let now = self.now;
        if let Some(t) = self.tracer.as_mut() {
            // Keep the shared ring's clock current so hook sites without
            // their own notion of time (predictor, cache evictions) can
            // timestamp events.
            t.ring.borrow_mut().set_now(now);
        }
        // Lazy prune: only scan when the earliest deadline has arrived;
        // completed loads swap-remove out (order is irrelevant, only the
        // occupancy count matters).
        if self.inflight_min <= now {
            let mut min = u64::MAX;
            let mut i = 0;
            while i < self.inflight_loads.len() {
                let t = self.inflight_loads[i];
                if t <= now {
                    self.inflight_loads.swap_remove(i);
                } else {
                    min = min.min(t);
                    i += 1;
                }
            }
            self.inflight_min = min;
        }
        self.resolve_branches();
        let (retired, stall) = self.retire();
        self.issue();
        self.dispatch();
        self.drain_stores();
        self.stats.account_cycle(retired, stall);
        if let Some(t) = self.tracer.as_mut() {
            // Same (retired, stall) inputs as `account_cycle`, so the
            // ring's attribution equals the aggregate exactly.
            t.ring
                .borrow_mut()
                .sample(retired, stall.map(StallClass::to_trace));
        }
        let occupancy = self.occupancy();
        self.window_occ[occupancy] += 1;
        // Fault propagation and the cycle-budget watchdog. A wedged
        // model (an instruction that can never retire) would otherwise
        // spin this loop forever; a violated memory-model invariant
        // would silently corrupt the statistics.
        if let Some(fault) = self.mem.take_fault() {
            self.record_fault(fault);
        }
        if self.mem_queue_used() > self.cfg.mem_queue as usize {
            self.record_fault(SimError::Invariant {
                model: "pipeline",
                detail: format!(
                    "memory queue oversubscribed: {} in flight, capacity {}",
                    self.mem_queue_used(),
                    self.cfg.mem_queue
                ),
            });
        }
        if self.progress_signature() != sig {
            self.last_progress = self.now;
        } else if self.now - self.last_progress > self.cfg.watchdog_cycles && self.work_pending() {
            self.record_fault(SimError::CycleBudget {
                cycle: self.now,
                diagnostic: self.wedge_diagnostic(),
            });
        }
        self.now += 1;
    }

    /// Mark completed branches resolved; a resolved misprediction
    /// re-opens the front end after the refill penalty. Skipped until
    /// [`Pipeline::resolve_check_at`] — a branch resolves exactly at its
    /// issued `done_at`, so scanning earlier can never find one.
    fn resolve_branches(&mut self) {
        let now = self.now;
        if now < self.resolve_check_at {
            return;
        }
        let mask = self.window.len() - 1;
        let window = &mut self.window;
        let penalty = self.cfg.mispredict_penalty;
        let mut resolved_misp_at = None;
        let mut resolved = 0u32;
        let mut next_check = u64::MAX;
        // Swap-remove scan: order is irrelevant (at most one mispredicted
        // branch is ever in flight, since fetch stalls until it resolves).
        let seqs = &mut self.unresolved_seqs;
        let mut i = 0;
        while i < seqs.len() {
            let slot = &mut window[seqs[i] as usize & mask];
            if slot.issued && slot.done_at <= now {
                slot.resolved = true;
                resolved += 1;
                if slot.mispredicted {
                    resolved_misp_at = Some(slot.done_at);
                }
                seqs.swap_remove(i);
            } else {
                if slot.issued {
                    next_check = next_check.min(slot.done_at);
                }
                i += 1;
            }
        }
        self.resolve_check_at = next_check;
        self.unresolved_branches -= resolved;
        if let Some(done_at) = resolved_misp_at {
            self.fetch_resume_at = done_at + penalty;
        }
    }

    /// Retire up to `issue_width` completed instructions in order.
    /// Returns the retired count and the stall class of the first
    /// instruction that could not retire.
    fn retire(&mut self) -> (u32, Option<StallClass>) {
        let mut retired = 0;
        while retired < self.cfg.issue_width {
            let Some(slot) = self.front() else {
                return (retired, Some(StallClass::FuStall));
            };
            if !slot.issued {
                let class = if slot.inst.op.is_mem() && slot.mem_blocked {
                    StallClass::L1Hit // MSHR / memory-structure contention
                } else {
                    StallClass::FuStall
                };
                return (retired, Some(class));
            }
            if slot.done_at > self.now {
                let class = match slot.mem_level {
                    Some(level) if level.is_l1_miss() => StallClass::L1Miss,
                    Some(_) => StallClass::L1Hit,
                    None if slot.inst.op.is_mem() => StallClass::L1Hit,
                    None => StallClass::FuStall,
                };
                return (retired, Some(class));
            }
            // Stores and prefetches enter the memory queue at
            // retirement and need a slot there.
            if let Some(mem) = slot.inst.mem {
                if mem.kind.is_store() || mem.kind == MemKind::Prefetch {
                    if self.mem_queue_used() >= self.cfg.mem_queue as usize {
                        return (retired, Some(StallClass::L1Hit));
                    }
                    self.store_buffer
                        .push_back((Request::new(mem.addr, mem.size, mem.kind), self.now));
                }
            }
            let ix = self.ix(self.head_seq);
            let Inst { pc, op, dst, .. } = self.window[ix].inst;
            if let Some(t) = self.tracer.as_mut() {
                let sb = t.spans[ix];
                t.ring.borrow_mut().span(InstSpan {
                    seq: self.head_seq,
                    pc,
                    op: op.name(),
                    fetch: sb.fetch,
                    dispatch: sb.dispatch,
                    issue: sb.issue,
                    complete: sb.complete,
                    retire: self.now,
                });
            }
            self.head_seq += 1;
            if dst.is_some() {
                self.produced.remove(dst.0);
            }
            self.stats.note_retired(op);
            retired += 1;
        }
        (retired, None)
    }

    /// Check the slot's dispatch-time renamed dependency list: are all
    /// its producers complete, and if not, what is it waiting for? An
    /// issued producer completes exactly at its immutable `done_at`; an
    /// unissued one is named so the caller can park the slot on it.
    /// Satisfied entries flip to [`NO_DEP`] in place, so a dependency is
    /// checked at most once after it completes — no hash lookups on this
    /// path (the `produced` map is only consulted once per instruction,
    /// at dispatch).
    fn sources_ready_at(&mut self, ix: usize) -> SrcWait {
        let before = self.window[ix].src_seqs;
        if before == [NO_DEP; 3] {
            return SrcWait::Ready;
        }
        let mut deps = before;
        let mut bound = 0u64;
        let mut unissued = NO_DEP;
        for d in deps.iter_mut() {
            if *d == NO_DEP {
                continue;
            }
            if *d < self.head_seq {
                *d = NO_DEP; // producer retired
                continue;
            }
            let p = &self.window[self.ix(*d)];
            if !p.issued {
                unissued = *d;
            } else if p.done_at <= self.now {
                *d = NO_DEP;
            } else {
                bound = bound.max(p.done_at);
            }
        }
        if deps != before {
            self.window[ix].src_seqs = deps;
        }
        if unissued != NO_DEP {
            SrcWait::Producer(unissued)
        } else if bound > 0 {
            SrcWait::Until(bound)
        } else {
            SrcWait::Ready
        }
    }

    /// Issue ready instructions in program order (the in-order policy
    /// stops at the first unissued instruction that cannot go).
    ///
    /// The scan skips every slot whose `wake_at` lies in the future and
    /// is itself gated on `issue_scan_at` (the minimum of those bounds).
    /// A blocked slot gets its bound from immutable completion times and
    /// next-cycle-at-the-earliest conservatism, or, when a producer has
    /// not issued, parks on that producer until it does: a consumer
    /// cannot issue before its producer's `done_at`, which is at least
    /// the producer's issue cycle plus one. So the cycle at which each
    /// instruction actually issues — and every observable statistic — is
    /// identical to the exhaustive per-cycle scan, while a dependence
    /// chain behind a cache miss costs one examination per link instead
    /// of one per link per cycle.
    ///
    /// The in-order policy walks its contiguous unissued range from the
    /// oldest entry; the out-of-order policy walks the set bits of
    /// [`Pipeline::waiting`] in ring order from `head_seq`, which is
    /// program order and never visits a parked slot.
    fn issue(&mut self) {
        let now = self.now;
        if self.cfg.blocking_loads && now < self.issue_blocked_until {
            return;
        }
        if self.unissued == 0 || now < self.issue_scan_at {
            return; // provably nothing can issue this cycle
        }
        let mut scan = Scan {
            issued: 0,
            next: u64::MAX,
        };
        if self.cfg.policy == IssuePolicy::InOrder {
            let mut seq = self.tail_seq - self.unissued as u64;
            while seq < self.tail_seq && self.examine(seq, &mut scan) == Visit::Issued {
                seq += 1;
            }
        } else {
            // Ring order from the head: the head word's bits at and above
            // the head, every later word, then (wrapping) the words before
            // it and the head word's bits below the head. Each word is
            // read once, so a waiter woken into a word already read is
            // not visited this cycle; its `wake_at` lies in the future
            // and the wake loop already folded it into `scan.next`.
            let mask = self.window.len() - 1;
            let head = self.head_seq;
            let head_ix = self.ix(head);
            let words = self.waiting.len();
            let (w0, b0) = (head_ix / 64, head_ix % 64);
            'scan: for k in 0..=words {
                let w = (w0 + k) & (words - 1); // a power of two, like the ring
                let mut bits = self.waiting[w];
                if k == 0 {
                    bits &= !0 << b0;
                } else if k == words {
                    bits &= !(!0 << b0);
                }
                while bits != 0 {
                    let ix = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let seq = head + (ix.wrapping_sub(head_ix) & mask) as u64;
                    if self.examine(seq, &mut scan) == Visit::Stop {
                        break 'scan;
                    }
                }
            }
        }
        self.issue_scan_at = scan.next;
    }

    /// Examine the unissued slot `seq` for issue this cycle: the skip
    /// test, the source check, memory/FU issue, then waking its parked
    /// consumers or parking or bounding the slot itself.
    fn examine(&mut self, seq: u64, scan: &mut Scan) -> Visit {
        let now = self.now;
        if scan.issued >= self.cfg.issue_width {
            scan.next = scan.next.min(now + 1);
            return Visit::Stop;
        }
        let ix = self.ix(seq);
        let wake_at = self.wake_at[ix];
        if now < wake_at {
            // Cannot issue yet (bound argument above); skip without
            // touching dependence or memory state. Flipping satisfied
            // deps to NO_DEP merely happens later, which no statistic
            // observes.
            scan.next = scan.next.min(wake_at);
            return Visit::Waiting;
        }
        let Inst {
            op, mem, branch, ..
        } = self.window[ix].inst;
        let wait = self.sources_ready_at(ix);
        let issued = if !matches!(wait, SrcWait::Ready)
            || (self.window[ix].mem_blocked && now < self.window[ix].mem_retry_at)
        {
            false
        } else if let Some(mem) = mem {
            self.try_issue_mem(ix, mem, op)
        } else if self.fus.try_issue(op, now) {
            let slot = &mut self.window[ix];
            slot.issued = true;
            slot.done_at = now + op.latency(&self.cfg.lat) as u64;
            true
        } else {
            false
        };

        if issued {
            self.clear_waiting(ix);
            self.unissued -= 1;
            let done_at = self.window[ix].done_at;
            if let Some(t) = self.tracer.as_mut() {
                let sb = &mut t.spans[ix];
                sb.issue = now;
                sb.complete = done_at;
            }
            if branch.is_some() {
                // An unresolved branch just gained a completion time.
                self.resolve_check_at = self.resolve_check_at.min(done_at);
            }
            // Wake the slots parked on this one: none can issue before
            // this value exists.
            let mut w = std::mem::replace(&mut self.window[ix].waiters, NO_DEP);
            while w != NO_DEP {
                let wix = self.ix(w);
                self.wake_at[wix] = done_at;
                self.set_waiting(wix);
                w = self.window[wix].next_waiter;
                scan.next = scan.next.min(done_at);
            }
            scan.issued += 1;
            if self.cfg.blocking_loads && self.issue_blocked_until > now {
                scan.next = scan.next.min(now + 1);
                return Visit::Stop; // a blocking load was just issued
            }
            Visit::Issued
        } else {
            if let SrcWait::Producer(p) = wait {
                // Park on the unissued producer; it sets `wake_at` and
                // puts the slot back into `waiting` when it issues. A
                // slot that reads its own destination parks on itself
                // and stays unissued until the watchdog fires.
                let pix = self.ix(p);
                let head = std::mem::replace(&mut self.window[pix].waiters, seq);
                self.window[ix].next_waiter = head;
                self.wake_at[ix] = u64::MAX;
                self.clear_waiting(ix);
            } else {
                // Memory contention carries its own retry bound; a busy
                // functional unit (or a structural reject) may clear next
                // cycle.
                let dep_bound = match wait {
                    SrcWait::Until(t) => t,
                    _ => 0,
                };
                let slot = &self.window[ix];
                let mem_bound = if slot.mem_blocked {
                    slot.mem_retry_at
                } else {
                    0
                };
                let wake_at = dep_bound.max(mem_bound).max(now + 1);
                self.wake_at[ix] = wake_at;
                scan.next = scan.next.min(wake_at);
            }
            Visit::Waiting
        }
    }

    /// Issue the memory instruction at ring index `ix`. Returns false
    /// when it must keep waiting.
    fn try_issue_mem(&mut self, ix: usize, mem: MemRef, op: Op) -> bool {
        let now = self.now;
        let is_store = mem.kind.is_store();
        let is_prefetch = mem.kind == MemKind::Prefetch;
        if !is_store && !is_prefetch && self.mem_queue_used() >= self.cfg.mem_queue as usize {
            return false; // loads need a memory-queue slot
        }
        if !self.fus.try_issue(op, now) {
            return false; // both AGUs busy this cycle
        }
        if is_store || is_prefetch {
            // Address generation only; stores and (non-binding)
            // prefetches drain through the memory queue after
            // retirement, so they never stall the core directly.
            let slot = &mut self.window[ix];
            slot.issued = true;
            slot.done_at = now + 1;
            return true;
        }
        let req = Request::new(mem.addr, mem.size, mem.kind);
        match self.mem.access(req, now + 1) {
            Ok(r) => {
                let slot = &mut self.window[ix];
                slot.issued = true;
                slot.done_at = r.done_at;
                slot.mem_level = Some(r.level);
                self.inflight_loads.push(r.done_at);
                self.inflight_min = self.inflight_min.min(r.done_at);
                if self.cfg.blocking_loads {
                    self.issue_blocked_until = r.done_at;
                }
                true
            }
            Err(rej) => {
                // Demand accesses wait for MSHR capacity and retry.
                let slot = &mut self.window[ix];
                slot.mem_blocked = true;
                slot.mem_retry_at = rej.retry_at.max(now + 1);
                false
            }
        }
    }

    /// Dispatch fetched instructions into the window. The next one is
    /// the ring slot at `tail_seq`, written at fetch; dispatch renames
    /// it in place.
    fn dispatch(&mut self) {
        if self.now < self.fetch_resume_at {
            return;
        }
        let mut dispatched = 0;
        let mut taken = 0;
        while dispatched < self.cfg.issue_width
            && self.occupancy() < self.cfg.window as usize
            && self.tail_seq != self.fetch_tail
        {
            let seq = self.tail_seq;
            let ix = self.ix(seq);
            let Inst {
                pc,
                dst,
                srcs,
                branch,
                ..
            } = self.window[ix].inst;
            // Branch limits are checked before consuming the instruction.
            if let Some(b) = branch {
                if self.unresolved_branches >= self.cfg.max_spec_branches {
                    break;
                }
                if b.taken && taken >= self.cfg.taken_per_cycle {
                    break;
                }
            }
            if let Some(t) = self.tracer.as_mut() {
                let sb = &mut t.spans[ix];
                // Instructions pushed before the tracer was attached
                // have no recorded fetch cycle; fall back to now.
                if seq < t.untraced_until {
                    sb.fetch = self.now;
                }
                sb.dispatch = self.now;
            }
            if dst.is_some() {
                let prev = self.produced.insert(dst.0, seq);
                // The emitter allocates SSA-style registers; an in-flight
                // duplicate destination would corrupt the scoreboard.
                // Checked in release builds so a corrupted emitter stream
                // fails a study run loudly instead of producing garbage
                // cycle counts.
                if prev.is_some() {
                    self.record_fault(SimError::Invariant {
                        model: "pipeline",
                        detail: format!(
                            "destination register {dst:?} reused while in flight at pc {pc:#x} (seq {seq})"
                        ),
                    });
                }
            }
            // Rename: resolve each source register to its producer's
            // sequence number now, so the issue loop never touches the
            // register map again for this instruction. The destination
            // is registered first so a (corrupt, non-SSA) instruction
            // that reads its own destination still deadlocks against
            // itself — the watchdog's wedged-model case — exactly as
            // the issue-time scoreboard lookup did.
            let mut src_seqs = [NO_DEP; 3];
            for (k, r) in srcs.iter().enumerate() {
                if r.is_some() {
                    if let Some(pseq) = self.produced.get(r.0) {
                        src_seqs[k] = pseq;
                    }
                }
            }
            let mut mispredicted = false;
            if let Some(b) = branch {
                self.unresolved_branches += 1;
                self.unresolved_seqs.push(seq);
                let correct = match b.kind {
                    BranchKind::Cond => {
                        self.stats.cond_branches += 1;
                        let p = self.pred.predict(pc, b.backward);
                        self.pred.update(pc, b.backward, b.taken);
                        let ok = p == b.taken;
                        if !ok {
                            self.stats.mispredicts += 1;
                        }
                        ok
                    }
                    BranchKind::Jump => true,
                    BranchKind::Call => {
                        self.ras.push(b.target);
                        true
                    }
                    BranchKind::Ret => {
                        let ok = self.ras.pop_matches(b.target);
                        if !ok {
                            self.stats.ras_mispredicts += 1;
                        }
                        ok
                    }
                };
                if b.taken {
                    taken += 1;
                }
                if !correct {
                    mispredicted = true;
                    if let Some(t) = self.tracer.as_mut() {
                        t.ring
                            .borrow_mut()
                            .instant(InstantKind::BranchMispredict, pc, 0);
                    }
                }
            }
            let slot = &mut self.window[ix];
            slot.src_seqs = src_seqs;
            slot.mispredicted = mispredicted;
            self.wake_at[ix] = 0;
            self.set_waiting(ix);
            self.unissued += 1;
            self.tail_seq += 1;
            self.issue_scan_at = 0;
            if mispredicted {
                // Fetch stalls until this branch resolves.
                self.fetch_resume_at = u64::MAX;
                return;
            }
            dispatched += 1;
        }
    }

    /// Try to hand buffered stores to the L1 (up to one per port per
    /// cycle); rejected stores retry and back the queue up, reproducing
    /// the paper's write-backup MSHR contention.
    fn drain_stores(&mut self) {
        let ports = self.mem.config().l1.ports;
        for _ in 0..ports {
            let Some(&(req, retry_at)) = self.store_buffer.front() else {
                return;
            };
            if retry_at > self.now {
                return;
            }
            match self.mem.access(req, self.now) {
                Ok(_) => {
                    self.store_buffer.pop_front();
                }
                Err(rej) => {
                    self.store_buffer[0].1 = rej.retry_at.max(self.now + 1);
                    return;
                }
            }
        }
    }
}

impl SimSink for Pipeline {
    fn push(&mut self, inst: Inst) {
        // Once faulted, stop simulating and drop the instruction: the
        // workload keeps pushing (it cannot observe the failure
        // mid-emit), the fetch buffer stays bounded, and `try_finish`
        // reports the fault.
        if self.fault.is_some() {
            return;
        }
        let ix = self.ix(self.fetch_tail);
        self.window[ix] = Slot::new(inst);
        if let Some(t) = self.tracer.as_mut() {
            t.spans[ix].fetch = self.now;
        }
        self.fetch_tail += 1;
        while self.fetch_len() > self.fetch_cap && self.fault.is_none() {
            self.cycle();
        }
    }
}

impl Pipeline {
    /// Attach `ring`; subsequent simulation records lifecycle spans,
    /// instant events, and per-cycle stall samples into it. Normal runs
    /// never attach one, and every tracing hook hides behind one
    /// `Option` check, so the untraced simulation is unchanged.
    pub fn attach_tracer(&mut self, ring: SharedTraceRing) {
        ring.borrow_mut().set_width(self.cfg.issue_width);
        self.pred.attach_tracer(ring.clone());
        self.mem.attach_tracer(ring.clone());
        self.tracer = Some(Box::new(PipeTracer {
            ring,
            spans: vec![SpanBuild::default(); self.window.len()].into_boxed_slice(),
            untraced_until: self.fetch_tail,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visim_isa::BranchInfo;

    #[test]
    fn the_ring_holds_the_window_and_the_fetch_buffer() {
        for window in [16, 64, 100, 128, 200] {
            for base in [CpuConfig::inorder_4way(), CpuConfig::ooo_4way()] {
                let cfg = CpuConfig { window, ..base };
                let mut p = Pipeline::new(cfg, MemConfig::default());
                let ring = p.window.len();
                assert!(ring > window as usize + p.fetch_cap, "window {window}");
                // Dependence chains, loads and branches, so the window
                // fills, stalls and drains while fetch keeps pushing.
                let n = 4 * ring as u32 + 17;
                for k in 0..n {
                    let pc = 0x1000 + 4 * (k % 97) as u64;
                    let src = if k % 3 == 0 { Reg::NONE } else { Reg(k - 1) };
                    let inst = match k % 10 {
                        3 => Inst::memory(
                            Op::Load,
                            pc,
                            Reg(k),
                            [src, Reg::NONE, Reg::NONE],
                            MemRef {
                                addr: 0x10_0000 + 8 * (k as u64 * 37 % 4096),
                                size: 8,
                                kind: MemKind::Load,
                            },
                        ),
                        7 => Inst::control(
                            Op::Branch,
                            pc,
                            [src, Reg::NONE, Reg::NONE],
                            BranchInfo::cond(k % 20 != 7, true),
                        ),
                        _ => Inst::compute(Op::IntAlu, pc, Reg(k), [src, Reg::NONE, Reg::NONE]),
                    };
                    p.push(inst);
                    assert!(p.fetch_len() <= p.fetch_cap + 1, "window {window}");
                    assert!(p.fault().is_none(), "window {window}: {:?}", p.fault());
                }
                let st = p.finish();
                assert_eq!(st.cpu.retired, n as u64, "window {window}");
            }
        }
    }

    #[test]
    fn a_faulted_pipeline_drops_further_pushes() {
        for cfg in [CpuConfig::inorder_1way(), CpuConfig::ooo_4way()] {
            let cfg = CpuConfig {
                watchdog_cycles: 1,
                ..cfg
            };
            let mut p = Pipeline::new(cfg, MemConfig::default());
            // Reads its own destination: parks on itself and wedges.
            p.push(Inst::compute(
                Op::IntAlu,
                0x100,
                Reg(7),
                [Reg(7), Reg::NONE, Reg::NONE],
            ));
            for k in 0..100_000u32 {
                p.push(Inst::compute(Op::IntAlu, 0x104, Reg(8 + k), [Reg::NONE; 3]));
                assert!(p.fetch_len() <= p.fetch_cap + 1, "fetch buffer grew");
            }
            assert!(p.fault().is_some(), "the wedge faulted");
            match p.try_finish() {
                Err(SimError::CycleBudget { diagnostic, .. }) => {
                    assert!(diagnostic.contains("pc 0x100"), "{diagnostic}");
                    assert!(diagnostic.contains("issued=false"), "{diagnostic}");
                }
                other => panic!("expected the original CycleBudget fault, got {other:?}"),
            }
        }
    }
}
