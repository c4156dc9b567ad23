//! The two-level memory system: composition of ports, tag arrays, MSHRs
//! and interleaved memory banks.

use visim_isa::MemKind;
use visim_obs::codec::{ByteReader, ByteWriter};
use visim_obs::trace::{InstantKind, SharedTraceRing};
use visim_util::SimError;

use crate::cache::{Lookup, TagArray};
use crate::config::MemConfig;
use crate::mshr::{MshrFile, MshrOffer, MshrReject};
use crate::stats::MemStats;

/// Where a request was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Resident in the first-level cache.
    L1,
    /// First-level miss, second-level hit.
    L2,
    /// Missed both caches and went to a memory bank.
    Memory,
}

impl ServiceLevel {
    /// True if the paper's execution-time attribution buckets this access
    /// under "L1 miss" (anything that left the L1).
    pub fn is_l1_miss(self) -> bool {
        !matches!(self, ServiceLevel::L1)
    }

    /// Numeric level used in trace events (1 = L1, 2 = L2, 3 = memory).
    fn trace_level(self) -> u8 {
        match self {
            ServiceLevel::L1 => 1,
            ServiceLevel::L2 => 2,
            ServiceLevel::Memory => 3,
        }
    }
}

/// A memory request offered to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Virtual address.
    pub addr: u64,
    /// Size in bytes.
    pub size: u8,
    /// Load/store/prefetch flavour.
    pub kind: MemKind,
}

impl Request {
    /// Convenience constructor.
    pub fn new(addr: u64, size: u8, kind: MemKind) -> Self {
        Request { addr, size, kind }
    }
}

/// Successful access: when the data is available (loads) or the write is
/// globally performed (stores), and where it was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Completion cycle.
    pub done_at: u64,
    /// Cache level that serviced the request.
    pub level: ServiceLevel,
    /// The request merged into an MSHR already in flight.
    pub merged: bool,
}

/// The access could not be accepted this cycle (MSHR contention); retry
/// no earlier than `retry_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Earliest cycle at which a retry can succeed.
    pub retry_at: u64,
}

/// Round-robin-by-availability port scheduler: each port accepts one
/// request per cycle.
#[derive(Debug, Clone)]
struct Ports {
    next_free: Vec<u64>,
}

impl Ports {
    fn new(n: u32) -> Self {
        Ports {
            next_free: vec![0; n.max(1) as usize],
        }
    }

    /// Reserve the earliest slot at or after `now`; returns its cycle.
    fn reserve(&mut self, now: u64) -> u64 {
        let p = self
            .next_free
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("at least one port");
        let start = now.max(*p);
        *p = start + 1;
        start
    }
}

/// Interleaved memory banks; consecutive lines map to consecutive banks.
#[derive(Debug, Clone)]
struct Banks {
    next_free: Vec<u64>,
    busy: u64,
    line_shift: u32,
}

impl Banks {
    fn new(n: u32, busy: u64, line: u64) -> Self {
        Banks {
            next_free: vec![0; n.max(1) as usize],
            busy,
            line_shift: line.trailing_zeros(),
        }
    }

    fn index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) % self.next_free.len()
    }

    /// Reserve the bank owning `addr` at or after `now`; returns the
    /// cycle the transfer starts.
    fn reserve(&mut self, addr: u64, now: u64) -> u64 {
        let b = self.index(addr);
        let start = now.max(self.next_free[b]);
        self.next_free[b] = start + self.busy;
        start
    }
}

/// The complete memory hierarchy (L1 + L2 + banks) of Table 3.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemConfig,
    l1: TagArray,
    l2: TagArray,
    l1_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    l1_ports: Ports,
    l2_ports: Ports,
    banks: Banks,
    stats: MemStats,
    /// First invariant violation observed (release-mode checks; the
    /// pipeline polls this every cycle and aborts the study run).
    fault: Option<SimError>,
    /// Shared trace ring (hit/miss/prefetch instants); the tag arrays
    /// and MSHR files hold their own clones.
    tracer: Option<SharedTraceRing>,
}

impl MemSystem {
    /// Build a memory system from its configuration.
    pub fn new(cfg: MemConfig) -> Self {
        let l1 = TagArray::new(cfg.l1.sets(cfg.line), cfg.l1.assoc, cfg.line);
        let l2 = TagArray::new(cfg.l2.sets(cfg.line), cfg.l2.assoc, cfg.line);
        MemSystem {
            l1,
            l2,
            l1_mshrs: MshrFile::new(cfg.l1.mshrs, cfg.mshr_max_merges),
            l2_mshrs: MshrFile::new(cfg.l2.mshrs, cfg.mshr_max_merges),
            l1_ports: Ports::new(cfg.l1.ports),
            l2_ports: Ports::new(cfg.l2.ports),
            banks: Banks::new(cfg.banks, cfg.bank_busy, cfg.line),
            stats: MemStats::default(),
            fault: None,
            tracer: None,
            cfg,
        }
    }

    /// Attach a trace ring: cache hits/misses, evictions, MSHR
    /// allocate/drain, and prefetch issues emit instant events from now
    /// on. Untraced systems never take this path.
    pub fn attach_tracer(&mut self, ring: SharedTraceRing) {
        self.l1.attach_tracer(ring.clone(), 1);
        self.l2.attach_tracer(ring.clone(), 2);
        self.l1_mshrs.attach_tracer(ring.clone(), 1);
        self.l2_mshrs.attach_tracer(ring.clone(), 2);
        self.tracer = Some(ring);
    }

    fn trace_instant(&self, cycle: u64, kind: InstantKind, addr: u64, level: u8) {
        if let Some(ring) = &self.tracer {
            ring.borrow_mut().instant_at(cycle, kind, addr, level);
        }
    }

    fn record_fault(&mut self, model: &'static str, detail: String) {
        if self.fault.is_none() {
            self.fault = Some(SimError::Invariant { model, detail });
        }
    }

    /// The first invariant violation observed, if any.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Take the first invariant violation observed, if any. The caller
    /// (normally the pipeline) converts it into a failed simulation.
    ///
    /// The pipeline polls this every cycle, and almost every poll finds
    /// nothing recorded: that case returns before touching any of the
    /// three slots.
    pub fn take_fault(&mut self) -> Option<SimError> {
        if self.fault.is_none() && !self.l1_mshrs.has_violation() && !self.l2_mshrs.has_violation()
        {
            return None;
        }
        if let Some(v) = self.l1_mshrs.take_violation() {
            self.record_fault("mshr", format!("L1 {v}"));
        }
        if let Some(v) = self.l2_mshrs.take_violation() {
            self.record_fault("mshr", format!("L2 {v}"));
        }
        self.fault.take()
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Time-weighted L1 MSHR occupancy histogram up to `now`.
    pub fn mshr_histogram(&mut self, now: u64) -> Vec<u64> {
        self.l1_mshrs.occupancy_histogram(now)
    }

    /// Current number of in-flight L1 misses.
    pub fn inflight_misses(&mut self, now: u64) -> usize {
        self.l1_mshrs.occupancy(now)
    }

    /// Highest L1 MSHR occupancy observed so far.
    pub fn mshr_peak(&self) -> u32 {
        self.l1_mshrs.peak()
    }

    /// Export the memory-side observability counters that the
    /// [`MemStats`] struct does not carry — eviction activity from the
    /// tag arrays and the MSHR occupancy peaks — into a metrics
    /// registry (`mem.*` namespace).
    pub fn export_metrics(&self, reg: &mut visim_obs::Registry) {
        reg.set("mem.l1_evictions", self.l1.evictions());
        reg.set("mem.l1_dirty_evictions", self.l1.dirty_evictions());
        reg.set("mem.l2_evictions", self.l2.evictions());
        reg.set("mem.l2_dirty_evictions", self.l2.dirty_evictions());
        reg.set("mem.l1_mshr_peak", self.l1_mshrs.peak() as u64);
        reg.set("mem.l2_mshr_peak", self.l2_mshrs.peak() as u64);
    }

    /// True when `addr`'s line is resident in the L1 (testing helper).
    pub fn l1_contains(&self, addr: u64) -> bool {
        self.l1.contains(addr)
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line - 1)
    }

    /// Offer one request to the hierarchy at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`Rejection`] when MSHR capacity or the per-line merge
    /// limit is exhausted; the caller should retry at `retry_at` (demand
    /// accesses) or drop the request (prefetches — the drop is counted
    /// here).
    pub fn access(&mut self, req: Request, now: u64) -> Result<AccessResult, Rejection> {
        // Release-mode invariant (was a debug_assert): a hostile or
        // corrupted emitter stream must fail the study run loudly, not
        // silently account a line-straddling access to one line.
        let well_formed = req.size > 0
            && req.size as u64 <= self.cfg.line
            && (req.kind.bypasses_cache()
                || req
                    .addr
                    .checked_add(req.size as u64 - 1)
                    .is_some_and(|end| self.line_of(req.addr) == self.line_of(end)));
        if !well_formed {
            self.record_fault(
                "mem",
                format!("access must not straddle a cache line: {req:?}"),
            );
        }
        if req.kind.bypasses_cache() {
            return Ok(self.bypass(req, now));
        }
        let is_store = req.kind.is_store();
        let is_prefetch = req.kind == MemKind::Prefetch;
        let line = self.line_of(req.addr);
        if is_prefetch {
            self.trace_instant(now, InstantKind::PrefetchIssue, req.addr, 0);
        } else {
            self.stats.l1_accesses += 1;
        }

        // 1. Merge into an in-flight miss if one exists for this line.
        if self.l1_mshrs.inflight(line, now) {
            match self.l1_mshrs.offer(line, now, !is_prefetch) {
                Ok(MshrOffer::Merged {
                    fill_at,
                    prefetch_inflight,
                }) => {
                    if is_prefetch {
                        self.stats.prefetches_unnecessary += 1;
                        self.stats.prefetches_issued += 1;
                        return Ok(AccessResult {
                            done_at: now,
                            level: ServiceLevel::L1,
                            merged: true,
                        });
                    }
                    self.stats.l1_merged_misses += 1;
                    self.trace_instant(
                        now,
                        InstantKind::L1Miss,
                        req.addr,
                        ServiceLevel::L2.trace_level(),
                    );
                    if prefetch_inflight {
                        self.stats.prefetches_late += 1;
                    }
                    if is_store {
                        self.l1.note_pending_store(line);
                    }
                    return Ok(AccessResult {
                        done_at: fill_at,
                        level: ServiceLevel::L2, // conservatively beyond-L1
                        merged: true,
                    });
                }
                Ok(MshrOffer::Primary) => unreachable!("inflight line cannot be primary"),
                Err(reject) => return Err(self.reject(reject, is_prefetch)),
            }
        }

        // 2. L1 port and tag lookup.
        let t0 = self.l1_ports.reserve(now);
        if let Some(prefetched) = self.l1.hit_touch(req.addr, is_store) {
            if is_prefetch {
                self.stats.prefetches_issued += 1;
                self.stats.prefetches_unnecessary += 1;
            } else {
                self.stats.l1_hits += 1;
                self.trace_instant(t0, InstantKind::L1Hit, req.addr, 1);
                if prefetched {
                    self.stats.prefetches_useful += 1;
                }
            }
            return Ok(AccessResult {
                done_at: t0 + self.cfg.l1.hit,
                level: ServiceLevel::L1,
                merged: false,
            });
        }

        // 3. Primary miss: allocate an MSHR (may reject).
        match self.l1_mshrs.offer(line, t0, !is_prefetch) {
            Ok(MshrOffer::Primary) => {}
            Ok(_) => unreachable!("no in-flight entry for this line"),
            Err(reject) => return Err(self.reject(reject, is_prefetch)),
        }
        if is_prefetch {
            self.stats.prefetches_issued += 1;
        } else {
            self.stats.l1_primary_misses += 1;
        }

        // 4. Request travels to L2 after the L1 detects the miss.
        let (fill_at, level) = self.l2_request(line, t0 + self.cfg.l1.hit);
        self.l1_mshrs.set_fill_time(line, fill_at);
        if !is_prefetch {
            self.trace_instant(t0, InstantKind::L1Miss, req.addr, level.trace_level());
        }

        // 5. Install in L1 tags; write back a dirty victim to the L2.
        let fill = self.l1.fill(req.addr, is_store, is_prefetch);
        if let Lookup::Miss {
            victim: Some(v),
            victim_dirty: true,
        } = fill
        {
            self.stats.writebacks_l1 += 1;
            let t = self.l2_ports.reserve(fill_at);
            if self.l2.hit_touch(v, true).is_none() {
                // Non-inclusive hierarchy: a dirty L1 victim absent from
                // the L2 goes straight to its memory bank.
                self.banks.reserve(v, t);
                self.stats.writebacks_l2 += 1;
            }
        }

        Ok(AccessResult {
            done_at: fill_at,
            level,
            merged: false,
        })
    }

    /// L2 and memory portion of a primary L1 miss; returns the L1 fill
    /// time and final service level.
    fn l2_request(&mut self, line: u64, earliest: u64) -> (u64, ServiceLevel) {
        self.stats.l2_accesses += 1;
        let mut t1 = self.l2_ports.reserve(earliest);

        // Merge with an in-flight L2 miss for the same line.
        if self.l2_mshrs.inflight(line, t1) {
            if let Ok(MshrOffer::Merged { fill_at, .. }) = self.l2_mshrs.offer(line, t1, true) {
                self.stats.l2_misses += 1;
                return (fill_at, ServiceLevel::Memory);
            }
            // Merge limit hit at the L2: wait for the fill instead.
        }

        if self.l2.hit_touch(line, false).is_some() {
            self.stats.l2_hits += 1;
            return (t1 + self.cfg.l2.hit, ServiceLevel::L2);
        }

        // L2 miss. Allocate an L2 MSHR, waiting out full conditions.
        self.stats.l2_misses += 1;
        loop {
            match self.l2_mshrs.offer(line, t1, true) {
                Ok(MshrOffer::Primary) => break,
                Ok(MshrOffer::Merged { fill_at, .. }) => return (fill_at, ServiceLevel::Memory),
                Err(MshrReject::Full { free_at })
                | Err(MshrReject::MergesExhausted { free_at }) => t1 = t1.max(free_at),
            }
        }
        let start = self.banks.reserve(line, t1 + self.cfg.l2.hit);
        let fill_at = start + self.cfg.mem_latency;
        self.l2_mshrs.set_fill_time(line, fill_at);

        // Install in L2 tags; dirty victims go to their memory bank.
        if let Lookup::Miss {
            victim: Some(v),
            victim_dirty: true,
        } = self.l2.fill(line, false, false)
        {
            self.stats.writebacks_l2 += 1;
            self.banks.reserve(v, fill_at);
        }
        (fill_at, ServiceLevel::Memory)
    }

    /// Cache-bypassing block transfer (VIS block load/store).
    fn bypass(&mut self, req: Request, now: u64) -> AccessResult {
        self.stats.bypass_accesses += 1;
        let start = self.banks.reserve(req.addr, now);
        AccessResult {
            done_at: start + self.cfg.mem_latency,
            level: ServiceLevel::Memory,
            merged: false,
        }
    }

    /// Serialize the architectural memory state — both tag arrays and
    /// both MSHR files, with in-flight fills rebased so the capture
    /// instant `now` becomes the restored system's cycle 0 — into `w`.
    ///
    /// Reservation state (ports, banks) and statistics are deliberately
    /// excluded: a restored system models its sample window in
    /// isolation, starting from idle resources and zeroed counters.
    pub fn save_state(&mut self, w: &mut ByteWriter, now: u64) {
        w.put_u64(self.cfg.line);
        self.l1.save_state(w);
        self.l2.save_state(w);
        self.l1_mshrs.save_state(w, now);
        self.l2_mshrs.save_state(w, now);
    }

    /// Restore a [`MemSystem::save_state`] snapshot taken under the
    /// same configuration. Ports, banks, statistics, and any pending
    /// fault are reset. On error the system is partially written and
    /// must be discarded by the caller.
    pub fn load_state(&mut self, r: &mut ByteReader) -> Result<(), String> {
        let line = r.u64()?;
        if line != self.cfg.line {
            return Err(format!(
                "line-size mismatch: snapshot {line}, system {}",
                self.cfg.line
            ));
        }
        self.l1.load_state(r)?;
        self.l2.load_state(r)?;
        self.l1_mshrs.load_state(r)?;
        self.l2_mshrs.load_state(r)?;
        self.l1_ports = Ports::new(self.cfg.l1.ports);
        self.l2_ports = Ports::new(self.cfg.l2.ports);
        self.banks = Banks::new(self.cfg.banks, self.cfg.bank_busy, self.cfg.line);
        self.stats = MemStats::default();
        self.fault = None;
        Ok(())
    }

    /// Functionally warm the hierarchy with one access at pseudo-time
    /// `idx` (the dynamic instruction index, standing in for a cycle
    /// count between detailed sample windows).
    ///
    /// This is the fast-forward path of sampled simulation: it updates
    /// residency, recency, dirty bits, and MSHR-visible miss state —
    /// everything the next detailed window's timing depends on — but
    /// reserves no ports or banks and never rejects. Where the timing
    /// model would reject and retry, the retry's eventual outcome is
    /// applied immediately (the rejection is still counted), so the
    /// functional miss counters stay meaningful while the contention
    /// counters remain timing-approximate.
    pub fn warm_access(&mut self, req: Request, idx: u64) {
        let well_formed = req.size > 0
            && req.size as u64 <= self.cfg.line
            && (req.kind.bypasses_cache()
                || req
                    .addr
                    .checked_add(req.size as u64 - 1)
                    .is_some_and(|end| self.line_of(req.addr) == self.line_of(end)));
        if !well_formed {
            self.record_fault(
                "mem",
                format!("access must not straddle a cache line: {req:?}"),
            );
        }
        if req.kind.bypasses_cache() {
            self.stats.bypass_accesses += 1;
            return;
        }
        let is_store = req.kind.is_store();
        let is_prefetch = req.kind == MemKind::Prefetch;
        let line = self.line_of(req.addr);
        if !is_prefetch {
            self.stats.l1_accesses += 1;
        }

        // Merge into an in-flight miss. The line is already resident in
        // the tags (fills install eagerly), so a rejected demand access
        // resolves, after the retry the timing model would perform, as
        // an L1 hit once the fill completes.
        if self.l1_mshrs.inflight(line, idx) {
            match self.l1_mshrs.offer(line, idx, !is_prefetch) {
                Ok(MshrOffer::Merged {
                    prefetch_inflight, ..
                }) => {
                    if is_prefetch {
                        self.stats.prefetches_issued += 1;
                        self.stats.prefetches_unnecessary += 1;
                    } else {
                        self.stats.l1_merged_misses += 1;
                        if prefetch_inflight {
                            self.stats.prefetches_late += 1;
                        }
                        if is_store {
                            self.l1.note_pending_store(line);
                        }
                    }
                    return;
                }
                Ok(MshrOffer::Primary) => unreachable!("inflight line cannot be primary"),
                Err(reject) => {
                    self.reject(reject, is_prefetch);
                    if !is_prefetch {
                        self.stats.l1_hits += 1;
                        if self.l1.hit_touch(req.addr, is_store) == Some(true) {
                            self.stats.prefetches_useful += 1;
                        }
                    }
                    return;
                }
            }
        }

        // L1 tag lookup (no port reservation on the warming path).
        if let Some(prefetched) = self.l1.hit_touch(req.addr, is_store) {
            if is_prefetch {
                self.stats.prefetches_issued += 1;
                self.stats.prefetches_unnecessary += 1;
            } else {
                self.stats.l1_hits += 1;
                if prefetched {
                    self.stats.prefetches_useful += 1;
                }
            }
            return;
        }

        // Primary miss. Allocate an MSHR when one is free; a full file
        // is counted as a rejection but the fill proceeds anyway — the
        // timing model's retry always succeeds eventually.
        match self.l1_mshrs.offer(line, idx, !is_prefetch) {
            Ok(MshrOffer::Primary) => {
                self.l1_mshrs
                    .set_fill_time(line, idx + self.cfg.mem_latency);
            }
            Ok(_) => unreachable!("no in-flight entry for this line"),
            Err(reject) => {
                self.reject(reject, is_prefetch);
                if is_prefetch {
                    return; // rejected prefetches are dropped
                }
            }
        }
        if is_prefetch {
            self.stats.prefetches_issued += 1;
        } else {
            self.stats.l1_primary_misses += 1;
        }

        // L2 functional lookup, mirroring `l2_request` without timing.
        self.stats.l2_accesses += 1;
        if self.l2_mshrs.inflight(line, idx) {
            let _ = self.l2_mshrs.offer(line, idx, true);
            self.stats.l2_misses += 1;
        } else if self.l2.hit_touch(line, false).is_some() {
            self.stats.l2_hits += 1;
        } else {
            self.stats.l2_misses += 1;
            if let Ok(MshrOffer::Primary) = self.l2_mshrs.offer(line, idx, true) {
                self.l2_mshrs
                    .set_fill_time(line, idx + self.cfg.mem_latency);
            }
            if let Lookup::Miss {
                victim: Some(_),
                victim_dirty: true,
            } = self.l2.fill(line, false, false)
            {
                self.stats.writebacks_l2 += 1;
            }
        }

        // Install in L1 tags; dirty victims write back toward the L2.
        if let Lookup::Miss {
            victim: Some(v),
            victim_dirty: true,
        } = self.l1.fill(req.addr, is_store, is_prefetch)
        {
            self.stats.writebacks_l1 += 1;
            if self.l2.hit_touch(v, true).is_none() {
                self.stats.writebacks_l2 += 1;
            }
        }
    }

    fn reject(&mut self, reject: MshrReject, is_prefetch: bool) -> Rejection {
        if is_prefetch {
            self.stats.prefetches_rejected += 1;
        } else {
            match reject {
                MshrReject::Full { .. } => self.stats.rejects_mshr_full += 1,
                MshrReject::MergesExhausted { .. } => self.stats.rejects_merge_limit += 1,
            }
        }
        let retry_at = match reject {
            MshrReject::Full { free_at } | MshrReject::MergesExhausted { free_at } => free_at,
        };
        Rejection { retry_at }
    }
}
