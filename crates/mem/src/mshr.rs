//! Miss-status holding registers with request merging.
//!
//! Each cache level owns a small file of MSHRs. A primary miss allocates
//! an entry for its line; subsequent accesses to the same line *merge*
//! into the entry (up to `max_merges` total requests). When no entry is
//! free, or an entry's merge capacity is exhausted, the access is
//! rejected and the requester must retry — this is the "MSHR contention"
//! behaviour the paper traces back to bursts of small writes
//! (e.g. 64 one-byte pixel stores per 64-byte line).

use visim_obs::codec::{ByteReader, ByteWriter};
use visim_obs::trace::{InstantKind, SharedTraceRing};

/// Reason an MSHR request could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MshrReject {
    /// All MSHRs are occupied by other lines.
    Full {
        /// Earliest cycle at which an entry frees up.
        free_at: u64,
    },
    /// The line has an entry but its merge capacity is exhausted.
    MergesExhausted {
        /// Cycle at which the entry's fill completes.
        free_at: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    fill_at: u64,
    merges: u32,
    prefetch_only: bool,
}

/// An MSHR file for one cache level.
#[derive(Debug, Clone)]
pub(crate) struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    max_merges: u32,
    // Occupancy accounting: integral of occupancy over time.
    occupancy_cycles: Vec<u64>,
    last_change: u64,
    /// Number of *live* entries — fills completing after `last_change`.
    /// (Entries whose fill already completed linger until the next
    /// `expire` retains them away.)
    live_count: usize,
    /// Earliest fill completion among the live entries (`u64::MAX` when
    /// none): the accounting and expiry fast paths skip their entry
    /// scans entirely until a fill can actually have completed. A bound
    /// that is transiently too low only splits an interval where nothing
    /// changes, which leaves the integral identical.
    next_live_fill: u64,
    peak: u32,
    /// First release-mode invariant violation observed (polled by the
    /// owning `MemSystem` and surfaced as a `SimError::Invariant`).
    violation: Option<String>,
    /// Trace ring plus the cache level this file belongs to (1 = L1,
    /// 2 = L2); allocations and drains emit instants when attached.
    tracer: Option<(SharedTraceRing, u8)>,
}

/// Result of offering a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MshrOffer {
    /// Primary miss: a new entry was allocated; caller must start the
    /// fill and later confirm its completion time via `set_fill_time`.
    Primary,
    /// Secondary miss: merged into an in-flight fill completing at the
    /// given cycle.
    Merged {
        fill_at: u64,
        /// The in-flight fill was initiated by a prefetch (late prefetch).
        prefetch_inflight: bool,
    },
}

impl MshrFile {
    pub fn new(capacity: u32, max_merges: u32) -> Self {
        MshrFile {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            max_merges,
            occupancy_cycles: vec![0; capacity as usize + 1],
            last_change: 0,
            live_count: 0,
            next_live_fill: u64::MAX,
            peak: 0,
            violation: None,
            tracer: None,
        }
    }

    pub fn attach_tracer(&mut self, ring: SharedTraceRing, level: u8) {
        self.tracer = Some((ring, level));
    }

    fn record_violation(&mut self, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(detail);
        }
    }

    /// Whether an invariant violation is waiting to be taken.
    pub fn has_violation(&self) -> bool {
        self.violation.is_some()
    }

    /// Take the first invariant violation observed, if any.
    pub fn take_violation(&mut self) -> Option<String> {
        self.violation.take()
    }

    fn expire(&mut self, now: u64) {
        self.account(now);
        if self.live_count == self.entries.len() {
            return; // every fill is still in the future; nothing to drain
        }
        if let Some((ring, level)) = &self.tracer {
            let mut ring = ring.borrow_mut();
            for e in self.entries.iter().filter(|e| e.fill_at <= now) {
                ring.instant_at(e.fill_at, InstantKind::MshrDrain, e.line, *level);
            }
        }
        self.entries.retain(|e| e.fill_at > now);
        // The retained set is exactly the live set (`account` advanced
        // `last_change` to `now`).
        debug_assert_eq!(self.entries.len(), self.live_count);
    }

    /// Advance the occupancy integral to `now`, splitting the elapsed
    /// interval at every fill completion inside it. The common case —
    /// no fill completes before `now` — is O(1) via the cached live-set
    /// aggregates; only an actual completion rescans the entries.
    fn account(&mut self, now: u64) {
        while now > self.last_change {
            if self.next_live_fill > now {
                // Constant occupancy across the whole elapsed interval
                // (strict: a fill at exactly `now` leaves the live set
                // once `last_change` reaches it).
                let occ = self.live_count.min(self.capacity);
                self.occupancy_cycles[occ] += now - self.last_change;
                self.last_change = now;
                return;
            }
            // A fill completes inside the interval: account up to it,
            // then rebuild the live-set aggregates.
            let upto = self.next_live_fill;
            let occ = self.live_count.min(self.capacity);
            self.occupancy_cycles[occ] += upto - self.last_change;
            self.last_change = upto;
            let mut cnt = 0;
            let mut nf = u64::MAX;
            for e in &self.entries {
                if e.fill_at > self.last_change {
                    cnt += 1;
                    nf = nf.min(e.fill_at);
                }
            }
            self.live_count = cnt;
            self.next_live_fill = nf;
        }
    }

    /// Offer a miss for `line` at cycle `now`. `demand` is false for
    /// prefetch-initiated fills.
    pub fn offer(&mut self, line: u64, now: u64, demand: bool) -> Result<MshrOffer, MshrReject> {
        self.expire(now);
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            if e.merges >= self.max_merges {
                return Err(MshrReject::MergesExhausted { free_at: e.fill_at });
            }
            e.merges += 1;
            let was_prefetch = e.prefetch_only;
            if demand {
                e.prefetch_only = false;
            }
            return Ok(MshrOffer::Merged {
                fill_at: e.fill_at,
                prefetch_inflight: was_prefetch,
            });
        }
        if self.entries.len() >= self.capacity {
            let free_at = self
                .entries
                .iter()
                .map(|e| e.fill_at)
                .min()
                .expect("full file is non-empty");
            return Err(MshrReject::Full { free_at });
        }
        self.entries.push(Entry {
            line,
            fill_at: u64::MAX, // fixed up by set_fill_time
            merges: 1,
            prefetch_only: !demand,
        });
        self.live_count += 1; // fill pending: live by construction
        if let Some((ring, level)) = &self.tracer {
            ring.borrow_mut()
                .instant_at(now, InstantKind::MshrAlloc, line, *level);
        }
        if self.entries.len() > self.capacity {
            self.record_violation(format!(
                "occupancy {} exceeds capacity {} after allocating line {line:#x}",
                self.entries.len(),
                self.capacity
            ));
        }
        self.peak = self.peak.max(self.entries.len() as u32);
        Ok(MshrOffer::Primary)
    }

    /// Record the fill-completion time of the most recent primary
    /// allocation for `line`.
    pub fn set_fill_time(&mut self, line: u64, fill_at: u64) {
        match self.entries.iter_mut().find(|e| e.line == line) {
            Some(e) => {
                let was_live = e.fill_at > self.last_change;
                e.fill_at = fill_at;
                if fill_at > self.last_change {
                    if !was_live {
                        self.live_count += 1;
                    }
                    self.next_live_fill = self.next_live_fill.min(fill_at);
                } else if was_live {
                    // Fill reported in the already-accounted past; the
                    // stale `next_live_fill` bound only causes a no-op
                    // interval split.
                    self.live_count -= 1;
                }
            }
            // A fill-time report for a line with no entry means the
            // caller's allocation bookkeeping is corrupted.
            None => self.record_violation(format!(
                "set_fill_time({line:#x}, {fill_at}) but no MSHR entry holds that line"
            )),
        }
    }

    /// True if `line` has an in-flight fill at `now`.
    pub fn inflight(&mut self, line: u64, now: u64) -> bool {
        self.expire(now);
        self.entries.iter().any(|e| e.line == line)
    }

    /// Current number of in-flight entries at `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.entries.len()
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Time-weighted occupancy histogram: `hist[k]` = cycles spent with
    /// exactly `k` entries in flight, up to `now`.
    pub fn occupancy_histogram(&mut self, now: u64) -> Vec<u64> {
        self.account(now);
        self.occupancy_cycles.clone()
    }

    /// Serialize the in-flight miss set, with every fill time rebased so
    /// the capture instant `now` becomes the restored file's cycle 0.
    /// The occupancy integral and peak are not captured: a restored file
    /// accounts its sample window from a clean slate.
    pub fn save_state(&mut self, w: &mut ByteWriter, now: u64) {
        self.expire(now);
        w.put_u32(self.capacity as u32);
        w.put_u32(self.max_merges);
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_u64(e.line);
            // `expire` retained only fills strictly in the future, so
            // the rebased time is >= 1 (or still the unset sentinel).
            let rel = if e.fill_at == u64::MAX {
                u64::MAX
            } else {
                e.fill_at - now
            };
            w.put_u64(rel);
            w.put_u32(e.merges);
            w.put_u8(e.prefetch_only as u8);
        }
    }

    /// Restore a [`MshrFile::save_state`] snapshot, validating geometry
    /// and every structural bound; on error the file must be discarded.
    pub fn load_state(&mut self, r: &mut ByteReader) -> Result<(), String> {
        let capacity = r.u32()? as usize;
        let max_merges = r.u32()?;
        if capacity != self.capacity || max_merges != self.max_merges {
            return Err(format!(
                "MSHR geometry mismatch: snapshot {capacity}x{max_merges}, \
                 file {}x{}",
                self.capacity, self.max_merges
            ));
        }
        let n = r.u32()? as usize;
        if n > capacity {
            return Err(format!("snapshot holds {n} entries, capacity {capacity}"));
        }
        let mut entries = Vec::with_capacity(n);
        let mut next_fill = u64::MAX;
        for _ in 0..n {
            let line = r.u64()?;
            let fill_at = r.u64()?;
            let merges = r.u32()?;
            let flag = r.u8()?;
            if merges == 0 || merges > max_merges {
                return Err(format!("invalid merge count {merges}"));
            }
            if flag > 1 {
                return Err(format!("invalid prefetch flag {flag:#x}"));
            }
            if fill_at == 0 {
                return Err(format!("already-expired fill for line {line:#x}"));
            }
            if entries.iter().any(|e: &Entry| e.line == line) {
                return Err(format!("duplicate MSHR entry for line {line:#x}"));
            }
            next_fill = next_fill.min(fill_at);
            entries.push(Entry {
                line,
                fill_at,
                merges,
                prefetch_only: flag != 0,
            });
        }
        self.live_count = entries.len();
        self.peak = entries.len() as u32;
        self.entries = entries;
        self.occupancy_cycles = vec![0; self.capacity + 1];
        self.last_change = 0;
        self.next_live_fill = next_fill;
        self.violation = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merge() {
        let mut m = MshrFile::new(2, 3);
        assert_eq!(m.offer(0x40, 0, true), Ok(MshrOffer::Primary));
        m.set_fill_time(0x40, 100);
        match m.offer(0x40, 1, true) {
            Ok(MshrOffer::Merged { fill_at, .. }) => assert_eq!(fill_at, 100),
            other => panic!("{other:?}"),
        }
        // Third request still merges (3 total), fourth rejected.
        assert!(matches!(
            m.offer(0x40, 2, true),
            Ok(MshrOffer::Merged { .. })
        ));
        assert_eq!(
            m.offer(0x40, 3, true),
            Err(MshrReject::MergesExhausted { free_at: 100 })
        );
    }

    #[test]
    fn full_file_rejects_new_lines() {
        let mut m = MshrFile::new(2, 8);
        m.offer(0x40, 0, true).unwrap();
        m.set_fill_time(0x40, 50);
        m.offer(0x80, 0, true).unwrap();
        m.set_fill_time(0x80, 80);
        assert_eq!(
            m.offer(0xc0, 1, true),
            Err(MshrReject::Full { free_at: 50 })
        );
        // After the first fill completes there is room again.
        assert_eq!(m.offer(0xc0, 51, true), Ok(MshrOffer::Primary));
        assert_eq!(m.occupancy(51), 2);
    }

    #[test]
    fn entries_expire_at_fill_time() {
        let mut m = MshrFile::new(1, 8);
        m.offer(0x40, 0, true).unwrap();
        m.set_fill_time(0x40, 10);
        assert_eq!(m.occupancy(5), 1);
        assert_eq!(m.occupancy(10), 0);
        // Same line misses again later: new primary.
        assert_eq!(m.offer(0x40, 11, true), Ok(MshrOffer::Primary));
    }

    #[test]
    fn prefetch_inflight_reported_to_demand_merge() {
        let mut m = MshrFile::new(2, 8);
        m.offer(0x40, 0, false).unwrap(); // prefetch
        m.set_fill_time(0x40, 100);
        match m.offer(0x40, 5, true) {
            Ok(MshrOffer::Merged {
                prefetch_inflight, ..
            }) => assert!(prefetch_inflight, "late prefetch detected"),
            other => panic!("{other:?}"),
        }
        // A second demand merge no longer reports prefetch.
        match m.offer(0x40, 6, true) {
            Ok(MshrOffer::Merged {
                prefetch_inflight, ..
            }) => assert!(!prefetch_inflight),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_fill_time_is_an_invariant_violation() {
        let mut m = MshrFile::new(2, 8);
        m.offer(0x40, 0, true).unwrap();
        m.set_fill_time(0x40, 10);
        assert!(m.take_violation().is_none());
        // Reporting a fill for a line that holds no entry is a model bug
        // and must be caught in release builds.
        m.set_fill_time(0x1c0, 30);
        let v = m.take_violation().expect("violation recorded");
        assert!(v.contains("0x1c0"), "{v}");
        assert!(m.take_violation().is_none(), "violation is taken once");
    }

    #[test]
    fn snapshot_round_trip_rebases_fill_times() {
        let mut m = MshrFile::new(4, 8);
        m.offer(0x40, 0, true).unwrap();
        m.set_fill_time(0x40, 100);
        m.offer(0x80, 5, false).unwrap(); // prefetch-only entry
        m.set_fill_time(0x80, 120);
        m.offer(0xc0, 6, true).unwrap();
        m.set_fill_time(0xc0, 8); // expires before the capture instant

        let mut w = ByteWriter::new();
        m.save_state(&mut w, 10);
        let bytes = w.into_bytes();

        let mut f = MshrFile::new(4, 8);
        let mut r = ByteReader::new(&bytes);
        f.load_state(&mut r).unwrap();
        r.done().unwrap();

        // The expired entry was dropped; live fills rebased to now=10.
        assert_eq!(f.occupancy(0), 2);
        match f.offer(0x40, 1, true) {
            Ok(MshrOffer::Merged { fill_at, .. }) => assert_eq!(fill_at, 90),
            other => panic!("{other:?}"),
        }
        match f.offer(0x80, 2, true) {
            Ok(MshrOffer::Merged {
                prefetch_inflight, ..
            }) => assert!(prefetch_inflight, "prefetch-only flag survives"),
            other => panic!("{other:?}"),
        }
        // Restoring at cycle 0 re-encodes the same snapshot bytes.
        let mut g = MshrFile::new(4, 8);
        let mut r = ByteReader::new(&bytes);
        g.load_state(&mut r).unwrap();
        let mut w2 = ByteWriter::new();
        g.save_state(&mut w2, 0);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn snapshot_geometry_and_bounds_rejected() {
        let mut m = MshrFile::new(2, 8);
        m.offer(0x40, 0, true).unwrap();
        m.set_fill_time(0x40, 100);
        let mut w = ByteWriter::new();
        m.save_state(&mut w, 0);
        let bytes = w.into_bytes();
        // Wrong capacity.
        let mut f = MshrFile::new(4, 8);
        assert!(f.load_state(&mut ByteReader::new(&bytes)).is_err());
        // Wrong merge limit.
        let mut f = MshrFile::new(2, 4);
        assert!(f.load_state(&mut ByteReader::new(&bytes)).is_err());
        // Corrupt merge count (offset 12 opens the first entry: 8-byte
        // line, 8-byte fill, then the 4-byte merge count at 28).
        let mut bad = bytes.clone();
        bad[28] = 0;
        let mut f = MshrFile::new(2, 8);
        assert!(f.load_state(&mut ByteReader::new(&bad)).is_err());
    }

    #[test]
    fn occupancy_histogram_integrates_time() {
        let mut m = MshrFile::new(2, 8);
        m.offer(0x40, 0, true).unwrap();
        m.set_fill_time(0x40, 10);
        m.offer(0x80, 5, true).unwrap();
        m.set_fill_time(0x80, 20);
        let h = m.occupancy_histogram(20);
        // 0..5 with 1 entry, 5..10 with 2, 10..20 with 1.
        assert_eq!(h[1], 5 + 10);
        assert_eq!(h[2], 5);
        assert_eq!(m.peak(), 2);
    }
}
