//! Behavioural tests of the composed memory hierarchy.

use visim_isa::MemKind;
use visim_mem::{MemConfig, MemSystem, Request, ServiceLevel};

fn load(addr: u64) -> Request {
    Request::new(addr, 8, MemKind::Load)
}

fn store(addr: u64) -> Request {
    Request::new(addr, 8, MemKind::Store)
}

/// A tiny configuration that is easy to exhaust in tests.
fn tiny() -> MemConfig {
    let mut c = MemConfig::default();
    c.l1.size = 1 << 10; // 1 KB, 2-way, 8 sets
    c.l1.mshrs = 2;
    c.l2.size = 4 << 10;
    c.mshr_max_merges = 2;
    c
}

#[test]
fn cold_miss_goes_to_memory_then_hits_in_l1() {
    let mut m = MemSystem::new(MemConfig::default());
    let r = m.access(load(0x1_0000), 0).unwrap();
    assert_eq!(r.level, ServiceLevel::Memory);
    // L1 detect (2) + L2 lookup (20) + memory (100) = 122.
    assert_eq!(r.done_at, 122);
    let r2 = m.access(load(0x1_0000), r.done_at).unwrap();
    assert_eq!(r2.level, ServiceLevel::L1);
    assert_eq!(r2.done_at, r.done_at + 2);
    assert_eq!(m.stats().l1_hits, 1);
    assert_eq!(m.stats().l1_primary_misses, 1);
}

#[test]
fn l2_hit_is_cheaper_than_memory() {
    let mut m = MemSystem::new(MemConfig::default());
    let r = m.access(load(0x2_0000), 0).unwrap();
    // Evict it from L1 only: L1 is 64K 2-way; two more lines in the same
    // L1 set (stride 32K) evict it, but 128K 4-way L2 keeps it.
    m.access(load(0x2_0000 + 32 * 1024), 200).unwrap();
    m.access(load(0x2_0000 + 64 * 1024), 400).unwrap();
    let r2 = m.access(load(0x2_0000), 600).unwrap();
    assert_eq!(r2.level, ServiceLevel::L2, "should hit in L2");
    assert!(r2.done_at - 600 < r.done_at, "L2 hit far cheaper than DRAM");
    assert_eq!(m.stats().l2_hits, 1);
}

#[test]
fn secondary_miss_merges_and_completes_with_the_fill() {
    let mut m = MemSystem::new(MemConfig::default());
    let r1 = m.access(load(0x3_0000), 0).unwrap();
    let r2 = m.access(load(0x3_0008), 1).unwrap();
    assert!(r2.merged);
    assert_eq!(r2.done_at, r1.done_at, "merged request rides the fill");
    assert_eq!(m.stats().l1_merged_misses, 1);
}

#[test]
fn merge_limit_rejects_with_retry_hint() {
    let mut m = MemSystem::new(tiny());
    let r1 = m.access(store(0x4_0000), 0).unwrap();
    m.access(store(0x4_0008), 1).unwrap(); // 2nd request: merge cap (2) reached
    let e = m.access(store(0x4_0010), 2).unwrap_err();
    assert_eq!(e.retry_at, r1.done_at);
    assert_eq!(m.stats().rejects_merge_limit, 1);
    // After the fill completes the store hits in L1.
    let r = m.access(store(0x4_0010), e.retry_at).unwrap();
    assert_eq!(r.level, ServiceLevel::L1);
}

#[test]
fn mshr_full_rejects_new_lines() {
    let mut m = MemSystem::new(tiny()); // 2 MSHRs
    m.access(load(0x10_0000), 0).unwrap();
    m.access(load(0x20_0000), 0).unwrap();
    let e = m.access(load(0x30_0000), 1).unwrap_err();
    assert!(e.retry_at > 1);
    assert_eq!(m.stats().rejects_mshr_full, 1);
    assert!(m.access(load(0x30_0000), e.retry_at).is_ok());
}

#[test]
fn writes_mark_lines_dirty_and_cause_writebacks() {
    let mut c = MemConfig::default();
    c.l1.size = 1 << 10; // 8 sets x 2 ways
    let mut m = MemSystem::new(c);
    // Fill one L1 set (stride = 512) with dirty lines, then overflow it.
    let mut t = 0;
    for i in 0..3u64 {
        let r = m.access(store(i * 512), t).unwrap();
        t = r.done_at + 1;
    }
    assert!(m.stats().writebacks_l1 >= 1, "dirty victim written back");
}

#[test]
fn prefetch_hides_latency_for_later_demand() {
    let mut m = MemSystem::new(MemConfig::default());
    let p = m
        .access(Request::new(0x5_0000, 8, MemKind::Prefetch), 0)
        .unwrap();
    // Demand access after the prefetch completed: an L1 hit.
    let r = m.access(load(0x5_0000), p.done_at + 10).unwrap();
    assert_eq!(r.level, ServiceLevel::L1);
    assert_eq!(m.stats().prefetches_issued, 1);
    assert_eq!(m.stats().prefetches_useful, 1);
    assert_eq!(m.stats().prefetches_late, 0);
}

#[test]
fn late_prefetch_detected_when_demand_merges() {
    let mut m = MemSystem::new(MemConfig::default());
    m.access(Request::new(0x6_0000, 8, MemKind::Prefetch), 0)
        .unwrap();
    let r = m.access(load(0x6_0000), 5).unwrap();
    assert!(r.merged, "demand merged into the in-flight prefetch");
    assert_eq!(m.stats().prefetches_late, 1);
}

#[test]
fn prefetch_to_resident_line_is_unnecessary() {
    let mut m = MemSystem::new(MemConfig::default());
    let r = m.access(load(0x7_0000), 0).unwrap();
    m.access(Request::new(0x7_0000, 8, MemKind::Prefetch), r.done_at + 1)
        .unwrap();
    assert_eq!(m.stats().prefetches_unnecessary, 1);
}

#[test]
fn block_transfers_bypass_the_caches() {
    let mut m = MemSystem::new(MemConfig::default());
    let r = m
        .access(Request::new(0x8_0000, 64, MemKind::BlockLoad), 0)
        .unwrap();
    assert_eq!(r.level, ServiceLevel::Memory);
    // The line must NOT be resident afterwards.
    let r2 = m.access(load(0x8_0000), r.done_at + 1).unwrap();
    assert_eq!(r2.level, ServiceLevel::Memory);
    assert_eq!(m.stats().bypass_accesses, 1);
}

#[test]
fn bank_conflicts_serialize_same_bank_lines() {
    let mut m = MemSystem::new(MemConfig::default());
    // Two lines in the same bank: line numbers differ by #banks (4).
    let r1 = m.access(load(0x0000), 0).unwrap();
    let r2 = m.access(load(4 * 64), 0).unwrap();
    // Two lines in different banks issued together overlap fully.
    let r3 = m.access(load(64 + 0x10_0000), 0).unwrap(); // line 1: a different bank
    assert!(r2.done_at > r1.done_at, "same-bank accesses serialize");
    assert!(
        r3.done_at <= r1.done_at + 2,
        "different banks overlap (got {} vs {})",
        r3.done_at,
        r1.done_at
    );
}

#[test]
fn streaming_misses_overlap_across_banks() {
    let mut m = MemSystem::new(MemConfig::default());
    // 8 independent lines issued back to back: the paper's streaming
    // pattern. Completion of the 8th must be far less than 8 serial
    // misses (8 * 122).
    let mut last = 0;
    for i in 0..8u64 {
        let r = m.access(load(0x9_0000 + i * 64), i).unwrap();
        last = last.max(r.done_at);
    }
    assert!(last < 4 * 122, "non-blocking misses overlap: {last}");
}

#[test]
fn l1_port_contention_delays_third_access_in_a_cycle() {
    let mut m = MemSystem::new(MemConfig::default());
    // Warm a line, then hit it three times in the same cycle (2 ports).
    let w = m.access(load(0xa_0000), 0).unwrap();
    let t = w.done_at + 10;
    let r1 = m.access(load(0xa_0000), t).unwrap();
    let r2 = m.access(load(0xa_0008), t).unwrap();
    let r3 = m.access(load(0xa_0010), t).unwrap();
    assert_eq!(r1.done_at, t + 2);
    assert_eq!(r2.done_at, t + 2);
    assert_eq!(r3.done_at, t + 3, "third access waits one cycle for a port");
}

#[test]
fn larger_l2_keeps_bigger_working_sets() {
    // Touch a 256 KB working set twice; a 2 MB L2 should hit on the
    // second pass, the 128 KB default should not.
    let run = |l2_bytes: u64| -> u64 {
        let mut m = MemSystem::new(MemConfig::default().with_l2_size(l2_bytes));
        let mut t = 0;
        for pass in 0..2 {
            for i in 0..(256 * 1024 / 64) as u64 {
                let r = m.access(load(i * 64), t).unwrap();
                t = r.done_at.max(t) + 1;
            }
            if pass == 0 {
                t += 10_000;
            }
        }
        let s = m.stats();
        s.l2_misses
    };
    let small = run(128 << 10);
    let large = run(2 << 20);
    assert!(
        large <= small / 2,
        "2MB L2 captures reuse: {large} vs {small} L2 misses"
    );
}

#[test]
fn warming_reaches_the_same_residency_as_timed_access() {
    // Serialized accesses (each issued after the previous completes)
    // exercise no MSHR contention, so the functional warming path must
    // land on exactly the same residency and recency state as the
    // timing model.
    let mut timed = MemSystem::new(MemConfig::default());
    let mut warm = MemSystem::new(MemConfig::default());
    let addrs: Vec<u64> = (0..400u64).map(|i| ((i * 37) % 97) * 64).collect();
    let mut t = 0;
    for (i, &a) in addrs.iter().enumerate() {
        let kind = if i % 4 == 0 {
            MemKind::Store
        } else {
            MemKind::Load
        };
        let r = timed.access(Request::new(a, 8, kind), t).unwrap();
        t = r.done_at + 1;
        // Spacing the pseudo-clock past the memory latency drains the
        // warming MSHRs the same way the serialized timing run does.
        warm.warm_access(Request::new(a, 8, kind), i as u64 * 200);
    }
    for &a in &addrs {
        assert_eq!(timed.l1_contains(a), warm.l1_contains(a), "addr {a:#x}");
    }
    assert_eq!(timed.stats().l1_hits, warm.stats().l1_hits);
    assert_eq!(
        timed.stats().l1_primary_misses,
        warm.stats().l1_primary_misses
    );
    assert_eq!(timed.stats().writebacks_l1, warm.stats().writebacks_l1);
}

#[test]
fn system_snapshot_round_trips_bit_identically() {
    use visim_obs::codec::{ByteReader, ByteWriter};
    let mut m = MemSystem::new(tiny());
    for i in 0..300u64 {
        let kind = if i % 5 == 0 {
            MemKind::Store
        } else {
            MemKind::Load
        };
        m.warm_access(Request::new((i * 31 % 53) * 64, 8, kind), i);
    }
    let mut w = ByteWriter::new();
    m.save_state(&mut w, 300);
    let bytes = w.into_bytes();

    let mut fresh = MemSystem::new(tiny());
    let mut r = ByteReader::new(&bytes);
    fresh.load_state(&mut r).unwrap();
    r.done().unwrap();

    // Restored state re-encodes to the same bytes (at its new cycle 0)
    // and starts with clean statistics.
    let mut w2 = ByteWriter::new();
    fresh.save_state(&mut w2, 0);
    assert_eq!(bytes, w2.into_bytes());
    assert_eq!(fresh.stats().l1_accesses, 0);
    for i in 0..53u64 {
        let a = i * 64;
        assert_eq!(m.l1_contains(a), fresh.l1_contains(a), "addr {a:#x}");
    }

    // A snapshot from a different geometry is rejected.
    let mut other = MemSystem::new(MemConfig::default());
    let mut r = ByteReader::new(&bytes);
    assert!(other.load_state(&mut r).is_err());
}

#[test]
fn stats_accessors_are_consistent() {
    let mut m = MemSystem::new(MemConfig::default());
    let mut t = 0;
    for i in 0..100u64 {
        if let Ok(r) = m.access(load(i * 8), t) {
            t = r.done_at.max(t) + 1;
        }
    }
    let s = m.stats();
    assert_eq!(s.l1_accesses, 100);
    assert_eq!(
        s.l1_hits + s.l1_primary_misses + s.l1_merged_misses,
        100,
        "every accepted access is classified"
    );
    let hist = m.mshr_histogram(t);
    assert_eq!(hist.iter().sum::<u64>(), t, "histogram covers all time");
    assert!(m.inflight_misses(t + 10_000) == 0);
}

#[test]
fn take_fault_reports_the_first_fault_once() {
    let mut m = MemSystem::new(MemConfig::default());
    m.access(load(0x1_0000), 0).unwrap();
    assert!(m.take_fault().is_none(), "a clean system has no fault");
    // Two straddling accesses: the first is the one reported.
    let _ = m.access(Request::new(0x2_003c, 8, MemKind::Load), 1);
    let _ = m.access(Request::new(0x3_003c, 8, MemKind::Load), 2);
    let fault = m.take_fault().expect("straddle recorded").to_string();
    assert!(fault.contains("addr: 131132"), "{fault}"); // 0x2_003c
    assert!(m.take_fault().is_none(), "a fault is taken once");
}
