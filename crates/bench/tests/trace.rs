//! Cycle-level tracing invariants, end to end:
//!
//! * a property test over random event streams and small ring
//!   capacities — eviction must preserve begin/end pairing and
//!   per-lane timestamp order in the Chrome export, and the
//!   attribution aggregates must stay exact no matter how many events
//!   the ring dropped;
//! * an integration test running a real benchmark under
//!   [`visim::experiment::try_run_traced`] — the exported JSON must
//!   round-trip through the `visim-obs` parser, and the trace-derived
//!   attribution must equal the pipeline's aggregate Figure 1
//!   breakdown cycle for cycle;
//! * a lifecycle check on every machine — each retired instruction's
//!   span is ordered fetch ≤ dispatch ≤ issue ≤ complete ≤ retire, and
//!   span sequence numbers are consecutive;
//! * a zero-cost check — a traced run must produce the exact same
//!   [`Summary`] serialization as an untraced run.

use std::collections::BTreeMap;

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::config::Arch;
use visim::experiment::{run_spec, try_run_traced};
use visim::manifest::CellSpec;
use visim_obs::trace::{Attribution, InstSpan, InstantKind, TraceEvent, TraceRing, TraceStall};
use visim_obs::Json;
use visim_util::prop::{self, Config};
use visim_util::{prop_assert, prop_assert_eq};

fn tiny() -> WorkloadSize {
    let mut s = WorkloadSize::tiny();
    s.image_w = 32;
    s.image_h = 32;
    s.dotprod_n = 512;
    s
}

/// Walk a serialized Chrome trace document: every `"B"` must close with
/// an `"E"` on the same tid, depth never goes negative, and within each
/// tid the timestamps never decrease. Returns the event count.
fn check_chrome_doc(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::elements)
        .ok_or("missing traceEvents")?;
    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event lacks ph")?;
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        if let Some(ts) = ev.get("ts").and_then(Json::as_f64) {
            let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
            if ts < *prev {
                return Err(format!("tid {tid}: ts went backwards ({prev} -> {ts})"));
            }
            *prev = ts;
        }
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("tid {tid}: E without matching B"));
                }
            }
            _ => {}
        }
    }
    if let Some((tid, d)) = depth.iter().find(|&(_, &d)| d != 0) {
        return Err(format!("tid {tid}: {d} unclosed B events"));
    }
    Ok(events.len())
}

/// One randomly generated cycle of ring activity.
type GenCycle = (
    u32,  // retired (0..=width)
    u8,   // stall selector when nothing retires
    bool, // also record an instruction span ending this cycle
    u8,   // span length in cycles
    bool, // also record an instant event
    u8,   // instant-kind selector
);

#[test]
fn ring_eviction_preserves_pairing_and_exact_attribution() {
    const WIDTH: u32 = 4;
    prop::check(
        Config::cases(48),
        |rng| {
            let cap = rng.gen_range(0usize..12);
            let cycles: Vec<GenCycle> = rng.vec(1..60, |r| {
                (
                    r.gen_range(0u32..WIDTH + 1),
                    r.u8(),
                    r.bool(),
                    r.gen_range(1u8..20),
                    r.bool(),
                    r.u8(),
                )
            });
            (cap, cycles)
        },
        |(cap, cycles)| {
            let mut ring = TraceRing::new(*cap);
            ring.set_width(WIDTH);
            let mut expect = Attribution {
                width: WIDTH as u64,
                ..Attribution::default()
            };
            let mut seq = 0u64;
            for (c, &(retired, stall_sel, with_span, span_len, with_instant, kind_sel)) in
                cycles.iter().enumerate()
            {
                let now = c as u64;
                ring.set_now(now);
                let stall = (retired < WIDTH).then_some(match stall_sel % 3 {
                    0 => TraceStall::FuStall,
                    1 => TraceStall::L1Hit,
                    _ => TraceStall::L1Miss,
                });
                ring.sample(retired, stall);
                expect.account(retired, stall);
                if with_span {
                    let fetch = now.saturating_sub(span_len as u64);
                    ring.span(InstSpan {
                        seq,
                        pc: 0x1000 + 4 * seq,
                        op: "int_alu",
                        fetch,
                        dispatch: fetch,
                        issue: now.saturating_sub(1),
                        complete: now,
                        retire: now,
                    });
                    seq += 1;
                }
                if with_instant {
                    let kind = InstantKind::ALL[kind_sel as usize % InstantKind::ALL.len()];
                    ring.instant(kind, 0x2000 + now, 1);
                }
            }
            // Aggregates are exact regardless of capacity or eviction.
            prop_assert!(ring.len() <= *cap, "ring respects its capacity");
            prop_assert_eq!(ring.attribution(), expect);
            prop_assert_eq!(
                ring.attribution().total_units(),
                cycles.len() as u64 * WIDTH as u64
            );
            let trace = ring.into_trace();
            // Whatever survived eviction exports balanced and ordered.
            let doc = trace.chrome_trace(vec![("test", Json::from("prop"))]);
            check_chrome_doc(&doc)?;
            let reparsed = Json::parse(&doc.to_compact())
                .map_err(|e| format!("export does not re-parse: {e}"))?;
            prop_assert_eq!(&reparsed, &doc);
            Ok(())
        },
    );
}

#[test]
fn traced_tiny_run_round_trips_and_matches_aggregate() {
    let size = tiny();
    let (summary, trace) = try_run_traced(
        Bench::Blend,
        Arch::Ooo4,
        None,
        &size,
        Variant::VIS,
        TraceRing::new(1 << 18),
    )
    .expect("traced run succeeds");
    assert!(!trace.events.is_empty(), "a real run records events");
    assert_eq!(trace.dropped, 0, "tiny run fits the ring");
    // The trace-derived attribution equals the aggregate Figure 1
    // breakdown exactly, and together they account for every issue
    // slot of every cycle.
    let agg = summary.cpu.attribution();
    assert_eq!(trace.attribution, agg);
    assert_eq!(
        trace.attribution.total_units(),
        summary.cycles() * agg.width,
        "Busy + FU stall + L1 hit + L1 miss == cycles x width"
    );
    // The export is accepted by the visim-obs parser and balanced.
    let doc = trace.chrome_trace(vec![("benchmark", Json::from("blend"))]);
    let mut text = doc.to_pretty();
    text.push('\n');
    let parsed = Json::parse(&text).expect("export parses");
    let n = check_chrome_doc(&parsed).expect("export is balanced");
    assert!(n > 0);
    assert_eq!(parsed, doc, "pretty-print round-trip is lossless");
    // A run with real memory traffic surfaces microarchitectural
    // instants.
    assert!(
        trace.instant_count(InstantKind::L1Miss) > 0,
        "blend at tiny misses in L1"
    );
}

/// Drop the run-varying `cell.*` counters (emit/simulate wall clock,
/// trace-cache hit flags) from a serialized [`Summary`]; everything
/// left is simulation output.
fn scrub_cell_counters(doc: Json) -> Json {
    let Json::Obj(members) = doc else { return doc };
    Json::Obj(
        members
            .into_iter()
            .filter(|(k, _)| !k.starts_with("cell."))
            .map(|(k, v)| match v {
                Json::Obj(_) => (k, scrub_cell_counters(v)),
                other => (k, other),
            })
            .collect(),
    )
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let size = tiny();
    let spec = CellSpec::Timed {
        label: "conv/4-way/base".into(),
        bench: Bench::Conv,
        cpu: Arch::InOrder4.cpu(),
        mem: Default::default(),
        variant: Variant::SCALAR,
    };
    let plain = run_spec(&spec, &size)
        .expect("plain run succeeds")
        .0
        .into_summary();
    let (traced, trace) = try_run_traced(
        Bench::Conv,
        Arch::InOrder4,
        None,
        &size,
        Variant::SCALAR,
        TraceRing::new(256),
    )
    .expect("traced run succeeds");
    assert_eq!(plain.cycles(), traced.cycles());
    assert_eq!(
        scrub_cell_counters(plain.to_json()).to_compact(),
        scrub_cell_counters(traced.to_json()).to_compact(),
        "tracing must not change any statistic"
    );
    assert!(trace.dropped > 0, "a 256-event ring overflows on conv");
    assert_eq!(
        trace.attribution,
        traced.cpu.attribution(),
        "aggregates stay exact through heavy eviction"
    );
}

#[test]
fn traced_spans_are_ordered_and_consecutive_on_every_machine() {
    let size = tiny();
    for arch in Arch::all() {
        let (summary, trace) = try_run_traced(
            Bench::Blend,
            arch,
            None,
            &size,
            Variant::VIS,
            TraceRing::new(1 << 18),
        )
        .expect("traced run succeeds");
        assert_eq!(trace.dropped, 0, "{arch:?}: tiny run fits the ring");
        let spans: Vec<&InstSpan> = trace
            .events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        // Every instruction retires exactly once, in program order.
        assert_eq!(spans.len() as u64, summary.cpu.retired, "{arch:?}");
        for (k, s) in spans.iter().enumerate() {
            assert_eq!(s.seq, k as u64, "{arch:?}: span sequence numbers");
            assert!(
                s.fetch <= s.dispatch
                    && s.dispatch <= s.issue
                    && s.issue <= s.complete
                    && s.complete <= s.retire,
                "{arch:?}: lifecycle out of order: {s:?}"
            );
        }
    }
}
