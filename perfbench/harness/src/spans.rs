//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, recorded from the harness side of
//! the call: name, start, end, parent span, and the cell or request id
//! it belongs to. Spans stay in memory and are written once, as a
//! Chrome trace-event file, when the run ends. A span's *self time* is
//! its duration minus the part of it covered by its child spans.

use std::collections::BTreeMap;
use std::time::Instant;

use visim_obs::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: String,
}

/// Aggregated time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span recorder. Spans are appended in start order; `begin` returns
/// an index that `end` closes and children name as their parent.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: &str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id: id.to_string(),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, ix: usize) {
        self.spans[ix].end_ns = self.now_ns();
    }

    /// Record a span around `f`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let ix = self.begin(name, parent, id);
        let r = f();
        self.end(ix);
        r
    }

    /// Append a span measured elsewhere (the load generator's threads
    /// timestamp against the same epoch).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Move every span of `other` (recorded against the same epoch)
    /// into this recorder, re-basing parent indices.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total time, and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (ix, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(&mut children[ix], s.start_ns, s.end_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`X` complete events, one
    /// track per cell or request id), loadable in Perfetto.
    pub fn chrome_trace(&self) -> Json {
        let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
        let mut events = Vec::with_capacity(self.spans.len());
        for (ix, s) in self.spans.iter().enumerate() {
            let next = tids.len() as u64 + 1;
            let tid = *tids.entry(s.id.as_str()).or_insert(next);
            let mut args = vec![("span", Json::from(ix)), ("id", Json::from(s.id.as_str()))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::from(p)));
            }
            events.push(Json::obj(vec![
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::from(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(tid)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new(Instant::now());
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: "c".into(),
        };
        let root = spans.push(span("root", 0, 100, None));
        spans.push(span("child", 10, 40, Some(root)));
        spans.push(span("child", 30, 50, Some(root)));
        spans.push(span("child", 90, 120, Some(root)));
        let t = spans.totals();
        assert_eq!(t["root"].total_ns, 100);
        // Children cover [10, 50) and [90, 100) of the root.
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["child"].count, 3);
        assert_eq!(t["child"].self_ns, 80);
    }
}
