//! Sampled-run configuration (SMARTS-style systematic sampling).
//!
//! A sampled run replays the detailed cycle-accurate pipeline only for
//! periodic windows of `window` instructions, one window every `period`
//! instructions, and fast-forwards between them with the functional
//! warming engine (`visim_cpu::WarmingSink`). A run's geometry is its
//! [`crate::ctx::RunCtx::sample`], which the experiment engine reads to
//! schedule windows and passes to the result store's keys, so sampled
//! estimates and exact measurements never share an entry.
//!
//! Off is the default: exact simulation stays byte-identical unless the
//! user opts in via `--sample` (`1` for the default geometry, or
//! `WINDOW:PERIOD`, e.g. `8000:160000`).

/// Default detailed-window length, in dynamic instructions. Sized so
/// a window comfortably outlives the slowest microarchitectural
/// transient a checkpoint restore cannot carry: the software-prefetch
/// pipeline takes thousands of instructions to re-reach its steady
/// lead distance, and 2000-instruction windows measured a persistent
/// ~12% CPI bias on the prefetching blend kernel where 8000-instruction
/// windows (with their 4000-instruction warm-up) measure within 1%.
pub const DEFAULT_WINDOW: u64 = 8_000;
/// Default sampling period (window start to window start). 8000:160000
/// puts 5% of instructions in measured windows (7.5% counting each
/// window's warm-up span): the long media workloads still get over a
/// hundred windows — past where the CI stops shrinking — while the
/// detailed-replay share, which is what sampled wall clock is made of,
/// stays small, and the per-window checkpoint serialization (full L1 +
/// L2 tag state) happens 4x less often than a 2000:40000 geometry.
/// Short kernel streams (a few hundred thousand instructions) fall
/// below the two-window minimum and degrade to exact simulation —
/// which is the right call: sampling only pays on streams long enough
/// that detailed replay is the cost, and the fallback is reported
/// honestly (`cell.sampling.mode` = 2, zero-width interval).
pub const DEFAULT_PERIOD: u64 = 160_000;

/// `cell.sampling.mode` value: the cell is a sampled estimate.
pub const MODE_SAMPLED: u64 = 1;
/// `cell.sampling.mode` value: sampling was requested but the cell fell
/// back to exact simulation (stream too short, not replayable, or the
/// sample was degenerate).
pub const MODE_EXACT_FALLBACK: u64 = 2;

/// One sampled-run geometry: a detailed window of `window` instructions
/// starts every `period` instructions (the first at instruction 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Detailed-window length, in dynamic instructions.
    pub window: u64,
    /// Distance between window starts, in dynamic instructions.
    pub period: u64,
}

impl SampleConfig {
    /// Store-key suffix separating sampled cells from exact ones (and
    /// sampled cells of different geometries from each other). Appended
    /// to every timed cell's content address while sampling is enabled
    /// — including cells that fall back to exact simulation, so a
    /// sampled run's store entries are never served to an exact run.
    pub fn key_suffix(&self) -> String {
        format!("|sample=w{}p{}", self.window, self.period)
    }

    /// Detailed warm-up span replayed immediately before each measured
    /// window (except the first, which starts at instruction 0 — the
    /// program's own cold start is real, not a sampling artifact).
    ///
    /// A checkpoint restores caches, predictor, and RAS, but the
    /// pipeline itself, the cache ports, and the memory banks restart
    /// idle — a transient that biases short windows of contended
    /// workloads (measured: up to 31% CPI error on the prefetching
    /// threshold kernel at the default geometry). Replaying half a
    /// window of detailed warm-up and then discarding its statistics
    /// ([`visim_cpu::Pipeline::reset_stats`]) lets the measured span
    /// start from a busy machine. Derived from the geometry rather
    /// than configured separately, so a `WINDOW:PERIOD` spec still
    /// names the complete sampling design.
    pub fn warmup(&self) -> u64 {
        self.window / 2
    }
}

/// Parse a `--sample` specification. `1` selects the
/// default geometry; `WINDOW:PERIOD` an explicit one (both positive,
/// window ≤ period); empty or `0` disables sampling.
pub fn parse_spec(spec: &str) -> Result<Option<SampleConfig>, String> {
    let spec = spec.trim();
    match spec {
        "" | "0" => Ok(None),
        "1" => Ok(Some(SampleConfig {
            window: DEFAULT_WINDOW,
            period: DEFAULT_PERIOD,
        })),
        _ => {
            let (w, p) = spec
                .split_once(':')
                .ok_or_else(|| format!("bad sample spec {spec:?}: want 1 or WINDOW:PERIOD"))?;
            let window = w
                .parse::<u64>()
                .map_err(|_| format!("bad sample window {w:?}"))?;
            let period = p
                .parse::<u64>()
                .map_err(|_| format!("bad sample period {p:?}"))?;
            if window == 0 || period < window {
                return Err(format!(
                    "bad sample geometry {spec:?}: need 1 <= window <= period"
                ));
            }
            Ok(Some(SampleConfig { window, period }))
        }
    }
}

/// Set the process default's sampling geometry; `None` and `Some(None)`
/// both mean exact simulation (see [`crate::ctx`]; the benchmark
/// harness's entry point).
pub fn set_cli(cfg: Option<Option<SampleConfig>>) {
    crate::ctx::with_default(|c| c.sample = cfg.flatten());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_or_are_rejected() {
        assert_eq!(parse_spec(""), Ok(None));
        assert_eq!(parse_spec("0"), Ok(None));
        assert_eq!(
            parse_spec("1"),
            Ok(Some(SampleConfig {
                window: DEFAULT_WINDOW,
                period: DEFAULT_PERIOD,
            }))
        );
        assert_eq!(
            parse_spec(" 500:4000 "),
            Ok(Some(SampleConfig {
                window: 500,
                period: 4000,
            }))
        );
        // Back-to-back windows (full detail) are a legal degenerate case.
        assert!(parse_spec("100:100").is_ok());
        for bad in ["2000", "0:100", "100:99", "a:b", "10:", ":10", "1:2:3"] {
            assert!(parse_spec(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn key_suffix_separates_geometries() {
        let a = SampleConfig {
            window: 2000,
            period: 20_000,
        };
        let b = SampleConfig {
            window: 500,
            period: 20_000,
        };
        assert_ne!(a.key_suffix(), b.key_suffix());
        assert_eq!(a.key_suffix(), "|sample=w2000p20000");
    }
}
