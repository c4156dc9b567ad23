//! Deterministic seeded fault injection.
//!
//! The durability layer — result store, per-cell retry — is only
//! trustworthy if its failure paths are exercised, so a run can carry a
//! fault [`Plan`] that injects faults at named points. A plan is text:
//!
//! ```text
//! <point>:<spec>[,<point>:<spec>...]
//! ```
//!
//! The binaries read it from `VISIM_FAULT` at their edge
//! (`visim::ctx`); a library caller or a test builds one with
//! [`Plan::parse`]. Nothing here reads the environment.
//!
//! * `store.write.torn:1/8`   — a hash-rate spec `m/n`: the point fires
//!   for a key when `fnv1a64("<point>|<key>|<seed>") % n < m`.
//! * `store.write.torn:seed7` — `seed<K>`: rate 1/2 under seed `K`
//!   (reseeding picks a different deterministic victim set).
//! * `cell.panic:conv`         — anything else is a substring match
//!   against the key (here: every cell whose benchmark name contains
//!   `conv` panics).
//!
//! Firing decisions are pure functions of `(point, key, spec)` — no
//! counters, no wall clock — so they are identical at any
//! `VISIM_JOBS`, across reruns, and across processes. That is what
//! makes fault runs reproducible and lets the kill-resume equivalence
//! gates diff outputs byte-for-byte.
//!
//! Injections are counted per point (`fault.<point>` plus the
//! [`INJECTED_TOTAL`] total) in the process-wide metrics sink
//! ([`visim_obs::live::global`]), which every binary drains into its
//! metrics block, so a fault run is self-describing.

use crate::error::SimError;
use crate::hash::fnv1a64;

/// How one rule decides whether it fires for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Spec {
    /// Fire when `fnv1a64("<point>|<key>|<seed>") % n < m`.
    Rate { m: u64, n: u64, seed: u64 },
    /// Fire when the key contains the pattern.
    Contains(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Rule {
    point: String,
    spec: Spec,
}

/// Parse one `<point>:<spec>` clause. `None` for an empty clause (so
/// trailing commas are harmless); a missing spec means "always fire".
fn parse_rule(clause: &str) -> Option<Rule> {
    let clause = clause.trim();
    if clause.is_empty() {
        return None;
    }
    let (point, spec) = match clause.split_once(':') {
        Some((p, s)) => (p, s),
        None => (clause, ""),
    };
    let spec = parse_spec(spec);
    Some(Rule {
        point: point.trim().to_string(),
        spec,
    })
}

fn parse_spec(spec: &str) -> Spec {
    let spec = spec.trim();
    if spec.is_empty() {
        // Bare point: always fires.
        return Spec::Rate {
            m: 1,
            n: 1,
            seed: 0,
        };
    }
    if let Some((m, n)) = spec.split_once('/') {
        if let (Ok(m), Ok(n)) = (m.trim().parse::<u64>(), n.trim().parse::<u64>()) {
            if n >= 1 {
                return Spec::Rate { m, n, seed: 0 };
            }
        }
    }
    if let Some(seed) = spec.strip_prefix("seed") {
        if let Ok(seed) = seed.trim().parse::<u64>() {
            return Spec::Rate { m: 1, n: 2, seed };
        }
    }
    Spec::Contains(spec.to_string())
}

/// Total injections across every point; declared in every run's
/// metrics block, so a zero is evidence that no fault fired.
pub const INJECTED_TOTAL: &str = "fault.injected";

/// A run's fault plan: the rules that decide which points fire. The
/// default plan is empty and fires nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan(Vec<Rule>);

impl Plan {
    /// Parse a plan's text (see the module docs). Malformed clauses
    /// degrade to substring matches; parsing never fails.
    pub fn parse(plan: &str) -> Plan {
        Plan(plan.split(',').filter_map(parse_rule).collect())
    }

    /// True when any rule makes `point` fire for `key`; counts the
    /// injection. Deterministic in `(point, key)` for a fixed plan.
    pub fn fires(&self, point: &str, key: &str) -> bool {
        let fired = self.0.iter().any(|r| {
            r.point == point
                && match &r.spec {
                    Spec::Rate { m, n, seed } => {
                        fnv1a64(format!("{point}|{key}|{seed}").as_bytes()) % n < *m
                    }
                    Spec::Contains(pat) => key.contains(pat.as_str()),
                }
        });
        if fired {
            let sink = visim_obs::live::global();
            sink.add(&format!("fault.{point}"), 1);
            sink.add(INJECTED_TOTAL, 1);
        }
        fired
    }

    /// [`Self::fires`] as a `Result`: `Err(SimError::Transient)` when
    /// the point fires, for threading through `?` in the experiment
    /// runners.
    pub fn trip_transient(&self, point: &str, key: &str) -> Result<(), SimError> {
        if self.fires(point, key) {
            Err(SimError::Transient {
                point: point.to_string(),
                detail: format!("injected at {key}"),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_into_the_three_shapes() {
        assert_eq!(
            parse_rule("store.write.torn:1/8").unwrap(),
            Rule {
                point: "store.write.torn".into(),
                spec: Spec::Rate {
                    m: 1,
                    n: 8,
                    seed: 0
                },
            }
        );
        assert_eq!(
            parse_rule("store.write.torn:seed7").unwrap(),
            Rule {
                point: "store.write.torn".into(),
                spec: Spec::Rate {
                    m: 1,
                    n: 2,
                    seed: 7
                },
            }
        );
        assert_eq!(
            parse_rule("cell.panic:conv").unwrap(),
            Rule {
                point: "cell.panic".into(),
                spec: Spec::Contains("conv".into()),
            }
        );
        assert_eq!(
            parse_rule("store.write.torn").unwrap().spec,
            Spec::Rate {
                m: 1,
                n: 1,
                seed: 0
            },
        );
        let plan = Plan::parse("a:1/2, b:xyz ,,c");
        assert_eq!(plan.0.len(), 3);
        // Malformed rates degrade to substring matches, never panic.
        assert_eq!(parse_spec("3/0"), Spec::Contains("3/0".into()));
        assert_eq!(parse_spec("seedx"), Spec::Contains("seedx".into()));
    }

    #[test]
    fn rate_decisions_are_deterministic_and_seed_sensitive() {
        let decide = |seed: u64, key: &str| {
            fnv1a64(format!("p|{key}|{seed}").as_bytes()).is_multiple_of(2) // m=1,n=2
        };
        // Same inputs, same answer — and across many keys a 1/2 rate
        // fires for some and spares others.
        let keys: Vec<String> = (0..64).map(|i| format!("bench{i}")).collect();
        let first: Vec<bool> = keys.iter().map(|k| decide(0, k)).collect();
        let second: Vec<bool> = keys.iter().map(|k| decide(0, k)).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&b| b) && first.iter().any(|&b| !b));
        // A different seed picks a different victim set.
        let reseeded: Vec<bool> = keys.iter().map(|k| decide(7, k)).collect();
        assert_ne!(first, reseeded);
    }

    #[test]
    fn firing_counts_the_point_and_the_total() {
        // Deltas, not absolutes: the sink is process-wide.
        let sink = visim_obs::live::global();
        let before = (
            sink.counter("fault.test.counted"),
            sink.counter(INJECTED_TOTAL),
        );
        let plan = Plan::parse("test.counted:hit");
        assert!(plan.fires("test.counted", "a-hit"));
        assert!(!plan.fires("test.counted", "spared"));
        assert!(!plan.fires("other.point", "hit"));
        // A fired `trip_transient` counts too, and its error is retryable.
        let e = plan
            .trip_transient("test.counted", "hit-again")
            .unwrap_err();
        assert_eq!(
            e,
            SimError::Transient {
                point: "test.counted".into(),
                detail: "injected at hit-again".into(),
            }
        );
        assert!(e.is_transient());
        assert_eq!(sink.counter("fault.test.counted") - before.0, 2);
        assert_eq!(sink.counter(INJECTED_TOTAL) - before.1, 2);
    }

    #[test]
    fn trip_transient_builds_a_retryable_error() {
        // The empty plan fires nothing, whatever the environment says.
        assert!(Plan::default()
            .trip_transient("cell.transient", "conv:0")
            .is_ok());
        let e = SimError::Transient {
            point: "cell.transient".into(),
            detail: "injected at conv:0".into(),
        };
        assert!(e.is_transient());
    }
}
