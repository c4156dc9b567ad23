//! `visim-results-v2` cell builders for the experiment runners.
//!
//! The figure binaries pair each text row with one machine-readable
//! cell built here and pushed into a `visim_obs::schema::ResultsDoc`.
//! One cell corresponds to one (benchmark × configuration) simulation;
//! a failed simulation becomes a `"status": "failed"` cell carrying the
//! [`SimError`] variant name, so JSON consumers can distinguish a
//! *crashed* cell from a *drifted* one.

use visim_cpu::{CpuStats, Summary};
use visim_obs::trace::Trace;
use visim_obs::{schema, Json};
use visim_util::SimError;

use crate::bench::Bench;
use crate::config::Arch;
use crate::experiment::{Fig1Bar, Fig2Row, Fig3Row, SweepPoint};

/// The payload shared by every timed (pipeline) cell: headline cycle
/// count plus the full [`Summary`] serialization
/// ([`Summary::json_members`] keeps the member shape in one place).
fn timed_payload(s: &Summary) -> Vec<(&'static str, Json)> {
    let mut members = vec![("cycles", Json::from(s.cycles()))];
    members.extend(s.json_members());
    members
}

/// A failed cell for the benchmark (or kernel) named `name` under
/// `config`.
pub fn failed_cell(name: &str, config: Json, e: &SimError) -> Json {
    schema::failed_cell(name, config, e.kind(), &e.to_string())
}

/// Configuration for a whole-figure failure, where the runner reports
/// only the benchmark's first failing cell, not its configuration.
pub fn figure_config(figure: &str) -> Json {
    Json::obj(vec![("figure", Json::from(figure))])
}

/// Figure 1 cell configuration: architecture label + VIS flag.
pub fn fig1_config(arch: Arch, vis: bool) -> Json {
    Json::obj(vec![
        ("figure", Json::from("fig1")),
        ("arch", Json::from(arch.label())),
        ("vis", Json::from(vis)),
    ])
}

/// One Figure 1 bar as a result cell.
pub fn fig1_cell(bench: Bench, bar: &Fig1Bar) -> Json {
    schema::ok_cell(
        bench.name(),
        fig1_config(bar.arch, bar.vis),
        timed_payload(&bar.summary),
    )
}

/// Figure 2 cell configuration: counted run, base or VIS variant.
pub fn fig2_config(vis: bool) -> Json {
    Json::obj(vec![
        ("figure", Json::from("fig2")),
        ("variant", Json::from(if vis { "vis" } else { "base" })),
    ])
}

fn counted_payload(stats: &CpuStats) -> Vec<(&'static str, Json)> {
    vec![("cpu", stats.to_json())]
}

/// One Figure 2 row as two result cells (base then VIS).
pub fn fig2_cells(row: &Fig2Row) -> Vec<Json> {
    vec![
        schema::ok_cell(
            row.bench.name(),
            fig2_config(false),
            counted_payload(&row.base),
        ),
        schema::ok_cell(
            row.bench.name(),
            fig2_config(true),
            counted_payload(&row.vis),
        ),
    ]
}

/// Figure 3 cell configuration: 4-way ooo, VIS with/without prefetch.
pub fn fig3_config(prefetch: bool) -> Json {
    Json::obj(vec![
        ("figure", Json::from("fig3")),
        ("arch", Json::from(Arch::Ooo4.label())),
        (
            "variant",
            Json::from(if prefetch { "vis+pf" } else { "vis" }),
        ),
    ])
}

/// One Figure 3 row as two result cells (VIS then VIS+prefetch).
pub fn fig3_cells(row: &Fig3Row) -> Vec<Json> {
    vec![
        schema::ok_cell(
            row.bench.name(),
            fig3_config(false),
            timed_payload(&row.vis),
        ),
        schema::ok_cell(row.bench.name(), fig3_config(true), timed_payload(&row.pf)),
    ]
}

/// §4.1 sweep cell configuration: which cache is swept and its size.
pub fn sweep_config(cache: &str, bytes: u64) -> Json {
    Json::obj(vec![
        ("figure", Json::from("sweep")),
        ("cache", Json::from(cache)),
        ("bytes", Json::from(bytes)),
        ("arch", Json::from(Arch::Ooo4.label())),
        ("variant", Json::from("vis")),
    ])
}

/// One sweep point as a result cell; `cache` is `"l1"` or `"l2"`.
pub fn sweep_cell(bench: Bench, cache: &str, pt: &SweepPoint) -> Json {
    schema::ok_cell(
        bench.name(),
        sweep_config(cache, pt.bytes),
        timed_payload(&pt.summary),
    )
}

/// A generic timed cell for the ablation/kernel binaries:
/// caller-chosen benchmark (or kernel) name and configuration members.
pub fn timed_cell(name: &str, config: Json, summary: &Summary) -> Json {
    schema::ok_cell(name, config, timed_payload(summary))
}

/// `pipetrace` cell configuration: architecture label + VIS flag.
pub fn pipetrace_config(arch: Arch, vis: bool) -> Json {
    Json::obj(vec![
        ("figure", Json::from("pipetrace")),
        ("arch", Json::from(arch.label())),
        ("vis", Json::from(vis)),
    ])
}

/// One `pipetrace` attribution cell: the aggregate (Figure 1) and
/// trace-derived attributions side by side, both in exact integer units
/// of `1/issue_width` cycles. The `validate` gate checks them equal and
/// summing to `cycles * width`.
pub fn pipetrace_cell(
    bench: Bench,
    arch: Arch,
    vis: bool,
    summary: &Summary,
    trace: &Trace,
) -> Json {
    schema::ok_cell(
        bench.name(),
        pipetrace_config(arch, vis),
        vec![
            ("cycles", Json::from(summary.cycles())),
            ("aggregate", summary.cpu.attribution().to_json()),
            ("trace", trace.attribution.to_json()),
            ("dropped_events", Json::from(trace.dropped)),
        ],
    )
}

/// A generic counted cell (functional counter, no timing model).
pub fn counted_cell(name: &str, config: Json, stats: &CpuStats) -> Json {
    schema::ok_cell(name, config, counted_payload(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::WorkloadSize;
    use crate::experiment::{self, CellOutput};
    use crate::manifest::CellSpec;
    use media_kernels::Variant;

    /// Run one cell at a miniature size.
    fn run(spec: CellSpec) -> CellOutput {
        let mut size = WorkloadSize::tiny();
        size.image_w = 32;
        size.image_h = 32;
        size.dotprod_n = 512;
        experiment::run_spec(&spec, &size).expect("cell runs").0
    }

    #[test]
    fn fig1_cell_round_trips_with_full_payload() {
        let summary = run(CellSpec::Timed {
            label: "addition/4-way ooo/vis".into(),
            bench: Bench::Addition,
            cpu: Arch::Ooo4.cpu(),
            mem: Default::default(),
            variant: Variant::VIS,
        })
        .into_summary();
        let cycles = summary.cycles();
        let bar = Fig1Bar {
            arch: Arch::Ooo4,
            vis: true,
            summary,
        };
        let cell = fig1_cell(Bench::Addition, &bar);
        assert_eq!(cell.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            cell.get("benchmark").and_then(Json::as_str),
            Some("addition")
        );
        assert_eq!(cell.get("cycles").and_then(Json::as_u64), Some(cycles));
        let config = cell.get("config").unwrap();
        assert_eq!(config.get("arch").and_then(Json::as_str), Some("4-way ooo"));
        assert!(cell.get("cpu").and_then(|c| c.get("breakdown")).is_some());
        assert!(cell.get("mem").and_then(|m| m.get("l1_accesses")).is_some());
        assert!(cell
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some());
        assert_eq!(Json::parse(&cell.to_compact()).unwrap(), cell);
    }

    #[test]
    fn failed_cell_names_the_error_variant() {
        let e = SimError::Workload {
            bench: "blend".into(),
            detail: "injected".into(),
        };
        let cell = failed_cell("blend", fig1_config(Arch::InOrder1, false), &e);
        assert_eq!(cell.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(
            cell.get("error_kind").and_then(Json::as_str),
            Some("Workload")
        );
        assert!(cell
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("injected"));
    }

    #[test]
    fn fig2_cells_carry_both_variants() {
        let counted = |variant| {
            run(CellSpec::Counted {
                label: "thresh".into(),
                bench: Bench::Thresh,
                variant,
            })
            .into_counts()
        };
        let (base, vis) = (counted(Variant::SCALAR), counted(Variant::VIS));
        let row = Fig2Row {
            bench: Bench::Thresh,
            base,
            vis,
        };
        let cells = fig2_cells(&row);
        assert_eq!(cells.len(), 2);
        let variant = |c: &Json| {
            c.get("config")
                .and_then(|c| c.get("variant"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(variant(&cells[0]), "base");
        assert_eq!(variant(&cells[1]), "vis");
        let retired = |c: &Json| {
            c.get("cpu")
                .and_then(|c| c.get("retired"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert!(retired(&cells[1]) < retired(&cells[0]), "VIS shrinks count");
    }
}
