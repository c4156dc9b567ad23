//! Declarative experiment manifests (`visim-manifest-v1`).
//!
//! A manifest describes one experiment — which benchmarks, which
//! configuration axes, which code variants, and which output artifact —
//! as data instead of code. The authoritative copies live under
//! `results/manifests/<name>.json`; each figure binary also embeds its
//! manifest at compile time ([`Manifest::builtin`]) so the binaries
//! keep working from any directory (the verification gates run them
//! from scratch directories), with `--manifest <path>` overriding the
//! built-in description at runtime.
//!
//! [`Manifest::cells`] is the only grid expansion: it turns a manifest
//! into [`CellSpec`]s, which `RunCtx::run_spec` executes through
//! the worker pool, content-addressed result store, trace cache, and
//! sampling machinery. The figure binaries fold the cells into figure
//! rows (`RunCtx::run_manifest`) and reduce to "load manifest, run
//! engine, render"; the `visim-serve` daemon streams the same cells one
//! by one.
//!
//! The grid kinds mirror the paper's artifacts: `fig1`/`fig2`/`fig3`,
//! the §4.1 cache `sweep`s, the descriptive `tables`, the design
//! `ablation` sections, and the appendix `kernels14` sweep. Presentation
//! that is intrinsically figure-shaped (table layouts, in-text
//! statistics) stays in the renderer keyed by grid kind — the manifest
//! carries the *what* (benchmarks, axes, values, titles), the renderer
//! owns the *how it reads*, and the split is what keeps the output
//! byte-identical to the hand-rolled drivers this module replaced.

use media_kernels::{KernelId, Variant};
use visim_cpu::CpuConfig;
use visim_mem::MemConfig;
use visim_obs::Json;

use crate::bench::{Bench, Workload};
use crate::config::Arch;

/// Schema tag every manifest file must carry.
pub const MANIFEST_SCHEMA: &str = "visim-manifest-v1";

// The authoritative manifest files, embedded at compile time so the
// binaries run from any working directory.
const BUILTINS: &[(&str, &str)] = &[
    ("fig1", include_str!("../../../results/manifests/fig1.json")),
    ("fig2", include_str!("../../../results/manifests/fig2.json")),
    ("fig3", include_str!("../../../results/manifests/fig3.json")),
    (
        "sweep_l1",
        include_str!("../../../results/manifests/sweep_l1.json"),
    ),
    (
        "sweep_l2",
        include_str!("../../../results/manifests/sweep_l2.json"),
    ),
    (
        "tables",
        include_str!("../../../results/manifests/tables.json"),
    ),
    (
        "ablation",
        include_str!("../../../results/manifests/ablation.json"),
    ),
    (
        "kernels14",
        include_str!("../../../results/manifests/kernels14.json"),
    ),
];

/// Which cache the §4.1 sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepCache {
    /// Vary the L1 size, L2 fixed.
    L1,
    /// Vary the L2 size, L1 fixed.
    L2,
}

impl SweepCache {
    /// The artifact key (`"l1"`/`"l2"`) used in result cells.
    pub fn key(self) -> &'static str {
        match self {
            SweepCache::L1 => "l1",
            SweepCache::L2 => "l2",
        }
    }

    /// The memory configuration for one sweep point.
    pub fn mem_config(self, bytes: u64) -> MemConfig {
        match self {
            SweepCache::L1 => MemConfig::default().with_l1_size(bytes),
            SweepCache::L2 => MemConfig::default().with_l2_size(bytes),
        }
    }
}

/// Which machine parameter an ablation section sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationParam {
    /// `CpuConfig::issue_width`.
    IssueWidth,
    /// `CpuConfig::window`.
    Window,
    /// `MemConfig::{l1,l2}.mshrs`.
    MshrCount,
    /// `CpuConfig::mispredict_penalty`.
    MispredictPenalty,
    /// `CpuConfig::blocking_loads` (any nonzero value = blocking).
    BlockingLoads,
}

impl AblationParam {
    fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "issue-width" => AblationParam::IssueWidth,
            "window" => AblationParam::Window,
            "mshr-count" => AblationParam::MshrCount,
            "mispredict-penalty" => AblationParam::MispredictPenalty,
            "blocking-loads" => AblationParam::BlockingLoads,
            other => return Err(format!("unknown ablation param {other:?}")),
        })
    }

    /// The machine configuration for one sweep value, derived from the
    /// out-of-order baseline.
    pub fn config(self, value: u64) -> (CpuConfig, MemConfig) {
        let mut cpu = CpuConfig::ooo_4way();
        let mut mem = MemConfig::default();
        match self {
            AblationParam::IssueWidth => cpu.issue_width = value as u32,
            AblationParam::Window => cpu.window = value as u32,
            AblationParam::MshrCount => {
                mem.l1.mshrs = value as u32;
                mem.l2.mshrs = value as u32;
            }
            AblationParam::MispredictPenalty => cpu.mispredict_penalty = value,
            AblationParam::BlockingLoads => cpu.blocking_loads = value != 0,
        }
        (cpu, mem)
    }
}

/// One base-plus-variants ablation section: a baseline run per
/// benchmark plus one run per sweep value, rendered as slowdown ratios.
#[derive(Debug, Clone)]
pub struct AblationSection {
    /// Artifact key (`config.section` in the result cells).
    pub key: String,
    /// Section title as printed.
    pub title: String,
    /// The parameter this section sweeps.
    pub param: AblationParam,
    /// The sweep values (applied via [`AblationParam::config`]).
    pub values: Vec<u64>,
    /// Table headers: `benchmark` plus one label per sweep value. The
    /// value labels double as the cells' `config.value` members.
    pub headers: Vec<String>,
}

/// The MSHR-occupancy histogram section of the ablation experiment.
#[derive(Debug, Clone)]
pub struct HistogramSection {
    /// Section title as printed.
    pub title: String,
    /// Benchmarks whose MSHR histograms are reported.
    pub benchmarks: Vec<Bench>,
    /// `(display label, code variant)` pairs, in print order.
    pub variants: Vec<(String, Variant)>,
}

/// The experiment grid a manifest describes.
#[derive(Debug, Clone)]
pub enum Grid {
    /// Figure 1: benchmarks × architectures × {base, VIS} timing bars.
    Fig1 {
        /// Benchmarks, in figure order.
        benchmarks: Vec<Bench>,
        /// Architecture variations, in bar order.
        archs: Vec<Arch>,
        /// Code variants (outer bar axis).
        variants: Vec<Variant>,
    },
    /// Figure 2: counted instruction mixes, base vs. VIS.
    Fig2 {
        /// Benchmarks, in figure order.
        benchmarks: Vec<Bench>,
        /// Benchmarks singled out for the in-text mispredict statistics.
        highlights: Vec<String>,
    },
    /// Figure 3: VIS vs. VIS+prefetch timing pairs.
    Fig3 {
        /// Benchmarks (the paper's prefetch set), in figure order.
        benchmarks: Vec<Bench>,
    },
    /// §4.1 cache-size sweep.
    Sweep {
        /// Which cache is varied.
        cache: SweepCache,
        /// Benchmarks, in print order.
        benchmarks: Vec<Bench>,
        /// Cache sizes in bytes, in sweep order.
        bytes: Vec<u64>,
    },
    /// Tables 1-4 (static; no simulation cells).
    Tables,
    /// Design-choice ablations: ratio sections plus the MSHR histogram.
    Ablation {
        /// Benchmarks every ratio section runs.
        benchmarks: Vec<Bench>,
        /// The ratio sections, in print order.
        sections: Vec<AblationSection>,
        /// The MSHR-occupancy histogram section.
        histogram: HistogramSection,
    },
    /// Appendix: the full VSDK kernel sweep.
    Kernels14 {
        /// Kernels, in table order.
        kernels: Vec<KernelId>,
    },
}

/// A parsed experiment manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Experiment name: the artifact base name (`results/json/<name>`).
    pub name: String,
    /// One-line purpose, used in the binaries' usage text.
    pub about: String,
    /// Optional headline printed before the first section.
    pub title: Option<String>,
    /// The experiment grid.
    pub grid: Grid,
}

fn bench_from_name(name: &str) -> Result<Bench, String> {
    Bench::all()
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

fn arch_from_label(label: &str) -> Result<Arch, String> {
    Arch::all()
        .into_iter()
        .find(|a| a.label() == label)
        .ok_or_else(|| format!("unknown architecture {label:?}"))
}

/// Parse a code-variant name. `"base"` and `"scalar"` are synonyms, as
/// are the upper-case display forms used by histogram sections.
pub fn variant_from_name(name: &str) -> Result<Variant, String> {
    match name.to_ascii_lowercase().as_str() {
        "base" | "scalar" => Ok(Variant::SCALAR),
        "vis" => Ok(Variant::VIS),
        "vis+pf" => Ok(Variant::VIS_PF),
        other => Err(format!("unknown variant {other:?}")),
    }
}

fn kernel_from_name(name: &str) -> Result<KernelId, String> {
    KernelId::all()
        .iter()
        .copied()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown kernel {name:?}"))
}

fn str_member<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string {key:?} member"))
}

fn arr_member<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    obj.get(key)
        .and_then(Json::elements)
        .ok_or_else(|| format!("missing or non-array {key:?} member"))
}

fn str_list(obj: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_member(obj, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{key:?} holds a non-string element"))
        })
        .collect()
}

fn u64_list(obj: &Json, key: &str) -> Result<Vec<u64>, String> {
    arr_member(obj, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{key:?} holds a non-integer element"))
        })
        .collect()
}

fn bench_list(obj: &Json, key: &str) -> Result<Vec<Bench>, String> {
    str_list(obj, key)?
        .iter()
        .map(|s| bench_from_name(s))
        .collect()
}

fn parse_sections(grid: &Json) -> Result<Vec<AblationSection>, String> {
    arr_member(grid, "sections")?
        .iter()
        .map(|s| {
            let values = u64_list(s, "values")?;
            let headers = str_list(s, "headers")?;
            if headers.len() != values.len() + 1 {
                return Err(format!(
                    "section {:?}: {} headers for {} values (want values + 1)",
                    str_member(s, "key").unwrap_or("?"),
                    headers.len(),
                    values.len()
                ));
            }
            Ok(AblationSection {
                key: str_member(s, "key")?.to_string(),
                title: str_member(s, "title")?.to_string(),
                param: AblationParam::parse(str_member(s, "param")?)?,
                values,
                headers,
            })
        })
        .collect()
}

fn parse_histogram(grid: &Json) -> Result<HistogramSection, String> {
    let h = grid
        .get("histogram")
        .ok_or_else(|| "missing \"histogram\" member".to_string())?;
    let variants = str_list(h, "variants")?
        .into_iter()
        .map(|label| variant_from_name(&label).map(|v| (label, v)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(HistogramSection {
        title: str_member(h, "title")?.to_string(),
        benchmarks: bench_list(h, "benchmarks")?,
        variants,
    })
}

impl Manifest {
    /// Parse a `visim-manifest-v1` document.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = str_member(&doc, "schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "schema {schema:?}, this binary expects {MANIFEST_SCHEMA:?}"
            ));
        }
        let grid = doc
            .get("grid")
            .ok_or_else(|| "missing \"grid\" member".to_string())?;
        let kind = str_member(grid, "kind")?;
        let parsed = match kind {
            "fig1" => Grid::Fig1 {
                benchmarks: bench_list(grid, "benchmarks")?,
                archs: str_list(grid, "archs")?
                    .iter()
                    .map(|s| arch_from_label(s))
                    .collect::<Result<_, _>>()?,
                variants: str_list(grid, "variants")?
                    .iter()
                    .map(|s| variant_from_name(s))
                    .collect::<Result<_, _>>()?,
            },
            "fig2" => Grid::Fig2 {
                benchmarks: bench_list(grid, "benchmarks")?,
                highlights: str_list(grid, "mispredict_highlights")?,
            },
            "fig3" => Grid::Fig3 {
                benchmarks: bench_list(grid, "benchmarks")?,
            },
            "sweep" => Grid::Sweep {
                cache: match str_member(grid, "cache")? {
                    "l1" => SweepCache::L1,
                    "l2" => SweepCache::L2,
                    other => return Err(format!("unknown sweep cache {other:?}")),
                },
                benchmarks: bench_list(grid, "benchmarks")?,
                bytes: u64_list(grid, "bytes")?,
            },
            "tables" => Grid::Tables,
            "ablation" => Grid::Ablation {
                benchmarks: bench_list(grid, "benchmarks")?,
                sections: parse_sections(grid)?,
                histogram: parse_histogram(grid)?,
            },
            "kernels14" => Grid::Kernels14 {
                kernels: str_list(grid, "kernels")?
                    .iter()
                    .map(|s| kernel_from_name(s))
                    .collect::<Result<_, _>>()?,
            },
            other => return Err(format!("unknown grid kind {other:?}")),
        };
        Ok(Manifest {
            name: str_member(&doc, "name")?.to_string(),
            about: str_member(&doc, "about")?.to_string(),
            title: doc.get("title").and_then(Json::as_str).map(str::to_string),
            grid: parsed,
        })
    }

    /// The embedded manifest text for one of the eight built-in
    /// experiments (the compile-time copy of
    /// `results/manifests/<name>.json`).
    pub fn builtin_text(name: &str) -> Option<&'static str> {
        BUILTINS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, text)| *text)
    }

    /// The parsed built-in manifest named `name`. The embedded texts
    /// are validated by unit tests, so a parse failure here means the
    /// binary itself is corrupt.
    pub fn builtin(name: &str) -> Option<Manifest> {
        Self::builtin_text(name).map(|text| {
            Manifest::parse(text)
                .unwrap_or_else(|e| panic!("embedded manifest {name:?} is invalid: {e}"))
        })
    }

    /// Names of every built-in manifest, in suite order.
    pub fn builtin_names() -> Vec<&'static str> {
        BUILTINS.iter().map(|(n, _)| *n).collect()
    }

    /// Load and parse a manifest file from disk.
    pub fn load_file(path: &str) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Manifest::parse(&text)
    }

    /// Enumerate the manifest's simulation cells as self-contained
    /// specs, in grid order: per benchmark, every cell of its figure
    /// row (bars, sweep points, or base-then-VIS pairs) in bar order;
    /// per appendix kernel, its counted base and VIS cells, then its
    /// timed base and VIS cells.
    /// This is the only grid expansion — the serve daemon schedules
    /// these cells, and `RunCtx::run_manifest` runs them and folds
    /// the results back into rows relying on this order.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        match &self.grid {
            Grid::Fig1 {
                benchmarks,
                archs,
                variants,
            } => {
                for &bench in benchmarks {
                    for &variant in variants {
                        for &arch in archs {
                            cells.push(CellSpec::Timed {
                                label: format!(
                                    "{}/{}/{}",
                                    bench.name(),
                                    arch.label(),
                                    variant_label(variant)
                                ),
                                workload: bench.into(),
                                cpu: arch.cpu(),
                                mem: MemConfig::default(),
                                variant,
                            });
                        }
                    }
                }
            }
            Grid::Fig2 { benchmarks, .. } => {
                for &bench in benchmarks {
                    for variant in [Variant::SCALAR, Variant::VIS] {
                        cells.push(CellSpec::Counted {
                            label: format!("{}/{}", bench.name(), variant_label(variant)),
                            workload: bench.into(),
                            variant,
                        });
                    }
                }
            }
            Grid::Fig3 { benchmarks } => {
                for &bench in benchmarks {
                    for variant in [Variant::VIS, Variant::VIS_PF] {
                        cells.push(CellSpec::Timed {
                            label: format!("{}/{}", bench.name(), variant_label(variant)),
                            workload: bench.into(),
                            cpu: Arch::Ooo4.cpu(),
                            mem: MemConfig::default(),
                            variant,
                        });
                    }
                }
            }
            Grid::Sweep {
                cache,
                benchmarks,
                bytes,
            } => {
                for &bench in benchmarks {
                    for &b in bytes {
                        cells.push(CellSpec::Timed {
                            label: format!("{}/{}={}", bench.name(), cache.key(), b),
                            workload: bench.into(),
                            cpu: Arch::Ooo4.cpu(),
                            mem: cache.mem_config(b),
                            variant: Variant::VIS,
                        });
                    }
                }
            }
            Grid::Tables => {}
            Grid::Ablation {
                benchmarks,
                sections,
                histogram,
            } => {
                for section in sections {
                    for &bench in benchmarks {
                        cells.push(CellSpec::Timed {
                            label: format!("{}/{}/base", bench.name(), section.key),
                            workload: bench.into(),
                            cpu: CpuConfig::ooo_4way(),
                            mem: MemConfig::default(),
                            variant: Variant::VIS,
                        });
                        for (&value, header) in
                            section.values.iter().zip(section.headers[1..].iter())
                        {
                            let (cpu, mem) = section.param.config(value);
                            cells.push(CellSpec::Timed {
                                label: format!("{}/{}/{}", bench.name(), section.key, header),
                                workload: bench.into(),
                                cpu,
                                mem,
                                variant: Variant::VIS,
                            });
                        }
                    }
                }
                for &bench in &histogram.benchmarks {
                    for (label, variant) in &histogram.variants {
                        cells.push(CellSpec::Timed {
                            label: format!("{}/mshr-occupancy/{}", bench.name(), label),
                            workload: bench.into(),
                            cpu: Arch::Ooo4.cpu(),
                            mem: MemConfig::default(),
                            variant: *variant,
                        });
                    }
                }
            }
            Grid::Kernels14 { kernels } => {
                for &kernel in kernels {
                    let workload = Workload::Kernel(kernel);
                    let name = workload.name();
                    for variant in [Variant::SCALAR, Variant::VIS] {
                        cells.push(CellSpec::Counted {
                            label: format!("{name}/{}", variant_label(variant)),
                            workload,
                            variant,
                        });
                    }
                    for variant in [Variant::SCALAR, Variant::VIS] {
                        cells.push(CellSpec::Timed {
                            label: format!(
                                "{name}/{}/{}",
                                Arch::Ooo4.label(),
                                variant_label(variant)
                            ),
                            workload,
                            cpu: CpuConfig::ooo_4way(),
                            mem: MemConfig::default(),
                            variant,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// Display label for a variant (the manifest vocabulary).
pub fn variant_label(v: Variant) -> &'static str {
    match (v.vis, v.prefetch) {
        (false, _) => "base",
        (true, false) => "vis",
        (true, true) => "vis+pf",
    }
}

/// One self-contained simulation cell of a manifest, executed by
/// `RunCtx::run_spec`. Its identity is its result-store key
/// (`RunCtx::cell_key`).
#[derive(Debug, Clone)]
pub enum CellSpec {
    /// A detailed-timing cell.
    Timed {
        /// Human-readable cell label (unique within the manifest).
        label: String,
        /// The instruction-stream source.
        workload: Workload,
        /// Processor configuration.
        cpu: CpuConfig,
        /// Memory-system configuration.
        mem: MemConfig,
        /// Code variant.
        variant: Variant,
    },
    /// A functional counting cell.
    Counted {
        /// Human-readable cell label.
        label: String,
        /// The instruction-stream source.
        workload: Workload,
        /// Code variant.
        variant: Variant,
    },
}

impl CellSpec {
    /// The cell's display label.
    pub fn label(&self) -> &str {
        match self {
            CellSpec::Timed { label, .. } | CellSpec::Counted { label, .. } => label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::WorkloadSize;
    use crate::RunCtx;

    #[test]
    fn all_builtin_manifests_parse_and_enumerate_their_grids() {
        let expect = [
            ("fig1", 72),
            ("fig2", 24),
            ("fig3", 18),
            ("sweep_l1", 60),
            ("sweep_l2", 60),
            ("tables", 0),
            ("ablation", 70),
            ("kernels14", 56),
        ];
        for (name, cells) in expect {
            let m = Manifest::builtin(name)
                .unwrap_or_else(|| panic!("builtin manifest {name} missing"));
            assert_eq!(m.name, name);
            assert!(!m.about.is_empty());
            let specs = m.cells();
            assert_eq!(specs.len(), cells, "{name} cell count");
            // Labels are unique: the serve daemon keys progress on them.
            let mut labels: Vec<_> = specs.iter().map(|c| c.label().to_string()).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), specs.len(), "{name} labels collide");
        }
        assert_eq!(Manifest::builtin_names().len(), 8);
        assert!(Manifest::builtin("no-such-experiment").is_none());
    }

    /// A cell's identity is its store key. Across every cell of every
    /// built-in manifest, two cells share a key exactly when they are
    /// the same simulation (figures do share cells: Figure 3's VIS bars
    /// are Figure 1's 4-way ooo VIS bars), and the kernels' cells never
    /// collide with a benchmark's.
    #[test]
    fn identities_distinguish_configurations() {
        let ctx = RunCtx::default();
        let size = WorkloadSize::tiny();
        let unlabeled = |spec: &CellSpec| {
            let mut spec = spec.clone();
            match &mut spec {
                CellSpec::Timed { label, .. } | CellSpec::Counted { label, .. } => label.clear(),
            }
            format!("{spec:?}")
        };
        let mut by_key = std::collections::BTreeMap::new();
        for name in Manifest::builtin_names() {
            let cells = Manifest::builtin(name).unwrap().cells();
            let keys: std::collections::BTreeSet<_> = cells
                .iter()
                .map(|c| ctx.cell_key(c, &size).text().to_string())
                .collect();
            match name {
                "fig1" => assert_eq!(keys.len(), 72, "every fig1 cell has its own key"),
                "kernels14" => assert_eq!(keys.len(), 56, "every kernel cell has its own key"),
                _ => {}
            }
            for c in &cells {
                let key = ctx.cell_key(c, &size).text().to_string();
                let cell = unlabeled(c);
                let prior = by_key.entry(key).or_insert_with(|| cell.clone());
                assert_eq!(*prior, cell, "{name}: two different cells share a key");
            }
        }
        let mut cells: Vec<_> = by_key.values().collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), by_key.len(), "one cell under two keys");
        // The same cell at a different size is a different identity.
        let cell = &Manifest::builtin("fig1").unwrap().cells()[0];
        assert_ne!(
            ctx.cell_key(cell, &WorkloadSize::tiny()),
            ctx.cell_key(cell, &WorkloadSize::study())
        );
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(Manifest::parse("{").is_err());
        assert!(Manifest::parse("{}").is_err());
        let wrong_schema = r#"{"schema":"visim-manifest-v0","name":"x","about":"y",
                              "grid":{"kind":"tables"}}"#;
        assert!(Manifest::parse(wrong_schema)
            .unwrap_err()
            .contains("schema"));
        let bad_bench = r#"{"schema":"visim-manifest-v1","name":"x","about":"y",
            "grid":{"kind":"fig2","benchmarks":["no-such-bench"],
                    "mispredict_highlights":[]}}"#;
        assert!(Manifest::parse(bad_bench)
            .unwrap_err()
            .contains("no-such-bench"));
        let bad_kind = r#"{"schema":"visim-manifest-v1","name":"x","about":"y",
                           "grid":{"kind":"fig9"}}"#;
        assert!(Manifest::parse(bad_kind).unwrap_err().contains("fig9"));
    }

    #[test]
    fn ablation_params_derive_configs_from_the_ooo_baseline() {
        let (cpu, mem) = AblationParam::IssueWidth.config(2);
        assert_eq!(cpu.issue_width, 2);
        assert_eq!(mem.l1.mshrs, MemConfig::default().l1.mshrs);
        let (cpu, mem) = AblationParam::MshrCount.config(24);
        assert_eq!(mem.l1.mshrs, 24);
        assert_eq!(mem.l2.mshrs, 24);
        assert_eq!(cpu.issue_width, CpuConfig::ooo_4way().issue_width);
        let (cpu, _) = AblationParam::BlockingLoads.config(1);
        assert!(cpu.blocking_loads);
        let (cpu, _) = AblationParam::MispredictPenalty.config(20);
        assert_eq!(cpu.mispredict_penalty, 20);
    }

    #[test]
    fn variant_vocabulary_round_trips() {
        for (name, v) in [
            ("base", Variant::SCALAR),
            ("vis", Variant::VIS),
            ("vis+pf", Variant::VIS_PF),
        ] {
            assert_eq!(variant_from_name(name).unwrap(), v);
            assert_eq!(variant_label(v), name);
        }
        assert_eq!(variant_from_name("VIS+PF").unwrap(), Variant::VIS_PF);
        assert!(variant_from_name("mmx").is_err());
    }
}
