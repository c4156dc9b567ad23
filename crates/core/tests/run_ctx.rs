//! Two run contexts in one process: an exact and a sampled run of the
//! same Figure 1 cell proceed side by side, each with its own store, and
//! neither sees the other's settings.

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::config::Arch;
use visim::manifest::CellSpec;
use visim::store::{CellKey, Store};
use visim::{sampling, RunCtx};
use visim_cpu::Summary;
use visim_mem::MemConfig;

/// A context with its own scratch store and two workers.
fn ctx(tag: &str, sample: &str) -> RunCtx {
    let dir = std::env::temp_dir().join(format!("visim-runctx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    RunCtx {
        store: Some(Store {
            dir: dir.to_string_lossy().into_owned(),
            resume: false,
        }),
        sample: sampling::parse_spec(sample).unwrap(),
        jobs: 2,
        ..RunCtx::default()
    }
}

/// Everything the simulation produced, but no wall clock.
fn outcome(s: &Summary) -> String {
    let mode = s.metrics.counter("cell.sampling.mode");
    format!("{:?}|{:?}|{:?}|mode={mode}", s.cpu, s.mem, s.mshr_histogram)
}

#[test]
fn exact_and_sampled_contexts_run_side_by_side() {
    let (size, mem) = (WorkloadSize::tiny(), MemConfig::default());
    let (bench, cpu, variant) = (Bench::Addition, Arch::Ooo4.cpu(), Variant::SCALAR);
    let spec = CellSpec::Timed {
        label: "addition/4-way ooo/base".into(),
        workload: bench.into(),
        cpu: cpu.clone(),
        mem: mem.clone(),
        variant,
    };
    let run = |ctx: &RunCtx| ctx.run_spec(&spec, &size).unwrap().0.into_summary();
    let (exact, sampled) = (ctx("exact", "0"), ctx("sampled", "200:1000"));
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run(&exact));
        let b = s.spawn(|| run(&sampled));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a.metrics.counter("cell.sampling.mode"), 0);
    let mode = b.metrics.counter("cell.sampling.mode");
    assert!(matches!(mode, 1 | 2), "sampled mode {mode}");

    let key = |ctx: &RunCtx| CellKey::timed(bench.name(), &cpu, &mem, &size, variant, ctx.sample);
    assert_ne!(key(&exact).file_name(), key(&sampled).file_name());
    for (ctx, concurrent) in [(&exact, &a), (&sampled, &b)] {
        // The same context run alone, serially and without a store.
        let serial = RunCtx {
            store: None,
            jobs: 1,
            ..ctx.clone()
        };
        assert_eq!(outcome(concurrent), outcome(&run(&serial)));
        // The cell landed under the context's own key, in its own store.
        let dir = &ctx.store.as_ref().unwrap().dir;
        let files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, [key(ctx).file_name()]);
        std::fs::remove_dir_all(dir).ok();
    }
}
