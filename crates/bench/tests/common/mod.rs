//! Helpers shared by the figure-binary tests.

use visim_obs::Json;

/// Map the members of a JSON object; anything else passes through.
fn members(v: Json, f: impl FnOnce(Vec<(String, Json)>) -> Vec<(String, Json)>) -> Json {
    match v {
        Json::Obj(m) => Json::Obj(f(m)),
        other => other,
    }
}

/// Drop every run-varying member of a results document: its
/// `wall_seconds`, `jobs` and run-level `metrics` (pool timings, store,
/// trace-cache, retry and fault counters), and each cell's `cell.*`
/// counters (emit/simulate wall clock, replay/hit flags) unless `keep`
/// names them. What remains is simulation output, identical however
/// the run was executed.
pub fn scrub_doc(doc: Json, keep: &dyn Fn(&str) -> bool) -> Json {
    let counters = |c: Vec<(String, Json)>| -> Vec<(String, Json)> {
        c.into_iter()
            .filter(|(name, _)| !name.starts_with("cell.") || keep(name))
            .collect()
    };
    let metrics = |m: Vec<(String, Json)>| -> Vec<(String, Json)> {
        m.into_iter()
            .map(|(k, v)| match k.as_str() {
                "counters" => (k, members(v, counters)),
                _ => (k, v),
            })
            .collect()
    };
    let cell = |c: Json| {
        members(c, |m| {
            m.into_iter()
                .map(|(k, v)| match k.as_str() {
                    "metrics" => (k, members(v, metrics)),
                    _ => (k, v),
                })
                .collect()
        })
    };
    members(doc, |m| {
        m.into_iter()
            .filter(|(k, _)| !matches!(k.as_str(), "wall_seconds" | "metrics" | "jobs"))
            .map(|(k, v)| match (k.as_str(), v) {
                ("cells", Json::Arr(cells)) => {
                    (k, Json::Arr(cells.into_iter().map(cell).collect()))
                }
                (_, v) => (k, v),
            })
            .collect()
    })
}
