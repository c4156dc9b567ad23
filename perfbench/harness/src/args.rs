//! `--key value` argument parsing shared by the subcommands.

use std::collections::BTreeMap;

use visim::bench::WorkloadSize;
use visim::sampling::{self, SampleConfig};

/// Parsed `--key value` pairs.
pub struct Args(BTreeMap<String, String>);

impl Args {
    /// Parse alternating `--key value` arguments.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --key, got {key:?}"));
            };
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value);
        }
        Ok(Args(map))
    }

    /// An optional string argument.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// A required string argument.
    pub fn str(&self, key: &str) -> Result<String, String> {
        self.opt(key)
            .map(str::to_string)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// A required unsigned integer argument.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        let v = self.str(key)?;
        v.parse()
            .map_err(|_| format!("--{key}: not a number: {v:?}"))
    }

    /// `--size tiny|study` with `--seed` folded into the workload's
    /// input seed.
    pub fn workload_size(&self) -> Result<WorkloadSize, String> {
        let mut size = match self.str("size")?.as_str() {
            "tiny" => WorkloadSize::tiny(),
            "study" => WorkloadSize::study(),
            other => return Err(format!("--size: expected tiny|study, got {other:?}")),
        };
        size.seed = self.u64("seed")?;
        Ok(size)
    }

    /// The sampling geometry of the workload size: the default
    /// 8000:160000 at study size, 2000:10000 at tiny size, whose streams
    /// are too short for two study-size windows.
    pub fn window_geometry(&self) -> Result<SampleConfig, String> {
        let spec = match self.str("size")?.as_str() {
            "tiny" => "2000:10000",
            _ => "1",
        };
        Ok(sampling::parse_spec(spec)?.expect("a sampling geometry"))
    }
}
