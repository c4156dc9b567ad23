//! Content-addressed result store: the durability layer under the
//! experiment engine.
//!
//! Every completed (benchmark × configuration) cell can be persisted as
//! one file under the store directory and served back on a resumed run,
//! so a crashed study loses at most the cells in flight — not the hours
//! of finished simulation behind them. The design follows the
//! checkpoint framing in `visim-trace` (`VCKP`): versioned framing, a
//! trailing FNV-1a checksum, and purge-and-recompute on any validation
//! failure — never trust, never crash.
//!
//! * **Keying.** A cell's identity is the full text
//!   `"<kind>|<workload>|<variant>|<size Debug>|cpu=<CpuConfig Debug>|
//!   mem=<MemConfig Debug>[|sample=…]"` — everything the simulation
//!   result depends on ([`CellKey::text`]; counted cells stop after the
//!   size). The serve daemon coalesces requests on the same text, so a
//!   cell has one identity. The file name carries `fnv1a64` of that
//!   text; the entry echoes the full text so a hash collision (or
//!   renamed file) is detected on load and treated as corruption.
//! * **Freshness.** Each entry records the store format version, the
//!   `visim-results-v2` schema tag, and the writing binary's git
//!   revision. A mismatch on load means the entry was produced by
//!   different code: it is *purged and recomputed*
//!   (`store.stale_purged`), never served — a stale cell that parses is
//!   more dangerous than a torn one.
//! * **Atomicity.** Writes land via `visim_util::atomic::write_atomic`
//!   (temp file + `sync_all` + rename), so a SIGKILL mid-write leaves
//!   either the old complete entry or the new complete entry. The
//!   `store.write.torn` fault point bypasses exactly this discipline to
//!   prove the checksum catches the resulting tear.
//! * **Failed cells too.** A deterministic `SimError` is stored with
//!   `status: failed` and served back on resume, reproducing the
//!   original error row byte-for-byte instead of re-running a known
//!   failure. Transient (retryable) faults are never stored.
//!
//! A run has a store when its [`crate::ctx::RunCtx`] names one: the
//! binaries default to `results/store`, `--store-dir D` moves it and
//! `--no-store` drops it. Reads happen only on resume ([`Store::resume`]:
//! `--resume`, and always in the serve daemon); writes happen on every
//! run, which is what makes any run crash-safe by default.
//!
//! Hits, misses, writes and purges count into the process-wide metrics
//! sink under [`COUNTERS`].

use media_kernels::Variant;
use visim_cpu::{CpuConfig, CpuStats, Summary};
use visim_mem::MemConfig;
use visim_obs::codec::{ByteReader, ByteWriter};
use visim_obs::live;
use visim_obs::schema::{git_rev_cached, RESULTS_SCHEMA};
use visim_util::{fault, fnv1a64, SimError};

use crate::bench::WorkloadSize;
use crate::ctx;
use crate::sampling::SampleConfig;

/// On-disk entry format version; bump on any layout change so old
/// entries are purged as stale instead of misread.
pub const STORE_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"VSTR";

/// A run's result store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Store {
    /// The directory holding one file per cell.
    pub dir: String,
    /// Serve finished cells back instead of simulating them again.
    pub resume: bool,
}

/// Point the process default's store at `dir`, without resume (see
/// [`crate::ctx`]; the benchmark harness's entry point).
pub fn set_cli_dir(dir: &str) {
    ctx::with_default(|c| {
        c.store = Some(Store {
            dir: dir.to_string(),
            resume: false,
        })
    });
}

/// [`CellKey::timed`] under the process default, or `None` without a
/// store (the benchmark harness's entry point).
pub fn timed_key(
    bench: &str,
    cpu: &CpuConfig,
    mem: &MemConfig,
    size: &WorkloadSize,
    variant: Variant,
) -> Option<CellKey> {
    let c = ctx::process_default();
    c.store
        .map(|_| CellKey::timed(bench, cpu, mem, size, variant, c.sample))
}

/// [`Store::load`] on the process default's store (the benchmark
/// harness's entry point).
pub fn load(key: &CellKey) -> Option<Entry> {
    ctx::process_default().store?.load(key)
}

/// [`Store::save`] on the process default's store (the benchmark
/// harness's entry point).
pub fn save(key: &CellKey, entry: &Entry) {
    if let Some(store) = ctx::process_default().store {
        store.save(key, entry);
    }
}

/// What kind of payload a cell holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A detailed timing run: a full [`Summary`].
    Timed,
    /// A functional counting run: [`CpuStats`] only.
    Counted,
}

impl Kind {
    fn tag(self) -> u8 {
        match self {
            Kind::Timed => 0,
            Kind::Counted => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, String> {
        match tag {
            0 => Ok(Kind::Timed),
            1 => Ok(Kind::Counted),
            other => Err(format!("unknown payload kind {other}")),
        }
    }
}

/// The content address of one experiment cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    kind: Kind,
    /// The full identity text (see module docs); hashing it yields the
    /// file name, echoing it in the entry defends against collisions.
    text: String,
    /// Filename-safe label prefix (benchmark name) for the entry file.
    label: String,
}

impl CellKey {
    /// The content hash of the identity text.
    pub fn hash(&self) -> u64 {
        fnv1a64(self.text.as_bytes())
    }

    /// The entry's file name: `<label>.<kind>.<hash>.vcell`.
    pub fn file_name(&self) -> String {
        let kind = match self.kind {
            Kind::Timed => "timed",
            Kind::Counted => "counted",
        };
        format!(
            "{}.{kind}.{:016x}.vcell",
            sanitize(&self.label),
            self.hash()
        )
    }

    fn path(&self, dir: &str) -> std::path::PathBuf {
        std::path::Path::new(dir).join(self.file_name())
    }
}

fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn variant_bits(variant: Variant) -> String {
    format!(
        "{}{}",
        if variant.vis { 'v' } else { 's' },
        if variant.prefetch { 'p' } else { '-' }
    )
}

impl CellKey {
    /// The key for a detailed timing cell. Everything the result
    /// depends on is folded in: the workload's name (a benchmark, or
    /// `k14.<kernel>`), code variant, full workload geometry (seed
    /// included), the complete machine configuration, and the run's
    /// sampling geometry. The geometry is there even for cells that
    /// fall back to exact simulation, so sampled estimates and exact
    /// measurements never share a store entry in either direction, and
    /// neither do runs of different geometries.
    pub fn timed(
        workload: &str,
        cpu: &CpuConfig,
        mem: &MemConfig,
        size: &WorkloadSize,
        variant: Variant,
        sample: Option<SampleConfig>,
    ) -> CellKey {
        CellKey {
            kind: Kind::Timed,
            text: format!(
                "timed|{workload}|{}|{size:?}|cpu={cpu:?}|mem={mem:?}{}",
                variant_bits(variant),
                sample.map(|cfg| cfg.key_suffix()).unwrap_or_default()
            ),
            label: workload.to_string(),
        }
    }

    /// The key for a functional counting cell (no machine configuration:
    /// the counts depend only on the emitted stream).
    pub fn counted(workload: &str, size: &WorkloadSize, variant: Variant) -> CellKey {
        CellKey {
            kind: Kind::Counted,
            text: format!("counted|{workload}|{}|{size:?}", variant_bits(variant)),
            label: workload.to_string(),
        }
    }

    /// The full identity text: the store files the cell under its hash,
    /// and the serve daemon coalesces concurrent requests on it.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// A stored cell: the completed payload, or the deterministic error the
/// cell failed with.
#[derive(Debug, Clone)]
pub enum Entry {
    /// A completed timing run (boxed: a `Summary` dwarfs the other
    /// variants).
    Timed(Box<Summary>),
    /// A completed counting run.
    Counted(CpuStats),
    /// A deterministic failure (`status: failed`): served back on
    /// resume so known failures are not re-run.
    Failed(SimError),
}

/// Why a present entry was rejected (and purged).
#[derive(Debug)]
enum Reject {
    /// Torn write, bit flip, bad magic, key mismatch, undecodable
    /// payload.
    Corrupt(String),
    /// Valid frame written by different code: format version, schema,
    /// or git revision mismatch.
    Stale(String),
}

const HIT: &str = "store.hit";
const MISS: &str = "store.miss";
const WRITES: &str = "store.writes";
const CORRUPT_PURGED: &str = "store.corrupt_purged";
const STALE_PURGED: &str = "store.stale_purged";

/// The store's counters in the process-wide metrics sink. All five are
/// declared in every run's metrics block — a zero `store.stale_purged`
/// is evidence of freshness, not absence of instrumentation.
pub const COUNTERS: [&str; 5] = [HIT, MISS, WRITES, CORRUPT_PURGED, STALE_PURGED];

/// Aggregate statistics for the entries one (schema, revision) pairing
/// wrote — the unit of staleness: entries under another pairing would
/// be purged instead of served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevStats {
    /// Results-schema tag the entries carry.
    pub schema: String,
    /// Git revision that wrote them.
    pub rev: String,
    /// Number of valid entries.
    pub entries: u64,
    /// Their total size on disk in bytes.
    pub bytes: u64,
}

/// A scan of the whole store directory (the `--store-stats` flag and
/// the serve daemon's `store.bytes` accounting).
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Valid `.vcell` entries found.
    pub entries: u64,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Files that failed checksum/framing validation (candidates for
    /// purge on their next lookup; left in place by the scan).
    pub invalid: u64,
    /// Per-(schema, revision) breakdown, sorted for stable output.
    pub revs: Vec<RevStats>,
}

/// Open one encoded entry's frame: the length, the trailing checksum
/// and the magic, in that order. Checksum first: no field of a torn or
/// flipped entry is believed. Returns the format version and a reader
/// over the rest of the body (schema, revision, key echo, payload).
fn open_frame(bytes: &[u8]) -> Result<(u32, ByteReader<'_>), String> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(format!("{} bytes is too short", bytes.len()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let expect = u64::from_le_bytes(trailer.try_into().unwrap());
    if fnv1a64(body) != expect {
        return Err("checksum mismatch".into());
    }
    let mut r = ByteReader::new(body);
    if r.raw(4)? != MAGIC {
        return Err("bad magic".into());
    }
    let version = r.u32()?;
    Ok((version, r))
}

/// Read the (schema, revision) stamps of one encoded entry through
/// [`open_frame`]. `None` means the file is not a well-formed store
/// entry.
fn entry_stamps(bytes: &[u8]) -> Option<(String, String)> {
    let (_version, mut r) = open_frame(bytes).ok()?;
    let schema = r.str().ok()?;
    let rev = r.str().ok()?;
    Some((schema, rev))
}

/// Encode one entry in the framed store format (magic, version, schema,
/// revision, key echo, status, payload, trailing checksum).
fn encode_entry(key: &CellKey, entry: &Entry, schema: &str, rev: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(MAGIC);
    w.put_u32(STORE_FORMAT_VERSION);
    w.put_str(schema);
    w.put_str(rev);
    w.put_str(&key.text);
    w.put_u8(key.kind.tag());
    match entry {
        Entry::Timed(s) => {
            w.put_u8(0);
            s.encode_into(&mut w);
        }
        Entry::Counted(c) => {
            w.put_u8(0);
            c.encode_into(&mut w);
        }
        Entry::Failed(e) => {
            w.put_u8(1);
            e.encode_into(&mut w);
        }
    }
    let mut bytes = w.into_bytes();
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Validate and decode one entry against the key and freshness stamps
/// the current binary expects, after [`open_frame`] has checked its
/// frame.
fn decode_entry(bytes: &[u8], key: &CellKey, schema: &str, rev: &str) -> Result<Entry, Reject> {
    let corrupt = |why: String| Reject::Corrupt(why);
    let (version, mut r) = open_frame(bytes).map_err(corrupt)?;
    if version != STORE_FORMAT_VERSION {
        return Err(Reject::Stale(format!(
            "format v{version}, binary expects v{STORE_FORMAT_VERSION}"
        )));
    }
    let got_schema = r.str().map_err(corrupt)?;
    if got_schema != schema {
        return Err(Reject::Stale(format!(
            "schema {got_schema:?}, binary expects {schema:?}"
        )));
    }
    let got_rev = r.str().map_err(corrupt)?;
    if got_rev != rev {
        return Err(Reject::Stale(format!(
            "written at rev {got_rev}, binary is {rev}"
        )));
    }
    let got_key = r.str().map_err(corrupt)?;
    if got_key != key.text {
        return Err(corrupt(format!("key mismatch: entry holds {got_key:?}")));
    }
    let kind = Kind::from_tag(r.u8().map_err(corrupt)?).map_err(corrupt)?;
    if kind != key.kind {
        return Err(corrupt(format!(
            "payload kind {kind:?} under a {:?} key",
            key.kind
        )));
    }
    let status = r.u8().map_err(corrupt)?;
    let entry = match (status, kind) {
        (0, Kind::Timed) => Entry::Timed(Box::new(Summary::decode_from(&mut r).map_err(corrupt)?)),
        (0, Kind::Counted) => Entry::Counted(CpuStats::decode_from(&mut r).map_err(corrupt)?),
        (1, _) => Entry::Failed(SimError::decode_from(&mut r).map_err(corrupt)?),
        (other, _) => return Err(corrupt(format!("unknown status byte {other}"))),
    };
    r.done().map_err(corrupt)?;
    Ok(entry)
}

impl Store {
    /// Scan the store directory and size up its contents per schema
    /// revision. Entries are checksum-validated (a torn file counts as
    /// `invalid`, not as an entry) but never purged — the scan only
    /// observes.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let mut by_rev: std::collections::BTreeMap<(String, String), (u64, u64)> =
            std::collections::BTreeMap::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            // A store that was never written to is empty, not an error.
            Err(_) => return stats,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("vcell") {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                stats.invalid += 1;
                continue;
            };
            match entry_stamps(&bytes) {
                Some((schema, rev)) => {
                    stats.entries += 1;
                    stats.bytes += bytes.len() as u64;
                    let slot = by_rev.entry((schema, rev)).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += bytes.len() as u64;
                }
                None => stats.invalid += 1,
            }
        }
        stats.revs = by_rev
            .into_iter()
            .map(|((schema, rev), (entries, bytes))| RevStats {
                schema,
                rev,
                entries,
                bytes,
            })
            .collect();
        stats
    }

    /// A cheap store-size estimate: `(files, bytes)` over the `.vcell`
    /// entries, from directory metadata alone — no file is opened or
    /// checksummed, so this is safe to call on every flight-recorder tick
    /// (the full [`Self::stats`] scan reads and validates every entry, which a
    /// once-per-second sampler must not). Counts torn/invalid files too;
    /// the periodic snapshot tolerates that imprecision, the shutdown
    /// artifact uses the exact scan.
    pub fn quick_scan(&self) -> (u64, u64) {
        let (mut files, mut bytes) = (0u64, 0u64);
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("vcell") {
                    continue;
                }
                if let Ok(meta) = entry.metadata() {
                    files += 1;
                    bytes += meta.len();
                }
            }
        }
        (files, bytes)
    }

    /// Look up a finished cell. A present-but-invalid entry is purged
    /// (corrupt or stale, counted separately) and reported as a miss, so
    /// damage degrades to recomputation. Counts one hit or one miss.
    pub fn load(&self, key: &CellKey) -> Option<Entry> {
        let path = key.path(&self.dir);
        let Ok(bytes) = std::fs::read(&path) else {
            live::global().add(MISS, 1);
            return None;
        };
        match decode_entry(&bytes, key, RESULTS_SCHEMA, git_rev_cached()) {
            Ok(entry) => {
                live::global().add(HIT, 1);
                Some(entry)
            }
            Err(reject) => {
                let (counter, why) = match &reject {
                    Reject::Corrupt(why) => (CORRUPT_PURGED, why),
                    Reject::Stale(why) => (STALE_PURGED, why),
                };
                if std::fs::remove_file(&path).is_ok() {
                    live::global().add(counter, 1);
                    eprintln!("result store: purged {} ({why})", path.display());
                }
                live::global().add(MISS, 1);
                None
            }
        }
    }

    /// Persist a finished cell atomically. The `store.write.torn` fault
    /// point deliberately bypasses the atomic path and truncates the entry
    /// mid-payload — the checksum then rejects it on the next load, which
    /// is exactly the property the fault gate proves. A failed write (full
    /// disk, permissions) silently degrades to a store-less run — cell
    /// durability is an optimization, never a correctness dependency.
    pub fn save(&self, key: &CellKey, entry: &Entry) {
        let bytes = encode_entry(key, entry, RESULTS_SCHEMA, git_rev_cached());
        let path = key.path(&self.dir);
        if fault::fires("store.write.torn", &key.text) {
            // A torn write: some prefix of the entry, landed non-atomically
            // at the final path.
            let cut = bytes.len() / 2;
            if std::fs::create_dir_all(&self.dir).is_ok() {
                std::fs::write(&path, &bytes[..cut]).ok();
            }
            return;
        }
        if visim_util::atomic::write_atomic(&path, &bytes).is_ok() {
            live::global().add(WRITES, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visim_cpu::Pipeline;
    use visim_isa::{Inst, Op, Reg};
    use visim_util::prop::{self, Config};

    fn summary(n: u64) -> Summary {
        let mut p = Pipeline::new(CpuConfig::ooo_4way(), MemConfig::default());
        for i in 0..n {
            visim_cpu::SimSink::push(
                &mut p,
                Inst::compute(
                    Op::IntAlu,
                    0x10 + 4 * i,
                    Reg(1 + (i % 28) as u32),
                    [Reg::NONE; 3],
                ),
            );
        }
        p.finish()
    }

    fn timed_test_key(text_salt: &str) -> CellKey {
        CellKey {
            kind: Kind::Timed,
            text: format!("timed|conv|v-|{text_salt}"),
            label: "conv".to_string(),
        }
    }

    #[test]
    fn entries_round_trip_and_reject_wrong_stamps() {
        let key = timed_test_key("salt");
        let entry = Entry::Timed(Box::new(summary(40)));
        let bytes = encode_entry(&key, &entry, RESULTS_SCHEMA, "rev-a");
        let back = match decode_entry(&bytes, &key, RESULTS_SCHEMA, "rev-a") {
            Ok(Entry::Timed(s)) => s,
            other => panic!("expected timed entry, got {other:?}"),
        };
        let Entry::Timed(orig) = &entry else {
            unreachable!()
        };
        assert_eq!(format!("{back:?}"), format!("{orig:?}"));
        // Wrong revision: stale, not corrupt.
        assert!(matches!(
            decode_entry(&bytes, &key, RESULTS_SCHEMA, "rev-b"),
            Err(Reject::Stale(_))
        ));
        // Wrong schema: stale.
        assert!(matches!(
            decode_entry(&bytes, &key, "visim-results-v999", "rev-a"),
            Err(Reject::Stale(_))
        ));
        // Wrong key text: corrupt (collision or renamed file).
        let other_key = timed_test_key("other-salt");
        assert!(matches!(
            decode_entry(&bytes, &other_key, RESULTS_SCHEMA, "rev-a"),
            Err(Reject::Corrupt(_))
        ));
        // A counted key must not accept a timed payload.
        let counted = CellKey {
            kind: Kind::Counted,
            text: key.text.clone(),
            label: key.label.clone(),
        };
        assert!(matches!(
            decode_entry(&bytes, &counted, RESULTS_SCHEMA, "rev-a"),
            Err(Reject::Corrupt(_))
        ));
    }

    #[test]
    fn failed_entries_round_trip_their_error() {
        let key = timed_test_key("fail");
        let err = SimError::Workload {
            bench: "conv".into(),
            detail: "fault injected: cell.panic at conv".into(),
        };
        let bytes = encode_entry(&key, &Entry::Failed(err.clone()), RESULTS_SCHEMA, "r");
        match decode_entry(&bytes, &key, RESULTS_SCHEMA, "r") {
            Ok(Entry::Failed(back)) => {
                assert_eq!(back, err);
                assert_eq!(back.to_string(), err.to_string());
            }
            other => panic!("expected failed entry, got {other:?}"),
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_as_corrupt_or_stale() {
        // Property: flipping any single bit of an encoded entry must
        // never be served, nor counted as an entry by the stats scan
        // (the trailing checksum guards the whole frame). Each case
        // picks a random bit via the prop harness.
        let key = timed_test_key("prop");
        let bytes = encode_entry(
            &key,
            &Entry::Timed(Box::new(summary(16))),
            RESULTS_SCHEMA,
            "rev",
        );
        assert!(entry_stamps(&bytes).is_some(), "the intact entry counts");
        let nbits = bytes.len() * 8;
        prop::check(
            Config::cases(128),
            |rng| rng.gen_range(0..nbits),
            |&bit| {
                let mut mutated = bytes.clone();
                mutated[bit / 8] ^= 1 << (bit % 8);
                if entry_stamps(&mutated).is_some() {
                    return Err(format!("bit {bit} flip counts as a valid entry"));
                }
                match decode_entry(&mutated, &key, RESULTS_SCHEMA, "rev") {
                    Err(_) => Ok(()),
                    Ok(_) => Err(format!("bit {bit} flip was accepted")),
                }
            },
        );
    }

    #[test]
    fn truncations_are_rejected() {
        let key = timed_test_key("trunc");
        let bytes = encode_entry(
            &key,
            &Entry::Timed(Box::new(summary(16))),
            RESULTS_SCHEMA,
            "rev",
        );
        for cut in [0, 1, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_entry(&bytes[..cut], &key, RESULTS_SCHEMA, "rev").is_err(),
                "accepted a {cut}-byte truncation"
            );
            assert!(
                entry_stamps(&bytes[..cut]).is_none(),
                "a {cut}-byte truncation counts as a valid entry"
            );
        }
    }

    #[test]
    fn counted_entries_round_trip() {
        let key = CellKey {
            kind: Kind::Counted,
            text: "counted|conv|v-|salt".into(),
            label: "conv".into(),
        };
        let stats = summary(24).cpu;
        let bytes = encode_entry(&key, &Entry::Counted(stats.clone()), RESULTS_SCHEMA, "r");
        match decode_entry(&bytes, &key, RESULTS_SCHEMA, "r") {
            Ok(Entry::Counted(back)) => {
                assert_eq!(format!("{back:?}"), format!("{stats:?}"))
            }
            other => panic!("expected counted entry, got {other:?}"),
        }
    }

    #[test]
    fn file_names_are_safe_and_key_dependent() {
        let a = timed_test_key("a");
        let b = timed_test_key("b");
        assert_ne!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with("conv.timed."));
        assert!(a.file_name().ends_with(".vcell"));
        let evil = CellKey {
            kind: Kind::Timed,
            text: "t".into(),
            label: "../evil name".into(),
        };
        assert!(!evil.file_name().contains('/'));
        assert!(!evil.file_name().contains(' '));
    }
}
