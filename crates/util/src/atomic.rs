//! Atomic file writes: the single write path every durable artifact
//! uses (result-store cells, JSON artifacts, `results/partial/`
//! failure droppings).
//!
//! A plain `fs::write` can tear under SIGKILL or a concurrent writer;
//! writing a process-unique temp file, syncing it, and renaming it into
//! place guarantees readers see either the old complete file or the new
//! complete file, never a mix. Centralizing the helper here keeps that
//! guarantee uniform across crates instead of re-implemented per
//! call site.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process temp-name disambiguator: two worker threads writing the
/// same destination path concurrently must not share a temp file (the
/// pid alone cannot tell them apart).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: create the parent directory,
/// write a process- and call-unique temp file, `sync_all` it, then
/// rename it into place. Readers (and concurrent writers of the same
/// path) see either the old complete file or the new complete file,
/// never a mix.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".{}.{}.tmp", std::process::id(), seq));
    let tmp = std::path::PathBuf::from(tmp);
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("visim-atomic-{}-{name}", std::process::id()))
    }

    #[test]
    fn writes_land_complete_and_replace_old_content() {
        let dir = scratch("basic");
        let path = dir.join("sub/dir/file.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_to_one_path_never_tear() {
        let dir = scratch("race");
        let path = dir.join("cell.bin");
        std::thread::scope(|s| {
            for i in 0..8u8 {
                let path = &path;
                s.spawn(move || {
                    let payload = vec![i; 4096];
                    for _ in 0..20 {
                        write_atomic(path, &payload).unwrap();
                    }
                });
            }
        });
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 4096);
        assert!(got.windows(2).all(|w| w[0] == w[1]), "mixed payloads");
        std::fs::remove_dir_all(&dir).ok();
    }
}
