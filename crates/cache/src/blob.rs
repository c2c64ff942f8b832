//! The sealed-blob primitive under both durable stores: this crate's
//! tile-result cache (`DFMC` entries) and the signoff checkpoint
//! (`DFMS` tile files, `spec.json`, `layout.gds`).
//!
//! * **Sealing** — [`seal`] appends a checksum of everything before
//!   it; [`unseal`] yields the body only when it matches, so a torn,
//!   truncated, extended, or bit-flipped file reads as absent.
//! * **Atomic replacement** — [`write_atomic`] stages bytes in a
//!   sibling `*.tmp`, syncs, and renames into place; a crash in between
//!   leaves an orphan `*.tmp` for [`sweep_tmp`] at the next open.
//!
//! The only module in the workspace that calls `fs::rename` (`ci.sh`
//! enforces it).

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// The durable transitions of one [`write_atomic`], as seen by its
/// crash probe; both stores register their crash sites against them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Tmp file written and synced; rename not yet done.
    Tmp,
    /// File renamed into place; success not yet reported.
    Rename,
}

/// Appends `digest(body)` to `body` as 8 little-endian bytes. The
/// digest is the format's own (`DFMC`: [`crate::fnv1a_64`]; `DFMS`: the
/// signoff codec's), and each format's bytes are pinned by tests.
pub fn seal(mut body: Vec<u8>, digest: fn(&[u8]) -> u64) -> Vec<u8> {
    let checksum = digest(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Splits a sealed blob back into its body. `None` when the input is
/// shorter than a checksum or the trailing checksum does not match
/// `digest` of everything before it.
pub fn unseal(bytes: &[u8], digest: fn(&[u8]) -> u64) -> Option<&[u8]> {
    let (body, tail) = bytes.split_at(bytes.len().checked_sub(8)?);
    (digest(body) == u64::from_le_bytes(tail.try_into().ok()?)).then_some(body)
}

/// Atomically replaces `path` with `bytes`: write `path` with its
/// extension swapped for `tmp`, sync, `probe(Stage::Tmp)`, rename,
/// `probe(Stage::Rename)`. A failing probe models a process death at
/// that stage: the disk stays exactly as the death would leave it (the
/// orphan tmp, or the durable but unacknowledged file). Pass
/// `&|_| Ok(())` for an unprobed write.
///
/// # Errors
///
/// The probe's error as-is, or the failed create/write/sync/rename's —
/// then the tmp file is removed (best effort), so a full disk does not
/// accumulate debris.
pub fn write_atomic(
    path: &Path,
    bytes: &[u8],
    probe: &dyn Fn(Stage) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let cleanup = |e: io::Error| {
        let _ = fs::remove_file(&tmp);
        e
    };
    fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .map_err(cleanup)?;
    probe(Stage::Tmp)?;
    fs::rename(&tmp, path).map_err(cleanup)?;
    probe(Stage::Rename)
}

/// Removes every `*.tmp` file directly under `dir` — the debris of
/// writes that died between [`Stage::Tmp`] and the rename. Returns how
/// many were removed. Call at open/resume, never while writers into
/// `dir` are active.
pub fn sweep_tmp(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "tmp"))
        .filter(|path| fs::remove_file(path).is_ok())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a_64;
    use std::path::PathBuf;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dfm-blob-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create dir");
        dir
    }

    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn unseal_accepts_only_exactly_what_seal_produced() {
        let sealed = seal(b"payload bytes".to_vec(), fnv1a_64);
        assert_eq!(unseal(&sealed, fnv1a_64), Some(&b"payload bytes"[..]));
        assert_eq!(
            unseal(&seal(Vec::new(), fnv1a_64), fnv1a_64),
            Some(&b""[..])
        );
        // Empty and shorter-than-a-checksum inputs.
        assert_eq!(unseal(b"", fnv1a_64), None);
        assert_eq!(unseal(&sealed[..7], fnv1a_64), None);
        // Truncation anywhere, including inside the checksum.
        for cut in 8..sealed.len() {
            assert_eq!(unseal(&sealed[..cut], fnv1a_64), None, "cut at {cut}");
        }
        // A flipped bit anywhere, body or checksum.
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            assert_eq!(unseal(&bad, fnv1a_64), None, "flip at {at}");
        }
        // Trailing garbage.
        let mut long = sealed.clone();
        long.push(0);
        assert_eq!(unseal(&long, fnv1a_64), None);
        // The checksum function is part of the format.
        assert_eq!(unseal(&sealed, |b| fnv1a_64(b) ^ 1), None);
    }

    #[test]
    fn probes_leave_exactly_the_state_a_death_at_that_stage_would() {
        let dir = fresh_dir("probe");
        let path = dir.join("entry.bin");
        let die_at = |at: Stage| {
            move |s: Stage| {
                if s == at {
                    Err(io::Error::other("died"))
                } else {
                    Ok(())
                }
            }
        };
        write_atomic(&path, b"new", &die_at(Stage::Tmp)).expect_err("killed at tmp");
        assert_eq!(listing(&dir), ["entry.tmp"], "exactly the orphan");
        assert_eq!(sweep_tmp(&dir), 1);
        write_atomic(&path, b"new", &die_at(Stage::Rename)).expect_err("killed at rename");
        assert_eq!(listing(&dir), ["entry.bin"], "exactly the final file");
        assert_eq!(fs::read(&path).expect("read"), b"new");
        // An unprobed write replaces the file and leaves nothing else.
        write_atomic(&path, b"newer", &|_| Ok(())).expect("write");
        assert_eq!(listing(&dir), ["entry.bin"]);
        assert_eq!(fs::read(&path).expect("read"), b"newer");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_failures_remove_their_tmp_file() {
        let dir = fresh_dir("ioerr");
        // Rename onto a non-empty directory fails after the tmp write.
        let target = dir.join("victim.bin");
        fs::create_dir_all(target.join("occupied")).expect("blocker");
        write_atomic(&target, b"bytes", &|_| Ok(())).expect_err("rename must fail");
        assert_eq!(
            listing(&dir),
            ["victim.bin"],
            "no tmp debris after an I/O error"
        );
        // Create fails outright under a missing parent.
        write_atomic(&dir.join("absent/x.bin"), b"bytes", &|_| Ok(())).expect_err("no parent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_counts_only_tmp_files_directly_under_the_dir() {
        let dir = fresh_dir("sweep");
        for name in ["a.tmp", "b.tmp", "keep.bin", "tmp"] {
            fs::write(dir.join(name), b"x").expect("write");
        }
        fs::create_dir_all(dir.join("sub")).expect("sub");
        fs::write(dir.join("sub/nested.tmp"), b"x").expect("write");
        assert_eq!(sweep_tmp(&dir), 2);
        assert_eq!(listing(&dir), ["keep.bin", "sub", "tmp"]);
        assert_eq!(sweep_tmp(&dir), 0);
        assert_eq!(sweep_tmp(&dir.join("missing")), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
