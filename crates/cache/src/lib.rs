//! # dfm-cache — content-addressed tile-result store
//!
//! A persistent, bounded, on-disk cache mapping a **content digest**
//! of a work unit to the bytes of its result. The signoff service uses
//! it to skip recomputing tiles whose inputs have not changed between
//! job submissions — the iterate-check-fix loop the DFM scoring flow
//! lives in — but the crate itself knows nothing about tiles: keys are
//! opaque digest triples and payloads are opaque bytes.
//!
//! ## Why caching is safe here
//!
//! Tile computation upstream is a pure function of
//! `(spec, rule deck, tile content)` — that is the determinism
//! contract the whole workspace tests against. A [`CacheKey`] digests
//! exactly those three inputs, so a cached payload is
//! byte-indistinguishable from a recomputation. The cache can
//! therefore fail in only one safe direction: a **miss** (entry
//! absent, evicted, corrupt, truncated, or unreadable) costs a
//! recompute and nothing else. No read path ever returns an error to
//! the caller and no corrupt entry is ever returned as a hit.
//!
//! ## On-disk format
//!
//! One file per entry, named from the key
//! (`e-<spec>-<deck>-<tile>.bin`). An entry is a [`blob`] — the
//! sealed, atomically replaced file primitive this crate also lends to
//! the signoff checkpoint store — whose body is:
//!
//! ```text
//! magic "DFMC" | version u32 | spec u64 | deck u64 | tile u64
//! | seq u64 | payload len u64 | payload bytes
//! ```
//!
//! followed by the seal: [`fnv1a_64`] of the body. A reader validates
//! the seal, magic, version, key echo, and exact length; any mismatch
//! is a silent miss and the bad file is removed.
//!
//! ## Deterministic eviction
//!
//! The store is bounded by a byte budget. When a store would exceed
//! it, entries are evicted **in insertion order** (lowest sequence
//! number first) — no clocks, no access-time reordering — so two
//! caches fed the same store sequence hold the same entries. Eviction
//! only ever converts future hits into recomputes; it can never change
//! result bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blob;

use blob::Stage;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 4] = b"DFMC";
const VERSION: u32 = 1;
/// Fixed bytes around the payload: magic + version + key (3×u64) +
/// seq + payload length + trailing checksum.
const OVERHEAD: usize = 4 + 4 + 8 * 3 + 8 + 8 + 8;

/// FNV-1a 64 over a byte slice (the workspace-standard digest).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The content address of one cached result: digests of the three
/// inputs the result is a pure function of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Digest of the job spec's *analysis* fields (labels excluded).
    pub spec: u64,
    /// Digest of the rule deck (0 when no deck participates).
    pub deck: u64,
    /// Digest of the tile's canonical content, halo geometry included.
    pub tile: u64,
}

impl CacheKey {
    fn file_name(&self) -> String {
        format!(
            "e-{:016x}-{:016x}-{:016x}.bin",
            self.spec, self.deck, self.tile
        )
    }
}

/// Counters and sizes of a [`TileCache`], for the `cache stats` CLI
/// and the bench gauges. Counters are per-process (they reset on
/// reopen); `entries`/`bytes` reflect the store itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries in the store.
    pub entries: usize,
    /// Total on-disk bytes of live entries (headers included).
    pub bytes: u64,
    /// Lookups answered from the store this process.
    pub hits: u64,
    /// Lookups that found nothing usable this process.
    pub misses: u64,
    /// Successful stores this process.
    pub stores: u64,
    /// Entries evicted by the byte budget this process.
    pub evictions: u64,
    /// Corrupt or truncated entries dropped (open, lookup, or verify).
    pub corrupt_dropped: u64,
    /// Orphaned `*.tmp` files swept at open (crash debris from a
    /// store that died between tmp-write and rename).
    pub tmp_swept: u64,
}

/// Result of a full-store [`TileCache::verify`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries whose bytes checked out.
    pub ok: usize,
    /// Entries that failed validation and were removed.
    pub removed: usize,
}

struct EntryMeta {
    seq: u64,
    len: u64,
}

#[derive(Default)]
struct Index {
    entries: BTreeMap<CacheKey, EntryMeta>,
    by_seq: BTreeMap<u64, CacheKey>,
    total_bytes: u64,
    next_seq: u64,
    /// The per-process counters of [`CacheStats`]; its `entries` and
    /// `bytes` are filled in from the maps above when read.
    counters: CacheStats,
}

impl Index {
    fn remove(&mut self, key: &CacheKey) -> Option<EntryMeta> {
        let meta = self.entries.remove(key)?;
        self.by_seq.remove(&meta.seq);
        self.total_bytes = self.total_bytes.saturating_sub(meta.len);
        Some(meta)
    }

    fn insert(&mut self, key: CacheKey, seq: u64, len: u64) {
        self.remove(&key);
        self.entries.insert(key, EntryMeta { seq, len });
        self.by_seq.insert(seq, key);
        self.total_bytes += len;
    }
}

/// A persistent content-addressed byte store rooted at one directory.
///
/// Thread-safe: lookups and stores serialise on an internal lock, so a
/// pool of workers can share one handle. Multiple *processes* sharing
/// a root are safe too (writes are atomic renames, reads validate
/// checksums) — they just maintain independent budgets and counters.
pub struct TileCache {
    root: PathBuf,
    max_bytes: Option<u64>,
    index: Mutex<Index>,
}

impl TileCache {
    /// Opens (creating if needed) the store rooted at `root`, scanning
    /// existing entries into the index. Corrupt or truncated entries
    /// found during the scan are removed. `max_bytes` bounds the total
    /// on-disk size (`None` = unbounded).
    ///
    /// # Errors
    ///
    /// Only on a root that cannot be created or listed — never on bad
    /// entry files.
    pub fn open(root: impl Into<PathBuf>, max_bytes: Option<u64>) -> io::Result<TileCache> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        // Crash debris first: a store that died between tmp-write and
        // rename never created its entry; only the orphan remains.
        let mut index = Index::default();
        index.counters.tmp_swept = blob::sweep_tmp(&root) as u64;
        let mut max_seq = 0u64;
        for dirent in fs::read_dir(&root)? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("e-") || !name.ends_with(".bin") {
                continue;
            }
            let path = dirent.path();
            match fs::read(&path).ok().and_then(|bytes| decode_entry(&bytes)) {
                Some((key, seq, _payload, len)) => {
                    max_seq = max_seq.max(seq);
                    index.insert(key, seq, len);
                }
                None => {
                    let _ = fs::remove_file(&path);
                    index.counters.corrupt_dropped += 1;
                }
            }
        }
        index.next_seq = max_seq + 1;
        Ok(TileCache {
            root,
            max_bytes,
            index: Mutex::new(index),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Looks up a key. Returns the payload bytes on a validated hit;
    /// `None` on absence, corruption, truncation, or any read error —
    /// a corrupt entry is removed so it is not re-read next time.
    pub fn lookup(&self, key: CacheKey) -> Option<Vec<u8>> {
        let mut index = self.index.lock().expect("cache lock");
        if !index.entries.contains_key(&key) {
            index.counters.misses += 1;
            return None;
        }
        let payload = self.read_or_drop(&mut index, key);
        match payload {
            Some(_) => index.counters.hits += 1,
            None => index.counters.misses += 1,
        }
        payload
    }

    /// Reads and validates the indexed entry for `key`. A file that
    /// fails validation (or echoes a different key) is removed from
    /// disk and index and counted in `corrupt_dropped`.
    fn read_or_drop(&self, index: &mut Index, key: CacheKey) -> Option<Vec<u8>> {
        let path = self.root.join(key.file_name());
        match fs::read(&path).ok().and_then(|bytes| decode_entry(&bytes)) {
            Some((k, _, payload, _)) if k == key => Some(payload),
            _ => {
                index.remove(&key);
                let _ = fs::remove_file(&path);
                index.counters.corrupt_dropped += 1;
                None
            }
        }
    }

    /// Stores a payload under a key, evicting oldest-inserted entries
    /// as needed to respect the byte budget. Returns `true` when the
    /// entry landed on disk; `false` when the write failed (treated
    /// like eviction: the result is simply recomputed next time).
    pub fn store(&self, key: CacheKey, payload: &[u8]) -> bool {
        self.store_staged(key, payload, &|_| Ok(()))
    }

    /// [`TileCache::store`] with a crash probe at the two stages of
    /// the atomic write ([`blob::write_atomic`]). When `probe` fails a
    /// [`Stage`], the store behaves as if the process died there: at
    /// [`Stage::Tmp`] the orphan tmp file stays and no entry exists;
    /// at [`Stage::Rename`] the entry is durable on disk but never
    /// acknowledged (this process's index ignores it — a reopened
    /// cache finds it by content address). Either way the call reports
    /// `false`.
    pub fn store_staged(
        &self,
        key: CacheKey,
        payload: &[u8],
        probe: &dyn Fn(Stage) -> io::Result<()>,
    ) -> bool {
        let mut index = self.index.lock().expect("cache lock");
        let seq = index.next_seq;
        index.next_seq += 1;
        let bytes = encode_entry(key, seq, payload);
        if blob::write_atomic(&self.root.join(key.file_name()), &bytes, probe).is_err() {
            return false;
        }
        index.insert(key, seq, bytes.len() as u64);
        index.counters.stores += 1;
        if let Some(max) = self.max_bytes {
            while index.total_bytes > max && index.entries.len() > 1 {
                let oldest = *index.by_seq.values().next().expect("non-empty by_seq");
                index.remove(&oldest);
                let _ = fs::remove_file(self.root.join(oldest.file_name()));
                index.counters.evictions += 1;
            }
        }
        true
    }

    /// Current counters and sizes.
    pub fn stats(&self) -> CacheStats {
        let index = self.index.lock().expect("cache lock");
        CacheStats {
            entries: index.entries.len(),
            bytes: index.total_bytes,
            ..index.counters
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.index.lock().expect("cache lock").entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the store currently holds an entry for `key` (no
    /// bytes are read and no counters move).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.index
            .lock()
            .expect("cache lock")
            .entries
            .contains_key(&key)
    }

    /// Re-validates every entry's bytes against its checksum and key,
    /// removing the ones that fail.
    pub fn verify(&self) -> VerifyReport {
        let mut index = self.index.lock().expect("cache lock");
        let keys: Vec<CacheKey> = index.entries.keys().copied().collect();
        let mut report = VerifyReport::default();
        for key in keys {
            match self.read_or_drop(&mut index, key) {
                Some(_) => report.ok += 1,
                None => report.removed += 1,
            }
        }
        report
    }

    /// Removes every entry. Returns how many were dropped.
    ///
    /// # Errors
    ///
    /// On a file removal that fails for a reason other than the file
    /// already being gone.
    pub fn clear(&self) -> io::Result<usize> {
        let mut index = self.index.lock().expect("cache lock");
        let keys: Vec<CacheKey> = index.entries.keys().copied().collect();
        for key in &keys {
            let path = self.root.join(key.file_name());
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            index.remove(key);
        }
        Ok(keys.len())
    }
}

/// Serialises one entry (header + payload, sealed).
fn encode_entry(key: CacheKey, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(OVERHEAD + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&key.spec.to_le_bytes());
    out.extend_from_slice(&key.deck.to_le_bytes());
    out.extend_from_slice(&key.tile.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    blob::seal(out, fnv1a_64)
}

/// Validates and splits one entry file. `None` on *any* defect —
/// truncation, broken seal, bad magic/version, trailing garbage.
fn decode_entry(bytes: &[u8]) -> Option<(CacheKey, u64, Vec<u8>, u64)> {
    let body = blob::unseal(bytes, fnv1a_64)?;
    if body.get(..4)? != MAGIC {
        return None;
    }
    let u32_at = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?))
    };
    let u64_at = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(body.get(at..at + 8)?.try_into().ok()?))
    };
    if u32_at(4)? != VERSION {
        return None;
    }
    let key = CacheKey {
        spec: u64_at(8)?,
        deck: u64_at(16)?,
        tile: u64_at(24)?,
    };
    let seq = u64_at(32)?;
    let payload_len = u64_at(40)? as usize;
    let payload = body.get(48..)?;
    if payload.len() != payload_len {
        return None;
    }
    Some((key, seq, payload.to_vec(), bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fresh_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dfmc-{tag}-{}-{n}", std::process::id()))
    }

    fn key(tile: u64) -> CacheKey {
        CacheKey {
            spec: 0x51,
            deck: 0xDE,
            tile,
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let root = fresh_root("roundtrip");
        let cache = TileCache::open(&root, None).expect("open");
        assert!(cache.is_empty());
        assert!(cache.lookup(key(1)).is_none(), "cold lookup misses");
        assert!(cache.store(key(1), b"tile one"));
        assert!(cache.store(key(2), b""));
        assert_eq!(cache.lookup(key(1)).as_deref(), Some(&b"tile one"[..]));
        assert_eq!(cache.lookup(key(2)).as_deref(), Some(&b""[..]));
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.hits, stats.misses, stats.stores),
            (2, 2, 1, 2)
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_rebuilds_the_index_and_preserves_sequence() {
        let root = fresh_root("reopen");
        {
            let cache = TileCache::open(&root, None).expect("open");
            for t in 0..4 {
                assert!(cache.store(key(t), format!("payload {t}").as_bytes()));
            }
        }
        let cache = TileCache::open(&root, Some(0)).expect("reopen");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.lookup(key(3)).as_deref(), Some(&b"payload 3"[..]));
        // A bounded reopen evicts in the original insertion order: the
        // next store trims everything but itself (budget 0 keeps the
        // newest entry only, by the >1 floor).
        assert!(cache.store(key(9), b"newest"));
        assert_eq!(cache.len(), 1);
        assert!(
            cache.contains(key(9)),
            "insertion-order eviction keeps the newest"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_is_oldest_insertion_first_and_deterministic() {
        let root = fresh_root("evict");
        // Budget for roughly two entries of this payload size.
        let payload = [7u8; 100];
        let entry = (OVERHEAD + payload.len()) as u64;
        let cache = TileCache::open(&root, Some(2 * entry)).expect("open");
        for t in [10u64, 20, 30] {
            assert!(cache.store(key(t), &payload));
        }
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(key(10)), "oldest insertion evicted first");
        assert!(cache.contains(key(20)));
        assert!(cache.contains(key(30)));
        assert_eq!(cache.stats().evictions, 1);
        // Restoring an existing key replaces it and re-ranks it newest.
        assert!(cache.store(key(20), &payload));
        assert!(cache.store(key(40), &payload));
        assert!(!cache.contains(key(30)), "30 is now the oldest insertion");
        assert!(cache.contains(key(20)));
        assert!(cache.contains(key(40)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_truncated_and_empty_entries_are_silent_misses() {
        let root = fresh_root("corrupt");
        let cache = TileCache::open(&root, None).expect("open");
        for t in 0..3 {
            assert!(cache.store(key(t), b"good bytes of a cached tile result"));
        }
        let path_of = |t: u64| root.join(key(t).file_name());
        // Bit-flip.
        let mut bytes = fs::read(path_of(0)).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(path_of(0), &bytes).expect("write");
        // Truncate.
        let bytes = fs::read(path_of(1)).expect("read");
        fs::write(path_of(1), &bytes[..bytes.len() - 5]).expect("write");
        // Zero-length.
        fs::write(path_of(2), b"").expect("write");
        for t in 0..3 {
            assert!(
                cache.lookup(key(t)).is_none(),
                "entry {t} must miss, not err"
            );
            assert!(!path_of(t).exists(), "entry {t} removed after detection");
        }
        let stats = cache.stats();
        assert_eq!(stats.corrupt_dropped, 3);
        assert_eq!(stats.entries, 0);
        // The same damage found at open() time is likewise dropped.
        assert!(cache.store(key(7), b"fine"));
        let mut bytes = fs::read(path_of(7)).expect("read");
        bytes[0] ^= 0xFF;
        fs::write(path_of(7), &bytes).expect("write");
        let reopened = TileCache::open(&root, None).expect("reopen");
        assert_eq!(reopened.len(), 0);
        assert_eq!(reopened.stats().corrupt_dropped, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_removes_bad_entries_and_clear_empties_the_store() {
        let root = fresh_root("verify");
        let cache = TileCache::open(&root, None).expect("open");
        for t in 0..5 {
            assert!(cache.store(key(t), &[t as u8; 9]));
        }
        let bad = root.join(key(2).file_name());
        let mut bytes = fs::read(&bad).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&bad, &bytes).expect("write");
        let report = cache.verify();
        assert_eq!(report, VerifyReport { ok: 4, removed: 1 });
        assert_eq!(cache.verify(), VerifyReport { ok: 4, removed: 0 });
        assert_eq!(cache.clear().expect("clear"), 4);
        assert!(cache.is_empty());
        assert!(cache.lookup(key(0)).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn staged_crashes_leave_recoverable_state_and_open_sweeps_tmp() {
        let root = fresh_root("staged");
        {
            let cache = TileCache::open(&root, None).expect("open");
            // Crash after the tmp write: no entry, an orphan tmp file.
            let die_at = |at: Stage| {
                move |s: Stage| {
                    if s == at {
                        Err(io::Error::other("died"))
                    } else {
                        Ok(())
                    }
                }
            };
            assert!(!cache.store_staged(key(1), b"one", &die_at(Stage::Tmp)));
            assert!(cache.lookup(key(1)).is_none());
            let tmp = root.join(key(1).file_name()).with_extension("tmp");
            assert!(tmp.exists(), "orphan tmp is the documented debris");
            // Crash after the rename: durable but unacknowledged — this
            // process keeps treating it as absent.
            assert!(!cache.store_staged(key(2), b"two", &die_at(Stage::Rename)));
            assert!(
                cache.lookup(key(2)).is_none(),
                "index died with the process"
            );
            assert_eq!(cache.stats().stores, 0);
        }
        // The restarted process sweeps the orphan and finds the
        // renamed entry by content address.
        let cache = TileCache::open(&root, None).expect("reopen");
        assert_eq!(cache.stats().tmp_swept, 1);
        assert!(!root.join(key(1).file_name()).with_extension("tmp").exists());
        assert!(cache.lookup(key(1)).is_none());
        assert_eq!(cache.lookup(key(2)).as_deref(), Some(&b"two"[..]));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_mismatch_under_a_renamed_file_is_a_miss() {
        // A file whose embedded key disagrees with its name (e.g. a
        // stray copy) must never satisfy the named key.
        let root = fresh_root("rename");
        let cache = TileCache::open(&root, None).expect("open");
        assert!(cache.store(key(1), b"one"));
        assert!(cache.store(key(2), b"two"));
        fs::copy(root.join(key(1).file_name()), root.join(key(2).file_name())).expect("copy");
        assert!(
            cache.lookup(key(2)).is_none(),
            "embedded key wins over file name"
        );
        assert_eq!(cache.lookup(key(1)).as_deref(), Some(&b"one"[..]));
        let _ = fs::remove_dir_all(&root);
    }
}
