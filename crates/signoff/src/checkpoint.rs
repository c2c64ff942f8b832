//! On-disk checkpointing: one directory per job, one file per
//! completed tile.
//!
//! Layout under the checkpoint root:
//!
//! ```text
//! job-<id>/
//!   spec.json     — the JobSpec, JSON
//!   layout.gds    — the submitted GDS bytes, verbatim
//!   tile-<i>.bin  — one TilePartial (see below)
//! ```
//!
//! Every file is written through [`dfm_cache::blob::write_atomic`]
//! (tmp + sync + rename), so a crash mid-write leaves either the old
//! state or nothing. Tile files are additionally **sealed**
//! ([`dfm_cache::blob::seal`] with this crate's [`fnv1a_64`]): a
//! `DFMS` magic + format version header, the tile index, and the
//! fixed-width little-endian partial, followed by the checksum of all
//! of it. Readers treat any malformed or unsealable file as absent
//! (the tile is simply recomputed). That makes kill -9 at any instant
//! safe: the resumed job loads the surviving tile set and recomputes
//! exactly the rest.

use crate::codec::fnv1a_64;
use crate::job::TilePartial;
use dfm_cache::blob::{self, Stage};
use dfm_drc::{AreaPiece, PairFragment, RulePartial, Violation};
use dfm_fault::FaultPlane;
use dfm_geom::Rect;
use dfm_yield::critical_area::CaTilePartial;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DFMS";
const VERSION: u32 = 1;

/// Crash site: spec.json durable, layout.gds not yet written.
pub const SITE_SUBMIT_SPEC: &str = "signoff.ckpt.submit.spec";
/// Crash site: full submission durable, success never reported.
pub const SITE_SUBMIT_GDS: &str = "signoff.ckpt.submit.gds";
/// Crash site: tile tmp file written, rename not yet done.
pub const SITE_TILE_TMP: &str = "signoff.ckpt.tile.tmp";
/// Crash site: tile file renamed into place, success never reported.
pub const SITE_TILE_RENAME: &str = "signoff.ckpt.tile.rename";

/// A [`blob::write_atomic`] probe that dies where `plane` has a crash
/// rule: `tmp_site` is consulted at [`Stage::Tmp`] (`None` for writes
/// with no registered site there), `rename_site` at [`Stage::Rename`],
/// both under `(key, attempt)`. With no plane every stage passes.
pub(crate) fn crash_probe<'a>(
    plane: Option<&'a FaultPlane>,
    tmp_site: Option<&'a str>,
    rename_site: &'a str,
    key: u64,
    attempt: u64,
) -> impl Fn(Stage) -> io::Result<()> + 'a {
    move |stage| {
        let site = match stage {
            Stage::Tmp => tmp_site,
            Stage::Rename => Some(rename_site),
        };
        match (plane, site) {
            (Some(plane), Some(site)) if plane.crash_point(site, key, attempt) => Err(
                io::Error::other(format!("injected crash at {site} (key {key})")),
            ),
            _ => Ok(()),
        }
    }
}

/// Paths of one job's checkpoint directory.
#[derive(Clone, Debug)]
pub struct JobDir {
    root: PathBuf,
}

impl JobDir {
    /// The directory for job `id` under `root` (not created yet).
    pub fn new(root: &Path, id: u64) -> JobDir {
        JobDir {
            root: root.join(format!("job-{id}")),
        }
    }

    /// The job directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Creates the directory and persists the submission (spec +
    /// GDS), so a restarted service can rebuild the job from disk.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics.
    pub fn persist_submission(&self, spec_json: &str, gds: &[u8]) -> Result<(), String> {
        self.persist_submission_probed(spec_json, gds, None, 0)
    }

    /// [`JobDir::persist_submission`] with crash probes between the
    /// durable steps: `plane` may kill the operation after spec.json
    /// is durable ([`SITE_SUBMIT_SPEC`]) or after the whole submission
    /// is durable but before success is reported
    /// ([`SITE_SUBMIT_GDS`]). `key` scopes the probes (the job id).
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics, or the injected crash.
    pub fn persist_submission_probed(
        &self,
        spec_json: &str,
        gds: &[u8],
        plane: Option<&FaultPlane>,
        key: u64,
    ) -> Result<(), String> {
        fs::create_dir_all(&self.root).map_err(|e| format!("create {:?}: {e}", self.root))?;
        let spec_probe = crash_probe(plane, None, SITE_SUBMIT_SPEC, key, 0);
        self.write("spec.json", spec_json.as_bytes(), &spec_probe)?;
        self.write(
            "layout.gds",
            gds,
            &crash_probe(plane, None, SITE_SUBMIT_GDS, key, 0),
        )
    }

    fn write(
        &self,
        name: &str,
        bytes: &[u8],
        probe: &dyn Fn(Stage) -> io::Result<()>,
    ) -> Result<(), String> {
        let path = self.root.join(name);
        blob::write_atomic(&path, bytes, probe).map_err(|e| format!("write {path:?}: {e}"))
    }

    /// Loads the persisted submission, if this directory holds one.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics (a missing directory is an error; a
    /// missing tile file is not).
    pub fn load_submission(&self) -> Result<(String, Vec<u8>), String> {
        let spec = fs::read_to_string(self.root.join("spec.json"))
            .map_err(|e| format!("read spec.json: {e}"))?;
        let gds =
            fs::read(self.root.join("layout.gds")).map_err(|e| format!("read layout.gds: {e}"))?;
        Ok((spec, gds))
    }

    /// Atomically writes one completed tile partial.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics.
    pub fn write_tile(&self, partial: &TilePartial) -> Result<(), String> {
        self.write_tile_probed(partial, None, 0)
    }

    /// [`JobDir::write_tile`] with crash probes at the two stages of
    /// the atomic write: after the tmp file is durable but before the
    /// rename ([`SITE_TILE_TMP`], leaving an orphan tmp) and after the
    /// rename but before success is reported ([`SITE_TILE_RENAME`],
    /// leaving a durable-but-unacknowledged tile). `attempt` is the
    /// caller's write-retry counter.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics, or the injected crash.
    pub fn write_tile_probed(
        &self,
        partial: &TilePartial,
        plane: Option<&FaultPlane>,
        attempt: u64,
    ) -> Result<(), String> {
        let probe = crash_probe(
            plane,
            Some(SITE_TILE_TMP),
            SITE_TILE_RENAME,
            partial.tile as u64,
            attempt,
        );
        self.write(
            &format!("tile-{}.bin", partial.tile),
            &encode_tile_partial(partial),
            &probe,
        )
    }

    /// Removes orphaned `*.tmp` files a crash between tmp-write and
    /// rename may have left behind. Returns how many were swept. Call
    /// on open/resume, never while tile writers are active.
    pub fn sweep_tmp(&self) -> usize {
        blob::sweep_tmp(&self.root)
    }

    /// Loads every tile partial that survives validation, sorted by
    /// tile index. Corrupt, truncated, or wrong-version files are
    /// skipped — their tiles get recomputed.
    pub fn load_tiles(&self, tile_count: usize) -> Vec<TilePartial> {
        let mut out = Vec::new();
        for tile in 0..tile_count {
            let path = self.root.join(format!("tile-{tile}.bin"));
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Some(p) = decode_tile_partial(&bytes, tile) {
                out.push(p);
            }
        }
        out
    }

    /// Removes the whole job directory (cancel-and-forget).
    pub fn remove(&self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Serialises a [`TilePartial`] to the sealed bytes a checkpoint tile
/// file holds (magic, version, tile index, body, trailing checksum) —
/// also the payload the tile-result cache stores and the shard outcome
/// log ships. Decode with [`decode_tile_partial`].
pub fn encode_tile_partial(partial: &TilePartial) -> Vec<u8> {
    let mut enc = Enc::default();
    enc.bytes_raw(MAGIC);
    enc.u32(VERSION);
    enc.u64(partial.tile as u64);
    encode_partial(&mut enc, partial);
    blob::seal(enc.buf, fnv1a_64)
}

/// Validates and decodes bytes produced by [`encode_tile_partial`].
/// `None` on any defect — truncation, broken seal, version or tile
/// mismatch, trailing garbage — never an error or a panic: the caller
/// treats it as absent and recomputes.
pub fn decode_tile_partial(bytes: &[u8], expect_tile: usize) -> Option<TilePartial> {
    let body = blob::unseal(bytes, fnv1a_64)?;
    let mut dec = Dec { buf: body, pos: 0 };
    if dec.bytes_raw(4)? != MAGIC || dec.u32()? != VERSION {
        return None;
    }
    let tile = dec.u64()? as usize;
    if tile != expect_tile {
        return None;
    }
    let partial = decode_partial(&mut dec, tile)?;
    (dec.pos == body.len()).then_some(partial) // else: trailing garbage
}

/// Lists job ids that have a checkpoint directory under `root`.
pub fn list_job_dirs(root: &Path) -> Vec<u64> {
    let mut ids = Vec::new();
    let Ok(entries) = fs::read_dir(root) else {
        return ids;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if let Some(id) = name.to_str().and_then(|n| n.strip_prefix("job-")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------------
// TilePartial wire format (fixed-width LE throughout; f64 via to_bits).
// ---------------------------------------------------------------------------

fn encode_partial(enc: &mut Enc, p: &TilePartial) {
    enc.u64(p.rects_peak as u64);
    enc.u64(p.drc.len() as u64);
    for rp in &p.drc {
        encode_rule_partial(enc, rp);
    }
    match &p.ca {
        None => enc.u8(0),
        Some(ca) => {
            enc.u8(1);
            encode_frags(enc, &ca.short);
            encode_frags(enc, &ca.open);
            enc.u64(ca.rects as u64);
        }
    }
    match &p.litho {
        None => enc.u8(0),
        Some(rects) => {
            enc.u8(1);
            enc.u64(rects.len() as u64);
            for r in rects {
                enc.rect(r);
            }
        }
    }
}

fn decode_partial(dec: &mut Dec<'_>, tile: usize) -> Option<TilePartial> {
    let rects_peak = dec.u64()? as usize;
    let rule_count = dec.len()?;
    let mut drc = Vec::with_capacity(rule_count);
    for _ in 0..rule_count {
        drc.push(decode_rule_partial(dec)?);
    }
    let ca = match dec.u8()? {
        0 => None,
        1 => {
            let short = decode_frags(dec)?;
            let open = decode_frags(dec)?;
            let rects = dec.u64()? as usize;
            Some(CaTilePartial { short, open, rects })
        }
        _ => return None,
    };
    let litho = match dec.u8()? {
        0 => None,
        1 => {
            let n = dec.len()?;
            let mut rects = Vec::with_capacity(n);
            for _ in 0..n {
                rects.push(dec.rect()?);
            }
            Some(rects)
        }
        _ => return None,
    };
    Some(TilePartial {
        tile,
        drc,
        ca,
        litho,
        rects_peak,
    })
}

fn encode_rule_partial(enc: &mut Enc, rp: &RulePartial) {
    match rp {
        RulePartial::Fragments { frags, rects } => {
            enc.u8(0);
            encode_frags(enc, frags);
            enc.u64(*rects as u64);
        }
        RulePartial::Spacing {
            frags,
            corners,
            rects,
        } => {
            enc.u8(1);
            encode_frags(enc, frags);
            enc.u64(corners.len() as u64);
            for (r, d) in corners {
                enc.rect(r);
                enc.i64(*d);
            }
            enc.u64(*rects as u64);
        }
        RulePartial::Area {
            complete,
            pieces,
            rects,
        } => {
            enc.u8(2);
            enc.u64(complete.len() as u64);
            for (bbox, area) in complete {
                enc.rect(bbox);
                enc.i128(*area);
            }
            enc.u64(pieces.len() as u64);
            for piece in pieces {
                enc.i128(piece.area);
                enc.rect(&piece.bbox);
                enc.u64(piece.seam_rects.len() as u64);
                for r in &piece.seam_rects {
                    enc.rect(r);
                }
            }
            enc.u64(*rects as u64);
        }
        RulePartial::Density { partials, rects } => {
            enc.u8(3);
            enc.u64(partials.len() as u64);
            for (window, area) in partials {
                enc.u64(*window as u64);
                enc.i128(*area);
            }
            enc.u64(*rects as u64);
        }
        RulePartial::Certified {
            violations,
            rects,
            refused,
        } => {
            enc.u8(4);
            enc.u64(violations.len() as u64);
            for v in violations {
                enc.str(&v.rule);
                enc.rect(&v.location);
                enc.i64(v.actual);
                enc.i64(v.limit);
            }
            enc.u64(*rects as u64);
            match refused {
                None => enc.u8(0),
                Some(t) => {
                    enc.u8(1);
                    enc.u64(*t as u64);
                }
            }
        }
    }
}

fn decode_rule_partial(dec: &mut Dec<'_>) -> Option<RulePartial> {
    match dec.u8()? {
        0 => {
            let frags = decode_frags(dec)?;
            let rects = dec.u64()? as usize;
            Some(RulePartial::Fragments { frags, rects })
        }
        1 => {
            let frags = decode_frags(dec)?;
            let n = dec.len()?;
            let mut corners = Vec::with_capacity(n);
            for _ in 0..n {
                let r = dec.rect()?;
                let d = dec.i64()?;
                corners.push((r, d));
            }
            let rects = dec.u64()? as usize;
            Some(RulePartial::Spacing {
                frags,
                corners,
                rects,
            })
        }
        2 => {
            let n = dec.len()?;
            let mut complete = Vec::with_capacity(n);
            for _ in 0..n {
                let bbox = dec.rect()?;
                let area = dec.i128()?;
                complete.push((bbox, area));
            }
            let n = dec.len()?;
            let mut pieces = Vec::with_capacity(n);
            for _ in 0..n {
                let area = dec.i128()?;
                let bbox = dec.rect()?;
                let m = dec.len()?;
                let mut seam_rects = Vec::with_capacity(m);
                for _ in 0..m {
                    seam_rects.push(dec.rect()?);
                }
                pieces.push(AreaPiece {
                    area,
                    bbox,
                    seam_rects,
                });
            }
            let rects = dec.u64()? as usize;
            Some(RulePartial::Area {
                complete,
                pieces,
                rects,
            })
        }
        3 => {
            let n = dec.len()?;
            let mut partials = Vec::with_capacity(n);
            for _ in 0..n {
                let window = dec.u64()? as usize;
                let area = dec.i128()?;
                partials.push((window, area));
            }
            let rects = dec.u64()? as usize;
            Some(RulePartial::Density { partials, rects })
        }
        4 => {
            let n = dec.len()?;
            let mut violations = Vec::with_capacity(n);
            for _ in 0..n {
                let rule = dec.str()?;
                let location = dec.rect()?;
                let actual = dec.i64()?;
                let limit = dec.i64()?;
                violations.push(Violation {
                    rule,
                    location,
                    actual,
                    limit,
                });
            }
            let rects = dec.u64()? as usize;
            let refused = match dec.u8()? {
                0 => None,
                1 => Some(dec.u64()? as usize),
                _ => return None,
            };
            Some(RulePartial::Certified {
                violations,
                rects,
                refused,
            })
        }
        _ => None,
    }
}

fn encode_frags(enc: &mut Enc, frags: &[PairFragment]) {
    enc.u64(frags.len() as u64);
    for f in frags {
        enc.u8(f.vertical as u8);
        enc.i64(f.gap_lo);
        enc.i64(f.gap_hi);
        enc.i64(f.span_lo);
        enc.i64(f.span_hi);
    }
}

fn decode_frags(dec: &mut Dec<'_>) -> Option<Vec<PairFragment>> {
    let n = dec.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let vertical = match dec.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let gap_lo = dec.i64()?;
        let gap_hi = dec.i64()?;
        let span_lo = dec.i64()?;
        let span_hi = dec.i64()?;
        out.push(PairFragment {
            vertical,
            gap_lo,
            gap_hi,
            span_lo,
            span_hi,
        });
    }
    Some(out)
}

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn bytes_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn rect(&mut self, r: &Rect) {
        for c in [r.x0, r.y0, r.x1, r.y1] {
            self.i64(c);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes_raw(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn bytes_raw(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }
    fn u8(&mut self) -> Option<u8> {
        let b = self.bytes_raw(1)?;
        Some(b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes_raw(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes_raw(8)?.try_into().ok()?))
    }
    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.bytes_raw(8)?.try_into().ok()?))
    }
    fn i128(&mut self) -> Option<i128> {
        Some(i128::from_le_bytes(self.bytes_raw(16)?.try_into().ok()?))
    }
    /// A u64 length, bounded by the remaining bytes so corrupt lengths
    /// can never trigger huge allocations.
    fn len(&mut self) -> Option<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return None;
        }
        Some(n as usize)
    }
    fn rect(&mut self) -> Option<Rect> {
        let x0 = self.i64()?;
        let y0 = self.i64()?;
        let x1 = self.i64()?;
        let y1 = self.i64()?;
        Some(Rect { x0, y0, x1, y1 })
    }
    fn str(&mut self) -> Option<String> {
        let n = self.len()?;
        let bytes = self.bytes_raw(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobContext;
    use crate::spec::JobSpec;
    use dfm_layout::{gds, generate, layers, Technology};

    fn sample_partials() -> (JobContext, Vec<TilePartial>) {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 5_000,
            height: 5_000,
            ..Default::default()
        };
        let bytes = gds::to_bytes(&generate::routed_block(&tech, params, 23)).expect("gds");
        let spec = JobSpec {
            tile: 1600,
            halo: 64,
            litho_layer: Some(layers::METAL1),
            ..JobSpec::default()
        };
        let ctx = JobContext::build(&spec, &bytes).expect("context");
        let partials = (0..ctx.tile_count()).map(|i| ctx.compute_tile(i)).collect();
        (ctx, partials)
    }

    #[test]
    fn tile_files_round_trip_exactly() {
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-rt-{}", std::process::id()));
        let (ctx, partials) = sample_partials();
        let job = JobDir::new(&dir, 1);
        job.persist_submission("{}", b"gds").expect("submission");
        for p in &partials {
            job.write_tile(p).expect("write tile");
        }
        let loaded = job.load_tiles(ctx.tile_count());
        assert_eq!(loaded, partials);
        job.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn on_disk_bytes_of_both_stores_are_pinned() {
        // One hand-built partial through both stores; the digests were
        // taken before the stores moved onto the shared blob primitive,
        // so any drift in either format (field order, widths, seal,
        // header, file name) fails here.
        let frag = PairFragment {
            vertical: true,
            gap_lo: -5,
            gap_hi: 40,
            span_lo: 100,
            span_hi: 260,
        };
        let r = Rect {
            x0: -10,
            y0: 0,
            x1: 90,
            y1: 45,
        };
        let partial = TilePartial {
            tile: 3,
            drc: vec![
                RulePartial::Fragments {
                    frags: vec![frag],
                    rects: 7,
                },
                RulePartial::Certified {
                    violations: vec![Violation {
                        rule: "M1.W.1".to_string(),
                        location: r,
                        actual: 45,
                        limit: 60,
                    }],
                    rects: 2,
                    refused: Some(1),
                },
            ],
            ca: Some(CaTilePartial {
                short: vec![frag],
                open: vec![],
                rects: 9,
            }),
            litho: Some(vec![r]),
            rects_peak: 17,
        };
        let root = std::env::temp_dir().join(format!("dfms-ckpt-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        let job = JobDir::new(&root.join("ckpt"), 1);
        job.persist_submission("{}", b"gds").expect("submission");
        job.write_tile(&partial).expect("write tile");
        let tile = std::fs::read(job.path().join("tile-3.bin")).expect("tile-3.bin");
        assert_eq!(tile, encode_tile_partial(&partial));
        assert_eq!(
            (tile.len(), dfm_cache::fnv1a_64(&tile)),
            (277, 0x99ae_e81f_125c_2cb1)
        );

        let cache = dfm_cache::TileCache::open(root.join("cache"), None).expect("cache");
        let key = dfm_cache::CacheKey {
            spec: 0x51,
            deck: 0xDE,
            tile: 0x7,
        };
        assert!(cache.store(key, &tile));
        let entry = std::fs::read(
            root.join("cache/e-0000000000000051-00000000000000de-0000000000000007.bin"),
        )
        .expect("cache entry");
        assert_eq!(
            (entry.len(), dfm_cache::fnv1a_64(&entry)),
            (333, 0xdc0e_534c_4b2f_c7a0)
        );

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_tile_files_are_skipped_not_trusted() {
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-corrupt-{}", std::process::id()));
        let (ctx, partials) = sample_partials();
        let job = JobDir::new(&dir, 2);
        job.persist_submission("{}", b"gds").expect("submission");
        for p in &partials {
            job.write_tile(p).expect("write tile");
        }
        // Flip one byte in the middle of tile 0's file: checksum must
        // reject it and the loader must simply drop that tile.
        let path = job.path().join("tile-0.bin");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        // And truncate tile 1's file (simulated torn write without the
        // atomic rename).
        if partials.len() > 1 {
            let path = job.path().join("tile-1.bin");
            let bytes = std::fs::read(&path).expect("read");
            std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
        }
        let loaded = job.load_tiles(ctx.tile_count());
        let expect: Vec<TilePartial> = partials
            .iter()
            .filter(|p| p.tile != 0 && (partials.len() == 1 || p.tile != 1))
            .cloned()
            .collect();
        assert_eq!(loaded, expect);
        job.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_crash_probes_leave_the_documented_durable_state() {
        use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-crash-{}", std::process::id()));
        let (ctx, partials) = sample_partials();
        let job = JobDir::new(&dir, 9);
        job.persist_submission("{}", b"gds").expect("submission");

        // Crash after the tmp write: no tile file, an orphan tmp.
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_TILE_TMP, FaultAction::Crash)),
        );
        let err = job
            .write_tile_probed(&partials[0], Some(&plane), 0)
            .expect_err("crash");
        assert!(err.contains(SITE_TILE_TMP), "{err}");
        assert!(!job.path().join("tile-0.bin").exists());
        assert!(job.path().join("tile-0.tmp").exists());

        // Sweep removes the orphan; the tile is simply absent.
        assert_eq!(job.sweep_tmp(), 1);
        assert!(!job.path().join("tile-0.tmp").exists());
        assert!(job.load_tiles(ctx.tile_count()).is_empty());

        // Crash after the rename: the write reports failure but the
        // tile is durable — the idempotent-replay case.
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_TILE_RENAME, FaultAction::Crash)),
        );
        let err = job
            .write_tile_probed(&partials[0], Some(&plane), 0)
            .expect_err("crash");
        assert!(err.contains(SITE_TILE_RENAME), "{err}");
        let loaded = job.load_tiles(ctx.tile_count());
        assert_eq!(loaded, vec![partials[0].clone()]);

        job.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submission_crash_probes_split_the_two_durable_steps() {
        use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-subcrash-{}", std::process::id()));

        let job = JobDir::new(&dir, 4);
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_SUBMIT_SPEC, FaultAction::Crash)),
        );
        job.persist_submission_probed("{}", b"gds", Some(&plane), 4)
            .expect_err("crash");
        assert!(job.path().join("spec.json").exists());
        assert!(!job.path().join("layout.gds").exists());
        assert!(
            job.load_submission().is_err(),
            "half a submission must not load"
        );

        // Resubmission over the crashed dir succeeds and loads.
        job.persist_submission("{}", b"gds").expect("resubmit");
        assert!(job.load_submission().is_ok());

        let job = JobDir::new(&dir, 5);
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_SUBMIT_GDS, FaultAction::Crash)),
        );
        job.persist_submission_probed("{}", b"gds", Some(&plane), 5)
            .expect_err("crash");
        // Everything durable; only the ack was lost.
        assert_eq!(
            job.load_submission().expect("loads"),
            ("{}".to_string(), b"gds".to_vec())
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_dir_listing_finds_persisted_jobs() {
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-list-{}", std::process::id()));
        for id in [3u64, 7, 5] {
            JobDir::new(&dir, id)
                .persist_submission("{}", b"g")
                .expect("persist");
        }
        std::fs::create_dir_all(dir.join("not-a-job")).expect("noise dir");
        assert_eq!(list_job_dirs(&dir), vec![3, 5, 7]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
