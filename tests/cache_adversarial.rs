//! Adversarial cache suite: the store is untrusted input. Truncated,
//! bit-flipped, and zero-length entries must read as misses — a silent
//! recompute with the exact cold-run bytes, never an error and never
//! wrong data. And failure paths must not poison the store: a
//! quarantined tile leaves no entry behind.

use dfm_practice::cache::TileCache;
use dfm_practice::fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_practice::geom::Rect;
use dfm_practice::layout::{gds, layers, Cell, Library};
use dfm_practice::rand::{Rng, Seed};
use dfm_practice::signoff::service::{JobState, JobStatus, SITE_TILE_COMPUTE};
use dfm_practice::signoff::{JobContext, JobSpec, ServiceConfig, SignoffService};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dfms-adv-{tag}-{}-{n}", std::process::id()))
}

/// A small deterministic layout: 16 tiles at `tile: 1000` over 4 µm.
fn fixture_gds(seed: u64) -> Vec<u8> {
    let mut rng = Rng::from_seed(Seed(0xadce).derive(seed));
    let mut cell = Cell::new("TOP");
    cell.add_rect(layers::METAL1, Rect::new(0, 0, 120, 120));
    cell.add_rect(layers::METAL1, Rect::new(3_880, 3_880, 4_000, 4_000));
    for _ in 0..50 {
        let x = rng.range(0..3_500i64);
        let y = rng.range(0..3_500i64);
        cell.add_rect(layers::METAL1, Rect::new(x, y, x + rng.range(90..400), y + rng.range(90..400)));
    }
    let mut lib = Library::new("adversarial");
    lib.add_cell(cell).expect("cell");
    gds::to_bytes(&lib).expect("serialise")
}

fn fixture_spec() -> JobSpec {
    JobSpec {
        name: "adversarial".to_string(),
        tile: 1000,
        halo: 64,
        drc: false,
        ca_layer: Some(layers::METAL1),
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

fn run_once(
    threads: usize,
    cache: &Arc<TileCache>,
    plan: Option<&FaultPlan>,
    spec: &JobSpec,
    gds_bytes: &[u8],
) -> (JobStatus, Option<String>) {
    let service = SignoffService::with_config(ServiceConfig {
        cache: Some(Arc::clone(cache)),
        fault_plane: plan.map(|p| Arc::new(FaultPlane::new(p.clone()))),
        ..ServiceConfig::builder().threads(threads).build()
    });
    let id = service.submit(spec.clone(), gds_bytes.to_vec()).expect("submit");
    let status = service.wait(id).expect("wait");
    let text = service.report_text(id, true).ok().map(|(_, t)| t);
    (status, text)
}

/// The cache's entry files, sorted for a deterministic victim order.
fn entry_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(root)
        .expect("read_dir")
        .map(|e| e.expect("dirent").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    files.sort();
    files
}

#[test]
fn corrupt_entries_silently_recompute_with_correct_bytes() {
    // Prime the cache, then vandalise three distinct entries —
    // truncate one to half, flip a bit in another, zero a third. The
    // warm run must finish Done with the exact cold bytes, hitting
    // every intact entry and recomputing (and re-storing) the three
    // victims; a third run is then fully warm again.
    let gds_bytes = fixture_gds(7);
    let spec = fixture_spec();
    let root = fresh_dir("corrupt");
    let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
    let (cold, cold_text) = run_once(4, &cache, None, &spec, &gds_bytes);
    assert_eq!(cold.state, JobState::Done, "{:?}", cold.error);
    let cold_text = cold_text.expect("report");
    let total = cold.tiles_total;
    assert!(total >= 4, "fixture too small to pick 3 victims from {total}");
    let files = entry_files(&root);
    assert_eq!(files.len(), total);

    // Victim 0: truncated to half its length.
    let bytes = fs::read(&files[0]).expect("read");
    fs::write(&files[0], &bytes[..bytes.len() / 2]).expect("truncate");
    // Victim 1: one bit flipped in the middle of the payload.
    let mut bytes = fs::read(&files[1]).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&files[1], &bytes).expect("bit-flip");
    // Victim 2: zero-length file.
    fs::write(&files[2], b"").expect("zero");

    let (warm, warm_text) = run_once(4, &cache, None, &spec, &gds_bytes);
    assert_eq!(warm.state, JobState::Done, "{:?}", warm.error);
    assert_eq!(warm.tiles_cached, total - 3, "exactly the 3 victims recompute");
    assert_eq!(warm_text.as_deref(), Some(cold_text.as_str()), "corruption leaked into bytes");
    assert!(cache.stats().corrupt_dropped >= 2, "truncated/bit-flipped entries were dropped");
    assert_eq!(cache.len(), total, "victims were re-stored");
    let verify = cache.verify();
    assert_eq!(verify.removed, 0, "store is clean again: {verify:?}");
    assert_eq!(verify.ok, total);

    let (third, third_text) = run_once(4, &cache, None, &spec, &gds_bytes);
    assert_eq!(third.tiles_cached, total, "third run is fully warm");
    assert_eq!(third_text.as_deref(), Some(cold_text.as_str()));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_entry_corrupted_degrades_to_a_full_cold_run() {
    let gds_bytes = fixture_gds(11);
    let spec = fixture_spec();
    let root = fresh_dir("scorch");
    let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
    let (cold, cold_text) = run_once(2, &cache, None, &spec, &gds_bytes);
    assert_eq!(cold.state, JobState::Done);
    for file in entry_files(&root) {
        fs::write(&file, b"DFMCgarbage").expect("scorch");
    }
    let (warm, warm_text) = run_once(2, &cache, None, &spec, &gds_bytes);
    assert_eq!(warm.state, JobState::Done);
    assert_eq!(warm.tiles_cached, 0, "nothing valid to hit");
    assert_eq!(warm_text, cold_text);
    assert_eq!(cache.len(), cold.tiles_total, "all entries re-stored");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quarantined_tiles_leave_no_poisoned_entries() {
    // A tile that panics through its whole attempt budget is
    // quarantined; the cache must hold an entry for every tile *but*
    // that one, and verify() must find the store clean — no torn or
    // partial write from the failed attempts.
    let gds_bytes = fixture_gds(3);
    let spec = fixture_spec();
    let victim = 5usize;
    let plan = FaultPlan::seeded(9).with_rule(
        FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic)
            .key(victim as u64)
            .first_attempts(64),
    );
    let root = fresh_dir("quarantine");
    let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
    let (status, _) = run_once(4, &cache, Some(&plan), &spec, &gds_bytes);
    assert_eq!(status.state, JobState::Partial, "{:?}", status.error);
    assert_eq!(status.tiles_quarantined, 1);
    let total = status.tiles_total;
    assert!(victim < total);
    assert_eq!(cache.len(), total - 1, "every clean tile stored, victim absent");
    let ctx = JobContext::build(&spec, &gds_bytes).expect("ctx");
    assert!(
        !cache.contains(ctx.cache_key(victim)),
        "quarantined tile must never be cached"
    );
    let verify = cache.verify();
    assert_eq!(verify.removed, 0, "no torn entries: {verify:?}");
    assert_eq!(verify.ok, total - 1);

    // A warm rerun under the same plan quarantines the same tile again
    // (it was never cached, so the fault replays identically) and
    // serves everything else.
    let (warm, _) = run_once(4, &cache, Some(&plan), &spec, &gds_bytes);
    assert_eq!(warm.state, JobState::Partial);
    assert_eq!(warm.tiles_quarantined, 1);
    assert_eq!(warm.tiles_cached, total - 1);
    let _ = std::fs::remove_dir_all(&root);
}
