//! Cache-determinism suite: the content-addressed tile-result cache
//! must be invisible in the bytes. A warm run may skip every compute,
//! but its report — and its event stream, once the `TileCacheHit`/
//! `TileCacheStore` markers are set aside — must be identical to the
//! cold run, at any worker count, under any fault plan. And an edited
//! layout must recompute exactly the tiles whose content digest
//! changed, then still render the byte-exact from-scratch report.

use dfm_practice::cache::TileCache;
use dfm_practice::fault::{FaultPlan, FaultPlane};
use dfm_practice::geom::Rect;
use dfm_practice::layout::{gds, generate, layers, Cell, Library, Technology};
use dfm_practice::rand::{Rng, Seed};
use dfm_practice::signoff::service::{JobEvent, JobEventKind, JobState, JobStatus};
use dfm_practice::signoff::{flat_report, JobContext, JobSpec, ServiceConfig, SignoffService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn block_gds() -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, 47)).expect("serialise")
}

fn block_spec() -> JobSpec {
    JobSpec {
        name: "determinism".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

/// A unique temp dir per call, so cases never share cache state.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dfms-cache-{tag}-{}-{n}", std::process::id()))
}

/// A random single-cell layout: `n_rects` METAL1 rectangles scattered
/// over a `extent`×`extent` nm window, purely from `seed`.
fn random_library(seed: u64, n_rects: usize, extent: i64) -> Library {
    let mut rng = Rng::from_seed(Seed(0xcac4e).derive(seed));
    let mut cell = Cell::new("TOP");
    // An anchor rect pins the layout extent so the tile grid is stable
    // across edits.
    cell.add_rect(layers::METAL1, Rect::new(0, 0, 120, 120));
    cell.add_rect(layers::METAL1, Rect::new(extent - 120, extent - 120, extent, extent));
    for _ in 0..n_rects {
        let x = rng.range(0..extent - 420);
        let y = rng.range(0..extent - 420);
        let w = rng.range(90..400);
        let h = rng.range(90..400);
        cell.add_rect(layers::METAL1, Rect::new(x, y, x + w, y + h));
    }
    let mut lib = Library::new("cache-prop");
    lib.add_cell(cell).expect("cell");
    lib
}

/// The spec the random-layout cases run under: litho + critical area
/// (DRC off keeps the violation lists — and the runtime — small; the
/// cache key covers the deck either way, which the fixed-block tests
/// pin with the full default deck).
fn random_spec() -> JobSpec {
    JobSpec {
        name: "cache-prop".to_string(),
        tile: 1000,
        halo: 64,
        drc: false,
        ca_layer: Some(layers::METAL1),
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

fn service_with(
    threads: usize,
    cache: &Arc<TileCache>,
    plan: Option<&FaultPlan>,
) -> SignoffService {
    SignoffService::with_config(ServiceConfig {
        cache: Some(Arc::clone(cache)),
        fault_plane: plan.map(|p| Arc::new(FaultPlane::new(p.clone()))),
        ..ServiceConfig::builder().threads(threads).build()
    })
}

/// One full run against a shared cache: (status, events, report text —
/// None when the job failed outright).
fn run_once(
    threads: usize,
    cache: &Arc<TileCache>,
    plan: Option<&FaultPlan>,
    spec: &JobSpec,
    gds_bytes: &[u8],
) -> (JobStatus, Vec<JobEvent>, Option<String>) {
    let service = service_with(threads, cache, plan);
    let id = service.submit(spec.clone(), gds_bytes.to_vec()).expect("submit");
    let status = service.wait(id).expect("wait");
    let events = service.events(id, 0).expect("events");
    let text = service.report_text(id, false).ok().map(|(_, t)| t);
    (status, events, text)
}

/// The event stream with the cache markers set aside — what must be
/// byte-identical between a cold and a warm run. Sequence numbers are
/// dropped with the markers (they shift when markers disappear); the
/// kind order is the contract.
fn sans_cache_markers(events: &[JobEvent]) -> Vec<JobEventKind> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                JobEventKind::TileCacheHit { .. } | JobEventKind::TileCacheStore { .. }
            )
        })
        .map(|e| e.kind.clone())
        .collect()
}

fn hit_tiles(events: &[JobEvent]) -> Vec<usize> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            JobEventKind::TileCacheHit { tile } => Some(tile),
            _ => None,
        })
        .collect()
}

#[test]
fn warm_resubmission_computes_zero_tiles_and_keeps_the_golden_digest() {
    // The acceptance pin: prime the cache once at 1 worker, then
    // resubmit the unchanged layout at 1, 2, and 8 workers. Every warm
    // run must serve all tiles from the cache (zero computes — the
    // pool never sees a task) and render the exact golden report.
    const GOLDEN_REPORT_DIGEST: u64 = 0xf486_2273_eb78_3655;
    let gds_bytes = block_gds();
    let spec = block_spec();
    let root = fresh_dir("golden");
    let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
    let (cold_status, cold_events, cold_text) =
        run_once(1, &cache, None, &spec, &gds_bytes);
    assert_eq!(cold_status.state, JobState::Done, "{:?}", cold_status.error);
    assert_eq!(cold_status.tiles_cached, 0, "a cold run hits nothing");
    let cold_text = cold_text.expect("report");
    let digest = dfm_check::fnv1a_64(cold_text.as_bytes());
    assert_eq!(
        digest, GOLDEN_REPORT_DIGEST,
        "caching changed cold-run report bytes: digest {digest:#018x}"
    );
    assert_eq!(cache.len(), cold_status.tiles_total, "every tile stored");
    for threads in [1usize, 2, 8] {
        let warm = service_with(threads, &cache, None);
        let id = warm.submit(spec.clone(), gds_bytes.clone()).expect("submit");
        let status = warm.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "threads={threads}: {:?}", status.error);
        assert_eq!(
            status.tiles_cached, status.tiles_total,
            "threads={threads}: warm run must compute zero tiles"
        );
        assert_eq!(
            warm.pool_stats().completed, 0,
            "threads={threads}: no tile task may reach the pool"
        );
        let (_, text) = warm.report_text(id, false).expect("report");
        assert_eq!(text, cold_text, "threads={threads}: warm bytes differ from cold");
        let events = warm.events(id, 0).expect("events");
        assert_eq!(
            sans_cache_markers(&events),
            sans_cache_markers(&cold_events),
            "threads={threads}: event stream (modulo cache markers) changed"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cold_and_warm_runs_agree_modulo_markers_for_random_layouts_and_faults() {
    // Property: for random layouts, with and without a fault plan, and
    // at 1/2/8 workers (each worker count over its own fresh cache),
    // the warm event stream equals the cold one once cache markers are
    // set aside, and the report bytes are identical — to the cold run
    // and across worker counts.
    dfm_check::check(
        "cache_cold_warm_equivalence",
        &dfm_check::Config::with_cases(4),
        &(0u64..1_000, dfm_check::bools()),
        |&(seed, with_faults)| {
            let lib = random_library(seed, 60, 4_000);
            let gds_bytes = gds::to_bytes(&lib).map_err(|e| e.to_string())?;
            let spec = random_spec();
            let plan = with_faults.then(|| {
                FaultPlan::parse(&format!(
                    "seed {seed}\n\
                     rule signoff.tile.compute panic p=0.3\n\
                     rule signoff.cache.read error p=0.2\n\
                     rule signoff.cache.write error p=0.2\n"
                ))
                .expect("plan")
            });
            let mut baseline: Option<(Vec<JobEventKind>, Option<String>)> = None;
            for threads in [1usize, 2, 8] {
                let root = fresh_dir("prop");
                let cache = Arc::new(TileCache::open(&root, None).map_err(|e| e.to_string())?);
                let (cold_status, cold_events, cold_text) =
                    run_once(threads, &cache, plan.as_ref(), &spec, &gds_bytes);
                dfm_check::prop_assert!(
                    cold_status.state == JobState::Done || cold_status.state == JobState::Partial,
                    "cold run must settle"
                );
                let (warm_status, warm_events, warm_text) =
                    run_once(threads, &cache, plan.as_ref(), &spec, &gds_bytes);
                dfm_check::prop_assert_eq!(warm_status.state, cold_status.state);
                dfm_check::prop_assert_eq!(
                    sans_cache_markers(&warm_events),
                    sans_cache_markers(&cold_events)
                );
                dfm_check::prop_assert_eq!(&warm_text, &cold_text);
                if plan.is_none() {
                    // Fault-free: the second run must be fully warm.
                    dfm_check::prop_assert_eq!(warm_status.tiles_cached, warm_status.tiles_total);
                }
                match &baseline {
                    None => baseline = Some((sans_cache_markers(&cold_events), cold_text)),
                    Some((events, text)) => {
                        dfm_check::prop_assert_eq!(&sans_cache_markers(&cold_events), events);
                        dfm_check::prop_assert_eq!(&cold_text, text);
                    }
                }
                let _ = std::fs::remove_dir_all(&root);
            }
            Ok(())
        },
    );
}

#[test]
fn edited_layout_recomputes_exactly_the_dirty_tiles() {
    // Submit, edit one spot, submit again: the warm run must hit
    // exactly the tiles whose content digest is unchanged, recompute
    // the rest, and render the byte-exact from-scratch report of the
    // edited layout — at 1, 2, and 8 workers.
    dfm_check::check(
        "cache_incremental_resignoff",
        &dfm_check::Config::with_cases(3),
        &(0u64..1_000, 0u64..1_000),
        |&(seed, edit_seed)| {
            let spec = random_spec();
            let base = random_library(seed, 60, 4_000);
            let base_gds = gds::to_bytes(&base).map_err(|e| e.to_string())?;
            // The edit: one extra rect at a position drawn from
            // edit_seed — a tile-local mutation (it may straddle a
            // boundary; the digest comparison below is the truth).
            let mut rng = Rng::from_seed(Seed(0xed17).derive(edit_seed));
            let (x, y) = (rng.range(200..3_400), rng.range(200..3_400));
            let mut edited = random_library(seed, 60, 4_000);
            {
                let id = edited.top().ok_or("edited library has no top cell")?;
                edited.cell_mut(id).add_rect(layers::METAL1, Rect::new(x, y, x + 150, y + 150));
            }
            let edited_gds = gds::to_bytes(&edited).map_err(|e| e.to_string())?;
            // Ground truth from the digests themselves.
            let ctx_base = JobContext::build(&spec, &base_gds).map_err(|e| e.to_string())?;
            let ctx_edit = JobContext::build(&spec, &edited_gds).map_err(|e| e.to_string())?;
            dfm_check::prop_assert_eq!(ctx_base.tile_count(), ctx_edit.tile_count());
            let clean: Vec<usize> = (0..ctx_base.tile_count())
                .filter(|&t| ctx_base.tile_content_digest(t) == ctx_edit.tile_content_digest(t))
                .collect();
            dfm_check::prop_assert!(
                clean.len() < ctx_base.tile_count(),
                "the edit must dirty at least one tile"
            );
            let flat_edited = flat_report(&spec, &gds::from_bytes(&edited_gds).expect("lib"))
                .map_err(|e| e.to_string())?
                .render_text(&spec);
            for threads in [1usize, 2, 8] {
                let root = fresh_dir("edit");
                let cache = Arc::new(TileCache::open(&root, None).map_err(|e| e.to_string())?);
                let (cold_status, _, _) = run_once(threads, &cache, None, &spec, &base_gds);
                dfm_check::prop_assert_eq!(cold_status.state, JobState::Done);
                let (status, events, text) =
                    run_once(threads, &cache, None, &spec, &edited_gds);
                dfm_check::prop_assert_eq!(status.state, JobState::Done);
                dfm_check::prop_assert_eq!(
                    hit_tiles(&events),
                    clean.clone(),
                    "hits must be exactly the digest-clean tiles (threads {})",
                    threads
                );
                dfm_check::prop_assert_eq!(
                    status.tiles_total - status.tiles_cached,
                    ctx_base.tile_count() - clean.len(),
                    "recomputed set is exactly the dirty set (threads {})",
                    threads
                );
                dfm_check::prop_assert_eq!(
                    text.as_deref(),
                    Some(flat_edited.as_str()),
                    "edited warm run must match the from-scratch flat report (threads {})",
                    threads
                );
                let _ = std::fs::remove_dir_all(&root);
            }
            Ok(())
        },
    );
}

#[test]
fn eviction_trades_hits_for_recomputes_never_bytes() {
    // A cache too small for the whole job still yields the exact
    // report: evicted entries become recomputes (and re-stores), and
    // the surviving entries still hit.
    let gds_bytes = block_gds();
    let spec = block_spec();
    let root = fresh_dir("evict");
    // Room for roughly half the job's tiles.
    let probe = {
        let ctx = JobContext::build(&spec, &gds_bytes).expect("ctx");
        ctx.tile_count()
    };
    let cache = Arc::new(TileCache::open(&root, Some(2_048 * probe as u64 / 2)).expect("cache"));
    let (cold_status, _, cold_text) = run_once(1, &cache, None, &spec, &gds_bytes);
    assert_eq!(cold_status.state, JobState::Done);
    let cold_text = cold_text.expect("report");
    assert!(
        cache.len() < cold_status.tiles_total,
        "fixture must actually evict (len {} of {})",
        cache.len(),
        cold_status.tiles_total
    );
    assert!(!cache.is_empty(), "eviction keeps the newest entries");
    let (warm_status, _, warm_text) = run_once(1, &cache, None, &spec, &gds_bytes);
    assert_eq!(warm_status.state, JobState::Done);
    assert!(warm_status.tiles_cached < warm_status.tiles_total, "some tiles were evicted");
    assert_eq!(warm_text.as_deref(), Some(cold_text.as_str()), "eviction changed bytes");
    let _ = std::fs::remove_dir_all(&root);
}
