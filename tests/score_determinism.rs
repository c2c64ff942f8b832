//! Score-determinism suite: the manufacturability score is part of the
//! deterministic surface. Its JSON line must be byte-identical at any
//! worker count, cold or warm, local (flat) or through the service —
//! and the auto-fix loop must honour the cache contract: a no-op fix
//! resubmits into a fully warm cache and recomputes nothing.

use dfm_practice::cache::TileCache;
use dfm_practice::layout::{gds, generate, layers, Technology};
use dfm_practice::signoff::{
    auto_fix, flat_score, JobSpec, ServiceConfig, SignoffService,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn block_gds(seed: u64) -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, seed)).expect("serialise")
}

fn scored_spec() -> JobSpec {
    JobSpec {
        name: "score-det".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        score: Some("default".to_string()),
        ..JobSpec::default()
    }
}

/// A unique temp dir per call, so cases never share cache state.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dfms-score-{tag}-{}-{n}", std::process::id()))
}

fn service(threads: usize, cache: Option<Arc<TileCache>>) -> SignoffService {
    SignoffService::with_config(ServiceConfig { cache, ..ServiceConfig::builder().threads(threads).build() })
}

/// Runs one scored job to settlement and returns the score JSON line
/// plus the settled status.
fn run_scored(
    svc: &SignoffService,
    spec: &JobSpec,
    bytes: &[u8],
) -> (dfm_practice::signoff::service::JobStatus, String) {
    let job = svc.submit(spec.clone(), bytes.to_vec()).expect("submit");
    let status = svc.wait(job).expect("wait");
    assert!(status.error.is_none(), "job failed: {:?}", status.error);
    svc.score_json(job).expect("score")
}

#[test]
fn score_json_is_byte_identical_across_worker_counts_and_warmth() {
    let bytes = block_gds(41);
    let spec = scored_spec();

    // The flat one-shot scorer is the reference rendering.
    let lib = gds::from_bytes(&bytes).expect("parse");
    let (_, flat) = flat_score(&spec, &lib).expect("flat score");
    let reference = flat.render();

    // Cold runs at 1, 2, and 8 workers.
    for threads in [1usize, 2, 8] {
        let (_, json) = run_scored(&service(threads, None), &spec, &bytes);
        assert_eq!(json, reference, "cold run at {threads} workers diverged");
    }

    // A warm run through a populated cache renders the same bytes.
    let dir = fresh_dir("warmth");
    let cache = Arc::new(TileCache::open(&dir, None).expect("cache"));
    let (cold_status, cold_json) = run_scored(&service(4, Some(cache.clone())), &spec, &bytes);
    assert_eq!(cold_status.tiles_cached, 0);
    let (warm_status, warm_json) = run_scored(&service(4, Some(cache)), &spec, &bytes);
    assert_eq!(warm_status.tiles_cached, warm_status.tiles_total, "expected a fully warm run");
    assert_eq!(cold_json, reference);
    assert_eq!(warm_json, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn score_digest_is_pinned() {
    // The golden digest for routed block seed 41 under the default
    // score spec. A change here is a change to the score model, the
    // metric extraction, or the JSON rendering — all of which are
    // compatibility breaks for recorded scores and must be deliberate.
    let lib = gds::from_bytes(&block_gds(41)).expect("parse");
    let (_, score) = flat_score(&scored_spec(), &lib).expect("score");
    assert_eq!(
        score.digest(),
        0x3e40_7147_1d21_f90a,
        "score digest moved: {:#018x} (render: {})",
        score.digest(),
        score.render()
    );
}

#[test]
fn no_op_auto_fix_recomputes_zero_tiles() {
    let bytes = block_gds(42);
    // A score spec that is already saturated leaves no room for strict
    // improvement: the fix loop keeps nothing and returns the input
    // bytes verbatim.
    let spec = JobSpec {
        score: Some("pass 0.0\nmetric litho.area_ratio weight 0 scorer identity".to_string()),
        ..scored_spec()
    };
    let outcome = auto_fix(&spec, &bytes).expect("fix");
    assert!(!outcome.changed);
    assert_eq!(outcome.gds, bytes, "no-op fix must preserve exact bytes");

    let dir = fresh_dir("noop");
    let cache = Arc::new(TileCache::open(&dir, None).expect("cache"));
    let svc = service(4, Some(cache));
    let (first, _) = run_scored(&svc, &spec, &bytes);
    assert_eq!(first.tiles_cached, 0);
    let computed_after_first = svc.pool_stats().completed;

    // Resubmitting the fix outcome hits the cache on every tile: zero
    // pool tasks run.
    let (second, second_json) = run_scored(&svc, &spec, &outcome.gds);
    assert_eq!(second.tiles_cached, second.tiles_total);
    assert_eq!(
        svc.pool_stats().completed,
        computed_after_first,
        "a no-op fix resubmission must not recompute any tile"
    );
    let (_, first_json) = svc.score_json(first.id).expect("first score");
    assert_eq!(first_json, second_json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_fix_improves_score_and_the_service_agrees() {
    let bytes = block_gds(41);
    let spec = scored_spec();
    let outcome = auto_fix(&spec, &bytes).expect("fix");
    assert!(outcome.changed, "expected the fix to land on this seed");
    assert!(
        outcome.score_after.score > outcome.score_before.score,
        "after {} !> before {}",
        outcome.score_after.score,
        outcome.score_before.score
    );

    // The service-side score of the fixed layout is byte-identical to
    // the fix loop's own after-score: shared metrics, shared spec.
    let dir = fresh_dir("fix");
    let cache = Arc::new(TileCache::open(&dir, None).expect("cache"));
    let svc = service(4, Some(cache.clone()));
    let (_, before_json) = run_scored(&svc, &spec, &bytes);
    assert_eq!(before_json, outcome.score_before.render());
    let (_, after_json) = run_scored(&svc, &spec, &outcome.gds);
    assert_eq!(after_json, outcome.score_after.render());

    // Re-running the whole fix pass against the now-warm cache is pure
    // cache traffic: both passes fully served, nothing recomputed.
    let svc2 = service(4, Some(cache));
    let baseline = svc2.pool_stats().completed;
    let (rerun_before, _) = run_scored(&svc2, &spec, &bytes);
    let (rerun_after, _) = run_scored(&svc2, &spec, &outcome.gds);
    assert_eq!(rerun_before.tiles_cached, rerun_before.tiles_total);
    assert_eq!(rerun_after.tiles_cached, rerun_after.tiles_total);
    assert_eq!(svc2.pool_stats().completed, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
