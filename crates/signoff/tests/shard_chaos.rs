//! Shard-chaos suite: the coordinator under injected coordinator↔shard
//! socket faults. A dead shard's range must be re-dispatched to a
//! survivor without touching the bytes; when no shard survives, the
//! job must degrade to a *deterministic* `Partial` with a per-shard
//! quarantine manifest; a restarted coordinator must reattach to its
//! shards and replay from its last merged prefix.

use dfm_cache::TileCache;
use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::service::{JobEvent, JobEventKind, JobState};
use dfm_signoff::{
    flat_report, Client, JobSpec, SchedConfig, Server, ServiceConfig, SignoffService,
    SITE_SHARD_DISPATCH,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn block_gds() -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, 47)).expect("gds")
}

fn spec() -> JobSpec {
    JobSpec {
        name: "shard-chaos".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

fn flat_text() -> String {
    let spec = spec();
    let lib = gds::from_bytes(&block_gds()).expect("lib");
    flat_report(&spec, &lib).expect("flat").render_text(&spec)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dfms-chaos-{tag}-{}-{n}", std::process::id()))
}

/// Serves a shard service on an ephemeral loopback port.
fn serve(cfg: ServiceConfig) -> String {
    let server = Server::bind(Arc::new(SignoffService::with_config(cfg)), 0).expect("bind shard");
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    addr
}

fn spawn_shard(k: u64, n: u64, cache: Option<Arc<TileCache>>) -> String {
    let mut cfg = ServiceConfig::builder().threads(2).shard_of(k, n);
    if let Some(cache) = cache {
        cfg = cfg.cache(cache);
    }
    serve(cfg.build())
}

fn shutdown_all(addrs: &[String]) {
    for addr in addrs {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.shutdown();
        }
    }
}

/// A coordinator over `addrs` whose coordinator↔shard sockets run
/// under `plan`.
fn coordinator(addrs: &[String], plan: Option<FaultPlan>) -> SignoffService {
    let mut cfg = ServiceConfig::builder().threads(2).shards(addrs.to_vec());
    if let Some(plan) = plan {
        cfg = cfg.fault_plane(Arc::new(FaultPlane::new(plan)));
    }
    SignoffService::with_config(cfg.build())
}

fn run_job(service: &SignoffService) -> (JobState, Vec<JobEvent>, String) {
    let id = service.submit(spec(), block_gds()).expect("submit");
    let status = service.wait(id).expect("wait");
    let events = service.events(id, 0).expect("events");
    let (_, text) = service.report_text(id, true).expect("report");
    (status.state, events, text)
}

/// Killing one shard's dispatch leg re-routes its whole range to the
/// survivor — and the merged run is byte-identical to a faultless one.
#[test]
fn dead_shard_redispatches_to_survivor_byte_identically() {
    let flat = flat_text();
    let baseline = SignoffService::with_config(ServiceConfig::builder().threads(2).build());
    let (state, base_events, base_text) = run_job(&baseline);
    assert_eq!(state, JobState::Done);
    assert_eq!(base_text, flat);

    // Shard 0's dispatch connection errors at generation 0 only: the
    // takeover re-dispatch (generation 1) goes through.
    let plan = FaultPlan::seeded(5).with_rule(
        FaultRule::new(SITE_SHARD_DISPATCH, FaultAction::Error)
            .key(0)
            .first_attempts(1),
    );
    let addrs: Vec<String> = (0..2).map(|k| spawn_shard(k, 2, None)).collect();
    let coord = coordinator(&addrs, Some(plan));
    let (state, events, text) = run_job(&coord);
    let stats = coord.shard_stats().expect("coordinator has shard stats");
    shutdown_all(&addrs);

    assert_eq!(
        state,
        JobState::Done,
        "survivor must absorb the dead shard's range"
    );
    assert_eq!(events, base_events, "takeover changed the event stream");
    assert_eq!(text, flat, "takeover changed report bytes");
    assert_eq!(stats.shards, 2);
    assert!(
        stats.tiles_redispatched > 0,
        "the lost range must be re-dispatched"
    );
}

/// With no surviving shard the job settles `Partial`, and the
/// degradation itself is deterministic: two identical runs produce the
/// same event stream and the same quarantine manifest, byte for byte.
#[test]
fn no_survivor_degrades_to_deterministic_partial() {
    let run = || {
        let plan = FaultPlan::seeded(5).with_rule(
            FaultRule::new(SITE_SHARD_DISPATCH, FaultAction::Error)
                .key(0)
                .first_attempts(1),
        );
        let addrs = vec![spawn_shard(0, 1, None)];
        let coord = coordinator(&addrs, Some(plan));
        let out = run_job(&coord);
        shutdown_all(&addrs);
        out
    };
    let (state_a, events_a, text_a) = run();
    let (state_b, events_b, text_b) = run();
    assert_eq!(
        state_a,
        JobState::Partial,
        "lone dead shard must degrade, not hang"
    );
    assert_eq!(state_b, JobState::Partial);
    assert_eq!(events_a, events_b, "degradation must be deterministic");
    assert_eq!(text_a, text_b, "partial report must be deterministic");
    // Every tile carries the per-shard loss diagnostic in the manifest.
    let quarantined: Vec<&JobEvent> = events_a
        .iter()
        .filter(|e| matches!(e.kind, JobEventKind::TileQuarantined { .. }))
        .collect();
    assert!(!quarantined.is_empty(), "lost tiles must be quarantined");
    for e in quarantined {
        if let JobEventKind::TileQuarantined { reason, .. } = &e.kind {
            assert!(
                reason.starts_with("shard 0 lost:"),
                "manifest must name the lost shard: {reason}"
            );
        }
    }
    assert!(
        text_a.contains("quarantine:"),
        "report must carry the quarantine manifest"
    );
}

/// Every dispatch and re-dispatch failing (both shards dead, takeover
/// legs included) still settles the job `Partial` with a manifest —
/// never a hang, never a crash.
#[test]
fn all_shards_dead_still_settles_partial() {
    let plan =
        FaultPlan::seeded(5).with_rule(FaultRule::new(SITE_SHARD_DISPATCH, FaultAction::Error));
    let addrs: Vec<String> = (0..2).map(|k| spawn_shard(k, 2, None)).collect();
    let coord = coordinator(&addrs, Some(plan));
    let (state, events, text) = run_job(&coord);
    shutdown_all(&addrs);
    assert_eq!(state, JobState::Partial);
    let quarantined = events
        .iter()
        .filter(|e| matches!(e.kind, JobEventKind::TileQuarantined { .. }))
        .count();
    assert!(
        quarantined > 0,
        "all tiles lost must mean a quarantine manifest"
    );
    assert!(text.contains("quarantine:"));
}

/// A coordinator restarted over its checkpoint root reattaches to the
/// still-running shards (`shard.attach`, generation 0) and replays
/// only the tiles missing from its merged prefix — final bytes
/// identical to the flat run.
#[test]
fn restarted_coordinator_reattaches_and_replays_from_merged_prefix() {
    let flat = flat_text();
    let root = fresh_dir("coord-ckpt");
    let addrs: Vec<String> = (0..2).map(|k| spawn_shard(k, 2, None)).collect();

    // First life: run to completion, checkpointing every merged tile.
    let id = {
        let coord = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .shards(addrs.clone())
                .ckpt_root(root.clone())
                .build(),
        );
        let id = coord.submit(spec(), block_gds()).expect("submit");
        let status = coord.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        id
    };

    // Simulate the kill: a fresh coordinator over the same root finds
    // an arbitrary surviving prefix (here: even tiles deleted).
    let job_dir = root.join(format!("job-{id}"));
    let mut tile = 0;
    loop {
        let path = job_dir.join(format!("tile-{tile}.bin"));
        if !path.exists() {
            break;
        }
        if tile % 2 == 0 {
            std::fs::remove_file(&path).expect("delete tile checkpoint");
        }
        tile += 1;
    }
    assert!(tile > 1, "fixture must be multi-tile");

    // Second life: same shards, same root. Resume must reattach to the
    // shards' retained jobs and merge the missing tiles from their
    // outcome logs.
    let coord = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .shards(addrs.clone())
            .ckpt_root(root.clone())
            .build(),
    );
    let status = coord.status(id).expect("status");
    assert_eq!(
        status.state,
        JobState::Partial,
        "loaded prefix must read as partial"
    );
    coord.resume(id).expect("resume");
    let status = coord.wait(id).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let (_, text) = coord.report_text(id, false).expect("report");
    shutdown_all(&addrs);
    assert_eq!(text, flat, "replayed run must render the flat bytes");
    let _ = std::fs::remove_dir_all(&root);
}

/// Takeover with a warm shared cache: the survivor serves the lost
/// range from disk instead of recomputing it, and the event stream
/// matches a warm single-process run exactly.
#[test]
fn warm_cache_takeover_recovers_lost_range_from_cache() {
    let flat = flat_text();
    let base_dir = fresh_dir("warm-base");
    let shard_dir = fresh_dir("warm-shard");

    // Warm single-process baseline: cold run stores, warm run hits.
    let base_cache = Arc::new(TileCache::open(&base_dir, None).expect("open cache"));
    let baseline = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .cache(base_cache)
            .build(),
    );
    let (state, _, _) = run_job(&baseline);
    assert_eq!(state, JobState::Done);
    let (state, warm_events, _) = run_job(&baseline);
    assert_eq!(state, JobState::Done);

    // Warm the shard cluster's shared cache with a faultless run.
    let shard_cache = Arc::new(TileCache::open(&shard_dir, None).expect("open cache"));
    let addrs: Vec<String> = (0..2)
        .map(|k| spawn_shard(k, 2, Some(Arc::clone(&shard_cache))))
        .collect();
    let warmup = coordinator(&addrs, None);
    let (state, _, _) = run_job(&warmup);
    assert_eq!(state, JobState::Done);

    // Now kill shard 0's dispatch leg: the survivor absorbs the lost
    // range straight from the warm cache.
    let plan = FaultPlan::seeded(5).with_rule(
        FaultRule::new(SITE_SHARD_DISPATCH, FaultAction::Error)
            .key(0)
            .first_attempts(1),
    );
    let coord = coordinator(&addrs, Some(plan));
    let (state, events, text) = run_job(&coord);
    let stats = coord.shard_stats().expect("shard stats");
    shutdown_all(&addrs);

    assert_eq!(state, JobState::Done);
    assert!(
        stats.tiles_redispatched > 0,
        "the lost range must be re-dispatched"
    );
    assert_eq!(
        events, warm_events,
        "warm takeover must replay cache hits byte-identically"
    );
    assert_eq!(text, flat);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, JobEventKind::TileCacheHit { .. })),
        "recovered tiles must be served from the cache"
    );
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

/// A drain is the refusal *code* `draining`, never a word in the
/// diagnostic: shards whose tenant plan refuses a tenant literally
/// named `draining` (`unknown_tenant: tenant 'draining' is not in the
/// tenant plan`) are lost shards — re-dispatched, then quarantined with
/// a loss manifest — not planned handoffs.
#[test]
fn a_refusal_that_mentions_draining_is_a_loss_not_a_drain() {
    let closed_shard = |k| {
        let cfg = ServiceConfig::builder()
            .threads(1)
            .shard_of(k, 2)
            .sched(SchedConfig::default());
        serve(cfg.build())
    };
    let addrs: Vec<String> = (0..2).map(closed_shard).collect();
    let coord = coordinator(&addrs, None);
    let spec = JobSpec {
        tenant: "draining".to_string(),
        ..spec()
    };
    let id = coord
        .submit(spec, block_gds())
        .expect("the coordinator's open plan admits it");
    let status = coord.wait(id).expect("wait");
    let events = coord.events(id, 0).expect("events");
    let stats = coord.shard_stats().expect("shard stats");
    shutdown_all(&addrs);

    assert_eq!(status.state, JobState::Partial);
    assert_eq!(status.tiles_quarantined, status.tiles_total);
    assert_eq!(stats.tiles_drained, 0, "nothing was draining");
    assert!(
        stats.tiles_redispatched > 0,
        "the first refusal is a loss: its range moves on"
    );
    for e in &events {
        if let JobEventKind::TileQuarantined { reason, .. } = &e.kind {
            assert!(
                reason.contains("lost: dispatch to shard")
                    && reason.ends_with("tenant 'draining' is not in the tenant plan"),
                "the manifest carries the shard's diagnostic, not a drain: {reason}"
            );
        }
    }
}

/// Cancel a coordinated job while its pullers wait inside `shard.pull`
/// (the shards are slowed, so no outcome exists yet), then resume it at
/// once: the stale pullers' answers arrive while the resumed epoch
/// runs. The job still settles `Done` with the flat bytes and exactly
/// the events of a single-process cancel/resume.
#[test]
fn coordinated_cancel_then_resume_matches_a_single_process_one() {
    use std::time::Duration;

    let delay = Duration::from_millis(200);
    let cancel_resume = |service: &SignoffService, running: &dyn Fn() -> bool| {
        let id = service.submit(spec(), block_gds()).expect("submit");
        while !running() {}
        assert_eq!(
            service.cancel(id).expect("cancel").state,
            JobState::Cancelled
        );
        service.resume(id).expect("resume");
        let status = service.wait(id).expect("wait");
        let (_, text) = service.report_text(id, false).expect("report");
        (status.state, service.events(id, 0).expect("events"), text)
    };
    let single = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .tile_delay(delay)
            .build(),
    );
    let (state, base_events, base_text) = cancel_resume(&single, &|| true);
    assert_eq!(state, JobState::Done);

    let slow_shard = |k| {
        serve(
            ServiceConfig::builder()
                .threads(2)
                .shard_of(k, 2)
                .tile_delay(delay)
                .build(),
        )
    };
    let addrs: Vec<String> = (0..2).map(slow_shard).collect();
    let coord = coordinator(&addrs, None);
    // Both shards hold their job: the pullers are past dispatch.
    let dispatched = || {
        addrs.iter().all(|a| {
            !Client::connect(a)
                .expect("connect")
                .list()
                .expect("list")
                .is_empty()
        })
    };
    let (state, events, text) = cancel_resume(&coord, &dispatched);
    shutdown_all(&addrs);

    assert_eq!(
        state,
        JobState::Done,
        "the resumed epoch must finish the job"
    );
    assert_eq!(text, flat_text(), "stale pullers changed the report bytes");
    assert_eq!(text, base_text);
    assert_eq!(
        events, base_events,
        "stale pullers changed the event stream"
    );
}
