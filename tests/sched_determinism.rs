//! Multi-tenant scheduler determinism suite.
//!
//! Two tenants with 2:1 weights submit equal-size jobs concurrently;
//! under a plan's explicit `global max_inflight` window and any worker
//! count (1, 2, 8) the grant sequence, every job's event stream, and
//! every report must be byte-identical — warm and cold cache, with and
//! without a fault plan. The scheduler's fairness must also be visible
//! in the grant log itself: every prefix stays close to the 2:1
//! weighted share. Without a plan window the window is the worker
//! count: an interactive job is granted within one pool width of
//! arriving behind a bulk backlog, and `--priority` orders grants with
//! no tenant plan at all.

use dfm_practice::cache::TileCache;
use dfm_practice::fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_practice::layout::{gds, generate, layers, Technology};
use dfm_practice::signoff::sched::render_grant_log;
use dfm_practice::signoff::service::{JobState, SITE_TILE_COMPUTE};
use dfm_practice::signoff::{
    flat_report, ErrorCode, JobSpec, SchedConfig, ServiceConfig, ServiceConfigBuilder,
    SignoffService,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn block_gds() -> Vec<u8> {
    square_block(4_000, 31)
}

/// A routed block `side` nm square, generated from `seed`.
fn square_block(side: i64, seed: u64) -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: side,
        height: side,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, seed)).expect("serialise")
}

fn spec_for(tenant: &str, priority: u8) -> JobSpec {
    JobSpec {
        name: format!("{tenant}-block"),
        tile: 1_100,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        tenant: tenant.to_string(),
        priority,
        ..JobSpec::default()
    }
}

/// The 2:1 tenant plan every test here schedules under. The in-flight
/// window of 2 is the determinism lever: it is a property of the
/// *scheduler*, not of the worker count, so the grant sequence cannot
/// depend on how many threads drain the pool.
fn plan() -> SchedConfig {
    SchedConfig::parse(
        "tenant a weight 2\n\
         tenant b weight 1\n\
         global max_inflight 2\n",
    )
    .expect("tenant plan")
}

/// A service with the 2:1 plan and a tile delay long enough that both
/// submissions land before the first tile can resolve — the fixed
/// submission order the determinism guarantee is stated against.
fn builder(threads: usize) -> ServiceConfigBuilder {
    ServiceConfig::builder()
        .threads(threads)
        .sched(plan())
        .tile_delay(Duration::from_millis(60))
}

/// One full two-tenant run: submit a's job then b's, wait both out,
/// and capture every observable byte — the rendered grant log, each
/// job's event stream, and each job's report text.
fn run_pair(service: &SignoffService) -> (String, Vec<String>, Vec<String>) {
    let gds_bytes = block_gds();
    let a = service.submit(spec_for("a", 0), gds_bytes.clone()).expect("submit a");
    let b = service.submit(spec_for("b", 0), gds_bytes).expect("submit b");
    let mut events = Vec::new();
    let mut reports = Vec::new();
    for id in [a, b] {
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "job {id}: {:?}", status.error);
        events.push(format!("{:?}", service.events(id, 0).expect("events")));
        reports.push(service.report_text(id, false).expect("report").1);
    }
    (render_grant_log(&service.grant_log()), events, reports)
}

/// A unique temp dir per call, so cases never share cache state.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dfms-sched-{tag}-{}-{n}", std::process::id()))
}

/// Asserts the weighted 2:1 share holds in every prefix of the grant
/// log: after any k grants, tenant a has close to twice tenant b's
/// count. The slack of 3 covers the window-2 head start and the lane
/// that drains first.
fn assert_weighted_prefixes(log: &str) {
    let (mut a, mut b) = (0i64, 0i64);
    for line in log.lines() {
        if line.contains(" tenant a ") {
            a += 1;
        } else if line.contains(" tenant b ") {
            b += 1;
        } else {
            panic!("unexpected grant line: {line}");
        }
        // Once a lane is drained the other takes every remaining
        // grant; only police the region where both still have tiles.
        if a < 16 && b < 16 {
            assert!((a - 2 * b).abs() <= 3, "prefix a={a} b={b} strays from 2:1\n{log}");
        }
    }
    assert_eq!((a, b), (16, 16), "each job has 16 tiles\n{log}");
}

#[test]
fn grant_log_events_and_reports_identical_at_1_2_8_workers() {
    let mut golden: Option<(String, Vec<String>, Vec<String>)> = None;
    for threads in [1usize, 2, 8] {
        let service = SignoffService::with_config(builder(threads).build());
        let run = run_pair(&service);
        assert_weighted_prefixes(&run.0);
        match &golden {
            None => golden = Some(run),
            Some(g) => {
                assert_eq!(run.0, g.0, "grant log changed at {threads} workers");
                assert_eq!(run.1, g.1, "event streams changed at {threads} workers");
                assert_eq!(run.2, g.2, "reports changed at {threads} workers");
            }
        }
    }
}

#[test]
fn grant_log_is_identical_under_a_fault_plan() {
    // First-attempt compute panics on tiles 3 and 9 (of both jobs —
    // the site is keyed by tile index) force the retry path, which
    // must not perturb the grant sequence: retries hold their slot and
    // never re-enter the lanes.
    let plan = FaultPlan::seeded(5)
        .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).first_attempts(1).key(3))
        .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).first_attempts(1).key(9));
    let mut golden: Option<(String, Vec<String>, Vec<String>)> = None;
    for threads in [1usize, 2, 8] {
        let plane = Arc::new(FaultPlane::new(plan.clone()));
        let service = SignoffService::with_config(builder(threads).fault_plane(plane).build());
        let run = run_pair(&service);
        match &golden {
            None => golden = Some(run),
            Some(g) => {
                assert_eq!(run.0, g.0, "faulty grant log changed at {threads} workers");
                assert_eq!(run.1, g.1, "faulty event streams changed at {threads} workers");
                assert_eq!(run.2, g.2, "faulty reports changed at {threads} workers");
            }
        }
    }
    // The faults actually fired: the event streams mention retries.
    let (_, events, _) = golden.expect("ran");
    assert!(events.iter().any(|e| e.contains("TileRetry")), "no retry observed: {events:?}");
}

#[test]
fn warm_cache_runs_are_identical_and_grant_nothing() {
    let dir = fresh_dir("warm");
    // Cold pass: one service populates the cache.
    let cold = {
        let cache = Arc::new(TileCache::open(&dir, None).expect("cache"));
        let service = SignoffService::with_config(builder(2).cache(cache).build());
        run_pair(&service)
    };
    assert_weighted_prefixes(&cold.0);
    // Warm passes: every tile is served from the store before the
    // scheduler sees it, so the grant log is empty — at any worker
    // count — and the reports are byte-identical to the cold run's.
    let mut golden_warm: Option<Vec<String>> = None;
    for threads in [1usize, 2, 8] {
        let cache = Arc::new(TileCache::open(&dir, None).expect("cache"));
        let service = SignoffService::with_config(builder(threads).cache(cache).build());
        let (log, _, reports) = run_pair(&service);
        assert_eq!(log, "", "warm tiles must not be granted at {threads} workers");
        assert_eq!(reports, cold.2, "warm reports differ from cold at {threads} workers");
        match &golden_warm {
            None => golden_warm = Some(reports),
            Some(g) => assert_eq!(&reports, g, "warm reports changed at {threads} workers"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_and_recovers() {
    let cfg = SchedConfig::parse(
        "tenant a weight 2 max_jobs 1\n\
         tenant b weight 1 max_tiles 8\n",
    )
    .expect("plan");
    let service = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .sched(cfg)
            .tile_delay(Duration::from_millis(20))
            .build(),
    );
    let gds_bytes = block_gds();
    // Unknown tenant: no wildcard policy, so 'ghost' is refused.
    let err = service.submit_job(spec_for("ghost", 0), gds_bytes.clone(), None).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownTenant, "{err}");
    // Tenant a may hold one active job; the second is quota-bounced
    // with a deterministic retry hint.
    let first = service.submit(spec_for("a", 0), gds_bytes.clone()).expect("first");
    let err = service.submit_job(spec_for("a", 0), gds_bytes.clone(), None).unwrap_err();
    assert_eq!(err.code, ErrorCode::QuotaExceeded, "{err}");
    assert!(err.retry_after_vms.is_some(), "quota rejections carry a retry hint");
    // Tenant b's 16-tile job exceeds its 8-tile queue quota outright.
    let err = service.submit_job(spec_for("b", 0), gds_bytes.clone(), None).unwrap_err();
    assert_eq!(err.code, ErrorCode::QuotaExceeded, "{err}");
    // Once the active job settles, its reservations are released and
    // tenant a is admitted again.
    assert_eq!(service.wait(first).expect("wait").state, JobState::Done);
    let second = service.submit(spec_for("a", 0), gds_bytes).expect("after settle");
    assert_eq!(service.wait(second).expect("wait").state, JobState::Done);
}

#[test]
fn priorities_jump_the_grant_queue() {
    // Everything lands before the first resolution (60 ms delay), so
    // the high-priority job — submitted *last* — must still receive
    // every grant after the in-flight window frees, ahead of the
    // backlogged priority-0 lanes.
    let service = SignoffService::with_config(builder(1).build());
    let gds_bytes = block_gds();
    let _low_a = service.submit(spec_for("a", 0), gds_bytes.clone()).expect("a");
    let _low_b = service.submit(spec_for("b", 0), gds_bytes.clone()).expect("b");
    let hi = service.submit(spec_for("b", 7), gds_bytes).expect("hi");
    assert_eq!(service.wait(hi).expect("wait").state, JobState::Done);
    let log = render_grant_log(&service.grant_log());
    let hi_lines: Vec<usize> = log
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&format!(" job {hi} ")))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hi_lines.len(), 16, "high-priority job fully granted\n{log}");
    // At most the two window-held grants precede it; after that the
    // priority-7 lane owns the queue until drained.
    let first = hi_lines[0];
    assert!(first <= 2, "priority lane started at grant {first}\n{log}");
    let span = hi_lines[15] - hi_lines[0];
    assert_eq!(span, 15, "priority lane was interleaved\n{log}");
}

/// Grant-log line indices of job `id`.
fn grant_indices(log: &str, id: u64) -> Vec<usize> {
    let tag = format!(" job {id} ");
    log.lines().enumerate().filter(|(_, l)| l.contains(&tag)).map(|(i, _)| i).collect()
}

#[test]
fn interactive_tenant_is_granted_within_one_pool_width() {
    // No `global` line: the grant window is the worker count, so bulk's
    // 16-tile backlog waits in its lane, not in the pool's queue, and
    // the weight-2 interactive job takes the next slots that free.
    let plan = SchedConfig::parse("tenant bulk weight 1\ntenant inter weight 2\n").expect("plan");
    let bulk_gds = block_gds();
    let inter_gds = square_block(2_000, 32);
    let flat = |tenant: &str, bytes: &[u8]| {
        let spec = spec_for(tenant, 0);
        let lib = gds::from_bytes(bytes).expect("lib");
        flat_report(&spec, &lib).expect("flat").render_text(&spec)
    };
    let (bulk_flat, inter_flat) = (flat("bulk", &bulk_gds), flat("inter", &inter_gds));
    for workers in [1usize, 2, 4] {
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(workers)
                .sched(plan.clone())
                .tile_delay(Duration::from_millis(60))
                .build(),
        );
        let bulk = service.submit(spec_for("bulk", 0), bulk_gds.clone()).expect("bulk");
        let inter = service.submit(spec_for("inter", 0), inter_gds.clone()).expect("inter");
        for id in [bulk, inter] {
            let status = service.wait(id).expect("wait");
            assert_eq!(status.state, JobState::Done, "job {id}: {:?}", status.error);
        }
        let log = render_grant_log(&service.grant_log());
        let granted = grant_indices(&log, inter);
        assert_eq!(granted.len(), 4, "inter has 4 tiles\n{log}");
        // The 2:1 share lets one bulk grant in between: vtimes W, W+½,
        // then a tie at W+1 that "bulk" wins by name, then W+1, W+1½.
        assert_eq!(
            (granted[0], granted[3]),
            (workers, workers + 4),
            "inter's grants at {workers} workers\n{log}"
        );
        let peak = service.pool_stats().queue_depth_peak;
        assert!(peak <= workers, "pool queue peaked at {peak} with {workers} workers");
        assert_eq!(service.report_text(bulk, false).expect("report").1, bulk_flat);
        assert_eq!(service.report_text(inter, false).expect("report").1, inter_flat);
    }
}

#[test]
fn priorities_jump_the_grant_queue_without_a_tenant_plan() {
    // The open plan sets no window, so the pool width bounds it: the
    // priority-7 job, submitted last, is granted as soon as a worker
    // frees and keeps every grant until its lane is drained.
    let gds_bytes = block_gds();
    for workers in [1usize, 2, 4] {
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(workers)
                .tile_delay(Duration::from_millis(60))
                .build(),
        );
        service.submit(spec_for("a", 0), gds_bytes.clone()).expect("a");
        service.submit(spec_for("b", 0), gds_bytes.clone()).expect("b");
        let hi = service.submit(spec_for("b", 7), gds_bytes.clone()).expect("hi");
        assert_eq!(service.wait(hi).expect("wait").state, JobState::Done);
        let log = render_grant_log(&service.grant_log());
        let granted = grant_indices(&log, hi);
        assert_eq!(granted.len(), 16, "high-priority job fully granted\n{log}");
        assert!(granted[0] <= workers, "priority lane started at grant {}\n{log}", granted[0]);
        assert_eq!(granted[15] - granted[0], 15, "priority lane was interleaved\n{log}");
    }
}
