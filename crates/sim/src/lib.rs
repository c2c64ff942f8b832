//! # dfm-sim — deterministic crash-simulation harness
//!
//! Runs the whole signoff stack — an in-process coordinator fanning
//! out to two shard servers over loopback TCP, with a shared tile
//! cache and checkpoint roots — under the `dfm_fault` injection plane,
//! and systematically kills-and-restarts process state at **every
//! registered crash site** ([`dfm_fault::crash::SITES`]).
//!
//! Each site runs as a two-life scenario:
//!
//! 1. **Life 1** — a fresh stack with the site's registered action
//!    armed on the component that owns it. The canonical 16-tile job
//!    is submitted; the injected death makes the owning operation
//!    abort exactly as if the process died at that durable instant,
//!    and the job settles deterministically through normal
//!    supervision (`Done` via survivor takeover, `Partial` via
//!    quarantine, or a refused submit). Every service is then
//!    dropped — the process state is gone; only the durable state
//!    (checkpoint roots, cache dir) survives.
//! 2. **Life 2** — a fresh, fault-free stack over the same
//!    directories. The job is resumed (or resubmitted, for deaths
//!    before the submission was durable) and must settle `Done` with
//!    a report **byte-identical** to the crash-free baseline, hashing
//!    to the pinned golden digest, leaving no orphaned `*.tmp` files.
//!
//! The harness renders a deterministic transcript: identical runs —
//! including runs at different worker counts — must print identical
//! bytes, which CI enforces by diffing `DFM_THREADS=1` against
//! `DFM_THREADS=4` output.
//!
//! On top of the crash matrix, [`run_all`] exercises the four
//! robustness flows that don't map to a single site: client reconnect
//! with gapless event resume, idempotent resubmission after an
//! ambiguous connection drop, graceful drain mid-job, and a full
//! disk-full (ENOSPC) plan across the cache and checkpoint write
//! paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfm_cache::TileCache;
use dfm_fault::{crash, FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::server::SITE_SERVER_WRITE;
use dfm_signoff::service::{JobEvent, JobEventKind, JobState, SITE_CACHE_WRITE, SITE_CKPT_WRITE};
use dfm_signoff::{Client, Server, ServiceConfig, SignoffService, JobSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Digest of the canonical job's report text — the same pin as
/// `tests/signoff_determinism.rs`. Every recovery must reproduce it.
pub const GOLDEN_REPORT_DIGEST: u64 = 0xf486_2273_eb78_3655;

/// How a sim run is parameterised.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Worker threads per service (coordinator and each shard).
    pub threads: usize,
    /// Seed for the fault plans (pure decision hashing — the same
    /// seed reproduces the same injections).
    pub seed: u64,
    /// Scratch root; every scenario gets its own subdirectory.
    pub root: PathBuf,
}

impl SimConfig {
    /// A config over `root` with the default seed and thread count.
    pub fn new(root: impl Into<PathBuf>) -> SimConfig {
        SimConfig { threads: 4, seed: 7, root: root.into() }
    }
}

/// The outcome of one crash-site scenario.
#[derive(Clone, Debug)]
pub struct SiteResult {
    /// The registered site key.
    pub site: &'static str,
    /// The registered action armed there.
    pub action: &'static str,
    /// Life 1's deterministic settle ("Done", "Partial", or
    /// "submit-refused").
    pub life1: String,
    /// Life 2's settle after recovery (must be "Done").
    pub life2: String,
    /// Whether life 2's report was byte-identical to the crash-free
    /// baseline (and therefore hashes to the golden digest).
    pub matched: bool,
    /// Whether the armed fault actually fired (a scenario whose fault
    /// never fires proves nothing).
    pub fired: bool,
    /// Orphaned `*.tmp` files found between the lives.
    pub tmp_between: usize,
    /// Orphaned `*.tmp` files left after recovery (must be 0).
    pub tmp_after: usize,
}

impl SiteResult {
    /// Whether the scenario upheld the recovery invariant.
    pub fn pass(&self) -> bool {
        self.life2 == JobState::Done.to_string()
            && self.matched
            && self.fired
            && self.tmp_after == 0
    }
}

/// The outcome of one non-matrix scenario (reconnect, idem, drain,
/// ENOSPC).
#[derive(Clone, Debug)]
pub struct ExtraResult {
    /// Scenario name.
    pub name: &'static str,
    /// Deterministic one-line detail.
    pub detail: String,
    /// Whether the scenario's assertions held.
    pub pass: bool,
}

/// Everything one sim run produced.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Digest of the crash-free baseline report.
    pub baseline_digest: u64,
    /// One result per registered crash site, in registry order.
    pub sites: Vec<SiteResult>,
    /// Non-matrix scenarios.
    pub extras: Vec<ExtraResult>,
}

impl SimReport {
    /// Whether every scenario passed and the baseline hit the pin.
    pub fn pass(&self) -> bool {
        self.baseline_digest == GOLDEN_REPORT_DIGEST
            && self.sites.len() == crash::SITES.len()
            && self.sites.iter().all(SiteResult::pass)
            && self.extras.iter().all(|e| e.pass)
    }

    /// Renders the deterministic transcript: identical runs (at any
    /// worker count) print identical bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("dfm-sim crash matrix\n");
        out.push_str(&format!(
            "baseline: digest {:#018x} golden {}\n",
            self.baseline_digest,
            self.baseline_digest == GOLDEN_REPORT_DIGEST
        ));
        for s in &self.sites {
            out.push_str(&format!(
                "site {} [{}] life1 {} life2 {} match {} fired {} tmp {}/{}\n",
                s.site, s.action, s.life1, s.life2, s.matched, s.fired, s.tmp_between, s.tmp_after
            ));
        }
        out.push_str(&format!("sites covered: {}/{}\n", self.sites.len(), crash::SITES.len()));
        for e in &self.extras {
            out.push_str(&format!("{}: {}\n", e.name, e.detail));
        }
        out.push_str(&format!("result: {}\n", if self.pass() { "PASS" } else { "FAIL" }));
        out
    }
}

/// The canonical job's layout: the pinned 6000×6000 routed block.
pub fn canonical_gds() -> Vec<u8> {
    let tech = Technology::n65();
    let params =
        generate::RoutedBlockParams { width: 6_000, height: 6_000, ..Default::default() };
    gds::to_bytes(&generate::routed_block(&tech, params, 47)).expect("serialise canonical block")
}

/// The canonical job's spec: 16 tiles, DRC + litho + CA — the job the
/// golden digest pins.
pub fn canonical_spec() -> JobSpec {
    JobSpec {
        name: "determinism".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

/// A small 4-tile job for the reconnect/idem/drain/ENOSPC scenarios,
/// where byte-identity is asserted against its own crash-free baseline
/// rather than the golden digest.
pub fn quick_gds() -> Vec<u8> {
    let tech = Technology::n65();
    let params =
        generate::RoutedBlockParams { width: 2_000, height: 2_000, ..Default::default() };
    gds::to_bytes(&generate::routed_block(&tech, params, 47)).expect("serialise quick block")
}

/// Spec for [`quick_gds`].
pub fn quick_spec() -> JobSpec {
    JobSpec {
        name: "sim-quick".to_string(),
        tile: 1_100,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

/// The crash-free baseline of the quick job: report text and event
/// stream from an uninterrupted single-process run.
pub struct QuickBaseline {
    /// Final report text.
    pub text: String,
    /// Full event stream.
    pub events: Vec<JobEvent>,
}

/// Computes [`QuickBaseline`].
///
/// # Errors
///
/// Service diagnostics.
pub fn quick_baseline(threads: usize) -> Result<QuickBaseline, String> {
    let svc = SignoffService::with_config(ServiceConfig::builder().threads(threads).build());
    let id = svc.submit(quick_spec(), quick_gds())?;
    let status = svc.wait(id)?;
    if status.state != JobState::Done {
        return Err(format!("quick baseline settled {}", status.state));
    }
    let events = svc.events(id, 0)?;
    let (_, text) = svc.report_text(id, false)?;
    Ok(QuickBaseline { text, events })
}

// ---------------------------------------------------------------------------
// Stack plumbing
// ---------------------------------------------------------------------------

/// One life of the coordinated stack: an in-process coordinator over
/// two loopback shard servers sharing a cache dir, every component on
/// its own checkpoint root under the scenario directory.
struct Stack {
    coord: SignoffService,
    shard_addrs: Vec<String>,
    coord_plane: Option<Arc<FaultPlane>>,
    shard_plane: Option<Arc<FaultPlane>>,
}

impl Stack {
    /// Boots the stack over `root` (dirs persist across lives).
    fn start(
        root: &Path,
        threads: usize,
        coord_plan: Option<FaultPlan>,
        shard_plan: Option<FaultPlan>,
    ) -> Result<Stack, String> {
        let cache = Arc::new(
            TileCache::open(root.join("cache"), None).map_err(|e| format!("open cache: {e}"))?,
        );
        let shard_plane = shard_plan.map(|p| Arc::new(FaultPlane::new(p)));
        let mut shard_addrs = Vec::new();
        for k in 0..2u64 {
            let mut cfg = ServiceConfig::builder()
                .threads(threads)
                .shard_of(k, 2)
                .ckpt_root(root.join(format!("shard-{k}")))
                .cache(Arc::clone(&cache));
            if let Some(plane) = &shard_plane {
                cfg = cfg.fault_plane(Arc::clone(plane));
            }
            let service = Arc::new(SignoffService::with_config(cfg.build()));
            let server = Server::bind(service, 0)?;
            shard_addrs.push(server.local_addr().to_string());
            std::thread::spawn(move || {
                let _ = server.serve();
            });
        }
        let coord_plane = coord_plan.map(|p| Arc::new(FaultPlane::new(p)));
        let mut cfg = ServiceConfig::builder()
            .threads(threads)
            .ckpt_root(root.join("coord"))
            .shards(shard_addrs.clone());
        if let Some(plane) = &coord_plane {
            cfg = cfg.fault_plane(Arc::clone(plane));
        }
        let coord = SignoffService::with_config(cfg.build());
        Ok(Stack { coord, shard_addrs, coord_plane, shard_plane })
    }

    /// Whether any armed fault fired anywhere in the stack.
    fn fired(&self) -> bool {
        let hits = |p: &Option<Arc<FaultPlane>>| {
            p.as_ref().is_some_and(|p| !p.injected().is_empty())
        };
        hits(&self.coord_plane) || hits(&self.shard_plane)
    }

    /// Kills the stack: shards drain (the ack means no tile of an
    /// abandoned range still writes into the next life's directories),
    /// coordinator dropped. Durable state stays on disk.
    fn stop(self) {
        for addr in &self.shard_addrs {
            if let Ok(mut client) = Client::connect(addr) {
                let _ = client.shutdown_mode(true);
            }
        }
    }
}

/// Counts `*.tmp` files anywhere under `root`.
fn count_tmp(root: &Path) -> usize {
    let mut n = 0;
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "tmp") {
                n += 1;
            }
        }
    }
    n
}

/// A fresh scenario directory under the config root.
fn scenario_dir(cfg: &SimConfig, tag: &str) -> PathBuf {
    let dir = cfg.root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// The crash matrix
// ---------------------------------------------------------------------------

/// Which component a scenario arms its fault on.
enum ArmedOn {
    /// The coordinator's fault plane, life 1.
    Coord,
    /// Both shard services' (shared) fault plane, life 1.
    Shards,
    /// The coordinator's plane in **life 2** — for recovery-path
    /// faults like an unreadable checkpoint at resume.
    RecoveryCoord,
}

/// What life 1 is expected to do.
enum Life1 {
    /// The submit itself is refused by the injected death; no job
    /// exists in life 1.
    SubmitRefused,
    /// The job settles through normal supervision (Done or Partial).
    Settles,
}

/// How life 2 recovers.
enum Life2 {
    /// Resubmit the same job (the life-1 death predates a durable,
    /// loadable submission).
    Resubmit,
    /// Resume the persisted job.
    Resume,
}

/// The scenario table: one entry per registry site. Returns an error
/// for a site the harness doesn't know — so adding a crash site to the
/// registry without teaching the sim about it fails loudly.
fn scenario_for(
    site: &'static crash::CrashSite,
) -> Result<(ArmedOn, Option<u64>, Life1, Life2), String> {
    use {ArmedOn::*, Life1::*, Life2::*};
    // Keys: tile-granular sites pin tile 5 (mid-job, lands on shard 0
    // of the canonical 16-tile partition); coordinator⇄shard sites pin
    // shard 0 so shard 1 survives as the takeover target.
    Ok(match site.site {
        "signoff.ckpt.submit.spec" => (Coord, None, SubmitRefused, Resubmit),
        "signoff.ckpt.submit.gds" => (Coord, None, SubmitRefused, Resume),
        "signoff.ckpt.tile.tmp" => (Coord, Some(5), Settles, Resume),
        "signoff.ckpt.tile.rename" => (Coord, Some(5), Settles, Resume),
        "signoff.cache.store.tmp" => (Shards, Some(5), Settles, Resume),
        "signoff.cache.store.rename" => (Shards, Some(5), Settles, Resume),
        "signoff.ckpt.read" => (RecoveryCoord, Some(5), Settles, Resume),
        "signoff.tile.compute" => (Shards, Some(5), Settles, Resume),
        "signoff.cache.write" => (Shards, None, Settles, Resume),
        "signoff.ckpt.write" => (Shards, None, Settles, Resume),
        "coord.dispatch" => (Coord, Some(0), Settles, Resume),
        "coord.pull" => (Coord, Some(0), Settles, Resume),
        "coord.ingest" => (Coord, Some(0), Settles, Resume),
        other => return Err(format!("no sim scenario for registered crash site {other}")),
    })
}

fn action_for(site: &crash::CrashSite) -> Result<FaultAction, String> {
    Ok(match site.action {
        "crash" => FaultAction::Crash,
        "panic" => FaultAction::Panic,
        "error" => FaultAction::Error,
        "drop" => FaultAction::Drop,
        "err_nospace" => FaultAction::ErrNoSpace,
        other => return Err(format!("site {} registers unknown action {other}", site.site)),
    })
}

/// Runs one crash-site scenario end to end.
///
/// # Errors
///
/// Harness diagnostics (a scenario that can't even run its lives);
/// invariant violations are reported in the [`SiteResult`], not as
/// errors.
pub fn run_site(
    cfg: &SimConfig,
    site: &'static crash::CrashSite,
    baseline_text: &str,
) -> Result<SiteResult, String> {
    let (armed, key, life1_kind, life2_kind) = scenario_for(site)?;
    let mut rule = FaultRule::new(site.site, action_for(site)?);
    if let Some(key) = key {
        rule = rule.key(key);
    }
    let plan = FaultPlan::seeded(cfg.seed).with_rule(rule);
    let root = scenario_dir(cfg, &format!("site-{}", site.site.replace('.', "-")));

    // Life 1: the armed stack.
    let (coord_plan, shard_plan, life2_plan) = match armed {
        ArmedOn::Coord => (Some(plan), None, None),
        ArmedOn::Shards => (None, Some(plan), None),
        ArmedOn::RecoveryCoord => (None, None, Some(plan)),
    };
    let stack = Stack::start(&root, cfg.threads, coord_plan, shard_plan)?;
    let (life1, job_id) = match life1_kind {
        Life1::SubmitRefused => match stack.coord.submit(canonical_spec(), canonical_gds()) {
            Ok(id) => (format!("unexpectedly admitted job {id}"), None),
            Err(_) => ("submit-refused".to_string(), None),
        },
        Life1::Settles => {
            let id = stack.coord.submit(canonical_spec(), canonical_gds())?;
            let status = stack.coord.wait(id)?;
            (status.state.to_string(), Some(id))
        }
    };
    let mut fired = stack.fired();
    stack.stop();
    let tmp_between = count_tmp(&root);

    // Life 2: a fresh stack over the surviving durable state — fault
    // free, except for recovery-path sites which arm at resume.
    let stack = Stack::start(&root, cfg.threads, life2_plan, None)?;
    let id = match life2_kind {
        Life2::Resubmit => stack.coord.submit(canonical_spec(), canonical_gds())?,
        Life2::Resume => {
            let id = job_id.unwrap_or(1);
            stack.coord.resume(id).map_err(|e| format!("resume job {id}: {e}"))?;
            id
        }
    };
    let status = stack.coord.wait(id)?;
    let life2 = status.state.to_string();
    let (_, text) = stack.coord.report_text(id, true)?;
    fired = fired || stack.fired();
    stack.stop();
    let tmp_after = count_tmp(&root);
    let _ = std::fs::remove_dir_all(&root);

    Ok(SiteResult {
        site: site.site,
        action: site.action,
        life1,
        life2,
        matched: text == baseline_text,
        fired,
        tmp_between,
        tmp_after,
    })
}

/// Runs the crash-free coordinated baseline over fresh directories and
/// returns the canonical report text.
///
/// # Errors
///
/// Harness diagnostics, or a baseline that fails to settle `Done`.
pub fn run_baseline(cfg: &SimConfig) -> Result<String, String> {
    let root = scenario_dir(cfg, "baseline");
    let stack = Stack::start(&root, cfg.threads, None, None)?;
    let id = stack.coord.submit(canonical_spec(), canonical_gds())?;
    let status = stack.coord.wait(id)?;
    if status.state != JobState::Done {
        return Err(format!("baseline settled {}", status.state));
    }
    let (_, text) = stack.coord.report_text(id, false)?;
    stack.stop();
    let _ = std::fs::remove_dir_all(&root);
    Ok(text)
}

/// Enumerates every registered crash site against one shared baseline.
///
/// # Errors
///
/// Harness diagnostics.
pub fn run_crash_matrix(cfg: &SimConfig, baseline_text: &str) -> Result<Vec<SiteResult>, String> {
    crash::SITES.iter().map(|site| run_site(cfg, site, baseline_text)).collect()
}

// ---------------------------------------------------------------------------
// Non-matrix scenarios
// ---------------------------------------------------------------------------

/// Client reconnect with gapless event resume: a server whose fault
/// plane tears every connection's fourth response frame mid-line. The
/// client follows the event stream through the tears; it must reconnect
/// transparently and deliver a gapless, duplicate-free stream
/// identical to the crash-free baseline's.
///
/// # Errors
///
/// Harness diagnostics.
pub fn run_reconnect(cfg: &SimConfig, base: &QuickBaseline) -> Result<ExtraResult, String> {
    let plan = FaultPlan::seeded(cfg.seed)
        .with_rule(FaultRule::new(SITE_SERVER_WRITE, FaultAction::Drop).attempt_exactly(3));
    let service = Arc::new(SignoffService::with_config(
        ServiceConfig::builder()
            .threads(cfg.threads)
            .fault_plane(Arc::new(FaultPlane::new(plan)))
            .build(),
    ));
    let server = Server::bind(service, 0)?;
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    let mut client = Client::connect(&addr)?;
    let id = client.submit(quick_spec(), quick_gds())?;
    let mut events = Vec::new();
    let mut cursor = 0;
    loop {
        let (delta, next) = client.events(id, cursor)?;
        events.extend(delta);
        cursor = next;
        if client.status(id)?.state.is_settled() {
            break;
        }
    }
    let (delta, _) = client.events(id, cursor)?;
    events.extend(delta);
    let _ = client.shutdown();

    let gapless = events.iter().enumerate().all(|(i, e)| e.seq == i as u64);
    let identical = events == base.events;
    let reconnected = client.reconnects() > 0;
    Ok(ExtraResult {
        name: "reconnect",
        detail: format!(
            "reconnected {reconnected} gapless {gapless} identical {identical}"
        ),
        pass: reconnected && gapless && identical,
    })
}

/// Idempotent resubmission after an ambiguous connection drop: the
/// server tears the very first response frame (the submit ack), so the
/// client cannot know whether its submit landed. Under an idempotency
/// key the client transparently resends; the server's dedupe answers
/// with the already-minted job — exactly one job exists afterwards.
///
/// # Errors
///
/// Harness diagnostics.
pub fn run_idem(cfg: &SimConfig) -> Result<ExtraResult, String> {
    let plan = FaultPlan::seeded(cfg.seed)
        .with_rule(FaultRule::new(SITE_SERVER_WRITE, FaultAction::Drop).key(0).attempt_exactly(0));
    let service = Arc::new(SignoffService::with_config(
        ServiceConfig::builder()
            .threads(cfg.threads)
            .fault_plane(Arc::new(FaultPlane::new(plan)))
            .build(),
    ));
    let server = Server::bind(service, 0)?;
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    let mut client = Client::connect(&addr)?;
    // The ack for this submit is torn mid-frame; the idempotency key
    // makes the resend safe and the dedupe collapses both to one job.
    let id = client.submit_idem(quick_spec(), quick_gds(), Some("sim-idem"))?;
    let resubmit = client.submit_idem(quick_spec(), quick_gds(), Some("sim-idem"))?;
    let status = client.wait(id)?;
    let jobs = client.list()?.len();
    let _ = client.shutdown();
    let one_job = jobs == 1 && resubmit == id;
    let reconnected = client.reconnects() == 1;
    Ok(ExtraResult {
        name: "idem",
        detail: format!(
            "jobs {jobs} deduped {one_job} reconnects-once {reconnected} state {}",
            status.state
        ),
        pass: one_job && reconnected && status.state == JobState::Done,
    })
}

/// Graceful drain mid-job: a checkpointed server is drained while the
/// quick job is in flight. The drain ack implies every computed tile
/// is durable; a restart over the same root resumes the job to a
/// report byte-identical to the crash-free baseline — no computed
/// tile is lost, and a draining service refuses new work.
///
/// # Errors
///
/// Harness diagnostics.
pub fn run_drain(cfg: &SimConfig, base: &QuickBaseline) -> Result<ExtraResult, String> {
    let root = scenario_dir(cfg, "drain");
    let service = Arc::new(SignoffService::with_config(
        ServiceConfig::builder()
            .threads(cfg.threads)
            .ckpt_root(root.join("ckpt"))
            .tile_delay(Duration::from_millis(40))
            .build(),
    ));
    let server = Server::bind(Arc::clone(&service), 0)?;
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    let mut client = Client::connect(&addr)?;
    let id = client.submit(quick_spec(), quick_gds())?;
    // Drain once the first TileDone (event 2, after Queued and Running) exists.
    client.events(id, 2)?;
    client.shutdown_mode(true)?;
    // The ack means the drain completed: in-flight tiles finished and
    // checkpointed, the pool is idle. New work must now be refused.
    let refused = service.submit(quick_spec(), quick_gds()).is_err();
    drop(service);

    // Life 2: restart over the same root; resume recomputes only the
    // tiles the drain never got to.
    let restarted = SignoffService::with_config(
        ServiceConfig::builder().threads(cfg.threads).ckpt_root(root.join("ckpt")).build(),
    );
    restarted.resume(id).map_err(|e| format!("resume after drain: {e}"))?;
    let status = restarted.wait(id)?;
    let (_, text) = restarted.report_text(id, false)?;
    let _ = std::fs::remove_dir_all(&root);
    let matched = text == base.text;
    Ok(ExtraResult {
        name: "drain",
        detail: format!(
            "refused-while-draining {refused} life2 {} match {matched}",
            status.state
        ),
        pass: refused && status.state == JobState::Done && matched,
    })
}

/// Disk-full degradation: an ENOSPC plan on **both** durable write
/// paths (cache store and tile checkpoint). Every store is refused and
/// every checkpoint degrades — and the job still settles `Done` with
/// byte-correct results, no entry corrupted, no job failed.
///
/// # Errors
///
/// Harness diagnostics.
pub fn run_enospc(cfg: &SimConfig, base: &QuickBaseline) -> Result<ExtraResult, String> {
    let root = scenario_dir(cfg, "enospc");
    let cache = Arc::new(
        TileCache::open(root.join("cache"), None).map_err(|e| format!("open cache: {e}"))?,
    );
    let plan = FaultPlan::seeded(cfg.seed)
        .with_rule(FaultRule::new(SITE_CACHE_WRITE, FaultAction::ErrNoSpace))
        .with_rule(FaultRule::new(SITE_CKPT_WRITE, FaultAction::ErrNoSpace));
    let service = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(cfg.threads)
            .ckpt_root(root.join("ckpt"))
            .cache(Arc::clone(&cache))
            .fault_plane(Arc::new(FaultPlane::new(plan)))
            .build(),
    );
    let id = service.submit(quick_spec(), quick_gds())?;
    let status = service.wait(id)?;
    let events = service.events(id, 0)?;
    let (_, text) = service.report_text(id, true)?;
    let degraded = events.iter().any(|e| matches!(e.kind, JobEventKind::CkptDegraded { .. }));
    let stored = events.iter().any(|e| matches!(e.kind, JobEventKind::TileCacheStore { .. }));
    let _ = std::fs::remove_dir_all(&root);
    let matched = text == base.text;
    Ok(ExtraResult {
        name: "enospc",
        detail: format!(
            "state {} degraded {degraded} stored {stored} match {matched}",
            status.state
        ),
        pass: status.state == JobState::Done && degraded && !stored && matched,
    })
}

/// Runs everything: baseline, the full crash matrix, and the four
/// non-matrix scenarios.
///
/// # Errors
///
/// Harness diagnostics.
pub fn run_all(cfg: &SimConfig) -> Result<SimReport, String> {
    let baseline_text = run_baseline(cfg)?;
    let baseline_digest = dfm_check::fnv1a_64(baseline_text.as_bytes());
    let sites = run_crash_matrix(cfg, &baseline_text)?;
    let quick = quick_baseline(cfg.threads)?;
    let extras = vec![
        run_reconnect(cfg, &quick)?,
        run_idem(cfg)?,
        run_drain(cfg, &quick)?,
        run_enospc(cfg, &quick)?,
    ];
    Ok(SimReport { baseline_digest, sites, extras })
}
