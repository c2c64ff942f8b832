//! The job store and scheduler: states, per-tile progress, monotonic
//! event sequences, incremental results, checkpoint/resume, and
//! supervised retry/quarantine.
//!
//! One [`SignoffService`] owns one persistent [`WorkerPool`]. A
//! submitted job decomposes into `tile_count` independent attempts;
//! each attempt computes its [`TilePartial`](crate::TilePartial) (pure), checkpoints it
//! (when a checkpoint root is configured), and hands the outcome to
//! the supervisor. A failed attempt (panic, injected fault, virtual
//! watchdog timeout) is retried up to [`ServiceConfig::max_attempts`]
//! times with deterministic virtual-clock backoff; a tile that
//! exhausts its budget is **quarantined** and the job still settles —
//! as [`JobState::Partial`] with an explicit quarantined-tile manifest
//! in the report, never a bare `Failed`.
//!
//! ## Determinism under faults
//!
//! Fault decisions are pure functions of `(plan seed, site, tile,
//! attempt)` (see `dfm-fault`), so *which* attempts fail never depends
//! on scheduling. Event emission is **committed in tile order**: each
//! tile's outcome (its retries, then its `TileDone` or
//! `TileQuarantined`) is buffered until every lower-indexed dispatched
//! tile has resolved, so the full event stream — not just the report
//! bytes — is identical at any worker count. Backoff is virtual
//! milliseconds (bookkeeping the events record), not wall time, so
//! retries cost nothing and reproduce exactly.
//!
//! ## Result cache
//!
//! When [`ServiceConfig::cache`] holds a [`TileCache`], dispatch
//! consults it **before** submitting anything to the pool: a tile whose
//! content-addressed key (see [`JobContext::cache_key`]) already maps
//! to a stored partial is committed straight from the cache — emitting
//! [`JobEventKind::TileCacheHit`] ahead of its `TileDone` — and never
//! reaches a worker. Misses compute as usual and, on a clean first
//! attempt, store their encoded partial back
//! ([`JobEventKind::TileCacheStore`]). Retried or quarantined tiles are
//! never cached, and cache reads/writes are fault-injectable
//! ([`SITE_CACHE_READ`]/[`SITE_CACHE_WRITE`]); every cache failure mode
//! degrades to a recompute, never to wrong bytes.
//!
//! ## Module map
//!
//! This module is the **lifecycle** (config, public API, admission,
//! drain, persisted-job load); `attempt` carries one tile from grant
//! to verdict; `commit` owns what a job remembers — its answer and,
//! while it can still run, the one `Run` with a slot per tile — and
//! `resolve_tile`, the single entry to the tile-ordered commit and the
//! final merge.

mod attempt;
mod commit;

pub(crate) use attempt::RunShared;
pub use attempt::{
    SITE_CACHE_READ, SITE_CACHE_STORE_RENAME, SITE_CACHE_STORE_TMP, SITE_CACHE_WRITE,
    SITE_CKPT_READ, SITE_CKPT_WRITE, SITE_TILE_COMPUTE, SITE_TILE_DELAY, TILE_DELAY_ENV,
};
pub(crate) use commit::{
    ingest_shard_outcome, quarantine_lost_tiles, set_shard_run, shard_payload, shard_run_live, Job,
};
pub use commit::{JobEvent, JobEventKind, JobState, JobStatus};

use crate::checkpoint::{list_job_dirs, JobDir};
use crate::job::JobContext;
use crate::proto::{ErrorCode, ErrorObj};
use crate::report::SignoffReport;
use crate::sched::{Grant, SchedConfig, Scheduler};
use crate::shard::{self, ShardGrant, ShardSet, ShardStats, TileOutcome};
use crate::spec::JobSpec;
use attempt::{cache_serve, dispatch_grants, sched_remove_job, TileHandle};
use commit::{status_of, try_finalize, JobMut};
use dfm_cache::TileCache;
use dfm_fault::FaultPlane;
use dfm_layout::DigestMemo;
use dfm_par::{PoolStats, WorkerPool};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The long poll of `events` and `shard.pull`: the job's lock once
/// `at_head` stops holding, the job settles (a drain settles every job),
/// or one second passes — well inside a coordinator's 10 s socket
/// timeout, so an idle shard's empty answer still proves it alive.
fn long_poll(job: &Job, at_head: impl Fn(&JobMut) -> bool) -> MutexGuard<'_, JobMut> {
    let m = job.m.lock().expect("job lock");
    let still = |m: &mut JobMut| !m.state.is_settled() && at_head(m);
    job.cv
        .wait_timeout_while(m, Duration::from_millis(1000), still)
        .expect("job wait")
        .0
}

/// Full construction-time configuration of a [`SignoffService`].
pub struct ServiceConfig {
    /// Worker-pool threads — all of the service's compute threads: tiles
    /// are the parallel unit, and an engine region a tile task enters
    /// runs inline on its worker (`dfm-par`'s one-level policy).
    pub threads: usize,
    /// Checkpoint root (None disables persistence).
    pub ckpt_root: Option<PathBuf>,
    /// Artificial per-tile delay (test/CI hook).
    pub tile_delay: Duration,
    /// Fault-injection plane; `None` (the default) makes every fault
    /// probe a no-op.
    pub fault_plane: Option<Arc<FaultPlane>>,
    /// Per-tile attempt budget: a tile failing this many times is
    /// quarantined (default 3; read clamped to at least 1). Backoff,
    /// the checkpoint-write budget and the watchdog budget are
    /// constants next to their use (`attempt`) — all virtual-clock
    /// bookkeeping, never wall time.
    pub max_attempts: u64,
    /// Content-addressed per-tile result cache; `None` (the default)
    /// disables caching entirely.
    pub cache: Option<Arc<TileCache>>,
    /// Multi-tenant scheduler + admission config. `None` (the
    /// default) is [`SchedConfig::open`]: every tenant admitted at
    /// weight 1, no quotas. A plan without `global max_inflight` —
    /// the open one included — gets a grant window of `threads`, so
    /// tiles wait in their fair-share lanes, not in the pool's queue.
    pub sched: Option<SchedConfig>,
    /// Shard role: `Some((k, n))` makes this service shard `k` of `n` —
    /// a `shard.dispatch` frame without explicit ranges runs only the
    /// deterministic partition [`crate::shard::partition_range`]`(t, n,
    /// k)` of the job. `None` (the default) still accepts shard frames
    /// but requires the coordinator to name the ranges.
    pub shard_of: Option<(u64, u64)>,
    /// Coordinator role: shard addresses (`host:port`) to fan every
    /// submitted job out to. Empty (the default) runs jobs locally.
    pub shards: Vec<String>,
}

impl ServiceConfig {
    /// Fluent construction, starting from the defaults: one worker, no
    /// checkpointing, no delay, no faults, three attempts a tile, no cache,
    /// open scheduler, no shard role.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: ServiceConfig {
                threads: 1,
                ckpt_root: None,
                tile_delay: Duration::ZERO,
                fault_plane: None,
                max_attempts: 3,
                cache: None,
                sched: None,
                shard_of: None,
                shards: Vec::new(),
            },
        }
    }
}

/// Builder for [`ServiceConfig`] — the only way to construct one (see
/// [`ServiceConfig::builder`] for the defaults).
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Worker-pool threads (all of the service's compute threads).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Checkpoint root directory (enables persistence).
    #[must_use]
    pub fn ckpt_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.cfg.ckpt_root = Some(root.into());
        self
    }

    /// Artificial per-tile delay (test/CI hook).
    #[must_use]
    pub fn tile_delay(mut self, delay: Duration) -> Self {
        self.cfg.tile_delay = delay;
        self
    }

    /// Arm a fault-injection plane.
    #[must_use]
    pub fn fault_plane(mut self, plane: Arc<FaultPlane>) -> Self {
        self.cfg.fault_plane = Some(plane);
        self
    }

    /// Per-tile attempt budget before quarantine.
    #[must_use]
    pub fn max_attempts(mut self, max_attempts: u64) -> Self {
        self.cfg.max_attempts = max_attempts;
        self
    }

    /// Arm a content-addressed tile-result cache.
    #[must_use]
    pub fn cache(mut self, cache: Arc<TileCache>) -> Self {
        self.cfg.cache = Some(cache);
        self
    }

    /// Tenant plan: fair-share weights, quotas, grant window.
    #[must_use]
    pub fn sched(mut self, sched: SchedConfig) -> Self {
        self.cfg.sched = Some(sched);
        self
    }

    /// Shard role: own partition `k` of `n` for dispatched jobs.
    #[must_use]
    pub fn shard_of(mut self, k: u64, n: u64) -> Self {
        self.cfg.shard_of = Some((k, n));
        self
    }

    /// Coordinator role: fan submitted jobs out to these shards.
    #[must_use]
    pub fn shards(mut self, addrs: Vec<String>) -> Self {
        self.cfg.shards = addrs;
        self
    }

    /// Finish the configuration.
    #[must_use]
    pub fn build(self) -> ServiceConfig {
        self.cfg
    }
}

/// The signoff job service. See the module docs.
pub struct SignoffService {
    pool: Arc<WorkerPool>,
    shared: Arc<RunShared>,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    ckpt_root: Option<PathBuf>,
    /// Next job id — atomic so two racing submissions can never mint
    /// the same id.
    next_id: AtomicU64,
    /// Shard role: this service's `(k, n)` partition assignment.
    shard_of: Option<(u64, u64)>,
    /// Coordinator role: the shard roster jobs fan out to (`None`
    /// runs jobs locally, the single-process behaviour).
    shards: Option<Arc<ShardSet>>,
    /// Shard-side idempotency map: `(coord, origin, gen)` → the grant
    /// already minted for that dispatch, so a reconnecting or restarted
    /// coordinator re-attaches instead of recomputing. The coordinator
    /// identity in the key keeps two coordinator instances that mint
    /// the same job id from ever colliding on this shard.
    origin_map: Mutex<BTreeMap<(u64, u64, u64), ShardGrant>>,
    /// Set by [`SignoffService::begin_drain`]: the service stops
    /// admitting new submissions and dispatches, parks in-flight jobs,
    /// and advertises the flag on shard pulls so coordinators hand off
    /// instead of adjudicating a loss.
    draining: AtomicBool,
    /// Client idempotency keys (`submit --idem KEY`) → the job id the
    /// key first minted. A resubmission after an ambiguous connection
    /// drop answers with the existing id instead of double-running.
    idem_map: Mutex<BTreeMap<String, u64>>,
}

impl SignoffService {
    /// Creates a service from a [`ServiceConfig`] (build one with
    /// [`ServiceConfig::builder`]). When the checkpoint root already
    /// holds job directories from an earlier process, they are loaded
    /// back in state [`JobState::Partial`] with their surviving tile
    /// set, ready for [`SignoffService::resume`].
    pub fn with_config(cfg: ServiceConfig) -> SignoffService {
        let pool = Arc::new(WorkerPool::with_fault_plane(
            cfg.threads,
            cfg.fault_plane.clone(),
        ));
        let sched_cfg = cfg.sched.unwrap_or_else(SchedConfig::open);
        // The coordinator identity on shard frames. A checkpointed
        // coordinator derives it from the checkpoint root, so a restart
        // over the same root re-attaches to its shard jobs; an
        // in-memory coordinator (which cannot restart) gets a
        // per-instance id, so its jobs can never collide with another
        // coordinator's on a shared shard.
        // Masked to 53 bits: coordinator ids ride JSON numbers, which
        // are f64 on the wire and must round-trip exactly.
        let coord_id = match &cfg.ckpt_root {
            Some(root) => crate::codec::fnv1a_64(root.to_string_lossy().as_bytes()),
            None => {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos() as u64);
                let mut seed = Vec::with_capacity(16);
                seed.extend_from_slice(&u64::from(std::process::id()).to_le_bytes());
                seed.extend_from_slice(&nanos.to_le_bytes());
                crate::codec::fnv1a_64(&seed)
            }
        } & ((1u64 << 53) - 1);
        let shared = Arc::new(RunShared {
            pool: Arc::downgrade(&pool),
            plane: cfg.fault_plane,
            max_attempts: cfg.max_attempts,
            tile_delay: cfg.tile_delay,
            cache: cfg.cache,
            memo: DigestMemo::default(),
            sched: Mutex::new(Scheduler::with_workers(sched_cfg, pool.threads() as u64)),
        });
        let service = SignoffService {
            pool,
            shared,
            jobs: Mutex::new(BTreeMap::new()),
            ckpt_root: cfg.ckpt_root,
            next_id: AtomicU64::new(1),
            shard_of: cfg.shard_of,
            shards: if cfg.shards.is_empty() {
                None
            } else {
                Some(Arc::new(ShardSet::new(cfg.shards, coord_id)))
            },
            origin_map: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            idem_map: Mutex::new(BTreeMap::new()),
        };
        service.load_persisted_jobs();
        let last = service
            .jobs
            .lock()
            .expect("jobs lock")
            .keys()
            .next_back()
            .copied();
        service
            .next_id
            .store(last.map_or(1, |id| id + 1), Ordering::SeqCst);
        service
    }

    /// The fault plane this service consults, if any.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.shared.plane.as_ref()
    }

    /// The result cache this service consults, if any.
    pub fn cache(&self) -> Option<&Arc<TileCache>> {
        self.shared.cache.as_ref()
    }

    fn load_persisted_jobs(&self) {
        let Some(root) = &self.ckpt_root else { return };
        let mut jobs = self.jobs.lock().expect("jobs lock");
        for id in list_job_dirs(root) {
            let dir = JobDir::new(root, id);
            let Ok((spec_json, gds)) = dir.load_submission() else {
                continue;
            };
            let Ok(spec) = JobSpec::from_json_text(&spec_json) else {
                continue;
            };
            // The tile set is loaded lazily at resume/results time
            // (it needs the context for the tile count); record the
            // job as Partial so it is visible and resumable.
            let m = JobMut::fresh(spec, gds, None, JobState::Partial);
            jobs.insert(id, Job::new(id, Some(dir), m));
        }
    }

    /// Worker-pool load counters (queue depth, in-flight, peaks).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Submits a job: validates the spec, parses the GDS (malformed
    /// bytes are rejected here with a diagnostic), persists the
    /// submission when checkpointing is on, and dispatches every tile.
    ///
    /// # Errors
    ///
    /// [`SignoffService::submit_job`]'s refusal, flattened to its
    /// message. Nothing is enqueued on error.
    pub fn submit(&self, spec: JobSpec, gds: Vec<u8>) -> Result<u64, String> {
        Ok(self.submit_job(spec, gds, None)?)
    }

    /// [`SignoffService::submit`] with the refusal kept structured, and
    /// an optional client idempotency key.
    ///
    /// The job is admitted against the tenant plan **before** anything
    /// is persisted or enqueued: the tenant must be known (or covered
    /// by a wildcard policy), its `max_jobs`/`max_tiles` quotas must
    /// have room for this job's tile count, and the global
    /// `max_pending_tiles` ceiling must hold. Admitted cache-miss
    /// tiles then flow through the fair-share grant loop rather than
    /// straight into the pool.
    ///
    /// The first submission under an `idem` key mints a job and records
    /// the mapping; every later submission under the same key answers
    /// with the recorded id without touching admission control — the
    /// dedupe a client needs after an ambiguous connection drop ("did
    /// my submit land?"). The map is held locked across the submit so
    /// two racing resubmissions of the same key mint exactly one job. A
    /// submission that fails is not recorded; the key stays free for
    /// the retry.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`] for spec/GDS diagnostics (and a
    /// submission that cannot be persisted), or an admission refusal
    /// ([`ErrorCode::is_admission_refusal`]) with its retry hint.
    /// Nothing is enqueued on error.
    pub fn submit_job(
        &self,
        spec: JobSpec,
        gds: Vec<u8>,
        idem: Option<&str>,
    ) -> Result<u64, ErrorObj> {
        let mut idem = idem.map(|key| (key, self.idem_map.lock().expect("idem lock")));
        if let Some(&id) = idem.as_ref().and_then(|(key, map)| map.get(*key)) {
            return Ok(id);
        }
        let bad_request = |e| ErrorObj::coded(ErrorCode::BadRequest, e);
        let ctx = Arc::new(JobContext::build(&spec, &gds).map_err(bad_request)?);
        let job = self.mint_job(spec, gds, &ctx, ctx.tile_count(), false)?;
        self.dispatch(&job, &ctx, (0..ctx.tile_count()).collect());
        if let Some((key, map)) = &mut idem {
            map.insert(key.to_string(), job.id);
        }
        Ok(job.id)
    }

    /// Mints a job id, admits `tiles` tiles of it against the tenant
    /// plan, persists the submission when checkpointing is on, and
    /// registers the job as `Queued` (a `shard_job` with an outcome
    /// log) — the caller dispatches. A failed persist releases the
    /// admission reservation: the job never existed for quota purposes.
    /// It is answered with the code the caller gives its other
    /// diagnostics: `bad_request` to `submit`, `error` to
    /// `shard.dispatch`.
    fn mint_job(
        &self,
        spec: JobSpec,
        gds: Vec<u8>,
        ctx: &Arc<JobContext>,
        tiles: usize,
        shard_job: bool,
    ) -> Result<Arc<Job>, ErrorObj> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.admit(id, &spec.tenant, spec.priority, tiles)?;
        let dir = self.ckpt_root.as_ref().map(|root| JobDir::new(root, id));
        if let Some(dir) = &dir {
            let plane = self.shared.plane.as_deref();
            if let Err(e) = dir.persist_submission_probed(&spec.to_json().render(), &gds, plane, id)
            {
                sched_remove_job(&self.shared, id);
                let code = if shard_job {
                    ErrorCode::Error
                } else {
                    ErrorCode::BadRequest
                };
                return Err(ErrorObj::coded(code, e));
            }
        }
        let mut m = JobMut::fresh(spec, gds, Some(Arc::clone(ctx)), JobState::Queued);
        if shard_job {
            m.outcomes = Some(Vec::new());
        }
        let job = Job::new(id, dir, m);
        self.jobs
            .lock()
            .expect("jobs lock")
            .insert(id, Arc::clone(&job));
        Ok(job)
    }

    /// Admission of new work — `submit`, `resume` and `shard.dispatch`
    /// alike, and the only source of the four admission codes. A
    /// draining service refuses all of it with [`ErrorCode::Draining`];
    /// otherwise the tenant plan decides.
    fn admit(&self, id: u64, tenant: &str, priority: u8, tiles: usize) -> Result<(), ErrorObj> {
        if self.draining() {
            let message = "service is draining; no new work is admitted";
            return Err(ErrorObj::coded(ErrorCode::Draining, message));
        }
        self.shared
            .sched()
            .admit(id, tenant, priority, tiles as u64)
    }

    /// Whether [`SignoffService::begin_drain`] has run.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain (`shutdown --drain`): stop admitting new work,
    /// then park every unsettled job — in-flight tiles finish and
    /// checkpoint (the cancel token skips only tiles still queued),
    /// the job settles `Cancelled`, and the pool runs idle. Every
    /// computed tile is durable, so a restart over the same checkpoint
    /// root resumes to a byte-identical report. Shard pulls observe
    /// the flag ([`SignoffService::shard_outcomes`]) so a coordinator
    /// treats this shard as a planned handoff rather than a loss.
    /// Returns the number of jobs parked.
    pub fn begin_drain(&self) -> usize {
        self.draining.store(true, Ordering::SeqCst);
        let jobs: Vec<Arc<Job>> = self
            .jobs
            .lock()
            .expect("jobs lock")
            .values()
            .cloned()
            .collect();
        let mut parked = 0;
        for job in jobs {
            {
                let mut m = job.m.lock().expect("job lock");
                if m.state.is_settled() {
                    continue;
                }
                m.cancel_queued();
                m.set_state(JobState::Cancelled);
            }
            sched_remove_job(&self.shared, job.id);
            job.cv.notify_all();
            parked += 1;
        }
        // Wait for in-flight tiles to finish computing and checkpoint;
        // after this the durable state is complete and the process can
        // exit.
        self.pool.wait_idle();
        parked
    }

    /// Dispatches the given tiles, moving the job to Running (or
    /// straight to the merge when nothing is missing) — see
    /// [`JobMut::begin`] for what a dispatch resets.
    fn dispatch(&self, job: &Arc<Job>, ctx: &Arc<JobContext>, mut tiles: Vec<usize>) {
        tiles.sort_unstable();
        let Some(token) = job.m.lock().expect("job lock").begin(&tiles) else {
            sched_remove_job(&self.shared, job.id); // nothing to run: release the admission
            return;
        };
        job.cv.notify_all();
        if tiles.is_empty() {
            try_finalize(&self.shared, job, ctx); // nothing missing: merge now
            return;
        }
        // A coordinating service never computes locally: the tiles fan
        // out across the shard roster, and puller threads feed the same
        // commit machinery shard outcomes instead of pool results. The
        // coordinator's own cache is bypassed — cache events replay
        // from the shards' outcome marks, so cold/warm event streams
        // match a single process at the shards' cache temperature.
        if let Some(set) = &self.shards {
            shard::dispatch_to_shards(&self.shared, set, job, ctx, &tiles);
            return;
        }
        // Consult the result cache before the pool sees anything: a hit
        // commits straight from the store (in ascending order, so the
        // commit queue drains as we go) and only the misses reach the
        // scheduler. A fully warm job computes zero tiles, leaves no
        // trace in the grant log, and was finalized by its last hit.
        let misses: Vec<usize> = tiles
            .iter()
            .copied()
            .filter(|&tile| !cache_serve(&self.shared, job, ctx, tile))
            .collect();
        if misses.is_empty() {
            return;
        }
        // Queue the misses under the job's fair-share lanes. Whatever
        // fits the in-flight window is granted now; the rest is granted
        // as earlier tiles resolve. The job lock is NOT held here.
        let handle = TileHandle {
            job: Arc::clone(job),
            ctx: Arc::clone(ctx),
            token,
        };
        let grants = self.shared.sched().enqueue(job.id, handle, misses);
        dispatch_grants(&self.shared, grants);
    }

    /// The one lookup every id-taking call goes through, and so the
    /// one place an unknown id becomes [`ErrorCode::NotFound`].
    fn job(&self, id: u64) -> Result<Arc<Job>, ErrorObj> {
        let job = self.jobs.lock().expect("jobs lock").get(&id).cloned();
        job.ok_or_else(|| ErrorObj::coded(ErrorCode::NotFound, format!("no such job: {id}")))
    }

    /// A job's current status.
    ///
    /// # Errors
    ///
    /// Unknown job id ([`ErrorCode::NotFound`], as for every call
    /// below that takes one).
    pub fn status(&self, id: u64) -> Result<JobStatus, ErrorObj> {
        Ok(self.job(id)?.status())
    }

    /// The scheduler's grant log so far: one entry per tile granted to
    /// the pool, in issue order. With a fixed submission order the log
    /// is a function of the grant window, so under a plan's explicit
    /// `global max_inflight` it is byte-identical (via
    /// [`crate::sched::render_grant_log`]) across worker counts; the
    /// default window is the worker count, and then only the order
    /// across jobs moves with it — reports and event streams are
    /// identical at every worker count either way. Cache hits never
    /// appear here.
    pub fn grant_log(&self) -> Vec<Grant> {
        self.shared.sched().grant_log().to_vec()
    }

    /// Statuses of every job, by id.
    pub fn list(&self) -> Vec<JobStatus> {
        let jobs: Vec<Arc<Job>> = self
            .jobs
            .lock()
            .expect("jobs lock")
            .values()
            .cloned()
            .collect();
        jobs.iter().map(|j| j.status()).collect()
    }

    /// The job's events with `seq >= since` — the delta-stream a client
    /// follows. At the head of an unsettled job it waits for the next
    /// event, the settle, or a one-second deadline (then it is empty).
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn events(&self, id: u64, since: u64) -> Result<Vec<JobEvent>, ErrorObj> {
        let job = self.job(id)?;
        let m = long_poll(&job, |m| m.events.len() as u64 <= since);
        let start = (since as usize).min(m.events.len());
        Ok(m.events[start..].to_vec())
    }

    /// The job's merged report.
    ///
    /// For a Done job this is the cached final report; for a settled
    /// Partial job it is the merge of the surviving tiles plus the
    /// quarantine manifest. With `partial = true` a non-settled job
    /// answers with the ordered merge of its **contiguous completed
    /// prefix** `[0..k)` — an exact signoff of the region covered so
    /// far.
    ///
    /// # Errors
    ///
    /// Unknown id, failed job, or (without `partial`) a job that has
    /// not finished.
    pub fn results(&self, id: u64, partial: bool) -> Result<(JobStatus, SignoffReport), ErrorObj> {
        let job = self.job(id)?;
        self.ensure_loaded(&job)?;
        let m = job.m.lock().expect("job lock");
        if let Some(report) = &m.report {
            let status = status_of(&job, &m);
            return Ok((status, report.clone()));
        }
        if let Some(err) = &m.error {
            return Err(format!("job {id} failed: {err}").into());
        }
        if !partial {
            let state = m.state;
            return Err(
                format!("job {id} is {state}; pass partial=true for a prefix merge").into(),
            );
        }
        let report = m.ctx()?.merge(&m.prefix())?;
        let status = status_of(&job, &m);
        drop(m);
        Ok((status, report))
    }

    /// Like [`SignoffService::results`], but rendered to the canonical
    /// report text with the job's own spec — the form that travels
    /// over the wire and is byte-compared in tests.
    ///
    /// # Errors
    ///
    /// Same as [`SignoffService::results`].
    pub fn results_text(&self, id: u64, partial: bool) -> Result<(JobStatus, String), ErrorObj> {
        let (status, report) = self.results(id, partial)?;
        let job = self.job(id)?;
        let spec = job.m.lock().expect("job lock").spec.clone();
        Ok((status, report.render_text(&spec)))
    }

    /// [`SignoffService::results_text`], flattened to the message.
    ///
    /// # Errors
    ///
    /// Same as [`SignoffService::results`].
    pub fn report_text(&self, id: u64, partial: bool) -> Result<(JobStatus, String), String> {
        Ok(self.results_text(id, partial)?)
    }

    /// The job's manufacturability score as its deterministic JSON
    /// line, with the status alongside (for tile/cache counters and
    /// the partial verdict).
    ///
    /// # Errors
    ///
    /// Unknown id, a job that has not settled with a report yet, or a
    /// job whose spec does not enable scoring.
    pub fn score_json(&self, id: u64) -> Result<(JobStatus, String), ErrorObj> {
        let job = self.job(id)?;
        let m = job.m.lock().expect("job lock");
        if let Some(score) = &m.score {
            return Ok((status_of(&job, &m), score.render()));
        }
        let why = if let Some(err) = &m.error {
            format!("job {id} failed: {err}")
        } else if m.report.is_some() || m.state.is_terminal() {
            format!("job {id} was submitted without scoring (no `score` in spec)")
        } else {
            format!(
                "job {id} is {}; the score is computed when the job settles",
                m.state
            )
        };
        Err(why.into())
    }

    /// Cancels a running/queued job. Completed tiles are kept (and
    /// remain checkpointed) so the job can be resumed.
    ///
    /// # Errors
    ///
    /// Unknown id or a Done/Failed job.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, ErrorObj> {
        let job = self.job(id)?;
        {
            let mut m = job.m.lock().expect("job lock");
            match m.state {
                JobState::Done | JobState::Failed => {
                    return Err(format!("job {id} is already {}", m.state).into())
                }
                JobState::Cancelled => {}
                _ => {
                    m.cancel_queued();
                    m.set_state(JobState::Cancelled);
                }
            }
        }
        // Release every scheduler reservation the job still held —
        // queued tiles, in-flight slots, and its active-job count —
        // after the job lock is dropped (lock order: job before sched),
        // and only then wake waiters, so an observed Cancelled state
        // implies the quota is already free.
        sched_remove_job(&self.shared, id);
        job.cv.notify_all();
        Ok(job.status())
    }

    /// Resumes a Partial or Cancelled job: re-reads any checkpointed
    /// tiles, mints a fresh cancel token, and dispatches exactly the
    /// missing tiles — including quarantined ones, which get a fresh
    /// attempt budget. The eventual report is bit-identical to an
    /// uninterrupted run (given the tiles now succeed).
    ///
    /// # Errors
    ///
    /// Unknown id, a job in a non-resumable state, context-rebuild
    /// diagnostics, or an admission refusal — a resumed job re-enters
    /// admission control like a new one.
    pub fn resume(&self, id: u64) -> Result<JobStatus, ErrorObj> {
        let job = self.job(id)?;
        self.ensure_loaded(&job)?;
        let (ctx, missing, tenant, priority) = {
            let mut m = job.m.lock().expect("job lock");
            match m.state {
                JobState::Partial | JobState::Cancelled => {}
                s => {
                    let msg = format!("job {id} is {s}; only partial/cancelled jobs resume");
                    return Err(msg.into());
                }
            }
            let ctx = m.ctx()?;
            let missing = m.rearm(ctx.tile_count());
            (ctx, missing, m.spec.tenant.clone(), m.spec.priority)
        };
        // A resumed job re-enters admission control: the settle (or
        // cancel) released its reservations, so it competes for quota
        // again — with only the missing tiles counted against it.
        self.admit(id, &tenant, priority, missing.len())?;
        self.dispatch(&job, &ctx, missing);
        Ok(job.status())
    }

    /// Blocks until the job settles (Done, Partial-settled, Failed, or
    /// Cancelled), then returns its status.
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn wait(&self, id: u64) -> Result<JobStatus, String> {
        let job = self.job(id)?;
        let m = job.m.lock().expect("job lock");
        let m = job
            .cv
            .wait_while(m, |m| !m.state.is_settled())
            .expect("job wait");
        Ok(status_of(&job, &m))
    }

    /// Rebuilds the job context and reloads checkpointed tiles for a
    /// job that was constructed from disk (ctx == None). A tile whose
    /// checkpoint read faults (injected) is skipped — it is simply
    /// recomputed on resume.
    fn ensure_loaded(&self, job: &Arc<Job>) -> Result<(), String> {
        let mut m = job.m.lock().expect("job lock");
        // A finished job answers from its report; one already loaded
        // has nothing to rebuild.
        let Some(run) = m.run.as_ref().filter(|run| run.ctx.is_none()) else {
            return Ok(());
        };
        let ctx = Arc::new(JobContext::build(&m.spec, &run.gds)?);
        let mut tiles = Vec::new();
        if let Some(dir) = &job.dir {
            // A crash between tmp-write and rename leaves orphaned
            // `*.tmp` files; sweep them before reading so a
            // crash-littered directory resumes identically to a clean
            // one.
            dir.sweep_tmp();
            tiles = dir.load_tiles(ctx.tile_count());
            tiles.retain(|p| !self.shared.io_fault(SITE_CKPT_READ, p.tile as u64, 0));
        }
        m.load(ctx, tiles);
        Ok(())
    }

    /// Shard-side entry point for a coordinator's `shard.dispatch`
    /// frame: runs tile range(s) of the job as a local shard job whose
    /// per-tile outcomes are recorded for [`SignoffService::shard_outcomes`]
    /// to stream back.
    ///
    /// `(coord, origin, gen)` — the coordinator's identity, its job
    /// id, and the dispatch generation — is the idempotency key: a
    /// re-dispatch of a known key (coordinator restart, reconnect)
    /// answers with the existing grant (`attached = true`) instead of
    /// recomputing. With `ranges = None` the service must have been
    /// configured as shard `k` of `n` ([`ServiceConfig::shard_of`])
    /// and runs its deterministic partition; a coordinator always
    /// names ranges explicitly.
    ///
    /// Admission runs against this service's scheduler with the
    /// *dispatched* tile count. Shards are expected to run the open
    /// scheduler and trust the coordinator's grants — admission control
    /// for the whole job already happened at the coordinator.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Error`] for spec/GDS diagnostics, malformed ranges
    /// and a missing `shard_of` assignment when `ranges` is `None`; an
    /// admission refusal when this service is draining or its
    /// admission control refuses.
    pub fn shard_dispatch(
        &self,
        coord: u64,
        origin: u64,
        gen: u64,
        spec: JobSpec,
        gds: Vec<u8>,
        ranges: Option<Vec<(usize, usize)>>,
    ) -> Result<ShardGrant, ErrorObj> {
        let ctx = Arc::new(JobContext::build(&spec, &gds)?);
        let total = ctx.tile_count();
        let ranges = match ranges {
            Some(r) => r,
            None => {
                let (k, n) = self.shard_of.ok_or_else(|| {
                    "shard.dispatch without ranges requires a server started with --shard-of K/N"
                        .to_string()
                })?;
                vec![shard::partition_range(total, n, k)]
            }
        };
        let tiles = shard::expand_ranges(&ranges, total)?;
        // The idempotency map stays locked across job creation so two
        // racing dispatches of the same (coord, origin, gen) mint one
        // job.
        let mut map = self.origin_map.lock().expect("origin map lock");
        if let Some(grant) = map.get(&(coord, origin, gen)) {
            return Ok(ShardGrant {
                attached: true,
                ..grant.clone()
            });
        }
        let job = self.mint_job(spec, gds, &ctx, tiles.len(), true)?;
        let grant = ShardGrant {
            job: job.id,
            total,
            ranges,
            attached: false,
        };
        map.insert((coord, origin, gen), grant.clone());
        drop(map);
        self.dispatch(&job, &ctx, tiles);
        Ok(grant)
    }

    /// Shard-side entry point for `shard.attach`: answers the grant a
    /// prior [`SignoffService::shard_dispatch`] minted for `(coord,
    /// origin, gen)` — how a restarted (or reconnecting) coordinator
    /// finds its shard jobs and replays their outcome logs without
    /// recomputing.
    ///
    /// # Errors
    ///
    /// An unknown `(coord, origin, gen)` ([`ErrorCode::NotFound`]: the
    /// caller falls back to a full dispatch).
    pub fn shard_attach(&self, coord: u64, origin: u64, gen: u64) -> Result<ShardGrant, ErrorObj> {
        let map = self.origin_map.lock().expect("origin map lock");
        match map.get(&(coord, origin, gen)) {
            Some(grant) => Ok(ShardGrant { attached: true, ..grant.clone() }),
            None => Err(ErrorObj::coded(
                ErrorCode::NotFound,
                format!("no such job: coordinator {coord:#x} origin {origin} gen {gen} is not dispatched here"),
            )),
        }
    }

    /// The monotonic outcome log of a shard job from entry `since` on,
    /// with the next cursor, whether the job has settled, and whether
    /// this service is draining — the stream a coordinator pulls
    /// (`shard.pull`), waiting at the head like [`SignoffService::events`].
    /// A settled shard job with no further outcomes is the puller's
    /// signal that nothing more will ever arrive; a raised drain flag
    /// tells the coordinator the settle was a planned handoff, not a
    /// failure.
    ///
    /// # Errors
    ///
    /// Unknown id, or a job that was not dispatched via
    /// [`SignoffService::shard_dispatch`].
    pub fn shard_outcomes(
        &self,
        id: u64,
        since: u64,
    ) -> Result<(Vec<TileOutcome>, u64, bool, bool), ErrorObj> {
        let job = self.job(id)?;
        let m = long_poll(&job, |m| {
            m.outcomes.as_ref().is_some_and(|o| o.len() as u64 <= since)
        });
        let Some(outcomes) = &m.outcomes else {
            return Err(format!("job {id} is not a shard-dispatched job").into());
        };
        let start = (since as usize).min(outcomes.len());
        Ok((
            outcomes[start..].to_vec(),
            outcomes.len() as u64,
            m.state.is_settled(),
            self.draining(),
        ))
    }

    /// Coordinator counters (`None` on a non-coordinating service):
    /// shard-roster size, tiles re-dispatched after shard losses, and
    /// tiles handed off from draining shards.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        self.shards.as_ref().map(|s| ShardStats {
            shards: s.addrs.len(),
            tiles_redispatched: s.redispatched.load(Ordering::SeqCst),
            tiles_drained: s.drained.load(Ordering::SeqCst),
        })
    }
}

impl Drop for SignoffService {
    fn drop(&mut self) {
        // Cancel every job so queued tasks are skipped at dequeue, and
        // release each from the scheduler so a tile that finishes
        // during teardown pumps no fresh grant; then wait the pool idle:
        // no worker may still hold an upgraded Arc to the pool (for a
        // retry resubmission) when we drop ours — the pool must be torn
        // down from this thread, never from one of its own workers.
        let jobs: Vec<Arc<Job>> = self
            .jobs
            .lock()
            .expect("jobs lock")
            .values()
            .cloned()
            .collect();
        for job in &jobs {
            job.m.lock().expect("job lock").cancel_queued();
        }
        for job in &jobs {
            sched_remove_job(&self.shared, job.id);
        }
        self.pool.wait_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TilePartial;
    use crate::report::flat_report;
    use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
    use dfm_layout::{gds, generate, layers, Technology};

    fn small_gds(seed: u64) -> Vec<u8> {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 6_000,
            height: 6_000,
            ..Default::default()
        };
        gds::to_bytes(&generate::routed_block(&tech, params, seed)).expect("gds")
    }

    fn spec() -> JobSpec {
        JobSpec {
            tile: 1700,
            halo: 64,
            litho_layer: Some(layers::METAL1),
            ..JobSpec::default()
        }
    }

    fn service(threads: usize) -> SignoffService {
        SignoffService::with_config(ServiceConfig::builder().threads(threads).build())
    }

    fn faulty_service(threads: usize, plan: FaultPlan) -> SignoffService {
        SignoffService::with_config(
            ServiceConfig::builder()
                .threads(threads)
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        )
    }

    #[test]
    fn submitted_job_finishes_with_flat_bytes_at_several_worker_counts() {
        let gds = small_gds(31);
        let spec = spec();
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        for threads in [1usize, 2, 8] {
            let service = service(threads);
            let id = service.submit(spec.clone(), gds.clone()).expect("submit");
            let status = service.wait(id).expect("wait");
            assert_eq!(
                status.state,
                JobState::Done,
                "threads={threads}: {:?}",
                status.error
            );
            assert_eq!(status.tiles_done, status.tiles_total);
            let (_, report) = service.results(id, false).expect("results");
            assert_eq!(report.render_text(&spec), flat, "threads={threads}");
        }
    }

    #[test]
    fn events_are_gapless_and_monotonic() {
        let service = service(4);
        let id = service.submit(spec(), small_gds(32)).expect("submit");
        service.wait(id).expect("wait");
        let events = service.events(id, 0).expect("events");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "gapless sequence");
        }
        assert!(matches!(
            events.first().map(|e| &e.kind),
            Some(JobEventKind::State(JobState::Queued))
        ));
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(JobEventKind::State(JobState::Done))
        ));
        // Delta poll: everything from the midpoint on, nothing more.
        let mid = events.len() as u64 / 2;
        let tail = service.events(id, mid).expect("tail");
        assert_eq!(tail, events[mid as usize..]);
    }

    #[test]
    fn bad_submissions_are_rejected_with_diagnostics() {
        let service = service(1);
        let err = service
            .submit(spec(), b"garbage".to_vec())
            .expect_err("bad gds");
        assert!(err.contains("layout rejected"), "{err}");
        let err = service
            .submit(
                JobSpec {
                    tech: "n3".into(),
                    ..spec()
                },
                small_gds(33),
            )
            .expect_err("bad tech");
        assert!(err.contains("unknown technology"), "{err}");
        assert!(service.status(99).is_err());
    }

    #[test]
    fn cancel_keeps_partials_and_resume_completes_identically() {
        let gds = small_gds(34);
        let spec = spec();
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .tile_delay(Duration::from_millis(30))
                .build(),
        );
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.cancel(id).expect("cancel");
        assert_eq!(status.state, JobState::Cancelled);
        assert!(
            status.tiles_done < status.tiles_total,
            "cancel landed mid-run"
        );
        assert!(
            service.results(id, false).is_err(),
            "no final results while cancelled"
        );
        let status = service.resume(id).expect("resume");
        assert_eq!(status.state, JobState::Running);
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
    }

    #[test]
    fn drain_with_a_lane_backlog_computes_only_the_tiles_in_flight() {
        // 100 tiles on 2 workers: the grant window is 2, so when the
        // drain lands nearly all of the job still waits in its lane.
        let gds = small_gds(36);
        let spec = JobSpec {
            tile: 600,
            halo: 256,
            ..spec()
        };
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        let root =
            std::env::temp_dir().join(format!("dfm-signoff-drain-backlog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = || ServiceConfig::builder().threads(2).ckpt_root(&root);
        let slow =
            SignoffService::with_config(config().tile_delay(Duration::from_millis(20)).build());
        let id = slow.submit(spec.clone(), gds).expect("submit");
        let mut status = slow.status(id).expect("status");
        assert_eq!(status.tiles_total, 100);
        while status.tiles_done < 10 {
            slow.events(id, status.next_seq).expect("events");
            status = slow.status(id).expect("status");
        }
        let granted = slow.grant_log().len();
        assert_eq!(slow.begin_drain(), 1);
        // Only a tile that resolved between the read and the drain can
        // have granted one more; the drain released the lane, so
        // nothing is granted after it and no backlog reached the pool.
        let pool = slow.pool_stats();
        assert!(
            slow.grant_log().len() <= granted + 2,
            "granted past the drain"
        );
        assert!(
            pool.queue_depth_peak <= 2,
            "pool queue peaked at {}",
            pool.queue_depth_peak
        );
        assert!(
            pool.completed as usize <= granted + 2,
            "{} tiles ran",
            pool.completed
        );
        assert!(
            pool.skipped <= 2,
            "{} queued tiles were discarded",
            pool.skipped
        );
        let durable = JobDir::new(&root, id).load_tiles(100).len();
        assert!((10..100).contains(&durable), "{durable} tiles checkpointed");
        drop(slow);
        // Resume over the same root: exactly the missing tiles compute,
        // and the report is the flat one.
        let fresh = SignoffService::with_config(config().build());
        fresh.resume(id).expect("resume");
        let status = fresh.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(fresh.grant_log().len(), 100 - durable);
        assert_eq!(fresh.report_text(id, false).expect("report").1, flat);
        drop(fresh);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_results_cover_the_completed_prefix() {
        let service = service(2);
        let id = service.submit(spec(), small_gds(35)).expect("submit");
        service.wait(id).expect("wait");
        // Done job: partial=true must agree with the final report.
        let (_, full) = service.results(id, false).expect("full");
        let (_, partial) = service.results(id, true).expect("partial");
        assert_eq!(full, partial);
    }

    #[test]
    fn retries_below_threshold_finish_done_with_clean_bytes() {
        let gds = small_gds(36);
        let spec = spec();
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        // Tile 1 panics on its first two attempts; budget is 3, so the
        // third succeeds and the job must be byte-identical to clean.
        let plan = FaultPlan::seeded(5).with_rule(
            FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic)
                .key(1)
                .first_attempts(2),
        );
        let service = faulty_service(4, plan);
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_quarantined, 0);
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        let events = service.events(id, 0).expect("events");
        let retries: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                JobEventKind::TileRetry {
                    tile: 1, attempt, ..
                } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(
            retries,
            vec![0, 1],
            "both failed attempts recorded in order"
        );
        assert!(
            events
                .iter()
                .all(|e| !matches!(e.kind, JobEventKind::TileQuarantined { .. })),
            "nothing quarantined below threshold"
        );
    }

    #[test]
    fn quarantine_above_threshold_settles_partial_with_manifest() {
        let gds = small_gds(37);
        let spec = spec();
        // Tile 0 panics on every attempt: quarantined after the full
        // budget; job settles Partial, never Failed.
        let plan = FaultPlan::seeded(9)
            .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).key(0));
        let service = faulty_service(2, plan);
        let id = service.submit(spec.clone(), gds.clone()).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Partial, "{:?}", status.error);
        assert_eq!(status.tiles_quarantined, 1);
        assert!(status.error.is_none(), "quarantine is not a failure");
        let (_, report) = service
            .results(id, false)
            .expect("settled partial has results");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].tile, 0);
        assert_eq!(
            report.quarantined[0].attempts,
            ServiceConfig::builder().build().max_attempts
        );
        // The report equals the offline merge of the surviving tiles.
        let ctx = JobContext::build(&spec, &gds).expect("ctx");
        let surviving: Vec<TilePartial> =
            (1..ctx.tile_count()).map(|t| ctx.compute_tile(t)).collect();
        let mut expect = ctx.merge(&surviving).expect("merge");
        expect.quarantined = report.quarantined.clone();
        assert_eq!(report, expect);
        let text = report.render_text(&spec);
        assert!(text.contains("quarantine: 1 tiles excluded"), "{text}");
        // Resume retries the quarantined tile; faults still fire, so it
        // settles Partial again with the same manifest.
        service.resume(id).expect("resume");
        let status = service.wait(id).expect("wait again");
        assert_eq!(status.state, JobState::Partial);
        assert_eq!(status.tiles_quarantined, 1);
    }

    #[test]
    fn verdicts_for_an_already_quarantined_tile_are_ignored() {
        use crate::shard::{TileCacheMark, TileOutcomeKind, TileRetry};
        use commit::{resolve_tile, TileResolution};
        // `resolve_tile` is the only way in, so its guard is the only
        // guard: once tile 0 is quarantined, a late local success and a
        // duplicate shard outcome for it are both dropped.
        let (gds, spec) = (small_gds(37), spec());
        let service = service(1);
        let ctx = Arc::new(JobContext::build(&spec, &gds).expect("ctx"));
        let tiles: Vec<usize> = (0..ctx.tile_count()).collect();
        let mut m = JobMut::fresh(spec, gds, Some(Arc::clone(&ctx)), JobState::Queued);
        m.begin(&tiles).expect("run");
        let job = Job::new(77, None, m);
        let verdict = TileResolution::Quarantined {
            attempts: 3,
            reason: "boom".to_string(),
        };
        resolve_tile(&service.shared, &job, &ctx, 0, Vec::new(), verdict);
        let snapshot = || {
            let events = job.m.lock().expect("job lock").events.clone();
            (events, job.status())
        };
        let quarantined = snapshot();
        assert!(matches!(
            quarantined.0.last().map(|e| &e.kind),
            Some(JobEventKind::TileQuarantined {
                tile: 0,
                attempts: 3,
                ..
            })
        ));

        let partial = ctx.compute_tile(0);
        let data = crate::checkpoint::encode_tile_partial(&partial);
        let late = TileResolution::Done {
            partial,
            ckpt_degraded: false,
            cache: TileCacheMark::None,
        };
        resolve_tile(&service.shared, &job, &ctx, 0, Vec::new(), late);
        let duplicate = TileOutcome {
            tile: 0,
            retries: vec![TileRetry {
                attempt: 0,
                backoff_vms: 8,
                reason: "r".to_string(),
            }],
            kind: TileOutcomeKind::Done {
                data,
                ckpt_degraded: false,
                cache: TileCacheMark::Hit,
            },
        };
        ingest_shard_outcome(&service.shared, &job, &ctx, &duplicate);
        assert_eq!(
            snapshot(),
            quarantined,
            "a quarantined tile takes no further verdict"
        );
        // Nor was either verdict parked behind the manifest entry: with
        // every other tile in, the job settles without tile 0.
        for &tile in &tiles[1..] {
            let partial = ctx.compute_tile(tile);
            let done = TileResolution::Done {
                partial,
                ckpt_degraded: false,
                cache: TileCacheMark::None,
            };
            resolve_tile(&service.shared, &job, &ctx, tile, Vec::new(), done);
        }
        let status = job.status();
        assert_eq!(status.state, JobState::Partial, "{:?}", status.error);
        assert_eq!(
            (status.tiles_done, status.tiles_quarantined),
            (tiles.len() - 1, 1)
        );
        let m = job.m.lock().expect("job lock");
        let manifest = &m
            .report
            .as_ref()
            .expect("settled partial has a report")
            .quarantined;
        assert_eq!(manifest.len(), 1);
        assert_eq!(
            (
                manifest[0].tile,
                manifest[0].attempts,
                manifest[0].reason.as_str()
            ),
            (0, 3, "boom")
        );
    }

    #[test]
    fn a_job_keeps_its_run_exactly_while_it_can_still_run() {
        let gds = small_gds(45);
        let spec = JobSpec {
            score: Some("default".to_string()),
            ..spec()
        };
        let lib = gds::from_bytes(&gds).expect("lib");
        let flat = flat_report(&spec, &lib).expect("flat").render_text(&spec);
        let (_, flat_score) = crate::scoring::flat_score(&spec, &lib).expect("flat score");
        let holds_run = |service: &SignoffService, id| {
            service
                .job(id)
                .expect("job")
                .m
                .lock()
                .expect("job lock")
                .run
                .is_some()
        };

        // Done: the run is gone, and every question about the job is
        // answered from what is left, as it always was.
        let service = service(2);
        let id = service.submit(spec.clone(), gds.clone()).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert!(
            !holds_run(&service, id),
            "a Done job holds no GDS, context or partials"
        );
        assert_eq!(service.status(id).expect("status"), status);
        assert_eq!(
            (status.tiles_done, status.tiles_quarantined),
            (status.tiles_total, 0)
        );
        let events = service.events(id, 0).expect("events");
        assert_eq!(events.len() as u64, status.next_seq);
        assert_eq!(
            events.len(),
            status.tiles_total + 4,
            "queued, running, tiles, score, done"
        );
        assert_eq!(service.report_text(id, false).expect("report").1, flat);
        let (final_status, report) = service.results(id, false).expect("results");
        assert_eq!(
            service.results(id, true).expect("partial results"),
            (final_status, report)
        );
        assert_eq!(
            service.score_json(id).expect("score").1,
            flat_score.render()
        );
        assert!(
            service.resume(id).is_err(),
            "Done is a state resume refuses"
        );

        // Cancelled: the run — committed tiles included — is held, and
        // resume finishes on it to the flat bytes.
        let slow = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .tile_delay(Duration::from_millis(30))
                .build(),
        );
        let id = slow.submit(spec.clone(), gds.clone()).expect("submit");
        assert_eq!(slow.cancel(id).expect("cancel").state, JobState::Cancelled);
        assert!(holds_run(&slow, id));
        slow.resume(id).expect("resume");
        assert_eq!(slow.wait(id).expect("wait").state, JobState::Done);
        assert!(!holds_run(&slow, id));
        assert_eq!(slow.report_text(id, false).expect("report").1, flat);

        // Quarantine-Partial: settled with a report, yet still holding
        // its run — resume redoes only the quarantined tile (the pure
        // fault plan fails it again) on the partials it kept.
        let plan = FaultPlan::seeded(9)
            .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).key(0));
        let faulty = faulty_service(2, plan);
        let id = faulty.submit(spec.clone(), gds).expect("submit");
        let status = faulty.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Partial);
        assert!(holds_run(&faulty, id));
        let (_, first) = faulty.report_text(id, false).expect("partial report");
        faulty.resume(id).expect("resume");
        let again = faulty.wait(id).expect("wait again");
        assert_eq!(
            (again.state, again.tiles_done),
            (JobState::Partial, status.tiles_done)
        );
        assert!(holds_run(&faulty, id));
        assert_eq!(
            faulty.report_text(id, false).expect("partial report").1,
            first
        );
        let redone = faulty.events(id, status.next_seq).expect("events");
        assert!(
            redone
                .iter()
                .all(|e| !matches!(e.kind, JobEventKind::TileDone { .. })),
            "kept partials are not recomputed: {redone:?}"
        );
    }

    #[test]
    fn ckpt_write_faults_degrade_without_discarding_results() {
        let gds = small_gds(38);
        let spec = spec();
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        let root =
            std::env::temp_dir().join(format!("dfm-signoff-ckpt-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Every checkpoint write for tile 2 fails on every retry — the
        // tile must still complete from memory and the job finish Done.
        let plan = FaultPlan::seeded(3)
            .with_rule(FaultRule::new(SITE_CKPT_WRITE, FaultAction::Error).key(2));
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .ckpt_root(root.clone())
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        );
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        let degraded: Vec<usize> = service
            .events(id, 0)
            .expect("events")
            .iter()
            .filter_map(|e| match e.kind {
                JobEventKind::CkptDegraded { tile } => Some(tile),
                _ => None,
            })
            .collect();
        assert_eq!(degraded, vec![2]);
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_cache_serves_every_tile_without_computing() {
        let gds = small_gds(40);
        let spec = spec();
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        let root = std::env::temp_dir().join(format!("dfm-signoff-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
        let with_cache = |threads| {
            SignoffService::with_config(
                ServiceConfig::builder()
                    .threads(threads)
                    .cache(Arc::clone(&cache))
                    .build(),
            )
        };
        // Cold: every tile computes and stores; nothing hits.
        let cold = with_cache(2);
        let id = cold.submit(spec.clone(), gds.clone()).expect("submit");
        let status = cold.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_cached, 0, "cold run hits nothing");
        let stores = cold
            .events(id, 0)
            .expect("events")
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::TileCacheStore { .. }))
            .count();
        assert_eq!(stores, status.tiles_total, "every clean tile stored");
        assert_eq!(cache.len(), status.tiles_total);
        drop(cold);
        // Warm: every tile hits; the pool never runs a task; the report
        // is byte-identical to the flat run.
        let warm = with_cache(2);
        let id = warm.submit(spec.clone(), gds).expect("submit");
        let status = warm.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_cached, status.tiles_total, "fully warm");
        assert_eq!(
            warm.pool_stats().completed,
            0,
            "no tile ever reached the pool"
        );
        let events = warm.events(id, 0).expect("events");
        let hits = events
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::TileCacheHit { .. }))
            .count();
        assert_eq!(hits, status.tiles_total);
        assert!(
            events
                .iter()
                .all(|e| !matches!(e.kind, JobEventKind::TileCacheStore { .. })),
            "a hit is never re-stored"
        );
        let (_, report) = warm.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        drop(warm);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Normalisations per warm job are the dirty-tile count: the
    /// service's raw-key memo answers every window an earlier job saw.
    /// A cold job of the 20 µm block at tile 2048 normalises each of its
    /// 100 windows once (its store reads the probe's entry), a
    /// resubmission of the same bytes none, and a one-square edit exactly
    /// the windows whose digest it changed.
    #[test]
    fn warm_jobs_normalise_only_their_dirty_tiles() {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 20_000,
            height: 20_000,
            ..Default::default()
        };
        let lib = generate::routed_block(&tech, params, 11);
        let gds = gds::to_bytes(&lib).expect("gds");
        let m1 = lib.flatten_top().expect("flatten").region(layers::METAL1);
        let edit = (0..)
            .map(|k| {
                let (x, y) = (6_000 + 97 * k, 9_000 + 61 * k);
                dfm_geom::Rect::new(x, y, x + 150, y + 150)
            })
            .find(|&r| m1.clipped(r).area() < r.area())
            .expect("open metal");
        let mut edited = lib.clone();
        let top = edited.top().expect("top");
        edited.cell_mut(top).add_rect(layers::METAL1, edit);
        let edited = gds::to_bytes(&edited).expect("gds");
        let spec = JobSpec {
            tile: 2048,
            ..JobSpec::default()
        };
        let dirty = {
            let (a, b) = (
                JobContext::build(&spec, &gds).expect("context"),
                JobContext::build(&spec, &edited).expect("context"),
            );
            assert_eq!(a.tile_count(), 100);
            (0..a.tile_count())
                .filter(|&t| a.tile_content_digest(t) != b.tile_content_digest(t))
                .count()
        };
        assert!((1..=4).contains(&dirty), "{dirty} dirty tiles");
        let root = std::env::temp_dir().join(format!("dfm-signoff-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .cache(Arc::clone(&cache))
                .build(),
        );
        let normalised = |gds: &[u8]| {
            let before = service.shared.memo.misses();
            let id = service.submit(spec.clone(), gds.to_vec()).expect("submit");
            let status = service.wait(id).expect("wait");
            assert_eq!(status.state, JobState::Done, "{:?}", status.error);
            (service.shared.memo.misses() - before, status.tiles_cached)
        };
        assert_eq!(normalised(&gds), (100, 0), "cold");
        assert_eq!(normalised(&gds), (0, 100), "same bytes");
        assert_eq!(normalised(&edited), (dirty as u64, 100 - dirty), "edit");
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Building a job's context allocates nothing per tile, so a spec
    /// that tiles a 2 µm block at `tile: 1` (4 M tiles) reaches admission
    /// and is refused there by a `max_tiles 1000` plan.
    #[test]
    fn a_four_million_tile_job_is_refused_by_its_quota() {
        let mut top = dfm_layout::Cell::new("TOP");
        top.add_rect(layers::METAL1, dfm_geom::Rect::new(0, 0, 2_000, 100));
        top.add_rect(layers::METAL1, dfm_geom::Rect::new(0, 1_900, 2_000, 2_000));
        let mut lib = dfm_layout::Library::new("TINY");
        let id = lib.add_cell(top).expect("top");
        lib.set_top(id).expect("top id");
        let spec = JobSpec {
            tile: 1,
            tenant: "acme".to_string(),
            ..JobSpec::default()
        };
        let plan = SchedConfig::parse("tenant acme weight 1 max_tiles 1000\n").expect("plan");
        let service =
            SignoffService::with_config(ServiceConfig::builder().threads(1).sched(plan).build());
        let gds = gds::to_bytes(&lib).expect("gds");
        let err = service.submit_job(spec, gds, None).expect_err("over quota");
        assert_eq!(err.code, ErrorCode::QuotaExceeded, "{err:?}");
        assert!(err.message.contains("4000000 more"), "{}", err.message);
    }

    #[test]
    fn cache_read_faults_degrade_to_recompute_with_identical_bytes() {
        let gds = small_gds(41);
        let spec = spec();
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        let root =
            std::env::temp_dir().join(format!("dfm-signoff-cache-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
        // Prime the cache cleanly.
        let cold = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .cache(Arc::clone(&cache))
                .build(),
        );
        let id = cold.submit(spec.clone(), gds.clone()).expect("submit");
        cold.wait(id).expect("wait");
        drop(cold);
        // Warm, but tile 1's cache read faults: it recomputes (and
        // re-stores), everything else hits, bytes unchanged.
        let plan = FaultPlan::seeded(6)
            .with_rule(FaultRule::new(SITE_CACHE_READ, FaultAction::Error).key(1));
        let warm = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .cache(Arc::clone(&cache))
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        );
        let id = warm.submit(spec.clone(), gds).expect("submit");
        let status = warm.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.tiles_cached, status.tiles_total - 1);
        let events = warm.events(id, 0).expect("events");
        let stored: Vec<usize> = events
            .iter()
            .filter_map(|e| match e.kind {
                JobEventKind::TileCacheStore { tile } => Some(tile),
                _ => None,
            })
            .collect();
        assert_eq!(
            stored,
            vec![1],
            "only the faulted read recomputes and re-stores"
        );
        let (_, report) = warm.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
        drop(warm);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retried_tiles_are_never_cached() {
        let gds = small_gds(42);
        let spec = spec();
        let root =
            std::env::temp_dir().join(format!("dfm-signoff-cache-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
        // Tile 2 panics once, then succeeds on attempt 1 — which must
        // NOT be stored; every other tile stores normally.
        let plan = FaultPlan::seeded(7).with_rule(
            FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic)
                .key(2)
                .first_attempts(1),
        );
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(2)
                .cache(Arc::clone(&cache))
                .fault_plane(Arc::new(FaultPlane::new(plan)))
                .build(),
        );
        let id = service.submit(spec.clone(), gds.clone()).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(
            cache.len(),
            status.tiles_total - 1,
            "the retried tile is absent"
        );
        let ctx = JobContext::build(&spec, &gds).expect("ctx");
        assert!(
            !cache.contains(ctx.cache_key(2)),
            "retried tile never cached"
        );
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scored_job_reports_the_flat_score_with_event_before_done() {
        let gds = small_gds(43);
        let spec = JobSpec {
            score: Some("default".to_string()),
            ..spec()
        };
        let (_, flat) =
            crate::scoring::flat_score(&spec, &gds::from_bytes(&gds).expect("lib")).expect("flat");
        let service = service(2);
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.score(), Some(flat.score));
        assert_eq!(status.score_pass, Some(flat.pass));
        let (_, json) = service.score_json(id).expect("score json");
        assert_eq!(
            json,
            flat.render(),
            "service score == flat score, byte for byte"
        );
        // The score event lands between the last commit and Done.
        let events = service.events(id, 0).expect("events");
        let score_pos = events
            .iter()
            .position(|e| matches!(e.kind, JobEventKind::Score { .. }))
            .expect("score event");
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(JobEventKind::State(JobState::Done))
        ));
        assert_eq!(
            score_pos,
            events.len() - 2,
            "score immediately precedes Done"
        );
        match events[score_pos].kind {
            JobEventKind::Score { bits, pass } => {
                assert_eq!(f64::from_bits(bits), flat.score);
                assert_eq!(pass, flat.pass);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unscored_job_has_no_score() {
        let service = service(2);
        let id = service.submit(spec(), small_gds(35)).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(status.score_bits, None);
        let err = service.score_json(id).expect_err("no score");
        assert!(err.message.contains("without scoring"), "{err}");
        let events = service.events(id, 0).expect("events");
        assert!(
            events
                .iter()
                .all(|e| !matches!(e.kind, JobEventKind::Score { .. })),
            "no score event without a score spec"
        );
    }

    #[test]
    fn watchdog_timeout_retries_and_completes() {
        let gds = small_gds(39);
        let spec = spec();
        let flat = flat_report(&spec, &gds::from_bytes(&gds).expect("lib"))
            .expect("flat")
            .render_text(&spec);
        // Tile 1's first attempt is stuck past the watchdog budget; the
        // retry is clean (attempt filter) and the job finishes Done.
        let plan = FaultPlan::seeded(4).with_rule(
            FaultRule::new(SITE_TILE_DELAY, FaultAction::Delay { vms: 60_000 })
                .key(1)
                .first_attempts(1),
        );
        let service = faulty_service(2, plan);
        let id = service.submit(spec.clone(), gds).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let events = service.events(id, 0).expect("events");
        let retried = events.iter().any(|e| {
            matches!(&e.kind, JobEventKind::TileRetry { tile: 1, reason, .. }
                if reason.contains("watchdog"))
        });
        assert!(retried, "expected a watchdog retry event: {events:?}");
        let (_, report) = service.results(id, false).expect("results");
        assert_eq!(report.render_text(&spec), flat);
    }
}
