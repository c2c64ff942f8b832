//! One tile attempt, end to end: scheduler grant → pool task → cache
//! probe/store → compute inside containment → checkpoint with retry →
//! supervisor (retry with virtual-clock backoff, or hand the verdict to
//! [`resolve_tile`]).

use super::commit::{resolve_tile, Job, TileResolution};
use crate::checkpoint::{crash_probe, decode_tile_partial, encode_tile_partial};
use crate::job::{JobContext, TilePartial};
use crate::sched::{GrantOut, Scheduler};
use crate::shard::{TileCacheMark, TileRetry};
use dfm_cache::TileCache;
use dfm_fault::FaultPlane;
use dfm_layout::DigestMemo;
use dfm_par::{panic_payload_message, CancelToken, TaskOutcome, WorkerPool};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Duration;

/// Environment variable (milliseconds) that slows every tile task
/// down. A test/CI hook: it widens the window in which a kill or
/// cancel lands mid-job, without touching any result bytes.
pub const TILE_DELAY_ENV: &str = "DFM_SIGNOFF_TILE_DELAY_MS";

/// Fault site: panic inside a tile attempt's containment boundary.
/// Keyed by tile index; `attempt` is the attempt number.
pub const SITE_TILE_COMPUTE: &str = "signoff.tile.compute";

/// Fault site: virtual delay of a tile attempt. Keyed by tile index.
/// A delay at or past the watchdog budget (10 000 virtual ms) fails
/// the attempt as a watchdog timeout (cancel + requeue).
pub const SITE_TILE_DELAY: &str = "signoff.tile.delay";

/// Fault site: checkpoint tile write, keyed by tile index; `attempt`
/// is the write-retry number.
pub const SITE_CKPT_WRITE: &str = "signoff.ckpt.write";

/// Fault site: checkpoint tile read at load time, keyed by tile index.
/// An injected error skips the tile, which is then recomputed.
pub const SITE_CKPT_READ: &str = "signoff.ckpt.read";

/// Fault site: result-cache lookup at dispatch, keyed by tile index.
/// An injected error turns the probe into a miss — the tile is
/// recomputed, bytes unchanged.
pub const SITE_CACHE_READ: &str = "signoff.cache.read";

/// Fault site: result-cache store after a clean first attempt, keyed
/// by tile index. An injected error skips the store silently (the next
/// identical submission recomputes the tile). An `err_nospace` rule
/// here models a full disk: the store is refused without retry and the
/// job continues unharmed.
pub const SITE_CACHE_WRITE: &str = "signoff.cache.write";

/// Crash site: cache-store tmp file durable, rename not yet done.
/// Keyed by tile index.
pub const SITE_CACHE_STORE_TMP: &str = "signoff.cache.store.tmp";

/// Crash site: cache entry renamed into place, store never
/// acknowledged. Keyed by tile index.
pub const SITE_CACHE_STORE_RENAME: &str = "signoff.cache.store.rename";

/// Virtual watchdog budget: an injected tile delay of at least this
/// many virtual milliseconds fails the attempt as a timeout (the stuck
/// attempt is abandoned and the tile requeued).
const WATCHDOG_VMS: u64 = 10_000;

/// Backoff recorded before retrying attempt `k` is this `<< k` virtual
/// milliseconds — bookkeeping in the retry event, never slept.
const BACKOFF_BASE_VMS: u64 = 8;

/// Write attempts per tile checkpoint before degrading to
/// in-memory-only.
const CKPT_WRITE_ATTEMPTS: u64 = 3;

/// Everything a grant needs to become a pool task: cloned into the
/// scheduler per job at enqueue time.
#[derive(Clone)]
pub(super) struct TileHandle {
    pub(super) job: Arc<Job>,
    pub(super) ctx: Arc<JobContext>,
    pub(super) token: CancelToken,
}

/// The state tile tasks share: a weak pool handle for resubmission
/// (weak, so queued retry closures never keep the pool — and thus
/// themselves — alive), the fault plane, the attempt budget, the result
/// cache with the raw-key memo its keys are read through, and the
/// fair-share scheduler (its lock is always taken *after* any job
/// lock is released, never while one is held).
pub(crate) struct RunShared {
    pub(super) pool: Weak<WorkerPool>,
    pub(crate) plane: Option<Arc<FaultPlane>>,
    pub(super) max_attempts: u64,
    pub(super) tile_delay: Duration,
    pub(super) cache: Option<Arc<TileCache>>,
    /// Raw key → tile digest for every job's cache keys; only the
    /// cache's probe and store read it.
    pub(super) memo: DigestMemo,
    pub(super) sched: Mutex<Scheduler<TileHandle>>,
}

impl RunShared {
    pub(super) fn sched(&self) -> MutexGuard<'_, Scheduler<TileHandle>> {
        self.sched.lock().expect("sched lock")
    }

    /// True when the fault plane injects an I/O error at this visit.
    pub(super) fn io_fault(&self, site: &str, key: u64, attempt: u64) -> bool {
        self.plane
            .as_ref()
            .is_some_and(|p| p.maybe_error(site, key, attempt).is_err())
    }

    /// True when the fault plane models a full disk at this site.
    fn nospace(&self, site: &str, key: u64) -> bool {
        self.plane
            .as_ref()
            .is_some_and(|p| p.maybe_nospace(site, key, 0))
    }
}

/// Hands a batch of scheduler grants to the pool, in grant order.
///
/// Each grant carries a sequence number; `submit_sequenced` uses it to
/// reorder racing callers so tasks enter the pool queue in exactly the
/// order the grant log records — the property the cross-thread-count
/// determinism guarantee rests on.
pub(super) fn dispatch_grants(shared: &Arc<RunShared>, grants: Vec<GrantOut<TileHandle>>) {
    for g in grants {
        let h = g.handle;
        submit_tile(shared, &h.job, &h.ctx, &h.token, g.tile, 0, Some(g.seq));
    }
}

/// Reports one tile as resolved to the scheduler (releasing its
/// in-flight slot or queued reservation) and dispatches whatever the
/// freed window now grants. Must be called with no job lock held.
pub(super) fn sched_resolved(shared: &Arc<RunShared>, job_id: u64, tile: usize) {
    let grants = shared.sched().resolved(job_id, tile);
    dispatch_grants(shared, grants);
}

/// Drops every scheduler reservation a job still holds (on settle,
/// cancel, or failed persist) and dispatches the grants the freed
/// capacity allows. Must be called with no job lock held.
pub(super) fn sched_remove_job(shared: &Arc<RunShared>, job_id: u64) {
    let grants = shared.sched().remove_job(job_id);
    dispatch_grants(shared, grants);
}

/// Enqueues one attempt of one tile. The pool-level supervision hook
/// is the safety net: a panic that escapes the attempt body's own
/// containment (e.g. injected at the pool site) still reaches
/// [`attempt_failed`].
///
/// `seq` is `Some` for the first attempt of a scheduler-granted tile —
/// the grant sequence number, which pins the pool-queue entry order.
/// Retries pass `None`: their slot is already held, and they must not
/// wait behind grants that have not been issued yet.
fn submit_tile(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    token: &CancelToken,
    tile: usize,
    attempt: u64,
    seq: Option<u64>,
) {
    let Some(pool) = shared.pool.upgrade() else {
        return;
    };
    let task = {
        let (shared, job, ctx) = (Arc::clone(shared), Arc::clone(job), Arc::clone(ctx));
        move || run_tile_attempt(&shared, &job, &ctx, tile, attempt)
    };
    let hook = {
        let (shared, job, ctx) = (Arc::clone(shared), Arc::clone(job), Arc::clone(ctx));
        move |outcome: TaskOutcome| {
            if let TaskOutcome::Panicked(msg) = outcome {
                let reason = format!("tile {tile} task panicked: {msg}");
                attempt_failed(&shared, &job, &ctx, tile, attempt, reason);
            }
        }
    };
    match seq {
        Some(seq) => pool.submit_sequenced(seq, token, task, hook),
        None => pool.submit_supervised(token, task, hook),
    }
}

/// The body of one tile attempt: guard, (virtual) delay/watchdog,
/// compute inside containment, checkpoint with retry, hand the outcome
/// to the supervisor.
fn run_tile_attempt(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
    attempt: u64,
) {
    if !job
        .m
        .lock()
        .expect("job lock")
        .attempt_is_live(tile, attempt)
    {
        return;
    }
    if !shared.tile_delay.is_zero() {
        std::thread::sleep(shared.tile_delay);
    }
    if let Some(plane) = &shared.plane {
        let stuck = plane.delay_vms(SITE_TILE_DELAY, tile as u64, attempt);
        if let Some(vms) = stuck.filter(|&vms| vms >= WATCHDOG_VMS) {
            let reason =
                format!("watchdog: tile {tile} stuck {vms} vms (budget {WATCHDOG_VMS} vms)");
            attempt_failed(shared, job, ctx, tile, attempt, reason);
            return;
        }
    }
    let plane = shared.plane.clone();
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plane) = &plane {
            plane.maybe_panic(SITE_TILE_COMPUTE, tile as u64, attempt);
        }
        ctx.compute_tile(tile)
    }));
    let partial = match computed {
        Ok(p) => p,
        Err(panic) => {
            let msg = panic_payload_message(panic.as_ref());
            attempt_failed(
                shared,
                job,
                ctx,
                tile,
                attempt,
                format!("tile {tile} panicked: {msg}"),
            );
            return;
        }
    };
    // Checkpoint BEFORE recording completion: a crash after the write
    // re-loads the tile; a crash before it recomputes it. Either way
    // the partial's value is identical (purity), so resume converges.
    // A write that fails every retry degrades to in-memory-only — the
    // computed result is NEVER discarded over a checkpoint error.
    let ckpt_degraded = !checkpoint_with_retry(shared, job, &partial);
    let cache = cache_store(shared, ctx, tile, attempt, &partial);
    let done = TileResolution::Done {
        partial,
        ckpt_degraded,
        cache,
    };
    resolve_tile(shared, job, ctx, tile, Vec::new(), done);
}

/// Probes the result cache for one freshly dispatched tile. On a valid
/// hit the partial is checkpointed (when persistence is on) and
/// resolved exactly like a computed result; returns `true` and the
/// tile never reaches the pool. Anything else — cache off, injected
/// read fault, missing entry, or an entry that fails to decode — is a
/// miss: returns `false` and the caller submits the tile normally.
pub(super) fn cache_serve(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
) -> bool {
    let Some(cache) = &shared.cache else {
        return false;
    };
    if shared.io_fault(SITE_CACHE_READ, tile as u64, 0) {
        return false;
    }
    let Some(bytes) = cache.lookup(ctx.memoised_cache_key(tile, &shared.memo)) else {
        return false;
    };
    let Some(partial) = decode_tile_partial(&bytes, tile) else {
        return false;
    };
    let ckpt_degraded = !checkpoint_with_retry(shared, job, &partial);
    let hit = TileResolution::Done {
        partial,
        ckpt_degraded,
        cache: TileCacheMark::Hit,
    };
    resolve_tile(shared, job, ctx, tile, Vec::new(), hit);
    true
}

/// Stores a freshly computed partial into the result cache. Only a
/// clean **first** attempt qualifies — a result that needed retries is
/// never cached, so a faulting or quarantine-bound plan can never
/// poison the store. A store that fails (injected fault or I/O) is
/// silently skipped: the next identical submission just recomputes.
fn cache_store(
    shared: &Arc<RunShared>,
    ctx: &Arc<JobContext>,
    tile: usize,
    attempt: u64,
    partial: &TilePartial,
) -> TileCacheMark {
    let Some(cache) = &shared.cache else {
        return TileCacheMark::None;
    };
    if attempt != 0 {
        return TileCacheMark::None;
    }
    // ENOSPC degradation: a full disk refuses the store outright — no
    // retries, no partial entry, job unharmed.
    if shared.io_fault(SITE_CACHE_WRITE, tile as u64, 0)
        || shared.nospace(SITE_CACHE_WRITE, tile as u64)
    {
        return TileCacheMark::None;
    }
    let probe = crash_probe(
        shared.plane.as_deref(),
        Some(SITE_CACHE_STORE_TMP),
        SITE_CACHE_STORE_RENAME,
        tile as u64,
        0,
    );
    let key = ctx.memoised_cache_key(tile, &shared.memo);
    if cache.store_staged(key, &encode_tile_partial(partial), &probe) {
        TileCacheMark::Stored
    } else {
        TileCacheMark::None
    }
}

/// Writes one tile checkpoint with bounded retries (each attempt is
/// already atomic: tmp + rename). Returns false when every attempt
/// failed; trivially true for a job without a checkpoint directory.
fn checkpoint_with_retry(shared: &RunShared, job: &Job, partial: &TilePartial) -> bool {
    let Some(dir) = &job.dir else { return true };
    let tile = partial.tile as u64;
    // ENOSPC degradation: a full disk fails every retry the same way,
    // so degrade immediately (`CkptDegraded`) instead of burning the
    // write budget.
    if shared.nospace(SITE_CKPT_WRITE, tile) {
        return false;
    }
    (0..CKPT_WRITE_ATTEMPTS).any(|write_attempt| {
        !shared.io_fault(SITE_CKPT_WRITE, tile, write_attempt)
            && dir
                .write_tile_probed(partial, shared.plane.as_deref(), write_attempt)
                .is_ok()
    })
}

/// Supervisor path for a failed attempt: retry with deterministic
/// virtual-clock backoff while budget remains, else quarantine the
/// tile and let the job settle without it.
fn attempt_failed(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
    attempt: u64,
    reason: String,
) {
    let failed = attempt + 1;
    let exhausted = failed >= shared.max_attempts.max(1);
    let retry = (!exhausted).then(|| TileRetry {
        attempt,
        backoff_vms: BACKOFF_BASE_VMS << attempt,
        reason: reason.clone(),
    });
    let Some(token) = job
        .m
        .lock()
        .expect("job lock")
        .record_retry(tile, attempt, retry)
    else {
        return; // settled, resolved, or already adjudicated
    };
    if exhausted {
        let verdict = TileResolution::Quarantined {
            attempts: failed,
            reason,
        };
        resolve_tile(shared, job, ctx, tile, Vec::new(), verdict);
    } else {
        // The scheduler slot stays held across retries: the tile is
        // still occupying real capacity, and a retry must never queue
        // behind grants that were issued after it.
        submit_tile(shared, job, ctx, &token, tile, failed, None);
    }
}
