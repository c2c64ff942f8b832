//! Commit state: what a job remembers, and the **one** way a tile
//! result enters it. Local attempts, cache hits, quarantine verdicts
//! and shard outcomes all arrive through [`resolve_tile`];
//! [`advance_commits`] drains them strictly along the ascending
//! `commit_queue`, so the event stream is the same at any worker or
//! shard count; [`try_finalize`] merges once the queue is empty.

use super::attempt::{sched_remove_job, sched_resolved, RunShared};
use crate::checkpoint::{decode_tile_partial, encode_tile_partial, JobDir};
use crate::codec::{by_name, name_of};
use crate::job::{JobContext, TilePartial};
use crate::report::{QuarantinedTile, SignoffReport};
use crate::shard::{ShardRun, TileCacheMark, TileOutcome, TileOutcomeKind, TileRetry};
use crate::spec::JobSpec;
use dfm_par::CancelToken;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, tasks not yet dispatched.
    Queued,
    /// Tile tasks are dispatched to the pool.
    Running,
    /// Holds a subset of tiles and is not running: loaded from a
    /// checkpoint after a restart (awaiting `resume`), or **settled**
    /// with quarantined tiles excluded — in the settled case the
    /// report (with its quarantine manifest) is available, and the job
    /// can still be resumed to retry the quarantined tiles.
    Partial,
    /// All tiles merged; final report available.
    Done,
    /// The merge itself failed; diagnostic recorded. Tile failures
    /// never produce this state — they retry and then quarantine.
    Failed,
    /// Cancelled by request; completed tiles are kept for `resume`.
    Cancelled,
}

impl JobState {
    /// True for states no event can follow (except via `resume`).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }

    /// True once the job has stopped making progress on its own —
    /// every state except `Queued`/`Running`. This is what `wait`
    /// blocks on: a `Partial`-settled job (quarantined tiles) is a
    /// finished job with a report, not one worth waiting longer for.
    pub fn is_settled(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// Each state and its wire name, read in both directions.
    const NAMES: [(JobState, &'static str); 6] = [
        (JobState::Queued, "queued"),
        (JobState::Running, "running"),
        (JobState::Partial, "partial"),
        (JobState::Done, "done"),
        (JobState::Failed, "failed"),
        (JobState::Cancelled, "cancelled"),
    ];

    /// Stable lower-case name used on the wire.
    pub fn name(self) -> &'static str {
        name_of(&JobState::NAMES, &self)
    }

    /// Parses [`JobState::name`] back.
    pub fn from_name(s: &str) -> Option<JobState> {
        by_name(&JobState::NAMES, s)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an event records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobEventKind {
    /// The job entered a new state.
    State(JobState),
    /// A tile completed.
    TileDone {
        /// The completed tile's index.
        tile: usize,
        /// Tiles completed so far (including this one).
        completed: usize,
        /// Total tiles in the job.
        total: usize,
    },
    /// A tile attempt failed and will be retried.
    TileRetry {
        /// The tile being retried.
        tile: usize,
        /// The failed attempt (0-based).
        attempt: u64,
        /// Deterministic virtual-clock backoff before the next
        /// attempt, virtual milliseconds.
        backoff_vms: u64,
        /// The failure's diagnostic.
        reason: String,
    },
    /// A tile exhausted its attempt budget and was quarantined; its
    /// results are excluded from the job's report.
    TileQuarantined {
        /// The quarantined tile.
        tile: usize,
        /// Failed attempts consumed.
        attempts: u64,
        /// The last failure's diagnostic.
        reason: String,
    },
    /// Every checkpoint-write attempt for this tile failed; the result
    /// is kept in memory (the job continues degraded — a restart would
    /// recompute this tile).
    CkptDegraded {
        /// The tile whose checkpoint write failed.
        tile: usize,
    },
    /// The tile's result was served from the content-addressed cache —
    /// it was never submitted to the pool. Always immediately followed
    /// by the tile's `TileDone`.
    TileCacheHit {
        /// The tile served from cache.
        tile: usize,
    },
    /// The tile's freshly computed result was stored into the cache
    /// (clean first attempt only). Always immediately followed by the
    /// tile's `TileDone`.
    TileCacheStore {
        /// The tile whose result was stored.
        tile: usize,
    },
    /// The job's manufacturability score was computed (emitted between
    /// the last tile commit and the final state event, only for jobs
    /// whose spec enables scoring).
    Score {
        /// IEEE-754 bit pattern of the aggregate score (bits, so the
        /// event stream stays `Eq`-comparable and byte-exact).
        bits: u64,
        /// The pass verdict (threshold and floors).
        pass: bool,
    },
}

/// One entry in a job's event log. Sequence numbers are per-job,
/// start at 0, and increase by exactly 1 per event, so a client
/// polling `events(since)` can prove it has seen everything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobEvent {
    /// Monotonic per-job sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: JobEventKind,
}

/// A point-in-time summary of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id (service-wide, monotonically assigned).
    pub id: u64,
    /// The spec's client-chosen name.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Total tiles (0 until the layout is parsed).
    pub tiles_total: usize,
    /// Completed tiles.
    pub tiles_done: usize,
    /// Quarantined tiles (excluded from the report).
    pub tiles_quarantined: usize,
    /// Tiles served from the result cache (subset of `tiles_done`).
    pub tiles_cached: usize,
    /// Next event sequence number (== number of events so far).
    pub next_seq: u64,
    /// Tenant the job is billed to (from the spec; `"default"` when
    /// the client named none).
    pub tenant: String,
    /// Scheduling priority (0 = lowest).
    pub priority: u8,
    /// IEEE-754 bits of the manufacturability score, once computed
    /// (`None` until the job settles, or when scoring is off).
    pub score_bits: Option<u64>,
    /// The score's pass verdict, with the same lifetime as
    /// `score_bits`.
    pub score_pass: Option<bool>,
    /// Failure diagnostic, when `state == Failed`.
    pub error: Option<String>,
}

impl JobStatus {
    /// The manufacturability score as an `f64`, when computed.
    pub fn score(&self) -> Option<f64> {
        self.score_bits.map(f64::from_bits)
    }
}

/// A tile's final outcome, buffered until its commit-order turn.
pub(super) enum TileResolution {
    Done { partial: TilePartial, ckpt_degraded: bool, cache: TileCacheMark },
    Quarantined { attempts: u64, reason: String },
}

pub(super) struct JobMut {
    pub(super) spec: JobSpec,
    pub(super) gds: Vec<u8>,
    pub(super) ctx: Option<Arc<JobContext>>,
    pub(super) state: JobState,
    pub(super) cancel: CancelToken,
    pub(super) partials: BTreeMap<usize, TilePartial>,
    pub(super) events: Vec<JobEvent>,
    pub(super) error: Option<String>,
    pub(super) report: Option<SignoffReport>,
    pub(super) score: Option<dfm_score::ScoreReport>,
    /// Attempt currently in flight per dispatched tile.
    pub(super) attempts: BTreeMap<usize, u64>,
    /// Failed attempts awaiting commit, per tile, in attempt order.
    pub(super) retry_log: BTreeMap<usize, Vec<TileRetry>>,
    /// Resolved tiles whose events have not been committed yet.
    pub(super) pending_commit: BTreeMap<usize, TileResolution>,
    /// Dispatched tiles in commit (ascending index) order; the head
    /// commits as soon as it resolves.
    pub(super) commit_queue: VecDeque<usize>,
    /// Quarantined tiles, as the report's manifest lists them.
    pub(super) quarantined: BTreeMap<usize, QuarantinedTile>,
    /// Tiles whose committed result came from the cache.
    pub(super) cached: BTreeSet<usize>,
    /// Monotonic per-tile outcome log, recorded only for
    /// shard-dispatched jobs (`Some` from `shard_dispatch` on): the
    /// stream a coordinator pulls to replay this job's commits.
    pub(super) outcomes: Option<Vec<TileOutcome>>,
    /// The current shard-dispatch epoch on a coordinating service;
    /// replaced wholesale by each dispatch, so stale pullers detect
    /// supersession by pointer identity.
    shard_run: Option<Arc<ShardRun>>,
}

impl JobMut {
    /// A job in `state`, its event log opened by that state's event.
    pub(super) fn fresh(
        spec: JobSpec,
        gds: Vec<u8>,
        ctx: Option<Arc<JobContext>>,
        state: JobState,
    ) -> JobMut {
        JobMut {
            spec,
            gds,
            ctx,
            state,
            cancel: CancelToken::new(),
            partials: BTreeMap::new(),
            events: vec![JobEvent { seq: 0, kind: JobEventKind::State(state) }],
            error: None,
            report: None,
            score: None,
            attempts: BTreeMap::new(),
            retry_log: BTreeMap::new(),
            pending_commit: BTreeMap::new(),
            commit_queue: VecDeque::new(),
            quarantined: BTreeMap::new(),
            cached: BTreeSet::new(),
            outcomes: None,
            shard_run: None,
        }
    }

    pub(super) fn emit(&mut self, kind: JobEventKind) {
        let seq = self.events.len() as u64;
        self.events.push(JobEvent { seq, kind });
    }

    pub(super) fn set_state(&mut self, state: JobState) {
        self.state = state;
        self.emit(JobEventKind::State(state));
    }

    /// True once `tile` has a verdict in this dispatch: committed,
    /// buffered for commit, or quarantined.
    fn is_resolved(&self, tile: usize) -> bool {
        self.partials.contains_key(&tile)
            || self.pending_commit.contains_key(&tile)
            || self.quarantined.contains_key(&tile)
    }

    /// True while attempt number `attempt` of `tile` is the one the
    /// job is waiting on: the job is running and not cancelled, the
    /// tile is unresolved (e.g. no overlapping resume got there
    /// first), and no newer attempt has taken the tile over.
    pub(super) fn attempt_is_live(&self, tile: usize, attempt: u64) -> bool {
        !self.cancel.is_cancelled()
            && self.state == JobState::Running
            && !self.is_resolved(tile)
            && self.attempts.get(&tile) == Some(&attempt)
    }
}

/// Commits resolved tiles strictly along the commit queue: the head
/// tile's buffered retries, then its terminal event. Every event a
/// fixed fault plan produces is therefore emitted in tile order — the
/// same order at any worker count.
fn advance_commits(m: &mut JobMut, total: usize) {
    while let Some(&tile) = m.commit_queue.front() {
        let Some(res) = m.pending_commit.remove(&tile) else { break };
        m.commit_queue.pop_front();
        let retries = m.retry_log.remove(&tile).unwrap_or_default();
        for r in &retries {
            m.emit(JobEventKind::TileRetry {
                tile,
                attempt: r.attempt,
                backoff_vms: r.backoff_vms,
                reason: r.reason.clone(),
            });
        }
        // Shard-dispatched jobs append every commit — retries and all —
        // to the outcome log a coordinator replays byte-identically.
        match res {
            TileResolution::Done { partial, ckpt_degraded, cache } => {
                if ckpt_degraded {
                    m.emit(JobEventKind::CkptDegraded { tile });
                }
                match cache {
                    TileCacheMark::Hit => {
                        m.cached.insert(tile);
                        m.emit(JobEventKind::TileCacheHit { tile });
                    }
                    TileCacheMark::Stored => m.emit(JobEventKind::TileCacheStore { tile }),
                    TileCacheMark::None => {}
                }
                if let Some(outcomes) = &mut m.outcomes {
                    let data = encode_tile_partial(&partial);
                    let kind = TileOutcomeKind::Done { data, ckpt_degraded, cache };
                    outcomes.push(TileOutcome { tile, retries, kind });
                }
                m.partials.insert(tile, partial);
                let completed = m.partials.len();
                m.emit(JobEventKind::TileDone { tile, completed, total });
            }
            TileResolution::Quarantined { attempts, reason } => {
                if let Some(outcomes) = &mut m.outcomes {
                    let kind = TileOutcomeKind::Quarantined { attempts, reason: reason.clone() };
                    outcomes.push(TileOutcome { tile, retries, kind });
                }
                let entry = QuarantinedTile { tile, attempts, reason: reason.clone() };
                m.quarantined.insert(tile, entry);
                m.emit(JobEventKind::TileQuarantined { tile, attempts, reason });
            }
        }
    }
}

pub(crate) struct Job {
    pub(crate) id: u64,
    pub(super) dir: Option<JobDir>,
    pub(super) m: Mutex<JobMut>,
    pub(super) cv: Condvar,
}

impl Job {
    pub(super) fn new(id: u64, dir: Option<JobDir>, m: JobMut) -> Arc<Job> {
        Arc::new(Job { id, dir, m: Mutex::new(m), cv: Condvar::new() })
    }

    pub(super) fn status(&self) -> JobStatus {
        let m = self.m.lock().expect("job lock");
        status_of(self, &m)
    }
}

pub(super) fn status_of(job: &Job, m: &JobMut) -> JobStatus {
    JobStatus {
        id: job.id,
        name: m.spec.name.clone(),
        tenant: m.spec.tenant.clone(),
        priority: m.spec.priority,
        state: m.state,
        tiles_total: m.ctx.as_ref().map_or(0, |c| c.tile_count()),
        tiles_done: m.partials.len(),
        tiles_quarantined: m.quarantined.len(),
        tiles_cached: m.cached.len(),
        next_seq: m.events.len() as u64,
        score_bits: m.score.as_ref().map(|s| s.score.to_bits()),
        score_pass: m.score.as_ref().map(|s| s.pass),
        error: m.error.clone(),
    }
}

/// Runs the ordered merge once every dispatched tile has committed.
/// Clean run → Done; quarantined tiles → settled Partial with the
/// manifest in the report; only a merge error produces Failed. On any
/// settle the job's scheduler reservations are released.
pub(super) fn try_finalize(shared: &Arc<RunShared>, job: &Arc<Job>, ctx: &Arc<JobContext>) {
    let surviving: Vec<TilePartial> = {
        let m = job.m.lock().expect("job lock");
        if m.state != JobState::Running || !m.commit_queue.is_empty() {
            return;
        }
        m.partials.values().cloned().collect()
    };
    let merged = ctx.merge(&surviving);
    let mut m = job.m.lock().expect("job lock");
    if m.state != JobState::Running || !m.commit_queue.is_empty() {
        return;
    }
    match merged {
        Ok(mut report) => {
            report.quarantined = m.quarantined.values().cloned().collect();
            let clean = report.quarantined.is_empty();
            // Score before the final state event: a client that saw
            // `State(Done)` can rely on the score being present.
            if let Some(score) = ctx.score(&report) {
                m.emit(JobEventKind::Score {
                    bits: score.score.to_bits(),
                    pass: score.pass,
                });
                m.score = Some(score);
            }
            m.report = Some(report);
            m.set_state(if clean { JobState::Done } else { JobState::Partial });
        }
        Err(e) => {
            m.error = Some(format!("merge failed: {e}"));
            m.set_state(JobState::Failed);
        }
    }
    drop(m);
    // The job settled on this call (the re-check above means exactly
    // one caller gets here): stop counting it against its tenant's
    // max_jobs and release any stragglers (lock order: job then sched).
    // Waiters are woken only AFTER the release, so a `wait()` that
    // observes the settled state can immediately resubmit against the
    // freed quota. (Late checkers see the state under the lock anyway,
    // so notifying outside it cannot lose a wakeup.)
    sched_remove_job(shared, job.id);
    job.cv.notify_all();
}

/// The spec + GDS bytes a puller re-dispatches to a shard.
pub(crate) fn shard_payload(job: &Arc<Job>) -> (JobSpec, Vec<u8>) {
    let m = job.m.lock().expect("job lock");
    (m.spec.clone(), m.gds.clone())
}

/// Installs the current shard-dispatch epoch on a coordinated job.
pub(crate) fn set_shard_run(job: &Arc<Job>, run: Arc<ShardRun>) {
    job.m.lock().expect("job lock").shard_run = Some(run);
}

/// True while `run` is still the job's current epoch and the job is
/// still running — the staleness guard puller threads re-check every
/// cycle, so a cancel or resume retires them within one poll.
pub(crate) fn shard_run_live(job: &Arc<Job>, run: &Arc<ShardRun>) -> bool {
    let m = job.m.lock().expect("job lock");
    m.state == JobState::Running && m.shard_run.as_ref().is_some_and(|r| Arc::ptr_eq(r, run))
}

/// Feeds one shard-reported tile outcome into the coordinator job —
/// through [`resolve_tile`], the exact path local attempts use, so
/// event order, report bytes, and digests cannot tell the difference.
pub(crate) fn ingest_shard_outcome(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    outcome: &TileOutcome,
) {
    let tile = outcome.tile;
    // Decode and (best-effort) persist outside the job lock. The
    // `signoff.ckpt.write` error site does NOT fire here: the shard
    // already ran the tile's checkpoint faults (replayed via
    // `ckpt_degraded`), and a shared plan probed again at the
    // coordinator would fire twice and skew the bytes. The staged
    // crash sites inside `write_tile_probed` are coordinator-side
    // durable transitions, though — a crash there loses only this
    // best-effort persist, which resume recomputes.
    let resolution = match &outcome.kind {
        TileOutcomeKind::Done { data, ckpt_degraded, cache } => {
            match decode_tile_partial(data, tile) {
                Some(partial) => {
                    if let Some(dir) = &job.dir {
                        let _ = dir.write_tile_probed(&partial, shared.plane.as_deref(), 0);
                    }
                    TileResolution::Done { partial, ckpt_degraded: *ckpt_degraded, cache: *cache }
                }
                None => TileResolution::Quarantined {
                    attempts: 0,
                    reason: format!("tile {tile}: undecodable shard result"),
                },
            }
        }
        TileOutcomeKind::Quarantined { attempts, reason } => {
            TileResolution::Quarantined { attempts: *attempts, reason: reason.clone() }
        }
    };
    resolve_tile(shared, job, ctx, tile, outcome.retries.clone(), resolution);
}

/// Quarantines a lost shard's unrecoverable tiles (`shard {k} lost:
/// …`) so the coordinated job settles as a deterministic `Partial`
/// with a per-shard manifest instead of hanging.
pub(crate) fn quarantine_lost_tiles(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    shard_idx: usize,
    err: &str,
    lost: &BTreeSet<usize>,
) {
    for &tile in lost {
        let reason = format!("shard {shard_idx} lost: {err}");
        let verdict = TileResolution::Quarantined { attempts: 0, reason };
        resolve_tile(shared, job, ctx, tile, Vec::new(), verdict);
    }
}

/// The one way a tile result enters a job. Buffers `resolution` (and
/// any `retries` reported with it — locally recorded ones already sit
/// in the retry log) for commit-ordered emission, releases the tile's
/// scheduler capacity, and finalizes the job if this was its last tile.
///
/// Ignored when the job is no longer running — a result landing after
/// a cancel keeps its checkpoint on disk but must not mutate a settled
/// job, whose reservation the settle path already tore down — and when
/// the tile already has a verdict (duplicate pull, overlapping resume,
/// an attempt finishing after its tile was quarantined).
pub(super) fn resolve_tile(
    shared: &Arc<RunShared>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tile: usize,
    retries: Vec<TileRetry>,
    resolution: TileResolution,
) {
    {
        let mut m = job.m.lock().expect("job lock");
        if m.state != JobState::Running || m.is_resolved(tile) {
            return;
        }
        if !retries.is_empty() {
            m.retry_log.insert(tile, retries);
        }
        m.pending_commit.insert(tile, resolution);
        advance_commits(&mut m, ctx.tile_count());
        job.cv.notify_all();
    }
    // The guard above makes this the tile's single resolution, so the
    // scheduler release runs exactly once per tile. A tile that never
    // entered a lane (cache hit, shard outcome) credits the job's
    // unassigned admission budget instead of an in-flight slot.
    sched_resolved(shared, job.id, tile);
    try_finalize(shared, job, ctx);
}
