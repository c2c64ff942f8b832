//! Commit state: what a job remembers, and the **one** way a tile
//! result enters it. A job is its answer — spec, state, events, report,
//! score, error, tile counters — plus, only while it can still run, one
//! [`Run`]: context, GDS bytes, cancel token and a slot per tile. Local
//! attempts, cache hits, quarantine verdicts and shard outcomes all
//! arrive through [`resolve_tile`]; a resolved tile waits in its slot
//! until every lower dispatched tile has committed, so the event stream
//! is the same at any worker or shard count; [`try_finalize`] merges
//! once no dispatched tile is left. DESIGN.md "What a job remembers"
//! has the slot states and who may move a tile between them.

use super::attempt::{sched_remove_job, sched_resolved, RunShared};
use crate::checkpoint::{decode_tile_partial, encode_tile_partial, JobDir};
use crate::codec::{by_name, name_of};
use crate::job::{JobContext, TilePartial};
use crate::report::{QuarantinedTile, SignoffReport};
use crate::shard::{ShardRun, TileCacheMark, TileOutcome, TileOutcomeKind, TileRetry};
use crate::spec::JobSpec;
use dfm_par::CancelToken;
use std::collections::{BTreeMap, BTreeSet};
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
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
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

/// A tile's final outcome, handed to [`resolve_tile`].
pub(super) enum TileResolution {
    Done {
        partial: TilePartial,
        ckpt_degraded: bool,
        cache: TileCacheMark,
    },
    Quarantined {
        attempts: u64,
        reason: String,
    },
}

/// Where one tile stands. No other module names a variant, so the
/// commit order, the stale-attempt guard and "a verdict for an
/// already-resolved tile is ignored" are properties of this enum.
enum Slot {
    /// Dispatched by the current run and unresolved: `attempt` is the
    /// one the job is waiting on, `retries` the failures before it.
    Dispatched {
        attempt: u64,
        retries: Vec<TileRetry>,
    },
    /// Resolved; its events wait for every lower dispatched tile.
    Resolved {
        retries: Vec<TileRetry>,
        resolution: TileResolution,
    },
    /// Committed with its partial (`cached`: served from the cache).
    Done { partial: TilePartial, cached: bool },
    /// Committed as excluded, as the report's manifest lists it.
    Quarantined(QuarantinedTile),
}

/// Everything a job needs to run and nothing its answer needs: held
/// from submission (or checkpoint load) until the job enters a state
/// `resume` refuses, then dropped whole.
#[derive(Default)]
pub(super) struct Run {
    pub(super) gds: Vec<u8>,
    /// `None` only on a job loaded from a checkpoint directory that
    /// nothing has asked about yet ([`JobMut::load`] fills it).
    pub(super) ctx: Option<Arc<JobContext>>,
    cancel: CancelToken,
    slots: BTreeMap<usize, Slot>,
    /// The lowest dispatched tile not yet committed — the next to
    /// commit; `None` once nothing is left.
    head: Option<usize>,
    /// The current shard-dispatch epoch on a coordinating service;
    /// replaced wholesale by each dispatch, so stale pullers detect
    /// supersession by pointer identity.
    shard_run: Option<Arc<ShardRun>>,
}

impl Run {
    /// The committed partials, in tile order — what the merge folds.
    fn partials(&self) -> impl Iterator<Item = &TilePartial> {
        self.slots.values().filter_map(|slot| match slot {
            Slot::Done { partial, .. } => Some(partial),
            _ => None,
        })
    }
}

/// The tile counters `status` reports: part of the answer, so they
/// outlive the [`Run`] whose slots they count.
#[derive(Default)]
struct TileCounts {
    total: usize,
    done: usize,
    quarantined: usize,
    cached: usize,
}

/// A job: its answer, plus — only while it can still run — one [`Run`].
pub(super) struct JobMut {
    pub(super) spec: JobSpec,
    pub(super) state: JobState,
    pub(super) events: Vec<JobEvent>,
    pub(super) error: Option<String>,
    pub(super) report: Option<SignoffReport>,
    pub(super) score: Option<dfm_score::ScoreReport>,
    tiles: TileCounts,
    /// Monotonic per-tile outcome log, recorded only for
    /// shard-dispatched jobs (`Some` from `shard_dispatch` on): the
    /// stream a coordinator pulls to replay this job's commits.
    pub(super) outcomes: Option<Vec<TileOutcome>>,
    /// `Some` in every state but `Done` and `Failed`.
    pub(super) run: Option<Run>,
}

impl JobMut {
    /// A job in `state`, its event log opened by that state's event,
    /// holding a fresh run over `gds` (`ctx`: `None` when loaded from
    /// a checkpoint directory — [`JobMut::load`] builds it on demand).
    pub(super) fn fresh(
        spec: JobSpec,
        gds: Vec<u8>,
        ctx: Option<Arc<JobContext>>,
        state: JobState,
    ) -> JobMut {
        let total = ctx.as_ref().map_or(0, |c| c.tile_count());
        JobMut {
            spec,
            state,
            events: vec![JobEvent {
                seq: 0,
                kind: JobEventKind::State(state),
            }],
            error: None,
            report: None,
            score: None,
            tiles: TileCounts {
                total,
                ..TileCounts::default()
            },
            outcomes: None,
            run: Some(Run {
                gds,
                ctx,
                ..Run::default()
            }),
        }
    }

    pub(super) fn emit(&mut self, kind: JobEventKind) {
        self.events.push(JobEvent {
            seq: self.events.len() as u64,
            kind,
        });
    }

    /// Enters `state`. `Done` and `Failed` are the states `resume`
    /// refuses, so nothing can ask for the working set again: it goes.
    pub(super) fn set_state(&mut self, state: JobState) {
        self.state = state;
        if matches!(state, JobState::Done | JobState::Failed) {
            self.run = None;
        }
        self.emit(JobEventKind::State(state));
    }

    /// The job's context, once built.
    pub(super) fn ctx(&self) -> Result<Arc<JobContext>, String> {
        let ctx = self.run.as_ref().and_then(|run| run.ctx.clone());
        ctx.ok_or_else(|| "job context missing".to_string())
    }

    /// The partials of the contiguous committed prefix `[0..k)`.
    pub(super) fn prefix(&self) -> Vec<TilePartial> {
        let done = self.run.iter().flat_map(Run::partials);
        done.enumerate()
            .take_while(|(i, p)| p.tile == *i)
            .map(|(_, p)| p.clone())
            .collect()
    }

    /// The checkpoint loader's entry: the rebuilt context and surviving
    /// checkpointed partials of a job constructed from disk.
    pub(super) fn load(&mut self, ctx: Arc<JobContext>, partials: Vec<TilePartial>) {
        let Some(run) = &mut self.run else { return };
        self.tiles.total = ctx.tile_count();
        self.tiles.done += partials.len();
        run.ctx = Some(ctx);
        let done = partials.into_iter().map(|p| {
            (
                p.tile,
                Slot::Done {
                    partial: p,
                    cached: false,
                },
            )
        });
        run.slots.extend(done);
    }

    /// Readies a parked job for `resume`: a fresh cancel token (the old
    /// one may be cancelled) and the tiles of `0..total` without a
    /// committed partial — quarantined ones included.
    pub(super) fn rearm(&mut self, total: usize) -> Vec<usize> {
        let Some(run) = &mut self.run else {
            return Vec::new();
        };
        run.cancel = CancelToken::new();
        (0..total)
            .filter(|t| !matches!(run.slots.get(t), Some(Slot::Done { .. })))
            .collect()
    }

    /// Cancels the run's token: tiles still queued are skipped at
    /// dequeue, tiles in flight finish and checkpoint.
    pub(super) fn cancel_queued(&self) {
        self.run.iter().for_each(|run| run.cancel.cancel());
    }

    /// Begins a run over `tiles` (ascending) and moves the job to
    /// `Running`: the previous answer is withdrawn, what an earlier run
    /// left uncommitted is forgotten, and each dispatched tile starts a
    /// fresh attempt budget, its quarantine verdict or cache mark
    /// cleared. Returns the run's cancel token — `None` when a racing
    /// resume already finished the job and dropped the run.
    pub(super) fn begin(&mut self, tiles: &[usize]) -> Option<CancelToken> {
        let run = self.run.as_mut()?;
        (self.report, self.score, self.error) = (None, None, None);
        run.slots
            .retain(|_, slot| matches!(slot, Slot::Done { .. } | Slot::Quarantined(_)));
        for &tile in tiles {
            match run.slots.insert(
                tile,
                Slot::Dispatched {
                    attempt: 0,
                    retries: Vec::new(),
                },
            ) {
                Some(Slot::Done { cached, .. }) => {
                    self.tiles.done -= 1;
                    self.tiles.cached -= usize::from(cached);
                }
                Some(Slot::Quarantined(_)) => self.tiles.quarantined -= 1,
                _ => {}
            }
        }
        run.head = tiles.first().copied();
        let token = run.cancel.clone();
        self.set_state(JobState::Running);
        Some(token)
    }

    /// True while attempt number `attempt` of `tile` is the one the
    /// job is waiting on: the job is running and not cancelled, the
    /// tile is unresolved (e.g. no overlapping resume got there
    /// first), and no newer attempt has taken the tile over.
    pub(super) fn attempt_is_live(&self, tile: usize, attempt: u64) -> bool {
        let Some(run) = self
            .run
            .as_ref()
            .filter(|_| self.state == JobState::Running)
        else {
            return false;
        };
        !run.cancel.is_cancelled()
            && matches!(run.slots.get(&tile), Some(Slot::Dispatched { attempt: a, .. }) if *a == attempt)
    }

    /// Books the failure of live attempt `attempt` of `tile`: the tile
    /// moves on to its next attempt, and `retry` — when the budget
    /// grants one — is logged for commit ahead of the tile's verdict.
    /// Returns the token to resubmit under; `None` for a stale attempt
    /// (settled, resolved, or already adjudicated).
    pub(super) fn record_retry(
        &mut self,
        tile: usize,
        attempt: u64,
        retry: Option<TileRetry>,
    ) -> Option<CancelToken> {
        let live = self.attempt_is_live(tile, attempt);
        let run = self.run.as_mut().filter(|_| live)?;
        if let Some(Slot::Dispatched { attempt, retries }) = run.slots.get_mut(&tile) {
            *attempt += 1;
            retries.extend(retry);
        }
        Some(run.cancel.clone())
    }

    /// Takes `resolution` as the verdict of a dispatched, unresolved
    /// tile of a running job — with the `retries` reported alongside
    /// it, else the locally recorded ones — and commits whatever now
    /// heads the commit order. `false`, and no change, when the job is
    /// not running or the tile is not waiting for a verdict: never
    /// dispatched, already resolved, already committed.
    fn resolve(
        &mut self,
        tile: usize,
        retries: Vec<TileRetry>,
        resolution: TileResolution,
    ) -> bool {
        let JobMut {
            state: JobState::Running,
            run: Some(run),
            events,
            outcomes,
            tiles,
            ..
        } = self
        else {
            return false;
        };
        let Some(Slot::Dispatched {
            retries: logged, ..
        }) = run.slots.get_mut(&tile)
        else {
            return false;
        };
        let retries = if retries.is_empty() {
            std::mem::take(logged)
        } else {
            retries
        };
        run.slots.insert(
            tile,
            Slot::Resolved {
                retries,
                resolution,
            },
        );
        // Commit strictly in ascending tile order — the head tile's
        // retries, then its terminal event — so every event a fixed
        // fault plan produces lands in the same order at any worker
        // count. Shard-dispatched jobs append every commit, retries and
        // all, to the outcome log a coordinator replays byte-identically.
        let mut emit = |kind| {
            events.push(JobEvent {
                seq: events.len() as u64,
                kind,
            })
        };
        while let Some(tile) = run.head {
            if !matches!(run.slots.get(&tile), Some(Slot::Resolved { .. })) {
                break; // the head is still computing; everything above it waits
            }
            let Some(Slot::Resolved {
                retries,
                resolution,
            }) = run.slots.remove(&tile)
            else {
                unreachable!("matched above")
            };
            for r in &retries {
                let (attempt, backoff_vms, reason) = (r.attempt, r.backoff_vms, r.reason.clone());
                emit(JobEventKind::TileRetry {
                    tile,
                    attempt,
                    backoff_vms,
                    reason,
                });
            }
            let committed = match resolution {
                TileResolution::Done {
                    partial,
                    ckpt_degraded,
                    cache,
                } => {
                    if ckpt_degraded {
                        emit(JobEventKind::CkptDegraded { tile });
                    }
                    match cache {
                        TileCacheMark::Hit => emit(JobEventKind::TileCacheHit { tile }),
                        TileCacheMark::Stored => emit(JobEventKind::TileCacheStore { tile }),
                        TileCacheMark::None => {}
                    }
                    if let Some(outcomes) = outcomes {
                        let data = encode_tile_partial(&partial);
                        let kind = TileOutcomeKind::Done {
                            data,
                            ckpt_degraded,
                            cache,
                        };
                        outcomes.push(TileOutcome {
                            tile,
                            retries,
                            kind,
                        });
                    }
                    let cached = cache == TileCacheMark::Hit;
                    tiles.done += 1;
                    tiles.cached += usize::from(cached);
                    emit(JobEventKind::TileDone {
                        tile,
                        completed: tiles.done,
                        total: tiles.total,
                    });
                    Slot::Done { partial, cached }
                }
                TileResolution::Quarantined { attempts, reason } => {
                    if let Some(outcomes) = outcomes {
                        let kind = TileOutcomeKind::Quarantined {
                            attempts,
                            reason: reason.clone(),
                        };
                        outcomes.push(TileOutcome {
                            tile,
                            retries,
                            kind,
                        });
                    }
                    tiles.quarantined += 1;
                    let entry = QuarantinedTile {
                        tile,
                        attempts,
                        reason: reason.clone(),
                    };
                    emit(JobEventKind::TileQuarantined {
                        tile,
                        attempts,
                        reason,
                    });
                    Slot::Quarantined(entry)
                }
            };
            run.slots.insert(tile, committed);
            let pending =
                |slot: &Slot| matches!(slot, Slot::Dispatched { .. } | Slot::Resolved { .. });
            run.head = run
                .slots
                .range(tile + 1..)
                .find(|(_, s)| pending(s))
                .map(|(&t, _)| t);
        }
        true
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
        Arc::new(Job {
            id,
            dir,
            m: Mutex::new(m),
            cv: Condvar::new(),
        })
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
        tiles_total: m.tiles.total,
        tiles_done: m.tiles.done,
        tiles_quarantined: m.tiles.quarantined,
        tiles_cached: m.tiles.cached,
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
    // The run of a running job whose every dispatched tile has committed.
    fn drained(m: &JobMut) -> Option<&Run> {
        m.run
            .as_ref()
            .filter(|run| m.state == JobState::Running && run.head.is_none())
    }
    let surviving: Vec<TilePartial> = match drained(&job.m.lock().expect("job lock")) {
        Some(run) => run.partials().cloned().collect(),
        None => return,
    };
    let merged = ctx.merge(&surviving);
    let mut m = job.m.lock().expect("job lock");
    let Some(run) = drained(&m) else { return };
    let manifest = run.slots.values().filter_map(|slot| match slot {
        Slot::Quarantined(q) => Some(q.clone()),
        _ => None,
    });
    let quarantined: Vec<QuarantinedTile> = manifest.collect();
    match merged {
        Ok(mut report) => {
            report.quarantined = quarantined;
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
            m.set_state(if clean {
                JobState::Done
            } else {
                JobState::Partial
            });
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

/// The spec + GDS bytes a puller re-dispatches to a shard; `None` once
/// the job has finished and let them go.
pub(crate) fn shard_payload(job: &Arc<Job>) -> Option<(JobSpec, Vec<u8>)> {
    let m = job.m.lock().expect("job lock");
    m.run.as_ref().map(|run| (m.spec.clone(), run.gds.clone()))
}

/// Installs the current shard-dispatch epoch on a coordinated job.
pub(crate) fn set_shard_run(job: &Arc<Job>, epoch: Arc<ShardRun>) {
    if let Some(run) = &mut job.m.lock().expect("job lock").run {
        run.shard_run = Some(epoch);
    }
}

/// True while `run` is still the job's current epoch and the job is
/// still running — the staleness guard puller threads re-check every
/// cycle, so a cancel or resume retires them within one pull.
pub(crate) fn shard_run_live(job: &Arc<Job>, run: &Arc<ShardRun>) -> bool {
    let m = job.m.lock().expect("job lock");
    let epoch = m.run.as_ref().and_then(|r| r.shard_run.as_ref());
    m.state == JobState::Running && epoch.is_some_and(|r| Arc::ptr_eq(r, run))
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
        TileOutcomeKind::Done {
            data,
            ckpt_degraded,
            cache,
        } => match decode_tile_partial(data, tile) {
            Some(partial) => {
                if let Some(dir) = &job.dir {
                    let _ = dir.write_tile_probed(&partial, shared.plane.as_deref(), 0);
                }
                TileResolution::Done {
                    partial,
                    ckpt_degraded: *ckpt_degraded,
                    cache: *cache,
                }
            }
            None => TileResolution::Quarantined {
                attempts: 0,
                reason: format!("tile {tile}: undecodable shard result"),
            },
        },
        TileOutcomeKind::Quarantined { attempts, reason } => TileResolution::Quarantined {
            attempts: *attempts,
            reason: reason.clone(),
        },
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
        let verdict = TileResolution::Quarantined {
            attempts: 0,
            reason,
        };
        resolve_tile(shared, job, ctx, tile, Vec::new(), verdict);
    }
}

/// The one way a tile result enters a job. Parks `resolution` (and
/// any `retries` reported with it — locally recorded ones already sit
/// in the tile's slot) for commit-ordered emission, releases the tile's
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
    if !job
        .m
        .lock()
        .expect("job lock")
        .resolve(tile, retries, resolution)
    {
        return;
    }
    job.cv.notify_all();
    // The guard above makes this the tile's single resolution, so the
    // scheduler release runs exactly once per tile. A tile that never
    // entered a lane (cache hit, shard outcome) credits the job's
    // unassigned admission budget instead of an in-flight slot.
    sched_resolved(shared, job.id, tile);
    try_finalize(shared, job, ctx);
}

#[cfg(test)]
mod tests {
    //! The slot map alone: a job with no context, GDS, service or pool
    //! behind it, driven through the methods every caller uses.
    use super::*;

    fn partial(tile: usize) -> TilePartial {
        TilePartial {
            tile,
            drc: Vec::new(),
            ca: None,
            litho: None,
            rects_peak: 0,
        }
    }

    fn done(tile: usize, cache: TileCacheMark) -> TileResolution {
        TileResolution::Done {
            partial: partial(tile),
            ckpt_degraded: false,
            cache,
        }
    }

    fn boom() -> TileResolution {
        TileResolution::Quarantined {
            attempts: 3,
            reason: "boom".to_string(),
        }
    }

    fn retry(attempt: u64) -> TileRetry {
        TileRetry {
            attempt,
            backoff_vms: 8 << attempt,
            reason: format!("r{attempt}"),
        }
    }

    fn running(tiles: &[usize]) -> JobMut {
        let mut m = JobMut::fresh(JobSpec::default(), Vec::new(), None, JobState::Queued);
        m.begin(tiles).expect("a fresh job holds its run");
        m
    }

    /// The tile events so far, one word each.
    fn committed(m: &JobMut) -> Vec<String> {
        let word = |e: &JobEvent| match &e.kind {
            JobEventKind::TileRetry { tile, attempt, .. } => {
                Some(format!("retry {tile}/{attempt}"))
            }
            JobEventKind::TileDone {
                tile, completed, ..
            } => Some(format!("done {tile} #{completed}")),
            JobEventKind::TileQuarantined { tile, .. } => Some(format!("quarantined {tile}")),
            JobEventKind::TileCacheHit { tile } => Some(format!("hit {tile}")),
            _ => None,
        };
        m.events.iter().filter_map(word).collect()
    }

    fn counts(m: &JobMut) -> (usize, usize, usize) {
        (m.tiles.done, m.tiles.quarantined, m.tiles.cached)
    }

    fn tiles_of<'a>(partials: impl IntoIterator<Item = &'a TilePartial>) -> Vec<usize> {
        partials.into_iter().map(|p| p.tile).collect()
    }

    fn manifest(run: &Run) -> Vec<usize> {
        let quarantined = run
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Quarantined(_)));
        quarantined.map(|(&tile, _)| tile).collect()
    }

    #[test]
    fn resolutions_in_any_order_commit_ascending_with_retries_first() {
        let expect = [
            "done 0 #1",
            "retry 1/0",
            "retry 1/1",
            "done 1 #2",
            "retry 2/0",
            "quarantined 2",
            "done 3 #3",
        ];
        let mut orders = vec![vec![]];
        for _ in 0..4 {
            orders = orders
                .into_iter()
                .flat_map(|o: Vec<usize>| {
                    (0..4)
                        .filter(|t| !o.contains(t))
                        .map(|t| [o.clone(), vec![t]].concat())
                        .collect::<Vec<_>>()
                })
                .collect();
        }
        assert_eq!(orders.len(), 24);
        for order in orders {
            let mut m = running(&[0, 1, 2, 3]);
            // Tile 2 fails once locally; tile 1's retries arrive with
            // its verdict, as a shard reports them.
            assert!(m.record_retry(2, 0, Some(retry(0))).is_some());
            for &tile in &order {
                let (reported, verdict) = match tile {
                    1 => (vec![retry(0), retry(1)], done(1, TileCacheMark::None)),
                    2 => (Vec::new(), boom()),
                    t => (Vec::new(), done(t, TileCacheMark::None)),
                };
                assert!(m.resolve(tile, reported, verdict), "{order:?}: tile {tile}");
                let so_far = committed(&m);
                assert_eq!(
                    so_far[..],
                    expect[..so_far.len()],
                    "{order:?}: a prefix, in order"
                );
                let prefix = m.prefix();
                assert!(
                    tiles_of(&prefix).into_iter().eq(0..prefix.len()),
                    "{order:?}"
                );
            }
            assert_eq!(committed(&m), expect, "{order:?}");
            let run = m.run.as_ref().expect("run");
            assert_eq!(run.head, None, "{order:?}: nothing left to commit");
            assert_eq!(
                tiles_of(&m.prefix()),
                [0, 1],
                "the prefix stops at the quarantined tile"
            );
            assert_eq!(tiles_of(run.partials()), [0, 1, 3]);
            assert_eq!(manifest(run), [2]);
            assert_eq!(counts(&m), (3, 1, 0));
        }
    }

    #[test]
    fn stale_attempts_duplicate_verdicts_and_verdicts_after_quarantine_are_no_ops() {
        let mut m = running(&[0, 1, 2]);
        assert!(m.record_retry(1, 0, Some(retry(0))).is_some());
        assert!(
            m.attempt_is_live(1, 1) && !m.attempt_is_live(1, 0),
            "attempt 1 took tile 1 over"
        );
        assert!(m.resolve(0, Vec::new(), done(0, TileCacheMark::None)));
        assert!(m.resolve(1, Vec::new(), boom()));
        let settled = (committed(&m), counts(&m));
        assert_eq!(settled.0, ["done 0 #1", "retry 1/0", "quarantined 1"]);

        // The stale attempt 0 of tile 1 reporting in again, either way.
        assert!(m.record_retry(1, 0, Some(retry(0))).is_none());
        assert!(m.record_retry(1, 0, None).is_none());
        // A duplicate verdict for the committed tile 0.
        assert!(!m.resolve(0, vec![retry(0)], done(0, TileCacheMark::Hit)));
        // Attempt 1 of tile 1 finishing (or failing) after the quarantine.
        assert!(!m.attempt_is_live(1, 1));
        assert!(!m.resolve(1, Vec::new(), done(1, TileCacheMark::None)));
        assert!(m.record_retry(1, 1, Some(retry(1))).is_none());
        // A tile this run never dispatched.
        assert!(!m.resolve(7, Vec::new(), done(7, TileCacheMark::None)));
        assert_eq!((committed(&m), counts(&m)), settled);
        assert_eq!(
            m.run.as_ref().expect("run").head,
            Some(2),
            "tile 2 is still the one awaited"
        );

        // A verdict parked behind the head is taken once, too.
        let mut m = running(&[0, 1]);
        assert!(m.resolve(1, Vec::new(), done(1, TileCacheMark::None)));
        assert!(!m.resolve(1, Vec::new(), boom()));
        assert!(!m.attempt_is_live(1, 0));
        // And a job that stopped running takes nothing.
        m.cancel_queued();
        assert!(!m.attempt_is_live(0, 0), "cancelled token");
        m.set_state(JobState::Cancelled);
        assert!(!m.resolve(0, Vec::new(), done(0, TileCacheMark::None)));
        assert!(m.record_retry(0, 0, Some(retry(0))).is_none());
        assert_eq!(committed(&m), Vec::<String>::new());
    }

    #[test]
    fn begin_over_a_subset_resets_exactly_those_tiles() {
        let mut m = running(&[0, 1, 2, 3]);
        assert!(m.resolve(0, Vec::new(), done(0, TileCacheMark::Hit)));
        assert!(m.resolve(1, Vec::new(), boom()));
        assert!(m.resolve(2, Vec::new(), done(2, TileCacheMark::Hit)));
        assert!(m.resolve(3, Vec::new(), done(3, TileCacheMark::Stored)));
        assert_eq!(counts(&m), (3, 1, 2));
        m.set_state(JobState::Partial);
        assert_eq!(m.rearm(4), [1], "a resume redoes what has no partial");

        // Re-dispatching the quarantined tile 1 and the cached tile 2
        // clears their marks (and tile 2's partial); 0 and 3 keep theirs.
        m.begin(&[1, 2]).expect("run");
        assert_eq!(counts(&m), (2, 0, 1));
        let run = m.run.as_ref().expect("run");
        assert_eq!(tiles_of(run.partials()), [0, 3]);
        assert!(manifest(run).is_empty());
        assert_eq!(run.head, Some(1));
        assert!(
            m.attempt_is_live(1, 0) && m.attempt_is_live(2, 0),
            "fresh attempt budgets"
        );
        assert!(!m.attempt_is_live(0, 0) && !m.attempt_is_live(3, 0));
        let before = committed(&m).len();
        assert!(m.resolve(2, Vec::new(), done(2, TileCacheMark::None)));
        assert!(m.resolve(1, Vec::new(), done(1, TileCacheMark::None)));
        assert_eq!(committed(&m)[before..], ["done 1 #3", "done 2 #4"]);
        assert_eq!(counts(&m), (4, 0, 1));

        // What a cancelled run left uncommitted — a verdict parked
        // behind a tile still computing — is forgotten by the next run.
        let mut m = running(&[0, 1, 2]);
        assert!(m.record_retry(0, 0, Some(retry(0))).is_some());
        assert!(m.resolve(2, Vec::new(), done(2, TileCacheMark::None)));
        m.set_state(JobState::Cancelled);
        assert_eq!(m.rearm(3), [0, 1, 2]);
        m.begin(&[0, 1, 2]).expect("run");
        assert!(m.attempt_is_live(0, 0) && m.attempt_is_live(2, 0));
        assert!(m.resolve(0, Vec::new(), done(0, TileCacheMark::None)));
        assert!(m.resolve(1, Vec::new(), done(1, TileCacheMark::None)));
        assert_eq!(
            committed(&m),
            ["done 0 #1", "done 1 #2"],
            "no old retry, no old verdict"
        );
        assert_eq!(m.run.as_ref().expect("run").head, Some(2));
    }

    #[test]
    fn done_and_failed_drop_the_run_and_keep_the_answer() {
        for gone in [JobState::Done, JobState::Failed] {
            let mut m = running(&[0]);
            assert!(m.resolve(0, Vec::new(), done(0, TileCacheMark::Hit)));
            m.set_state(gone);
            assert!(m.run.is_none() && m.ctx().is_err());
            assert_eq!(counts(&m), (1, 0, 1), "the counters are part of the answer");
            assert_eq!(committed(&m), ["hit 0", "done 0 #1"]);
            assert!(m.begin(&[0]).is_none() && m.rearm(1).is_empty());
        }
        for kept in [JobState::Partial, JobState::Cancelled] {
            let mut m = running(&[0]);
            m.set_state(kept);
            assert!(m.run.is_some());
        }
    }
}
