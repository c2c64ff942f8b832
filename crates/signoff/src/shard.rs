//! Horizontal tile-range sharding: a coordinator fans one job out to
//! N shard servers over the v2 wire protocol and merges their ordered
//! outcome streams back through the exact commit machinery a single
//! process uses — so the coordinator's event stream, report, and
//! digests are byte-identical to a single-process run at any shard
//! count, worker count, and cache temperature.
//!
//! # Partition function
//!
//! Shard `k` of `n` owns the contiguous half-open tile range
//! `[k*t/n, (k+1)*t/n)` of a `t`-tile job ([`partition_range`]) — the
//! same balanced integer split at every participant, so the owner of a
//! tile ([`owner_of`]) is a pure function of `(t, n, k)` and never a
//! negotiation.
//!
//! # Merge invariant
//!
//! A shard runs its range as an ordinary local job and records, per
//! committed tile, a [`TileOutcome`]: the retries that preceded the
//! commit, then either the encoded partial (with its checkpoint/cache
//! marks) or the quarantine verdict. The coordinator ingests outcomes
//! into the same per-tile slots local attempts feed
//! (`service::commit`), so events still commit in ascending tile order
//! and the report merge folds the identical partial set — which tiles
//! ran where is unobservable in the bytes.
//!
//! # Failure matrix
//!
//! Coordinator↔shard sockets are first-class fault sites
//! ([`SITE_SHARD_DISPATCH`], [`SITE_SHARD_PULL`], [`SITE_COORD_INGEST`]).
//! Any puller failure (injected or real — connect refusal, torn frame,
//! or settled shard with unreported tiles) declares that shard dead:
//! its outstanding tiles re-dispatch to the lowest-indexed surviving
//! shard under a bumped generation (recovering through the tile cache
//! where warm), and when no shard survives the lost tiles quarantine
//! with a per-shard `shard {k} lost: …` manifest and the job settles
//! `Partial`. A killed coordinator resumes from its checkpoint root:
//! pullers re-attach to the shards' retained `(origin, gen)` jobs and
//! replay outcome logs from the last merged prefix.
//!
//! # Liveness
//!
//! A shard is alive while it answers its pulls. A pull that fails — a
//! transport error once the client's reconnect budget is spent (each
//! exchange bounded by the 10 s socket timeout) or an injected
//! [`SITE_SHARD_PULL`] drop — is a loss, as is a shard that settles
//! with tiles unreported. A pull waits at the head for the next outcome
//! or the settle; an idle shard answers with none after one second.
//!
//! # Planned drain handoff
//!
//! A shard whose service is draining (`shutdown --drain`) settles its
//! shard jobs and raises the `draining` flag on pulls. The puller
//! drains every flushed outcome first, then hands the remainder to a
//! survivor as a *planned handoff*: counted in
//! [`ShardStats::tiles_drained`] (never `tiles_redispatched`), no loss
//! manifest, no loss adjudication. The generation still bumps — the
//! survivor needs a fresh `(coord, origin, gen)` idempotency key — but
//! the churn a real loss causes (loss diagnostics, quarantine
//! adjudication) is skipped entirely.

use crate::client::{Client, RequestError};
use crate::job::JobContext;
use crate::proto::{ErrorCode, ErrorObj};
use crate::service::{
    ingest_shard_outcome, quarantine_lost_tiles, set_shard_run, shard_payload, shard_run_live, Job,
    RunShared,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fault site: a coordinator's dispatch/attach exchange with one
/// shard. Keyed by shard index; `attempt` is the dispatch generation.
pub const SITE_SHARD_DISPATCH: &str = "coord.dispatch";

/// Fault site: one coordinator pull from one shard's outcome stream.
/// Keyed by shard index; `attempt` is the pull counter on that
/// `(shard, generation)` — a firing `Drop` rule fails the puller, so
/// the shard is declared dead and its outstanding range re-dispatched.
pub const SITE_SHARD_PULL: &str = "coord.pull";

/// Crash site: the coordinator dies after pulling a shard outcome but
/// before ingesting it into the merge prefix. Keyed by shard index;
/// `attempt` is the per-puller ingest counter. Recovery replays the
/// shard's retained outcome log from the last merged prefix, so the
/// un-ingested outcome is never lost.
pub const SITE_COORD_INGEST: &str = "coord.ingest";

/// The half-open tile range `[k*total/n, (k+1)*total/n)` shard `k` of
/// `n` owns — contiguous, disjoint, covering `[0, total)`, and with
/// per-shard sizes differing by at most one tile.
pub fn partition_range(total: usize, n: u64, k: u64) -> (usize, usize) {
    let (total, n, k) = (total as u64, n.max(1), k);
    let lo = (k * total) / n;
    let hi = ((k + 1) * total) / n;
    (lo as usize, hi as usize)
}

/// The shard index (`0..n`) that owns `tile` under
/// [`partition_range`].
pub fn owner_of(total: usize, n: u64, tile: usize) -> u64 {
    let n = n.max(1);
    (0..n)
        .find(|&k| tile < partition_range(total, n, k).1)
        .unwrap_or(n - 1)
}

/// Compresses an ascending tile set into minimal half-open
/// `(lo, hi)` ranges — the wire shape of a dispatched tile set.
pub fn compress_ranges(tiles: impl IntoIterator<Item = usize>) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for t in tiles {
        match out.last_mut() {
            Some((_, hi)) if *hi == t => *hi = t + 1,
            _ => out.push((t, t + 1)),
        }
    }
    out
}

/// Expands half-open ranges back into the ascending tile list,
/// validating shape and bounds.
///
/// # Errors
///
/// Empty or inverted ranges, out-of-order ranges, and ranges past
/// `total`.
pub fn expand_ranges(ranges: &[(usize, usize)], total: usize) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    let mut floor = 0;
    for &(lo, hi) in ranges {
        if lo >= hi {
            return Err(format!("empty tile range [{lo}, {hi})"));
        }
        if lo < floor {
            return Err(format!(
                "tile range [{lo}, {hi}) overlaps or is out of order"
            ));
        }
        if hi > total {
            return Err(format!("tile range [{lo}, {hi}) exceeds {total} tiles"));
        }
        out.extend(lo..hi);
        floor = hi;
    }
    Ok(out)
}

/// One retry a shard recorded ahead of a tile's commit — replayed by
/// the coordinator as the identical `TileRetry` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileRetry {
    /// The failed attempt (0-based).
    pub attempt: u64,
    /// Virtual-clock backoff recorded for the retry.
    pub backoff_vms: u64,
    /// The failure's diagnostic.
    pub reason: String,
}

/// How a shard-side tile result interacted with the shard's cache —
/// replayed so cold/warm coordinator event streams stay byte-identical
/// to single-process runs at the same cache temperature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileCacheMark {
    /// Served from the shard's cache.
    Hit,
    /// Computed and stored into the shard's cache.
    Stored,
    /// Computed; not cached.
    None,
}

/// A committed tile's terminal verdict on the shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TileOutcomeKind {
    /// The tile completed; `data` is the framed partial
    /// ([`crate::checkpoint::encode_tile_partial`]).
    Done {
        /// Encoded [`crate::TilePartial`] bytes.
        data: Vec<u8>,
        /// Every checkpoint-write attempt failed on the shard.
        ckpt_degraded: bool,
        /// The shard-side cache interaction.
        cache: TileCacheMark,
    },
    /// The tile exhausted its attempt budget on the shard.
    Quarantined {
        /// Failed attempts consumed.
        attempts: u64,
        /// The last failure's diagnostic.
        reason: String,
    },
}

/// One entry of a shard job's monotonic outcome log: everything the
/// coordinator needs to replay the tile's commit byte-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileOutcome {
    /// The committed tile's index.
    pub tile: usize,
    /// Retries that preceded the commit, in attempt order.
    pub retries: Vec<TileRetry>,
    /// The terminal verdict.
    pub kind: TileOutcomeKind,
}

/// What a shard answered a dispatch or attach with: the shard-local
/// job id to pull outcomes from, plus the range it acknowledges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardGrant {
    /// The shard-local job id ([`crate::SignoffService::shard_outcomes`]).
    pub job: u64,
    /// Total tiles of the full job, as the shard computed it — a
    /// partition sanity check for the coordinator.
    pub total: usize,
    /// The half-open tile ranges the shard owns for this job.
    pub ranges: Vec<(usize, usize)>,
    /// True when the dispatch keyed an already-known `(origin, gen)` —
    /// the idempotent re-attach a restarted coordinator relies on.
    pub attached: bool,
}

/// Coordinator-side counters, published as bench gauges and by the
/// `coordinate` CLI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards this coordinator fans out to.
    pub shards: usize,
    /// Tiles re-dispatched to a surviving shard after a shard loss.
    pub tiles_redispatched: u64,
    /// Tiles handed off to a surviving shard after a planned drain.
    pub tiles_drained: u64,
}

/// The fixed shard roster of a coordinating service.
pub(crate) struct ShardSet {
    pub(crate) addrs: Vec<String>,
    /// This coordinator's identity, part of every shard frame's
    /// idempotency key — two coordinator instances that happen to mint
    /// the same job id can never collide on a shared shard. Stable
    /// across restarts of a checkpointed coordinator (derived from its
    /// checkpoint root), unique per instance otherwise.
    pub(crate) coord: u64,
    pub(crate) redispatched: AtomicU64,
    pub(crate) drained: AtomicU64,
}

impl ShardSet {
    pub(crate) fn new(addrs: Vec<String>, coord: u64) -> ShardSet {
        ShardSet {
            addrs,
            coord,
            redispatched: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }
}

/// One dispatch epoch of one coordinated job: which shards are still
/// believed alive and which tiles each one still owes. A cancel or
/// resume replaces the job's run, and stale pullers notice via
/// pointer identity ([`shard_run_live`]).
pub(crate) struct ShardRun {
    state: Mutex<RunState>,
}

struct RunState {
    /// Bumped on every takeover, so re-dispatches key fresh
    /// `(origin, gen)` jobs on the target shard.
    gen: u64,
    alive: Vec<bool>,
    /// Tiles not yet ingested, per shard.
    outstanding: Vec<BTreeSet<usize>>,
}

impl ShardRun {
    fn finish_tile(&self, shard: usize, tile: usize) {
        let mut st = self.state.lock().expect("shard run lock");
        st.outstanding[shard].remove(&tile);
    }
}

/// Fans the dispatched tiles out across the shard roster by
/// [`owner_of`] and starts one puller thread per non-empty shard.
/// Called from `SignoffService::dispatch` with no job lock held.
pub(crate) fn dispatch_to_shards(
    shared: &Arc<RunShared>,
    set: &Arc<ShardSet>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    tiles: &[usize],
) {
    let n = set.addrs.len();
    let total = ctx.tile_count();
    let mut owned: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for &t in tiles {
        owned[owner_of(total, n as u64, t) as usize].insert(t);
    }
    let run = Arc::new(ShardRun {
        state: Mutex::new(RunState {
            gen: 0,
            alive: vec![true; n],
            outstanding: owned.clone(),
        }),
    });
    set_shard_run(job, Arc::clone(&run));
    for (k, mine) in owned.into_iter().enumerate() {
        if !mine.is_empty() {
            spawn_puller(shared, set, &run, job, ctx, k, 0, mine);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_puller(
    shared: &Arc<RunShared>,
    set: &Arc<ShardSet>,
    run: &Arc<ShardRun>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    shard: usize,
    gen: u64,
    mine: BTreeSet<usize>,
) {
    let (shared, set, run, job, ctx) = (
        Arc::clone(shared),
        Arc::clone(set),
        Arc::clone(run),
        Arc::clone(job),
        Arc::clone(ctx),
    );
    std::thread::spawn(move || {
        match puller_loop(
            &shared,
            &run,
            &job,
            &ctx,
            &set.addrs[shard],
            set.coord,
            shard,
            gen,
            mine.clone(),
        ) {
            Ok(()) => {}
            Err(end) => handle_shard_end(&shared, &set, &run, &job, &ctx, shard, end),
        }
    });
}

/// Why a puller gave up on its shard.
enum PullerEnd {
    /// The shard is dead (a failed or unanswered pull, an injected
    /// fault, or settled with unreported tiles) — adjudicate a loss.
    Loss(String),
    /// The shard's service is draining — a planned handoff, not a
    /// failure.
    Drained,
}

/// Streams one shard's outcome log into the coordinator job until the
/// shard has delivered every tile this puller owns. `Ok(())` means
/// either full delivery or a benign exit (the run was superseded by a
/// cancel/resume); `Err` is either a shard death or a planned drain
/// handoff ([`PullerEnd`]).
///
/// Loss diagnostics name shards by roster index, never by socket
/// address: the quarantine manifest of a degraded job must not vary
/// with ephemeral ports. The address only reaches stderr.
#[allow(clippy::too_many_arguments)]
fn puller_loop(
    shared: &Arc<RunShared>,
    run: &Arc<ShardRun>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    addr: &str,
    coord: u64,
    shard: usize,
    gen: u64,
    mut mine: BTreeSet<usize>,
) -> Result<(), PullerEnd> {
    if let Some(plane) = &shared.plane {
        plane
            .maybe_error(SITE_SHARD_DISPATCH, shard as u64, gen)
            .map_err(|e| PullerEnd::Loss(format!("dispatch to shard {shard}: {e}")))?;
    }
    let mut client = Client::builder()
        .timeout(Duration::from_secs(10))
        .connect(addr)
        .map_err(|e| {
            eprintln!("coordinator: shard {shard} ({addr}) unreachable: {e}");
            PullerEnd::Loss(format!("shard {shard}: connect failed"))
        })?;
    let origin = job.id;
    // Re-attach first: a restarted coordinator (or a reconnecting
    // puller) finds the shard's retained (coord, origin, gen) job and
    // replays its outcome log instead of recomputing. A miss falls back
    // to the full dispatch carrying exactly this puller's tile ranges.
    let grant = match client.shard_attach(coord, origin, gen) {
        Ok(grant) => grant,
        Err(_) => {
            // A finished job has let its GDS go: this puller is stale.
            let Some((spec, gds)) = shard_payload(job) else {
                return Ok(());
            };
            let ranges = compress_ranges(mine.iter().copied());
            // A drain is the shard's typed refusal code, never a word
            // in its diagnostic (a tenant may well be named `draining`).
            // The manifest carries the bare message, as it always has.
            client
                .shard_dispatch(coord, origin, gen, spec, gds, Some(ranges))
                .map_err(|e| match e {
                    RequestError::Server(ErrorObj {
                        code: ErrorCode::Draining,
                        ..
                    }) => PullerEnd::Drained,
                    e => PullerEnd::Loss(format!("dispatch to shard {shard}: {}", String::from(e))),
                })?
        }
    };
    if grant.total != ctx.tile_count() {
        return Err(PullerEnd::Loss(format!(
            "shard {shard} computed {} tiles, coordinator expects {}",
            grant.total,
            ctx.tile_count()
        )));
    }
    let mut since = 0;
    let mut pulls = 0;
    let mut ingested = 0;
    loop {
        if let Some(plane) = &shared.plane {
            if plane.should_drop(SITE_SHARD_PULL, shard as u64, pulls) {
                return Err(PullerEnd::Loss(format!(
                    "pull from shard {shard}: injected socket drop"
                )));
            }
        }
        pulls += 1;
        let (outcomes, next, settled, draining) = client
            .shard_pull(grant.job, since)
            .map_err(|e| PullerEnd::Loss(format!("pull from shard {shard}: {e}")))?;
        if !shard_run_live(job, run) {
            return Ok(()); // a cancel/resume superseded us while the pull waited
        }
        since = next;
        for outcome in &outcomes {
            if !mine.remove(&outcome.tile) {
                continue; // another generation's tile, or a duplicate
            }
            if let Some(plane) = &shared.plane {
                // Coordinator death between pull and merge: the
                // outcome stays in the shard's retained log, so the
                // restarted coordinator replays it on re-attach.
                if plane.crash_point(SITE_COORD_INGEST, shard as u64, ingested) {
                    return Err(PullerEnd::Loss(format!(
                        "injected crash at {SITE_COORD_INGEST} before merging tile {} from shard {shard}",
                        outcome.tile
                    )));
                }
            }
            ingested += 1;
            ingest_shard_outcome(shared, job, ctx, outcome);
            run.finish_tile(shard, outcome.tile);
        }
        if mine.is_empty() {
            return Ok(());
        }
        if settled {
            // A draining shard settles its jobs on purpose; every
            // flushed outcome was just drained above, so the remainder
            // is a planned handoff, not a loss.
            if draining {
                return Err(PullerEnd::Drained);
            }
            return Err(PullerEnd::Loss(format!(
                "shard {shard} settled with {} tiles unreported",
                mine.len()
            )));
        }
    }
}

/// Adjudicates a shard that stopped serving its range: exactly one
/// caller (the shard's failed puller) takes its outstanding tiles — to
/// the lowest-indexed surviving shard under a bumped generation, or
/// into per-tile quarantine (`shard {k} lost: …`) when no shard
/// survives. A planned drain ([`PullerEnd::Drained`]) rides the same
/// takeover but is accounted separately (`tiles_drained`) and never
/// logged as a loss.
fn handle_shard_end(
    shared: &Arc<RunShared>,
    set: &Arc<ShardSet>,
    run: &Arc<ShardRun>,
    job: &Arc<Job>,
    ctx: &Arc<JobContext>,
    shard: usize,
    end: PullerEnd,
) {
    let (err, planned) = match &end {
        PullerEnd::Loss(e) => (e.clone(), false),
        PullerEnd::Drained => (format!("shard {shard} draining"), true),
    };
    let err = err.as_str();
    // Exactly one caller wins the dead shard's tiles: mem::take under
    // the lock empties the set, so a racing second puller failure on
    // the same shard finds nothing and returns.
    enum Takeover {
        Redispatch {
            target: usize,
            gen: u64,
            lost: BTreeSet<usize>,
        },
        Quarantine {
            lost: BTreeSet<usize>,
        },
    }
    let takeover = {
        let mut st = run.state.lock().expect("shard run lock");
        st.alive[shard] = false;
        let lost = std::mem::take(&mut st.outstanding[shard]);
        if lost.is_empty() {
            return;
        }
        match st.alive.iter().position(|&a| a) {
            Some(target) => {
                st.gen += 1;
                st.outstanding[target].extend(lost.iter().copied());
                Takeover::Redispatch {
                    target,
                    gen: st.gen,
                    lost,
                }
            }
            None => Takeover::Quarantine { lost },
        }
    };
    if !shard_run_live(job, run) {
        return; // a cancel/resume superseded this epoch; nothing to save
    }
    match takeover {
        Takeover::Redispatch { target, gen, lost } => {
            if planned {
                set.drained.fetch_add(lost.len() as u64, Ordering::SeqCst);
                eprintln!(
                    "coordinator: shard {shard} draining; handing {} tiles to shard {target} (gen {gen})",
                    lost.len()
                );
            } else {
                set.redispatched
                    .fetch_add(lost.len() as u64, Ordering::SeqCst);
                eprintln!(
                    "coordinator: shard {shard} lost ({err}); re-dispatching {} tiles to shard {target} (gen {gen})",
                    lost.len()
                );
            }
            spawn_puller(shared, set, run, job, ctx, target, gen, lost);
        }
        Takeover::Quarantine { lost } => {
            quarantine_lost_tiles(shared, job, ctx, shard, err, &lost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_disjointly_and_balances() {
        for total in [0usize, 1, 5, 16, 17, 97] {
            for n in [1u64, 2, 3, 5, 8, 16] {
                let mut seen = Vec::new();
                let mut sizes = Vec::new();
                for k in 0..n {
                    let (lo, hi) = partition_range(total, n, k);
                    assert!(lo <= hi && hi <= total, "t={total} n={n} k={k}");
                    seen.extend(lo..hi);
                    sizes.push(hi - lo);
                }
                assert_eq!(seen, (0..total).collect::<Vec<_>>(), "t={total} n={n}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(
                    max - min <= 1,
                    "balanced split: t={total} n={n} sizes {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn owner_agrees_with_partition() {
        for total in [1usize, 7, 24, 97] {
            for n in [1u64, 2, 3, 7] {
                for tile in 0..total {
                    let k = owner_of(total, n, tile);
                    let (lo, hi) = partition_range(total, n, k);
                    assert!(
                        (lo..hi).contains(&tile),
                        "t={total} n={n} tile={tile} -> {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranges_compress_and_expand_round_trip() {
        let tiles = vec![0usize, 1, 2, 5, 6, 9];
        let ranges = compress_ranges(tiles.iter().copied());
        assert_eq!(ranges, vec![(0, 3), (5, 7), (9, 10)]);
        assert_eq!(expand_ranges(&ranges, 10), Ok(tiles));
        assert_eq!(compress_ranges(std::iter::empty()), Vec::new());
        assert!(expand_ranges(&[(3, 3)], 10).is_err(), "empty range");
        assert!(expand_ranges(&[(4, 3)], 10).is_err(), "inverted range");
        assert!(expand_ranges(&[(0, 2), (1, 4)], 10).is_err(), "overlap");
        assert!(expand_ranges(&[(8, 11)], 10).is_err(), "out of bounds");
    }
}
