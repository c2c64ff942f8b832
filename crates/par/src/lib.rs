//! # dfm-par — deterministic parallel execution substrate
//!
//! Every engine in this workspace is required to produce
//! **bit-identical output at any thread count** — the determinism
//! contract in `DESIGN.md`. This crate is the only place threads are
//! created: the [`WorkerPool`] that runs a signoff job's tiles, and two
//! scoped fork-join primitives, [`par_map`] and [`par_chunks_mut`],
//! whose results are combined in input order regardless of completion
//! order. The fork-join regions left are the ones that pay on a 2-core
//! host when a flat caller enters them at top level: the per-rule DRC
//! map, the litho raster bands, the pattern anchor scan, post-litho
//! timing extraction and the Monte-Carlo critical-area seed fan-outs.
//!
//! The contract has two halves, one provided here and one owed by the
//! caller:
//!
//! * **this crate** always delivers per-item / per-chunk results in
//!   input order, and partitions work purely by index (never by timing,
//!   never by which worker got there first);
//! * **the caller** must make each item/chunk computation a pure
//!   function of its index and inputs. RNG-consuming tasks take
//!   per-chunk seeds (`dfm_rand::Seed::derive(chunk_index)` or
//!   sequentially pre-forked generators), never a stream shared across
//!   chunks.
//!
//! Under those rules `DFM_THREADS=1` and `DFM_THREADS=64` produce the
//! same bits, which is what the cross-thread determinism suite at the
//! workspace root asserts end to end.
//!
//! ## Thread count
//!
//! [`thread_count`] resolves, in order: a scoped [`with_threads`]
//! override, the `DFM_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. A resolved count of 1 takes
//! a zero-overhead sequential path — no threads are spawned and no
//! result buffers are reordered.
//!
//! ## One level of parallelism
//!
//! Only the outermost parallel region fans out. Every thread this crate
//! creates — fork-join workers and [`WorkerPool`] workers alike — runs
//! under `with_threads(1, ..)`, so a region entered on a worker takes
//! the sequential path on that worker: a pool of `T` workers is exactly
//! `T` compute threads, whatever the tasks call. Because every region
//! yields the same bytes at any thread count, running a nested one
//! inline cannot change output. An explicit `with_threads(k, ..)` inside
//! a worker still wins for its scope.
//!
//! ```
//! let doubled = dfm_par::par_map(&[1, 2, 3, 4], |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//!
//! // Identical output at any thread count, by construction:
//! let squares = |t| dfm_par::with_threads(t, || dfm_par::par_map(&[0, 1, 2, 3], |i, &x| i * x));
//! assert_eq!(squares(1), squares(8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Scoped thread-count override; 0 means "no override".
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// `DFM_THREADS` parsed once per process (0 / unset / garbage → none).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("DFM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The machine's available parallelism, queried once per process (the
/// std call re-reads the affinity mask and cgroup quota every time).
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The number of worker threads a parallel region entered on this
/// thread will use: a [`with_threads`] override if one is active (always
/// the case on a `dfm-par` worker, which runs under an override of 1),
/// else `DFM_THREADS`, else the machine's available parallelism. Both
/// process-wide sources are read once.
pub fn thread_count() -> usize {
    let o = OVERRIDE.with(|c| c.get());
    if o > 0 {
        return o;
    }
    env_threads().unwrap_or_else(host_threads)
}

/// Runs `f` with the thread count pinned to `n` (for tests, benches and
/// the determinism suite). The override is scoped to this call and this
/// thread; workers spawned by a region inside it run at 1.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be at least 1");
    OVERRIDE.with(|c| {
        let prev = c.replace(n);
        let guard = RestoreOverride { prev };
        let out = f();
        drop(guard);
        out
    })
}

/// Restores the thread-local override even if the closure panics.
struct RestoreOverride {
    prev: usize,
}

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Joins every worker before reacting to any panic, then rethrows the
/// first panicking worker's payload on the calling thread — a single
/// clean unwind carrying the original message, instead of the scope's
/// generic "a scoped thread panicked".
fn join_all<R>(handles: Vec<std::thread::ScopedJoinHandle<'_, R>>) -> Vec<R> {
    let mut results = Vec::with_capacity(handles.len());
    let mut first_panic = None;
    for h in handles {
        match h.join() {
            Ok(r) => results.push(r),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    results
}

/// Fork-join over chunk indices `0..n_chunks`: `work(chunk)` runs on
/// some worker, results come back ordered by chunk index. The shared
/// cursor hands out chunks dynamically (load balance) but the output
/// position of each result is its index, so completion order is
/// invisible to the caller.
fn fork_join_indexed<R: Send>(
    n_chunks: usize,
    threads: usize,
    work: &(impl Fn(usize) -> R + Sync),
) -> Vec<R> {
    debug_assert!(threads > 1 && n_chunks > 1);
    let workers = threads.min(n_chunks);
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    // One level of parallelism: a region entered on
                    // this worker runs inline.
                    with_threads(1, || {
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n_chunks {
                                return mine;
                            }
                            mine.push((i, work(i)));
                        }
                    })
                })
            })
            .collect();
        join_all(handles)
    });
    // Ordered reduction: place every result at its input index.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    for (i, r) in collected.drain(..).flatten() {
        debug_assert!(slots[i].is_none());
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk produced a result"))
        .collect()
}

/// Maps `f(index, &item)` over `items`, returning results in input
/// order. Sequential when the effective thread count is 1. A caller
/// that wants chunks maps over `items.chunks(n)`: the partition (and
/// any per-chunk seed derived from its index) then depends only on
/// `n`, never on the thread count.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = thread_count();
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    fork_join_indexed(items.len(), threads, &|i| f(i, &items[i]))
}

/// Runs `f(chunk_index, element_offset, chunk)` over disjoint mutable
/// chunks of `data`, `chunk_len` elements each (the last chunk may be
/// short). `element_offset` is the index of the chunk's first element
/// in `data`. Used for row-band raster passes where each band owns a
/// contiguous span of pixels.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = thread_count();
    if threads <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, i * chunk_len, chunk);
        }
        return;
    }
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    let n_chunks = chunks.len();
    let workers = threads.min(n_chunks);
    // Static contiguous partition of the chunk list per worker; each
    // chunk is still tagged with its global index for the callback.
    let per_worker = n_chunks.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(workers);
        let mut rest = chunks;
        while !rest.is_empty() {
            let take = per_worker.min(rest.len());
            let tail = rest.split_off(take);
            let mine = std::mem::replace(&mut rest, tail);
            handles.push(scope.spawn(move || {
                with_threads(1, || {
                    for (i, chunk) in mine {
                        f(i, i * chunk_len, chunk);
                    }
                });
            }));
        }
        join_all(handles);
    });
}

// ---------------------------------------------------------------------------
// Persistent worker pool + cooperative cancellation
// ---------------------------------------------------------------------------

use dfm_fault::FaultPlane;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Condvar, Mutex};

/// Fault-injection site: panic inside a pool task, keyed by submission
/// index (see [`WorkerPool::with_fault_plane`]).
pub const SITE_TASK_PANIC: &str = "par.task.panic";

/// A cooperative cancellation flag shared between a task's submitter and
/// its executors. Cloning shares the flag. Cancellation is a latch: once
/// set it never resets — resumable computations mint a fresh token per
/// attempt instead of reusing a cancelled one.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Latches the token cancelled.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Counters a [`WorkerPool`] maintains about its queue — the "queue
/// depth hooks" long-running services publish as load gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks submitted but not yet started.
    pub queue_depth: usize,
    /// Tasks currently executing on a worker.
    pub in_flight: usize,
    /// Largest queue depth ever observed.
    pub queue_depth_peak: usize,
    /// Largest concurrent in-flight count ever observed.
    pub in_flight_peak: usize,
    /// Tasks that ran to completion (including ones that panicked).
    pub completed: u64,
    /// Tasks skipped because their [`CancelToken`] was already
    /// cancelled when a worker picked them up.
    pub skipped: u64,
    /// Tasks whose closure panicked (the panic is contained; the worker
    /// survives).
    pub panicked: u64,
}

/// How a task submitted with [`WorkerPool::submit_supervised`] ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The closure ran to completion.
    Completed,
    /// The closure panicked; the payload is rendered to a message. The
    /// panic was contained and the worker survives.
    Panicked(String),
    /// The task never ran: its [`CancelToken`] was already cancelled
    /// when a worker dequeued it.
    Skipped,
}

type PoolTask = Box<dyn FnOnce() + Send + 'static>;
type ExitHook = Box<dyn FnOnce(TaskOutcome) + Send + 'static>;

struct QueuedTask {
    token: CancelToken,
    task: PoolTask,
    on_exit: ExitHook,
    /// Monotonic submission index — the fault-plane key for the
    /// pool-level injection sites.
    submit_idx: u64,
}

struct PoolQueue {
    tasks: VecDeque<QueuedTask>,
    in_flight: usize,
    shutdown: bool,
}

/// Reorder buffer for [`WorkerPool::submit_sequenced`]: tasks carry a
/// dense sequence number and enter the FIFO strictly in sequence
/// order, whatever thread hands them over.
struct SequencedIntake {
    next_seq: u64,
    held: std::collections::BTreeMap<u64, (CancelToken, PoolTask, ExitHook)>,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when a task is pushed or shutdown begins.
    available: Condvar,
    /// Reorder buffer for sequence-numbered intake.
    intake: Mutex<SequencedIntake>,
    /// Signalled when the pool drains to idle.
    idle: Condvar,
    /// Fault-injection plane; `None` (the default) costs nothing.
    plane: Option<Arc<FaultPlane>>,
    submitted: AtomicU64,
    queue_depth_peak: AtomicUsize,
    in_flight_peak: AtomicUsize,
    completed: AtomicU64,
    skipped: AtomicU64,
    panicked: AtomicU64,
}

/// A persistent fork-free worker pool for long-running services.
///
/// Unlike the scoped fork-join primitives above, a `WorkerPool` owns its
/// threads for its whole lifetime and accepts `'static` boxed tasks —
/// the execution substrate for job services that schedule many
/// independent work units (layout tiles) and merge results *by index*
/// on the consumer side. The pool itself makes no ordering promise
/// beyond FIFO dispatch; determinism is the caller's ordered merge.
///
/// Every task is supervised: it carries a [`CancelToken`] and an exit
/// hook. A task whose token is already cancelled when a worker dequeues
/// it is skipped (never run) — the pool-level half of cancelling at a
/// work-unit boundary. A task that panics is contained
/// ([`std::panic::catch_unwind`]); the worker thread survives and the
/// panic is counted in [`PoolStats::panicked`]. Workers run at a
/// thread count of 1 (see the crate docs): the pool's `threads` are all
/// the compute threads its tasks get.
///
/// Dropping the pool shuts it down: queued tasks still drain, then the
/// workers exit and are joined.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool::with_fault_plane(threads, None)
    }

    /// Spawns a pool whose workers consult a fault-injection plane at
    /// [`SITE_TASK_PANIC`], inside the task's containment boundary and
    /// keyed by the task's submission index. `None` is exactly
    /// [`WorkerPool::new`].
    pub fn with_fault_plane(threads: usize, plane: Option<Arc<FaultPlane>>) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            idle: Condvar::new(),
            intake: Mutex::new(SequencedIntake {
                next_seq: 0,
                held: std::collections::BTreeMap::new(),
            }),
            plane,
            submitted: AtomicU64::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            in_flight_peak: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                // One level of parallelism: a region entered by a task
                // (or its exit hook) runs inline on this worker.
                std::thread::spawn(move || with_threads(1, || worker_loop(&shared)))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The fault plane this pool consults, if any.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.shared.plane.as_ref()
    }

    /// Enqueues a task under supervision: `on_exit` is called exactly
    /// once with how the task ended — [`TaskOutcome::Completed`],
    /// [`TaskOutcome::Panicked`] (with the rendered payload), or
    /// [`TaskOutcome::Skipped`] if `token` was already cancelled at
    /// dequeue. This is the pool-level half of a retry/quarantine
    /// supervisor: even a panic the task's own bookkeeping missed still
    /// reaches the supervisor.
    pub fn submit_supervised(
        &self,
        token: &CancelToken,
        task: impl FnOnce() + Send + 'static,
        on_exit: impl FnOnce(TaskOutcome) + Send + 'static,
    ) {
        self.push(token.clone(), Box::new(task), Box::new(on_exit));
    }

    /// Enqueues a supervised task under **grant-ordered intake**: the
    /// task carries a dense sequence number (`0, 1, 2, ...`) and joins
    /// the run queue strictly in sequence order, no matter which thread
    /// hands it over or in what order the handovers race. A task whose
    /// predecessors have not arrived yet is held in a reorder buffer
    /// and released the moment the gap fills.
    ///
    /// This is the pool-side half of a fair-share scheduler: the
    /// scheduler assigns sequence numbers under its own lock (so the
    /// grant *log* is deterministic), and sequenced intake guarantees
    /// workers also *start* tasks in that exact order, even when
    /// concurrent completions pump new grants from different threads.
    ///
    /// Sequence numbers must be dense per pool; a permanently missing
    /// number would hold all later tasks forever. Tasks still held at
    /// pool drop are discarded without running their exit hooks.
    pub fn submit_sequenced(
        &self,
        seq: u64,
        token: &CancelToken,
        task: impl FnOnce() + Send + 'static,
        on_exit: impl FnOnce(TaskOutcome) + Send + 'static,
    ) {
        let mut intake = self.shared.intake.lock().expect("dfm-par intake lock");
        if seq != intake.next_seq {
            assert!(
                seq > intake.next_seq,
                "sequenced submit {seq} replays an already-admitted sequence number"
            );
            intake.held.insert(seq, (token.clone(), Box::new(task), Box::new(on_exit)));
            return;
        }
        self.push(token.clone(), Box::new(task), Box::new(on_exit));
        intake.next_seq += 1;
        loop {
            let next = intake.next_seq;
            let Some((token, task, on_exit)) = intake.held.remove(&next) else {
                break;
            };
            self.push(token, task, on_exit);
            intake.next_seq += 1;
        }
    }

    /// Tasks parked in the sequenced-intake reorder buffer, waiting for
    /// a predecessor sequence number to arrive.
    pub fn sequenced_held(&self) -> usize {
        self.shared.intake.lock().expect("dfm-par intake lock").held.len()
    }

    fn push(&self, token: CancelToken, task: PoolTask, on_exit: ExitHook) {
        let submit_idx = self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = {
            let mut q = self.shared.queue.lock().expect("dfm-par pool lock");
            assert!(!q.shutdown, "submit on a shut-down WorkerPool");
            q.tasks.push_back(QueuedTask { token, task, on_exit, submit_idx });
            q.tasks.len()
        };
        self.shared.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
        self.shared.available.notify_one();
    }

    /// A snapshot of the pool's load counters.
    pub fn stats(&self) -> PoolStats {
        let (queue_depth, in_flight) = {
            let q = self.shared.queue.lock().expect("dfm-par pool lock");
            (q.tasks.len(), q.in_flight)
        };
        PoolStats {
            queue_depth,
            in_flight,
            queue_depth_peak: self.shared.queue_depth_peak.load(Ordering::Relaxed),
            in_flight_peak: self.shared.in_flight_peak.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            skipped: self.shared.skipped.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the queue is empty and no task is executing.
    pub fn wait_idle(&self) {
        let mut q = self.shared.queue.lock().expect("dfm-par pool lock");
        while !q.tasks.is_empty() || q.in_flight > 0 {
            q = self.shared.idle.wait(q).expect("dfm-par pool wait");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("dfm-par pool lock");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let item = {
            let mut q = shared.queue.lock().expect("dfm-par pool lock");
            loop {
                if let Some(item) = q.tasks.pop_front() {
                    q.in_flight += 1;
                    let now = q.in_flight;
                    shared.in_flight_peak.fetch_max(now, Ordering::Relaxed);
                    break item;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).expect("dfm-par pool wait");
            }
        };
        let QueuedTask { token, task, on_exit, submit_idx } = item;
        let outcome = if token.is_cancelled() {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
            TaskOutcome::Skipped
        } else {
            let plane = shared.plane.as_deref();
            let run = move || {
                if let Some(plane) = plane {
                    plane.maybe_panic(SITE_TASK_PANIC, submit_idx, 0);
                }
                task();
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            shared.completed.fetch_add(1, Ordering::Relaxed);
            match result {
                Ok(()) => TaskOutcome::Completed,
                Err(payload) => {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                    TaskOutcome::Panicked(panic_payload_message(payload.as_ref()))
                }
            }
        };
        // The hook runs outside the task's containment: a panicking
        // supervisor is a bug we want loud, not a task failure.
        on_exit(outcome);
        let mut q = shared.queue.lock().expect("dfm-par pool lock");
        q.in_flight -= 1;
        if q.tasks.is_empty() && q.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Renders a caught panic payload to a stable message (`&str` and
/// `String` payloads verbatim, anything else a fixed fallback).
pub fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_rand::{Rng, Seed};

    /// `par_map` over the indices `0..n`.
    fn map_range<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let idx: Vec<usize> = (0..n).collect();
        par_map(&idx, |_, &i| f(i))
    }

    /// Enqueues a task nobody cancels or watches.
    fn spawn(pool: &WorkerPool, task: impl FnOnce() + Send + 'static) {
        pool.submit_supervised(&CancelToken::new(), task, |_| ());
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = with_threads(7, || par_map(&items, |i, &x| i * 1000 + x));
        assert_eq!(out.len(), 1000);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 1000 + i);
        }
        // Index order at any worker count, including more workers than
        // items.
        let seq: Vec<f64> = (0..37).map(|i| i as f64 / 3.0).collect();
        for t in [1, 2, 3, 8, 64] {
            let out = with_threads(t, || map_range(37, |i| i as f64 / 3.0));
            assert_eq!(out, seq, "t={t}");
        }
    }

    #[test]
    fn sequential_path_stays_on_the_calling_thread() {
        // `threads <= 1` or `len <= 1` must not spawn: every item runs
        // on the caller.
        let me = std::thread::current().id();
        let here = |_: usize, _: &u8| std::thread::current().id();
        let items = [0u8; 10];
        let at_one = with_threads(1, || par_map(&items, here));
        assert!(at_one.iter().all(|&id| id == me));
        let single = with_threads(8, || par_map(&items[..1], here));
        assert_eq!(single, vec![me]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<i64> = (0..500).collect();
        let run = |t: usize| {
            with_threads(t, || {
                par_map(&items.chunks(16).collect::<Vec<_>>(), |ci, chunk| {
                    // Chunk-seeded RNG: the caller half of the contract.
                    let mut rng = Rng::from_seed(Seed(99).derive(ci as u64));
                    chunk.iter().map(|&x| x + rng.range(0i64..10)).sum::<i64>()
                })
            })
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn par_chunks_mut_covers_disjointly() {
        let mut data = vec![0u64; 997];
        with_threads(5, || {
            par_chunks_mut(&mut data, 100, |ci, off, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += (ci as u64) << 32 | (off + k) as u64;
                }
            });
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v & 0xffff_ffff, i as u64, "element offset wrong at {i}");
            assert_eq!(v >> 32, (i / 100) as u64, "chunk index wrong at {i}");
        }
    }

    #[test]
    fn empty_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(par_map(&none, |_, &x| x).is_empty());
        let mut empty: Vec<u8> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _, _| panic!("no chunks expected"));
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let before = thread_count();
        let inside = with_threads(3, thread_count);
        assert_eq!(inside, 3);
        assert_eq!(thread_count(), before);
        // Nested overrides stack.
        let nested = with_threads(4, || with_threads(2, thread_count));
        assert_eq!(nested, 2);
    }

    /// What a parallel region sees when entered on the current thread:
    /// the effective count, whether a nested region stayed on this
    /// thread, and whether an explicit inner override still fans out.
    fn probe_nested_region() -> (usize, bool, usize, bool) {
        let me = std::thread::current().id();
        let here = |_: usize| std::thread::current().id();
        let inline = map_range(8, here).iter().all(|&id| id == me);
        let (inner_count, inner_forked) = with_threads(3, || {
            (thread_count(), map_range(8, here).iter().all(|&id| id != me))
        });
        (thread_count(), inline, inner_count, inner_forked)
    }

    #[test]
    fn nested_regions_run_inline_on_the_worker() {
        let want = (1, true, 3, true);
        // Fork-join workers (dynamic cursor and static bands).
        let probes = with_threads(4, || map_range(8, |_| probe_nested_region()));
        assert!(probes.iter().all(|&p| p == want), "{probes:?}");
        let mut bands = vec![(0, false, 0, false); 8];
        with_threads(4, || {
            par_chunks_mut(&mut bands, 1, |_, _, band| band[0] = probe_nested_region());
        });
        assert!(bands.iter().all(|&p| p == want), "{bands:?}");
        // Pool workers: task and exit hook alike, whatever the
        // submitting thread's override says.
        let pool = WorkerPool::new(2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        with_threads(4, || {
            for _ in 0..4 {
                let (in_task, in_hook) = (Arc::clone(&seen), Arc::clone(&seen));
                pool.submit_supervised(
                    &CancelToken::new(),
                    move || in_task.lock().unwrap().push(probe_nested_region()),
                    move |_| in_hook.lock().unwrap().push(probe_nested_region()),
                );
            }
        });
        pool.wait_idle();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 8);
        assert!(seen.iter().all(|&p| p == want), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_panics() {
        with_threads(0, || ());
    }

    #[test]
    fn pool_runs_all_tasks() {
        let pool = WorkerPool::new(3);
        let sum = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let sum = Arc::clone(&sum);
            spawn(&pool, move || {
                sum.fetch_add(i, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(sum.load(Ordering::SeqCst), 99 * 100 / 2);
        let stats = pool.stats();
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.queue_depth_peak >= 1);
        assert!(stats.in_flight_peak >= 1);
    }

    #[test]
    fn pool_skips_cancelled_tasks() {
        // One worker, first task blocks until we cancel the token the
        // queued tasks carry — those must be skipped, never run.
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let gate = Arc::clone(&gate);
            spawn(&pool, move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            let task = move || {
                ran.fetch_add(1, Ordering::SeqCst);
            };
            pool.submit_supervised(&token, task, |o| assert_eq!(o, TaskOutcome::Skipped));
        }
        token.cancel();
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        let stats = pool.stats();
        assert_eq!(stats.skipped, 5);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn pool_survives_panicking_task() {
        let pool = WorkerPool::new(1);
        spawn(&pool, || panic!("task boom"));
        let ok = Arc::new(AtomicUsize::new(0));
        {
            let ok = Arc::clone(&ok);
            spawn(&pool, move || {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
        let stats = pool.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn pool_drop_drains_queue() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..20 {
                let done = Arc::clone(&done);
                spawn(&pool, move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn cancel_token_latches_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn fork_join_propagates_worker_panic_cleanly() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map_range(64, |i| {
                    if i == 17 {
                        panic!("chunk 17 exploded");
                    }
                    i
                })
            })
        });
        let payload = caught.expect_err("must propagate the worker panic");
        assert_eq!(panic_payload_message(payload.as_ref()), "chunk 17 exploded");
    }

    #[test]
    fn fork_join_propagates_panic_in_the_first_and_last_chunk() {
        // The final chunk is the regression-prone case: when it
        // panics, every other worker has already drained the cursor
        // and exited cleanly, so the join loop sees exactly one Err —
        // which must still unwind with the original payload instead of
        // being lost among the drained results. Includes n == threads
        // (one chunk per worker) and n < threads (idle workers). The
        // first chunk is the mirror case: the other workers are still
        // busy and must all be joined before the single unwind.
        for (n, t) in [(64usize, 4usize), (4, 4), (2, 8)] {
            for bad in [0, n - 1] {
                let caught = std::panic::catch_unwind(|| {
                    with_threads(t, || {
                        map_range(n, |i| {
                            if i == bad {
                                panic!("chunk exploded");
                            }
                            i
                        })
                    })
                });
                let payload = caught.expect_err("must propagate the chunk's panic");
                assert_eq!(
                    panic_payload_message(payload.as_ref()),
                    "chunk exploded",
                    "n={n} t={t} bad={bad}"
                );
            }
        }
    }

    #[test]
    fn par_chunks_mut_propagates_the_band_panic_at_any_thread_count() {
        // The tile supervisor renders this payload into retry events,
        // so the text must not depend on the thread count: the worker's
        // own message, never the scope's "a scoped thread panicked".
        for t in [1usize, 4] {
            for bad in [0usize, 3, 9] {
                let mut data = vec![0u8; 100];
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    with_threads(t, || {
                        par_chunks_mut(&mut data, 10, |ci, _, _| {
                            if ci == bad {
                                panic!("band exploded");
                            }
                        })
                    })
                }));
                let payload = caught.expect_err("must propagate the band's panic");
                assert_eq!(
                    panic_payload_message(payload.as_ref()),
                    "band exploded",
                    "t={t} bad={bad}"
                );
            }
        }
    }

    #[test]
    fn supervised_tasks_report_outcomes() {
        let pool = WorkerPool::new(2);
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let record = |outcomes: &Arc<Mutex<Vec<(u8, TaskOutcome)>>>, tag: u8| {
            let outcomes = Arc::clone(outcomes);
            move |o: TaskOutcome| outcomes.lock().unwrap().push((tag, o))
        };
        let live = CancelToken::new();
        let dead = CancelToken::new();
        dead.cancel();
        pool.submit_supervised(&live, || (), record(&outcomes, 0));
        pool.submit_supervised(&live, || panic!("supervised boom"), record(&outcomes, 1));
        pool.submit_supervised(&dead, || unreachable!("cancelled"), record(&outcomes, 2));
        pool.wait_idle();
        let mut got = outcomes.lock().unwrap().clone();
        got.sort_by_key(|(tag, _)| *tag);
        assert_eq!(
            got,
            vec![
                (0, TaskOutcome::Completed),
                (1, TaskOutcome::Panicked("supervised boom".to_string())),
                (2, TaskOutcome::Skipped),
            ]
        );
    }

    #[test]
    fn pool_fault_plane_injects_deterministic_panics() {
        use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
        // Submission index 2 panics; everything else completes.
        let plan = FaultPlan::seeded(11)
            .with_rule(FaultRule::new(SITE_TASK_PANIC, FaultAction::Panic).key(2));
        let pool = WorkerPool::with_fault_plane(1, Some(Arc::new(FaultPlane::new(plan))));
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let token = CancelToken::new();
        for i in 0..4u64 {
            let outcomes = Arc::clone(&outcomes);
            pool.submit_supervised(&token, || (), move |o| {
                outcomes.lock().unwrap().push((i, o));
            });
        }
        pool.wait_idle();
        let got = outcomes.lock().unwrap().clone();
        for (i, o) in &got {
            if *i == 2 {
                assert_eq!(
                    *o,
                    TaskOutcome::Panicked("injected panic at par.task.panic (key 2, attempt 0)".to_string())
                );
            } else {
                assert_eq!(*o, TaskOutcome::Completed, "task {i}");
            }
        }
        assert_eq!(pool.stats().panicked, 1);
        let injected = pool.fault_plane().expect("plane").injected();
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].key, 2);
    }

    #[test]
    fn sequenced_intake_reorders_racing_submissions() {
        // Hand tasks over in scrambled order; a single worker must
        // still run them in sequence-number order.
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let token = CancelToken::new();
        for seq in [3u64, 1, 4, 0, 2, 5] {
            let order = Arc::clone(&order);
            pool.submit_sequenced(seq, &token, move || order.lock().unwrap().push(seq), |_| ());
        }
        pool.wait_idle();
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(pool.sequenced_held(), 0);
    }

    #[test]
    fn sequenced_intake_holds_gaps_and_runs_hooks() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let hooks = Arc::new(Mutex::new(0u32));
        // seq 1 and 2 arrive first: both parked behind the missing 0.
        for seq in [1u64, 2] {
            let hooks = Arc::clone(&hooks);
            pool.submit_sequenced(seq, &token, || (), move |o| {
                assert_eq!(o, TaskOutcome::Completed);
                *hooks.lock().unwrap() += 1;
            });
        }
        assert_eq!(pool.sequenced_held(), 2);
        pool.wait_idle(); // nothing runnable yet
        assert_eq!(*hooks.lock().unwrap(), 0);
        let hooks_0 = Arc::clone(&hooks);
        pool.submit_sequenced(0, &token, || (), move |o| {
            assert_eq!(o, TaskOutcome::Completed);
            *hooks_0.lock().unwrap() += 1;
        });
        pool.wait_idle();
        assert_eq!(*hooks.lock().unwrap(), 3);
        assert_eq!(pool.sequenced_held(), 0);
        // Unsequenced submissions bypass the reorder buffer entirely
        // (the path retries take: they must not wait behind future
        // grants).
        let ran = Arc::new(Mutex::new(false));
        let ran2 = Arc::clone(&ran);
        spawn(&pool, move || *ran2.lock().unwrap() = true);
        pool.wait_idle();
        assert!(*ran.lock().unwrap());
    }
}
