//! Shared job-queue scheduler backing the cluster dispatch.
//!
//! The paper's GAP9 deployment keeps the 8 compute-cluster cores **resident**:
//! the orchestrating core hands each MCL kernel to the already-running workers
//! and blocks on a hardware barrier — it never pays for starting or stopping
//! them inside an update. The first persistent-pool incarnation of this module
//! reproduced that shape with a **single dispatch slot**: one job at a time,
//! every other dispatch either queued behind it (`dispatch_queued`) or
//! degraded to inline execution on the calling thread. That was enough for
//! one filter, but the fleet direction (thousands of concurrent filter
//! instances) needs independent top-level dispatches to *share* the worker
//! threads instead of racing for a slot.
//!
//! [`WorkerPool`] is therefore a pool of resident threads fed by **one FIFO
//! job queue**, built on std synchronization only (no extra dependencies):
//!
//! * **One locked queue.** Every dispatch — from an outside thread or from a
//!   resident worker — pushes its job advertisement onto a single
//!   `VecDeque` guarded by the scheduler mutex, the same lock that tracks
//!   parked workers and shutdown. Publishing, popping and parking all happen
//!   under that one lock, so no wakeup can be lost between a worker finding
//!   the queue empty and going to sleep.
//! * **Jobs are batched task ranges.** A dispatch publishes one *job* —
//!   `tasks` closures indexed `0..tasks` behind an atomic claim cursor — as a
//!   single queue entry, not `tasks` entries. Whoever holds a handle to the
//!   job (the dispatcher, plus every worker that popped its advertisement)
//!   claims indices off the shared cursor, so a job spreads across idle
//!   workers while queue traffic stays O(workers), not O(tasks). A worker
//!   that joins a job with unclaimed work left re-advertises it, fanning the
//!   job out to further idle workers.
//! * **Concurrent independent dispatches.** There is no job slot: any number
//!   of dispatches can be in flight, each draining its own cursor while idle
//!   workers pick up whatever is advertised. Two simultaneous `run_batch`
//!   sweeps split the workers between them instead of serializing.
//! * **Nested dispatch enqueues.** A dispatch made from inside a pool task
//!   (e.g. a filter's kernel dispatch inside a `run_batch` job) is advertised
//!   on the same queue, and the submitting worker participates in it like
//!   any dispatcher. Idle workers pick up the nested tasks, so kernel-level
//!   parallelism is available *inside* concurrent jobs — the single-slot
//!   design always ran these inline. Deadlock freedom is preserved by
//!   construction: every dispatcher drains its own cursor until exhaustion
//!   before blocking on the completion latch, so every task is claimed even
//!   if no worker ever helps, and a claimed task is always being executed by
//!   exactly one live thread (the blocked-on graph is the acyclic task
//!   nesting forest).
//! * **Per-dispatch completion latch.** [`WorkerPool::dispatch`] returns only
//!   when all of its tasks completed, so every borrow captured by the task
//!   closure provably outlives the dispatch (the scoped-thread guarantee,
//!   without the spawn).
//! * **Panic propagation.** A panicking task is caught on the worker, parked
//!   in the job, and re-raised on the dispatching thread *after* the
//!   remaining tasks finished — the scheduler stays parked and usable for
//!   the next dispatch, never deadlocked.
//!
//! # Determinism
//!
//! The scheduler never influences *what* is computed — only *where*. Task
//! bodies receive their global task index, the cluster dispatchers cut chunks
//! at boundaries fixed before execution, and every random draw in the
//! kernels is keyed on `(seed, update, particle index)`. Which OS thread (or
//! how many, or in what order) executes a task is therefore unobservable in
//! the results; `tests/pool_determinism.rs` pins scheduled execution
//! bit-identical to the sequential definition of every entry point, and
//! `tests/concurrent_dispatch.rs` pins simultaneous independent dispatches
//! bit-identical to their serial executions.
//!
//! # Introspection
//!
//! [`WorkerPool::stats`] (and [`stats`] for the shared pool) snapshots cheap
//! relaxed per-worker counters: tasks executed per resident worker, how many
//! of those were stolen (claimed from a job the worker popped off the queue,
//! i.e. one some other participant dispatched), plus the same pair for
//! non-resident participants. The contention tests assert the steal counters
//! are non-zero, proving idle workers actually join published jobs.
//!
//! # The shared pool
//!
//! [`shared`] returns the process-wide pool used by every
//! [`ClusterLayout`](crate::parallel::ClusterLayout) dispatch and by
//! `mcl_sim::run_batch`. It is sized to the host's available parallelism,
//! overridable via `MCL_POOL_WORKERS` (production sizing) and
//! `MCL_TEST_WORKERS` (test-matrix override, takes precedence; the CI matrix
//! uses it to exercise real 1/3/8-thread pools regardless of runner size).

// The one use of unsafe, confined to this module (the crate otherwise
// forbids unsafe code): the job hand-off erases the task closure's borrow
// lifetime so other threads can reference it; the dispatch latch (dispatch
// blocks until every task completed) is what makes that sound.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// `(pool identity, worker index)` of the resident worker running on this
    /// thread, if any. Attributes executed-task counters to the right worker.
    static WORKER_SLOT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Number of hardware threads the host actually has. Worker counts above this
/// model GAP9 semantics (chunk shapes, resampling plans) but gain nothing from
/// extra OS threads. Cached: the hot path asks on every kernel dispatch.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Locks a mutex, ignoring poisoning: the scheduler's own state transitions
/// are panic-safe (a panicking task is caught before it can unwind through
/// the bookkeeping), so a poisoned lock only means some *task* panicked while
/// holding it — the protected data is still valid.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lifetime-erased pointer to a dispatch's task closure. Sound to share with
/// the workers because the dispatcher blocks on the job latch: the closure
/// (and everything it borrows) outlives every dereference, and stale
/// advertisements of completed jobs are discarded by the cursor check before
/// the pointer could be dereferenced.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (it is only ever shared, never mutated) and
// the latch protocol guarantees it is alive whenever a worker dereferences.
unsafe impl Send for TaskRef {}
// SAFETY: as above — shared immutable access to a `Sync` closure.
unsafe impl Sync for TaskRef {}

/// Shared bookkeeping of one dispatch.
struct JobCore {
    /// Next unclaimed task index. Once it reaches `tasks` the job accepts no
    /// new executors and its advertisements read as stale.
    cursor: AtomicUsize,
    /// Total number of tasks in the job.
    tasks: usize,
    /// Tasks not yet completed — the dispatch latch. The worker that brings
    /// this to zero wakes the dispatcher.
    remaining: AtomicUsize,
    /// Maximum number of threads (dispatcher included) allowed to execute
    /// tasks *concurrently*; further workers skip the job. This is how a
    /// dispatch models fewer cluster cores than the pool owns.
    limit: usize,
    /// Threads currently executing tasks of this job (the dispatcher counts
    /// as the first).
    active: AtomicUsize,
    /// First panic payload raised by a task, re-raised by the dispatcher.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One advertisement of a job: the erased task closure plus its bookkeeping.
/// Cloned freely — every clone shares the same claim cursor.
#[derive(Clone)]
struct JobHandle {
    task: TaskRef,
    core: Arc<JobCore>,
}

/// Per-worker execution counters (relaxed; snapshot via [`WorkerPool::stats`]).
#[derive(Default)]
struct Counters {
    executed: AtomicU64,
    stolen: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
        }
    }
}

/// Execution counters of one scheduler participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Tasks this participant executed in total.
    pub executed: u64,
    /// The subset of `executed` claimed from a job this participant did not
    /// dispatch — one whose advertisement it popped off the shared queue.
    pub stolen: u64,
}

/// Snapshot of the scheduler's per-worker counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per resident worker thread (`workers() - 1` entries).
    pub workers: Vec<WorkerStats>,
    /// Tasks executed by non-resident participants: dispatching threads
    /// draining their own jobs (`stolen` stays zero for them).
    pub external: WorkerStats,
}

impl PoolStats {
    /// Total tasks executed by every participant.
    pub fn total_executed(&self) -> u64 {
        self.external.executed + self.workers.iter().map(|w| w.executed).sum::<u64>()
    }

    /// Total tasks claimed through the stealing path.
    pub fn total_stolen(&self) -> u64 {
        self.external.stolen + self.workers.iter().map(|w| w.stolen).sum::<u64>()
    }
}

/// State guarded by the scheduler mutex: the job queue itself plus the
/// sleeping and shutdown bookkeeping, so publishing, popping and parking are
/// ordered by one lock.
struct PoolState {
    /// Job advertisements, oldest first. Holds one entry per dispatch plus a
    /// few re-advertisements, never one per task.
    queue: VecDeque<JobHandle>,
    /// Workers currently parked on `work_ready` (gates the wakeup syscall).
    sleepers: usize,
    /// Set once, by `Drop`: workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here when the queue is empty.
    work_ready: Condvar,
    /// Dispatchers park here while their job's latch is non-zero.
    job_done: Condvar,
    /// One entry per resident worker.
    counters: Vec<Counters>,
    /// Counters of non-resident participants.
    external: Counters,
}

impl PoolShared {
    /// Identity used to match a worker's thread-local slot to its pool.
    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Appends `handle` to the job queue and wakes parked workers.
    fn publish(&self, handle: JobHandle) {
        let sleepers = {
            let mut state = lock_unpoisoned(&self.state);
            state.queue.push_back(handle);
            state.sleepers
        };
        if sleepers > 0 {
            self.work_ready.notify_all();
        }
    }

    /// Counters of the calling thread: its own worker slot when resident
    /// here, the external bucket otherwise.
    fn my_counters(self: &Arc<Self>) -> &Counters {
        match WORKER_SLOT.with(Cell::get) {
            Some((pool, index)) if pool == self.id() => &self.counters[index],
            _ => &self.external,
        }
    }
}

/// A persistent pool of parked worker threads executing indexed task batches
/// off one shared job queue.
///
/// See the [module documentation](self) for the execution model. The pool is
/// cheap to keep alive (workers sleep on a condition variable when no work is
/// advertised) and joins all threads on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool of `workers` logical workers: the dispatching thread
    /// plus `workers − 1` resident threads. `workers = 1` spawns no threads
    /// (every dispatch runs inline), mirroring the paper's single-core
    /// baseline.
    ///
    /// A worker count of zero is a caller bug; it trips a debug assertion and
    /// clamps to 1 in release builds.
    pub fn new(workers: usize) -> Self {
        debug_assert!(workers > 0, "at least one worker is required");
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                sleepers: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            counters: (1..workers).map(|_| Counters::default()).collect(),
            external: Counters::default(),
        });
        let handles = (0..workers.saturating_sub(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of logical workers (dispatching thread included).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshots the per-worker steal/execute counters. Cheap (relaxed loads)
    /// and safe to call concurrently with dispatches; the counts are
    /// monotonic, so differencing two snapshots isolates a code region.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self
                .shared
                .counters
                .iter()
                .map(Counters::snapshot)
                .collect(),
            external: self.shared.external.snapshot(),
        }
    }

    /// Runs `task(i)` for every `i` in `0..tasks` and returns when all of them
    /// completed. The calling thread claims tasks over the job's atomic cursor
    /// alongside every idle worker that pops the job's advertisement; each
    /// index is executed exactly once.
    ///
    /// Independent dispatches run **concurrently** — there is no dispatch
    /// slot to race for — and a dispatch made from inside a pool task is
    /// advertised on the same queue, so even nested parallelism is visible
    /// to idle workers. If a task panics, the first panic payload is
    /// re-raised on the calling thread after the remaining tasks finished —
    /// the pool survives and the next dispatch proceeds normally.
    pub fn dispatch(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.dispatch_limited(tasks, usize::MAX, task);
    }

    /// Like [`WorkerPool::dispatch`], but at most `max_workers` threads
    /// (calling thread included) execute tasks concurrently — the shape of a
    /// [`ClusterLayout`](crate::parallel::ClusterLayout) that models fewer
    /// cluster cores than the pool owns.
    ///
    /// Runs entirely on the calling thread (in task-index order) when
    /// `tasks <= 1`, when `max_workers <= 1`, or when the pool has no
    /// resident threads.
    pub fn dispatch_limited(
        &self,
        tasks: usize,
        max_workers: usize,
        task: &(dyn Fn(usize) + Sync),
    ) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || max_workers <= 1 || self.handles.is_empty() {
            for index in 0..tasks {
                task(index);
            }
            return;
        }

        let core = Arc::new(JobCore {
            cursor: AtomicUsize::new(0),
            tasks,
            remaining: AtomicUsize::new(tasks),
            limit: max_workers.min(self.workers),
            // The dispatcher is an executor from the start.
            active: AtomicUsize::new(1),
            panic: Mutex::new(None),
        });
        // SAFETY: the closure reference only escapes through job
        // advertisements whose dereference is gated on claiming a task index
        // below `tasks`; a successful claim implies the latch has not
        // released this dispatch yet, so the borrow strictly outlives all
        // uses. Stale advertisements fail the cursor check and never
        // dereference.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let handle = JobHandle {
            task: TaskRef(erased as *const _),
            core: Arc::clone(&core),
        };
        self.shared.publish(handle.clone());

        // Participate: the dispatcher drains the cursor like any worker, so
        // every task is claimed even if all workers are busy elsewhere.
        drain_job(&handle, &self.shared, self.shared.my_counters(), false);
        core.active.fetch_sub(1, Ordering::Release);

        // Latch: wait until every task completed. The re-check happens under
        // the state lock, and completers notify while holding it, so the
        // wakeup cannot be missed.
        if core.remaining.load(Ordering::Acquire) != 0 {
            let mut state = lock_unpoisoned(&self.shared.state);
            while core.remaining.load(Ordering::Acquire) != 0 {
                state = self
                    .shared
                    .job_done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        let payload = lock_unpoisoned(&core.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    /// Parks no more: signals shutdown, joins every resident thread, then
    /// frees the stale advertisements left in the queue.
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        lock_unpoisoned(&self.shared.state).queue.clear();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("resident_threads", &self.handles.len())
            .finish()
    }
}

/// Body of one resident worker thread: pop the oldest advertisement, execute
/// its job, and park on `work_ready` whenever the queue is empty. The pop and
/// the decision to park happen under the lock `publish` pushes under, so no
/// publication can slip between them.
fn worker_loop(shared: &Arc<PoolShared>, index: usize) {
    WORKER_SLOT.with(|slot| slot.set(Some((shared.id(), index))));
    let mut state = lock_unpoisoned(&shared.state);
    while !state.shutdown {
        match state.queue.pop_front() {
            Some(handle) => {
                drop(state);
                execute_job(shared, &handle, index);
                drop(handle);
                state = lock_unpoisoned(&shared.state);
            }
            None => {
                state.sleepers += 1;
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.sleepers -= 1;
            }
        }
    }
}

/// A worker joining a popped job: enter under the job's concurrency limit,
/// re-advertise it if there is still unclaimed work for further idle
/// workers, then drain the claim cursor. A popped job is never one the
/// worker dispatched itself (a dispatcher drains its cursor dry before it
/// returns), so every task run here counts as stolen.
fn execute_job(shared: &Arc<PoolShared>, handle: &JobHandle, index: usize) {
    let core = &handle.core;
    // Become an active executor, unless the job is finished (stale
    // advertisement) or its worker limit is met.
    let mut active = core.active.load(Ordering::Relaxed);
    loop {
        if core.cursor.load(Ordering::Relaxed) >= core.tasks || active >= core.limit {
            return;
        }
        match core.active.compare_exchange_weak(
            active,
            active + 1,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(current) => active = current,
        }
    }
    // Fan out: if more tasks remain than this worker is about to start on and
    // the limit allows more executors, make the job visible to further idle
    // workers (the advertisement just consumed is gone).
    if core.cursor.load(Ordering::Relaxed) + 1 < core.tasks
        && core.active.load(Ordering::Relaxed) < core.limit
    {
        shared.publish(handle.clone());
    }
    drain_job(handle, shared, &shared.counters[index], true);
    core.active.fetch_sub(1, Ordering::Release);
}

/// Claims and executes tasks of one job until its cursor is exhausted; the
/// thread whose completion empties the latch wakes the dispatcher.
fn drain_job(handle: &JobHandle, shared: &PoolShared, counters: &Counters, stolen: bool) {
    let core = &handle.core;
    loop {
        let index = core.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= core.tasks {
            return;
        }
        // SAFETY: `index < tasks` means the latch has not released the
        // dispatcher yet (our completion below is still pending), so the
        // closure behind the pointer is alive.
        let task = unsafe { &*handle.task.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(index))) {
            let mut slot = lock_unpoisoned(&core.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        counters.executed.fetch_add(1, Ordering::Relaxed);
        if stolen {
            counters.stolen.fetch_add(1, Ordering::Relaxed);
        }
        if core.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task of the job: wake the dispatcher. Taking the state
            // lock orders the notification after the dispatcher's check.
            let _state = lock_unpoisoned(&shared.state);
            shared.job_done.notify_all();
        }
    }
}

/// The process-wide pool every [`ClusterLayout`](crate::parallel::ClusterLayout)
/// dispatch and `mcl_sim::run_batch` execute on.
///
/// Sized to [`host_parallelism`], unless overridden (capped at 64 either
/// way): `MCL_POOL_WORKERS` is the production sizing knob, and
/// `MCL_TEST_WORKERS` — read first — is the test-matrix override the CI uses
/// to exercise real 1-, 3- and 8-thread pools independent of runner core
/// count. Both are read once, on first use.
pub fn shared() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let from = |var: &str| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .map(|n| n.min(64))
        };
        let workers = from("MCL_TEST_WORKERS")
            .or_else(|| from("MCL_POOL_WORKERS"))
            .unwrap_or_else(host_parallelism);
        WorkerPool::new(workers)
    })
}

/// Snapshot of the [`shared`] pool's steal/execute counters — see
/// [`WorkerPool::stats`].
pub fn stats() -> PoolStats {
    shared().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn dispatch_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for tasks in [0usize, 1, 3, 4, 17, 256] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.dispatch(tasks, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "tasks={tasks}"
            );
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let pool = WorkerPool::new(8);
        let sum = AtomicU64::new(0);
        pool.dispatch(3, &|i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = WorkerPool::new(4);
        pool.dispatch(0, &|_| panic!("must not be called"));
    }

    #[test]
    fn single_worker_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let order = Mutex::new(Vec::new());
        pool.dispatch(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn limited_dispatch_caps_concurrent_entrants() {
        let pool = WorkerPool::new(8);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.dispatch_limited(64, 2, &|_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "entrant cap violated");
    }

    #[test]
    fn nested_dispatch_completes_without_deadlock() {
        let pool = WorkerPool::new(4);
        let inner_total = AtomicU64::new(0);
        pool.dispatch(4, &|_| {
            // Under the single-slot scheduler this fell back to inline
            // execution; now it is advertised on the shared queue and the
            // nested dispatcher drains it alongside any idle worker — either
            // way it must complete with every index executed exactly once.
            pool.dispatch(8, &|j| {
                inner_total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_total.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn deeply_nested_dispatches_overflow_to_the_injector_and_complete() {
        // Many sequential nested dispatches from inside one task leave a
        // backlog of advertisements (they are only consumed lazily, most of
        // them stale by then); the queue must absorb them without losing or
        // double-running anything.
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        pool.dispatch(2, &|outer| {
            if outer == 0 {
                for _ in 0..128 {
                    pool.dispatch(2, &|j| {
                        total.fetch_add(j as u64 + 1, Ordering::Relaxed);
                    });
                }
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 128 * 3);
    }

    #[test]
    fn independent_dispatches_run_concurrently() {
        // Two dispatches from two threads: under the shared-queue scheduler
        // neither inlines nor waits for the other; both must observe tasks of
        // the two jobs in flight at the same time (on a multi-worker pool the
        // sleeps guarantee overlapping lifetimes regardless of host cores).
        let pool = WorkerPool::new(4);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let body = |_: usize| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            scope.spawn(|| pool.dispatch(8, &body));
            scope.spawn(|| pool.dispatch(8, &body));
        });
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "independent dispatches never overlapped"
        );
    }

    #[test]
    fn queued_dispatch_is_equivalent_and_completes_fully() {
        // Two concurrent callers both complete with full coverage: they
        // share the pool.
        let pool = WorkerPool::new(4);
        let first = AtomicUsize::new(0);
        let second = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.dispatch_limited(32, usize::MAX, &|_| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    first.fetch_add(1, Ordering::Relaxed);
                });
            });
            scope.spawn(|| {
                pool.dispatch_limited(32, usize::MAX, &|_| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    second.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(first.load(Ordering::Relaxed), 32);
        assert_eq!(second.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn queued_dispatch_from_inside_a_task_completes_without_deadlock() {
        let pool = WorkerPool::new(4);
        let inner_total = AtomicU64::new(0);
        pool.dispatch(4, &|_| {
            pool.dispatch_limited(8, usize::MAX, &|j| {
                inner_total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_total.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(8, &|i| {
                if i == 3 {
                    panic!("task three exploded");
                }
            });
        }));
        let payload = result.expect_err("the task panic must reach the dispatcher");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("exploded"), "payload: {message}");
        // Subsequent dispatches must work — no deadlock, no poisoned state.
        let count = AtomicUsize::new(0);
        pool.dispatch(16, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn repeated_dispatches_on_a_warm_pool_do_not_leak_state() {
        let pool = WorkerPool::new(4);
        for round in 0..32 {
            let mut data = vec![0u64; 100];
            let slots: Vec<Mutex<&mut [u64]>> = data.chunks_mut(25).map(Mutex::new).collect();
            pool.dispatch(slots.len(), &|i| {
                for (k, v) in slots[i].lock().unwrap().iter_mut().enumerate() {
                    *v = round * 1000 + (i * 25 + k) as u64;
                }
            });
            for (k, &v) in data.iter().enumerate() {
                assert_eq!(v, round * 1000 + k as u64, "round {round}");
            }
        }
    }

    #[test]
    fn drop_joins_all_resident_threads() {
        let pool = WorkerPool::new(6);
        let shared = Arc::clone(&pool.shared);
        let sum = AtomicU64::new(0);
        pool.dispatch(32, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        drop(pool);
        // Every resident thread held one Arc clone; after a clean join only
        // the test's own handle remains.
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn stats_count_executed_tasks_and_expose_worker_shape() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        assert_eq!(before.workers.len(), 3);
        let work = AtomicUsize::new(0);
        pool.dispatch(64, &|_| {
            work.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        let after = pool.stats();
        assert_eq!(after.total_executed() - before.total_executed(), 64);
        assert!(after.total_stolen() >= before.total_stolen());
    }

    #[test]
    fn stealing_is_exercised_under_contention() {
        // A top-level dispatch lands in the queue; with sleepy tasks the
        // resident workers must pop it (every task run from a popped job
        // counts as a steal), so the steal counters provably move.
        let pool = WorkerPool::new(4);
        let before = pool.stats().total_stolen();
        pool.dispatch(32, &|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let after = pool.stats().total_stolen();
        assert!(
            after > before,
            "no task was stolen under a contended dispatch"
        );
    }

    #[test]
    fn stolen_counts_exactly_the_tasks_workers_ran_from_popped_jobs() {
        // Two outside threads dispatch at once, three tasks each, and every
        // task waits on its dispatch's three-party barrier. A dispatcher
        // blocks inside the first task it claims, so at least two tasks of
        // each dispatch must run on resident workers, and four residents
        // always suffice. Neither dispatcher is resident, so neither pops a
        // job: the external bucket executes tasks but steals none, and each
        // resident worker ran only tasks of jobs it popped.
        let pool = WorkerPool::new(5);
        let barriers = [Barrier::new(3), Barrier::new(3)];
        std::thread::scope(|scope| {
            for barrier in &barriers {
                let pool = &pool;
                scope.spawn(move || {
                    pool.dispatch(3, &|_| {
                        barrier.wait();
                    })
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.total_executed(), 6);
        assert_eq!(stats.external.stolen, 0);
        assert!(stats.external.executed <= 2, "{stats:?}");
        for (index, worker) in stats.workers.iter().enumerate() {
            assert_eq!(worker.stolen, worker.executed, "worker {index}");
        }
        assert_eq!(stats.total_stolen(), 6 - stats.external.executed);
    }

    /// A stale advertisement: its job has no tasks, so whoever pops it
    /// discards it without dereferencing the task pointer.
    fn stale_handle(core: &Arc<JobCore>) -> JobHandle {
        let noop: &'static (dyn Fn(usize) + Sync) = &|_| {};
        JobHandle {
            task: TaskRef(noop as *const _),
            core: Arc::clone(core),
        }
    }

    /// A finished job carrying `tag` in its cursor (any cursor at or past
    /// `tasks = 0` reads as stale).
    fn stale_core(tag: usize) -> Arc<JobCore> {
        Arc::new(JobCore {
            cursor: AtomicUsize::new(tag),
            tasks: 0,
            remaining: AtomicUsize::new(0),
            limit: 1,
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
        })
    }

    #[test]
    fn chase_lev_deque_push_pop_steal_roundtrip() {
        // The name predates the single queue; the test now pins its contract.
        // A one-worker pool has no resident thread to consume the queue, so
        // advertisements come back out in exactly the order they went in.
        let pool = WorkerPool::new(1);
        let cores: Vec<Arc<JobCore>> = (0..16).map(stale_core).collect();
        for core in &cores {
            pool.shared.publish(stale_handle(core));
        }
        let popped: Vec<usize> =
            std::iter::from_fn(|| lock_unpoisoned(&pool.shared.state).queue.pop_front())
                .map(|handle| handle.core.cursor.load(Ordering::Relaxed))
                .collect();
        assert_eq!(popped, (0..16).collect::<Vec<_>>(), "queue is not FIFO");
        assert!(cores.iter().all(|core| Arc::strong_count(core) == 1));

        // Dropping a pool frees whatever stale advertisements are left,
        // whether or not its workers got to them first.
        for workers in [1, 3] {
            let core = stale_core(0);
            let pool = WorkerPool::new(workers);
            for _ in 0..32 {
                pool.shared.publish(stale_handle(&core));
            }
            drop(pool);
            assert_eq!(Arc::strong_count(&core), 1, "workers={workers}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_asserts_in_debug_builds() {
        let _ = WorkerPool::new(0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn zero_workers_clamps_to_one_in_release_builds() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let count = AtomicUsize::new(0);
        pool.dispatch(3, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shared_pool_is_usable_and_sized() {
        let pool = shared();
        assert!(pool.workers() >= 1);
        let count = AtomicUsize::new(0);
        pool.dispatch(9, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 9);
        assert_eq!(stats().workers.len(), pool.workers() - 1);
    }
}
