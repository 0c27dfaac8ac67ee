//! Persistent worker pool and structured data-parallel helpers.
//!
//! Every parallel kernel in the engine dispatches through the executor-owned
//! [`WorkerPool`]: a set of long-lived OS threads that park on a condition
//! variable between kernels and wake when a job is published. This replaces
//! the previous scheme of spawning fresh scoped threads inside every
//! `parallel_chunks` call — a CG solve running 1000 iterations used to pay
//! thread-spawn latency ~3000 times; it now pays it once per executor.
//!
//! Scheduling is load balanced in two layers:
//!
//! * kernels choose *chunk boundaries* from the work distribution (e.g. CSR's
//!   nnz-balanced row blocks), and
//! * the pool distributes chunk indices over per-worker queues; a worker that
//!   drains its own queue **steals** chunk indices from its neighbours, so a
//!   mis-predicted chunk cost cannot idle the other workers.
//!
//! Chunk partitions are derived from the executor's [`DeviceSpec`] (never
//! from the lane count), so functional results are bitwise reproducible
//! across hosts; the executor gives its pool no more lanes (OS threads) than
//! the host has cores ([`Executor::functional_threads`]). The *modeled*
//! execution time likewise comes from the `pygko-sim` cost model (which
//! charges `chunk_overhead_ns` per scheduled chunk), while the pool
//! separately measures the *real* host-side dispatch overhead in
//! [`PoolStats`] for the overhead benchmarks.
//!
//! [`DeviceSpec`]: pygko_sim::DeviceSpec

use crate::executor::Executor;
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Counters describing everything a [`WorkerPool`] has done since creation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted (one per parallel kernel execution).
    pub dispatches: u64,
    /// Chunk closures executed across all jobs: the sum over the lanes'
    /// [`LaneStats::chunks`].
    pub chunks: u64,
    /// Chunks executed by a thread other than the queue's home worker: the
    /// sum over the lanes' [`LaneStats::steals`].
    pub steals: u64,
    /// Times a worker went to sleep waiting for work.
    pub parks: u64,
    /// Times a sleeping worker was woken for a job.
    pub unparks: u64,
    /// Cumulative wall-clock nanoseconds spent inside [`WorkerPool::run`]
    /// once it holds the pool (dispatch overhead plus chunk execution).
    pub dispatch_ns: u64,
}

impl PoolStats {
    /// Counter-wise difference `self - earlier`.
    ///
    /// Saturating on every field, so two snapshots passed in the wrong
    /// order clamp to zero instead of underflowing. Note what saturation
    /// does *not* promise: a baseline taken before the pool was torn down
    /// and re-armed diffs against stale counters — fields where the new
    /// pool has already passed the old totals yield ordinary (mis-
    /// attributed) differences, not zeros. Take a fresh baseline after
    /// re-arming; `since` only guarantees the arithmetic never panics.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            dispatches: self.dispatches.saturating_sub(earlier.dispatches),
            chunks: self.chunks.saturating_sub(earlier.chunks),
            steals: self.steals.saturating_sub(earlier.steals),
            parks: self.parks.saturating_sub(earlier.parks),
            unparks: self.unparks.saturating_sub(earlier.unparks),
            dispatch_ns: self.dispatch_ns.saturating_sub(earlier.dispatch_ns),
        }
    }
}

/// What one [`WorkerPool::run`] did, counted by that dispatch alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dispatched {
    /// Chunks executed by a lane other than their home queue's.
    pub steals: u64,
    /// Wall-clock nanoseconds from taking the pool to handing it back
    /// (publication, chunk execution and the completion handshake).
    pub wall_ns: u64,
}

/// Activity counters for one pool lane (execution slot). Lane `threads - 1`
/// is drained by the submitting thread; every other lane is a parked OS
/// worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Chunk closures this lane executed.
    pub chunks: u64,
    /// Of those, chunks taken from another lane's queue.
    pub steals: u64,
    /// Wall-clock nanoseconds this lane spent draining chunks.
    pub busy_ns: u64,
}

impl LaneStats {
    /// Counter-wise difference `self - earlier` (saturating, like
    /// [`PoolStats::since`]).
    pub fn since(&self, earlier: &LaneStats) -> LaneStats {
        LaneStats {
            chunks: self.chunks.saturating_sub(earlier.chunks),
            steals: self.steals.saturating_sub(earlier.steals),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
        }
    }
}

/// Lane-wise saturating difference of two per-lane snapshots.
///
/// Tolerates length mismatches (a pool re-armed with a different lane count
/// between the two snapshots): lanes added after the baseline snapshot
/// (present in `now`, missing from `earlier`) diff against a zero baseline
/// and so can never underflow, while lanes absent from `now` are dropped
/// (the result always has `now.len()` entries, positionally aligned with
/// `now`). Per-lane fields saturate exactly like [`LaneStats::since`].
pub fn lane_stats_since(now: &[LaneStats], earlier: &[LaneStats]) -> Vec<LaneStats> {
    now.iter()
        .enumerate()
        .map(|(i, lane)| lane.since(earlier.get(i).unwrap_or(&LaneStats::default())))
        .collect()
}

/// Per-lane counters, padded to a cache line so lanes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct LaneCounters {
    chunks: AtomicU64,  // atomic: counter
    steals: AtomicU64,  // atomic: counter
    busy_ns: AtomicU64, // atomic: counter
}

/// Lifetime-erased pointer to the job closure. Validity is guaranteed by
/// [`WorkerPool::run`], which blocks until every worker is done with it.
type TaskPtr = *const (dyn Fn(usize) + Sync);

/// One chunk as a lane ran it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChunkRun {
    /// The chunk index.
    pub(crate) index: usize,
    /// Taken from another lane's queue.
    pub(crate) steal: bool,
    /// Nanoseconds from the log's epoch to the chunk's start.
    pub(crate) start_ns: u64,
    /// Nanoseconds the chunk closure ran.
    pub(crate) dur_ns: u64,
}

/// One lane's chunk runs, padded to a cache line so lanes never
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct LaneLog(Mutex<Vec<ChunkRun>>); // lock: pool.chunk_log

/// The per-chunk record of one pool dispatch: which lane ran which chunk,
/// stolen or not, and when. `drain` writes it, each lane into its own
/// buffer, whenever the dispatch carries one; the sanitizer checks that the
/// lanes' chunks partition the dispatch and the tracer turns the runs into
/// chunk spans.
pub(crate) struct ChunkLog {
    epoch: Instant,
    lanes: Box<[LaneLog]>,
}

impl ChunkLog {
    /// An empty log for a pool of `lanes` lanes, its clock starting now.
    pub(crate) fn new(lanes: usize) -> Self {
        ChunkLog {
            // lint: allow(forbidden-api): chunk start times feed trace spans
            // only; they never enter the virtual timeline or a kernel result.
            epoch: Instant::now(),
            lanes: (0..lanes.max(1)).map(|_| LaneLog::default()).collect(),
        }
    }

    /// The instant the log's times count from.
    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Lane `lane`'s buffer, held while the lane drains, with the log's
    /// epoch. A lane past the log's last records into the last, so a
    /// miscounted lane id fails the sanitizer's check instead of panicking.
    pub(crate) fn lane(&self, lane: usize) -> LaneHold<'_> {
        let buf = &self.lanes[lane.min(self.lanes.len() - 1)];
        (
            self.epoch,
            buf.0.lock().unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Every lane's runs, in lane order. Read once the dispatch is over.
    pub(crate) fn lanes(&self) -> impl Iterator<Item = MutexGuard<'_, Vec<ChunkRun>>> {
        self.lanes
            .iter()
            .map(|buf| buf.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A draining lane's hold on its buffer of a [`ChunkLog`], with the log's
/// epoch.
pub(crate) type LaneHold<'a> = (Instant, MutexGuard<'a, Vec<ChunkRun>>);

/// Runs chunk `index` through `task`, timing and recording the run when the
/// lane holds a log.
#[inline]
fn run_chunk(log: &mut Option<LaneHold<'_>>, index: usize, steal: bool, task: impl FnOnce()) {
    let Some((epoch, runs)) = log else {
        return task();
    };
    let start_ns = epoch.elapsed().as_nanos() as u64;
    task();
    let dur_ns = (epoch.elapsed().as_nanos() as u64).saturating_sub(start_ns);
    runs.push(ChunkRun {
        index,
        steal,
        start_ns,
        dur_ns,
    });
}

/// One worker's range of chunk indices. `next` is bumped with `fetch_add` by
/// the owner *and* by thieves; an index is executed iff the fetched value is
/// still below `end`, so every index in `[start, end)` runs exactly once.
struct ChunkQueue {
    next: AtomicUsize, // atomic: counter
    end: usize,
}

/// The job currently published to the workers.
struct Job {
    task: TaskPtr,
    /// The dispatch's chunk log, null when it carries none. Kept alive like
    /// `task`.
    log: *const ChunkLog,
    queues: Vec<ChunkQueue>,
    /// Chunks this job's lanes took from other lanes' queues.
    steals: AtomicU64, // atomic: counter
}

/// Worker-visible pool state.
struct Shared {
    control: Mutex<Epoch>, // lock: pool.control
    work_ready: Condvar,
    work_done: Condvar,
    /// Written by the submitter strictly before the epoch bump, read by
    /// workers strictly after observing it (both under `control`), cleared
    /// only after `active` hits zero.
    job: UnsafeCell<Option<Job>>,
    /// Workers still executing the current job.
    active: AtomicUsize, // atomic: flag
    shutdown: AtomicBool, // atomic: flag
    /// First panic payload raised inside a chunk closure, re-raised on the
    /// submitting thread.
    panic_slot: Mutex<Option<Box<dyn Any + Send>>>, // lock: pool.panic_slot
    dispatches: AtomicU64, // atomic: counter
    parks: AtomicU64,     // atomic: counter
    unparks: AtomicU64,   // atomic: counter
    dispatch_ns: AtomicU64, // atomic: counter
    /// One padded counter block per lane, indexed by lane id.
    lanes: Vec<LaneCounters>,
}

struct Epoch(u64);

// SAFETY: `job` is only mutated by the submitting thread while no worker is
// active (enforced by the `active` counter + `submit` lock), and the epoch
// handshake through `control` orders those accesses.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

thread_local! {
    /// The lane the current thread is executing chunks as for some pool,
    /// `None` outside any drain: a nested dispatch runs inline on that lane
    /// instead of deadlocking on `submit`.
    static IN_POOL_WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A persistent, work-stealing pool of `threads` execution lanes.
///
/// `threads - 1` OS threads are spawned at construction and parked between
/// jobs; the thread calling [`WorkerPool::run`] acts as the final lane, so a
/// pool of `n` lanes keeps `n` threads busy while a kernel runs and none
/// while idle. It runs the count it is given; an executor gives it
/// [`Executor::functional_threads`], at most the host's cores.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: usize,
    submit: Mutex<()>, // lock: pool.submit
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("stats", &self.stats())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` lanes (`threads - 1` parked OS workers).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            control: Mutex::new(Epoch(0)),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            job: UnsafeCell::new(None),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic_slot: Mutex::new(None),
            dispatches: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            dispatch_ns: AtomicU64::new(0),
            lanes: (0..threads).map(|_| LaneCounters::default()).collect(),
        });
        let handles = (0..threads - 1)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gko-pool-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    // lint: allow(panic): pool construction, not a kernel
                    // path — if the OS cannot spawn threads there is no
                    // meaningful recovery, and callers get a pool-less
                    // executor only by configuration, never by fallback.
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            submit: Mutex::new(()),
            handles,
        }
    }

    /// Number of execution lanes (including the submitting thread's).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared;
        let lanes = self.lane_stats();
        PoolStats {
            dispatches: s.dispatches.load(Ordering::Relaxed),
            chunks: lanes.iter().map(|l| l.chunks).sum(),
            steals: lanes.iter().map(|l| l.steals).sum(),
            parks: s.parks.load(Ordering::Relaxed),
            unparks: s.unparks.load(Ordering::Relaxed),
            dispatch_ns: s.dispatch_ns.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the per-lane activity counters, indexed by lane id.
    ///
    /// The vector always has [`WorkerPool::threads`] entries; a lane that
    /// never executed a chunk reports zeros.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.shared
            .lanes
            .iter()
            .map(|l| LaneStats {
                chunks: l.chunks.load(Ordering::Relaxed),
                steals: l.steals.load(Ordering::Relaxed),
                busy_ns: l.busy_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Executes `task(i)` for every `i in 0..n_chunks`, distributing indices
    /// over the pool's lanes with work stealing. Blocks until all chunks
    /// completed; panics from chunk closures are forwarded. Returns what this
    /// dispatch alone did, whatever other threads dispatch meanwhile; a
    /// nested dispatch runs inline and reports nothing.
    pub fn run(&self, n_chunks: usize, task: &(dyn Fn(usize) + Sync)) -> Dispatched {
        self.run_logged(n_chunks, task, None)
    }

    /// [`WorkerPool::run`], with every chunk run recorded in `log` when
    /// given (a nested dispatch's too, on the lane it runs inline on).
    pub(crate) fn run_logged(
        &self,
        n_chunks: usize,
        task: &(dyn Fn(usize) + Sync),
        log: Option<&ChunkLog>,
    ) -> Dispatched {
        if n_chunks == 0 {
            return Dispatched::default();
        }
        // A chunk closure that itself dispatches (nested parallelism) would
        // deadlock waiting on its own pool; run such jobs inline instead.
        if let Some(lane) = IN_POOL_WORKER.with(Cell::get) {
            let mut log = log.map(|log| log.lane(lane));
            for index in 0..n_chunks {
                run_chunk(&mut log, index, false, || task(index));
            }
            return Dispatched::default();
        }
        let _submission = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        // lint: allow(forbidden-api): measures real dispatch overhead for
        // `PoolStats` diagnostics only; the value never feeds the virtual
        // timeline or any kernel result.
        let start = Instant::now();
        let lanes = self.threads;
        let queues: Vec<ChunkQueue> = (0..lanes)
            .map(|w| ChunkQueue {
                next: AtomicUsize::new(w * n_chunks / lanes),
                end: (w + 1) * n_chunks / lanes,
            })
            .collect();
        let workers = self.handles.len();
        let task: TaskPtr =
            // SAFETY: the transmute erases the borrow's lifetime into the
            // `'static`-defaulted raw trait-object pointer; `run` blocks
            // until every lane finished and clears the slot before
            // returning, so the pointer never outlives the borrow.
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), TaskPtr>(task) };
        // SAFETY: no worker is active (previous run drained them and this
        // thread holds `submit`), so the slot is exclusively ours.
        unsafe {
            *self.shared.job.get() = Some(Job {
                task,
                log: log.map_or(std::ptr::null(), |log| log as *const ChunkLog),
                queues,
                steals: AtomicU64::new(0),
            });
        }
        self.shared.active.store(workers, Ordering::Release);
        if workers > 0 {
            let mut epoch = self
                .shared
                .control
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            epoch.0 += 1;
            self.shared.work_ready.notify_all();
        }
        // The submitting thread is the last lane: drain its own queue, then
        // steal leftovers, in parallel with the woken workers.
        {
            // SAFETY: published above; workers only read it.
            // lint: allow(panic): the slot was set to `Some` a few lines up
            // while holding `submit`, so `as_ref()` cannot be `None`.
            let job = unsafe { (*self.shared.job.get()).as_ref().unwrap() };
            IN_POOL_WORKER.with(|w| w.set(Some(lanes - 1)));
            let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain(&self.shared, job, lanes - 1);
            }));
            IN_POOL_WORKER.with(|w| w.set(None));
            if let Err(payload) = drained {
                store_panic(&self.shared, payload);
            }
        }
        if workers > 0 {
            let mut epoch = self
                .shared
                .control
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            while self.shared.active.load(Ordering::Acquire) != 0 {
                epoch = self
                    .shared
                    .work_done
                    .wait(epoch)
                    .unwrap_or_else(|e| e.into_inner());
            }
            drop(epoch);
        }
        // SAFETY: all lanes are done; drop the job (and the erased pointers)
        // before the borrows of `task` and `log` end. The lanes' steal counts
        // happen before: each worker added its own before the `active`
        // decrement this thread acquired.
        let job = unsafe { (*self.shared.job.get()).take() };
        let steals = job.map_or(0, |job| job.steals.into_inner());
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        self.shared
            .dispatch_ns
            .fetch_add(wall_ns, Ordering::Relaxed);
        let payload = self
            .shared
            .panic_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
        Dispatched { steals, wall_ns }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _epoch = self.shared.control.lock();
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn store_panic(shared: &Shared, payload: Box<dyn Any + Send>) {
    let mut slot = shared.panic_slot.lock().unwrap_or_else(|e| e.into_inner());
    if slot.is_none() {
        *slot = Some(payload);
    }
}

/// Executes chunks for lane `me`: first its own queue, then round-robin
/// stealing from the other lanes' queues, recording each run in the job's
/// chunk log when it carries one.
fn drain(shared: &Shared, job: &Job, me: usize) {
    let lanes = job.queues.len();
    let mut ran = 0u64;
    let mut stolen = 0u64;
    // SAFETY: `run` keeps the log, like the closure, alive until every lane
    // exits.
    let mut log = unsafe { job.log.as_ref() }.map(|log| log.lane(me));
    // lint: allow(forbidden-api): real busy time per lane feeds the
    // utilization-skew telemetry only; it never enters the virtual timeline
    // or any kernel result.
    let start = Instant::now();
    for offset in 0..lanes {
        let queue = &job.queues[(me + offset) % lanes];
        let steal = offset != 0;
        loop {
            let index = queue.next.fetch_add(1, Ordering::Relaxed);
            if index >= queue.end {
                break;
            }
            // SAFETY: `run` keeps the closure alive until every lane exits.
            run_chunk(&mut log, index, steal, || unsafe { (*job.task)(index) });
            ran += 1;
            stolen += u64::from(steal);
        }
    }
    job.steals.fetch_add(stolen, Ordering::Relaxed);
    if let Some(lane) = shared.lanes.get(me) {
        lane.chunks.fetch_add(ran, Ordering::Relaxed);
        lane.steals.fetch_add(stolen, Ordering::Relaxed);
        lane.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Body of one parked OS worker.
fn worker_loop(shared: Arc<Shared>, id: usize) {
    let mut seen = 0u64;
    loop {
        {
            let mut epoch = shared.control.lock().unwrap_or_else(|e| e.into_inner());
            if epoch.0 == seen && !shared.shutdown.load(Ordering::Relaxed) {
                shared.parks.fetch_add(1, Ordering::Relaxed);
                while epoch.0 == seen && !shared.shutdown.load(Ordering::Relaxed) {
                    epoch = shared
                        .work_ready
                        .wait(epoch)
                        .unwrap_or_else(|e| e.into_inner());
                }
                shared.unparks.fetch_add(1, Ordering::Relaxed);
            }
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            seen = epoch.0;
        }
        {
            // SAFETY: the epoch handshake guarantees the job was fully
            // published before we observed the bump.
            // lint: allow(panic): same handshake — a bumped epoch implies
            // the submitter stored `Some` before notifying.
            let job = unsafe { (*shared.job.get()).as_ref().unwrap() };
            IN_POOL_WORKER.with(|w| w.set(Some(id)));
            let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain(&shared, job, id);
            }));
            IN_POOL_WORKER.with(|w| w.set(None));
            if let Err(payload) = drained {
                store_panic(&shared, payload);
            }
        }
        let _epoch = shared.control.lock().unwrap_or_else(|e| e.into_inner());
        if shared.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.work_done.notify_all();
        }
    }
}

/// Shared view of the pre-split output pieces, indexable from any lane.
struct PieceTable<'a, T>(*mut &'a mut [T]);

// SAFETY: each piece index is delivered to exactly one lane per job (see
// `ChunkQueue`), so concurrent `&mut` access is disjoint.
unsafe impl<T: Send> Send for PieceTable<'_, T> {}
unsafe impl<T: Send> Sync for PieceTable<'_, T> {}

impl<'a, T> PieceTable<'a, T> {
    /// # Safety
    ///
    /// `i` must be in bounds and held by at most one lane at a time.
    #[allow(clippy::mut_from_ref)] // exclusivity is the caller's contract above
    unsafe fn piece(&self, i: usize) -> &mut &'a mut [T] {
        &mut *self.0.add(i)
    }
}

/// Splits `out` at the given chunk boundaries and applies
/// `f(chunk_index, chunk_slice)` to every chunk on `exec`'s worker pool
/// (serially when the executor has a single functional thread).
///
/// `bounds` must be non-decreasing, start at 0, and end at `out.len()`;
/// chunk `i` receives `out[bounds[i]..bounds[i+1]]`.
///
/// # Panics
///
/// Panics if the bounds are malformed or if any chunk closure panics.
pub fn parallel_chunks<T, F>(exec: &Executor, out: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(!bounds.is_empty(), "bounds must contain at least [0]");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        // lint: allow(panic): non-empty asserted two lines above.
        *bounds.last().unwrap(),
        out.len(),
        "bounds must end at the slice length"
    );
    let chunks = bounds.len() - 1;
    let mut rest = out;
    let pieces = bounds.windows(2).map(move |w| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
        rest = tail;
        head
    });
    let pool = match exec.worker_pool() {
        Some(pool) if chunks > 1 => pool,
        _ => {
            pieces.enumerate().for_each(|(i, piece)| f(i, piece));
            return;
        }
    };
    // Lanes fetch chunk indices from the pool queues and look their piece
    // up by index.
    let mut pieces: Vec<&mut [T]> = pieces.collect();
    let table = PieceTable(pieces.as_mut_ptr());
    // With the sanitizer armed or a trace live on this thread (each off:
    // one relaxed load), the lanes log every chunk they run. The sanitizer
    // checks that the log partitions the chunk range (the machine check
    // behind `PieceTable`'s SAFETY argument); the tracer turns it into the
    // dispatch span's chunk spans.
    let sanitize = exec.sanitizer().is_enabled();
    let span = exec.observer().begin_dispatch(chunks);
    let log = (sanitize || span.is_some()).then(|| ChunkLog::new(pool.threads()));
    let body = |i: usize| {
        // SAFETY: index `i` is delivered exactly once, so this `&mut` is the
        // only live reference to piece `i`.
        f(i, unsafe { table.piece(i) });
    };
    let dispatched = pool.run_logged(chunks, &body, log.as_ref());
    if let Some(log) = &log {
        if sanitize {
            exec.sanitizer().check_dispatch(log, chunks);
        }
        if let Some(span) = span {
            exec.observer().end_dispatch(span, log);
        }
    }
    if exec.loggers().is_active() {
        exec.loggers().log(&crate::log::Event::PoolDispatch {
            chunks: chunks as u64,
            steals: dispatched.steals,
            threads: pool.threads(),
            wall_ns: dispatched.wall_ns,
        });
    }
}

/// Pairwise (tree) reduction of partial sums.
///
/// Unlike a left-to-right fold, the tree shape keeps rounding error growth
/// logarithmic in the chunk count and matches how device reductions combine
/// partials, while staying fully deterministic for a given partial order.
pub fn tree_reduce(partials: &[f64]) -> f64 {
    match partials.len() {
        0 => 0.0,
        1 => partials[0],
        n => {
            let mid = n.div_ceil(2);
            tree_reduce(&partials[..mid]) + tree_reduce(&partials[mid..])
        }
    }
}

/// Builds chunk boundaries that split `n` items into at most `max_chunks`
/// nearly equal ranges (the classical row-block partition).
pub fn uniform_bounds(n: usize, max_chunks: usize) -> Vec<usize> {
    let chunks = max_chunks.max(1).min(n.max(1));
    let mut bounds = Vec::with_capacity(chunks + 1);
    for i in 0..=chunks {
        bounds.push(i * n / chunks);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn omp(threads: usize) -> Executor {
        Executor::omp(threads)
    }

    #[test]
    fn serial_path_applies_all_chunks() {
        let mut data = vec![0u32; 10];
        parallel_chunks(&Executor::reference(), &mut data, &[0, 3, 7, 10], |i, s| {
            s.fill(i as u32 + 1);
        });
        assert_eq!(data, [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn parallel_path_matches_serial() {
        let mut serial = vec![0u64; 1000];
        let mut parallel = vec![0u64; 1000];
        let bounds = uniform_bounds(1000, 16);
        let kernel = |i: usize, s: &mut [u64]| {
            for (k, v) in s.iter_mut().enumerate() {
                *v = (i * 31 + k) as u64;
            }
        };
        parallel_chunks(&Executor::reference(), &mut serial, &bounds, kernel);
        parallel_chunks(&omp(4), &mut parallel, &bounds, kernel);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_chunks_are_allowed() {
        let mut data = vec![7u8; 4];
        parallel_chunks(&omp(2), &mut data, &[0, 0, 4, 4], |i, s| {
            if i == 1 {
                s.fill(9);
            } else {
                assert!(s.is_empty());
            }
        });
        assert_eq!(data, [9, 9, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "bounds must end")]
    fn bad_bounds_panic() {
        let mut data = vec![0u8; 4];
        parallel_chunks(&Executor::reference(), &mut data, &[0, 2], |_, _| {});
    }

    #[test]
    fn uniform_bounds_cover_exactly() {
        let b = uniform_bounds(10, 3);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&10));
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        // More chunks than items degrades to one item per chunk.
        let b = uniform_bounds(2, 100);
        assert_eq!(b, vec![0, 1, 2]);
        // Zero items yields a single empty chunk.
        let b = uniform_bounds(0, 4);
        assert_eq!(b, vec![0, 0]);
    }

    #[test]
    fn pool_is_persistent_across_dispatches() {
        let exec = omp(4);
        let mut data = vec![0u32; 64];
        let bounds = uniform_bounds(64, 8);
        for round in 0..10 {
            parallel_chunks(&exec, &mut data, &bounds, |i, s| {
                s.fill((round * 100 + i) as u32);
            });
        }
        let stats = exec.pool_stats();
        assert_eq!(stats.dispatches, 10, "one dispatch per kernel");
        assert_eq!(stats.chunks, 80, "8 chunks per kernel");
        // The workers were spawned once and parked between jobs, never
        // respawned: parks can exceed dispatches (initial park) but the pool
        // object itself persisted, which `threads()` pins down.
        assert_eq!(
            exec.worker_pool().unwrap().threads(),
            exec.functional_threads()
        );
    }

    #[test]
    fn worker_panics_propagate_to_the_submitter() {
        let exec = omp(2);
        let mut data = vec![0u8; 8];
        let bounds = uniform_bounds(8, 8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_chunks(&exec, &mut data, &bounds, |i, _| {
                if i == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // The pool survives the panic and keeps working.
        parallel_chunks(&exec, &mut data, &bounds, |i, s| s.fill(i as u8));
        assert_eq!(data, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let exec = omp(2);
        let exec2 = exec.clone();
        let mut outer = vec![0u32; 4];
        parallel_chunks(&exec, &mut outer, &[0, 2, 4], |_, s| {
            // A nested job on the same executor must not deadlock.
            let mut inner = vec![0u32; 4];
            parallel_chunks(&exec2, &mut inner, &[0, 2, 4], |i, t| {
                t.fill(i as u32 + 1);
            });
            s[0] = inner.iter().sum();
        });
        assert_eq!(outer[0], 6);
    }

    /// Each `PoolDispatch` event counts its own dispatch, not what other
    /// threads dispatched on the same pool meanwhile: two threads, each
    /// dispatching a fixed chunk count, released together every round.
    #[test]
    fn concurrent_dispatches_each_report_their_own_counts() {
        use crate::log::{Event, Record};
        const ROUNDS: usize = 3_000;
        let exec = omp(4);
        let record = Arc::new(Record::with_capacity(4 * ROUNDS));
        exec.add_logger(record.clone());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for chunks in [3usize, 5] {
                let (exec, start) = (&exec, &start);
                scope.spawn(move || {
                    let mut data = vec![0u8; chunks];
                    let bounds: Vec<usize> = (0..=chunks).collect();
                    for _ in 0..ROUNDS {
                        start.wait();
                        parallel_chunks(exec, &mut data, &bounds, |i, s| s.fill(i as u8));
                    }
                });
            }
        });
        let mut dispatches = [0usize; 2];
        for event in record.events() {
            if let Event::PoolDispatch { chunks, steals, .. } = event {
                assert!(chunks == 3 || chunks == 5, "a dispatch of {chunks} chunks");
                assert!(steals <= chunks, "{steals} steals of {chunks} chunks");
                dispatches[usize::from(chunks == 5)] += 1;
            }
        }
        assert_eq!(dispatches, [ROUNDS, ROUNDS]);
    }

    #[test]
    fn stats_track_steals_on_skewed_chunks() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        // 64 chunks, one lane's queue is made artificially slow so others
        // finish and steal. We can't control the scheduler, but we can check
        // the books balance: every chunk ran exactly once.
        let counter = AtomicU64::new(0);
        pool.run(64, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let d = pool.stats().since(&before);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(d.chunks, 64);
        assert_eq!(d.dispatches, 1);
        assert!(d.steals <= 64);
    }

    #[test]
    fn lane_stats_account_for_every_chunk() {
        let pool = WorkerPool::new(4);
        // `run` wakes the workers before the submitting thread (the last
        // lane) drains its own queue, so three workers could finish 64 empty
        // chunks before it takes one. A chunk on a worker lane therefore
        // waits for the submitting lane's first chunk: every worker is held
        // in the first chunk it takes, and the submitter's queue is still
        // untouched when it gets there.
        let submitter_ran = AtomicBool::new(false);
        let submitter = std::thread::current().id();
        pool.run(64, &|_| {
            if std::thread::current().id() == submitter {
                submitter_ran.store(true, Ordering::Release);
            }
            while !submitter_ran.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let lanes = pool.lane_stats();
        assert_eq!(lanes.len(), 4, "one entry per lane");
        let total: u64 = lanes.iter().map(|l| l.chunks).sum();
        assert_eq!(total, 64, "per-lane chunks sum to the pool total");
        let steals: u64 = lanes.iter().map(|l| l.steals).sum();
        assert_eq!(steals, pool.stats().steals, "per-lane steals sum too");
        // The submitting thread (last lane) always participates.
        assert!(lanes[3].chunks > 0);
    }

    #[test]
    fn stats_since_never_underflows_across_rearm() {
        // Snapshots taken across a pool teardown + re-arm (or simply passed
        // in the wrong order) must yield zeros, never panic.
        let old_pool = WorkerPool::new(2);
        old_pool.run(32, &|_| {});
        let before = old_pool.stats();
        let before_lanes = old_pool.lane_stats();
        drop(old_pool);
        let fresh = WorkerPool::new(3);
        fresh.run(2, &|_| {});
        let d = fresh.stats().since(&before);
        assert!(d.chunks <= 2, "saturated, not wrapped: {d:?}");
        // Inverted order outright: every field saturates to zero.
        let inverted = PoolStats::default().since(&before);
        assert_eq!(inverted, PoolStats::default());
        // Per-lane diffs tolerate both inversion and lane-count mismatch.
        let lane_d = lane_stats_since(&fresh.lane_stats(), &before_lanes);
        assert_eq!(lane_d.len(), 3, "diff follows the newer snapshot");
        let zero = lane_stats_since(&[LaneStats::default()], &before_lanes);
        assert_eq!(zero, vec![LaneStats::default()]);
    }

    #[test]
    fn lane_stats_since_lanes_added_after_baseline_diff_against_zero() {
        // Regression: a baseline snapshot taken from a smaller pool must
        // not underflow (or misalign) when the pool is re-armed with more
        // lanes — new lanes diff against zero, pre-existing lane slots
        // saturate per field, and the result stays positionally aligned
        // with the newer snapshot.
        let earlier = vec![LaneStats {
            chunks: 10,
            steals: 4,
            busy_ns: 1_000,
        }];
        let now = vec![
            LaneStats {
                chunks: 5, // below the stale baseline: saturates, no wrap
                steals: 9,
                busy_ns: 500,
            },
            LaneStats {
                chunks: 7,
                steals: 2,
                busy_ns: 300,
            },
            LaneStats {
                chunks: 9,
                steals: 0,
                busy_ns: 800,
            },
        ];
        let d = lane_stats_since(&now, &earlier);
        assert_eq!(d.len(), now.len(), "aligned with the newer snapshot");
        assert_eq!(
            d[0],
            LaneStats {
                chunks: 0,
                steals: 5,
                busy_ns: 0
            }
        );
        // Lanes added after the baseline: full current values, no underflow.
        assert_eq!(d[1], now[1]);
        assert_eq!(d[2], now[2]);
        // Shrunk pool: extra baseline lanes are dropped, not diffed.
        let shrunk = lane_stats_since(&now[..1], &now);
        assert_eq!(shrunk, vec![LaneStats::default()]);
    }

    #[test]
    fn tree_reduce_matches_linear_sum_on_exact_values() {
        assert_eq!(tree_reduce(&[]), 0.0);
        assert_eq!(tree_reduce(&[3.5]), 3.5);
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(tree_reduce(&v), 4950.0);
    }
}
