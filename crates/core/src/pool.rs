//! Bounded worker pool for parallel probing (std-only concurrency).
//!
//! The probing driver (paper §IV-B) spends almost all of its time in
//! compile-and-run probe cycles. The speculative sibling probes of every
//! bisection step, across all [`crate::driver::TestCase`]s of a suite,
//! run on one [`WorkerPool`]: a fixed set of `std::thread` workers
//! draining a single FIFO queue, so a `--jobs N` budget bounds the total
//! probe concurrency of a whole suite run no matter how many drivers
//! feed it.
//!
//! # Concurrency contract
//!
//! * Jobs are opaque `FnOnce() + Send` closures; they must not block on
//!   other pool jobs (probe jobs never do — each one is a self-contained
//!   compile + execute + verify cycle), otherwise the bounded pool can
//!   deadlock.
//! * Jobs dequeue in submission order; any idle worker takes the oldest
//!   queued job regardless of which driver submitted it. Completion
//!   order is unspecified; consumers synchronize through the channel
//!   they pass into their job (see `Driver::probe_speculative`).
//! * [`CancelToken`] is advisory: a job observes it *before* starting
//!   expensive work. A job already past that check runs to completion;
//!   cancellation then merely means nobody consumes its result (the
//!   shared verdict cache still keeps the work from being wasted, and
//!   the driver traces it as a `cancelled` probe).
//! * A job that panics takes down only its own worker thread: the pool
//!   detects the unwind and spawns a replacement, so the configured
//!   `--jobs` width survives any number of misbehaving probes. The
//!   panicked job's result channel is dropped, which its consumer
//!   observes as a disconnect (see `Driver::wait_probe`). Counted in
//!   [`WorkerPool::panics`] / [`WorkerPool::respawns`].
//! * [`WorkerPool::submit`] after [`WorkerPool::close`] (or mid-drop)
//!   returns [`SubmitError`] and leaves the queue-depth gauge exactly
//!   where it was — the rejected job never counts as queued.
//! * Dropping the pool closes the queue and joins every worker
//!   (replacements included); jobs still queued at that point are run
//!   by the workers before they exit. Only if a worker dies during
//!   shutdown (when no replacement is spawned) can jobs be left
//!   stranded — `Drop` drains those and decrements the queue-depth
//!   gauge per job, so the gauge always returns to its pre-pool level.

use std::collections::VecDeque;
use std::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Arc, Condvar, Mutex, MutexGuard, OnceLock,
};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Registry handles, resolved once. The queue-depth gauge tracks
/// submitted-but-not-yet-dequeued jobs across every pool in the
/// process (suite runs share one pool, so that is the number that
/// matters for sizing `--jobs`).
struct PoolMetrics {
    queue_depth: &'static oraql_obs::Gauge,
    submitted: &'static oraql_obs::Counter,
    panics: &'static oraql_obs::Counter,
    respawns: &'static oraql_obs::Counter,
}

fn metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = oraql_obs::global();
        PoolMetrics {
            queue_depth: r.gauge("oraql_pool_queue_depth"),
            submitted: r.counter("oraql_pool_jobs_submitted_total"),
            panics: r.counter("oraql_pool_panics_total"),
            respawns: r.counter("oraql_pool_respawns_total"),
        }
    })
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Advisory cancellation flag shared between a submitter and a queued
/// job. See the module docs for the exact semantics.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Requests cancellation; queued-but-unstarted jobs will be skipped.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The pool's queue was already closed when [`WorkerPool::submit`] was
/// called; the job was rejected without being queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitError;

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("worker pool is shut down")
    }
}

impl std::error::Error for SubmitError {}

/// The job queue proper. `closed` flips once, under the same mutex, so
/// workers can distinguish "empty for now" from "empty forever".
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// State shared between the pool handle and every worker thread.
struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    /// Live worker handles. Respawned workers push here, so `Drop` must
    /// keep popping until empty rather than iterate a snapshot.
    handles: Mutex<Vec<JoinHandle<()>>>,
    panics: AtomicU64,
    respawns: AtomicU64,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

/// A fixed-size pool of worker threads draining one FIFO queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    width: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.width)
            .field("panics", &self.panics())
            .finish()
    }
}

/// Armed for the lifetime of a worker thread; if the thread unwinds
/// out of a panicking job, `Drop` spawns a replacement so the pool
/// keeps its configured width.
struct RespawnGuard(Arc<Shared>);

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return; // clean exit: the queue was closed
        }
        self.0.panics.fetch_add(1, Ordering::Relaxed);
        metrics().panics.inc();
        if self.0.shutdown.load(Ordering::Acquire) {
            // Pool is being dropped; no replacement is spawned, so jobs
            // this worker would have drained may be stranded in the
            // queue — `WorkerPool::drop` drains them after the joins.
            return;
        }
        // This runs during unwind, so it must not panic (that would
        // abort the process). A failed spawn just leaves the pool one
        // worker short — still functional as long as one survives.
        if spawn_worker(&self.0).is_ok() {
            self.0.respawns.fetch_add(1, Ordering::Relaxed);
            metrics().respawns.inc();
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>) -> std::io::Result<()> {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let s = Arc::clone(shared);
    let h = std::thread::Builder::new()
        .name(format!("oraql-probe-{id}"))
        .spawn(move || {
            let _guard = RespawnGuard(Arc::clone(&s));
            worker_loop(&s);
        })?;
    lock_ignore_poison(&shared.handles).push(h);
    Ok(())
}

impl WorkerPool {
    /// Spawns `jobs` worker threads (at least one).
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            handles: Mutex::new(Vec::with_capacity(jobs)),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        for _ in 0..jobs {
            spawn_worker(&shared).expect("spawn pool worker");
        }
        WorkerPool {
            shared,
            width: jobs,
        }
    }

    /// Number of worker threads the pool maintains.
    pub fn workers(&self) -> usize {
        self.width
    }

    /// How many jobs have panicked (and unwound a worker) so far.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// How many replacement workers were spawned after panics. Normally
    /// equals [`WorkerPool::panics`]; lags it only if a respawn itself
    /// failed (thread exhaustion) or the panic raced pool shutdown.
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Enqueues a job. Returns [`SubmitError`] — without queueing
    /// anything or disturbing the queue-depth gauge — if the pool was
    /// already closed.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        // Mirror the dequeue side: the gauge counts the job from the
        // moment submission is attempted, and is rolled back on the
        // error path so a rejected job leaves no trace.
        metrics().queue_depth.inc();
        {
            let mut q = lock_ignore_poison(&self.shared.queue);
            if q.closed {
                drop(q);
                metrics().queue_depth.dec();
                return Err(SubmitError);
            }
            q.jobs.push_back(Box::new(job));
        }
        metrics().submitted.inc();
        self.shared.available.notify_one();
        Ok(())
    }

    /// Closes the queue: subsequent submits fail with [`SubmitError`],
    /// and workers exit once the already-queued jobs are drained.
    /// Idempotent; called automatically by `Drop`.
    pub fn close(&self) {
        lock_ignore_poison(&self.shared.queue).closed = true;
        self.shared.available.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Hold the queue lock only while dequeuing, never while running
        // a job. A panicked sibling may have poisoned the mutex; the
        // queue state is still sound, so keep draining.
        let mut q = lock_ignore_poison(&shared.queue);
        let job = loop {
            if let Some(job) = q.jobs.pop_front() {
                break job;
            }
            if q.closed {
                return; // queue drained and closed: pool is shutting down
            }
            q = shared.available.wait(q).unwrap_or_else(|p| p.into_inner());
        };
        drop(q);
        metrics().queue_depth.dec();
        job();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.close();
        // Joining a panicked worker returns only after its unwind — and
        // thus its respawn push — completes, so popping until empty
        // also collects every replacement worker. Queued jobs are still
        // run: workers only exit once the closed queue is empty.
        loop {
            let h = lock_ignore_poison(&self.shared.handles).pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // If a worker died during shutdown (RespawnGuard skips the
        // replacement then), the jobs it would have drained are
        // stranded here. Drop them and release their gauge increments
        // so `oraql_pool_queue_depth` returns to its pre-pool level.
        let mut q = lock_ignore_poison(&self.shared.queue);
        while q.jobs.pop_front().is_some() {
            metrics().queue_depth.dec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// The panic/respawn counters are bumped during the dying thread's
    /// unwind, which can lag the replacement worker picking up the next
    /// job — so tests await them instead of asserting immediately.
    fn await_counts(pool: &WorkerPool, panics: u64, respawns: u64) {
        for _ in 0..5_000 {
            if pool.panics() == panics && pool.respawns() == respawns {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!((pool.panics(), pool.respawns()), (panics, respawns));
    }

    #[test]
    fn runs_all_jobs_bounded() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let hits = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel();
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            let tx = tx.clone();
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            })
            .unwrap();
        }
        for _ in 0..64 {
            rx.recv().unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn cancelled_jobs_are_skipped() {
        let pool = WorkerPool::new(1);
        let token = CancelToken::default();
        token.cancel();
        let ran = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel();
        let t = token.clone();
        let r = Arc::clone(&ran);
        pool.submit(move || {
            if !t.is_cancelled() {
                r.store(true, Ordering::SeqCst);
            }
            let _ = tx.send(());
        })
        .unwrap();
        rx.recv().unwrap();
        assert!(!ran.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_joins_workers() {
        let hits = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..8 {
                let hits = Arc::clone(&hits);
                pool.submit(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
        } // drop waits for the queue to drain
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_requested_workers_still_works() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = channel();
        pool.submit(move || {
            let _ = tx.send(7u8);
        })
        .unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn jobs_dequeue_in_submission_order() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<()>();
        // Block the single worker so everything below queues up.
        pool.submit(move || {
            gate_rx.recv().unwrap();
        })
        .unwrap();
        for tag in ["a", "b", "c", "d"] {
            let order = Arc::clone(&order);
            let done_tx = done_tx.clone();
            pool.submit(move || {
                lock_ignore_poison(&order).push(tag);
                let _ = done_tx.send(());
            })
            .unwrap();
        }
        gate_tx.send(()).unwrap();
        for _ in 0..4 {
            done_rx.recv().unwrap();
        }
        assert_eq!(*lock_ignore_poison(&order), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn submit_after_close_returns_error() {
        let pool = WorkerPool::new(2);
        pool.submit(|| {}).unwrap();
        pool.close();
        let err = pool.submit(|| unreachable!("must not run"));
        assert_eq!(err, Err(SubmitError));
        assert_eq!(SubmitError.to_string(), "worker pool is shut down");
    }

    #[test]
    fn panicking_job_respawns_worker() {
        oraql_faults::quiet_injected_panics();
        // Width 1: if the panicked worker were not replaced, the second
        // job could never run and recv() below would hang forever.
        let pool = WorkerPool::new(1);
        let (ptx, prx) = channel();
        pool.submit(move || {
            let _ = ptx.send(());
            std::panic::panic_any(oraql_faults::InjectedPanic("pool test"));
        })
        .unwrap();
        prx.recv().unwrap();
        let (tx, rx) = channel();
        pool.submit(move || {
            let _ = tx.send(42u8);
        })
        .unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
        await_counts(&pool, 1, 1);
    }

    #[test]
    fn pool_survives_repeated_panics() {
        oraql_faults::quiet_injected_panics();
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        for i in 0..16u64 {
            let tx = tx.clone();
            pool.submit(move || {
                let _ = tx.send(i);
                if i % 3 == 0 {
                    std::panic::panic_any(oraql_faults::InjectedPanic("chaos"));
                }
            })
            .unwrap();
        }
        let mut got: Vec<u64> = (0..16).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        await_counts(&pool, 6, 6); // panics at i = 0, 3, 6, 9, 12, 15
    }

    #[test]
    fn drop_after_panic_does_not_hang() {
        oraql_faults::quiet_injected_panics();
        let pool = WorkerPool::new(2);
        pool.submit(|| std::panic::panic_any(oraql_faults::InjectedPanic("late")))
            .unwrap();
        drop(pool); // must join the replacement worker too
    }
}
