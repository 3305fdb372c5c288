//! The persistent worker pool every experiment runs on.
//!
//! [`WorkerPool`] generalizes the scoped-thread `par_sweep` harness the
//! bench binaries used through PR 4 into a resident pool: worker threads
//! live for the pool's lifetime, jobs queue with priorities (FIFO within
//! a priority), and every job receives a [`CancelToken`] for cooperative
//! cancellation. Two consumption styles share the one thread-count
//! policy:
//!
//! * [`WorkerPool::submit`] — fire-and-forget `'static` jobs (the
//!   experiment service's path: one job per submitted `JobSpec`);
//! * [`WorkerPool::map`] — order-preserving parallel map (the
//!   `par_sweep` path). It runs on exactly `threads()` threads: the
//!   *calling* thread plus up to `threads() - 1` helper jobs. Because the
//!   caller participates in the work, a `map` issued from inside a pool
//!   job — or against a fully busy pool — always makes progress and can
//!   never deadlock waiting for a free worker.
//!
//! Sizing: `available_parallelism` capped by a caller-supplied limit
//! (the old hard-coded `.min(16)`), overridden end-to-end by the
//! `SECDDR_THREADS` environment variable so service deployments can
//! size the pool explicitly.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use secddr_telemetry::Gauge;

/// Default cap on worker threads when the caller does not supply one
/// (the `.min(16)` the scoped harness hard-coded).
pub const DEFAULT_THREAD_CAP: usize = 16;

/// Cooperative cancellation flag shared between a job's submitter and
/// the job itself. Cancellation never preempts: the job observes the
/// flag at its own checkpoints (the service checks between benchmark ×
/// configuration cells).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`Self::cancel`] was called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Pure thread-count policy: an explicit `SECDDR_THREADS` override wins,
/// otherwise the host parallelism capped at `cap`; always at least one.
#[must_use]
pub fn resolve_threads(available: usize, cap: usize, env_override: Option<&str>) -> usize {
    if let Some(n) = env_override.and_then(|v| v.trim().parse::<usize>().ok()) {
        if n >= 1 {
            return n;
        }
    }
    available.max(1).min(cap.max(1))
}

/// The thread count for this host: `SECDDR_THREADS` override, else
/// `available_parallelism` capped at `cap`.
#[must_use]
pub fn default_threads(cap: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    resolve_threads(
        available,
        cap,
        std::env::var("SECDDR_THREADS").ok().as_deref(),
    )
}

type Job = Box<dyn FnOnce(&CancelToken) + Send>;

struct QueuedJob {
    priority: i8,
    seq: u64,
    cancel: CancelToken,
    job: Job,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, FIFO (lower seq) within one.
        (self.priority, std::cmp::Reverse(self.seq))
            .cmp(&(other.priority, std::cmp::Reverse(other.seq)))
    }
}

#[derive(Default)]
struct QueueState {
    heap: BinaryHeap<QueuedJob>,
    next_seq: u64,
    /// Jobs currently executing on workers (for [`WorkerPool::wait_idle`]).
    running: usize,
    shutdown: bool,
}

/// Telemetry gauges a pool keeps current, updated inside the queue lock
/// on every transition so readers never observe a torn pair. The
/// experiment service registers these as `service.pool.queue_depth` /
/// `service.pool.inflight` in the global registry (the `metrics` TCP
/// endpoint serves them); the fleet dispatcher's least-loaded placement
/// and the report example read the same names.
#[derive(Debug, Clone, Default)]
pub struct PoolGauges {
    /// Jobs waiting in the priority queue (not yet picked up).
    pub queue_depth: Gauge,
    /// Jobs currently executing on workers.
    pub inflight: Gauge,
}

#[derive(Default)]
struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
    /// Signalled whenever the pool becomes idle (empty queue, nothing
    /// running).
    idle: Condvar,
    /// Present when the pool publishes its levels (see [`PoolGauges`]).
    gauges: Option<PoolGauges>,
}

impl Shared {
    /// Publishes the current levels; call with the state lock held.
    fn publish(&self, state: &QueueState) {
        if let Some(gauges) = &self.gauges {
            gauges.queue_depth.set(state.heap.len() as u64);
            gauges.inflight.set(state.running as u64);
        }
    }
}

/// A persistent priority worker pool (see the module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool with exactly `threads` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::build(threads, None)
    }

    /// A pool that additionally keeps `gauges` current (queue depth and
    /// in-flight count, updated on every queue transition).
    ///
    /// # Panics
    ///
    /// Panics when `threads` is zero.
    #[must_use]
    pub fn with_gauges(threads: usize, gauges: PoolGauges) -> Self {
        Self::build(threads, Some(gauges))
    }

    fn build(threads: usize, gauges: Option<PoolGauges>) -> Self {
        assert!(threads >= 1, "a worker pool needs at least one thread");
        let shared = Arc::new(Shared {
            gauges,
            ..Shared::default()
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("secddr-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// A pool sized by [`default_threads`] with the default cap.
    #[must_use]
    pub fn with_default_size() -> Self {
        Self::new(default_threads(DEFAULT_THREAD_CAP))
    }

    /// The process-wide shared pool ([`crate::par_sweep`] and the bench
    /// harnesses ride this one).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::with_default_size)
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` at `priority` (higher runs first; FIFO within a
    /// priority). The job always runs — a cancelled token is delivered
    /// to the job, which decides how to wind down (so submitters
    /// observing a job's side channel always see a terminal signal).
    pub fn submit<F>(&self, priority: i8, cancel: CancelToken, job: F)
    where
        F: FnOnce(&CancelToken) + Send + 'static,
    {
        let mut state = self.shared.state.lock().expect("pool lock");
        assert!(!state.shutdown, "submit on a shut-down pool");
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(QueuedJob {
            priority,
            seq,
            cancel,
            job: Box::new(job),
        });
        self.shared.publish(&state);
        drop(state);
        self.shared.available.notify_one();
    }

    /// Applies `f` to every item in parallel, preserving input order.
    ///
    /// Runs on exactly `threads()` threads: the caller's thread claims
    /// items alongside up to `threads() - 1` helper jobs (none on a
    /// 1-thread pool, where every item runs on the caller). So at most
    /// `threads()` items run at once, and the call always completes even
    /// when every worker is busy with long service jobs (a `map` from
    /// *inside* a pool job cannot deadlock). This is the engine under
    /// [`crate::par_sweep`].
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any invocation of `f` produced, after
    /// every in-flight item finished — the scoped-thread harness this
    /// replaces propagated closure panics at scope join, and a silent
    /// hang would be strictly worse.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        struct MapState<T, R, F> {
            items: Vec<T>,
            f: F,
            next: AtomicUsize,
            slots: Mutex<Vec<Option<R>>>,
            completed: Mutex<usize>,
            all_done: Condvar,
            /// First panic payload from any item (re-raised by the
            /// caller once everything settled).
            panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
        }

        fn drain<T, R, F: Fn(&T) -> R>(state: &MapState<T, R, F>) {
            loop {
                let i = state.next.fetch_add(1, Ordering::Relaxed);
                if i >= state.items.len() {
                    return;
                }
                // Even a panicking item must count as completed, or the
                // caller's wait below would hang forever on an item no
                // thread will ever claim again.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (state.f)(&state.items[i])
                }));
                match result {
                    Ok(result) => {
                        state.slots.lock().expect("map slots lock")[i] = Some(result);
                    }
                    Err(payload) => {
                        state
                            .panic
                            .lock()
                            .expect("map panic lock")
                            .get_or_insert(payload);
                    }
                }
                let mut completed = state.completed.lock().expect("map completion lock");
                *completed += 1;
                if *completed == state.items.len() {
                    state.all_done.notify_all();
                }
            }
        }

        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let mut slots = Vec::new();
        slots.resize_with(n, || None);
        let state = Arc::new(MapState {
            items,
            f,
            next: AtomicUsize::new(0),
            slots: Mutex::new(slots),
            completed: Mutex::new(0),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
        });
        // Helpers accelerate; the caller guarantees completion and is one
        // of the `threads()` drainers. One item needs no helpers at all.
        for _ in 0..(self.threads() - 1).min(n - 1) {
            let state = Arc::clone(&state);
            self.submit(0, CancelToken::new(), move |_| drain(&state));
        }
        drain(&state);
        let mut completed = state.completed.lock().expect("map completion lock");
        while *completed < n {
            completed = state.all_done.wait(completed).expect("map completion wait");
        }
        drop(completed);
        if let Some(payload) = state.panic.lock().expect("map panic lock").take() {
            std::panic::resume_unwind(payload);
        }
        let mut slots = state.slots.lock().expect("map slots lock");
        slots
            .iter_mut()
            .map(|slot| slot.take().expect("all slots filled"))
            .collect()
    }

    /// Blocks until the pool is idle: no queued and no running jobs.
    ///
    /// This is how a server drains in-flight work before exiting without
    /// depending on being the last holder of the pool (connection
    /// threads may still hold references).
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.running > 0 || !state.heap.is_empty() {
            state = self.shared.idle.wait(state).expect("pool idle wait");
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("pool lock");
    loop {
        if let Some(queued) = state.heap.pop() {
            state.running += 1;
            shared.publish(&state);
            drop(state);
            // Contain job panics: a resident pool must not degrade
            // toward zero workers because one job misbehaved. The
            // submitter observes the failure through its own side
            // channel (the service wraps its job body and converts a
            // panic into a terminal Failed event).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (queued.job)(&queued.cancel);
            }));
            state = shared.state.lock().expect("pool lock");
            state.running -= 1;
            shared.publish(&state);
            if state.running == 0 && state.heap.is_empty() {
                shared.idle.notify_all();
            }
        } else if state.shutdown {
            return;
        } else {
            state = shared.available.wait(state).expect("pool wait");
        }
    }
}

impl Drop for WorkerPool {
    /// Drains the queue: already-submitted jobs still run (each sees its
    /// own cancel token, so cancelled jobs wind down fast), then workers
    /// exit and are joined.
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool lock").shutdown = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn resolve_threads_policy() {
        // Cap applies (the old `.min(16)` behavior, now a parameter).
        assert_eq!(resolve_threads(32, 16, None), 16);
        assert_eq!(resolve_threads(8, 16, None), 8);
        assert_eq!(resolve_threads(8, 4, None), 4);
        // Env override wins over both available parallelism and cap.
        assert_eq!(resolve_threads(8, 16, Some("2")), 2);
        assert_eq!(resolve_threads(2, 4, Some("64")), 64);
        assert_eq!(resolve_threads(8, 16, Some(" 3 ")), 3);
        // Invalid or zero overrides fall back to the policy.
        assert_eq!(resolve_threads(8, 16, Some("zero")), 8);
        assert_eq!(resolve_threads(8, 16, Some("0")), 8);
        // Degenerate inputs stay at one thread minimum.
        assert_eq!(resolve_threads(0, 0, None), 1);
    }

    #[test]
    fn map_preserves_order_and_runs_everything() {
        let pool = WorkerPool::new(3);
        let out = pool.map((0u64..100).collect(), |&x| x * x);
        assert_eq!(out, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(pool.map(Vec::<u64>::new(), |&x| x), Vec::<u64>::new());
    }

    #[test]
    fn map_from_inside_a_job_cannot_deadlock() {
        // A 1-thread pool whose only worker runs a job that itself maps:
        // the inner map queues no helper (`threads() - 1` is zero), so the
        // calling worker drains every item itself.
        let pool = Arc::new(WorkerPool::new(1));
        let (tx, rx) = mpsc::channel();
        let inner_pool = Arc::clone(&pool);
        pool.submit(0, CancelToken::new(), move |_| {
            let out = inner_pool.map(vec![1u64, 2, 3], |&x| x + 1);
            tx.send(out).unwrap();
        });
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("no deadlock");
        assert_eq!(out, vec![2, 3, 4]);
    }

    /// Maps `items` items on `pool`, counting items in flight. Each of
    /// the first `threads()` items waits (up to 10 s) until that many
    /// items have started, so a missing drainer fails instead of hanging.
    /// Returns the in-flight high-water mark, the calling thread and the
    /// thread each item ran on.
    fn traced_map(pool: &WorkerPool, items: usize) -> (usize, ThreadId, Vec<ThreadId>) {
        let threads = pool.threads();
        let in_flight = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(AtomicUsize::new(0));
        let counters = (Arc::clone(&in_flight), Arc::clone(&high_water));
        let ran_on = pool.map((0..items).collect(), move |&i: &usize| {
            let (in_flight, high_water) = &counters;
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            if i < threads {
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < threads {
                    assert!(
                        Instant::now() < deadline,
                        "fewer than {threads} items ever ran at once"
                    );
                    std::thread::yield_now();
                }
            }
            // Hold the item briefly so every drainer overlaps the others.
            let hold = Instant::now() + Duration::from_millis(2);
            while Instant::now() < hold {
                std::hint::spin_loop();
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
            std::thread::current().id()
        });
        (
            high_water.load(Ordering::SeqCst),
            std::thread::current().id(),
            ran_on,
        )
    }

    fn assert_map_runs_on_exactly_threads(
        threads: usize,
        context: &str,
        (high_water, caller, ran_on): (usize, ThreadId, Vec<ThreadId>),
    ) {
        assert!(
            high_water <= threads,
            "{context}: {high_water} items in flight on a {threads}-thread pool"
        );
        assert_eq!(
            high_water, threads,
            "{context}: a {threads}-thread pool must run {threads} items at once"
        );
        if threads == 1 {
            assert!(
                ran_on.iter().all(|&id| id == caller),
                "{context}: a 1-thread pool runs every item on the caller"
            );
        }
    }

    #[test]
    fn map_runs_on_exactly_the_pools_thread_count() {
        for threads in 1..=3 {
            let items = 4 * threads;
            let pool = Arc::new(WorkerPool::new(threads));
            assert_map_runs_on_exactly_threads(
                threads,
                "from the test thread",
                traced_map(&pool, items),
            );
            let (tx, rx) = mpsc::channel();
            let inner_pool = Arc::clone(&pool);
            pool.submit(0, CancelToken::new(), move |_| {
                tx.send(traced_map(&inner_pool, items)).unwrap();
            });
            let traced = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the map inside a pool job finished");
            assert_map_runs_on_exactly_threads(threads, "from inside a pool job", traced);
        }
    }

    #[test]
    fn priorities_order_queued_jobs() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        // Block the single worker so the queue builds up.
        pool.submit(0, CancelToken::new(), move |_| {
            gate_rx.recv().unwrap();
        });
        for (priority, tag) in [(0i8, "low-a"), (5, "high"), (0, "low-b"), (3, "mid")] {
            let order = Arc::clone(&order);
            let done = done_tx.clone();
            pool.submit(priority, CancelToken::new(), move |_| {
                order.lock().unwrap().push(tag);
                done.send(()).unwrap();
            });
        }
        gate_tx.send(()).unwrap();
        for _ in 0..4 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["high", "mid", "low-a", "low-b"],
            "priority order, FIFO within a priority"
        );
    }

    #[test]
    fn cancelled_jobs_observe_their_token() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let (tx, rx) = mpsc::channel();
        pool.submit(0, token, move |cancel| {
            tx.send(cancel.is_cancelled()).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            "job still runs and sees the cancelled token"
        );
    }

    #[test]
    fn map_propagates_closure_panics_instead_of_hanging() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map((0u64..16).collect(), |&x| {
                assert!(x != 7, "boom on seven");
                x
            })
        }));
        assert!(result.is_err(), "the item panic must surface to the caller");
        // The pool is still fully functional afterwards.
        assert_eq!(pool.map(vec![1u64, 2], |&x| x * 10), vec![10, 20]);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(0, CancelToken::new(), |_| panic!("job blew up"));
        let (tx, rx) = mpsc::channel();
        pool.submit(0, CancelToken::new(), move |_| tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the single worker survived the panicking job");
    }

    #[test]
    fn wait_idle_blocks_until_jobs_drain() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            pool.submit(0, CancelToken::new(), move |_| {
                std::thread::sleep(Duration::from_millis(5));
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        pool.wait_idle(); // idempotent on an idle pool
    }

    #[test]
    fn gauges_track_queue_depth_and_inflight() {
        // Uniquely named gauges so parallel suites sharing the global
        // registry cannot perturb the exact assertions below.
        let gauges = PoolGauges {
            queue_depth: secddr_telemetry::Registry::global().gauge("test.pool_gauges.queue_depth"),
            inflight: secddr_telemetry::Registry::global().gauge("test.pool_gauges.inflight"),
        };
        let pool = WorkerPool::with_gauges(1, gauges.clone());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(0, CancelToken::new(), move |_| {
            gate_rx.recv().unwrap();
        });
        // Wait for the single worker to pick the blocker up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while gauges.inflight.get() != 1 {
            assert!(std::time::Instant::now() < deadline, "worker never started");
            std::thread::yield_now();
        }
        // Two more jobs pile up behind the blocked worker.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for _ in 0..2 {
            let done = done_tx.clone();
            pool.submit(0, CancelToken::new(), move |_| done.send(()).unwrap());
        }
        assert_eq!(gauges.queue_depth.get(), 2, "both jobs queued");
        assert_eq!(gauges.inflight.get(), 1, "blocker still running");
        gate_tx.send(()).unwrap();
        for _ in 0..2 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        pool.wait_idle();
        // Levels are published under the queue lock before the idle
        // notification, so an idle pool always reads as (0, 0).
        assert_eq!(gauges.queue_depth.get(), 0);
        assert_eq!(gauges.inflight.get(), 0);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.submit(0, CancelToken::new(), move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }
}
