//! A hand-rolled thread pool with one FIFO queue (std-only).
//!
//! The partitioned merges ([`crate::par`]) run a small, statically known
//! set of independent chunk jobs and collect their results **in
//! submission order**. This module provides exactly that and nothing
//! more:
//!
//! * one global pool, built lazily on first use ([`global`]);
//! * one queue behind one mutex, served by `N − 1` spawned workers and by
//!   the submitting thread as the `N`-th: while its batch is outstanding
//!   the submitter takes jobs off the same queue, so a `run` from inside a
//!   job cannot deadlock, and a pool without workers runs every batch on
//!   the caller;
//! * idle workers park on a condition variable paired with the queue's
//!   own mutex, so a job pushed between a worker's empty check and its
//!   wait cannot be missed, and no one polls on a timer;
//! * results are collected by job index, so scheduling order never leaks
//!   into observable output order.
//!
//! Determinism note: nothing in this module influences *what* the kernels
//! compute — partition boundaries are chosen by [`crate::par`] as a pure
//! function of the requested chunk count, never of worker count, load, or
//! timing. The pool only decides *where* each chunk runs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use crate::par::{Parallel, DEFAULT_THRESHOLD};

/// A unit of work queued on the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Lock a mutex, recovering from poisoning.
///
/// A panic inside a task is caught and re-thrown on the submitting thread,
/// but the brief window where a lock could be poisoned must not take the
/// whole pool down.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The queue every thread of a pool takes jobs from.
struct Queue {
    tasks: Mutex<VecDeque<Task>>,
    /// Rung after every push; idle workers park on it.
    bell: Condvar,
}

impl Queue {
    /// Take the oldest job, releasing the lock before the caller runs it
    /// (a `while let` over the guard itself would run the job under it).
    fn pop(&self) -> Option<Task> {
        lock(&self.tasks).pop_front()
    }
}

/// The most partitions an evaluator splits work into and the most threads
/// a pool runs on: every partition count and thread count is clamped to
/// `1..=MAX_PARALLELISM`.
pub const MAX_PARALLELISM: usize = 64;

/// A fixed-size thread pool over one FIFO queue.
///
/// Most callers should use the process-wide [`global`] pool; constructing a
/// private pool is supported for tests.
pub struct ThreadPool {
    queue: Arc<Queue>,
    /// Workers actually running — fewer than requested when the OS refused
    /// a thread, possibly none.
    workers: usize,
}

impl ThreadPool {
    /// Build a pool that runs each batch on `threads` threads (clamped to
    /// `1..=`[`MAX_PARALLELISM`]): `threads − 1` background workers plus
    /// the thread that calls [`ThreadPool::run`].
    ///
    /// Worker threads park when idle and live for the life of the process;
    /// the pool is intended to be built once and shared. When the OS
    /// refuses a thread the pool keeps the workers it already has; with
    /// none, [`ThreadPool::run`] executes every batch on the caller.
    pub fn new(threads: usize) -> Self {
        ThreadPool::with_spawner(threads, |name, body| {
            std::thread::Builder::new().name(name).spawn(body).map(drop)
        })
    }

    /// [`ThreadPool::new`] with the thread spawn behind a hook, so tests
    /// can make the OS refuse the `k`-th worker.
    fn with_spawner(
        threads: usize,
        mut spawn: impl FnMut(String, Task) -> std::io::Result<()>,
    ) -> Self {
        let queue = Arc::new(Queue {
            tasks: Mutex::new(VecDeque::new()),
            bell: Condvar::new(),
        });
        let mut workers = 0;
        for id in 1..threads.clamp(1, MAX_PARALLELISM) {
            let queue = Arc::clone(&queue);
            if spawn(
                format!("balg-pool-{id}"),
                Box::new(move || worker_loop(&queue)),
            )
            .is_err()
            {
                break;
            }
            workers += 1;
        }
        ThreadPool { queue, workers }
    }

    /// Number of background worker threads (the submitter not counted).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run a batch of jobs and return their results in submission order.
    ///
    /// The calling thread participates: it runs queued jobs (its own or
    /// anyone's) until the queue is empty, then waits for the jobs other
    /// threads took, so this is safe to call from inside a pool task and
    /// never deadlocks. A panic in any job is re-thrown here after the
    /// rest of the batch has settled. A pool without workers runs the
    /// batch on the caller, in order, and a panic there propagates at once.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if n <= 1 || self.workers == 0 {
            // Nothing to overlap, or nobody to overlap with: skip the queue.
            return jobs.into_iter().map(|job| job()).collect();
        }

        type Slot<T> = Option<std::thread::Result<T>>;
        let results: Arc<Mutex<Vec<Slot<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let latch = Arc::new((Mutex::new(n), Condvar::new()));

        let mut tasks = lock(&self.queue.tasks);
        for (ix, job) in jobs.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let latch = Arc::clone(&latch);
            tasks.push_back(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(job));
                lock(&results)[ix] = Some(out);
                let (count, done) = &*latch;
                *lock(count) -= 1;
                done.notify_all();
            }));
        }
        drop(tasks);
        self.queue.bell.notify_all();

        // Help until the queue is empty, then wait for the jobs in flight.
        while let Some(task) = self.queue.pop() {
            task();
        }
        let (count, done) = &*latch;
        let mut left = lock(count);
        while *left > 0 {
            left = done.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
        drop(left);

        let collected = std::mem::take(&mut *lock(&results));
        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in collected {
            match slot.expect("batch slot filled") {
                Ok(v) => out.push(v),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        // The empty check and the wait hold the lock a push takes, so no
        // push can fall between them.
        let mut tasks = queue
            .bell
            .wait_while(lock(&queue.tasks), |tasks| tasks.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        let task = tasks.pop_front().expect("woken on a non-empty queue");
        drop(tasks);
        task();
    }
}

/// Configured default parallelism (chunk count) for new evaluators: 0 means
/// "not yet resolved".
static DEFAULT_PARALLELISM: AtomicUsize = AtomicUsize::new(0);

/// Resolve the process-wide default parallelism.
///
/// Resolution order: an explicit [`set_default_parallelism`] call (e.g. the
/// `--threads` CLI flag), else the `BALG_THREADS` environment variable, else
/// [`std::thread::available_parallelism`]. The result is the number of
/// *chunks* operators split work into by default; a value of `1` disables
/// parallel execution entirely.
pub fn default_parallelism() -> usize {
    let cur = DEFAULT_PARALLELISM.load(Ordering::Relaxed);
    if cur != 0 {
        return cur;
    }
    let resolved = std::env::var("BALG_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .clamp(1, MAX_PARALLELISM);
    // Racing first calls resolve identically; a concurrent explicit
    // `set_default_parallelism` wins.
    let _ = DEFAULT_PARALLELISM.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    DEFAULT_PARALLELISM.load(Ordering::Relaxed)
}

/// Override the process-wide default parallelism (clamped to
/// `1..=`[`MAX_PARALLELISM`] by [`Parallel::new`]).
///
/// Affects evaluators constructed *after* the call; existing evaluators keep
/// the chunk count they captured (or had set explicitly).
pub fn set_default_parallelism(n: usize) {
    let chunks = Parallel::new(n, DEFAULT_THRESHOLD).chunks();
    DEFAULT_PARALLELISM.store(chunks, Ordering::Relaxed);
}

/// The process-wide pool, built on first use.
///
/// Thread count is `min(default_parallelism, available_parallelism)`,
/// the submitter included — on a 1-core host no worker is spawned and
/// every batch runs on the caller.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ThreadPool::new(default_parallelism().min(hw.max(1)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn core_values_cross_threads() {
        assert_send_sync::<crate::value::Value>();
        assert_send_sync::<crate::bag::Bag>();
        assert_send_sync::<crate::natural::Natural>();
        assert_send_sync::<crate::zbag::ZBag>();
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = ThreadPool::new(4);
        let jobs: Vec<_> = (0..97u64).map(|i| move || i * i).collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..97u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        let inner_pool = Arc::clone(&pool);
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..4u64)
            .map(|i| {
                let p = Arc::clone(&inner_pool);
                Box::new(move || {
                    let inner: Vec<_> = (0..3u64).map(|j| move || i * 10 + j).collect();
                    p.run(inner).into_iter().sum()
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, vec![3, 33, 63, 93]);
    }

    #[test]
    fn single_worker_pool_completes_wide_batches() {
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..64)
            .map(|_| {
                let c = Arc::clone(&counter);
                move || c.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        let _ = pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = ThreadPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("chunk failed")),
            Box::new(|| 3),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs)));
        assert!(err.is_err());
    }

    /// A pool whose `k`-th spawn is refused keeps the `k` workers before
    /// it; with none, batches run on the caller. Either way a batch of
    /// merge chunks comes back in submission order and concatenates to the
    /// serial merge.
    #[test]
    fn a_refused_spawn_keeps_the_workers_already_running() {
        use crate::bag::Bag;
        use crate::natural::Natural;
        use crate::value::Value;
        let a =
            Bag::from_counted((0..400).map(|k| (Value::int(k), Natural::from(1 + k as u64 % 3))));
        let b = Bag::from_counted((200..600).map(|k| (Value::int(k), Natural::from(2u64))));
        let keys = |bag: &Bag, lo: i64, hi: i64| {
            let range = Value::int(lo)..Value::int(hi);
            Bag::from_counted(
                bag.iter()
                    .filter(|(v, _)| range.contains(v))
                    .map(|(v, m)| (v.clone(), m.clone())),
            )
        };
        for k in [0usize, 1] {
            let mut spawns = 0;
            let pool = ThreadPool::with_spawner(4, |name, body| {
                spawns += 1;
                if spawns > k {
                    return Err(std::io::Error::other("refused"));
                }
                std::thread::Builder::new().name(name).spawn(body).map(drop)
            });
            assert_eq!(pool.workers(), k);
            let jobs: Vec<_> = (0..8)
                .map(|c| {
                    let (a, b) = (
                        keys(&a, c * 75, (c + 1) * 75),
                        keys(&b, c * 75, (c + 1) * 75),
                    );
                    move || a.additive_union(&b)
                })
                .collect();
            let parts = pool.run(jobs);
            let concatenated: Vec<_> = parts
                .iter()
                .flat_map(|part| part.pairs().to_vec())
                .collect();
            assert_eq!(concatenated, a.additive_union(&b).pairs(), "k = {k}");
            let order: Vec<_> = (0..9u64).map(|i| move || i).collect();
            assert_eq!(pool.run(order), (0..9).collect::<Vec<_>>(), "k = {k}");
        }
    }

    #[test]
    fn default_parallelism_is_at_least_one() {
        assert!(default_parallelism() >= 1);
    }
}
