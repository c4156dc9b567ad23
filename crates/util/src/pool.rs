//! A zero-dependency scoped worker pool with a bounded job queue.
//!
//! The experiment layer fans independent simulations out over OS
//! threads (`std::thread::scope`; the workspace builds hermetically, so
//! no rayon/crossbeam). Jobs are indexed and results are written back
//! into their input slot, so [`run_ordered`] returns results in input
//! order regardless of completion order — callers get bit-identical
//! output whether one worker or sixteen ran the jobs.
//!
//! The queue is bounded (a handful of jobs per worker) so a producer
//! generating jobs lazily cannot balloon memory ahead of slow workers;
//! with the job counts in this workspace it simply acts as a fixed
//! hand-off buffer.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use visim_obs::{Histogram, Registry};

/// A blocking bounded MPMC queue (mutex + condvars; no spinning).
///
/// The queue samples its own depth at every push (while the lock is
/// already held), so the pool can surface a queue-depth histogram in
/// the observability artifacts without extra synchronization.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// `depth_counts[d]` = number of pushes that left `d` items queued.
    depth_counts: Vec<u64>,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be positive");
        BoundedQueue {
            cap,
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(cap),
                closed: false,
                depth_counts: vec![0; cap + 1],
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueue `item`, blocking while the queue is full. Returns `false`
    /// (dropping the item) if the queue was closed.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        while st.items.len() >= self.cap && !st.closed {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        let depth = st.items.len();
        st.depth_counts[depth] += 1;
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Post-push queue-depth distribution. The bucket layout is fixed
    /// (powers of two up to 64) so histograms from runs with different
    /// queue capacities merge cleanly into one registry entry.
    pub fn depth_histogram(&self) -> Histogram {
        let st = self.state.lock().expect("queue poisoned");
        let mut h = Histogram::new(&[1, 2, 4, 8, 16, 32, 64]);
        for (depth, &n) in st.depth_counts.iter().enumerate() {
            for _ in 0..n {
                h.observe(depth as u64);
            }
        }
        h
    }

    /// Dequeue one item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }

    /// Close the queue: pending items stay poppable, further pushes are
    /// rejected, and blocked poppers wake with `None` once drained.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Wall-clock observation of one pool job: how long it sat queued
/// behind slower jobs, and how long it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTiming {
    /// Time between enqueue and a worker dequeuing the job (0 on the
    /// serial path, which has no queue).
    pub queue_wait_ns: u64,
    /// Time the job itself ran.
    pub run_ns: u64,
}

/// Observability record of one [`run_ordered_timed_observed`] call.
#[derive(Debug, Clone, Default)]
pub struct PoolRunStats {
    /// Worker threads actually used (1 = serial reference path).
    pub workers: usize,
    /// Per-job timings, in input order.
    pub timings: Vec<JobTiming>,
    /// Post-push queue-depth distribution (empty on the serial path).
    pub queue_depth: Option<Histogram>,
}

/// Histogram layout for pool latency metrics: exponential buckets from
/// 1 µs to ~4.6 min, in nanoseconds.
fn latency_histogram() -> Histogram {
    Histogram::exponential(1 << 10, 28)
}

impl PoolRunStats {
    /// Fold this run into a metrics registry:
    ///
    /// * `pool.runs`, `pool.jobs`, `pool.workers` counters;
    /// * `pool.queue_wait_ns` and `pool.job_run_ns` histograms (whose
    ///   serialized form carries exact max/mean);
    /// * `pool.queue_depth` histogram (parallel runs only).
    pub fn export(&self, reg: &mut Registry) {
        reg.add("pool.runs", 1);
        reg.add("pool.jobs", self.timings.len() as u64);
        reg.add("pool.workers", self.workers as u64);
        for t in &self.timings {
            reg.observe_with("pool.queue_wait_ns", t.queue_wait_ns, latency_histogram);
            reg.observe_with("pool.job_run_ns", t.run_ns, latency_histogram);
        }
        if let Some(depth) = &self.queue_depth {
            reg.merge_histogram("pool.queue_depth", depth);
        }
    }
}

/// Run every job and return the results **in input order**.
///
/// Convenience wrapper over [`run_ordered_timed_observed`] that
/// discards the timing observations.
///
/// # Panics
///
/// A panicking job does not abort the process or poison its siblings:
/// the payload is caught in the worker, every other job still runs, and
/// the first panic (in input order) is resumed on the calling thread
/// after the pool drains.
pub fn run_ordered<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_ordered_timed_observed(workers, jobs, None).0
}

/// A per-job-completion progress callback: `(done, total, run_ns)`.
/// `done` counts completed jobs (1-based, monotone per observer call but
/// calls from different workers may interleave), `total` is the job
/// count, `run_ns` is how long the just-finished job ran.
pub type ProgressFn<'a> = &'a (dyn Fn(usize, usize, u64) + Sync);

/// Run every job, returning the results **in input order** plus the
/// per-job wall-clock observations ([`PoolRunStats`]), invoking
/// `observer` after each job completes.
///
/// With `workers <= 1` (or fewer than two jobs) the jobs run serially
/// on the calling thread — this is the `VISIM_JOBS=1` reference path,
/// with no threads spawned at all. Otherwise `min(workers, jobs)`
/// scoped threads drain a bounded queue of `(index, job)` pairs and
/// write each result into its input slot. Neither the timing side
/// channel nor the observer ever influences the results, so output
/// remains bit-identical for any worker count and any observer.
///
/// # Panics
///
/// Same contract as [`run_ordered`]. The observer is invoked even for
/// jobs that panicked (their completion still counts toward `done`).
pub fn run_ordered_timed_observed<T, F>(
    workers: usize,
    jobs: Vec<F>,
    observer: Option<ProgressFn<'_>>,
) -> (Vec<T>, PoolRunStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n_jobs = jobs.len();
    if workers <= 1 || n_jobs <= 1 {
        let mut timings = Vec::with_capacity(n_jobs);
        let results = jobs
            .into_iter()
            .enumerate()
            .map(|(ix, f)| {
                let started = Instant::now();
                let out = f();
                let run_ns = elapsed_ns(started);
                timings.push(JobTiming {
                    queue_wait_ns: 0,
                    run_ns,
                });
                if let Some(obs) = observer {
                    obs(ix + 1, n_jobs, run_ns);
                }
                out
            })
            .collect();
        return (
            results,
            PoolRunStats {
                workers: 1,
                timings,
                queue_depth: None,
            },
        );
    }
    let workers = workers.min(n_jobs);
    let queue: BoundedQueue<(usize, Instant, F)> = BoundedQueue::new(workers * 2);
    type Slot<T> = Mutex<Option<(std::thread::Result<T>, JobTiming)>>;
    let slots: Vec<Slot<T>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let queue = &queue;
        let slots = &slots;
        let done = &done;
        for _ in 0..workers {
            s.spawn(move || {
                while let Some((ix, queued_at, job)) = queue.pop() {
                    let queue_wait_ns = elapsed_ns(queued_at);
                    let started = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(job));
                    let timing = JobTiming {
                        queue_wait_ns,
                        run_ns: elapsed_ns(started),
                    };
                    *slots[ix].lock().expect("result slot poisoned") = Some((result, timing));
                    if let Some(obs) = observer {
                        let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
                        obs(finished, n_jobs, timing.run_ns);
                    }
                }
            });
        }
        for (ix, job) in jobs.into_iter().enumerate() {
            queue.push((ix, Instant::now(), job));
        }
        queue.close();
    });
    let mut timings = Vec::with_capacity(n_jobs);
    let results = slots
        .into_iter()
        .map(|slot| {
            let (result, timing) = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker pool ran every job");
            timings.push(timing);
            match result {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            }
        })
        .collect();
    (
        results,
        PoolRunStats {
            workers,
            timings,
            queue_depth: Some(queue.depth_histogram()),
        },
    )
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        // Make early jobs the slowest so completion order is scrambled.
        let jobs: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    if i < 4 {
                        std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i as u64));
                    }
                    i * i
                }
            })
            .collect();
        let out = run_ordered(8, jobs);
        assert_eq!(out, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || {
            (0..20u64)
                .map(|i| move || i.wrapping_mul(0x9e37) ^ i)
                .collect()
        };
        assert_eq!(run_ordered::<u64, _>(1, mk()), run_ordered(7, mk()));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| || counter.fetch_add(1, Ordering::SeqCst))
            .collect();
        let mut out = run_ordered(4, jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        out.sort_unstable();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sibling_jobs_survive_a_panicking_job() {
        let done = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 3 {
                        panic!("job 3 exploded");
                    }
                    done.fetch_add(1, Ordering::SeqCst)
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| run_ordered(4, jobs)));
        assert!(caught.is_err(), "panic propagates to the caller");
        assert_eq!(done.load(Ordering::SeqCst), 15, "siblings still ran");
    }

    #[test]
    fn timed_runs_observe_every_job() {
        let jobs: Vec<_> = (0..24u64).map(|i| move || i).collect();
        let (out, stats) = run_ordered_timed_observed(4, jobs, None);
        assert_eq!(out, (0..24u64).collect::<Vec<_>>());
        assert_eq!(stats.timings.len(), 24);
        assert_eq!(stats.workers, 4);
        let depth = stats
            .queue_depth
            .as_ref()
            .expect("parallel run has a queue");
        assert_eq!(depth.count(), 24, "one depth sample per push");
        let mut reg = Registry::new();
        stats.export(&mut reg);
        assert_eq!(reg.counter("pool.jobs"), 24);
        assert_eq!(reg.counter("pool.runs"), 1);
        assert_eq!(reg.histogram("pool.job_run_ns").unwrap().count(), 24);
        assert_eq!(reg.histogram("pool.queue_wait_ns").unwrap().count(), 24);
    }

    #[test]
    fn serial_path_times_jobs_without_a_queue() {
        let jobs: Vec<_> = (0..3u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    i
                }
            })
            .collect();
        let (out, stats) = run_ordered_timed_observed(1, jobs, None);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(stats.workers, 1);
        assert!(stats.queue_depth.is_none(), "no queue on the serial path");
        assert!(stats.timings.iter().all(|t| t.queue_wait_ns == 0));
        assert!(stats.timings.iter().all(|t| t.run_ns >= 1_000_000));
    }

    #[test]
    fn pool_exports_merge_across_runs() {
        let mut reg = Registry::new();
        for _ in 0..2 {
            let (_, stats) =
                run_ordered_timed_observed(3, (0..8u64).map(|i| move || i).collect(), None);
            stats.export(&mut reg);
        }
        assert_eq!(reg.counter("pool.runs"), 2);
        assert_eq!(reg.counter("pool.jobs"), 16);
        assert_eq!(reg.histogram("pool.queue_depth").unwrap().count(), 16);
    }

    #[test]
    fn observer_sees_every_completion() {
        for workers in [1, 4] {
            let calls = Mutex::new(Vec::new());
            let obs = |done: usize, total: usize, _run_ns: u64| {
                calls.lock().unwrap().push((done, total));
            };
            let jobs: Vec<_> = (0..12u64).map(|i| move || i * 3).collect();
            let (out, _) = run_ordered_timed_observed(workers, jobs, Some(&obs));
            assert_eq!(out, (0..12u64).map(|i| i * 3).collect::<Vec<_>>());
            let mut seen = calls.into_inner().unwrap();
            assert!(seen.iter().all(|&(_, total)| total == 12));
            seen.sort_unstable();
            assert_eq!(
                seen.iter().map(|&(done, _)| done).collect::<Vec<_>>(),
                (1..=12).collect::<Vec<_>>(),
                "each completion count reported exactly once"
            );
        }
    }

    #[test]
    fn queue_rejects_pushes_after_close() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1));
        q.close();
        assert!(!q.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }
}
