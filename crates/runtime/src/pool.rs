//! The persistent executor worker pool.
//!
//! Before this pool existed, every [`crate::executor::run_machines`]
//! round spawned one fresh OS thread per simulated machine — with the
//! paper's 100-machine cycle configurations that is hundreds of spawns
//! per round, pure simulation overhead the paper's wall-clock claims
//! (§5, "Theory meets Practice") never pay. The pool is created once
//! per process, sized by `AMPC_THREADS`
//! ([`ampc_dht::store::ampc_threads`]), and reused across all rounds of
//! all jobs: each round's machines become **tasks** of one batch, and
//! pool workers (alongside the submitting thread itself) drain them.
//!
//! Design notes:
//!
//! * **Caller helps, concurrency is bounded.** [`WorkerPool::run_batch`]
//!   keeps the batch's tasks in a queue of its own and enlists up to
//!   `limit - 1` pool workers as *runners* that drain it; the
//!   submitting thread is always the first runner. At most `limit` of
//!   the batch's tasks execute concurrently (the `AmpcConfig::threads`
//!   contract), batches cannot deadlock on an undersized pool, and a
//!   0-idle-worker pool still makes progress through the caller.
//! * **Borrowed work.** Machine bodies borrow the sealed generation,
//!   the next generation's writer and the round closure from the
//!   caller's stack. `run_batch` blocks until every item of its batch
//!   has finished, which is what makes handing those borrows to
//!   longer-lived worker threads sound (the same reasoning as
//!   `std::thread::scope`, with the scope replaced by the batch
//!   completion latch). The lifetime erasure this requires is the one
//!   `unsafe` in the workspace and is documented at the cast.
//! * **Panics propagate.** A panicking work item is caught on the
//!   worker, recorded in its batch, and re-raised on the submitting
//!   thread after the batch completes.

#![allow(unsafe_code)] // lifetime erasure for scoped work items; see run_batch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of pool work: a **runner** for one batch. A runner drains its
/// batch's own task queue until empty, so the number of runners — not
/// the pool size — bounds how many of the batch's tasks execute
/// concurrently.
struct WorkItem {
    batch: Arc<BatchState>,
}

/// One `run_batch` call: its pending tasks, completion latch, and panic
/// mailbox.
struct BatchState {
    /// Tasks not yet started (lifetimes erased; see `run_batch`).
    tasks: Mutex<VecDeque<Box<dyn FnOnce() + Send + 'static>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl BatchState {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(BatchState {
            tasks: Mutex::new(VecDeque::with_capacity(n)),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Runs this batch's pending tasks until none remain, catching
    /// panics into the mailbox and releasing one latch unit per task.
    fn drain(self: &Arc<Self>) {
        loop {
            let Some(task) = self.tasks.lock().expect("task queue poisoned").pop_front() else {
                return;
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                let mut slot = self.panic.lock().expect("panic mailbox poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut remaining = self.remaining.lock().expect("latch poisoned");
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// Shared pool state: the work queue and its signal.
struct Shared {
    queue: Mutex<VecDeque<WorkItem>>,
    ready: Condvar,
}

/// A persistent pool of worker threads executing queued machine bodies.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Number of worker threads (the submitting thread adds one more
    /// executor during `run_batch`).
    workers: usize,
}

/// The process-wide pool used by the executor, created on first use.
static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// Creates a pool with `workers` dedicated threads (≥ 1). Workers
    /// are detached; they park on the queue condvar when idle and live
    /// for the life of the process (the intended use is one
    /// process-wide pool — see [`WorkerPool::global`]).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ampc-exec-{i}"))
                .spawn(move || loop {
                    let item = {
                        let mut q = shared.queue.lock().expect("queue poisoned");
                        loop {
                            if let Some(item) = q.pop_front() {
                                break item;
                            }
                            q = shared.ready.wait(q).expect("queue poisoned");
                        }
                    };
                    item.batch.drain();
                })
                .expect("failed to spawn executor worker");
        }
        WorkerPool { shared, workers }
    }

    /// The process-wide pool, sized on first use to
    /// `max(requested, AMPC_THREADS) - 1` workers (the submitting
    /// thread is the remaining executor). Later calls reuse the pool
    /// whatever their `requested` value: pool *size* bounds concurrency,
    /// never correctness — excess machines simply queue.
    pub fn global(requested: usize) -> &'static WorkerPool {
        GLOBAL.get_or_init(|| {
            WorkerPool::new(
                requested
                    .max(ampc_dht::store::ampc_threads())
                    .saturating_sub(1),
            )
        })
    }

    /// Number of dedicated worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every closure in `tasks` to completion, with at most
    /// `limit` of them executing concurrently (the calling thread is
    /// one of the executors; up to `limit - 1` pool workers join it as
    /// batch runners). Blocks until all tasks have finished; if any
    /// panicked, the first panic payload is re-raised here (after the
    /// whole batch has drained, so no task is left running with
    /// dangling borrows).
    pub fn run_batch<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>, limit: usize) {
        if tasks.is_empty() {
            return;
        }
        let n = tasks.len();
        let batch = BatchState::new(n);
        {
            let mut q = batch.tasks.lock().expect("task queue poisoned");
            for task in tasks {
                // SAFETY: the closure borrows from `'env` (the caller's
                // stack). We erase that lifetime to hand the box to
                // worker threads, and re-establish soundness by never
                // returning from this function until the batch latch
                // reports every task finished (panicked tasks release
                // the latch too, after unwinding out of the closure).
                // Tasks cannot outlive the wait below, so the borrows
                // never dangle — the same contract `std::thread::scope`
                // enforces with its implicit join.
                let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
                q.push_back(run);
            }
        }
        // Enlist up to `limit - 1` pool workers as runners for this
        // batch (a runner finding the batch already drained returns
        // immediately, so over-enlisting is harmless).
        let runners = limit.saturating_sub(1).min(n.saturating_sub(1));
        if runners > 0 {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            for _ in 0..runners {
                q.push_back(WorkItem {
                    batch: Arc::clone(&batch),
                });
            }
            self.shared.ready.notify_all();
        }
        // The submitting thread is the batch's first runner.
        batch.drain();
        // Wait for stragglers still running on workers.
        let mut remaining = batch.remaining.lock().expect("latch poisoned");
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).expect("latch poisoned");
        }
        drop(remaining);
        let panicked = batch.panic.lock().expect("panic mailbox poisoned").take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }
}

/// Runs `tasks` to completion: inline, in order, at `threads <= 1`;
/// otherwise over the [process-wide pool](WorkerPool::global) with at
/// most `threads` of them at once. The one entry point the striped
/// builders outside the executor use (`ampc_core::prim`, the
/// `ampc_graph` generators and CSR builder).
pub fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>, threads: usize) {
    if threads <= 1 {
        tasks.into_iter().for_each(|task| task());
    } else {
        WorkerPool::global(threads).run_batch(tasks, threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_tasks_with_borrowed_state() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let mut results = vec![0usize; 100];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        *slot = i * 2;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(tasks, 3);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i * 2);
        }
    }

    #[test]
    fn batches_reuse_the_same_pool() {
        let pool = WorkerPool::new(2);
        for round in 0..50usize {
            let mut out = [0usize; 8];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .iter_mut()
                .map(|slot| Box::new(move || *slot = round + 1) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            pool.run_batch(tasks, 2);
            assert!(out.iter().all(|&v| v == round + 1), "round {round}");
        }
    }

    #[test]
    fn panic_in_task_propagates_after_batch_drains() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|i| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 3 {
                            panic!("machine body panicked");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(tasks, 2);
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            5,
            "other items still ran"
        );
    }

    #[test]
    fn limit_bounds_batch_concurrency() {
        let pool = WorkerPool::new(4);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                let (active, peak) = (&active, &peak);
                Box::new(move || {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    active.fetch_sub(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks, 2);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "limit=2 exceeded: peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkerPool::new(1);
        pool.run_batch(Vec::new(), 4);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global(2) as *const _;
        let b = WorkerPool::global(9) as *const _;
        assert_eq!(a, b);
    }
}
