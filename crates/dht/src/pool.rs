//! The persistent worker pool and [`par_map`], the workspace's one
//! fork-join entry point.
//!
//! Every parallel pass runs here: the executor's simulated machines
//! (`ampc_runtime::executor`), the striped host passes of
//! `ampc_core::prim`, the `ampc_graph` generators and CSR builder, and
//! the dense seal of a large generation ([`crate::store`]). The pool
//! lives in `ampc-dht` because the seal is the lowest layer that needs
//! it. It is created once per process, sized by `AMPC_THREADS`
//! ([`ampc_knobs::ampc_threads`]), and reused by every call: spawning
//! threads per round would be pure simulation overhead that the paper's
//! wall-clock claims (§5, "Theory meets Practice") never pay.
//!
//! Design notes:
//!
//! * **One inline rule.** [`par_map`] runs its parts inline, in order,
//!   on the calling thread when `threads <= 1` or there is at most one
//!   part: no dispatch, and no pool is created.
//! * **Caller helps, concurrency is bounded.** Otherwise the parts form
//!   one batch. The calling thread claims parts first, and up to
//!   `threads - 1` pool workers join it as the batch's *runners*, so at
//!   most `threads` parts run at once (the `AmpcConfig::threads`
//!   contract), batches cannot deadlock on an undersized pool, and a
//!   nested `par_map` inside a part completes through its own caller.
//! * **Borrowed work.** Parts and the mapped function borrow from the
//!   caller's stack. `par_map` blocks until every part has finished,
//!   which is what makes handing those borrows to longer-lived worker
//!   threads sound (the same reasoning as `std::thread::scope`, with the
//!   scope replaced by the batch's completion latch). The lifetime
//!   erasure this requires — one reference to the batch's runner — is
//!   one of the workspace's two `unsafe` blocks and is documented at the
//!   cast.
//! * **Panics propagate.** A panicking part is caught where it ran,
//!   recorded in its batch, and re-raised on the calling thread after
//!   every part has finished.

#![allow(
    unsafe_code,
    reason = "lifetime erasure of a batch's runner; see WorkerPool::par_map"
)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Runs `f` on every part and returns the results in part order, with
/// at most `threads` parts running at once: inline, in order, when
/// `threads <= 1` or there is at most one part, otherwise on the
/// calling thread and up to `threads - 1` workers of the process-wide
/// pool. A panic in a part is re-raised here after every part has
/// finished.
///
/// A part owns whatever it writes (typically its stripe and its
/// `split_at_mut` windows of a buffer the caller sized), so the results
/// and every buffer the parts fill are the same for every `threads`.
pub fn par_map<T: Send, R: Send>(
    parts: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || parts.len() <= 1 {
        parts.into_iter().map(f).collect()
    } else {
        WorkerPool::global(threads).par_map(parts, threads, f)
    }
}

/// A batch's runner: runs part `i` and stores its result.
type Runner<'a> = dyn Fn(usize) + Sync + 'a;

/// One pooled `par_map` call: its runner, part claims, completion latch
/// and panic mailbox.
struct Batch {
    /// The runner (lifetime erased; see [`WorkerPool::par_map`]),
    /// cleared once the batch has returned.
    run: Mutex<Option<&'static Runner<'static>>>,
    parts: usize,
    /// The next unclaimed part.
    next: AtomicUsize,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    /// Claims and runs parts until none is left, catching panics into
    /// the mailbox and releasing one latch unit per part.
    fn drain(&self) {
        loop {
            // Relaxed: a claim publishes nothing; every part and result
            // sits behind its own lock.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.parts {
                return;
            }
            // An unfinished part holds the batch open, so its runner is set.
            let run = self
                .run
                .lock()
                .expect("runner poisoned")
                .expect("an open batch has a runner");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
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

/// Shared pool state: the queue of batches wanting a runner, and its
/// signal.
struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    ready: Condvar,
}

/// A persistent pool of worker threads that run [`par_map`] batches.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
}

/// The process-wide pool, created on first use.
static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// Creates a pool with `workers` dedicated threads (≥ 1). Workers
    /// are detached; they park on the queue condvar when idle and live
    /// for the life of the process (the intended use is one
    /// process-wide pool — see [`WorkerPool::global`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool is the one owner of worker threads"
    )]
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        for i in 0..workers.max(1) {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ampc-pool-{i}"))
                .spawn(move || loop {
                    let batch = {
                        let mut q = shared.queue.lock().expect("queue poisoned");
                        loop {
                            if let Some(batch) = q.pop_front() {
                                break batch;
                            }
                            q = shared.ready.wait(q).expect("queue poisoned");
                        }
                    };
                    batch.drain();
                })
                .expect("failed to spawn pool worker");
        }
        WorkerPool { shared }
    }

    /// The process-wide pool, sized on first use to
    /// `max(requested, AMPC_THREADS) - 1` workers (the calling thread is
    /// the remaining runner). Later calls reuse the pool whatever their
    /// `requested` value: pool *size* bounds concurrency, never
    /// correctness — excess parts simply wait for a runner.
    fn global(requested: usize) -> &'static WorkerPool {
        GLOBAL.get_or_init(|| {
            WorkerPool::new(requested.max(ampc_knobs::ampc_threads()).saturating_sub(1))
        })
    }

    /// [`par_map`] on this pool, always as a batch: the calling thread
    /// and up to `limit - 1` of this pool's workers run the parts, at
    /// most `limit` at once.
    fn par_map<T: Send, R: Send>(
        &self,
        parts: Vec<T>,
        limit: usize,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let n = parts.len();
        let parts: Vec<Mutex<Option<T>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let run = |i: usize| {
            let part = parts[i].lock().expect("part poisoned").take();
            let result = f(part.expect("a part is claimed once"));
            *results[i].lock().expect("result poisoned") = Some(result);
        };
        let run: &Runner<'_> = &run;
        // SAFETY: the runner borrows `parts`, `results` and `f` from this
        // frame. We erase that lifetime to hand it to worker threads, and
        // re-establish soundness by never returning from this function
        // until the latch reports every part finished (a panicking part
        // releases the latch too, after unwinding out of the runner). A
        // runner is called only for a claimed part below `n`, which holds
        // the latch open, and it is cleared from the batch before we
        // return, so a worker that reaches the batch late finds no part
        // to claim and no runner — the borrows never dangle, the same
        // contract `std::thread::scope` enforces with its implicit join.
        let run: &'static Runner<'static> = unsafe { std::mem::transmute(run) };
        let batch = Arc::new(Batch {
            run: Mutex::new(Some(run)),
            parts: n,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        // Enlist up to `limit - 1` workers as runners (a runner finding
        // every part claimed returns at once, so over-enlisting is
        // harmless).
        let runners = limit.saturating_sub(1).min(n.saturating_sub(1));
        if runners > 0 {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            q.extend(std::iter::repeat_n(&batch, runners).cloned());
            self.shared.ready.notify_all();
        }
        // The calling thread is the batch's first runner.
        batch.drain();
        // Wait for parts still running on workers.
        let mut remaining = batch.remaining.lock().expect("latch poisoned");
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).expect("latch poisoned");
        }
        drop(remaining);
        *batch.run.lock().expect("runner poisoned") = None;
        if let Some(payload) = batch.panic.lock().expect("panic mailbox poisoned").take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| {
                r.into_inner()
                    .expect("result poisoned")
                    .expect("every part ran")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn runs_all_tasks_with_borrowed_state() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let mut results = vec![0usize; 100];
        pool.par_map(results.iter_mut().enumerate().collect(), 3, |(i, slot)| {
            counter.fetch_add(1, Ordering::Relaxed);
            *slot = i * 2;
        });
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
            pool.par_map(out.iter_mut().collect(), 2, |slot| *slot = round + 1);
            assert!(out.iter().all(|&v| v == round + 1), "round {round}");
        }
    }

    #[test]
    fn panic_in_task_propagates_after_batch_drains() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map((0..6).collect(), 2, |i| {
                if i == 3 {
                    panic!("machine body panicked");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            })
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
        pool.par_map((0..16).collect(), 2, |_: usize| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            active.fetch_sub(1, Ordering::SeqCst);
        });
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
        assert!(pool.par_map(Vec::<u8>::new(), 4, |_| ()).is_empty());
        assert!(par_map(Vec::<u8>::new(), 4, |_| ()).is_empty());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global(2) as *const _;
        let b = WorkerPool::global(9) as *const _;
        assert_eq!(a, b);
    }

    /// Parts holding `&mut` windows of one buffer come back, windows
    /// and all, in part order, inline and pooled.
    #[test]
    fn windows_come_back_in_part_order() {
        for threads in [1, 2, 3, 8] {
            let mut buf = vec![usize::MAX; 1000];
            let parts: Vec<(usize, &mut [usize])> = buf.chunks_mut(37).enumerate().collect();
            let windows = par_map(parts, threads, |(i, win)| {
                win.fill(i);
                win
            });
            assert_eq!(windows.len(), 1000usize.div_ceil(37));
            for (i, win) in windows.iter().enumerate() {
                assert!(win.iter().all(|&v| v == i), "{threads} threads, part {i}");
            }
            let expect: Vec<usize> = (0..1000).map(|k| k / 37).collect();
            assert_eq!(buf, expect, "{threads} threads");
        }
    }

    /// At two threads, two parts run at once on two OS threads (the
    /// process-wide pool has at least one worker): each waits for the
    /// other, so a serial `par_map` times out here instead of hanging.
    #[test]
    fn two_threads_run_two_parts_at_once() {
        let arrived = Mutex::new(0usize);
        let met = Condvar::new();
        let ids = par_map(vec![(); 2], 2, |()| {
            let mut n = arrived.lock().expect("no part panics holding it");
            *n += 1;
            met.notify_all();
            let (n, wait) = met
                .wait_timeout_while(n, Duration::from_secs(20), |n| *n < 2)
                .expect("no part panics holding it");
            drop(n);
            assert!(!wait.timed_out(), "the two parts never ran at once");
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
    }

    /// A `par_map` inside a part completes even when the pool's one
    /// worker is busy with the outer batch.
    #[test]
    fn nested_par_map_completes_on_one_worker() {
        let pool = WorkerPool::new(1);
        let sums = pool.par_map((0..4usize).collect(), 2, |i| {
            let inner = pool.par_map((0..8usize).collect(), 2, |j| i * 8 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(sums, expect);
    }
}
