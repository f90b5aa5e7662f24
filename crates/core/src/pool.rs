//! A persistent per-node worker pool.
//!
//! The functional engine's data-parallel sections (one closure per ring
//! node between two synchronizations) run ~20 times per decode step, so
//! what a section costs beyond its work is paid 20 times a token. A
//! [`WorkerPool`] has at most one lane per core, `L − 1` long-lived
//! threads plus the caller; [`WorkerPool::run`] gives lane `l` the jobs
//! `l, l + L, …`, posts each worker its lane's jobs as one task, runs
//! lane 0's itself, and joins, returning results in job order.
//!
//! A slot is a `Mutex<Option<Post>>` mailbox plus an atomic epoch only
//! the caller advances (`Release`; the worker's load is `Acquire`); an
//! empty mailbox at a new epoch means exit. Completion is one pool-wide
//! `pending` count: each worker decrements it (`AcqRel`) after its task
//! and the one reaching zero unparks the caller, whose `Acquire` load of
//! zero happens-after every job's writes. Waiters poll for
//! `SPIN_BUDGET` before they `park`; `unpark` is unconditional and its
//! token makes a racing `park` return, so no wakeup is lost.
//!
//! Jobs may borrow the caller's stack: `run` erases the borrow lifetime
//! to ship the tasks to long-lived threads, which is sound because it
//! never returns — not even by panic — before every dispatched job has
//! finished. A panicking job is caught where it runs, kept in the job's
//! result cell, and re-thrown on the caller after the join, matching
//! `thread::scope` semantics.

use std::mem::transmute;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// A type-erased unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long a worker without a job polls before it parks: as long as most
/// host-serial gaps between two rounds of a forward step (under 10 µs to
/// 320 µs measured), so it is awake for the next post (~2 µs a round,
/// against 25–60 µs to wake a parked one). The caller polls half of it at
/// the join, where it only waits out skew between equal jobs. A
/// constant, by the clock; ARCHITECTURE §6 has why not longer and why no
/// caller could pick better.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// A posted job, and whom to wake when the round's last job finishes.
type Post = (Job, Thread);

/// One worker's preallocated mailbox.
#[derive(Default)]
struct Slot {
    /// Rounds posted; written only under the `round` lock or `&mut self`.
    epoch: AtomicUsize,
    post: Mutex<Option<Post>>,
}

/// State shared by the caller and every worker.
struct Shared {
    /// Posted jobs of the current round that have not finished.
    pending: AtomicUsize,
    slots: Vec<Slot>,
}

/// One job's place in a round: its index in job order, the job until its
/// lane takes it, then its outcome.
type Cell<'env, T> = (
    usize,
    Option<Box<dyn FnOnce() -> T + Send + 'env>>,
    Option<std::thread::Result<T>>,
);

/// Runs one lane's jobs in order, each under `catch_unwind`: a lane never
/// unwinds, and a panicking job does not stop the ones after it.
fn run_lane<T>(cells: &mut [Cell<'_, T>]) {
    for (_, job, out) in cells {
        *out = job.take().map(|job| catch_unwind(AssertUnwindSafe(job)));
    }
}

/// The cores this process may use: the bound on a pool's lanes.
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Up to one lane per host core: long-lived threads plus the caller.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes rounds: the slot protocol has one poster.
    round: Mutex<()>,
}

/// Polls `ready` for `budget` (by the clock, read every 64th poll), then
/// parks between checks. Whoever makes `ready` true must unpark this
/// thread afterwards.
fn wait_until(budget: Duration, ready: impl Fn() -> bool) {
    let mut polls = 0u32;
    let mut deadline = None;
    while !ready() {
        polls = polls.wrapping_add(1);
        if !polls.is_multiple_of(64)
            || Instant::now() < *deadline.get_or_insert_with(|| Instant::now() + budget)
        {
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
}

/// Serves each new epoch of `slot` until one arrives with an empty mailbox.
fn worker_loop(shared: &Shared, slot: &Slot) {
    let mut served = 0;
    loop {
        // Acquire pairs with the poster's Release bump, which publishes
        // the mailbox and the round's `pending`.
        wait_until(SPIN_BUDGET, || slot.epoch.load(Ordering::Acquire) != served);
        served += 1;
        let mut mail = slot.post.lock().unwrap_or_else(PoisonError::into_inner);
        let Some((job, caller)) = mail.take() else {
            return;
        };
        drop(mail);
        // Never unwinds: `run_lane` wraps every job in `catch_unwind`.
        job();
        // AcqRel: releases this job's writes to the caller's Acquire load
        // in `run`, and chains the earlier finishers' releases into it.
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

impl WorkerPool {
    /// A pool of `min(workers, cores)` lanes: spawns one thread less,
    /// which lives until the pool is dropped; the thread calling
    /// [`WorkerPool::run`] is the remaining lane.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a thread cannot be spawned.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let workers = workers.min(host_cores());
        let shared = Arc::new(Shared {
            pending: AtomicUsize::new(0),
            slots: (1..workers).map(|_| Slot::default()).collect(),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("looplynx-node-{i}"))
                    .spawn(move || worker_loop(&shared, &shared.slots[i - 1]))
                    // lint: allow(panic_free) — documented `# Panics` construction contract; pools are built at startup, not per request
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            round: Mutex::new(()),
        }
    }

    /// Lane count (the calling thread's lane included).
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Fills worker thread `i`'s mailbox (lane `i + 1`) and wakes it.
    fn post(&self, i: usize, post: Option<Post>) {
        let slot = &self.shared.slots[i];
        *slot.post.lock().unwrap_or_else(PoisonError::into_inner) = post;
        // Release pairs with the worker's Acquire load of the epoch.
        slot.epoch.fetch_add(1, Ordering::Release);
        self.handles[i].thread().unpark();
    }

    /// Runs the jobs over the lanes — lane `l` takes jobs `l, l + L, …`
    /// in order, lane 0 being the calling thread — and returns their
    /// results in job order. Blocks until every job has completed; if any
    /// job panicked, the first panic (in job order) is re-thrown here
    /// *after* all jobs finished (so no job ever outlives the borrows it
    /// captured). Not re-entrant: a job must not call `run` on the pool
    /// it runs on.
    ///
    /// # Panics
    ///
    /// Re-throws the first job panic.
    pub fn run<'env, T, I>(&self, jobs: I) -> Vec<T>
    where
        T: Send + 'env,
        I: IntoIterator<Item = Box<dyn FnOnce() -> T + Send + 'env>>,
    {
        // Drain the caller's iterator BEFORE dispatching anything: user
        // code inside the iterator may panic, and once a single job is in
        // flight an unwind past this frame would free the borrows that
        // job captured.
        let cells = jobs.into_iter().enumerate();
        let mut cells: Vec<Cell<'env, T>> = cells.map(|(i, job)| (i, Some(job), None)).collect();
        let lanes = self.workers().min(cells.len()).max(1);
        // Lane-major order: each lane's jobs become one contiguous run
        // (already so when every job has a lane of its own).
        cells.sort_unstable_by_key(|&(i, ..)| (i % lanes, i));
        {
            let _round = self.round.lock().unwrap_or_else(PoisonError::into_inner);
            // From the first post to the join nothing on this thread can
            // unwind: a post is a store, an atomic and an unpark, lane 0's
            // jobs run under `catch_unwind`, and allocation failure aborts.
            self.shared.pending.store(lanes - 1, Ordering::Relaxed);
            let caller = std::thread::current();
            let mut runs = cells.chunk_by_mut(|a, b| a.0 % lanes == b.0 % lanes);
            let first = runs.next();
            for (i, run) in runs.enumerate() {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || run_lane(run));
                // SAFETY: the join below does not let `run` return
                // (normally or by panic) before `pending` reads zero, i.e.
                // before every posted task — and with it every borrow of
                // 'env and of `cells` it captured — has been consumed and
                // finished on its worker.
                let task = unsafe { transmute::<Box<dyn FnOnce() + Send + '_>, Job>(task) };
                self.post(i, Some((task, caller.clone())));
            }
            if let Some(run) = first {
                run_lane(run);
            }
            // The join. Acquire pairs with the workers' AcqRel decrements:
            // every job's writes are visible once zero is.
            let pending = &self.shared.pending;
            wait_until(SPIN_BUDGET / 2, || pending.load(Ordering::Acquire) == 0);
        }
        cells.sort_unstable_by_key(|&(i, ..)| i);
        cells
            .into_iter()
            .map(|(.., out)| out.unwrap_or_else(|| unreachable!("job not joined")))
            .map(|out| out.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // An empty mailbox at a new epoch tells each worker to exit...
        for i in 0..self.handles.len() {
            self.post(i, None);
        }
        // ...then join them.
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Cloning an engine must not share worker threads: a clone gets a fresh
/// pool of the same size.
impl Clone for WorkerPool {
    fn clone(&self) -> Self {
        WorkerPool::new(self.workers())
    }
}

/// Pools carry no semantic state; two pools are interchangeable when they
/// have the same parallelism.
impl PartialEq for WorkerPool {
    fn eq(&self, other: &Self) -> bool {
        self.workers() == other.workers()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let pool = WorkerPool::new(4);
        for _ in 0..50 {
            let out = pool.run((0..4).map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i * 10);
                job
            }));
            assert_eq!(out, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn jobs_may_borrow_and_mutate_caller_state() {
        let pool = WorkerPool::new(3);
        let mut cells = [0u64, 0, 0];
        let shared = 7u64;
        pool.run(cells.iter_mut().enumerate().map(|(i, c)| {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                *c = i as u64 + shared;
            });
            job
        }));
        assert_eq!(cells, [7, 8, 9]);
    }

    #[test]
    fn fewer_jobs_than_workers_is_fine() {
        let pool = WorkerPool::new(4);
        let out = pool.run((0..2).map(|i| {
            let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || i);
            job
        }));
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn job_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..2).map(|i| {
                let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || {
                    assert!(i != 1, "job {i} exploded");
                    i
                });
                job
            }));
        }));
        assert!(attempt.is_err(), "panic must propagate");
        // The worker that caught the panic is still serving jobs.
        let out = pool.run((0..2).map(|i| {
            let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || i + 100);
            job
        }));
        assert_eq!(out, vec![100, 101]);
    }

    #[test]
    fn panicking_job_iterator_dispatches_nothing() {
        // The jobs iterator is caller code and may panic; `run` must not
        // have any job in flight when that unwind escapes (the borrows a
        // dispatched job captures would dangle). The iterator is drained
        // before dispatch, so the early job must never have started.
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = WorkerPool::new(2);
        let ran = AtomicBool::new(false);
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..2).map(|i| {
                assert!(i == 0, "iterator exploded");
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
                    ran.store(true, Ordering::SeqCst);
                });
                job
            }));
        }));
        assert!(attempt.is_err(), "iterator panic must propagate");
        assert!(!ran.load(Ordering::SeqCst), "job dispatched before drain");
        // pool still serves jobs afterwards
        let out = pool.run((0..2).map(|i| {
            let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || i);
            job
        }));
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn caller_run_job_panic_still_joins_the_rest() {
        // Job 0 runs on the calling thread. If its panic unwound `run`
        // before job 1 finished, job 1's borrow of `done` would dangle.
        // Job 1 cannot finish early: it waits at a barrier job 0 reaches
        // (from a drop guard) only once it is already unwinding.
        struct WaitOnDrop<'a>(&'a std::sync::Barrier);
        impl Drop for WaitOnDrop<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let pool = WorkerPool::new(2);
        let barrier = std::sync::Barrier::new(2);
        let mut done = false;
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let (barrier, done) = (&barrier, &mut done);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(move || {
                    let _unwinding = WaitOnDrop(barrier);
                    panic!("job 0 exploded on the caller");
                }),
                Box::new(move || {
                    barrier.wait();
                    *done = true;
                }),
            ];
            pool.run(jobs);
        }));
        assert!(attempt.is_err(), "panic must propagate");
        assert!(done, "run unwound before job 1 finished");
        let out = pool.run((0..2).map(|i| {
            let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || i);
            job
        }));
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn many_jobs_over_host_sized_lanes_finish() {
        // Eight jobs a round on however many lanes the host gives: each
        // lane polls for SPIN_BUDGET then parks, and never has a core to
        // itself that another lane's job is waiting for.
        assert!(WorkerPool::new(64).workers() <= host_cores());
        let pool = WorkerPool::new(8);
        let rounds = if cfg!(miri) { 20 } else { 10_000 };
        let mut total = 0usize;
        for round in 0..rounds {
            let out = pool.run((0..8).map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = Box::new(move || round + i);
                job
            }));
            total += out.iter().sum::<usize>();
        }
        assert_eq!(total, 8 * rounds * (rounds - 1) / 2 + 28 * rounds);
    }

    #[test]
    fn idle_pool_parks_and_still_answers() {
        let pool = WorkerPool::new(3);
        for _ in 0..3 {
            // Long past the spin budget: the workers are parked by now.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let out = pool.run((0..3).map(|i| {
                let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || i * 2);
                job
            }));
            assert_eq!(out, vec![0, 2, 4]);
        }
    }

    #[test]
    fn drop_while_workers_are_parked_joins_cleanly() {
        // Never used, and used then idle: both drops must wake and join
        // every parked worker (a missed wake would hang here).
        let unused = WorkerPool::new(4);
        let used = WorkerPool::new(4);
        used.run((0..4).map(|i| {
            let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || i);
            job
        }));
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(unused);
        drop(used);
    }

    #[test]
    fn more_jobs_than_lanes_come_back_in_job_order() {
        let pool = WorkerPool::new(3);
        for _ in 0..20 {
            let out = pool.run((0..7).map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i * 10);
                job
            }));
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
        }
    }

    #[test]
    fn first_panic_in_job_order_is_rethrown_after_every_job_ran() {
        let pool = WorkerPool::new(3);
        let ran = AtomicUsize::new(0);
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..7).map(|i| {
                let ran = &ran;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    assert!(i != 2 && i != 5, "job {i} exploded");
                });
                job
            }));
        }));
        let payload = attempt.expect_err("panic must propagate");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("job 2 exploded"));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            7,
            "a job was skipped or not joined"
        );
    }

    #[test]
    fn clone_makes_an_independent_pool() {
        let a = WorkerPool::new(2);
        let b = a.clone();
        assert_eq!(a, b);
        drop(a);
        let out = b.run((0..2).map(|i| {
            let job: Box<dyn FnOnce() -> i32 + Send> = Box::new(move || i);
            job
        }));
        assert_eq!(out, vec![0, 1]);
    }
}
