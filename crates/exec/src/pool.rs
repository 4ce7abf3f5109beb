//! The per-run worker pool behind [`exec_do_parallel`].
//!
//! A dispatch hands the pool one slot per chunk and one closure, and
//! the closure runs once for every chunk, handed that chunk's slot —
//! whatever a chunk produces it leaves there, so a dispatch allocates
//! no result vector. One chunk runs on the calling thread, with no
//! pool. More form a **queue with one shared cursor**: the pool's
//! persistent threads and the dispatching thread itself (the master)
//! all claim the next unclaimed chunk until none is left, so
//!
//! - a dispatch creates no thread once the pool has `chunks − 1` of them
//!   (or [`MAX_POOL_THREADS`], for a dispatch wider than that);
//! - a thread the OS refused to create is a non-event — the chunks it
//!   would have run are claimed by whoever is free, the master included.
//!
//! The pool belongs to one [`Interp`](crate::Interp), in the
//! program-scoped half of it ([`ProgramScope`]): `None` until that
//! run's first dispatch with more than one chunk, grown on demand, shut
//! down (queue closed, threads joined) when the interpreter is dropped.
//! The chunks it runs hold no part of that scope but their slots: each
//! reads the master's store, and nothing writes it while they run.
//!
//! [`ProgramScope`]: crate::interp::ProgramScope
//!
//! # The one invariant
//!
//! The closure borrows the dispatch's locals, yet runs on threads that
//! outlive the dispatch. That is sound because [`WorkerPool::dispatch`]
//! **does not return — normally or by unwinding — while the closure is
//! running for any chunk or could still be called for one**: the
//! barrier lives in the `Drop` of a guard, not in straight-line code.
//! Everything that cites "the dispatch barrier" (the lifetime erasure
//! below, `RawSlice`'s `Send`/`Sync`, `RawPin`'s window pins) relies on
//! exactly this. The same barrier is what makes handing chunk `i` its
//! slot `i` exclusive: the cursor hands out every chunk index once.
//!
//! [`exec_do_parallel`]: crate::parallel::exec_do_parallel

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The most threads one pool creates, however many chunks a dispatch
/// brings: the queue needs no particular number of threads, and a
/// process cannot hold an unbounded number of idle ones. Measured on
/// the 40 000-chunk dispatch that motivated handling refused threads
/// (Linux, `vm.max_map_count` 65530, four mappings a thread): near
/// 16 000 live threads it is not `Builder::spawn` that fails but the
/// new thread's own start-up and the next large allocation, and both
/// abort the process. A private constant, not a setting; far above
/// any core count, far below that cliff.
pub(crate) const MAX_POOL_THREADS: usize = 256;

/// Runs job `i` of the current batch in its slot. Never unwinds: the
/// job's own panic is caught and kept for the dispatch to re-raise.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// The jobs of the dispatch in flight, as the threads see them.
struct Batch {
    task: &'static Task<'static>,
    jobs: usize,
    /// The shared cursor: the next job nobody has claimed.
    next: usize,
    /// Jobs not yet finished (claimed and running, or unclaimed).
    pending: usize,
}

#[derive(Default)]
struct State {
    batch: Option<Batch>,
    shutdown: bool,
}

impl State {
    fn claim(&mut self) -> Option<(&'static Task<'static>, usize)> {
        let b = self.batch.as_mut().filter(|b| b.next < b.jobs)?;
        b.next += 1;
        Some((b.task, b.next - 1))
    }

    fn finish_one(&mut self, done: &Condvar) {
        let b = self.batch.as_mut().expect("a claimed job has its batch");
        b.pending -= 1;
        if b.pending == 0 {
            done.notify_all();
        }
    }
}

/// What the pool and its threads share. The threads hold the only
/// other `Arc`s, so a dead `Weak` proves they have exited.
#[derive(Default)]
pub(crate) struct Shared {
    state: Mutex<State>,
    /// Signalled when a batch is published or the pool shuts down.
    work: Condvar,
    /// Signalled when the last pending job of a batch finishes.
    done: Condvar,
}

impl Shared {
    /// Every update under this lock is a counter step or an `Option`
    /// swap and no job runs under it, so the state is valid even if a
    /// holder panicked: recover the guard instead of propagating.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `task(i)` with the lock released and counts it finished.
    fn run_claimed<'a>(
        &'a self,
        st: MutexGuard<'a, State>,
        task: &Task<'_>,
        i: usize,
    ) -> MutexGuard<'a, State> {
        drop(st);
        task(i);
        let mut st = self.lock();
        st.finish_one(&self.done);
        st
    }

    /// The master's share: claims and runs jobs of the current batch
    /// until none is left to claim. Jobs other threads are still
    /// running stay pending.
    fn drain(&self) {
        let mut st = self.lock();
        while let Some((task, i)) = st.claim() {
            st = self.run_claimed(st, task, i);
        }
    }

    /// A pooled thread: claims while there is something to claim,
    /// sleeps otherwise. Claiming and the decision to sleep happen
    /// under the one lock `wait` releases, so a batch published in
    /// between is never slept through.
    fn worker_loop(&self) {
        let mut st = self.lock();
        loop {
            if let Some((task, i)) = st.claim() {
                st = self.run_claimed(st, task, i);
            } else if st.shutdown {
                return;
            } else {
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Withdraws the unclaimed jobs, waits for the running ones and
/// retires the batch — on every way out of [`WorkerPool::run`].
struct Barrier<'a>(&'a Shared);

impl Drop for Barrier<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        if let Some(b) = st.batch.as_mut() {
            // Non-zero only when the master is unwinding: jobs nobody
            // claimed are withdrawn uncalled.
            b.pending -= b.jobs - b.next;
            b.next = b.jobs;
        }
        while st.batch.as_ref().is_some_and(|b| b.pending > 0) {
            st = self.0.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.batch = None;
    }
}

/// Persistent worker threads fed from one job queue.
#[derive(Default)]
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Test-only stand-in for an OS that refuses threads: creation
    /// fails once the pool has this many.
    #[cfg(test)]
    spawn_limit: Option<usize>,
}

impl WorkerPool {
    /// Calls `f(i, &mut slots[i])` for every chunk `i` and returns once
    /// every call has returned. One chunk runs on the calling thread
    /// without a pool; more create `pool`'s pool on first use and grow
    /// it to `slots.len() − 1` threads (at most [`MAX_POOL_THREADS`], or
    /// as many of those as the OS grants). A call that panics, on any
    /// thread, has its panic re-raised here once every other call has
    /// finished. See the module doc for what the call waits for.
    pub(crate) fn dispatch<T: Send>(
        pool: &mut Option<WorkerPool>,
        slots: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        if slots.len() <= 1 {
            slots
                .iter_mut()
                .enumerate()
                .for_each(|(i, slot)| f(i, slot));
            return;
        }
        let pool = pool.get_or_insert_with(WorkerPool::default);
        pool.grow(slots.len() - 1);
        pool.run(slots, f);
    }

    /// Threads this pool has created (none ever exits before shutdown).
    pub(crate) fn threads_spawned(&self) -> u64 {
        self.threads.len() as u64
    }

    fn grow(&mut self, want: usize) {
        while self.threads.len() < want.min(MAX_POOL_THREADS) {
            match self.spawn_one() {
                Ok(handle) => self.threads.push(handle),
                // The OS is out of threads: keep what we have. The
                // queue needs no particular number of them.
                Err(_) => break,
            }
        }
    }

    fn spawn_one(&self) -> std::io::Result<JoinHandle<()>> {
        #[cfg(test)]
        if self.spawn_limit.is_some_and(|k| self.threads.len() >= k) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name(format!("irr-worker-{}", self.threads.len() + 1))
            .spawn(move || shared.worker_loop())
    }

    /// Publishes `f` over `slots` as one batch, takes part in it, and
    /// re-raises a job's panic once the barrier let go.
    fn run<T: Send>(&mut self, slots: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        let count = slots.len();
        let base = Slots(slots.as_mut_ptr());
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let task = |i: usize| {
            // SAFETY: `i < count`, and the cursor hands out every job
            // index once, so this is the only reference to slot `i` for
            // as long as the job runs; `slots` stays mutably borrowed
            // until the barrier has waited for every job.
            let slot = unsafe { &mut *base.at(i) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, slot))) {
                let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        };
        let task: &Task<'_> = &task;
        // SAFETY: only the lifetime changes. The pool's threads reach
        // `task` (and through it `f`, `slots` and whatever `f` borrows)
        // only via the batch published below, only by claiming a job
        // under the state lock, and count the job finished only after
        // `task` has returned. `Barrier::drop` runs before `task`, `f`
        // and `slots` go out of scope on every path out of this
        // function — return or unwind — and does not return until no
        // job can be claimed and none is running; it then removes the
        // batch, so no thread can read the reference afterwards.
        let erased = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
        {
            let _barrier = Barrier(&self.shared);
            self.shared.lock().batch = Some(Batch {
                task: erased,
                jobs: count,
                next: 0,
                pending: count,
            });
            self.shared.work.notify_all();
            // The master takes part, first job first.
            self.shared.drain();
        }
        if let Some(payload) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
    }
}

/// The slots of the batch in flight, as its jobs reach them.
struct Slots<T>(*mut T);

impl<T> Slots<T> {
    /// Slot `i`'s address (the caller keeps `i` in bounds).
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

// SAFETY: a job dereferences only its own slot (`WorkerPool::run`), and
// `T: Send` lets that slot be used from the thread that claimed it.
unsafe impl<T: Send> Sync for Slots<T> {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for handle in self.threads.drain(..) {
            // A worker never unwinds (jobs are caught at the job
            // boundary); nothing useful to do here if one did.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
impl WorkerPool {
    /// A pool on which thread creation fails after `k` threads.
    pub(crate) fn with_spawn_limit(k: usize) -> WorkerPool {
        WorkerPool {
            shared: Arc::default(),
            threads: Vec::new(),
            spawn_limit: Some(k),
        }
    }

    /// Dead once the pool's threads have exited and the pool is gone.
    pub(crate) fn liveness(&self) -> std::sync::Weak<Shared> {
        Arc::downgrade(&self.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    fn here() -> ThreadId {
        std::thread::current().id()
    }

    /// The closure borrows a stack local and a shared counter; the call
    /// returns with every chunk finished in its own slot, whatever the
    /// ratio of chunks to threads.
    #[test]
    fn borrowed_jobs_complete_in_order_before_dispatch_returns() {
        let mut pool = Some(WorkerPool::with_spawn_limit(2));
        for n in [1usize, 2, 9] {
            let input: Vec<usize> = (0..n).map(|i| i * 10).collect();
            let finished = AtomicUsize::new(0);
            let mut got = vec![0; n];
            WorkerPool::dispatch(&mut pool, &mut got, |i, slot| {
                finished.fetch_add(1, Ordering::SeqCst);
                *slot = input[i] + 1;
            });
            assert_eq!(finished.load(Ordering::SeqCst), n);
            assert_eq!(got, input.iter().map(|v| v + 1).collect::<Vec<_>>());
        }
        // Grown on demand to `jobs - 1`, capped by what can be created.
        assert_eq!(pool.as_ref().unwrap().threads_spawned(), 2);
    }

    #[test]
    fn one_job_runs_on_the_caller_and_creates_no_pool() {
        let mut pool = None;
        let mut got = [None];
        WorkerPool::dispatch(&mut pool, &mut got, |_, slot| *slot = Some(here()));
        assert_eq!(got, [Some(here())]);
        assert!(pool.is_none());
        WorkerPool::dispatch(&mut pool, &mut [(); 0], |_, _| unreachable!("no job"));
        assert!(pool.is_none());
    }

    /// With no thread to be had the master claims every job itself.
    #[test]
    fn a_pool_refused_every_thread_runs_all_jobs_on_the_caller() {
        let mut pool = Some(WorkerPool::with_spawn_limit(0));
        let mut got = [None; 16];
        WorkerPool::dispatch(&mut pool, &mut got, |_, slot| *slot = Some(here()));
        assert!(got.iter().all(|r| *r == Some(here())));
        assert_eq!(pool.unwrap().threads_spawned(), 0);
    }

    /// A panic in any job — the first, which the master claims before
    /// any thread can, or a later one — is re-raised on the caller once
    /// every other job has run, and the same threads serve the next
    /// dispatch.
    #[test]
    fn a_panicking_job_is_caught_and_the_others_are_awaited() {
        let mut pool = None;
        for bad in [0usize, 1, 3] {
            let finished = AtomicUsize::new(0);
            let mut got = [None; 4];
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::dispatch(&mut pool, &mut got, |i, slot| {
                    if i == bad {
                        panic!("job {i} fails");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    *slot = Some(i);
                })
            }));
            assert_eq!(finished.load(Ordering::SeqCst), 3, "bad job {bad}");
            let payload = unwound.expect_err("the panic reaches the caller");
            let msg = payload.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(*msg, format!("job {bad} fails"));
            for (i, r) in got.iter().enumerate() {
                assert_eq!(*r, (i != bad).then_some(i));
            }
        }
        assert_eq!(pool.as_ref().unwrap().threads_spawned(), 3);
    }

    /// Unwinding out of `run` itself (not out of a job) still waits:
    /// the unclaimed jobs are withdrawn uncalled, and nothing is left
    /// behind for the next dispatch to trip over.
    #[test]
    fn the_barrier_withdraws_unclaimed_jobs() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        fn bump(_: usize) {
            RAN.fetch_add(1, Ordering::SeqCst);
        }
        let pool = WorkerPool::with_spawn_limit(0);
        {
            let _barrier = Barrier(&pool.shared);
            pool.shared.lock().batch = Some(Batch {
                task: &bump,
                jobs: 5,
                next: 0,
                pending: 5,
            });
            let mut st = pool.shared.lock();
            let (task, i) = st.claim().expect("five jobs to claim");
            drop(pool.shared.run_claimed(st, task, i));
            // ... and the master "unwinds" here with four jobs unclaimed.
        }
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
        assert!(pool.shared.lock().batch.is_none());
    }

    #[test]
    fn dropping_the_pool_joins_its_threads() {
        let mut slot = None;
        WorkerPool::dispatch(&mut slot, &mut [(); 3], |_, _| ());
        let pool = slot.expect("three jobs need a pool");
        assert_eq!(pool.threads_spawned(), 2);
        let alive = pool.liveness();
        assert!(alive.upgrade().is_some());
        drop(pool);
        assert!(alive.upgrade().is_none(), "a thread outlived the pool");
    }
}
