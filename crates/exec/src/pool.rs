//! The worker pool behind [`exec_do_parallel`]: one per process, shared
//! by every run.
//!
//! A dispatch hands the pool one slot per chunk and one closure, and
//! the closure runs once for every chunk, handed that chunk's slot —
//! whatever a chunk produces it leaves there, so a dispatch allocates
//! no result vector. One chunk runs on the calling thread, with no
//! pool. More are published as one **batch with its own cursor**: the
//! pool's persistent threads and the dispatching thread itself (the
//! master) claim the batch's next unclaimed chunk until none is left, so
//!
//! - a dispatch creates no thread once the pool has `chunks − 1` of them
//!   (or [`MAX_POOL_THREADS`], for a dispatch wider than that), whichever
//!   run created them;
//! - a thread the OS refused to create is a non-event — the chunks it
//!   would have run are claimed by whoever is free, the master included.
//!
//! The pool is the process's ([`WorkerPool::process`]): created by the
//! first dispatch with more than one chunk, grown on demand, never shut
//! down. Its threads sleep on a condition variable between batches and
//! are never joined. Runs on different threads dispatch through it at
//! the same time: each publishes its own batch, the pool's threads
//! claim from whichever batch has a chunk left (oldest first), and each
//! master claims only from its own batch and waits only for its own. A
//! run reaches the pool through its [`ProgramScope`], which a unit test
//! may point at a private pool instead; a private pool closes its queue
//! and joins its threads when its last handle drops. The chunks a pool
//! runs hold no part of a run's scope but their slots: each reads the
//! master's store, and nothing writes it while they run.
//!
//! [`ProgramScope`]: crate::interp::ProgramScope
//!
//! # The one invariant
//!
//! The closure borrows the dispatch's locals, yet runs on threads that
//! outlive the dispatch. That is sound because [`WorkerPool::dispatch`]
//! **does not return — normally or by unwinding — while the closure is
//! running for any chunk of its batch or could still be called for
//! one**: the barrier lives in the `Drop` of a guard, not in
//! straight-line code, and it waits for its own batch alone. Everything
//! that cites "the dispatch barrier" (the lifetime erasure below,
//! `RawSlice`'s `Send`/`Sync`, `RawPin`'s window pins) relies on
//! exactly this. The same barrier is what makes handing chunk `i` its
//! slot `i` exclusive: the batch's cursor hands out every chunk index
//! once.
//!
//! [`exec_do_parallel`]: crate::parallel::exec_do_parallel

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
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

/// Runs job `i` of one batch in its slot. Never unwinds: the job's own
/// panic is caught and kept for the dispatch to re-raise.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// The jobs of one dispatch in flight, as the threads see them.
struct Batch {
    /// What its master's drain and barrier find it by.
    id: u64,
    task: &'static Task<'static>,
    jobs: usize,
    /// The batch's cursor: its next job nobody has claimed.
    next: usize,
    /// Jobs not yet finished (claimed and running, or unclaimed).
    pending: usize,
}

/// A job a thread claimed: which batch's, and which.
struct Claim {
    batch: u64,
    task: &'static Task<'static>,
    job: usize,
}

#[derive(Default)]
struct State {
    /// The batches of the dispatches in flight, oldest first.
    batches: Vec<Batch>,
    /// The id the next batch is published under.
    next_id: u64,
    shutdown: bool,
}

impl State {
    /// Claims the next job of batch `only`, or, with `None`, of the
    /// oldest batch that has one left.
    fn claim(&mut self, only: Option<u64>) -> Option<Claim> {
        let open = |b: &&mut Batch| b.next < b.jobs && only.is_none_or(|id| b.id == id);
        let b = self.batches.iter_mut().find(open)?;
        b.next += 1;
        Some(Claim {
            batch: b.id,
            task: b.task,
            job: b.next - 1,
        })
    }

    /// Batch `id`, published until its barrier retires it.
    fn batch(&mut self, id: u64) -> Option<&mut Batch> {
        self.batches.iter_mut().find(|b| b.id == id)
    }

    fn finish_one(&mut self, id: u64, done: &Condvar) {
        let b = self
            .batch(id)
            .expect("a batch is published while its jobs run");
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
    /// Every update under this lock is a counter step or a push or
    /// removal of a batch and no job runs under it, so the state is
    /// valid even if a holder panicked: recover the guard instead of
    /// propagating.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs the claimed job with the lock released and counts it
    /// finished.
    fn run_claimed<'a>(&'a self, st: MutexGuard<'a, State>, c: Claim) -> MutexGuard<'a, State> {
        drop(st);
        (c.task)(c.job);
        let mut st = self.lock();
        st.finish_one(c.batch, &self.done);
        st
    }

    /// The master's share: claims and runs jobs of its own batch `id`
    /// until none is left to claim. Jobs other threads are still
    /// running stay pending; other batches are the pool's.
    fn drain(&self, id: u64) {
        let mut st = self.lock();
        while let Some(c) = st.claim(Some(id)) {
            st = self.run_claimed(st, c);
        }
    }

    /// A pooled thread: claims from any batch while there is something
    /// to claim, sleeps otherwise. Claiming and the decision to sleep
    /// happen under the one lock `wait` releases, so a batch published
    /// in between is never slept through.
    fn worker_loop(&self) {
        let mut st = self.lock();
        loop {
            if let Some(c) = st.claim(None) {
                st = self.run_claimed(st, c);
            } else if st.shutdown {
                return;
            } else {
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// One published batch. Dropping it withdraws the batch's unclaimed
/// jobs, waits for its running ones and retires it — on every way out
/// of [`WorkerPool::run`]. It waits for no other batch.
struct Barrier<'a> {
    shared: &'a Shared,
    batch: u64,
}

impl<'a> Barrier<'a> {
    /// Publishes `jobs` calls of `task` as a new batch.
    fn publish(shared: &'a Shared, task: &'static Task<'static>, jobs: usize) -> Barrier<'a> {
        let mut st = shared.lock();
        let batch = st.next_id;
        st.next_id += 1;
        st.batches.push(Batch {
            id: batch,
            task,
            jobs,
            next: 0,
            pending: jobs,
        });
        Barrier { shared, batch }
    }
}

impl Drop for Barrier<'_> {
    fn drop(&mut self) {
        let Barrier { shared, batch } = *self;
        let mut st = shared.lock();
        if let Some(b) = st.batch(batch) {
            // Non-zero only when the master is unwinding: jobs nobody
            // claimed are withdrawn uncalled.
            b.pending -= b.jobs - b.next;
            b.next = b.jobs;
        }
        while st.batch(batch).is_some_and(|b| b.pending > 0) {
            st = shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.batches.retain(|b| b.id != batch);
    }
}

/// Persistent worker threads fed from the batches in flight.
#[derive(Default)]
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    /// The threads the pool created; none exits before shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Test-only stand-in for an OS that refuses threads: creation
    /// fails once the pool has this many.
    #[cfg(test)]
    spawn_limit: Option<usize>,
}

impl WorkerPool {
    /// The process's pool, created by the first call. It is never
    /// dropped, so its threads are never joined.
    fn process() -> Arc<WorkerPool> {
        static PROCESS: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        Arc::clone(PROCESS.get_or_init(Arc::default))
    }

    /// Calls `f(i, &mut slots[i])` for every chunk `i` and returns once
    /// every call has returned, with the number of threads it created.
    /// One chunk runs on the calling thread without a pool; more point
    /// an empty `pool` at the process's pool and grow the pool it holds
    /// to `slots.len() − 1` threads (at most [`MAX_POOL_THREADS`], or
    /// as many of those as the OS grants). A call that panics, on any
    /// thread, has its panic re-raised here once every other call has
    /// finished. See the module doc for what the call waits for.
    pub(crate) fn dispatch<T: Send>(
        pool: &mut Option<Arc<WorkerPool>>,
        slots: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
    ) -> u64 {
        if slots.len() <= 1 {
            slots
                .iter_mut()
                .enumerate()
                .for_each(|(i, slot)| f(i, slot));
            return 0;
        }
        let pool = pool.get_or_insert_with(WorkerPool::process);
        let (threads, created) = pool.grow(slots.len() - 1);
        pool.run(slots, threads, f);
        created
    }

    /// Grows the pool towards `want` threads. Returns how many it has
    /// and how many of those this call created.
    fn grow(&self, want: usize) -> (usize, u64) {
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        let had = threads.len();
        while threads.len() < want.min(MAX_POOL_THREADS) {
            match self.spawn_one(threads.len()) {
                Ok(handle) => threads.push(handle),
                // The OS is out of threads: keep what we have. The
                // queue needs no particular number of them.
                Err(_) => break,
            }
        }
        (threads.len(), (threads.len() - had) as u64)
    }

    /// Creates the pool's thread number `had + 1`.
    fn spawn_one(&self, had: usize) -> std::io::Result<JoinHandle<()>> {
        #[cfg(test)]
        if self.spawn_limit.is_some_and(|k| had >= k) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name(format!("irr-worker-{}", had + 1))
            .spawn(move || shared.worker_loop())
    }

    /// Publishes `f` over `slots` as one batch, wakes as many of the
    /// pool's `threads` as the batch has jobs beyond the master's
    /// first, takes part in it, and re-raises a job's panic once the
    /// barrier let go.
    fn run<T: Send>(&self, slots: &mut [T], threads: usize, f: impl Fn(usize, &mut T) + Sync) {
        let count = slots.len();
        let base = Slots(slots.as_mut_ptr());
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let task = |i: usize| {
            // SAFETY: `i < count`, and the batch's cursor hands out
            // every job index once, so this is the only reference to
            // slot `i` for as long as the job runs; `slots` stays
            // mutably borrowed until the barrier has waited for every
            // job of the batch.
            let slot = unsafe { &mut *base.at(i) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, slot))) {
                let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        };
        let task: &Task<'_> = &task;
        // SAFETY: only the lifetime changes. The pool's threads reach
        // `task` (and through it `f`, `slots` and whatever `f` borrows)
        // only via the batch published below, only by claiming one of
        // its jobs under the state lock, and count the job finished
        // only after `task` has returned. `Barrier::drop` runs before
        // `task`, `f` and `slots` go out of scope on every path out of
        // this function — return or unwind — and does not return until
        // no job of the batch can be claimed and none is running; it
        // then removes the batch, so no thread can read the reference
        // afterwards.
        let erased = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
        {
            let barrier = Barrier::publish(&self.shared, erased, count);
            for _ in 1..count.min(threads + 1) {
                self.shared.work.notify_one();
            }
            // The master takes part, first job first.
            self.shared.drain(barrier.batch);
        }
        if let Some(payload) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
    }
}

/// The slots of a batch in flight, as its jobs reach them.
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
    /// Only a private pool is ever dropped: the process's lives in a
    /// static.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        let threads = self
            .threads
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in threads.drain(..) {
            // A worker never unwinds (jobs are caught at the job
            // boundary); nothing useful to do here if one did.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
impl WorkerPool {
    /// A private pool on which thread creation fails after `k` threads.
    pub(crate) fn with_spawn_limit(k: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            shared: Arc::default(),
            threads: Mutex::default(),
            spawn_limit: Some(k),
        })
    }

    /// Threads this pool has created (none ever exits before shutdown).
    pub(crate) fn threads_spawned(&self) -> u64 {
        self.threads.lock().unwrap().len() as u64
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
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn here() -> ThreadId {
        std::thread::current().id()
    }

    /// A private pool with no limit on its threads.
    fn private() -> Option<Arc<WorkerPool>> {
        Some(Arc::default())
    }

    /// The closure borrows a stack local and a shared counter; the call
    /// returns with every chunk finished in its own slot, whatever the
    /// ratio of chunks to threads.
    #[test]
    fn borrowed_jobs_complete_in_order_before_dispatch_returns() {
        let mut pool = Some(WorkerPool::with_spawn_limit(2));
        let mut created = 0;
        for n in [1usize, 2, 9] {
            let input: Vec<usize> = (0..n).map(|i| i * 10).collect();
            let finished = AtomicUsize::new(0);
            let mut got = vec![0; n];
            created += WorkerPool::dispatch(&mut pool, &mut got, |i, slot| {
                finished.fetch_add(1, Ordering::SeqCst);
                *slot = input[i] + 1;
            });
            assert_eq!(finished.load(Ordering::SeqCst), n);
            assert_eq!(got, input.iter().map(|v| v + 1).collect::<Vec<_>>());
        }
        // Grown on demand to `jobs - 1`, capped by what can be created.
        assert_eq!(pool.as_ref().unwrap().threads_spawned(), 2);
        assert_eq!(created, 2);
    }

    #[test]
    fn one_job_runs_on_the_caller_and_creates_no_pool() {
        let mut pool = None;
        let mut got = [None];
        let created = WorkerPool::dispatch(&mut pool, &mut got, |_, slot| *slot = Some(here()));
        assert_eq!(got, [Some(here())]);
        assert_eq!(created, 0);
        assert!(pool.is_none());
        WorkerPool::dispatch(&mut pool, &mut [(); 0], |_, _| unreachable!("no job"));
        assert!(pool.is_none());
    }

    /// An empty handle is pointed at the process's pool, every run's
    /// handle at the same one, and a dispatch through it creates no
    /// thread once it has as many as the dispatch needs — whichever
    /// run created them.
    #[test]
    fn every_run_shares_the_process_pool_and_its_threads() {
        let (mut first, mut second) = (None, None);
        let created = WorkerPool::dispatch(&mut first, &mut [(); 3], |_, _| ());
        assert!(created <= 2, "{created} threads for three jobs");
        let mut got = [0; 3];
        let again = WorkerPool::dispatch(&mut second, &mut got, |i, slot| *slot = i + 1);
        assert_eq!((again, got), (0, [1, 2, 3]));
        let (first, second) = (first.unwrap(), second.unwrap());
        assert!(Arc::ptr_eq(&first, &second));
        assert!(first.threads_spawned() >= 2);
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
        let mut pool = private();
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

    /// Two runs dispatch through one pool at the same time, and the
    /// first stalls: both its jobs — one on its master, one on the
    /// pool's only thread — wait until the second run's dispatch has
    /// returned. That dispatch finds no free thread, so its master
    /// runs both its jobs, and returns without waiting for the stalled
    /// batch. Every slot of both is written exactly once. A master that
    /// waited for every batch would deadlock here until the stall gives
    /// up and panics.
    #[test]
    fn a_stalled_batch_holds_up_no_other_dispatch() {
        let pool = private();
        let gate = (Mutex::new(false), Condvar::new());
        let (started, running) = mpsc::channel();
        std::thread::scope(|s| {
            let stalled = s.spawn(|| {
                let mut slots = [0u32; 2];
                WorkerPool::dispatch(&mut pool.clone(), &mut slots, |_, slot| {
                    *slot += 1;
                    started.send(()).unwrap();
                    let open = gate.0.lock().unwrap();
                    let wait = Duration::from_secs(30);
                    let waited = gate.1.wait_timeout_while(open, wait, |o| !*o).unwrap().1;
                    assert!(!waited.timed_out(), "the other dispatch never returned");
                });
                slots
            });
            for _ in 0..2 {
                running.recv_timeout(Duration::from_secs(30)).unwrap();
            }
            let mut slots = [0u32; 2];
            let mut handle = pool.clone();
            let created = WorkerPool::dispatch(&mut handle, &mut slots, |_, slot| *slot += 1);
            assert_eq!((created, slots), (0, [1, 1]));
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
            assert_eq!(stalled.join().unwrap(), [1, 1]);
        });
        assert_eq!(pool.unwrap().threads_spawned(), 1);
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
            let barrier = Barrier::publish(&pool.shared, &bump, 5);
            let mut st = pool.shared.lock();
            let claim = st.claim(Some(barrier.batch)).expect("five jobs to claim");
            drop(pool.shared.run_claimed(st, claim));
            // ... and the master "unwinds" here with four jobs unclaimed.
        }
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
        assert!(pool.shared.lock().batches.is_empty());
    }

    #[test]
    fn dropping_a_private_pool_joins_its_threads() {
        let mut slot = private();
        WorkerPool::dispatch(&mut slot, &mut [(); 3], |_, _| ());
        let pool = slot.expect("a private pool");
        assert_eq!(pool.threads_spawned(), 2);
        let alive = pool.liveness();
        assert!(alive.upgrade().is_some());
        drop(pool);
        assert!(alive.upgrade().is_none(), "a thread outlived the pool");
    }
}
