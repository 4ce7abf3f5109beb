//! The worker pool behind [`exec_do_parallel`]: one per process, shared
//! by every run, with at most one batch in flight.
//!
//! A dispatch hands the pool one slot per chunk and one closure, and
//! the closure runs once for every chunk, handed that chunk's slot —
//! whatever a chunk produces it leaves there, so a dispatch allocates
//! no result vector. One chunk runs on the calling thread, with no
//! pool. More are published as the pool's one **batch**, whose cursor
//! the pool's persistent threads and the dispatching thread itself (the
//! master) claim from until no chunk is left, so a dispatch creates no
//! thread once the pool has `chunks − 1` of them (or
//! [`MAX_POOL_THREADS`]), whichever run created them, and a thread the
//! OS refused to create is a non-event. A dispatch that finds another
//! batch in flight publishes nothing: its master runs every chunk
//! itself, as it runs one, and creates no thread and waits on no other
//! batch. No workload has two masters at once — the benchmark, the
//! sanitizer and a hybrid run dispatch from one thread each, and the
//! service only compiles — so only tests take that path.
//!
//! The pool is the process's ([`WorkerPool::process`]): created by the
//! first dispatch with more than one chunk, grown by the dispatches that
//! publish, never shut down; its threads sleep on a condition variable
//! between batches and are never joined. A run reaches it through its
//! [`ProgramScope`], which a unit test may point at a private pool
//! instead (one that joins its threads when its last handle drops).
//!
//! Every decision of the protocol is a method of [`State`]; the rest
//! only locks, waits, notifies and runs the claimed job. A unit test
//! explores every interleaving of two masters and one or two pool
//! threads over `State` (`the_protocol_holds_on_every_interleaving`).
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
//! straight-line code, and only the master that published the batch
//! waits on it. Everything that cites "the dispatch barrier" (the
//! lifetime erasure below, `RawSlice`'s `Send`/`Sync`, `RawPin`'s window
//! pins) relies on exactly this. The same barrier is what makes handing
//! chunk `i` its slot `i` exclusive: the batch's cursor hands out every
//! chunk index once.
//!
//! [`exec_do_parallel`]: crate::parallel::exec_do_parallel

use std::any::Any;
use std::ops::Range;
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

/// A published task, its lifetime erased (see [`WorkerPool::run`]).
type Job = &'static Task<'static>;

/// What a pool's lock guards, and every transition of its protocol.
/// Generic over the task so that the model check can run it on a tag.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State<T> {
    /// The batch in flight: its task and the jobs nobody has claimed.
    batch: Option<(T, Range<usize>)>,
    /// Jobs claimed and not yet finished.
    running: usize,
    shutdown: bool,
}

/// A pool thread's next step.
enum Step<T> {
    Run(T, usize),
    Sleep,
    Exit,
}

impl<T> Default for State<T> {
    fn default() -> Self {
        State {
            batch: None,
            running: 0,
            shutdown: false,
        }
    }
}

impl<T: Copy> State<T> {
    /// Publishes `jobs` calls of the task `make` returns, unless a batch
    /// is in flight: then nothing is made and the caller, told `false`,
    /// runs its jobs alone.
    fn publish(&mut self, jobs: usize, make: impl FnOnce() -> T) -> bool {
        let free = self.batch.is_none();
        if free {
            self.batch = Some((make(), 0..jobs));
        }
        free
    }

    /// The next job of the batch in flight, if one is left to claim.
    fn claim(&mut self) -> Option<(T, usize)> {
        let (task, todo) = self.batch.as_mut()?;
        let job = todo.next()?;
        self.running += 1;
        Some((*task, job))
    }

    /// Counts a claimed job finished; `true` once the batch settled.
    fn finish(&mut self) -> bool {
        self.running -= 1;
        self.settled()
    }

    /// Withdraws the jobs nobody claimed: they are never called.
    fn withdraw(&mut self) {
        if let Some((_, todo)) = &mut self.batch {
            todo.start = todo.end;
        }
    }

    /// No job of the batch can be claimed and none is running.
    fn settled(&self) -> bool {
        self.running == 0 && self.batch.as_ref().is_none_or(|(_, todo)| todo.is_empty())
    }

    /// Removes the settled batch: the pool is free for the next.
    fn retire(&mut self) {
        debug_assert!(self.settled());
        self.batch = None;
    }

    /// What a pool thread does next, decided under the lock it sleeps
    /// on, so that a batch published in between is never slept through.
    fn next_step(&mut self) -> Step<T> {
        match self.claim() {
            Some((task, job)) => Step::Run(task, job),
            None if self.shutdown => Step::Exit,
            None => Step::Sleep,
        }
    }
}

/// What the pool and its threads share. The threads hold the only
/// other `Arc`s, so a dead `Weak` proves they have exited.
#[derive(Default)]
pub(crate) struct Shared {
    state: Mutex<State<Job>>,
    /// Signalled when a batch is published or the pool shuts down.
    work: Condvar,
    /// Signalled when the batch in flight settles.
    done: Condvar,
}

type Guard<'a> = MutexGuard<'a, State<Job>>;

impl Shared {
    /// No job runs under this lock and every update under it is a
    /// counter step or a batch set or cleared, so a holder that panicked
    /// left a valid state: recover the guard instead of propagating.
    fn lock(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a claimed job with the lock released, then finishes it.
    fn run_claimed<'a>(&'a self, st: Guard<'a>, (task, job): (Job, usize)) -> Guard<'a> {
        drop(st);
        task(job);
        let mut st = self.lock();
        if st.finish() {
            self.done.notify_one();
        }
        st
    }

    /// The master's share: claims and runs jobs of its batch until none
    /// is left to claim (others may still be running elsewhere).
    fn drain(&self) {
        let mut st = self.lock();
        while let Some(claim) = st.claim() {
            st = self.run_claimed(st, claim);
        }
    }

    /// A pooled thread: runs, sleeps or exits as [`State::next_step`]
    /// says, each time under the lock.
    fn worker_loop(&self) {
        let mut st = self.lock();
        loop {
            st = match st.next_step() {
                Step::Run(task, job) => self.run_claimed(st, (task, job)),
                Step::Sleep => self.work.wait(st).unwrap_or_else(PoisonError::into_inner),
                Step::Exit => return,
            };
        }
    }
}

/// The published batch. Dropping it withdraws the batch's unclaimed
/// jobs, waits for its running ones and retires it — on every way out
/// of [`WorkerPool::run`].
struct Barrier<'a>(&'a Shared);

impl Drop for Barrier<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.withdraw();
        while !st.settled() {
            st = self.0.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.retire();
    }
}

/// Persistent worker threads fed from the batch in flight.
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
    /// The process's pool, created by the first call and never dropped.
    fn process() -> Arc<WorkerPool> {
        static PROCESS: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        Arc::clone(PROCESS.get_or_init(Arc::default))
    }

    /// Calls `f(i, &mut slots[i])` for every chunk `i` and returns once
    /// every call has returned, with the number of threads it created.
    /// One chunk runs on the calling thread without a pool; more point
    /// an empty `pool` at the process's pool and run there (see
    /// [`WorkerPool::run`]). A call that panics, on any thread, has its
    /// panic re-raised here once every other call has finished.
    pub(crate) fn dispatch<T: Send>(
        pool: &mut Option<Arc<WorkerPool>>,
        slots: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
    ) -> u64 {
        if slots.len() <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                f(i, slot);
            }
            return 0;
        }
        pool.get_or_insert_with(WorkerPool::process).run(slots, f)
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

    /// Publishes `f` over `slots` as the pool's batch, grows the pool to
    /// `slots.len() − 1` threads (at most [`MAX_POOL_THREADS`], or what
    /// the OS grants), wakes a thread for each job past the master's
    /// first and takes part — or, if another batch is in flight, runs
    /// every job itself. Re-raises a job's panic once all have returned, and
    /// returns the number of threads it created.
    fn run<T: Send>(&self, slots: &mut [T], f: impl Fn(usize, &mut T) + Sync) -> u64 {
        let count = slots.len();
        let base = Slots(slots.as_mut_ptr());
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let task = |i: usize| {
            // SAFETY: `i < count`, and the batch's cursor (or the loop
            // below) hands out every job index once, so this is the only
            // reference to slot `i` for as long as the job runs; `slots`
            // stays mutably borrowed until every job has returned.
            let slot = unsafe { &mut *base.at(i) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, slot))) {
                let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        };
        let task: &Task<'_> = &task;
        // SAFETY: only the lifetime changes, and only for a batch that is
        // published. The pool's threads reach `task` (and through it `f`,
        // `slots` and whatever `f` borrows) only by claiming a job of that
        // batch under the state lock, and count it finished only after
        // `task` has returned. The `Barrier` made with the batch drops
        // before `task`, `f` and `slots` go out of scope on every path out
        // of this function, return or unwind, and returns only once no job
        // can be claimed and none is running; it then retires the batch.
        let erase = || unsafe { std::mem::transmute::<&Task<'_>, Job>(task) };
        let published = self.shared.lock().publish(count, erase);
        let created = if published {
            let _barrier = Barrier(&self.shared);
            let (threads, created) = self.grow(count - 1);
            for _ in 1..count.min(threads + 1) {
                self.shared.work.notify_one();
            }
            // The master takes part, first job first.
            self.shared.drain();
            created
        } else {
            (0..count).for_each(task);
            0
        };
        if let Some(payload) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        created
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
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
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
    /// returned. That dispatch finds the pool busy, so its master runs
    /// all four of its jobs itself, creates no thread, and returns
    /// without waiting for the stalled batch. Every slot of both is
    /// written exactly once. A master that waited for the pool would
    /// deadlock here until the stall gives up and panics; one that
    /// published beside the stalled batch would grow the pool.
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
            let mut slots = [0u32; 4];
            let mut handle = pool.clone();
            let created = WorkerPool::dispatch(&mut handle, &mut slots, |_, slot| *slot += 1);
            assert_eq!((created, slots), (0, [1, 1, 1, 1]));
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
            assert!(pool.shared.lock().publish(5, || &bump));
            let _barrier = Barrier(&pool.shared);
            let mut st = pool.shared.lock();
            let claim = st.claim().expect("five jobs to claim");
            drop(pool.shared.run_claimed(st, claim));
            // ... and the master "unwinds" here with four jobs unclaimed.
        }
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
        assert!(pool.shared.lock().batch.is_none());
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

    // ---- the protocol, on every interleaving of a small scope ----

    /// Where a master is in [`WorkerPool::run`]. A step is one lock
    /// scope of the shell, or one job body.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Master {
        /// About to publish, or to find the pool busy.
        Start,
        /// Found it busy: runs job `.0`, and those after, itself.
        Alone(u8),
        /// Published; `.0` threads still to wake.
        Notify(u8),
        /// `drain`'s first claim.
        Drain,
        /// Running its own job `.0`, the lock released.
        Body(u8),
        /// Back under the lock: finish the job, claim the next.
        Finish,
        /// In `Barrier::drop`: withdraw, then retire or wait.
        Barrier,
        /// Woken in the barrier's loop: retire or wait again.
        Settle,
        Waiting,
        Returned,
    }

    /// Where a pool thread is in `worker_loop`.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum PoolThread {
        /// Under the lock, started or woken: `next_step`.
        Decide,
        /// Running job `.1` of master `.0`'s batch, the lock released.
        Body(u8, u8),
        /// Back under the lock: finish, then `next_step`.
        Finish(u8),
        Waiting,
    }

    /// Two masters and the pool's threads around one `State`, whose
    /// task is the publishing master's number.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct World {
        pool: State<u8>,
        masters: [Master; 2],
        published: [bool; 2],
        unwound: [bool; 2],
        /// How many times each job of each master was called.
        ran: [[u8; 3]; 2],
        threads: Vec<PoolThread>,
    }

    impl World {
        /// Every world one step of one actor leads to. A master may
        /// unwind at each of its steps after the first but a job body
        /// (a job never unwinds); a waiting actor may wake spuriously; a
        /// notify wakes any one waiter, or is lost if none waits. Each
        /// invariant is asserted on the step that could break it.
        fn next(&self, jobs: [u8; 2]) -> Vec<World> {
            let mut out = Vec::new();
            for (m, &n) in jobs.iter().enumerate() {
                self.master(m, n, &mut out);
            }
            for t in 0..self.threads.len() {
                self.thread(t, &mut out);
            }
            out
        }

        fn master(&self, m: usize, jobs: u8, out: &mut Vec<World>) {
            let unwind = |mut w: World| {
                w.unwound[m] = true;
                w.masters[m] = Master::Barrier;
                w
            };
            let mut w = self.clone();
            match self.masters[m] {
                Master::Start => {
                    w.published[m] = w.pool.publish(jobs.into(), || m as u8);
                    w.masters[m] = Master::Alone(0);
                    if w.published[m] {
                        let busy = self.pool.batch.is_some();
                        assert!(!busy, "published over a batch in flight: {self:?}");
                        let wake = (jobs as usize - 1).min(self.threads.len()) as u8;
                        w.masters[m] = if wake > 0 {
                            Master::Notify(wake)
                        } else {
                            Master::Drain
                        };
                    }
                    out.push(w);
                }
                Master::Alone(j) => {
                    let mut stop = self.clone();
                    stop.unwound[m] = true;
                    stop.returned(m, jobs);
                    out.push(stop);
                    w.call(m, j);
                    w.masters[m] = Master::Alone(j + 1);
                    if j + 1 == jobs {
                        w.returned(m, jobs);
                    }
                    out.push(w);
                }
                Master::Notify(k) => {
                    out.push(unwind(self.clone()));
                    w.masters[m] = if k > 1 {
                        Master::Notify(k - 1)
                    } else {
                        Master::Drain
                    };
                    out.extend(w.notify_work());
                }
                Master::Drain => {
                    out.push(unwind(self.clone()));
                    w.claim(m);
                    out.push(w);
                }
                Master::Body(j) => {
                    w.call(m, j);
                    w.masters[m] = Master::Finish;
                    out.push(w);
                }
                Master::Finish => {
                    let settled = w.pool.finish();
                    let mut on = w.clone();
                    on.claim(m);
                    for w in [on, unwind(w)] {
                        out.extend(if settled { w.notify_done() } else { vec![w] });
                    }
                }
                Master::Barrier | Master::Settle => {
                    if self.masters[m] == Master::Barrier {
                        w.pool.withdraw();
                    }
                    if w.pool.settled() {
                        w.pool.retire();
                        w.returned(m, jobs);
                    } else {
                        w.wait_done(m);
                    }
                    out.push(w);
                }
                Master::Waiting => {
                    w.masters[m] = Master::Settle;
                    out.push(w);
                }
                Master::Returned => {}
            }
        }

        fn thread(&self, t: usize, out: &mut Vec<World>) {
            let mut w = self.clone();
            match self.threads[t] {
                PoolThread::Decide => {
                    w.decide(t);
                    out.push(w);
                }
                PoolThread::Body(m, j) => {
                    w.call(m.into(), j);
                    w.threads[t] = PoolThread::Finish(m);
                    out.push(w);
                }
                PoolThread::Finish(_) => {
                    let settled = w.pool.finish();
                    for mut w in if settled { w.notify_done() } else { vec![w] } {
                        w.decide(t);
                        out.push(w);
                    }
                }
                PoolThread::Waiting => {
                    w.threads[t] = PoolThread::Decide;
                    out.push(w);
                }
            }
        }

        /// Master `m`'s claim under the lock: its own batch's next job,
        /// or on to the barrier.
        fn claim(&mut self, m: usize) {
            self.masters[m] = match self.pool.claim() {
                Some((task, job)) => {
                    assert_eq!(task as usize, m, "another batch's job claimed: {self:?}");
                    Master::Body(job as u8)
                }
                None => Master::Barrier,
            };
        }

        /// `next_step` for pool thread `t`.
        fn decide(&mut self, t: usize) {
            self.threads[t] = match self.pool.next_step() {
                Step::Run(m, job) => PoolThread::Body(m, job as u8),
                Step::Sleep => return self.sleep(t),
                Step::Exit => unreachable!("the model never shuts the pool down"),
            };
        }

        /// Thread `t` starts waiting on `work`, where nothing can be
        /// claimed.
        fn sleep(&mut self, t: usize) {
            let claimable = self.pool.clone().claim().is_some();
            assert!(!claimable, "thread {t} sleeps beside a job: {self:?}");
            self.threads[t] = PoolThread::Waiting;
        }

        /// Master `m` starts waiting on `done`, only for the batch it
        /// published.
        fn wait_done(&mut self, m: usize) {
            let own = self.published[m] && self.owner() == Some(m);
            assert!(own, "master {m} waits on another: {self:?}");
            self.masters[m] = Master::Waiting;
        }

        /// Job `j` of master `m` is called, on whichever thread.
        fn call(&mut self, m: usize, j: u8) {
            let live = self.masters[m] != Master::Returned;
            assert!(
                live,
                "job {j} of master {m} called after it returned: {self:?}"
            );
            self.ran[m][j as usize] += 1;
            assert_eq!(
                self.ran[m][j as usize], 1,
                "job {j} of master {m} called twice"
            );
        }

        /// Master `m` returns from its dispatch.
        fn returned(&mut self, m: usize, jobs: u8) {
            let running = self.threads.iter().any(|t| match *t {
                PoolThread::Body(o, _) | PoolThread::Finish(o) => o as usize == m,
                _ => false,
            });
            let held = self.owner() == Some(m);
            assert!(!running && !held, "master {m} returned early: {self:?}");
            let ran = &self.ran[m][..jobs as usize];
            let all = ran.iter().all(|&r| r == 1);
            assert!(
                all || self.unwound[m],
                "master {m} left jobs uncalled: {self:?}"
            );
            self.masters[m] = Master::Returned;
        }

        /// The master whose batch is in flight.
        fn owner(&self) -> Option<usize> {
            self.pool.batch.as_ref().map(|(task, _)| *task as usize)
        }

        /// `work.notify_one()`.
        fn notify_work(self) -> Vec<World> {
            let waiting = |w: &World, t: usize| w.threads[t] == PoolThread::Waiting;
            let n = self.threads.len();
            self.wake(n, waiting, |w, t| w.threads[t] = PoolThread::Decide)
        }

        /// `done.notify_one()`.
        fn notify_done(self) -> Vec<World> {
            let waiting = |w: &World, m: usize| w.masters[m] == Master::Waiting;
            self.wake(2, waiting, |w, m| w.masters[m] = Master::Settle)
        }

        /// Wakes any one of the `n` actors `waiting` picks out, or none
        /// if none waits.
        fn wake(
            self,
            n: usize,
            waiting: impl Fn(&World, usize) -> bool,
            woken: impl Fn(&mut World, usize),
        ) -> Vec<World> {
            let mut out: Vec<World> = (0..n)
                .filter(|&a| waiting(&self, a))
                .map(|a| {
                    let mut w = self.clone();
                    woken(&mut w, a);
                    w
                })
                .collect();
            if out.is_empty() {
                out.push(self);
            }
            out
        }
    }

    /// Every world reachable from two masters with `jobs` each, both
    /// about to dispatch, and `threads` pool threads just started.
    /// Returns how many there are, and whether a pool thread ran a job
    /// and a master ran alone in any of them.
    fn explore(jobs: [u8; 2], threads: usize) -> (usize, bool, bool) {
        let start = World {
            pool: State::default(),
            masters: [Master::Start; 2],
            published: [false; 2],
            unwound: [false; 2],
            ran: [[0; 3]; 2],
            threads: vec![PoolThread::Decide; threads],
        };
        let mut seen = std::collections::HashSet::from([start.clone()]);
        let mut todo = vec![start];
        let (mut both_returned, mut pooled, mut alone) = (false, false, false);
        while let Some(w) = todo.pop() {
            if w.masters == [Master::Returned; 2] {
                assert_eq!(w.pool.batch, None, "a batch outlived its master: {w:?}");
                both_returned = true;
            }
            pooled |= w.threads.iter().any(|t| matches!(t, PoolThread::Body(..)));
            alone |= w.masters.iter().any(|m| matches!(m, Master::Alone(_)));
            for next in w.next(jobs) {
                if seen.insert(next.clone()) {
                    todo.push(next);
                }
            }
        }
        assert!(
            both_returned,
            "{jobs:?} on {threads} thread(s) never finishes"
        );
        (seen.len(), pooled, alone)
    }

    /// The pool's protocol, model-checked: two masters of 1–3 jobs each
    /// on one or two pool threads, every interleaving of the shell's
    /// lock scopes over the real [`State`], with spurious wake-ups and
    /// lost notifications. Each job runs once, or never because its
    /// master unwound; a master returns only after its batch retired
    /// with no job running; only one batch is ever published at a time;
    /// only a master that published waits, and only on its own batch; a
    /// pool thread starts waiting only where nothing can be claimed.
    #[test]
    fn the_protocol_holds_on_every_interleaving() {
        let (mut states, mut pooled, mut alone) = (0, false, false);
        for threads in 1..=2 {
            for a in 1..=3 {
                for b in 1..=3 {
                    let (n, p, s) = explore([a, b], threads);
                    states += n;
                    pooled |= p;
                    alone |= s;
                }
            }
        }
        assert!(pooled && alone, "a path the scope must reach was not");
        assert_eq!(states, 71_910);
    }
}
