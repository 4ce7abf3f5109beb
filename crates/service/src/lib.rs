//! Analysis as a service: a concurrent front door over
//! `irr_driver::compile`.
//!
//! The north-star deployment analyzes untrusted programs for many
//! clients at once, so the pool is built robustness-first. A request
//! takes one path — submit → queue → cache → ladder → reply:
//!
//! - **admission control** — a bounded queue; overload sheds with a
//!   reason-coded retry-after instead of queueing without bound;
//! - **budgets** — every request gets a per-rung fuel allowance and a
//!   request-wide wall-clock deadline ([`irr_core::AnalysisBudget`]),
//!   threaded through the solver, evolution, and summary passes;
//! - **one ladder walk** — a request starts at [`DegradeLevel::Full`]
//!   (a quarantined key at `ParseOnly`) and an exhausted budget descends
//!   (full → summaries-off → evolution-off → parse-only); every rung is
//!   more conservative than the last, so a starved request gets a
//!   sound-but-weaker answer, never an error;
//! - **panic isolation** — every rung runs under one `catch_unwind`; a
//!   panicking program yields a typed [`ServiceError`], quarantines its
//!   cache key, and cannot take down a worker or leave a partial cache
//!   entry;
//! - **memoization** — full-strength reports are shared, not copied,
//!   through an LRU, quarantine-aware [`VerdictCache`]: a hit costs a
//!   reference count. A report depends only on the source (the driver
//!   configuration is fixed), so no entry ever needs invalidating;
//! - **hits are served by the caller** — [`Service::submit`] hashes
//!   the source and probes the cache on the submitting thread, and a
//!   hit returns at once: no queue slot (so a hit is never shed
//!   `queue-full`), no wake-up, no channel. Misses, quarantined and
//!   poisoned keys, and every request the fault plan addresses go to
//!   the queue, whose worker probes again and settles them (a
//!   quarantine retry, an eviction, a counted miss) exactly once;
//! - **fault injection** — [`ServiceFaultPlan`] scripts the four
//!   service-level faults the chaos suite must catch with exact
//!   attribution.

pub mod cache;
pub mod fault;

pub use cache::{program_hash, VerdictCache, VerdictKey, VerdictProbe};
pub use fault::{ServiceFault, ServiceFaultPlan, ServiceFaultShot};
pub use irr_driver::{ladder::tier_rank, CompilationReport, DegradeLevel, DriverOptions};

use irr_core::{AnalysisBudget, BudgetExhaustion};
use irr_frontend::{parse_program, Program};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Pool configuration. Every request starts at [`DegradeLevel::Full`]
/// with [`DriverOptions::with_iaa`], and a key whose analysis panicked
/// answers parse-only for its next two requests.
pub struct ServiceConfig {
    /// Worker threads.
    pub workers: usize,
    /// Pending-request bound; submissions past it are shed.
    pub queue_capacity: usize,
    /// Fuel per ladder rung (`None` = unmetered). The ladder refuels
    /// on descent, so a request can spend up to `3 × fuel` before the
    /// free parse-only rung.
    pub fuel: Option<u64>,
    /// Request-wide wall-clock deadline shared by every rung.
    pub wall_budget: Option<Duration>,
    /// Verdict-cache capacity (entries).
    pub cache_capacity: usize,
    /// Injected faults (chaos suite); [`ServiceFaultPlan::none`]
    /// in production.
    pub fault_plan: ServiceFaultPlan,
}

/// Requests a quarantined key answers parse-only before it is
/// re-admitted.
const QUARANTINE_RETRIES: u32 = 2;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            fuel: None,
            wall_budget: None,
            cache_capacity: 256,
            fault_plan: ServiceFaultPlan::none(),
        }
    }
}

/// Why a submission was refused at the door.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShedReason {
    /// The queue is at capacity; retry after the estimated drain time.
    QueueFull {
        /// Estimated milliseconds until the queue has room.
        retry_after_ms: u64,
    },
    /// The pool is shutting down; do not retry.
    ShuttingDown,
}

impl ShedReason {
    /// Stable reason code for telemetry.
    pub fn reason_code(&self) -> &'static str {
        match self {
            ShedReason::QueueFull { .. } => "queue-full",
            ShedReason::ShuttingDown => "shutting-down",
        }
    }
}

/// Why a completed response is weaker than a `Full` analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradeReason {
    /// A rung ran out of fuel; the ladder descended.
    Fuel,
    /// The request-wide deadline passed; straight to parse-only.
    WallClock,
    /// The cache key is quarantined after a panic; parse-only until
    /// re-admission.
    Quarantined,
}

impl DegradeReason {
    /// Stable reason code for telemetry.
    pub fn reason_code(&self) -> &'static str {
        match self {
            DegradeReason::Fuel => "fuel",
            DegradeReason::WallClock => "wall-clock",
            DegradeReason::Quarantined => "quarantined",
        }
    }
}

/// Typed failure: every variant carries a reason code; none of them
/// is ever an escaped panic.
#[derive(Debug)]
pub enum ServiceError {
    /// Refused at admission.
    Shed(ShedReason),
    /// The program does not parse (the expected outcome for malformed
    /// input — reported, not retried).
    Parse(String),
    /// A rung panicked; caught, attributed, and the key quarantined.
    AnalysisPanicked {
        /// The rung that panicked.
        rung: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The worker's reply channel vanished (should not happen; kept
    /// typed so batch collection never panics).
    ReplyLost,
}

impl ServiceError {
    /// Stable reason code for telemetry.
    pub fn reason_code(&self) -> &'static str {
        match self {
            ServiceError::Shed(ShedReason::QueueFull { .. }) => "shed:queue-full",
            ServiceError::Shed(ShedReason::ShuttingDown) => "shed:shutting-down",
            ServiceError::Parse(_) => "parse-error",
            ServiceError::AnalysisPanicked { .. } => "panic",
            ServiceError::ReplyLost => "reply-lost",
        }
    }
}

/// A successful analysis (possibly degraded, possibly memoized).
#[derive(Debug)]
pub struct Analyzed {
    /// The report — computed at [`Analyzed::level`]. Shared with the
    /// verdict cache (and every other client served from it) when
    /// memoized, so it is immutable; dropping it is a decrement.
    pub report: Arc<CompilationReport>,
    /// The ladder rung that produced the report.
    pub level: DegradeLevel,
    /// Why the response is below `Full`; `None` at full strength.
    /// Degraded responses are always reason-coded.
    pub degraded: Option<DegradeReason>,
    /// Served from the verdict cache.
    pub cache_hit: bool,
}

/// One request's outcome.
#[derive(Debug)]
pub struct AnalysisResponse {
    /// Submission sequence number (fault plans key on this).
    pub seq: u64,
    /// Caller-supplied request name.
    pub name: String,
    /// Submission-to-response latency (includes queue wait). For a hit
    /// served by `submit`, the hash and the probe; zero for a shed.
    pub latency: Duration,
    /// The part of `latency` from submission until a worker took the
    /// request; the rest is service time. Zero for a shed and for a hit
    /// served by `submit`, which never queue.
    pub queue_wait: Duration,
    /// The analysis or its typed failure.
    pub result: Result<Analyzed, ServiceError>,
}

impl AnalysisResponse {
    /// The response's reason code: `"ok"` for a full-strength answer,
    /// the degrade reason for weaker ones, the error code otherwise.
    pub fn reason_code(&self) -> &'static str {
        match &self.result {
            Ok(a) => a.degraded.map_or("ok", |d| d.reason_code()),
            Err(e) => e.reason_code(),
        }
    }
}

/// Monotone counters; read via [`Service::stats`].
#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_shutdown: AtomicU64,
    completed: AtomicU64,
    served_inline: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    parse_errors: AtomicU64,
    panics_caught: AtomicU64,
    quarantined_served: AtomicU64,
    degraded: AtomicU64,
    fuel_exhaustions: AtomicU64,
    wall_exhaustions: AtomicU64,
    busy_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsSnapshot {
    /// Requests offered to `submit` (accepted or shed).
    pub submitted: u64,
    /// Shed with `queue-full`.
    pub shed_queue_full: u64,
    /// Shed with `shutting-down`.
    pub shed_shutdown: u64,
    /// Responses that are not sheds: every worker reply, and every hit
    /// `submit` served itself (`served_inline`).
    pub completed: u64,
    /// Cache hits `submit` served on the caller's thread; they never
    /// reached a worker and add nothing to `busy_ns`.
    pub served_inline: u64,
    /// Served from the verdict cache (by `submit` or by a worker).
    pub cache_hits: u64,
    /// Probes that missed (and went on to analyze). A request whose
    /// injected fault bypasses the cache probes nothing and counts
    /// neither as a hit nor as a miss.
    pub cache_misses: u64,
    /// Requests whose program did not parse.
    pub parse_errors: u64,
    /// Panics caught by per-request isolation.
    pub panics_caught: u64,
    /// Degraded responses served for quarantined keys.
    pub quarantined_served: u64,
    /// Responses below the requested rung (any reason).
    pub degraded: u64,
    /// Ladder descents caused by fuel exhaustion.
    pub fuel_exhaustions: u64,
    /// Descents (straight to parse-only) caused by the deadline.
    pub wall_exhaustions: u64,
    /// Total worker-busy nanoseconds over the `completed −
    /// served_inline` requests workers served (drives retry-after
    /// estimates).
    pub busy_ns: u64,
    /// Total nanoseconds requests waited between submission and a
    /// worker taking them. A queued request's latency is its queue wait
    /// plus its service time, and `busy_ns` is the service times plus
    /// whatever passes between a worker's send and its next clock read
    /// (its own frees; on a shared core, the client it just woke), so
    /// `busy_ns + queue_wait_ns` bounds the summed latencies of queued
    /// requests from above. A hit served by `submit` adds to neither.
    pub queue_wait_ns: u64,
}

impl StatsSnapshot {
    /// Cache hit rate over completed probes.
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Fraction of submissions shed at the door.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.shed_queue_full + self.shed_shutdown) as f64 / self.submitted as f64
        }
    }
}

struct Job {
    seq: u64,
    /// Hashed once, by `submit`.
    key: VerdictKey,
    fault: Option<ServiceFault>,
    name: String,
    source: String,
    enqueued: Instant,
    reply: mpsc::SyncSender<AnalysisResponse>,
}

struct Shared {
    workers: usize,
    queue_capacity: usize,
    fuel: Option<u64>,
    wall_budget: Option<Duration>,
    queue: Mutex<VecDeque<Job>>,
    /// Set under the `queue` lock, so a worker that finds the queue
    /// empty and this clear cannot miss the wake-up; `submit` reads it
    /// without the lock before serving a hit.
    shutdown: AtomicBool,
    available: Condvar,
    cache: Mutex<VerdictCache>,
    faults: ServiceFaultPlan,
    fired: Mutex<Vec<ServiceFaultShot>>,
    stats: Stats,
    next_seq: AtomicU64,
}

impl Shared {
    fn record_fired(&self, request_seq: u64, fault: ServiceFault) {
        let shot = ServiceFaultShot { request_seq, fault };
        self.fired.lock().unwrap().push(shot);
    }
}

/// Outcome of a submission.
pub enum Submitted {
    /// Queued; the response arrives on the receiver.
    Accepted(mpsc::Receiver<AnalysisResponse>),
    /// Answered by `submit` itself: a full-strength cache hit, or a
    /// reason-coded shed. The response is complete.
    Ready(Box<AnalysisResponse>),
}

/// The worker pool. Dropping (or [`Service::shutdown`]) drains
/// in-flight work and joins every worker.
pub struct Service {
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the pool.
    pub fn start(config: ServiceConfig) -> Service {
        let shared = Arc::new(Shared {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            fuel: config.fuel,
            wall_budget: config.wall_budget,
            queue: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            available: Condvar::new(),
            cache: Mutex::new(VerdictCache::new(config.cache_capacity)),
            faults: config.fault_plan,
            fired: Mutex::new(Vec::new()),
            stats: Stats::default(),
            next_seq: AtomicU64::new(0),
        });
        let threads = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Service { shared, threads }
    }

    /// Offers one request. Returns immediately: a receiver for the
    /// eventual response, or a complete response — a cache hit served
    /// here, or a shed.
    ///
    /// A hit needs no queue slot, so it is never shed `queue-full`;
    /// once shutdown has started ([`Service::close`]) it is shed
    /// `shutting-down` like any request. A request the fault plan
    /// addresses always goes to the queue.
    pub fn submit(&self, name: &str, source: &str) -> Submitted {
        let s = &self.shared;
        let arrived = Instant::now();
        let seq = s.next_seq.fetch_add(1, Relaxed);
        s.stats.submitted.fetch_add(1, Relaxed);
        let ready = |latency: Duration, result: Result<Analyzed, ServiceError>| {
            Submitted::Ready(Box::new(AnalysisResponse {
                seq,
                name: name.to_string(),
                latency,
                queue_wait: Duration::ZERO,
                result,
            }))
        };
        let shed = |reason: ShedReason| ready(Duration::ZERO, Err(ServiceError::Shed(reason)));
        if s.shutdown.load(Relaxed) {
            s.stats.shed_shutdown.fetch_add(1, Relaxed);
            return shed(ShedReason::ShuttingDown);
        }
        let fault = s.faults.decide(seq);
        let key: VerdictKey = (program_hash(source), DegradeLevel::Full);
        if fault.is_none() {
            let hit = s.cache.lock().unwrap().hit(&key);
            if let Some(report) = hit {
                s.stats.completed.fetch_add(1, Relaxed);
                s.stats.served_inline.fetch_add(1, Relaxed);
                s.stats.cache_hits.fetch_add(1, Relaxed);
                let analyzed = Analyzed {
                    report,
                    level: DegradeLevel::Full,
                    degraded: None,
                    cache_hit: true,
                };
                return ready(arrived.elapsed(), Ok(analyzed));
            }
        }
        let mut q = s.queue.lock().unwrap();
        if s.shutdown.load(Relaxed) {
            drop(q);
            s.stats.shed_shutdown.fetch_add(1, Relaxed);
            return shed(ShedReason::ShuttingDown);
        }
        if q.len() >= s.queue_capacity {
            let backlog = q.len() as u64;
            drop(q);
            s.stats.shed_queue_full.fetch_add(1, Relaxed);
            return shed(ShedReason::QueueFull {
                retry_after_ms: self.retry_after_ms(backlog),
            });
        }
        // One reply per request: one slot, so the worker's send never
        // blocks and nothing is allocated per message.
        let (tx, rx) = mpsc::sync_channel(1);
        q.push_back(Job {
            seq,
            key,
            fault,
            name: name.to_string(),
            source: source.to_string(),
            enqueued: arrived,
            reply: tx,
        });
        drop(q);
        s.available.notify_one();
        Submitted::Accepted(rx)
    }

    /// Submits and blocks for the response (hits and sheds return
    /// immediately).
    pub fn analyze(&self, name: &str, source: &str) -> AnalysisResponse {
        match self.submit(name, source) {
            Submitted::Ready(resp) => *resp,
            Submitted::Accepted(rx) => rx.recv().unwrap_or_else(|_| reply_lost(name.to_string())),
        }
    }

    /// Submits a whole batch, then collects every response (hits and
    /// sheds included, in submission order).
    pub fn analyze_batch<'a>(
        &self,
        requests: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Vec<AnalysisResponse> {
        let submitted: Vec<(String, Submitted)> = requests
            .into_iter()
            .map(|(name, source)| (name.to_string(), self.submit(name, source)))
            .collect();
        submitted
            .into_iter()
            .map(|(name, sub)| match sub {
                Submitted::Ready(resp) => *resp,
                Submitted::Accepted(rx) => rx.recv().unwrap_or_else(|_| reply_lost(name)),
            })
            .collect()
    }

    /// Estimated milliseconds until a full queue has room: backlog ×
    /// average worker service time ÷ workers, floored at 1ms. Hits
    /// served by `submit` took no worker time, so they are not in the
    /// average.
    fn retry_after_ms(&self, backlog: u64) -> u64 {
        let s = &self.shared.stats;
        let served = s
            .completed
            .load(Relaxed)
            .saturating_sub(s.served_inline.load(Relaxed));
        let avg_ms = (s.busy_ns.load(Relaxed) / 1_000_000)
            .checked_div(served)
            .map_or(5, |ms| ms.max(1));
        (backlog * avg_ms / self.shared.workers as u64).max(1)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            submitted: s.submitted.load(Relaxed),
            shed_queue_full: s.shed_queue_full.load(Relaxed),
            shed_shutdown: s.shed_shutdown.load(Relaxed),
            completed: s.completed.load(Relaxed),
            served_inline: s.served_inline.load(Relaxed),
            cache_hits: s.cache_hits.load(Relaxed),
            cache_misses: s.cache_misses.load(Relaxed),
            parse_errors: s.parse_errors.load(Relaxed),
            panics_caught: s.panics_caught.load(Relaxed),
            quarantined_served: s.quarantined_served.load(Relaxed),
            degraded: s.degraded.load(Relaxed),
            fuel_exhaustions: s.fuel_exhaustions.load(Relaxed),
            wall_exhaustions: s.wall_exhaustions.load(Relaxed),
            busy_ns: s.busy_ns.load(Relaxed),
            queue_wait_ns: s.queue_wait_ns.load(Relaxed),
        }
    }

    /// The cache's observable-state digest (see
    /// [`VerdictCache::fingerprint`]).
    pub fn cache_fingerprint(&self) -> u64 {
        self.shared.cache.lock().unwrap().fingerprint()
    }

    /// Entries currently memoized.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.lock().unwrap().len()
    }

    /// Cache poison-eviction count (quarantines + poisoned probes).
    pub fn cache_poison_evictions(&self) -> u64 {
        self.shared.cache.lock().unwrap().poison_evictions()
    }

    /// Quarantined keys re-admitted so far.
    pub fn cache_readmissions(&self) -> u64 {
        self.shared.cache.lock().unwrap().readmissions()
    }

    /// Fired fault shots in firing order, for chaos-suite attribution.
    pub fn faults_fired(&self) -> Vec<ServiceFaultShot> {
        self.shared.fired.lock().unwrap().clone()
    }

    /// Fired shots carrying `name`.
    pub fn faults_fired_count(&self, name: &str) -> usize {
        let fired = self.shared.fired.lock().unwrap();
        fired.iter().filter(|s| s.fault.name() == name).count()
    }

    /// Starts shutdown: every later submission, a cache hit included,
    /// is shed `shutting-down`, while the workers drain what is queued.
    pub fn close(&self) {
        let _queue = self.shared.queue.lock().unwrap();
        self.shared.shutdown.store(true, Relaxed);
    }

    /// Stops admissions, drains the queue, joins the workers, and
    /// returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.close();
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// What a caller gets when the worker's reply channel vanished.
fn reply_lost(name: String) -> AnalysisResponse {
    AnalysisResponse {
        seq: u64::MAX,
        name,
        latency: Duration::ZERO,
        queue_wait: Duration::ZERO,
        result: Err(ServiceError::ReplyLost),
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Relaxed) {
                    return;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        let started = Instant::now();
        let queue_wait = started.duration_since(job.enqueued);
        process(shared, job, queue_wait);
        let stats = &shared.stats;
        stats
            .busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        stats
            .queue_wait_ns
            .fetch_add(queue_wait.as_nanos() as u64, Relaxed);
    }
}

/// Runs one request end to end. Every exit path sends exactly one
/// reason-coded response; no panic can escape (analysis runs under
/// `catch_unwind`, and everything outside it is non-panicking by
/// construction and covered by the corpus tests).
fn process(shared: &Shared, job: Job, queue_wait: Duration) {
    let (fault, key) = (job.fault, job.key);
    // The deadline holder carries the request-wide wall clock. It is
    // anchored here — before the probe, the parse, and any injected
    // stall — so a stalled worker shows up as wall-budget consumption,
    // and each rung refuels from it so fuel is per-rung but time is
    // global.
    let deadline = AnalysisBudget::limited(None, shared.wall_budget);
    // Called once on every path; a client that dropped its receiver
    // loses the reply, nothing else.
    let respond = |result: Result<Analyzed, ServiceError>| {
        shared.stats.completed.fetch_add(1, Relaxed);
        if let Ok(a) = &result {
            if a.degraded.is_some() {
                shared.stats.degraded.fetch_add(1, Relaxed);
            }
        }
        let _ = job.reply.send(AnalysisResponse {
            seq: job.seq,
            name: job.name,
            latency: job.enqueued.elapsed(),
            queue_wait,
            result,
        });
    };

    // Faults that fire inside the analysis path (panic, stall,
    // starvation) bypass the memo probe: chaos coverage must not
    // depend on whether an earlier request already cached the answer.
    let bypass_cache = matches!(
        fault,
        Some(
            ServiceFault::PanicInAnalysis
                | ServiceFault::StallWorker { .. }
                | ServiceFault::BudgetStarvation
        )
    );
    let poison = fault == Some(ServiceFault::PoisonCacheEntry);
    let probe = (!bypass_cache).then(|| {
        let mut cache = shared.cache.lock().unwrap();
        // Injected poisoned-cache-entry: corrupt the memo just before
        // the probe, under the same lock (so no hit served by `submit`
        // sees it), and the cache's own defense (evict + recompute) is
        // what the request exercises.
        if poison {
            cache.poison_entry(&key);
        }
        cache.probe(&key)
    });
    if poison {
        shared.record_fired(job.seq, ServiceFault::PoisonCacheEntry);
    }
    // Where the walk starts: `Full`, or the last rung for a key that
    // is quarantined.
    let mut level = DegradeLevel::Full;
    let mut degrade_reason: Option<DegradeReason> = None;
    match probe {
        Some(VerdictProbe::Hit(report)) => {
            shared.stats.cache_hits.fetch_add(1, Relaxed);
            respond(Ok(Analyzed {
                report,
                level,
                degraded: None,
                cache_hit: true,
            }));
            return;
        }
        Some(VerdictProbe::Quarantined) => {
            shared.stats.quarantined_served.fetch_add(1, Relaxed);
            level = DegradeLevel::ParseOnly;
            degrade_reason = Some(DegradeReason::Quarantined);
        }
        Some(VerdictProbe::Miss) => {
            shared.stats.cache_misses.fetch_add(1, Relaxed);
        }
        // Bypassed: no probe ran, so there is no miss to count.
        None => {}
    }

    // The first rung takes this parse by value; a descent (the rare
    // case) parses the source again instead of every request cloning
    // the program once per rung.
    let mut parsed = match parse_isolated(&job.source) {
        Ok(p) => Some(p),
        Err(e) => {
            shared.stats.parse_errors.fetch_add(1, Relaxed);
            respond(Err(e));
            return;
        }
    };

    // Injected stalled-worker: burn the wall budget before analyzing.
    if let Some(ServiceFault::StallWorker { ms }) = fault {
        thread::sleep(Duration::from_millis(ms));
        shared.record_fired(job.seq, ServiceFault::StallWorker { ms });
    }

    // Injected budget starvation: this request's fuel is zero.
    let fuel = if fault == Some(ServiceFault::BudgetStarvation) {
        shared.record_fired(job.seq, ServiceFault::BudgetStarvation);
        Some(0)
    } else {
        shared.fuel
    };

    loop {
        if level != DegradeLevel::ParseOnly
            && deadline.exhausted() == Some(BudgetExhaustion::WallClock)
        {
            shared.stats.wall_exhaustions.fetch_add(1, Relaxed);
            degrade_reason = Some(DegradeReason::WallClock);
            level = DegradeLevel::ParseOnly;
        }
        let program = match parsed
            .take()
            .map_or_else(|| parse_isolated(&job.source), Ok)
        {
            Ok(p) => p,
            Err(e) => {
                respond(Err(e));
                return;
            }
        };
        let budget = deadline.refueled(fuel);
        let inject_panic =
            fault == Some(ServiceFault::PanicInAnalysis) && level == DegradeLevel::Full;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                // Unwinds to the `catch_unwind` without calling the
                // panic hook: an injected fault prints nothing.
                resume_unwind(Box::new("injected analysis fault"));
            }
            level.compile_at(program, DriverOptions::with_iaa(), Some(&budget))
        }));
        let report = match outcome {
            Ok(report) => report,
            Err(payload) => {
                if inject_panic {
                    shared.record_fired(job.seq, ServiceFault::PanicInAnalysis);
                }
                shared.stats.panics_caught.fetch_add(1, Relaxed);
                shared
                    .cache
                    .lock()
                    .unwrap()
                    .quarantine(key, QUARANTINE_RETRIES);
                let message = panic_text(payload.as_ref());
                respond(Err(ServiceError::AnalysisPanicked {
                    rung: level.name(),
                    message,
                }));
                return;
            }
        };
        // The last rung answers whatever budget is left.
        match budget
            .exhausted()
            .filter(|_| level != DegradeLevel::ParseOnly)
        {
            None => {
                let report = Arc::new(report);
                if level == DegradeLevel::Full {
                    memoize(shared, key, &report);
                }
                respond(Ok(Analyzed {
                    report,
                    level,
                    degraded: degrade_reason,
                    cache_hit: false,
                }));
                return;
            }
            Some(BudgetExhaustion::Fuel) => {
                shared.stats.fuel_exhaustions.fetch_add(1, Relaxed);
                degrade_reason = Some(DegradeReason::Fuel);
                level = level.next().unwrap_or(DegradeLevel::ParseOnly);
            }
            Some(BudgetExhaustion::WallClock) => {
                shared.stats.wall_exhaustions.fetch_add(1, Relaxed);
                degrade_reason = Some(DegradeReason::WallClock);
                level = DegradeLevel::ParseOnly;
            }
        }
    }
}

/// Memoizes `report`: the cache and the reply hold the same allocation.
/// What the insert displaced is freed here, after the cache mutex —
/// the one lock every worker needs — is released.
fn memoize(shared: &Shared, key: VerdictKey, report: &Arc<CompilationReport>) {
    let displaced = shared.cache.lock().unwrap().insert(key, Arc::clone(report));
    drop(displaced);
}

/// Parses under `catch_unwind`: a parse panic (there should be none —
/// the corpus tests enforce it) becomes a typed error, not a dead
/// worker.
fn parse_isolated(source: &str) -> Result<Program, ServiceError> {
    match catch_unwind(AssertUnwindSafe(|| parse_program(source))) {
        Ok(Ok(p)) => Ok(p),
        Ok(Err(e)) => Err(ServiceError::Parse(e.to_string())),
        Err(payload) => Err(ServiceError::AnalysisPanicked {
            rung: "parse",
            message: panic_text(payload.as_ref()),
        }),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
