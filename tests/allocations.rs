//! How many heap allocations a compile and a dispatch make, counted
//! exactly.
//!
//! The symbolic layer's values are shared, not copied: cloning a
//! `SymExpr` (or a `Bound`, a `SymRange`, a `Section`) bumps one reference
//! count, and each loop's range environment is built once. Both are
//! design properties no timing can pin, so this binary counts the
//! allocations of the compiling thread with a counting global allocator.
//! The five paper benchmarks at `Scale::Paper` made 37 433 allocations
//! while every clone deep-copied its term and atom vectors; they make
//! 16 298 with shared values; the bound leaves room for new analyses.
//! The hybrid runtime's dispatch path and its index scan are counted
//! the same way.

use irr_driver::{compile, compile_source, DriverOptions};
use irr_exec::{inspect_injective, ArrayData, Interp, Store};
use irr_frontend::{parse_program, VarId};
use irr_programs::{all, Scale};
use irr_runtime::{run_hybrid, HybridConfig, HybridOutcome};
use irr_symbolic::SymExpr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread since it last reset the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator may run while the thread is tearing down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// `const` thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread (other test threads'
/// allocations are not counted).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn compiling_the_paper_benchmarks_stays_under_its_allocation_budget() {
    let mut total = 0;
    let mut per_program = Vec::new();
    for b in all(Scale::Paper) {
        let program = parse_program(&b.source).expect("benchmark parses");
        let (report, n) = allocations(|| compile(program, DriverOptions::with_iaa()));
        assert!(!report.verdicts.is_empty(), "{}: no verdicts", b.name);
        drop(report);
        per_program.push((b.name, n));
        total += n;
    }
    assert!(
        total <= 26_000,
        "{total} allocations compiling the five benchmarks ({per_program:?}); \
         37 433 while every symbolic clone deep-copied"
    );
}

#[test]
fn cloning_a_symbolic_expression_allocates_nothing() {
    let (i, n, pptr) = (VarId(0), VarId(1), VarId(2));
    let elem = SymExpr::elem(pptr, vec![SymExpr::var(i).add(&SymExpr::int(1))]);
    let div = SymExpr::var(i)
        .mul(&SymExpr::var(n))
        .add(&SymExpr::var(i))
        .div(&SymExpr::int(2));
    let e = elem.scale(3).add(&div).sub(&SymExpr::var(n)).div_exact(4);
    assert!(e.atoms().len() >= 3, "{e}");
    let (copy, n) = allocations(|| e.clone());
    assert_eq!(copy, e);
    assert_eq!(n, 0, "cloning {e} allocated {n} time(s)");
}

/// The hybrid runtime's run of `src` on one thread, compiled outside
/// the count, and the allocations it made.
fn hybrid_run(src: &str) -> (HybridOutcome, u64) {
    let rep = compile_source(src, DriverOptions::with_iaa()).expect("source compiles");
    let config = HybridConfig {
        threads: 1,
        ..HybridConfig::default()
    };
    allocations(|| run_hybrid(&rep, config).expect("runs"))
}

/// A scatter guarded by a run-time injectivity check, entered `entries`
/// times by a sequential sweep.
fn guarded_sweep(entries: usize) -> String {
    format!(
        "program t
         integer i, r, n, p(8)
         real z(8), x(8)
         n = 8
         do i = 1, n
           p(i) = mod(i * 3, n) + 1
           x(i) = i * 1.0
         enddo
         do r = 1, {entries}
           do 20 i = 1, n
             z(p(i)) = x(i) + r
 20        continue
         enddo
         print z(1), z(8)
         end"
    )
}

/// A parallel dispatch of one chunk runs on the master itself, a loop
/// entry is a reference count, a plan reads nothing from the host, and
/// the runtime probes its schedule cache with a key it rebuilds in
/// place: the hybrid runtime's 100 guarded entries of a scatter cost
/// what its first entry costs, and each further entry nothing. One
/// chunk per dispatch keeps every chunk on this thread, where the
/// allocator counts it — and one chunk is what every small re-entry
/// gets. The run made 2 511 allocations while every chunk built and
/// dropped a whole interpreter (a store of three vectors among them),
/// every entry cloned its dispatcher record and every verdict's plan
/// read the host's parallelism; 1 996–1 997, 19 a guarded entry, while
/// every entry also collected and sorted its guard's arrays, copied the
/// executor's memoized in-place facts, kept its chunk bounds in a
/// vector and sent its one chunk through a job vector, a boxed job and a
/// result vector; 1 396, 13 a guarded entry, while every cache hit also
/// copied its certificate vector; 1 297, 12 a guarded entry, while every
/// entry built a schedule key, a snapshot of the store, its windows, its
/// sinks, a result vector and its register planes; it makes 96 with the
/// one chunk on the master and those vectors kept by the run, and a run
/// of 200 entries makes as many.
#[test]
fn a_guarded_reentry_stays_under_its_allocation_budget() {
    let (out, n) = hybrid_run(&guarded_sweep(100));
    let t = out.telemetry;
    assert_eq!(
        (t.guarded_parallel, t.cache_hits, t.fallbacks()),
        (100, 99, 0),
        "{t:?}"
    );
    assert!(
        n <= 96,
        "{n} allocations for 100 guarded entries; 1 297 while every entry took a snapshot, \
         1 396 while a cache hit copied its certificates, 1 997 while a one-chunk dispatch went \
         through a job queue, 2 511 while every chunk built an interpreter"
    );
    let (_, twice) = hybrid_run(&guarded_sweep(200));
    assert!(
        twice - n <= 4 * 100,
        "100 more guarded entries made {} allocations; the target is 4 an entry",
        twice - n
    );
}

/// The guarded scatter of [`guarded_sweep`] with a privatized scalar
/// beside it: a loop whose plan privatizes (or reduces) builds its
/// plan per entry from the loop's plan, whose lists it shares rather
/// than copies, and the executor keys its derivations on those shared
/// lists with two pointer compares. 100 further entries allocate
/// nothing; at 1 an entry while every entry cloned the plan's lists
/// (197 allocations for 100 entries, 297 for 200).
#[test]
fn a_guarded_reentry_that_privatizes_allocates_nothing_an_entry() {
    let private = |entries: usize| {
        guarded_sweep(entries)
            .replace("real z(8), x(8)", "real t, z(8), x(8)")
            .replace(
                "z(p(i)) = x(i) + r",
                "t = x(i) * 2.0\n             z(p(i)) = t + r",
            )
    };
    let (out, n) = hybrid_run(&private(100));
    let t = out.telemetry;
    assert_eq!(
        (t.guarded_parallel, t.cache_hits, t.fallbacks()),
        (100, 99, 0),
        "{t:?}"
    );
    let (_, twice) = hybrid_run(&private(200));
    assert_eq!(
        twice - n,
        0,
        "100 more privatizing entries allocated ({n} for 100)"
    );
}

/// A re-entered loop whose work keeps two chunks on every entry, on
/// two threads (the sweep of `tests/hybrid_runtime.rs`'s
/// `a_reentered_loop_worth_splitting_keeps_its_chunks_on_every_entry`):
/// every chunk runs over the master's store in a slot the run keeps, so
/// a split entry allocates nothing on the dispatching thread once the
/// slots and the pool's thread exist: 87–90 allocations for 100
/// entries and as many for 200 — a slot's vectors are allocated by
/// whichever thread first runs it, so a run's count moves by a few.
/// 9 an entry (884–956 more for 200 entries than for 100, in three
/// runs) while every chunk ran on a clone of the store with planes of
/// its own and handed back an outcome in a result vector.
#[test]
fn a_split_reentry_allocates_nothing_an_entry() {
    let sweep = |entries: usize| {
        format!(
            "program t
             integer i, r, m, n
             real x(40000), y(40000)
             n = 40000
             do i = 1, n
               y(i) = i * 0.5
             enddo
             do r = 1, {entries}
               m = n
               do 20 i = 1, m
                 x(i) = y(i) * r
 20            continue
             enddo
             print x(1), x(m)
             end"
        )
    };
    let run = |entries: usize| {
        let rep = compile_source(&sweep(entries), DriverOptions::with_iaa()).expect("compiles");
        let config = HybridConfig {
            threads: 2,
            ..HybridConfig::default()
        };
        allocations(|| run_hybrid(&rep, config).expect("runs"))
    };
    let (out, n) = run(100);
    let t = out.telemetry;
    assert_eq!(
        t.worker_chunks_typed,
        2 + 2 * 100,
        "every entry splits: {t:?}"
    );
    assert!(n <= 100, "{n} allocations for 100 split entries");
    let (_, twice) = run(200);
    assert!(
        twice.saturating_sub(n) <= 10,
        "100 more split entries made {twice} allocations against {n}"
    );
}

/// A re-entered in-place dispatch whose nest reads its target
/// (`x(i) = x(i) * 0.5 + r`): the target keeps its old payload as the
/// dispatch's undo image, so forcing the payload unique for the chunk
/// copies the array — the reference-counted box and the element buffer,
/// 2 allocations an entry — and the commit drops the old one. It made
/// none an entry while the image was a copy of the window range into a
/// buffer the run kept (which, beside a payload shared with the
/// caller, was a second copy of the array).
#[test]
fn a_reentered_in_place_dispatch_that_reads_its_target_copies_it_once_an_entry() {
    let sweep = |entries: usize| {
        format!(
            "program t
             integer i, r, n
             real x(64)
             n = 64
             do r = 1, {entries}
               do 20 i = 1, n
                 x(i) = x(i) * 0.5 + r
 20            continue
             enddo
             print x(1), x(64)
             end"
        )
    };
    let (out, n) = hybrid_run(&sweep(100));
    let t = out.telemetry;
    assert_eq!(
        (t.strategy_in_place, t.strategy_write_log, t.fallbacks()),
        (100, 0, 0),
        "{t:?}"
    );
    let (_, twice) = hybrid_run(&sweep(200));
    assert_eq!(
        twice - n,
        2 * 100,
        "{n} allocations for 100 in-place entries, {twice} for 200"
    );
}

/// A sequential-tier leaf loop runs on the typed loop
/// (`LoopDecision::Compiled`) in the register planes and pin vector the
/// interpreter keeps: 100 entries of a recurrence cost what its first
/// costs. The run made 440 allocations, 4 an entry, while every entry
/// built its register planes and pin vector; it makes 44.
#[test]
fn a_sequential_typed_entry_allocates_nothing_once_the_planes_are_kept() {
    let sweep = |entries: usize| {
        format!(
            "program t
             integer i, r, n
             real x(64)
             n = 64
             do r = 1, {entries}
               do i = 2, n
                 x(i) = x(i - 1) * 0.5 + r
               enddo
             enddo
             print x(1), x(64)
             end"
        )
    };
    let (out, n) = hybrid_run(&sweep(100));
    assert_eq!(out.telemetry.compiled_loops, 100, "{:?}", out.telemetry);
    let (_, twice) = hybrid_run(&sweep(200));
    assert!(
        n <= 44,
        "{n} allocations for 100 typed entries; 440 while every entry built its planes"
    );
    assert_eq!(twice - n, 0, "100 more typed entries allocated");
}

/// The index scan reads a section's range and order in one pass, and
/// a non-decreasing section is injective exactly when it is strictly
/// increasing: a strictly increasing section certifies with no bitmap
/// and no sort. Only a section that is not monotone pays for one
/// buffer: the bitmap over a dense range, the sorted copy of a sparse
/// one.
#[test]
fn an_injectivity_scan_allocates_only_for_a_section_that_is_not_monotone() {
    const N: i64 = 4096;
    let p = parse_program("program t\n integer idx(1)\n end").expect("parses");
    let idx = p.symbols.lookup("idx").expect("declared");
    let scan = |values: Vec<i64>| {
        let mut store = Store::new(&p);
        let dims = [values.len()].into();
        let data = values.into();
        store.preset_array(idx, ArrayData::Int { data, dims });
        allocations(|| inspect_injective(&store, idx, 1, N))
    };
    // 1031 is odd, so `k × 1031 mod 4096` permutes the positions.
    let scrambled = || (0..N).map(|k| k * 1031 % N + 1);
    assert_eq!(scan((1..=N).collect()), (true, 0), "strictly increasing");
    assert_eq!(
        scan(scrambled().collect()),
        (true, 1),
        "a permutation: the bitmap"
    );
    assert_eq!(
        scan(scrambled().map(|v| v * 9973).collect()),
        (true, 1),
        "sparse and not monotone: the sort buffer"
    );
}

/// A run's split dispatches borrow the process's pool instead of
/// creating a thread and joining it: two whole runs of a loop of two
/// chunks (and its producer loop, also two) on this thread, and the
/// second creates no thread and pays none of what creating one costs
/// the caller (5 allocations: the thread's name, its handle's shared
/// state and its boxed start routine). The second run makes 80
/// allocations when the master runs both chunks of both dispatches
/// itself and 72 when the pool's thread takes the second chunk of each
/// (a slot's vectors are allocated by whichever thread first runs it;
/// 72–80 in thirty runs). With a pool per run every run created its
/// thread: 81–87 in thirty second runs.
#[test]
fn a_second_split_run_creates_no_thread() {
    let src = "program t
         integer i, n
         real x(40000), y(40000)
         n = 40000
         do i = 1, n
           y(i) = i * 0.5
         enddo
         do 20 i = 1, n
           x(i) = y(i) * 2.0
 20      continue
         print x(1), x(n)
         end";
    let rep = compile_source(src, DriverOptions::with_iaa()).expect("compiles");
    let config = HybridConfig {
        threads: 2,
        ..HybridConfig::default()
    };
    let (first, _) = allocations(|| run_hybrid(&rep, config).expect("runs"));
    assert!(
        first.telemetry.worker_threads_spawned <= 1,
        "{:?}",
        first.telemetry
    );
    let (second, n) = allocations(|| run_hybrid(&rep, config).expect("runs"));
    let t = second.telemetry;
    assert_eq!(
        (t.worker_chunks_typed, t.worker_threads_spawned),
        (4, 0),
        "{t:?}"
    );
    assert!(
        n <= 80,
        "{n} allocations for a run whose pool had its thread; 81–87 while every run created one"
    );
}

/// The tree-walk gathers a multi-dimensional access's subscripts in a
/// buffer the interpreter keeps: a run over twice the elements of a
/// 2-D array makes no more allocations. It made one an element access
/// (270 and 526) while every access collected its subscripts into a
/// vector of its own; it makes 15.
#[test]
fn a_tree_walked_2d_access_allocates_nothing_an_element() {
    let run = |n: usize| {
        let src = format!(
            "program t
             integer i, j
             real s, a({n}, 4)
             do i = 1, {n}
               do j = 1, 4
                 a(i, j) = i + j
               enddo
             enddo
             do i = 1, {n}
               do j = 1, 4
                 s = s + a(i, j)
               enddo
             enddo
             print s
             end"
        );
        let p = parse_program(&src).expect("parses");
        allocations(|| Interp::new(&p).run().expect("runs")).1
    };
    let (once, twice) = (run(32), run(64));
    assert_eq!(
        twice,
        once,
        "{} more allocations for 256 more element accesses",
        twice - once
    );
}
