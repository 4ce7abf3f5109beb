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
use irr_exec::{inspect_injective, ArrayData, Store};
use irr_frontend::{parse_program, VarId};
use irr_programs::{all, Scale};
use irr_runtime::{run_hybrid, HybridConfig};
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

/// A parallel worker is a bare run on its snapshot, a loop entry is a
/// reference count and a plan reads nothing from the host, so the
/// hybrid runtime's 100 guarded entries of a scatter cost a fixed
/// handful of allocations each. One chunk per dispatch keeps every
/// chunk on this thread, where the allocator counts it — and one chunk
/// is what every small re-entry gets. The run made 2 511 allocations
/// while every chunk built and dropped a whole interpreter (a store of
/// three vectors among them), every entry cloned its dispatcher record
/// and every verdict's plan read the host's parallelism; 1 996–1 997,
/// 19 a guarded entry, while every entry also collected and sorted its
/// guard's arrays, copied the executor's memoized in-place facts, kept
/// its chunk bounds in a vector and sent its one chunk through a job
/// vector, a boxed job and a result vector; 1 396, 13 a guarded entry,
/// while every cache hit also copied its certificate vector; it makes
/// 1 297 with the certificates shared, 12 a guarded entry.
#[test]
fn a_guarded_reentry_stays_under_its_allocation_budget() {
    let src = "program t
         integer i, r, n, p(8)
         real z(8), x(8)
         n = 8
         do i = 1, n
           p(i) = mod(i * 3, n) + 1
           x(i) = i * 1.0
         enddo
         do r = 1, 100
           do 20 i = 1, n
             z(p(i)) = x(i) + r
 20        continue
         enddo
         print z(1), z(8)
         end";
    let rep = compile_source(src, DriverOptions::with_iaa()).expect("source compiles");
    let config = HybridConfig {
        threads: 1,
        ..HybridConfig::default()
    };
    let (out, n) = allocations(|| run_hybrid(&rep, config).expect("runs"));
    let t = out.telemetry;
    assert_eq!(
        (t.guarded_parallel, t.cache_hits, t.fallbacks()),
        (100, 99, 0),
        "{t:?}"
    );
    assert!(
        n <= 1_297,
        "{n} allocations for 100 guarded entries; 1 396 while a cache hit copied its \
         certificates, 1 997 while a one-chunk dispatch went through a job queue, 2 511 while \
         every chunk built an interpreter"
    );
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
