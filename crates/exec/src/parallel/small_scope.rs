//! The small-scope check of what a dispatch derives before any chunk
//! runs: the shapes `irr_driver::derive_in_place_facts` and
//! `irr_driver::derive_concat_shape` find, the windows
//! [`prepare_in_place`] cuts from them, and which in-place targets its
//! `rewritten` rule leaves without an undo image.
//!
//! The scope: every corpus loop either derivation accepts — the bodies
//! of the in-place soundness gate (`irr_programs::fuzz::strategy_programs`,
//! its near-misses too, since a derivation that wrongly accepts one must
//! be caught here), the corpus's concat loop (`rowgather`) and the
//! concat near-misses below — entered for four iterations in 1 to 4
//! chunks, over every store of the scope. Each integer array the nest
//! only reads takes every value the scope allows: a segment's `ptr`
//! every non-decreasing sequence over 1 … 5, the row lengths it bounds
//! an inner loop with those `ptr` gives and each one row longer, any
//! other every sequence over 1 … 4 in its first four elements (1
//! after); each real array it reads alternates low and high, from
//! either end. Against a sequential run traced per
//! iteration:
//!
//! - **shapes:** every access to an affine or scatter target is the
//!   cell its shape names for the iteration. A segment target's lie in
//!   the iteration's segment `[ptr(i), ptr(i + 1))`, or the store leaves
//!   the offset–length discipline, which only the windows at run time
//!   police;
//! - **windows:** the dispatch is refused, or each target's windows lie
//!   in the array, are pairwise disjoint and hold every access of their
//!   chunk where the store keeps the discipline — exactly those accesses
//!   in a nest without a branch. A certified scatter's chunks touch
//!   pairwise disjoint sets. A committed concat chunk wrote each target
//!   exactly at its append range, and no concat chunk reads one;
//! - **no image:** a target left without one is written, in every
//!   iteration, at the same cells whatever the targets the nest reads
//!   hold. So whatever a chunk beside a violating one wrote there, the
//!   sequential fallback writes again;
//! - **end to end:** the dispatch, and the same dispatch failed by a
//!   forged conflict after every chunk ran, leave the master the
//!   sequential run leaves: committed, or rolled back and walked again.
//!
//! Three scratch mutants, one per function, fail it; CHANGES.md names
//! them.

use super::*;
use crate::trace::{AccessTracer, TraceConfig};
use irr_driver::{derive_concat_shape, derive_in_place_facts};
use irr_frontend::visit::{collect_array_accesses, scalars_assigned_in};
use irr_frontend::{parse_program, Expr, ScalarType};
use irr_programs::fuzz::strategy_programs;
use irr_programs::sparse::{rowgather, SparseScale, STRUCTURES};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Iterations of every entry: enough for four chunks of one.
const TRIP: usize = 4;

/// Concat bodies beside the corpus's `rowgather`: two that append, and
/// near-misses the derivation refuses — the pointer read on the right
/// of an assignment, a step of two, a target read back.
const CONCAT_BODIES: [&str; 5] = [
    "q = q + 1\nind(q) = i\n",
    "if (x(i) > 0.5) then\nq = q + 1\nind(q) = i\nout(q) = x(i)\nendif\n",
    "q = q + 1\nind(q) = q\n",
    "q = q + 2\nind(q) = i\n",
    "q = q + 1\nind(q) = i\nout(i) = ind(q)\n",
];

fn concat_source(body: &str) -> String {
    format!(
        "program f
         integer i, m, q, ind(16)
         real x(8), out(16)
         do 20 i = 1, m
{body} 20      continue
         end"
    )
}

/// One array access of a traced iteration: the array, the flat index,
/// and whether it stores.
type Access = (VarId, usize, bool);

/// Records the array accesses of each iteration of the one traced loop.
struct Recorder(Rc<RefCell<Vec<Vec<Access>>>>);

impl Recorder {
    fn push(&mut self, access: Access) {
        if let Some(iteration) = self.0.borrow_mut().last_mut() {
            iteration.push(access);
        }
    }
}

impl AccessTracer for Recorder {
    fn loop_enter(&mut self, _: &Store, _: StmtId, _: i64, _: i64, _: i64) {}
    fn loop_iter(&mut self, _: StmtId, _: i64) {
        self.0.borrow_mut().push(Vec::new());
    }
    fn loop_exit(&mut self, _: StmtId) {}
    fn read_element(&mut self, array: VarId, idx: usize) {
        self.push((array, idx, false));
    }
    fn write_element(&mut self, array: VarId, idx: usize) {
        self.push((array, idx, true));
    }
    fn read_scalar(&mut self, _: VarId) {}
    fn write_scalar(&mut self, _: VarId) {}
}

/// The flat indices of `a` the iterations `from..=to` (1-based) of
/// `trace` load or store, as `kind` keeps a store (`true`) or a load.
fn cells(
    trace: &[Vec<Access>],
    a: VarId,
    (from, to): (i64, i64),
    kind: fn(bool) -> bool,
) -> BTreeSet<usize> {
    let iterations = &trace[from as usize - 1..to as usize];
    let hits = iterations.iter().flatten();
    hits.filter(|&&(v, _, store)| v == a && kind(store))
        .map(|&(_, k, _)| k)
        .collect()
}

/// Loads and stores alike.
fn any(_: bool) -> bool {
    true
}

/// Stores only.
fn stores(store: bool) -> bool {
    store
}

/// Every sequence of `len` values from `alphabet`, and the
/// non-decreasing ones.
fn every(alphabet: &[i64], len: usize, rising: bool) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        let longer = out.iter().flat_map(|seq: &Vec<i64>| {
            let floor = seq.last().copied().filter(|_| rising).unwrap_or(i64::MIN);
            let next = alphabet.iter().filter(move |&&v| v >= floor);
            next.map(move |&v| [seq.as_slice(), &[v]].concat())
        });
        out = longer.collect();
    }
    out
}

/// The stores of a scope: each array's choices, in order.
type Presets = Vec<(VarId, ArrayData)>;

/// Every store of `stores` with each of `choices` beside it.
fn product(stores: Vec<Presets>, choices: &[(VarId, ArrayData)]) -> Vec<Presets> {
    let with = |held: &Presets, c: &(VarId, ArrayData)| [held.clone(), vec![c.clone()]].concat();
    stores
        .iter()
        .flat_map(|held| choices.iter().map(move |c| with(held, c)))
        .collect()
}

/// A corpus loop under test: its program, the loop (`do … i = 1, hi`)
/// and the scalar its upper bound reads, the scalars a plan privatizes
/// (every one the nest assigns but the loop variable and a pointer),
/// whether the nest branches, and a store with every array allocated.
struct Entry<'p> {
    p: &'p Program,
    lp: StmtId,
    hi: VarId,
    privatized: Arc<[VarId]>,
    branches: bool,
    zeroed: Store,
    fuel: u64,
}

impl<'p> Entry<'p> {
    /// The program's labeled top-level `do`, which runs from 1 to a
    /// scalar.
    fn of(p: &'p Program) -> Entry<'p> {
        let main = &p.procedure(p.main()).body;
        let labeled = |s: &&StmtId| matches!(p.stmt(**s).kind, StmtKind::Do { label: Some(_), .. });
        let &lp = main.iter().find(labeled).expect("a labeled loop");
        let StmtKind::Do {
            var, lo, hi, body, ..
        } = &p.stmt(lp).kind
        else {
            unreachable!("a do loop")
        };
        let (Expr::IntLit(1), Expr::Var(hi)) = (lo, hi) else {
            panic!("the loop runs from 1 to a scalar")
        };
        let accesses = collect_array_accesses(p, body);
        let pointer = |v: &VarId| {
            let whole = |a: &&irr_frontend::visit::ArrayAccess<'_>| {
                a.is_write && matches!(a.subscripts, [Expr::Var(s)] if s == v)
            };
            accesses.iter().any(|a| whole(&a))
        };
        let assigned = scalars_assigned_in(p, body).into_iter();
        let privatized = assigned.filter(|v| v != var && !pointer(v)).collect();
        let branches = p
            .stmts_in(body)
            .iter()
            .any(|&s| matches!(p.stmt(s).kind, StmtKind::If { .. } | StmtKind::While { .. }));
        let mut it = Interp::new(p);
        it.allocate_arrays();
        Entry {
            p,
            lp,
            hi: *hi,
            privatized,
            branches,
            zeroed: it.store,
            fuel: it.fuel,
        }
    }

    fn extent(&self, a: VarId) -> usize {
        self.p.symbols.var(a).dims.iter().product()
    }

    /// A store holding `presets` beside zeroed arrays, the loop's bound
    /// at `hi`.
    fn store(&self, presets: &Presets, hi: usize) -> Store {
        let mut store = self.zeroed.clone();
        for (v, data) in presets {
            store.preset_array(*v, data.clone());
        }
        store.set_scalar(self.hi, ScalarType::Int, Value::Int(hi as i64));
        store
    }

    /// Walks the loop sequentially on `it` over `1..=hi` from `presets`,
    /// and returns its accesses per iteration.
    fn walk(&self, it: &mut Interp<'_>, presets: &Presets, hi: usize) -> Vec<Vec<Access>> {
        (it.store, it.fuel) = (self.store(presets, hi), self.fuel);
        let log = Rc::new(RefCell::new(Vec::new()));
        let recorder = Box::new(Recorder(log.clone()));
        it.attach_tracer(TraceConfig::only([self.lp]), recorder);
        it.exec_stmt(self.lp)
            .expect("every store of the scope runs");
        let trace = log.borrow().clone();
        trace
    }

    /// The scope's stores, in groups: a group is one choice of the
    /// integer arrays and of the real arrays no target is, its stores
    /// every choice of the `targets` the nest reads. `segments` are the
    /// `ptr`s of the segment targets.
    fn scope(&self, segments: &[VarId], targets: &[VarId]) -> Vec<Vec<Presets>> {
        let (p, extent) = (self.p, |a| self.extent(a));
        let StmtKind::Do { body, .. } = &p.stmt(self.lp).kind else {
            unreachable!("a do loop")
        };
        let accesses = collect_array_accesses(p, body);
        let written: BTreeSet<VarId> = accesses
            .iter()
            .filter(|a| a.is_write)
            .map(|a| a.array)
            .collect();
        let read: BTreeSet<VarId> = accesses
            .iter()
            .filter(|a| !a.is_write)
            .map(|a| a.array)
            .collect();
        let bounds: BTreeSet<VarId> = (p.stmts_in(body).iter())
            .filter_map(|&s| match &p.stmt(s).kind {
                StmtKind::Do {
                    hi: Expr::Element(a, _),
                    ..
                } => Some(*a),
                _ => None,
            })
            .collect();
        let array = |a: VarId, vals: &[i64]| {
            let mut data = vec![1; extent(a)];
            data[..vals.len()].copy_from_slice(vals);
            let dims = [extent(a)].into();
            (
                a,
                ArrayData::Int {
                    data: data.into(),
                    dims,
                },
            )
        };
        let int = |a: &&VarId| p.symbols.var(**a).ty == ScalarType::Int && !written.contains(a);
        let ints: Vec<VarId> = read.iter().filter(int).copied().collect();
        let mut stores: Vec<Presets> = vec![Vec::new()];
        for &a in ints.iter().filter(|a| segments.contains(a)) {
            let choices: Vec<_> = (every(&[1, 2, 3, 4, 5], TRIP + 1, true).iter())
                .map(|v| array(a, v))
                .collect();
            stores = product(stores, &choices);
        }
        for &a in ints.iter().filter(|a| !segments.contains(a)) {
            let rows = |held: &Presets| {
                let (_, ptr) = held.iter().find(|(v, _)| segments.contains(v))?;
                let ArrayData::Int { data, .. } = ptr else {
                    return None;
                };
                let rows: Vec<i64> = data[..=TRIP].windows(2).map(|w| w[1] - w[0]).collect();
                let longer = (0..TRIP).map(|r| {
                    let mut rows = rows.clone();
                    rows[r] += 1;
                    rows
                });
                let all = std::iter::once(rows.clone()).chain(longer);
                Some(all.map(|v| array(a, &v)).collect::<Vec<_>>())
            };
            let any: Vec<_> = (every(&[1, 2, 3, 4], TRIP.min(extent(a)), false).iter())
                .map(|v| array(a, v))
                .collect();
            stores = stores
                .into_iter()
                .flat_map(|held| {
                    let lengths = rows(&held).filter(|_| bounds.contains(&a));
                    product(vec![held], lengths.as_deref().unwrap_or(&any))
                })
                .collect();
        }
        let alternating = |a: VarId| {
            let from = |first: usize| {
                let vals: Vec<f64> = (0..extent(a))
                    .map(|k| [0.25, 4.75][(k + first) % 2])
                    .collect();
                let dims = [extent(a)].into();
                (
                    a,
                    ArrayData::Real {
                        data: vals.into(),
                        dims,
                    },
                )
            };
            [from(0), from(1)]
        };
        let reals: Vec<VarId> = read.iter().filter(|a| !int(a)).copied().collect();
        for &a in reals.iter().filter(|a| !targets.contains(a)) {
            stores = product(stores, &alternating(a));
        }
        let read_targets: Vec<VarId> = reals.into_iter().filter(|a| targets.contains(a)).collect();
        (stores.into_iter())
            .map(|held| {
                let group = vec![held];
                let grow = |group, &a: &VarId| product(group, &alternating(a));
                read_targets.iter().fold(group, grow)
            })
            .collect()
    }

    /// Whether `master` holds what `seq` does: every array's bits and
    /// every scalar's, the plan's privatized scalars aside unless `all`
    /// (a committed dispatch leaves them at their pre-loop values).
    fn same(&self, master: &Interp<'_>, seq: &Interp<'_>, all: bool) -> bool {
        self.p
            .symbols
            .iter()
            .all(|(v, info)| match info.is_array() {
                true => {
                    let bits = |it: &Interp<'_>| {
                        let held = it.store.array_as_reals(v).expect("allocated");
                        held.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    };
                    bits(master) == bits(seq)
                }
                false => {
                    (!all && self.privatized.contains(&v))
                        || master.store.scalar(v) == seq.store.scalar(v)
                }
            })
    }

    /// Dispatches the loop on `master` from `base` under `plan`, with
    /// the facts `facts` finds for the master's store, also failed by a
    /// forged conflict, and checks each against `seq`; a dispatch that
    /// does not commit is walked again from the master it leaves, as the
    /// fallback does. Returns whether the unfailed dispatch committed
    /// under the plan's strategy.
    fn dispatch(
        &self,
        (master, seq): (&mut Interp<'_>, &Interp<'_>),
        base: &Store,
        plan: ParallelPlan,
        facts: &dyn Fn(&Store) -> Vec<IndexFacts>,
        tally: &mut Tally,
    ) -> bool {
        let mut committed = false;
        for fault in [None, Some(FaultKind::ForgeConflict)] {
            (master.store, master.fuel) = (base.clone(), self.fuel);
            let plan = ParallelPlan {
                fault,
                facts: facts(&master.store).into(),
                ..plan.clone()
            };
            let label = self.p.loop_label(self.p.main(), self.lp);
            let what = || format!("{label} at {} chunk(s), {fault:?}", plan.threads);
            match exec_do_parallel(master, self.lp, &plan, 1, TRIP as i64, 1) {
                Ok(got) => {
                    assert!(fault.is_none(), "{}: committed", what());
                    let same = self.same(master, seq, false);
                    assert!(same, "{}: committed other values", what());
                    committed = got.strategy == plan.strategy;
                    match committed {
                        true => tally.committed += 1,
                        false => tally.downgraded += 1,
                    }
                }
                Err(Abort::Fallback(..)) => {
                    master.exec_stmt(self.lp).expect("the fallback runs");
                    let same = self.same(master, seq, true);
                    assert!(same, "{}: the fallback left other values", what());
                    tally.fell_back += 1;
                }
                Err(e) => panic!("{}: {e:?}", what()),
            }
        }
        committed
    }
}

/// What the check did, to pin its scope: loops each derivation took
/// and neither did, stores walked, dispatches whose windows (or append
/// ranges) were cut and that were refused before any chunk ran, how the
/// dispatches ended — committed under the strategy asked for, under the
/// write-log, or fell back — and targets left without an undo image.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    in_place_loops: u64,
    concat_loops: u64,
    refused_loops: u64,
    stores: u64,
    windowed: u64,
    refused: u64,
    committed: u64,
    downgraded: u64,
    fell_back: u64,
    without_image: u64,
}

fn check_in_place(e: &Entry<'_>, targets: &[InPlaceTarget], tally: &mut Tally) {
    let label = e.p.loop_label(e.p.main(), e.lp);
    let segments: Vec<VarId> = (targets.iter())
        .filter_map(|t| match t.shape {
            WriteShape::Segment { ptr } => Some(ptr),
            _ => None,
        })
        .collect();
    let arrays: Vec<VarId> = targets.iter().map(|t| t.array).collect();
    // What the guard's scan finds for each scatter's section.
    let facts = |store: &Store| -> Vec<IndexFacts> {
        (targets.iter())
            .filter_map(|t| match t.shape {
                WriteShape::Scatter { index, off } => {
                    IndexFacts::scan(store, index, None, 1 + off, TRIP as i64 + off)
                }
                _ => None,
            })
            .collect()
    };
    let (mut seq, mut master) = (Interp::new(e.p), Interp::new(e.p));
    let mut images: Option<Vec<bool>> = None;
    // Per group, per target, the cells each iteration stores to in each
    // of the group's stores.
    let mut groups: Vec<Vec<Vec<Vec<BTreeSet<usize>>>>> = Vec::new();
    for group in e.scope(&segments, &arrays) {
        let mut stored = vec![Vec::new(); targets.len()];
        for presets in &group {
            let trace = e.walk(&mut seq, presets, TRIP);
            tally.stores += 1;
            let base = e.store(presets, TRIP);
            let element = |a: VarId, i: i64| base.element_as_int(a, usize::try_from(i - 1).ok()?);
            let mut disciplined = vec![true; targets.len()];
            for (k, t) in targets.iter().enumerate() {
                for i in 1..=TRIP as i64 {
                    let touched = cells(&trace, t.array, (i, i), any);
                    let mut named = |cell: i64| match t.shape {
                        WriteShape::Affine { off } => Some(cell == i + off),
                        WriteShape::Scatter { index, off } => {
                            Some(Some(cell) == element(index, i + off))
                        }
                        WriteShape::Segment { ptr } => {
                            let segment = element(ptr, i).zip(element(ptr, i + 1));
                            disciplined[k] &=
                                segment.is_some_and(|(from, to)| (from..to).contains(&cell));
                            None
                        }
                    };
                    for c in &touched {
                        let held = named(*c as i64 + 1).unwrap_or(true);
                        assert!(
                            held,
                            "{label}: iteration {i} leaves {:?}: {touched:?}",
                            t.shape
                        );
                    }
                }
                let each = (1..=TRIP as i64).map(|i| cells(&trace, t.array, (i, i), stores));
                stored[k].push(each.collect::<Vec<_>>());
            }
            for threads in 1..=4 {
                let chunks = Chunks::new(1, TRIP, threads);
                let mut store = base.clone();
                let mut ip = InPlace::default();
                let found = facts(&store);
                let windowed =
                    prepare_in_place(&mut store, targets, &found, chunks, &mut ip).is_some();
                if windowed {
                    tally.windowed += 1;
                    let none: Vec<bool> = ip.specs.iter().map(|s| s.image.is_none()).collect();
                    assert_eq!(images.get_or_insert_with(|| none.clone()), &none, "{label}");
                    for (k, t) in targets.iter().enumerate() {
                        let windows = &ip.windows[k * chunks.count..][..chunks.count];
                        let sets: Vec<_> = chunks
                            .iter()
                            .map(|r| cells(&trace, t.array, r, any))
                            .collect();
                        let what = || {
                            format!(
                                "{label} {:?} in {threads} chunk(s): {windows:?} {sets:?}",
                                t.shape
                            )
                        };
                        if let WriteShape::Scatter { .. } = t.shape {
                            let all: BTreeSet<usize> = sets.iter().flatten().copied().collect();
                            let apart = all.len() == sets.iter().map(BTreeSet::len).sum::<usize>();
                            assert!(apart, "{}: certified sets overlap", what());
                            continue;
                        }
                        let len = base.array(t.array).len();
                        let mut owner = vec![false; len];
                        for (&(from, n), set) in windows.iter().zip(&sets) {
                            assert!(from + n <= len, "{}: a window leaves the array", what());
                            for held in &mut owner[from..from + n] {
                                assert!(
                                    !std::mem::replace(held, true),
                                    "{}: windows overlap",
                                    what()
                                );
                            }
                            let window: BTreeSet<usize> = (from..from + n).collect();
                            if disciplined[k] {
                                assert!(set.is_subset(&window), "{}: an access outside", what());
                                assert!(e.branches || *set == window, "{}: not exact", what());
                            }
                        }
                    }
                } else {
                    tally.refused += 1;
                }
                let plan = ParallelPlan {
                    privatized: e.privatized.clone(),
                    strategy: ExecutionStrategy::InPlaceDisjoint,
                    ..ParallelPlan::with_threads(threads)
                };
                let committed = e.dispatch((&mut master, &seq), &base, plan, &facts, tally);
                let kept = disciplined.iter().all(|&d| d);
                assert!(
                    committed == windowed || !kept,
                    "{label} in {threads} chunk(s)"
                );
            }
        }
        groups.push(stored);
    }
    // No image: the cells each iteration stores to are the same in every
    // store of a group, whatever the read targets hold.
    let images = images.unwrap_or_default();
    for (k, _) in images.iter().enumerate().filter(|(_, &none)| none) {
        tally.without_image += 1;
        for stored in &groups {
            let same = stored[k].iter().all(|s| *s == stored[k][0]);
            assert!(
                same,
                "{label}: {:?} has no image and is stored to at other cells: {:?}",
                targets[k], stored[k]
            );
        }
    }
}

fn check_concat(e: &Entry<'_>, ptr: VarId, targets: &[VarId], tally: &mut Tally) {
    let label = e.p.loop_label(e.p.main(), e.lp);
    let (mut seq, mut master) = (Interp::new(e.p), Interp::new(e.p));
    for group in e.scope(&[], &[]) {
        for presets in &group {
            // The pointer after each iteration, the entry's value first.
            let after: Vec<usize> = (0..=TRIP)
                .map(|hi| {
                    e.walk(&mut seq, presets, hi);
                    seq.store.scalar(ptr).as_int() as usize
                })
                .collect();
            let trace = e.walk(&mut seq, presets, TRIP);
            tally.stores += 1;
            let base = e.store(presets, TRIP);
            for threads in 1..=4 {
                let chunks = Chunks::new(1, TRIP, threads);
                let mut appended = true;
                for &a in targets {
                    for (clo, chi) in chunks.iter() {
                        let loaded = cells(&trace, a, (clo, chi), |store| !store);
                        assert!(
                            loaded.is_empty(),
                            "{label}: a concat chunk loads its target"
                        );
                        let stored = cells(&trace, a, (clo, chi), stores);
                        let range = after[clo as usize - 1]..after[chi as usize];
                        appended &= stored == range.collect();
                    }
                }
                tally.windowed += 1;
                let plan = ParallelPlan {
                    privatized: e.privatized.clone(),
                    strategy: ExecutionStrategy::PrivatizeAndConcat,
                    ..ParallelPlan::with_threads(threads)
                };
                let committed =
                    e.dispatch((&mut master, &seq), &base, plan, &|_| Vec::new(), tally);
                assert!(
                    appended || !committed,
                    "{label} committed writes off its append ranges"
                );
            }
        }
    }
}

#[test]
fn the_derivations_hold_on_every_store_in_scope() {
    let scale = SparseScale {
        n: 5,
        nnz: 10,
        structure: STRUCTURES[0],
        seed: 1,
    };
    let gated = strategy_programs().filter(|s| s.iterations == 32);
    let mut sources: Vec<String> = gated.map(|s| s.case.source).collect();
    sources.push(rowgather(&scale).source);
    sources.extend(CONCAT_BODIES.map(concat_source));
    let mut tally = Tally::default();
    for src in &sources {
        let p = parse_program(src).expect("parses");
        let e = Entry::of(&p);
        if let Some(targets) = derive_in_place_facts(&p, e.lp, &e.privatized, &[]) {
            tally.in_place_loops += 1;
            check_in_place(&e, &targets, &mut tally);
        } else if let Some((ptr, targets)) = derive_concat_shape(&p, e.lp, &e.privatized, &[]) {
            tally.concat_loops += 1;
            check_concat(&e, ptr, &targets, &mut tally);
        } else {
            tally.refused_loops += 1;
        }
    }
    let fixed = Tally {
        in_place_loops: 14,
        concat_loops: 3,
        refused_loops: 11,
        stores: 12_681,
        windowed: 37_732,
        refused: 12_992,
        committed: 15_472,
        downgraded: 5_264,
        fell_back: 80_712,
        without_image: 5,
    };
    assert_eq!(tally, fixed, "the scope is fixed");
}
