//! Shadow-memory dependence tracing.
//!
//! A [`DependenceTracer`] attaches to the interpreter's tracing hooks
//! (`irr_exec::AccessTracer`) and maintains, per *dynamic execution* of
//! every traced `do` loop, a shadow cell for each array element and
//! scalar the loop touches: the iteration that last wrote it and the
//! iteration that last read it. Comparing the current iteration against
//! the shadow cell classifies every access on the spot:
//!
//! - a **flow** dependence when a read sees an element written by an
//!   earlier iteration;
//! - an **anti** dependence when a write overwrites an element an
//!   earlier iteration read;
//! - an **output** dependence when a write overwrites an element an
//!   earlier iteration wrote.
//!
//! Loop-independent (same-iteration) access pairs are not dependences
//! for parallelization and are skipped. The tracer keeps only the
//! **minimized witness** per `(kind, variable)` — the dependence with
//! the smallest iteration distance, breaking ties toward the smallest
//! element and earliest source iteration — so an audit failure reports
//! the tightest concrete counterexample a run exhibited.
//!
//! Alongside dependences the tracer derives the **observed index-array
//! facts** the paper's property analysis reasons about statically: per
//! array, whether the loop's write footprint was pairwise distinct
//! (injectivity of the subscript stream), whether successive writes had
//! non-decreasing flat indices (monotonicity), and the bounds of the
//! accessed section. These are reported per execution so precision
//! investigations can see *why* a run was conflict-free.
//!
//! For loops the compiler left [`RuntimeGuarded`](DispatchTier), the
//! tracer replays the guard's residual checks against the live store at
//! loop entry — exactly what the hybrid dispatcher would do — and tags
//! the execution with the guard verdict, so the auditor holds a guarded
//! loop to the parallel standard only on executions the guard would
//! actually have cleared.

use irr_driver::{CompilationReport, DispatchTier, GuardPlan};
use irr_exec::{inspect_guard, AccessTracer, Store};
use irr_frontend::{Program, StmtId, VarId};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

/// The kind of a loop-carried dependence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum DepKind {
    /// Read-after-write across iterations (true dependence).
    Flow,
    /// Write-after-read across iterations.
    Anti,
    /// Write-after-write across iterations.
    Output,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepKind::Flow => write!(f, "flow"),
            DepKind::Anti => write!(f, "anti"),
            DepKind::Output => write!(f, "output"),
        }
    }
}

/// A concrete loop-carried dependence one execution exhibited.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DepWitness {
    /// Dependence kind.
    pub kind: DepKind,
    /// The variable carrying the dependence.
    pub var: VarId,
    /// Flat element index for arrays; `None` for scalars.
    pub element: Option<usize>,
    /// Induction-variable value of the source iteration (the earlier
    /// access).
    pub src_iter: i64,
    /// Induction-variable value of the sink iteration (the later
    /// access).
    pub dst_iter: i64,
}

impl DepWitness {
    /// Iteration distance of the dependence.
    pub fn distance(&self) -> u64 {
        self.dst_iter.abs_diff(self.src_iter)
    }

    /// Minimization rank: smaller is a tighter witness.
    fn rank(&self) -> (u64, usize, i64) {
        (
            self.distance(),
            self.element.unwrap_or(usize::MAX),
            self.src_iter,
        )
    }

    /// Renders the witness with resolved variable names.
    pub fn describe(&self, program: &Program) -> String {
        let name = program.symbols.name(self.var);
        match self.element {
            Some(e) => format!(
                "{} dependence on `{name}` element {e}: iteration {} then iteration {}",
                self.kind, self.src_iter, self.dst_iter
            ),
            None => format!(
                "{} dependence on scalar `{name}`: iteration {} then iteration {}",
                self.kind, self.src_iter, self.dst_iter
            ),
        }
    }
}

/// Observed access facts for one array in one loop execution — the
/// dynamic counterparts of the properties the §3 solver proves
/// statically.
#[derive(Clone, Debug)]
pub struct AccessFacts {
    /// Element reads attributed to the loop.
    pub reads: u64,
    /// Element writes attributed to the loop.
    pub writes: u64,
    /// `(min, max)` flat index read, when any.
    pub read_section: Option<(usize, usize)>,
    /// `(min, max)` flat index written, when any.
    pub write_section: Option<(usize, usize)>,
    /// Whether the write footprint was pairwise distinct (no element
    /// written twice) — the observed injectivity of the subscript
    /// stream driving the writes.
    pub writes_injective: bool,
    /// Whether successive writes had non-decreasing flat indices — the
    /// observed monotonicity of the subscript stream.
    pub writes_monotone: bool,
    /// Flat index of the most recent write (monotonicity bookkeeping).
    last_write_idx: Option<usize>,
}

impl Default for AccessFacts {
    fn default() -> Self {
        AccessFacts {
            reads: 0,
            writes: 0,
            read_section: None,
            write_section: None,
            // Vacuously true until a counterexample is observed.
            writes_injective: true,
            writes_monotone: true,
            last_write_idx: None,
        }
    }
}

fn widen(section: &mut Option<(usize, usize)>, idx: usize) {
    *section = Some(match *section {
        None => (idx, idx),
        Some((lo, hi)) => (lo.min(idx), hi.max(idx)),
    });
}

/// Everything the tracer learned from one dynamic execution of one
/// traced loop.
#[derive(Clone, Debug)]
pub struct LoopExecTrace {
    /// The loop statement.
    pub loop_stmt: StmtId,
    /// 1-based dynamic execution count of this loop within the run.
    pub invocation: u64,
    /// Evaluated bounds at entry.
    pub lo: i64,
    /// Evaluated upper bound.
    pub hi: i64,
    /// Evaluated step.
    pub step: i64,
    /// Iterations actually executed (0 for a zero-trip entry).
    pub iterations: u64,
    /// For runtime-guarded loops: whether the guard's residual checks
    /// passed against the live store at this entry. `None` when the
    /// loop carries no guard.
    pub guard_passed: Option<bool>,
    /// Total dependence events observed (every access that extended a
    /// loop-carried chain, before witness minimization).
    pub dep_events: u64,
    /// Minimized witnesses, one per `(kind, variable)`, sorted by
    /// variable then kind.
    pub deps: Vec<DepWitness>,
    /// Per-array observed facts, sorted by variable.
    pub facts: Vec<(VarId, AccessFacts)>,
}

impl LoopExecTrace {
    /// The minimized witness on `var` of the given kind, if observed.
    pub fn dep_on(&self, var: VarId, kind: DepKind) -> Option<&DepWitness> {
        self.deps.iter().find(|w| w.var == var && w.kind == kind)
    }

    /// Whether any loop-carried dependence was observed.
    pub fn has_deps(&self) -> bool {
        self.dep_events > 0
    }

    /// The observed facts for `var`, if the loop touched it.
    pub fn facts_for(&self, var: VarId) -> Option<&AccessFacts> {
        self.facts.iter().find(|(v, _)| *v == var).map(|(_, f)| f)
    }
}

/// The accumulated traces of one interpreter run.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// One entry per completed dynamic execution of a traced loop, in
    /// completion order (inner loops complete before their enclosing
    /// execution).
    pub executions: Vec<LoopExecTrace>,
}

impl TraceLog {
    /// All executions of `loop_stmt`, in dynamic order.
    pub fn executions_of(&self, loop_stmt: StmtId) -> Vec<&LoopExecTrace> {
        self.executions
            .iter()
            .filter(|e| e.loop_stmt == loop_stmt)
            .collect()
    }
}

/// Shared handle to a tracer's log, readable after the interpreter run
/// consumed the tracer.
pub type TraceHandle = Rc<RefCell<TraceLog>>;

#[derive(Clone, Copy, Default)]
struct Cell {
    last_write: Option<i64>,
    last_read: Option<i64>,
}

/// Per-active-loop shadow state. Nested traced loops each hold their
/// own frame; every access updates all active frames, so an outer loop
/// sees inner-loop accesses attributed to its own iterations.
struct Frame {
    loop_stmt: StmtId,
    invocation: u64,
    lo: i64,
    hi: i64,
    step: i64,
    guard_passed: Option<bool>,
    cur_iter: i64,
    started: bool,
    iterations: u64,
    element_cells: HashMap<(VarId, usize), Cell>,
    scalar_cells: HashMap<VarId, Cell>,
    facts: HashMap<VarId, AccessFacts>,
    witnesses: HashMap<(DepKind, VarId), DepWitness>,
    dep_events: u64,
}

impl Frame {
    fn record(&mut self, var: VarId, element: Option<usize>, is_write: bool) {
        if !self.started {
            return;
        }
        let cur = self.cur_iter;
        let cell = match element {
            Some(idx) => self.element_cells.entry((var, idx)).or_default(),
            None => self.scalar_cells.entry(var).or_default(),
        };
        let mut carried: [Option<(DepKind, i64)>; 2] = [None, None];
        let had_prior_write = cell.last_write.is_some();
        if is_write {
            if let Some(w) = cell.last_write {
                if w != cur {
                    carried[0] = Some((DepKind::Output, w));
                }
            }
            if let Some(r) = cell.last_read {
                if r != cur {
                    carried[1] = Some((DepKind::Anti, r));
                }
            }
            cell.last_write = Some(cur);
        } else {
            if let Some(w) = cell.last_write {
                if w != cur {
                    carried[0] = Some((DepKind::Flow, w));
                }
            }
            cell.last_read = Some(cur);
        }
        for (kind, src) in carried.into_iter().flatten() {
            self.note_dep(kind, var, element, src, cur);
        }
        if let Some(idx) = element {
            let facts = self.facts.entry(var).or_default();
            if is_write {
                facts.writes += 1;
                widen(&mut facts.write_section, idx);
                if had_prior_write {
                    facts.writes_injective = false;
                }
                if facts.last_write_idx.is_some_and(|last| idx < last) {
                    facts.writes_monotone = false;
                }
                facts.last_write_idx = Some(idx);
            } else {
                facts.reads += 1;
                widen(&mut facts.read_section, idx);
            }
        }
    }

    fn note_dep(&mut self, kind: DepKind, var: VarId, element: Option<usize>, src: i64, dst: i64) {
        self.dep_events += 1;
        let cand = DepWitness {
            kind,
            var,
            element,
            src_iter: src,
            dst_iter: dst,
        };
        match self.witnesses.entry((kind, var)) {
            Entry::Occupied(mut e) => {
                if cand.rank() < e.get().rank() {
                    e.insert(cand);
                }
            }
            Entry::Vacant(e) => {
                e.insert(cand);
            }
        }
    }

    fn into_trace(self) -> LoopExecTrace {
        let mut deps: Vec<DepWitness> = self.witnesses.into_values().collect();
        deps.sort_by_key(|w| (w.var, w.kind));
        let mut facts: Vec<(VarId, AccessFacts)> = self.facts.into_iter().collect();
        facts.sort_by_key(|(v, _)| *v);
        LoopExecTrace {
            loop_stmt: self.loop_stmt,
            invocation: self.invocation,
            lo: self.lo,
            hi: self.hi,
            step: self.step,
            iterations: self.iterations,
            guard_passed: self.guard_passed,
            dep_events: self.dep_events,
            deps,
            facts,
        }
    }
}

/// The shadow-memory dependence tracer (see the module docs).
pub struct DependenceTracer {
    guards: HashMap<StmtId, GuardPlan>,
    frames: Vec<Frame>,
    invocations: HashMap<StmtId, u64>,
    log: TraceHandle,
}

impl DependenceTracer {
    /// A tracer with no guard knowledge; every traced loop reports
    /// `guard_passed: None`.
    pub fn new() -> (DependenceTracer, TraceHandle) {
        DependenceTracer::with_guards(HashMap::new())
    }

    /// A tracer that replays the given guard plans at loop entry.
    pub fn with_guards(guards: HashMap<StmtId, GuardPlan>) -> (DependenceTracer, TraceHandle) {
        let log: TraceHandle = Rc::new(RefCell::new(TraceLog::default()));
        (
            DependenceTracer {
                guards,
                frames: Vec::new(),
                invocations: HashMap::new(),
                log: log.clone(),
            },
            log,
        )
    }

    /// A tracer primed with every runtime-guarded verdict of `report`,
    /// plus a synthetic guard for every evolution-promoted loop: the
    /// retired checks are replayed as a conjunction (each in its own
    /// group — every one must hold on the live data), so a promotion
    /// whose compile-time proof was wrong surfaces as a failed guard
    /// even before any dependence manifests.
    pub fn from_report(report: &CompilationReport) -> (DependenceTracer, TraceHandle) {
        let guards = report
            .verdicts
            .iter()
            .filter_map(|v| match &v.tier {
                DispatchTier::RuntimeGuarded(g) => Some((v.loop_stmt, g.clone())),
                DispatchTier::CompileTimeParallel if !v.retired_checks.is_empty() => Some((
                    v.loop_stmt,
                    GuardPlan {
                        groups: v.retired_checks.iter().map(|c| vec![c.clone()]).collect(),
                    },
                )),
                _ => None,
            })
            .collect();
        DependenceTracer::with_guards(guards)
    }

    fn record_all(&mut self, var: VarId, element: Option<usize>, is_write: bool) {
        for frame in &mut self.frames {
            frame.record(var, element, is_write);
        }
    }
}

impl AccessTracer for DependenceTracer {
    fn loop_enter(&mut self, store: &Store, loop_stmt: StmtId, lo: i64, hi: i64, step: i64) {
        let invocation = {
            let n = self.invocations.entry(loop_stmt).or_insert(0);
            *n += 1;
            *n
        };
        let guard_passed = self
            .guards
            .get(&loop_stmt)
            .map(|g| inspect_guard(store, g, lo, hi).0.is_some());
        self.frames.push(Frame {
            loop_stmt,
            invocation,
            lo,
            hi,
            step,
            guard_passed,
            cur_iter: lo,
            started: false,
            iterations: 0,
            element_cells: HashMap::new(),
            scalar_cells: HashMap::new(),
            facts: HashMap::new(),
            witnesses: HashMap::new(),
            dep_events: 0,
        });
    }

    fn loop_iter(&mut self, loop_stmt: StmtId, iter: i64) {
        if let Some(frame) = self
            .frames
            .iter_mut()
            .rev()
            .find(|f| f.loop_stmt == loop_stmt)
        {
            frame.cur_iter = iter;
            frame.started = true;
            frame.iterations += 1;
        }
    }

    fn loop_exit(&mut self, loop_stmt: StmtId) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        debug_assert_eq!(frame.loop_stmt, loop_stmt, "unbalanced loop events");
        self.log.borrow_mut().executions.push(frame.into_trace());
    }

    fn read_element(&mut self, array: VarId, idx: usize) {
        self.record_all(array, Some(idx), false);
    }

    fn write_element(&mut self, array: VarId, idx: usize) {
        self.record_all(array, Some(idx), true);
    }

    fn read_scalar(&mut self, var: VarId) {
        self.record_all(var, None, false);
    }

    fn write_scalar(&mut self, var: VarId) {
        self.record_all(var, None, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_exec::{Interp, TraceConfig};
    use irr_frontend::{parse_program, Program, StmtKind};

    fn trace_all(src: &str) -> (Program, TraceLog) {
        let p = parse_program(src).unwrap();
        let (tracer, handle) = DependenceTracer::new();
        let mut it = Interp::new(&p);
        it.attach_tracer(TraceConfig::all(), Box::new(tracer));
        it.run().unwrap();
        let log = handle.borrow().clone();
        (p, log)
    }

    fn first_do(p: &Program) -> StmtId {
        p.stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| matches!(p.stmt(*s).kind, StmtKind::Do { .. }))
            .unwrap()
    }

    #[test]
    fn independent_loop_has_no_carried_deps() {
        let (p, log) = trace_all(
            "program t
             integer i
             real x(10), y(10)
             do i = 1, 10
               x(i) = y(i) * 2.0
             enddo
             end",
        );
        let ex = &log.executions_of(first_do(&p))[0];
        assert_eq!(ex.iterations, 10);
        assert!(!ex.has_deps(), "{ex:?}");
        let x = p.symbols.lookup("x").unwrap();
        let fx = ex.facts_for(x).unwrap();
        assert_eq!(fx.writes, 10);
        assert!(fx.writes_injective);
        assert!(fx.writes_monotone);
        assert_eq!(fx.write_section, Some((0, 9)));
    }

    #[test]
    fn shifted_read_yields_flow_dependence_with_minimal_witness() {
        let (p, log) = trace_all(
            "program t
             integer i
             real x(10)
             do i = 2, 10
               x(i) = x(i - 1) + 1.0
             enddo
             end",
        );
        let x = p.symbols.lookup("x").unwrap();
        let ex = &log.executions_of(first_do(&p))[0];
        let w = ex.dep_on(x, DepKind::Flow).expect("flow dep observed");
        // Every iteration reads its predecessor's write: distance 1,
        // minimized to the earliest element.
        assert_eq!(w.distance(), 1);
        assert_eq!(w.element, Some(1));
        assert_eq!((w.src_iter, w.dst_iter), (2, 3));
        assert!(w.describe(&p).contains("flow dependence on `x`"));
    }

    #[test]
    fn repeated_element_write_is_output_dependence_and_kills_injectivity() {
        let (p, log) = trace_all(
            "program t
             integer i
             real x(10)
             do i = 1, 5
               x(3) = i
             enddo
             end",
        );
        let x = p.symbols.lookup("x").unwrap();
        let ex = &log.executions_of(first_do(&p))[0];
        let w = ex.dep_on(x, DepKind::Output).expect("output dep");
        assert_eq!(w.element, Some(2));
        assert_eq!(w.distance(), 1);
        assert!(!ex.facts_for(x).unwrap().writes_injective);
    }

    #[test]
    fn read_then_later_write_is_anti_dependence() {
        let (p, log) = trace_all(
            "program t
             integer i
             real x(10), y(10)
             do i = 1, 9
               y(i) = x(i + 1)
               x(i) = i
             enddo
             end",
        );
        let x = p.symbols.lookup("x").unwrap();
        let ex = &log.executions_of(first_do(&p))[0];
        // Iteration i reads x(i+1); iteration i+1 writes it.
        let w = ex.dep_on(x, DepKind::Anti).expect("anti dep");
        assert_eq!(w.distance(), 1);
        assert!(ex.dep_on(x, DepKind::Flow).is_none(), "{ex:?}");
    }

    #[test]
    fn scalar_carried_dependence_is_observed() {
        let (p, log) = trace_all(
            "program t
             integer i
             real s, x(10)
             do i = 1, 10
               x(i) = s
               s = s * 2.0 + 1.0
             enddo
             end",
        );
        let s = p.symbols.lookup("s").unwrap();
        let ex = &log.executions_of(first_do(&p))[0];
        let w = ex.dep_on(s, DepKind::Flow).expect("scalar flow dep");
        assert_eq!(w.element, None);
        assert_eq!(w.distance(), 1);
    }

    #[test]
    fn same_iteration_accesses_are_not_dependences() {
        let (p, log) = trace_all(
            "program t
             integer i
             real t2, x(10)
             do i = 1, 10
               t2 = i * 2.0
               x(i) = t2 + t2
             enddo
             end",
        );
        let t2 = p.symbols.lookup("t2").unwrap();
        let ex = &log.executions_of(first_do(&p))[0];
        // t2 is written then read within each iteration: the only
        // carried chain is write-after-write/write-after-read across
        // iterations (anti/output), never flow.
        assert!(ex.dep_on(t2, DepKind::Flow).is_none(), "{ex:?}");
        assert!(ex.dep_on(t2, DepKind::Output).is_some());
    }

    #[test]
    fn nested_loops_attribute_inner_accesses_to_outer_iterations() {
        let (p, log) = trace_all(
            "program t
             integer i, j
             real acc(4), z(6)
             do i = 1, 6
               do j = 1, 4
                 acc(j) = i + j
               enddo
               z(i) = acc(1) + acc(4)
             enddo
             end",
        );
        let acc = p.symbols.lookup("acc").unwrap();
        let z = p.symbols.lookup("z").unwrap();
        let outer = first_do(&p);
        let outer_ex = &log.executions_of(outer)[0];
        // acc is rewritten every outer iteration: carried output dep on
        // the outer loop, none on z.
        assert!(outer_ex.dep_on(acc, DepKind::Output).is_some());
        assert!(outer_ex.dep_on(z, DepKind::Output).is_none());
        // The inner loop itself is independent per execution.
        let inner_execs: Vec<&LoopExecTrace> = log
            .executions
            .iter()
            .filter(|e| e.loop_stmt != outer)
            .collect();
        assert_eq!(inner_execs.len(), 6);
        assert!(inner_execs.iter().all(|e| !e.has_deps()));
    }

    #[test]
    fn monotone_but_noninjective_writes_are_classified() {
        let (p, log) = trace_all(
            "program t
             integer i
             real x(10)
             do i = 1, 8
               x((i + 1) / 2) = i
             enddo
             end",
        );
        let x = p.symbols.lookup("x").unwrap();
        let ex = &log.executions_of(first_do(&p))[0];
        let fx = ex.facts_for(x).unwrap();
        assert!(fx.writes_monotone, "{fx:?}");
        assert!(!fx.writes_injective, "{fx:?}");
        assert_eq!(fx.write_section, Some((0, 3)));
    }

    #[test]
    fn guard_is_replayed_at_entry() {
        use irr_driver::{compile_source, DriverOptions};
        // mod-permutation: injective at run time, unknown statically.
        let src = "program t
             integer i, n, p(8)
             real z(8), x(8)
             n = 8
             do i = 1, n
               p(i) = mod(i * 3, n) + 1
               x(i) = i * 1.0
             enddo
             do 20 i = 1, n
               z(p(i)) = x(i) * 2.0
 20          continue
             print z(1), z(8)
             end";
        let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
        let v = rep.verdict("T/do20").unwrap();
        assert!(matches!(v.tier, DispatchTier::RuntimeGuarded(_)));
        let (tracer, handle) = DependenceTracer::from_report(&rep);
        let mut it = Interp::new(&rep.program);
        it.attach_tracer(TraceConfig::all(), Box::new(tracer));
        it.run().unwrap();
        let log = handle.borrow().clone();
        let ex = &log.executions_of(v.loop_stmt)[0];
        assert_eq!(ex.guard_passed, Some(true));
        assert!(!ex.has_deps(), "{ex:?}");
        let z = rep.program.symbols.lookup("z").unwrap();
        assert!(ex.facts_for(z).unwrap().writes_injective);
        assert!(!ex.facts_for(z).unwrap().writes_monotone);
    }
}
