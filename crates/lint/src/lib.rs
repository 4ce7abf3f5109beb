//! `irr-lint`: a static verdict-lint layer over compilation reports.
//!
//! The driver's verdicts come out of a long chain of cooperating
//! analyses — dependence tests, the array property solver, value
//! evolution, interprocedural summaries. This crate cross-checks every
//! [`LoopVerdict`] with machinery deliberately *not* shared with that
//! chain and emits stable, machine-readable diagnostics:
//!
//! - **`IRR-S001` (soundness)** — a loop claimed parallel is
//!   contradicted by an independent abstract-interpretation dependence
//!   pass: constants are propagated to the loop bounds, every array
//!   access whose subscript is affine in the loop variable is
//!   enumerated as a concrete value set, and an overlap between
//!   iterations is a dependence the verdict missed. The pass answers
//!   *Unknown* (and stays silent) the moment a subscript, bound, or
//!   statement falls outside that fragment, so a diagnostic is always a
//!   concrete counterexample — never a precision complaint.
//! - **`IRR-P001` (precision)** — a runtime-guarded loop whose every
//!   guard group is statically dischargeable by the interprocedural
//!   evolution facts: the inspection is provably redundant and the loop
//!   should have been promoted.
//! - **`IRR-E001` (explain)** — a sequential loop's blockers, rendered
//!   as one stable "why not parallel" line per loop.
//!
//! Diagnostics sort by (code, loop, message) and render byte-stably, so
//! lint output can be diffed across runs and gated in CI (`lint
//! --check` fails only on the soundness class). Soundness findings are
//! falsifiable claims: replaying the program under the sanitizer's
//! shadow tracer must exhibit the predicted dependence (the lint tests
//! do exactly that).

use irr_core::{AnalysisCtx, EvolutionAnalysis, SummaryAnalysis};
use irr_driver::{
    derive_compiled_plan, CompilationReport, DispatchTier, GuardPlan, LoopVerdict, ResidualCheck,
};
use irr_frontend::{
    BinOp, Expr, Intrinsic, LValue, ProcId, Program, StmtId, StmtKind, UnOp, VarId,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Severity class of a diagnostic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DiagClass {
    /// A verdict the independent dependence pass contradicts.
    Soundness,
    /// A runtime guard the static facts already discharge.
    Precision,
    /// An explanation of a sequential verdict.
    Explain,
}

impl fmt::Display for DiagClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiagClass::Soundness => "soundness",
            DiagClass::Precision => "precision",
            DiagClass::Explain => "explain",
        })
    }
}

/// One lint finding, keyed to a loop verdict.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code (`IRR-S001`, `IRR-P001`, `IRR-E001`).
    pub code: &'static str,
    /// Severity class.
    pub class: DiagClass,
    /// The loop's `PROC/do140`-style label.
    pub loop_label: String,
    /// Human-readable detail (deterministic for a given program).
    pub message: String,
}

impl Diagnostic {
    /// The diagnostic as one stable text line.
    pub fn line(&self) -> String {
        format!(
            "{} {} {}: {}",
            self.code, self.class, self.loop_label, self.message
        )
    }
}

/// Lints every `do`-loop verdict of a report. Diagnostics come back
/// sorted by (code, loop label, message) — byte-stable across runs.
pub fn lint_report(report: &CompilationReport) -> Vec<Diagnostic> {
    let program = &report.program;
    let ctx = AnalysisCtx::new(program);
    let summaries = SummaryAnalysis::new(&ctx);
    let evo = EvolutionAnalysis::with_summaries(&ctx, &summaries);
    let mut diags = Vec::new();
    for v in &report.verdicts {
        if !matches!(program.stmt(v.loop_stmt).kind, StmtKind::Do { .. }) {
            continue;
        }
        // The compiled-tier plan is a fingerprint: it summarises the
        // nest's lowered body, so lowering again must reproduce it
        // exactly. A verdict carrying a plan for a nest the lowering
        // rejects (or one with tampered counts) was forged. A *missing*
        // plan is never flagged — the conservative direction
        // (tree-walk) is always safe.
        if v.compiled.is_some() && v.compiled != derive_compiled_plan(program, v.loop_stmt) {
            diags.push(Diagnostic {
                code: "IRR-S001",
                class: DiagClass::Soundness,
                loop_label: v.label.clone(),
                message: "carries a compiled-tier plan the lowering does not re-derive".to_string(),
            });
        }
        if v.parallel {
            if let Some(msg) = soundness_witness(program, &summaries, v) {
                diags.push(Diagnostic {
                    code: "IRR-S001",
                    class: DiagClass::Soundness,
                    loop_label: v.label.clone(),
                    message: msg,
                });
            }
        } else if let DispatchTier::RuntimeGuarded(guard) = &v.tier {
            if let Some(msg) = precision_gap(&ctx, &evo, v, guard) {
                diags.push(Diagnostic {
                    code: "IRR-P001",
                    class: DiagClass::Precision,
                    loop_label: v.label.clone(),
                    message: msg,
                });
            }
        } else {
            let mut blockers = v.blockers.clone();
            blockers.sort();
            blockers.dedup();
            let message = if blockers.is_empty() {
                "sequential with no recorded blocker".to_string()
            } else {
                format!("sequential because {}", blockers.join("; "))
            };
            diags.push(Diagnostic {
                code: "IRR-E001",
                class: DiagClass::Explain,
                loop_label: v.label.clone(),
                message,
            });
        }
    }
    diags.sort_by(|a, b| {
        (a.code, &a.loop_label, &a.message).cmp(&(b.code, &b.loop_label, &b.message))
    });
    diags
}

/// Renders diagnostics as one line each (already sorted by
/// [`lint_report`]), with a trailing newline when non-empty.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.line());
        out.push('\n');
    }
    out
}

/// Number of soundness-class diagnostics — the `--check` gate.
pub fn soundness_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.class == DiagClass::Soundness)
        .count()
}

// ---------------------------------------------------------------------
// IRR-S001: the independent value-set dependence pass
// ---------------------------------------------------------------------

/// Iteration cap of the value-set enumeration: beyond this the pass
/// checks a prefix of the iteration space (it may miss dependences —
/// silent — but can never invent one).
const ITER_CAP: usize = 4096;

/// Per-array affine accesses of one loop, as `(coeff, offset)` pairs
/// over the loop variable.
#[derive(Default)]
struct ArrAccesses {
    writes: Vec<(i64, i64)>,
    reads: Vec<(i64, i64)>,
    /// Some access to this array fell outside the affine fragment.
    unknown: bool,
}

/// Tries to contradict a parallel claim with a concrete dependence
/// witness. `None` means "no affine-fragment dependence found" — which
/// covers both genuinely independent loops and loops the pass cannot
/// model (Unknown never becomes a diagnostic).
fn soundness_witness(
    program: &Program,
    summaries: &SummaryAnalysis,
    v: &LoopVerdict,
) -> Option<String> {
    let StmtKind::Do {
        var,
        lo,
        hi,
        step,
        body,
        ..
    } = &program.stmt(v.loop_stmt).kind
    else {
        return None;
    };
    let mut env = const_env_before(program, summaries, v.proc, v.loop_stmt);
    // Scalars the loop body itself assigns (including nested loop
    // variables) have no single constant value across iterations.
    match assigned_scalars(program, summaries, body) {
        Some(killed) => {
            for s in killed {
                env.remove(&s);
            }
        }
        None => env.clear(),
    }
    env.remove(var);
    let lo_c = eval_const(lo, &env)?;
    let hi_c = eval_const(hi, &env)?;
    let step_c = match step {
        Some(e) => eval_const(e, &env)?,
        None => 1,
    };
    if step_c == 0 {
        return None;
    }
    let mut iters = Vec::new();
    let mut i = lo_c;
    while (step_c > 0 && i <= hi_c) || (step_c < 0 && i >= hi_c) {
        iters.push(i);
        if iters.len() == ITER_CAP {
            break;
        }
        i += step_c;
    }
    if iters.len() < 2 {
        return None;
    }
    let mut acc: BTreeMap<VarId, ArrAccesses> = BTreeMap::new();
    if !collect_accesses(program, body, *var, &env, &mut acc) {
        return None;
    }
    let privatized: HashSet<VarId> = v.privatized_arrays.iter().map(|(a, _)| *a).collect();
    // Deterministic order: arrays by name.
    let mut arrays: Vec<(&str, &ArrAccesses)> = acc
        .iter()
        .filter(|(a, acc)| !acc.unknown && !acc.writes.is_empty() && !privatized.contains(a))
        .map(|(a, acc)| (program.symbols.name(*a), acc))
        .collect();
    arrays.sort_by_key(|(name, _)| *name);
    for (name, a) in arrays {
        // Output dependence: one element written by two iterations.
        // `written` maps element -> (one writer, had another writer).
        let mut written: HashMap<i64, (i64, bool)> = HashMap::new();
        for &i in &iters {
            for (c, o) in &a.writes {
                let pos = c.checked_mul(i).and_then(|p| p.checked_add(*o))?;
                match written.entry(pos) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (first, _) = *e.get();
                        if first != i {
                            e.insert((first, true));
                            return Some(format!(
                                "claims parallel, but iterations {first} and {i} both write \
                                 `{name}({pos})`"
                            ));
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((i, false));
                    }
                }
            }
        }
        // Flow/anti dependence: an element written by one iteration and
        // read by another.
        for &i in &iters {
            for (c, o) in &a.reads {
                let pos = c.checked_mul(i).and_then(|p| p.checked_add(*o))?;
                if let Some(&(writer, _)) = written.get(&pos) {
                    if writer != i {
                        return Some(format!(
                            "claims parallel, but iteration {writer} writes `{name}({pos})` and \
                             iteration {i} reads it"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// Scalar constants live on entry to `target`, walking the containing
/// procedure's body in order. Calls invalidate exactly the callee's
/// summarized MOD-scalars (everything, for opaque callees); loops and
/// untaken branches invalidate what they assign.
fn const_env_before(
    program: &Program,
    summaries: &SummaryAnalysis,
    proc: ProcId,
    target: StmtId,
) -> HashMap<VarId, i64> {
    let mut env = HashMap::new();
    walk_to(
        program,
        summaries,
        &program.procedure(proc).body,
        target,
        &mut env,
    );
    env
}

/// Walks `body` updating `env`; returns true once `target` is reached.
fn walk_to(
    program: &Program,
    summaries: &SummaryAnalysis,
    body: &[StmtId],
    target: StmtId,
    env: &mut HashMap<VarId, i64>,
) -> bool {
    for &s in body {
        if s == target {
            return true;
        }
        let stmt = &program.stmt(s).kind;
        match stmt {
            StmtKind::Assign {
                lhs: LValue::Scalar(v),
                rhs,
            } => match eval_const(rhs, env) {
                Some(c) => {
                    env.insert(*v, c);
                }
                None => {
                    env.remove(v);
                }
            },
            StmtKind::Assign { .. } | StmtKind::Print { .. } | StmtKind::Return => {}
            StmtKind::Do {
                var, body: inner, ..
            } => {
                kill_assigned(program, summaries, inner, env);
                env.remove(var);
                if subtree_contains(program, inner, target)
                    && walk_to(program, summaries, inner, target, env)
                {
                    return true;
                }
            }
            StmtKind::While { body: inner, .. } => {
                kill_assigned(program, summaries, inner, env);
                if subtree_contains(program, inner, target)
                    && walk_to(program, summaries, inner, target, env)
                {
                    return true;
                }
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                if subtree_contains(program, then_body, target) {
                    if walk_to(program, summaries, then_body, target, env) {
                        return true;
                    }
                } else if subtree_contains(program, else_body, target) {
                    if walk_to(program, summaries, else_body, target, env) {
                        return true;
                    }
                } else {
                    kill_assigned(program, summaries, then_body, env);
                    kill_assigned(program, summaries, else_body, env);
                }
            }
            StmtKind::Call { proc } => {
                let sum = summaries.summary(*proc);
                if sum.opaque {
                    env.clear();
                } else {
                    for m in &sum.mod_scalars {
                        env.remove(m);
                    }
                }
            }
        }
    }
    false
}

/// Removes from `env` every scalar the subtree may assign.
fn kill_assigned(
    program: &Program,
    summaries: &SummaryAnalysis,
    body: &[StmtId],
    env: &mut HashMap<VarId, i64>,
) {
    match assigned_scalars(program, summaries, body) {
        Some(killed) => {
            for s in killed {
                env.remove(&s);
            }
        }
        None => env.clear(),
    }
}

/// The scalars a statement list may assign (directly or through calls).
/// `None` means "unknown" — the subtree calls an opaque procedure.
fn assigned_scalars(
    program: &Program,
    summaries: &SummaryAnalysis,
    body: &[StmtId],
) -> Option<HashSet<VarId>> {
    let mut out = HashSet::new();
    let mut stack: Vec<StmtId> = body.to_vec();
    while let Some(s) = stack.pop() {
        let stmt = &program.stmt(s).kind;
        match stmt {
            StmtKind::Assign {
                lhs: LValue::Scalar(v),
                ..
            } => {
                out.insert(*v);
            }
            StmtKind::Do { var, .. } => {
                out.insert(*var);
            }
            StmtKind::Call { proc } => {
                let sum = summaries.summary(*proc);
                if sum.opaque {
                    return None;
                }
                out.extend(sum.mod_scalars.iter().copied());
            }
            _ => {}
        }
        for b in stmt.bodies() {
            stack.extend(b.iter().copied());
        }
    }
    Some(out)
}

/// Whether `target` is (transitively) inside the statement list.
fn subtree_contains(program: &Program, body: &[StmtId], target: StmtId) -> bool {
    let mut stack: Vec<StmtId> = body.to_vec();
    while let Some(s) = stack.pop() {
        if s == target {
            return true;
        }
        for b in program.stmt(s).kind.bodies() {
            stack.extend(b.iter().copied());
        }
    }
    false
}

/// Evaluates an integer-constant expression under `env`.
fn eval_const(e: &Expr, env: &HashMap<VarId, i64>) -> Option<i64> {
    match e {
        Expr::IntLit(v) => Some(*v),
        Expr::Var(v) => env.get(v).copied(),
        Expr::Un(UnOp::Neg, inner) => eval_const(inner, env)?.checked_neg(),
        Expr::Bin(op, l, r) => {
            let (a, b) = (eval_const(l, env)?, eval_const(r, env)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div(b),
                BinOp::Mod => a.checked_rem(b),
                _ => None,
            }
        }
        Expr::Call(Intrinsic::Min, args) => fold_const(args, env, i64::min),
        Expr::Call(Intrinsic::Max, args) => fold_const(args, env, i64::max),
        Expr::Call(Intrinsic::Abs, args) if args.len() == 1 => {
            eval_const(&args[0], env)?.checked_abs()
        }
        Expr::Call(Intrinsic::Mod, args) if args.len() == 2 => {
            eval_const(&args[0], env)?.checked_rem(eval_const(&args[1], env)?)
        }
        _ => None,
    }
}

fn fold_const(args: &[Expr], env: &HashMap<VarId, i64>, f: fn(i64, i64) -> i64) -> Option<i64> {
    let mut vals = args.iter().map(|a| eval_const(a, env));
    let first = vals.next()??;
    vals.try_fold(first, |acc, v| Some(f(acc, v?)))
}

/// `e` as `coeff * var + offset` under `env`, or `None` outside the
/// affine fragment.
fn affine(e: &Expr, var: VarId, env: &HashMap<VarId, i64>) -> Option<(i64, i64)> {
    match e {
        Expr::Var(v) if *v == var => Some((1, 0)),
        Expr::Bin(BinOp::Add, l, r) => {
            let ((lc, lo), (rc, ro)) = (affine(l, var, env)?, affine(r, var, env)?);
            Some((lc.checked_add(rc)?, lo.checked_add(ro)?))
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            let ((lc, lo), (rc, ro)) = (affine(l, var, env)?, affine(r, var, env)?);
            Some((lc.checked_sub(rc)?, lo.checked_sub(ro)?))
        }
        Expr::Bin(BinOp::Mul, l, r) => {
            let ((lc, lo), (rc, ro)) = (affine(l, var, env)?, affine(r, var, env)?);
            // One side must be constant.
            if lc == 0 {
                Some((lo.checked_mul(rc)?, lo.checked_mul(ro)?))
            } else if rc == 0 {
                Some((lc.checked_mul(ro)?, lo.checked_mul(ro)?))
            } else {
                None
            }
        }
        Expr::Un(UnOp::Neg, inner) => {
            let (c, o) = affine(inner, var, env)?;
            Some((c.checked_neg()?, o.checked_neg()?))
        }
        _ => eval_const(e, env).map(|c| (0, c)),
    }
}

/// Walks a loop body collecting per-array affine accesses. Returns
/// false (bail out of the whole loop) on statements the pass cannot
/// model: calls, while loops, returns.
fn collect_accesses(
    program: &Program,
    body: &[StmtId],
    var: VarId,
    env: &HashMap<VarId, i64>,
    acc: &mut BTreeMap<VarId, ArrAccesses>,
) -> bool {
    for &s in body {
        let stmt = &program.stmt(s).kind;
        match stmt {
            StmtKind::Assign { lhs, rhs } => {
                if let LValue::Element(a, subs) = lhs {
                    record_access(a, subs, var, env, acc, true);
                    for sub in subs {
                        record_reads(sub, var, env, acc);
                    }
                }
                record_reads(rhs, var, env, acc);
            }
            StmtKind::Do {
                lo,
                hi,
                step,
                body: inner,
                ..
            } => {
                record_reads(lo, var, env, acc);
                record_reads(hi, var, env, acc);
                if let Some(e) = step {
                    record_reads(e, var, env, acc);
                }
                if !collect_accesses(program, inner, var, env, acc) {
                    return false;
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                record_reads(cond, var, env, acc);
                if !collect_accesses(program, then_body, var, env, acc)
                    || !collect_accesses(program, else_body, var, env, acc)
                {
                    return false;
                }
            }
            StmtKind::Print { args } => {
                for e in args {
                    record_reads(e, var, env, acc);
                }
            }
            StmtKind::While { .. } | StmtKind::Call { .. } | StmtKind::Return => return false,
        }
    }
    true
}

/// Records one array access (and marks the array unknown when the
/// subscript is not 1-D affine in `var`).
fn record_access(
    array: &VarId,
    subs: &[Expr],
    var: VarId,
    env: &HashMap<VarId, i64>,
    acc: &mut BTreeMap<VarId, ArrAccesses>,
    is_write: bool,
) {
    let entry = acc.entry(*array).or_default();
    let affine1 = (subs.len() == 1)
        .then(|| affine(&subs[0], var, env))
        .flatten();
    match affine1 {
        Some(co) if is_write => entry.writes.push(co),
        Some(co) => entry.reads.push(co),
        None => entry.unknown = true,
    }
}

/// Records every array *read* inside an expression tree.
fn record_reads(
    e: &Expr,
    var: VarId,
    env: &HashMap<VarId, i64>,
    acc: &mut BTreeMap<VarId, ArrAccesses>,
) {
    match e {
        Expr::Element(a, subs) => {
            record_access(a, subs, var, env, acc, false);
            for sub in subs {
                record_reads(sub, var, env, acc);
            }
        }
        Expr::Bin(_, l, r) => {
            record_reads(l, var, env, acc);
            record_reads(r, var, env, acc);
        }
        Expr::Un(_, inner) => record_reads(inner, var, env, acc),
        Expr::Call(_, args) => {
            for a in args {
                record_reads(a, var, env, acc);
            }
        }
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::Var(_) => {}
    }
}

// ---------------------------------------------------------------------
// IRR-P001: statically dischargeable runtime guards
// ---------------------------------------------------------------------

/// Whether every guard group of a runtime-guarded loop contains a check
/// the (interprocedural) evolution facts already discharge — i.e. the
/// inspection is statically redundant.
fn precision_gap(
    ctx: &AnalysisCtx<'_>,
    evo: &EvolutionAnalysis,
    v: &LoopVerdict,
    guard: &GuardPlan,
) -> Option<String> {
    let (_, lo, hi) = ctx.do_bounds_sym(v.loop_stmt)?;
    let env = ctx.range_env_at(v.loop_stmt);
    if guard.groups.is_empty() {
        return None;
    }
    let discharged: Vec<String> = guard
        .groups
        .iter()
        .map(|group| {
            group.iter().find_map(|rc| {
                let holds = match rc {
                    ResidualCheck::Injective { array } => {
                        evo.proves_injective(v.loop_stmt, *array, &lo, &hi, env)
                    }
                    ResidualCheck::OffsetLength { ptr, len } => {
                        evo.proves_offset_length(v.loop_stmt, *ptr, *len, &lo, &hi, env)
                    }
                };
                holds.then(|| render_check(ctx.program, rc))
            })
        })
        .collect::<Option<Vec<String>>>()?;
    let mut names = discharged;
    names.sort();
    names.dedup();
    Some(format!(
        "every runtime inspection is statically dischargeable ({}); the guard is redundant",
        names.join(", ")
    ))
}

fn render_check(program: &Program, c: &ResidualCheck) -> String {
    match c {
        ResidualCheck::Injective { array } => {
            format!("injective({})", program.symbols.name(*array))
        }
        ResidualCheck::OffsetLength { ptr, len } => format!(
            "offlen({}, {})",
            program.symbols.name(*ptr),
            program.symbols.name(*len)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::{compile_source, DriverOptions};
    use irr_programs::sparse::{lufront_callchain, SparseScale};
    use irr_sparse::Structure;

    /// Two dependent loops (a shifted read and a constant-element
    /// accumulation) plus one genuinely parallel loop.
    const DEP_SRC: &str = "program t
         integer i, n
         real x(100), y(100), acc(8)
         n = 100
         do 10 i = 1, n
           y(i) = x(i) * 2
 10      continue
         do 30 i = 1, n - 1
           x(i) = x(i + 1)
 30      continue
         do 40 i = 1, n
           acc(3) = acc(3) + y(i)
 40      continue
         print acc(3)
         end";

    fn forge(report: &mut irr_driver::CompilationReport, label: &str) {
        let v = report
            .verdicts
            .iter_mut()
            .find(|v| v.label.ends_with(label))
            .expect("forged loop exists");
        v.parallel = true;
        v.tier = DispatchTier::CompileTimeParallel;
        v.blockers.clear();
    }

    #[test]
    fn honest_report_is_clean_and_explains_sequential_loops() {
        let rep = compile_source(DEP_SRC, DriverOptions::with_iaa()).unwrap();
        let diags = lint_report(&rep);
        assert_eq!(soundness_count(&diags), 0, "{}", render(&diags));
        // Both sequential loops get an explain line naming a blocker.
        let explains: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.class == DiagClass::Explain)
            .collect();
        assert!(
            explains.iter().any(|d| d.loop_label.ends_with("do30")),
            "{}",
            render(&diags)
        );
    }

    #[test]
    fn forged_flow_dependence_is_caught_statically() {
        let mut rep = compile_source(DEP_SRC, DriverOptions::with_iaa()).unwrap();
        forge(&mut rep, "do30");
        let diags = lint_report(&rep);
        let s001: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "IRR-S001").collect();
        assert_eq!(s001.len(), 1, "{}", render(&diags));
        assert!(s001[0].loop_label.ends_with("do30"));
        assert!(
            s001[0].message.contains("writes `x(") && s001[0].message.contains("reads it"),
            "{}",
            s001[0].message
        );
    }

    #[test]
    fn forged_output_dependence_is_caught_statically() {
        let mut rep = compile_source(DEP_SRC, DriverOptions::with_iaa()).unwrap();
        forge(&mut rep, "do40");
        let diags = lint_report(&rep);
        let s001: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "IRR-S001").collect();
        assert_eq!(s001.len(), 1, "{}", render(&diags));
        assert!(
            s001[0].message.contains("both write `acc(3)`"),
            "{}",
            s001[0].message
        );
    }

    #[test]
    fn forged_compiled_plan_is_caught_statically() {
        // do10 is parallel and lowerable; inflating its plan's pattern
        // counts must trip the fingerprint re-derivation. Forging a
        // plan onto a print-bearing (unlowerable) loop must trip too.
        let mut rep = compile_source(DEP_SRC, DriverOptions::with_iaa()).unwrap();
        let v = rep
            .verdicts
            .iter_mut()
            .find(|v| v.label.ends_with("do10"))
            .unwrap();
        let mut plan = v.compiled.expect("do10 is lowerable");
        plan.affine_accesses += 7;
        v.compiled = Some(plan);
        let diags = lint_report(&rep);
        assert!(
            diags.iter().any(|d| d.code == "IRR-S001"
                && d.loop_label.ends_with("do10")
                && d.message.contains("compiled-tier plan")),
            "{}",
            render(&diags)
        );
        // Dropping the plan entirely is conservative, never a finding.
        let mut rep = compile_source(DEP_SRC, DriverOptions::with_iaa()).unwrap();
        for v in &mut rep.verdicts {
            v.compiled = None;
        }
        assert_eq!(soundness_count(&lint_report(&rep)), 0);
    }

    #[test]
    fn forged_verdict_is_falsified_dynamically_too() {
        // A lint soundness finding is a falsifiable claim: replaying the
        // forged report under the sanitizer's shadow tracer exhibits the
        // predicted dependence as a concrete violation.
        let mut rep = compile_source(DEP_SRC, DriverOptions::with_iaa()).unwrap();
        forge(&mut rep, "do30");
        assert_eq!(soundness_count(&lint_report(&rep)), 1);
        let audit = irr_sanitizer::audit_report(&rep, &irr_sanitizer::AuditConfig::default());
        assert!(
            audit.violations() >= 1,
            "dynamic replay must confirm the static finding"
        );
    }

    #[test]
    fn dischargeable_guard_is_flagged_as_precision_gap() {
        let k = lufront_callchain(&SparseScale::test(Structure::Uniform, 7));
        // Without summaries the consumer stays runtime-guarded; lint's
        // own interprocedural evolution run proves the guard redundant.
        let rep = compile_source(&k.source, DriverOptions::without_summaries()).unwrap();
        let diags = lint_report(&rep);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "IRR-P001" && d.loop_label == k.label),
            "{}",
            render(&diags)
        );
        // With summaries the loop is promoted and the gap disappears.
        let rep = compile_source(&k.source, DriverOptions::with_iaa()).unwrap();
        let diags = lint_report(&rep);
        assert_eq!(
            diags.iter().filter(|d| d.code == "IRR-P001").count(),
            0,
            "{}",
            render(&diags)
        );
    }

    #[test]
    fn rendered_output_is_byte_stable() {
        let rep = compile_source(DEP_SRC, DriverOptions::with_iaa()).unwrap();
        let a = render(&lint_report(&rep));
        let b = render(&lint_report(&rep));
        assert_eq!(a, b);
        let mut sorted: Vec<String> = a.lines().map(str::to_string).collect();
        sorted.sort();
        assert_eq!(
            a.lines().map(str::to_string).collect::<Vec<_>>(),
            sorted,
            "lines come out sorted"
        );
    }
}
