//! The differential oracle: the one place that says what "this run
//! reproduced that run" means.
//!
//! Every way of executing a compiled program — the hybrid runtime under
//! any commit strategy, thread count or fault schedule, the compiled
//! tier, a single loop run in chunks ([`OneLoopInChunks`]) — is
//! held to the sequential tree-walk ([`sequential`]) by
//! [`first_divergence`]: printed output token by token, every scalar
//! and array the verdicts do not privatize, the total statement cost,
//! and each loop's invocation count and cost. The checks of
//! [`crate::checks`], the chaos, strategy-parity, sparse and hybrid
//! suites and `sanitizer-audit` all call it; there is no second
//! comparer and no second tolerance outside `irr_exec`'s own unit
//! tests.

use irr_driver::CompilationReport;
use irr_exec::{
    ArrayData, Committed, ExecError, ExecOutcome, FallbackReason, Interp, LoopDecision,
    LoopDispatcher, ParallelPlan, SequentialDispatch, Store, Value,
};
use irr_frontend::{Program, StmtId, VarId};
use std::collections::HashSet;

/// How two real numbers are compared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reals {
    /// `a == b`, and printed tokens as text: for two runs that perform
    /// the same operations in the same order (the compiled tier against
    /// the tree-walk, a hybrid run that merges no real reduction).
    Exact,
    /// `a == b || |a − b| ≤ 1e-9 · max(|a|, |b|, 1)`: a parallel `Sum`
    /// reduction combines per-chunk partials in another association
    /// order than the sequential loop, which can move the last ulps.
    /// The tolerance accepts exactly that and still catches any genuine
    /// corruption (a lost write, a wrong value, a merge applied twice).
    Reassociated,
}

impl Reals {
    fn same(self, a: f64, b: f64) -> bool {
        a == b
            || (self == Reals::Reassociated
                && (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0))
    }
}

/// One run of `report`'s program with `presets` installed first,
/// `dispatcher` consulted at every dynamic `do`-loop entry.
///
/// # Errors
///
/// Propagates the interpreter's error.
pub fn dispatched(
    report: &CompilationReport,
    presets: &[(VarId, ArrayData)],
    dispatcher: &mut dyn LoopDispatcher,
) -> Result<ExecOutcome, ExecError> {
    let mut interp = Interp::new(&report.program);
    for (var, data) in presets {
        interp.preset_array(*var, data.clone());
    }
    interp.run_dispatched(dispatcher)
}

/// A dispatcher that runs every entry of one loop in parallel chunks
/// under `plan` and every other loop sequentially, counting the entries
/// that committed and recording why any other fell back: one loop run
/// in chunks inside a whole [`dispatched`] run.
pub struct OneLoopInChunks {
    pub loop_stmt: StmtId,
    pub plan: ParallelPlan,
    /// Parallel entries that committed.
    pub committed: u64,
    /// Why each parallel entry that fell back did.
    pub failed: Vec<FallbackReason>,
}

impl OneLoopInChunks {
    pub fn new(loop_stmt: StmtId, plan: ParallelPlan) -> OneLoopInChunks {
        OneLoopInChunks {
            loop_stmt,
            plan,
            committed: 0,
            failed: Vec::new(),
        }
    }
}

impl LoopDispatcher for OneLoopInChunks {
    fn dispatch(&mut self, _: &Store, s: StmtId, _: i64, _: i64, _: i64) -> LoopDecision {
        if s == self.loop_stmt {
            LoopDecision::Parallel(self.plan.clone())
        } else {
            LoopDecision::Sequential
        }
    }

    fn parallel_failed(&mut self, _: StmtId, reason: FallbackReason) {
        self.failed.push(reason);
    }

    fn parallel_committed(&mut self, _: StmtId, _: &Committed) {
        self.committed += 1;
    }
}

/// The reference run: [`dispatched`] on the sequential tree-walk.
///
/// # Errors
///
/// Propagates the interpreter's error.
pub fn sequential(
    report: &CompilationReport,
    presets: &[(VarId, ArrayData)],
) -> Result<ExecOutcome, ExecError> {
    dispatched(report, presets, &mut SequentialDispatch)
}

/// The first observable difference between the reference run `want` and
/// another run `got` of `report`'s program, or `None` when `got`
/// reproduced it: output, store (see [`store_divergence`]; the
/// variables the report privatizes are exempt), total cost, per-loop
/// invocations and cost.
pub fn first_divergence(
    report: &CompilationReport,
    want: &ExecOutcome,
    got: &ExecOutcome,
    reals: Reals,
) -> Option<String> {
    if got.output.len() != want.output.len() {
        return Some(format!(
            "printed {} line(s), expected {}",
            got.output.len(),
            want.output.len()
        ));
    }
    for (have, want) in got.output.iter().zip(&want.output) {
        let same_token = |(h, w): (&str, &str)| {
            h == w
                || reals == Reals::Reassociated
                    && matches!((h.parse(), w.parse()), (Ok(h), Ok(w)) if reals.same(h, w))
        };
        let (h, w) = (have.split_whitespace(), want.split_whitespace());
        if h.clone().count() != w.clone().count() || !h.zip(w).all(same_token) {
            return Some(format!("output differs: `{have}` vs `{want}`"));
        }
    }
    let exempt = report.privatized_vars();
    if let Some(diff) = store_divergence(&report.program, &exempt, &want.store, &got.store, reals) {
        return Some(diff);
    }
    if got.stats.total_cost != want.stats.total_cost {
        return Some(format!(
            "total cost differs: {} vs {}",
            got.stats.total_cost, want.stats.total_cost
        ));
    }
    let mut loops: Vec<_> = want.stats.loops.iter().collect();
    loops.sort_unstable_by_key(|(stmt, _)| **stmt);
    for (stmt, want) in loops {
        let label = || {
            let verdict = report.verdicts.iter().find(|v| v.loop_stmt == *stmt);
            verdict.map_or(format!("{stmt:?}"), |v| v.label.clone())
        };
        let Some(got) = got.stats.loops.get(stmt) else {
            return Some(format!("loop {}: statistics dropped", label()));
        };
        if got.invocations != want.invocations {
            return Some(format!(
                "loop {}: {} invocation(s), expected {}",
                label(),
                got.invocations,
                want.invocations
            ));
        }
        if got.total_cost != want.total_cost {
            return Some(format!(
                "loop {}: cost {}, expected {}",
                label(),
                got.total_cost,
                want.total_cost
            ));
        }
    }
    None
}

/// The store half of the oracle, for callers that exempt another set:
/// the first variable of `program` outside `exempt` on which `got`
/// differs from `want`. Integers compare as integers; an array compares
/// by extents, element type and elements.
///
/// # Panics
///
/// Panics when either store lacks an array: a run allocates every
/// declared array before its first statement, so only the stores of
/// runs are comparable.
pub fn store_divergence(
    program: &Program,
    exempt: &HashSet<VarId>,
    want: &Store,
    got: &Store,
    reals: Reals,
) -> Option<String> {
    for (var, info) in program.symbols.iter() {
        if exempt.contains(&var) {
            continue;
        }
        let name = &info.name;
        if !info.is_array() {
            let (w, h) = (want.scalar(var), got.scalar(var));
            let same = match (w, h) {
                (Value::Real(w), Value::Real(h)) => reals.same(w, h),
                _ => w == h,
            };
            if !same {
                return Some(format!("scalar {name} differs: {h:?} vs {w:?}"));
            }
            continue;
        }
        let (Some(w), Some(h)) = (want.array_ref(var), got.array_ref(var)) else {
            panic!("array {name} is not allocated: only the stores of runs compare");
        };
        let diff = match (w, h) {
            _ if w.dims() != h.dims() => Some(format!("array {name}: extents differ")),
            (ArrayData::Int { data: w, .. }, ArrayData::Int { data: h, .. }) => {
                let k = w.iter().zip(h.iter()).position(|(w, h)| w != h);
                k.map(|k| format!("array {name}({}) differs: {} vs {}", k + 1, h[k], w[k]))
            }
            (ArrayData::Real { data: w, .. }, ArrayData::Real { data: h, .. }) => {
                let k = w
                    .iter()
                    .zip(h.iter())
                    .position(|(w, h)| !reals.same(*w, *h));
                k.map(|k| format!("array {name}({}) differs: {} vs {}", k + 1, h[k], w[k]))
            }
            _ => Some(format!("array {name}: element type differs")),
        };
        if diff.is_some() {
            return diff;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::{compile_source, DriverOptions};
    use irr_frontend::ScalarType;

    /// The oracle's own test: every observable is perturbed, one at a
    /// time, and each perturbation must be reported — so the oracle
    /// cannot go blind to a class of difference unnoticed — while what
    /// the verdicts privatize must be ignored.
    #[test]
    fn every_observable_perturbed_alone_is_reported_and_privatized_scratch_is_not() {
        let rep = compile_source(
            "program t
             integer i, j, k, n
             real s, t, x(16), tmp(4), never(4)
             n = 16
             k = 3
             do 10 i = 1, n
               do j = 1, 4
                 tmp(j) = i + j * 0.5
               enddo
               t = tmp(1) * 0.5
               x(i) = t + tmp(4)
 10          continue
             s = x(3) * 0.1
             print k, s
             end",
            DriverOptions::with_iaa(),
        )
        .unwrap();
        let var = |name: &str| rep.program.symbols.lookup(name).unwrap();
        let do10 = rep.verdict("T/do10").unwrap().loop_stmt;
        let private = rep.privatized_vars();
        assert!(private.contains(&var("t")) && private.contains(&var("tmp")));
        let base = sequential(&rep, &[]).unwrap();
        // An array the program never touches is live all the same.
        let never = ArrayData::zeroed(ScalarType::Real, vec![4]);
        assert_eq!(base.store.array_ref(var("never")), Some(&never));
        let s = base.store.scalar(var("s")).as_real();
        let real = |v: f64| Value::Real(v);
        // A copy of `base` with one thing changed.
        let with = |change: &dyn Fn(&mut ExecOutcome)| {
            let mut got = base.clone();
            change(&mut got);
            got
        };
        let set_element = |got: &mut ExecOutcome, name: &str, k: usize| {
            let Some(ArrayData::Real { data, dims }) = got.store.array_ref(var(name)) else {
                panic!("{name} is a live real array");
            };
            let (mut data, dims) = (data.clone(), dims.clone());
            std::sync::Arc::make_mut(&mut data)[k] += 1.0;
            got.store
                .preset_array(var(name), ArrayData::Real { data, dims });
        };
        let reported = |got: &ExecOutcome, reals: Reals, what: &str| {
            let diff = first_divergence(&rep, &base, got, reals);
            assert!(
                diff.as_ref().is_some_and(|d| d.contains(what)),
                "{reals:?}: expected a report about `{what}`, got {diff:?}"
            );
        };
        for reals in [Reals::Exact, Reals::Reassociated] {
            assert_eq!(first_divergence(&rep, &base, &base, reals), None);
            let token = with(&|g| g.output[0] = g.output[0].replace('3', "4"));
            reported(&token, reals, "output differs");
            let line = with(&|g| g.output.push("3".into()));
            reported(&line, reals, "printed 2 line(s)");
            let int = with(&|g| g.store.set_scalar(var("k"), ScalarType::Int, Value::Int(4)));
            reported(&int, reals, "scalar k");
            let far = with(&|g| {
                g.store
                    .set_scalar(var("s"), ScalarType::Real, real(s * (1.0 + 1e-6)))
            });
            reported(&far, reals, "scalar s");
            reported(&with(&|g| set_element(g, "x", 4)), reals, "array x(5)");
            let longer = with(&|g| {
                let zeroed = ArrayData::zeroed(ScalarType::Real, vec![5]);
                g.store.preset_array(var("never"), zeroed);
            });
            reported(&longer, reals, "array never: extents differ");
            let retyped = with(&|g| {
                let zeroed = ArrayData::zeroed(ScalarType::Int, vec![4]);
                g.store.preset_array(var("never"), zeroed);
            });
            reported(&retyped, reals, "array never: element type differs");
            reported(&with(&|g| g.stats.total_cost += 1), reals, "total cost");
            let entries = with(&|g| g.stats.loops.get_mut(&do10).unwrap().invocations += 1);
            reported(&entries, reals, "loop T/do10: 2 invocation(s)");
            let cost = with(&|g| g.stats.loops.get_mut(&do10).unwrap().total_cost += 1);
            reported(&cost, reals, "loop T/do10: cost");
            let dropped = with(&|g| drop(g.stats.loops.remove(&do10)));
            reported(&dropped, reals, "loop T/do10: statistics dropped");
            // Per-worker scratch: unobservable after the loop.
            let scratch = with(&|g| {
                g.store.set_scalar(var("t"), ScalarType::Real, real(-1.0));
                set_element(g, "tmp", 0);
            });
            assert_eq!(first_divergence(&rep, &base, &scratch, reals), None);
            // ... unless the caller exempts nothing.
            let none = HashSet::new();
            let diff = store_divergence(&rep.program, &none, &base.store, &scratch.store, reals);
            assert!(diff.is_some_and(|d| d.contains("scalar t")));
        }
        // One ulp is a difference only to the exact rule.
        let ulp = with(&|g| {
            let next = f64::from_bits(s.to_bits() + 1);
            g.store.set_scalar(var("s"), ScalarType::Real, real(next));
        });
        reported(&ulp, Reals::Exact, "scalar s");
        assert_eq!(
            first_divergence(&rep, &base, &ulp, Reals::Reassociated),
            None
        );
    }
}
