//! Compiled execution tier: runs verdict-annotated `do`-loop nests as
//! typed register programs.
//!
//! The tree-walking interpreter pays for its instrumentation on every
//! AST node: enum dispatch per expression node, a `Vec<usize>` per
//! array access in `flat_index`, and symbol-table type lookups per
//! scalar write. For the loops the analysis already understands — the
//! sparse kernels and figure loops of the paper — none of that varies
//! between iterations. The compiler side (`irr_driver::compiled`) owns
//! the one instruction set and lowers such a loop nest **once**,
//! straight from the AST, into a [`CompiledBody`]; `fast` runs that
//! body over split `i64`/`f64` register planes and pre-pinned array
//! payloads:
//!
//! - **Registers, not a tree.** Expression temporaries and the scalars
//!   the nest references live in flat register planes sized by the
//!   lowering; the declared type of every scalar write is baked into
//!   the writing instruction (the tree-walk reads it off the symbol
//!   table).
//! - **The address is an operand.** An element access is one load or
//!   one store per register plane (`FOp::LoadI` / `LoadF` / `StoreI` /
//!   `StoreF`) carrying its pin slot and its subscript form, an
//!   `irr_driver::compiled::Addr`: a plain subscript, the affine
//!   `a(i+c)`, the subscripted subscript `x(idx(e))`, or the flat index
//!   of a multi-dimensional `a(i, j)`. `fast` resolves and bounds-checks
//!   every form in one place, against the live extents, without
//!   allocating a subscript vector.
//! - **Fused instructions** for the paper's other idioms: the
//!   offset–length address `ptr(j)+k-1` (`LeaI`), the accumulate
//!   `s = s + b * c` (`MulAddF`), and append-through-pointer
//!   `a(p) = e; p = p + 1` (`Append*`).
//! - **Streams.** An innermost `do` whose body is one assignment
//!   `sink = a * b ± c` over LINEAR / INDIRECT rank-1 references does
//!   not dispatch per iteration: the typed loop fast-forwards the
//!   iterations whose checks it can prove pass as one guarded stream
//!   (`irr_driver::compiled::Stream`), then continues per iteration.
//!   A row loop over such a stream — an offset–length nest, at most an
//!   initialization before the inner loop and one store of the reduced
//!   value after it — runs its rows through one two-level kernel, each
//!   row whole or on the per-row path
//!   (`irr_driver::compiled::SegStream`). Both enter one kernel driver
//!   in `fast`: one sink set-up and write-back, one instantiation table.
//!
//! **Parity is the contract.** A compiled loop must be byte-identical
//! to the tree-walk in store contents, printed output, statement
//! costs, fuel accounting, and error identity — the differential
//! harness in `tests/strategy_parity.rs` and `sanitizer-audit --only
//! compiled` enforce this across the whole corpus. So the lowering is
//! conservative: fuel is charged per statement entry at the same
//! program points (`FOp::Charge`), and any construct whose interpreter
//! semantics are not replicated bit-for-bit — procedure calls, `print`,
//! `return`, logical operators in numeric position — rejects the
//! lowering, and the interpreter walks the loop under a reason-coded
//! [`FallbackReason`].
//!
//! **Two engines, one rulebook; a worker has one engine.** The typed
//! loop and the reference tree-walk are the only executors. What both
//! need is written once, in `interp`: the walked `do` (the `Do` arm),
//! the operator table (`bin_i`, `bin_f`, `cmp_res`), the bounds rule
//! (`column_major`) and the induction step. The `Do` arm decides a
//! sequential compiled entry once: a nest that lowered runs typed from
//! its first iteration, and one that cannot (a zero-trip range, a
//! preset of another element type than declared) walks, offering its
//! inner loops to the dispatcher. A parallel worker's share always runs
//! the typed loop — the dispatch is refused before any chunk runs when
//! the nest cannot — handed its deadline and the sinks its commit
//! strategy built (`WriteSink`); the commit takes its scalars, cost and
//! counters from its state (`FState`) instead of a flush. Either way a
//! typed run ends in the dispatcher's `Abort`: the program's error, or
//! — in a worker only — a `Timeout` or `Strategy` fallback.
//!
//! Trust discipline is the one the raw-pointer strategies use: a
//! verdict's `CompiledPlan` is only an advisory claim. The executor
//! never runs a plan — at dispatch it calls the same [`lower_do_loop`]
//! on the AST (cached per `StmtId`), just as it re-derives the in-place
//! and concat proofs, so a forged plan can never reach the typed path.

mod fast;

pub(crate) use fast::{Deadline, FState, Typed};
pub use irr_driver::compiled::{lower_do_loop, CompiledBody, LowerReject};

use crate::dispatch::{FallbackReason, LoopDecision, LoopDispatcher};
use crate::interp::Store;
use irr_frontend::StmtId;

/// The all-compiled dispatcher: every `do` loop entry requests the
/// compiled tier; unlowerable or instrumented loops fall
/// back to the tree-walk per the interpreter's own guard. This is the
/// single-thread "compiled" arm of the differential parity matrix and
/// of the benchmark's `exec.bytecode_ms`.
#[derive(Debug, Default)]
pub struct CompiledDispatch {
    /// Dynamic loop entries the typed loop ran.
    pub compiled: u64,
    /// Dynamic loop entries that fell back, per reason.
    pub fallbacks: Vec<(FallbackReason, u64)>,
}

impl CompiledDispatch {
    /// Fresh dispatcher with zeroed counters.
    pub fn new() -> CompiledDispatch {
        CompiledDispatch::default()
    }

    /// Total fallback count across reasons.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.iter().map(|(_, c)| c).sum()
    }
}

impl LoopDispatcher for CompiledDispatch {
    fn dispatch(
        &mut self,
        _store: &Store,
        _loop_stmt: StmtId,
        _lo: i64,
        _hi: i64,
        _step: i64,
    ) -> LoopDecision {
        LoopDecision::Compiled
    }

    fn compiled_committed(&mut self, _loop_stmt: StmtId) {
        self.compiled += 1;
    }

    fn compiled_fallback(&mut self, _loop_stmt: StmtId, reason: FallbackReason) {
        match self.fallbacks.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, c)) => *c += 1,
            None => self.fallbacks.push((reason, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Abort, SequentialDispatch};
    use crate::interp::{ArrayData, ExecError, ExecStats, Interp, Probe, WriteSink};
    use crate::parallel::ParallelPlan;
    use irr_driver::compiled::Stream;
    use irr_frontend::{parse_program, Program, ScalarType, VarId};
    use std::time::{Duration, Instant};

    /// [`assert_same_run`] of a program that must complete; returns the
    /// compiled run's dispatch counters.
    fn assert_parity(src: &str) -> CompiledDispatch {
        let p = parse_program(src).unwrap();
        let ran = assert_same_run(&p, |_| {});
        assert_eq!(ran.res, Ok(()));
        ran.dispatch
    }

    fn assert_stats_eq(seq: &ExecStats, comp: &ExecStats) {
        assert_eq!(seq.total_cost, comp.total_cost);
        assert_eq!(seq.loops.len(), comp.loops.len());
        for (s, ls) in &seq.loops {
            let cs = &comp.loops[s];
            assert_eq!(ls.invocations, cs.invocations, "invocations of {s:?}");
            assert_eq!(ls.total_cost, cs.total_cost, "cost of {s:?}");
        }
    }

    /// The compiled side of [`assert_same_run`].
    struct Ran<'p> {
        comp: Interp<'p>,
        /// Snapshot of `comp`'s store taken after setup, before the
        /// run: it shares every preset payload with `comp`.
        pre: Store,
        dispatch: CompiledDispatch,
        res: Result<(), ExecError>,
    }

    impl Ran<'_> {
        /// Root iterations the typed loop started, over the whole run.
        /// The two loops leave byte-identical stores by contract, so
        /// which one ran is read off the interpreter's test-only
        /// counter.
        fn typed_iters(&self) -> u64 {
            self.comp.probe.typed_root_iters
        }

        /// Whether the preset array `name` still shares its payload
        /// with the pre-run snapshot.
        fn still_shared(&self, name: &str) -> bool {
            let a = self.comp.program().symbols.lookup(name).unwrap();
            let pre = self.pre.array_ref(a).unwrap();
            pre.shares_buffer(self.comp.store.array_ref(a).unwrap())
        }
    }

    /// A fresh interpreter on `p` after `setup`, with every array
    /// allocated as a run allocates them before its first statement.
    fn live<'p>(p: &'p Program, setup: impl Fn(&mut Interp<'p>)) -> Interp<'p> {
        let mut it = Interp::new(p);
        setup(&mut it);
        it.allocate_arrays();
        it
    }

    /// Runs `p`'s main procedure on the tree-walk and on the compiled
    /// tier, each after `setup`, and asserts the two interpreters are
    /// observably identical whether or not the run completed: result
    /// (error payload included), store bytes, array versions, output,
    /// remaining fuel, total cost, per-loop stats.
    fn assert_same_run<'p>(p: &'p Program, setup: impl Fn(&mut Interp<'p>)) -> Ran<'p> {
        let mut seq = live(p, &setup);
        let seq_res = seq.exec_proc_with(p.main(), &mut SequentialDispatch);
        let mut comp = live(p, &setup);
        let pre = comp.store.clone();
        let mut dispatch = CompiledDispatch::new();
        let res = comp.exec_proc_with(p.main(), &mut dispatch);
        assert_eq!(seq_res, res);
        assert_eq!(seq.store, comp.store);
        for (v, _) in p.symbols.iter() {
            assert_eq!(
                seq.store.array_version(v),
                comp.store.array_version(v),
                "version of {}",
                p.symbols.name(v)
            );
        }
        assert_eq!(seq.output, comp.output);
        assert_eq!(seq.fuel, comp.fuel);
        assert_stats_eq(&seq.stats, &comp.stats);
        Ran {
            comp,
            pre,
            dispatch,
            res,
        }
    }

    /// Presets the read-only input `x(8)` of the first-touch programs.
    fn preset_x(it: &mut Interp<'_>) {
        let x = it.program().symbols.lookup("x").unwrap();
        let data: Vec<f64> = (1..=8).map(|k| k as f64 * 0.5).collect();
        it.preset_array(
            x,
            ArrayData::Real {
                dims: [8].into(),
                data: data.into(),
            },
        );
    }

    #[test]
    fn affine_gather_reduction_parity() {
        let d = assert_parity(
            "program t
             integer i, idx(50)
             real a(60), b(50), s
             do i = 1, 50
               idx(i) = 51 - i
               b(i) = i * 0.25
             enddo
             do i = 1, 50
               a(i + 3) = b(i) * 2.0
               s = s + a(idx(i))
             enddo
             print s
             end",
        );
        assert!(d.compiled >= 2, "{d:?}");
        assert_eq!(d.fallback_count(), 0, "{d:?}");
    }

    #[test]
    fn append_and_nested_loop_parity() {
        assert_parity(
            "program t
             integer i, j, q, ind(200), ptr(10), len(10)
             do i = 1, 10
               ptr(i) = (i - 1) * 7 + 1
               len(i) = 5
             enddo
             do i = 1, 10
               do j = 1, len(i)
                 q = q + 1
                 ind(q) = ptr(i) + j
               enddo
             enddo
             print q, ind(1), ind(50)
             end",
        );
    }

    #[test]
    fn while_and_if_parity() {
        assert_parity(
            "program t
             integer i, j, k
             real x(40)
             do i = 1, 20
               j = i
               while (j > 1)
                 j = j / 2
                 k = k + 1
               endwhile
               if (k > 10 .and. i < 15) then
                 x(i) = k * 1.5
               else
                 x(i) = 0 - k
               endif
             enddo
             print k
             end",
        );
    }

    #[test]
    fn multi_dim_and_intrinsic_parity() {
        assert_parity(
            "program t
             integer i, j
             real z(8, 9), s
             do i = 1, 8
               do j = 1, 9
                 z(i, j) = max(i, j) + sqrt(i * 1.0)
               enddo
             enddo
             do i = 1, 8
               s = s + z(i, mod(i, 9) + 1)
             enddo
             print s
             end",
        );
    }

    #[test]
    fn out_of_bounds_error_identity() {
        let src = "program t
             integer i, idx(10)
             real a(5)
             do i = 1, 10
               idx(i) = i
             enddo
             do i = 1, 10
               a(idx(i)) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let ran = assert_same_run(&p, |_| {});
        assert!(matches!(ran.res, Err(ExecError::OutOfBounds { .. })));
    }

    /// Satellite: a tight fuel budget must exhaust at the same point —
    /// same error, same total cost — on both tiers.
    #[test]
    fn fuel_exhaustion_point_is_identical() {
        let src = "program t
             integer i
             real x(1000)
             do i = 1, 1000
               x(i) = i * 2.0
             enddo
             end";
        let p = parse_program(src).unwrap();
        for fuel in [7u64, 100, 1001] {
            let ran = assert_same_run(&p, |it| it.fuel = fuel);
            assert_eq!(ran.res, Err(ExecError::OutOfFuel));
        }
    }

    #[test]
    fn print_in_body_falls_back_with_reason() {
        let src = "program t
             integer i
             do i = 1, 3
               print i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let mut d = CompiledDispatch::new();
        let out = Interp::new(&p).run_dispatched(&mut d).unwrap();
        assert_eq!(out.output, vec!["1", "2", "3"]);
        assert_eq!(d.compiled, 0);
        assert_eq!(d.fallbacks, vec![(FallbackReason::Unsupported, 1)], "{d:?}");
    }

    #[test]
    fn recorded_loop_falls_back_as_traced() {
        let src = "program t
             integer i
             real x(10)
             do i = 1, 10
               x(i) = i
             enddo
             end";
        let p = parse_program(src).unwrap();
        let target = p
            .stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| p.stmt(*s).kind.is_loop())
            .unwrap();
        let mut it = Interp::new(&p);
        it.record_loops.insert(target);
        let mut d = CompiledDispatch::new();
        let out = it.run_dispatched(&mut d).unwrap();
        assert_eq!(d.fallbacks, vec![(FallbackReason::Traced, 1)]);
        assert_eq!(out.stats.loops[&target].iteration_costs.len(), 1);
    }

    /// `x` is preset, and the outputs are first touched inside the
    /// loop — `z` in iteration 1, `y` (first in program text) only from
    /// iteration 2. Every array is live from the first statement, so
    /// the whole entry runs typed.
    const FIRST_TOUCH_SRC: &str = "program t
         integer i
         real x(8), y(8), z(8), s
         do i = 1, 8
           if (i > 1) then
             y(i) = x(i) + y(9 - i)
           endif
           z(i) = x(i) * 2.0 + z(9 - i)
           s = s + z(i)
         enddo
         print s, y(8), i
         end";

    /// Random fill gives every array a stream of its own, seeded with
    /// the fill seed and its `VarId`: what an array holds before its
    /// first write does not depend on which array the program touches
    /// first, and the typed loop runs the entry from iteration 1 over
    /// exactly that store.
    #[test]
    fn random_fill_is_per_array_and_the_entry_runs_typed() {
        let p = parse_program(FIRST_TOUCH_SRC).unwrap();
        let fill = |it: &mut Interp<'_>| {
            preset_x(it);
            it.set_random_fill(0x5eed);
        };
        let ran = assert_same_run(&p, fill);
        assert_eq!(ran.res, Ok(()));
        assert_eq!(ran.typed_iters(), 8);
        let (y, z) = (
            p.symbols.lookup("y").unwrap(),
            p.symbols.lookup("z").unwrap(),
        );
        // The fill is live: `y(9 - i)` read random data, not zeros.
        let mut zero_fill = Interp::new(&p);
        preset_x(&mut zero_fill);
        let zero_fill = zero_fill.run().unwrap();
        assert_ne!(
            zero_fill.store.array_as_reals(y),
            ran.comp.store.array_as_reals(y)
        );
        // Same declarations, no statement: `y(1)`, never written above,
        // holds what it holds here, and `y` and `z` hold different data.
        let decls =
            parse_program("program t\n integer i\n real x(8), y(8), z(8), s\n end").unwrap();
        let untouched = live(&decls, fill).store;
        let held = |st: &Store, a| st.array_as_reals(a).unwrap();
        assert_eq!(held(&untouched, y)[0], held(&ran.comp.store, y)[0]);
        assert_ne!(held(&untouched, y), held(&untouched, z));
    }

    /// Every fuel budget from zero to a completed run stops both tiers
    /// at the same point: the budget that ends on the `do` statement
    /// itself, and every one that ends inside one of the eight typed
    /// iterations or after the loop.
    #[test]
    fn fuel_exhaustion_points_are_identical_at_every_budget() {
        let p = parse_program(FIRST_TOUCH_SRC).unwrap();
        let full = assert_same_run(&p, preset_x);
        assert_eq!(full.res, Ok(()));
        let total = full.comp.stats.total_cost;
        for fuel in 0..total {
            let ran = assert_same_run(&p, |it| {
                preset_x(it);
                it.fuel = fuel;
            });
            assert_eq!(ran.res, Err(ExecError::OutOfFuel), "fuel {fuel}");
            let typed = ran.typed_iters();
            let entered = if fuel == 0 {
                typed == 0
            } else {
                (1..=8).contains(&typed)
            };
            assert!(entered, "fuel {fuel}: {typed} typed");
        }
    }

    /// An out-of-bounds subscript raised by the typed loop in its first
    /// and in a later iteration carries the tree-walk's payload and
    /// leaves its store — in every address form, on integer and real
    /// arrays, loading and storing. Per row: what runs in the bad
    /// iteration only, the statement, and the array, subscript and
    /// extent it fails on (`None`: the run completes).
    #[test]
    fn out_of_bounds_payload_is_identical_in_any_iteration() {
        let rows = [
            // `Elem`.
            (
                "k = 9",
                "y(i) = x(i)\n if (i > 1) then\n z(i) = y(i - 1)\n endif\n z(k) = x(i)",
                Some(("z", 9, 8)),
            ),
            ("k = 0", "y(i) = n(k)", Some(("n", 0, 8))),
            // `Aff`: `k + 1` wraps at `i64::MAX`.
            (
                "k = 9223372036854775807",
                "y(i) = n(k + 1)",
                Some(("n", i64::MIN, 8)),
            ),
            (
                "k = 9223372036854775807",
                "w(k + 1) = x(i)",
                Some(("w", i64::MIN, 9)),
            ),
            // `Ind`: a miss in the index array, then in the data.
            (
                "k = 9",
                "idx(i) = i\n y(i) = x(idx(k))",
                Some(("idx", 9, 8)),
            ),
            ("k = 9", "idx(i) = i\n n(idx(k)) = i", Some(("idx", 9, 8))),
            ("k = 9", "idx(i) = k\n y(i) = x(idx(i))", Some(("x", 9, 8))),
            ("k = 0", "idx(i) = k\n n(idx(i)) = i", Some(("n", 0, 8))),
            // `Flat`: flat indices past the first extent, then a miss in
            // each dimension.
            ("m = 3", "z2(k, m) = x(i)\n y(i) = z2(k, m)", None),
            ("k = 9", "y(i) = n2(k, m)", Some(("n2", 9, 8))),
            ("m = 4", "n2(k, m) = i", Some(("n2", 4, 3))),
        ];
        for (bad, stmt, miss) in rows {
            for bad_iter in [1, 3] {
                let src = format!(
                    "program t
                     integer i, k, m, idx(8), n(8), n2(8, 3)
                     real x(8), y(8), z(8), w(9), z2(8, 3)
                     do i = 1, 8
                       k = i
                       m = 2
                       if (i == {bad_iter}) then
                         {bad}
                       endif
                       {stmt}
                     enddo
                     end"
                );
                let p = parse_program(&src).unwrap();
                let ran = assert_same_run(&p, preset_x);
                let expected = miss.map(|(array, index, extent)| ExecError::OutOfBounds {
                    array: array.to_string(),
                    index,
                    extent,
                });
                assert_eq!(ran.res.as_ref().err(), expected.as_ref(), "{stmt}");
                let typed = if miss.is_some() { bad_iter } else { 8 };
                assert_eq!(ran.typed_iters(), typed, "{stmt}");
            }
        }
    }

    /// The `rowgather`-on-uniform shape: `w` is referenced only under a
    /// branch that is never taken. It is live all the same, so the
    /// entry runs typed.
    #[test]
    fn an_array_behind_an_untaken_branch_keeps_no_entry_off_the_typed_loop() {
        let src = "program t
             integer i
             real x(8), y(8), w(8)
             do i = 1, 8
               if (x(i) < 0.0) then
                 y(i) = w(i)
               else
                 y(i) = x(i) * 3.0
               endif
             enddo
             print y(8)
             end";
        let p = parse_program(src).unwrap();
        let ran = assert_same_run(&p, preset_x);
        assert_eq!(ran.res, Ok(()));
        assert_eq!(ran.typed_iters(), 8);
        assert_eq!(ran.dispatch.compiled, 1);
    }

    /// A nest past a register plane — 65 535 distinct
    /// products beside the promoted scalars, in a plane a `u16` numbers
    /// — is rejected by the lowering, so nothing is offered that the
    /// typed loop cannot run: the driver's advisory plan is absent and
    /// the dispatch falls back before the first iteration,
    /// reason-coded, with the ordinary `Do` arm as the execution. Once
    /// per plane.
    #[test]
    fn a_nest_past_a_register_plane_is_rejected_by_the_lowering() {
        for (ty, frac, last) in [("integer", "", "131070"), ("real", ".5", "131071")] {
            let body: String = (1..=u16::MAX)
                .map(|k| format!("s = i * {k}{frac}\n"))
                .collect();
            let src =
                format!("program t\ninteger i\n{ty} s\ndo i = 1, 2\n{body}enddo\nprint s\nend\n");
            let p = parse_program(&src).unwrap();
            let s = p.procedure(p.main()).body[0];
            assert_eq!(
                lower_do_loop(&p, s).err(),
                Some(LowerReject("register-file-overflow")),
                "{ty}"
            );
            assert_eq!(irr_driver::derive_compiled_plan(&p, s), None);
            let ran = assert_same_run(&p, |_| {});
            assert_eq!(ran.res, Ok(()));
            assert_eq!(ran.comp.output, vec![last]);
            assert_eq!(ran.dispatch.compiled, 0);
            assert_eq!(
                ran.dispatch.fallbacks,
                vec![(FallbackReason::Unsupported, 1)]
            );
            assert_eq!(ran.typed_iters(), 0);
        }
    }

    /// A nest past the lowering's other size limit —
    /// 65 536 inner loops, one block more than a `u16` addresses — is
    /// rejected by the lowering, reason-coded like any construct it
    /// does not replicate, everywhere the lowering runs: the driver's
    /// advisory plan is absent and the dispatch falls back before the
    /// first iteration. (The inner loops, offered one by one by the
    /// `Do` arm, each lower and run typed.)
    #[test]
    fn a_nest_with_more_blocks_than_a_u16_addresses_is_rejected_not_a_panic() {
        let body = "do j = 1, 1\ns = s + i\nenddo\n".repeat(usize::from(u16::MAX) + 1);
        let src = format!("program t\ninteger i, j, s\ndo i = 1, 1\n{body}enddo\nprint s\nend\n");
        let p = parse_program(&src).unwrap();
        let s = p.procedure(p.main()).body[0];
        assert_eq!(
            lower_do_loop(&p, s).err(),
            Some(LowerReject("block-count-overflow"))
        );
        assert_eq!(irr_driver::derive_compiled_plan(&p, s), None);
        let ran = assert_same_run(&p, |_| {});
        assert_eq!(ran.res, Ok(()));
        assert_eq!(ran.comp.output, vec!["65536"]);
        assert_eq!(
            ran.dispatch.fallbacks,
            vec![(FallbackReason::Unsupported, 1)]
        );
    }

    /// The lowering rules the corpus does not reach, run for parity:
    /// gather and scatter through a computed subscript (through an
    /// integer and a real index array), an index load that is itself
    /// fused, the literal-first three-term address, a repeated real
    /// `mod` (value-numbered), a mixed accumulate into an integer
    /// scalar, a real product accumulated product-first (not fused),
    /// and a store that must end the availability of loads from the
    /// array it writes — its own index loads included.
    #[test]
    fn lowering_rules_off_the_corpus_keep_parity() {
        let d = assert_parity(
            "program t
             integer i, k, m, idx(40), a(40)
             real s, r, ridx(40), x(40), y(40), z(40)
             do i = 1, 40
               idx(i) = mod(i * 7, 40) + 1
               ridx(i) = mod(i * 3, 40) + 1.75
               a(i) = mod(i * 11, 20) + 1
               x(i) = i * 0.5
             enddo
             do i = 1, 18
               y(idx(i * 2)) = x(idx(i * 2 + 1)) + x(ridx(i + i))
               z(ridx(2 * i)) = x(idx(i + 1)) - x(1 + (i + i))
               r = mod(x(i), 0.75) + mod(x(i), 0.75) * 2.0
               k = k + x(i) * 1.5
               m = m * 2 + 1.5
               s = x(i) * r + s
               a(a(i)) = mod(a(a(i)) + a(i), 40) + 1
               y(i) = y(i) + a(a(i)) * r
             enddo
             print k, m, s, r, y(3), z(7), a(5)
             end",
        );
        assert_eq!((d.compiled, d.fallback_count()), (2, 0));
    }

    /// An `IndexN` takes its subscripts as a slice, however many there
    /// are: at the parent commit their count passed through a `u8`, so
    /// at rank 256 it wrapped to 0 and at 257 to 1, and the typed loop
    /// read and wrote element 0 whatever the subscripts said (`7 7`
    /// against the walk's `5 9`).
    #[test]
    fn an_array_of_rank_256_or_more_indexes_the_same_element_on_both_engines() {
        for rank in [255, 256, 257] {
            let ones = "1, ".repeat(rank - 1);
            let (first, last) = (format!("a({ones}1)"), format!("a({ones}2)"));
            let src = format!(
                "program t
                 integer i
                 real a({ones}2)
                 {first} = 5.0
                 {last} = 7.0
                 do i = 1, 2
                   {last} = {last} + 1.0
                 enddo
                 print {first}, {last}
                 end"
            );
            let p = parse_program(&src).unwrap();
            let ran = assert_same_run(&p, |_| {});
            assert_eq!(ran.res, Ok(()));
            assert_eq!(ran.comp.output, vec!["5 9"], "rank {rank}");
            assert_eq!((ran.dispatch.compiled, ran.typed_iters()), (1, 2));
        }
    }

    /// Division, remainder, negation and `abs` wrap at `i64::MIN` like
    /// `+ - *` do, at compile time (constant folding) and on every
    /// executor: with constant operands, with operands read from
    /// arrays, and carried around a loop. At the parent commit
    /// `compile_source` panicked in constant propagation and the
    /// executors in `apply_bin` / `bin_i`.
    #[test]
    fn i64_min_division_remainder_negation_and_abs_wrap_everywhere() {
        use irr_driver::{compile_source, DegradeLevel, DriverOptions};
        let src = "program t
             integer i, m, d, k, x
             integer w(8), e(8), q(8), r(8), n(8), a(8)
             m = -9223372036854775807 - 1
             d = 0 - 1
             print m / d, mod(m, d), -m, abs(m)
             k = m / (0 - 1)
             x = mod(m, 0 - 1)
             print k, x, mod(m, 0 - 1)
             k = -m
             print k
             do i = 1, 8
               w(i) = m + mod(i, 2)
               e(i) = d
             enddo
             do i = 1, 8
               q(i) = w(i) / e(i)
               r(i) = mod(w(i), e(i))
               n(i) = -w(i)
               a(i) = abs(w(i))
             enddo
             print q(1), q(2), r(1), r(2), n(1), n(2), a(1), a(2)
             x = m
             do i = 1, 4
               x = -x
               x = x / e(i)
               x = abs(x)
               x = x + mod(x, e(i))
             enddo
             print x
             end";
        const MIN: &str = "-9223372036854775808";
        const MAX: &str = "9223372036854775807";
        let expected = vec![
            format!("{MIN} 0 {MIN} {MIN}"),
            format!("{MIN} 0 0"),
            MIN.to_string(),
            format!("{MAX} {MIN} 0 0 {MAX} {MIN} {MAX} {MIN}"),
            MIN.to_string(),
        ];
        compile_source(src, DriverOptions::with_iaa()).expect("compiles");
        for level in DegradeLevel::ALL {
            let p = parse_program(src).unwrap();
            let rep = level.compile_at(p, DriverOptions::with_iaa(), None);
            // The passes may fold the constant lines; what runs must
            // still print the wrapped values.
            let out = Interp::new(&rep.program).run().unwrap();
            assert_eq!(out.output, expected, "{}", level.name());
        }
        let p = parse_program(src).unwrap();
        let ran = assert_same_run(&p, |_| {});
        assert_eq!(ran.res, Ok(()));
        assert_eq!(ran.comp.output, expected);
        assert_eq!(ran.dispatch.fallback_count(), 0, "{:?}", ran.dispatch);
        assert!(ran.typed_iters() > 0);
        let mut hybrid = AlwaysParallel::default();
        let par = Interp::new(&p).run_dispatched(&mut hybrid).unwrap();
        assert_eq!(par.output, expected);
        assert_eq!(par.store, ran.comp.store);
    }

    /// The real plane's edges, on every executor: `mod(x, 0.0)` is NaN,
    /// a comparison with a NaN operand takes the one table's unordered
    /// pair as equal (`k` = 2 + 4 + 32: `<=`, `==` and `>=` hold), `min`
    /// and `max` with a NaN give the other operand, and `x / 0.0` is the
    /// program's `DivisionByZero`. The tree-walk, the typed loop and a
    /// parallel dispatch of every loop agree on output, store and error.
    /// (No NaN is left in the store: NaN is unequal to itself, so two
    /// stores holding one never compare equal.)
    #[test]
    fn real_division_by_zero_remainder_nan_comparisons_and_min_max_agree_everywhere() {
        let src = "program t
             integer i, k(8)
             real x(8), z(8), n(8), lo(8), hi(8), r(8)
             do i = 1, 8
               x(i) = i - 4.5
               z(i) = 0.0
             enddo
             do i = 1, 8
               n(i) = mod(x(i), z(i))
               k(i) = 0
               if (n(i) < x(i)) k(i) = k(i) + 1
               if (n(i) <= x(i)) k(i) = k(i) + 2
               if (n(i) == x(i)) k(i) = k(i) + 4
               if (n(i) /= x(i)) k(i) = k(i) + 8
               if (x(i) > n(i)) k(i) = k(i) + 16
               if (x(i) >= n(i)) k(i) = k(i) + 32
               lo(i) = min(x(i), n(i))
               hi(i) = max(n(i), x(i))
               n(i) = min(n(i), 0.0 - 1.0)
               r(i) = mod(x(i), 1.5)
             enddo
             print k(1), k(8), n(1), lo(1), hi(8), r(1), r(8)
             do i = 1, 8
               z(i) = x(i) / mod(i, 3)
             enddo
             end";
        let p = parse_program(src).unwrap();
        let ran = assert_same_run(&p, |_| {});
        assert_eq!(ran.res, Err(ExecError::DivisionByZero));
        assert_eq!(ran.comp.output, vec!["38 38 -1 -3.5 3.5 1 0.5"]);
        assert_eq!(ran.dispatch.fallback_count(), 0, "{:?}", ran.dispatch);
        // The loop that fails is not a completed typed entry.
        assert_eq!(ran.dispatch.compiled, 2);
        let mut hybrid = AlwaysParallel::default();
        let mut par = live(&p, |_| {});
        let res = par.exec_proc_with(p.main(), &mut hybrid);
        assert_eq!((res, hybrid.failed), (ran.res, vec![]));
        assert_eq!(par.output, ran.comp.output);
        // What the failed loop left behind is each executor's own; the
        // arrays the two loops before it wrote are not.
        for a in ["k", "x", "n", "lo", "hi", "r"] {
            let a = p.symbols.lookup(a).unwrap();
            assert_eq!(par.store.array_ref(a), ran.comp.store.array_ref(a));
        }
    }

    /// Pins by role: the typed loop takes unique ownership only of the
    /// arrays its body stores to. A read-only input keeps sharing its
    /// payload with a snapshot taken before the run — after a typed
    /// sequential entry, and after a write-log dispatch, whose chunks
    /// each logged into a copy of their own.
    #[test]
    fn read_only_inputs_stay_shared_across_typed_runs() {
        let src = "program t
             integer i
             real x(8), y(8)
             do i = 1, 8
               y(i) = x(i) * 3.0
             enddo
             end";
        let p = parse_program(src).unwrap();
        let y = p.symbols.lookup("y").unwrap();
        let setup = |it: &mut Interp<'_>| {
            preset_x(it);
            it.preset_array(y, ArrayData::zeroed(ScalarType::Real, vec![8]));
        };
        let ran = assert_same_run(&p, setup);
        assert_eq!(ran.typed_iters(), 8);
        assert!(ran.still_shared("x"), "read-only input was copied");
        assert!(!ran.still_shared("y"), "stored array must be un-shared");

        let mut par = live(&p, setup);
        let pre = par.store.clone();
        let s = p
            .stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| p.stmt(*s).kind.is_loop())
            .unwrap();
        let plan = ParallelPlan::with_threads(2);
        let got = crate::parallel::exec_do_parallel(&mut par, s, &plan, 1, 8, 1).unwrap();
        assert_eq!(got.strategy, crate::ExecutionStrategy::WriteLog);
        assert_eq!((got.chunks, par.probe.typed_root_iters), (2, 8));
        let x = p.symbols.lookup("x").unwrap();
        let pre_x = pre.array_ref(x).unwrap();
        assert!(pre_x.shares_buffer(par.store.array_ref(x).unwrap()));
        assert_eq!(
            par.store.array_as_reals(y),
            ran.comp.store.array_as_reals(y)
        );
    }

    /// The streams in the lowered bodies of `p`'s top-level `do`
    /// loops, by [`Stream::shape`].
    fn stream_shapes(p: &Program) -> Vec<String> {
        let top = &p.procedure(p.main()).body;
        let lowered = top.iter().filter_map(|s| lower_do_loop(p, *s).ok());
        lowered
            .flat_map(|cb| cb.streams().map(Stream::shape).collect::<Vec<_>>())
            .collect()
    }

    fn stream_loops(p: &Program) -> u32 {
        stream_shapes(p).len() as u32
    }

    fn preset_reals(it: &mut Interp<'_>, name: &str, data: &[f64]) {
        let v = it.program().symbols.lookup(name).unwrap();
        let (dims, data) = ([data.len()].into(), data.to_vec().into());
        it.preset_array(v, ArrayData::Real { dims, data });
    }

    /// A 5-iteration root stream, then a 5-iteration nested stream
    /// entered twice (SpMV's shape), over arrays the set-up loops have
    /// made live.
    const STREAMS_SRC: &str = "program t
         integer i, j, k, ptr(3), idx(12)
         real a(12), x(12), y(2), z(5)
         do k = 1, 12
           a(k) = k * 0.5
           x(k) = 13 - k
           idx(k) = 13 - k
         enddo
         do k = 1, 3
           ptr(k) = (k - 1) * 5 + 1
           z(k) = 0.0
           y(mod(k, 2) + 1) = 0.0
         enddo
         do k = 1, 5
           z(k) = a(k) * 1.5 + 0.25
         enddo
         do i = 1, 2
           y(i) = 0.0
           do j = 1, 5
             y(i) = y(i) + a(ptr(i) + j - 1) * x(idx(ptr(i) + j - 1))
           enddo
         enddo
         print z(5), y(1), y(2), k, j
         end";

    /// One statement per stream shape — the `FState::instantiate` arm
    /// that runs it (0 the catch-all: only the shapes a benchmark row
    /// runs get an instantiation of their own), the statement's
    /// [`Stream::shape`], the statement over [`shape_src`]'s arrays and,
    /// where a store can, the same shape with its sink aliasing an
    /// operand at another offset.
    const SHAPES: [(usize, &str, &str, Option<&str>); 10] = [
        (0, "elem = acc + val", "w(3) = w(3) + 1.5", None),
        (
            2,
            "lin = lin·val + val",
            "z(k) = x(k) * 1.5 + 0.25",
            Some("z(k + 1) = z(k) * 1.5 + 0.25"),
        ),
        (
            3,
            "ind = lin·val",
            "z(idx(k)) = x(k) * 2.0",
            Some("z(idx(k)) = z(k) * 2.0"),
        ),
        (0, "scalar = acc + lin", "s = s + x(k)", None),
        (
            0,
            "lin = lin·val + lin",
            "z(k) = x(k) * 0.98 + y(k)",
            Some("z(k + 1) = z(k) * 0.98 + z(k + 2)"),
        ),
        (
            0,
            "lin = lin + lin·val",
            "z(k) = y(k) + x(k) * 0.5",
            Some("z(k) = z(k + 1) + z(k + 2) * 0.5"),
        ),
        (
            4,
            "elem = acc + lin·ind",
            "w(3) = w(3) + x(k) * y(idx(k))",
            None,
        ),
        (
            0,
            "elem = acc − lin·ind",
            "w(3) = w(3) - x(k) * y(idx(k))",
            None,
        ),
        (
            0,
            "lin = lin + lin",
            "z(k) = x(k) + y(k)",
            Some("z(k + 1) = z(k) + z(k + 2)"),
        ),
        (
            0,
            "ind = lin + val",
            "z(idx(k)) = x(k) + 1.0",
            Some("z(idx(k)) = z(k) + 1.0"),
        ),
    ];

    /// `stmt` as the body of `do k = 1, hi` over `n`-element arrays a
    /// four-statement loop has made live — the root of a typed run, or
    /// (`nest`) entered twice inside one, behind a statement no row of a
    /// segmented stream takes, so that each entry streams on its own.
    /// `smash` runs between the fill and the loop.
    fn shape_src(stmt: &str, n: usize, hi: usize, smash: &str, nest: bool) -> String {
        let (open, close) = if nest {
            ("do i = 1, 2\n w(4) = i", "enddo")
        } else {
            ("", "")
        };
        format!(
            "program t
             integer i, k, idx({n})
             real s, w(4), x({n}), y({n}), z({n})
             do k = 1, {n}
               idx(k) = {n} + 1 - k
               x(k) = k * 0.5
               y(k) = 3.0 - k * 0.25
               z(k) = k
             enddo
             w(3) = 2.0
             s = 1.0
             {smash}
             {open}
             do k = 1, {hi}
               {stmt}
             enddo
             {close}
             print s, i, k, w(3), z(1), z({n})
             end"
        )
    }

    /// Parses [`shape_src`] and checks its one stream is of `shape`.
    fn shape_program(row: (&str, &str), n: usize, hi: usize, smash: &str, nest: bool) -> Program {
        let (shape, stmt) = row;
        let p = parse_program(&shape_src(stmt, n, hi, smash, nest)).unwrap();
        assert_eq!(stream_shapes(&p), [shape], "{stmt}");
        p
    }

    /// The segmented streams' rows each arm of the table ran.
    fn rows_per_arm(probe: &Probe) -> [u64; 5] {
        probe.arms.map(|a| a[1])
    }

    /// Every kernel the run entered was instantiation `arm`, and strips
    /// entered it `entered` times; no segmented stream ran.
    fn assert_only_arm(ran: &Ran<'_>, arm: usize, entered: u64, what: &str) {
        let mut want = [[0; 2]; 5];
        want[arm][0] = entered;
        assert_eq!(ran.comp.probe.arms, want, "{what}");
    }

    /// Every instantiation, at the root and nested, is entered by the
    /// statement the table says, runs every iteration, and leaves what
    /// the tree-walk leaves. A loop of 2 500 iterations, at the root or
    /// nested alike, takes three strips an entry and counts one stream
    /// entry.
    #[test]
    fn every_kernel_instantiation_is_entered_and_matches_the_tree_walk() {
        for (arm, shape, stmt, _) in SHAPES {
            for (n, nest) in [(40, false), (40, true), (2500, false), (2500, true)] {
                let p = shape_program((shape, stmt), n, n, "", nest);
                let ran = assert_same_run(&p, |_| {});
                assert_eq!(ran.res, Ok(()), "{stmt}");
                let entries = 1 + u64::from(nest);
                let strips = (n as u64).div_ceil(1024);
                assert_only_arm(&ran, arm, entries * strips, stmt);
                let stats = &ran.comp.stats;
                assert_eq!(
                    (stats.stream_entries, stats.stream_iters),
                    (entries, n as u64 * entries),
                    "{stmt}"
                );
            }
        }
    }

    /// Fuel running out at every position of a streamed loop — before
    /// the statement's charge and before the bookkeeping charge of each
    /// of its iterations, at the root and nested, in every
    /// instantiation — stops both engines at the same point: the stream
    /// takes `fuel / 2` iterations and the per-iteration ops meet the
    /// exhaustion. So does fuel that runs out either side of a nested
    /// loop's strip boundary: the first entry's two and the second's
    /// first, at 2 500 iterations an entry.
    #[test]
    fn a_stream_runs_out_of_fuel_where_the_tree_walk_does() {
        let sweep = |p: &Program| {
            let full = assert_same_run(p, |_| {});
            assert_eq!(full.res, Ok(()));
            let mut cut_short = 0;
            for fuel in 0..full.comp.stats.total_cost {
                let ran = assert_same_run(p, |it| it.fuel = fuel);
                assert_eq!(ran.res, Err(ExecError::OutOfFuel), "fuel {fuel}");
                cut_short += ran.comp.stats.stream_entries;
            }
            (full.comp.stats.stream_entries, cut_short)
        };
        let p = parse_program(STREAMS_SRC).unwrap();
        assert_eq!(stream_loops(&p), 2);
        let (entries, cut_short) = sweep(&p);
        // Well over the 20 budgets that end inside a streamed entry.
        assert!(entries == 3 && cut_short > 40, "{entries} {cut_short}");
        for (_, shape, stmt, _) in SHAPES {
            for nest in [false, true] {
                let (_, cut_short) = sweep(&shape_program((shape, stmt), 5, 5, "", nest));
                assert!(cut_short >= 8, "{stmt}: {cut_short}");
            }
            let p = shape_program((shape, stmt), 2500, 2500, "", true);
            for iters in [1024, 2048, 2500 + 1024] {
                let at = budget_for(&p, iters, |it| it.stats.stream_iters);
                for fuel in at - 2..=at + 2 {
                    let ran = assert_same_run(&p, |it| it.fuel = fuel);
                    assert_eq!(ran.res, Err(ExecError::OutOfFuel), "{stmt}: fuel {fuel}");
                    let streamed = ran.comp.stats.stream_iters;
                    assert!(streamed.abs_diff(iters) <= 1, "{stmt}: {streamed}");
                }
            }
        }
    }

    /// The least fuel at which the compiled run of `p` has `count`ed at
    /// least `want`: where a strip boundary falls in the fuel ledger.
    fn budget_for(p: &Program, want: u64, count: impl Fn(&Interp<'_>) -> u64) -> u64 {
        let reached = |fuel| {
            let mut it = live(p, |it| it.fuel = fuel);
            let _ = it.exec_proc_with(p.main(), &mut CompiledDispatch::new());
            count(&it) >= want
        };
        let (mut lo, mut hi) = (0, 1 << 24);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if reached(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// An INDIRECT subscript out of range at the first iteration, in
    /// the middle of a strip, at a strip's last iteration and at the
    /// next strip's first, at the root and nested: the stream stops
    /// before the offending iteration and the per-iteration op raises
    /// the program's own error over the tree-walk's store. A shape
    /// without an INDIRECT reference never reads the smashed element.
    #[test]
    fn a_stream_stops_before_an_indirect_subscript_out_of_range() {
        const N: usize = 1100;
        for (arm, shape, stmt, _) in SHAPES {
            for bad in [1, 500, 1024, 1025] {
                for nest in [false, true] {
                    let smash = format!("idx({bad}) = {}", N + 1);
                    let p = shape_program((shape, stmt), N, N, &smash, nest);
                    let ran = assert_same_run(&p, |_| {});
                    let what = format!("{stmt}, bad {bad}, nest {nest}");
                    let iters = ran.comp.stats.stream_iters;
                    if shape.contains("ind") {
                        let index = N as i64 + 1;
                        assert!(
                            matches!(&ran.res, Err(ExecError::OutOfBounds { index: i, .. }) if *i == index),
                            "{what}: {:?}",
                            ran.res
                        );
                        assert_eq!(iters, bad - 1, "{what}");
                        // The strips before the bad one, and the bad one.
                        let strips = (bad - 1) / 1024 + 1;
                        assert_only_arm(&ran, arm, strips, &what);
                    } else {
                        assert_eq!(ran.res, Ok(()), "{what}");
                        assert_eq!(iters, N as u64 * (1 + u64::from(nest)), "{what}");
                    }
                }
            }
        }
    }

    /// The range edges a stream's guard must decline on, leaving the
    /// outcome to the per-iteration ops: a LINEAR range one past the
    /// extent, in every instantiation (the strip before it still
    /// streams, at the root and nested alike) and in the second of two
    /// references that share their invariant part; a base past `i64`
    /// (which wraps, on both engines, to the program's own
    /// out-of-bounds index) and one that wraps back into range; a
    /// zero-trip loop, whose `ptr(i + 5)` nobody may evaluate; and a
    /// loop ending at `i64::MAX`, root and nested.
    #[test]
    fn stream_guards_decline_at_the_range_edges() {
        const N: usize = 1100;
        for (arm, shape, stmt, _) in SHAPES {
            for nest in [false, true] {
                let p = shape_program((shape, stmt), N, N + 1, "", nest);
                let ran = assert_same_run(&p, |_| {});
                let what = format!("{stmt}, nest {nest}");
                let (iters, entered) = if shape.contains("lin") || shape.contains("ind") {
                    assert!(
                        matches!(ran.res, Err(ExecError::OutOfBounds { index: 1101, .. })),
                        "{what}: {:?}",
                        ran.res
                    );
                    // The second strip enters the kernel's arm and declines
                    // at its LINEAR range.
                    (1024, 2)
                } else {
                    assert_eq!(ran.res, Ok(()), "{what}");
                    // Two strips an entry.
                    let entries = 1 + u64::from(nest);
                    (1101 * entries, 2 * entries)
                };
                assert_eq!(ran.comp.stats.stream_iters, iters, "{what}");
                assert_only_arm(&ran, arm, entered, &what);
            }
        }
        let run = |decls: &str, body: &str| {
            let src = format!(
                "program t
                 integer i, j, k, m, ptr(2)
                 real s, x(6), z(5), u(6), v(5)
                 {decls}
                 do k = 1, 5
                   x(k) = k * 0.5
                   z(k) = 0.0
                   u(k) = 0.0
                   v(k) = k
                 enddo
                 x(6) = 3.0
                 ptr(1) = 1
                 {body}
                 print s, i, j, k, z(1), z(5)
                 end"
            );
            let p = parse_program(&src).unwrap();
            assert!(stream_loops(&p) > 0, "{body}");
            let ran = assert_same_run(&p, |_| {});
            (ran.res.clone(), ran.comp.stats.stream_entries)
        };
        let oob = |array: &str, index| {
            let array = array.to_string();
            Err(ExecError::OutOfBounds {
                array,
                index,
                extent: 5,
            })
        };
        let past = "do k = 1, 6\n z(k) = x(k) * 2.0\n enddo";
        assert_eq!(run("", past), (oob("z", 6), 0));
        // `u(k)` and `x(k)` hold six elements, `v(k)` — the same `k`,
        // evaluated once for the three — five.
        let second = "do k = 1, 6\n u(k) = x(k) * 2.0 + v(k)\n enddo";
        assert_eq!(run("", second), (oob("v", 6), 0));
        let max = "m = 9223372036854775807";
        let wraps = "do k = 1, 3\n z(m + k) = x(k)\n enddo";
        assert_eq!(run(max, wraps), (oob("z", i64::MIN), 0));
        let wraps_back = "do k = 1, 3\n z(k + m - m) = x(k)\n enddo";
        assert_eq!(run(max, wraps_back), (Ok(()), 1));
        let zero_trip = "do i = 1, 2\n do j = 1, 0\n z(ptr(i + 5) + j) = x(j)\n enddo\n enddo";
        assert_eq!(run("", zero_trip), (Ok(()), 0));
        let to_max = "do k = 9223372036854775805, 9223372036854775807\n s = s + 1.5\n enddo";
        assert_eq!(run("", to_max), (Ok(()), 1));
        let nested = "do i = 1, 2\n do j = 9223372036854775805, 9223372036854775807
             s = s + 0.5\n enddo\n enddo";
        assert_eq!(run("", nested), (Ok(()), 2));
    }

    /// A reduction into `y(i)` streams (Jacobi's `y(i) = y(i) - a * x`)
    /// unless an operand reads the array it accumulates into — the
    /// triangular solve, whose running value would go stale in a
    /// register — which stays on the per-iteration ops.
    #[test]
    fn a_reduction_streams_unless_an_operand_reads_its_array() {
        for (reads, streams) in [("xold", 1), ("y", 0)] {
            let src = format!(
                "program t
                 integer i, j, ptr(5), len(4), idx(8)
                 real val(8), xold(4), y(4), b(4)
                 do i = 1, 8
                   idx(i) = mod(i * 3, 4) + 1
                   val(i) = i * 0.25
                 enddo
                 do i = 1, 4
                   ptr(i) = (i - 1) * 2 + 1
                   len(i) = 2
                   xold(i) = i
                   b(i) = 10 - i
                   y(i) = 0.0
                 enddo
                 do i = 1, 4
                   y(i) = b(i)
                   do j = 1, len(i)
                     y(i) = y(i) - val(ptr(i) + j - 1) * {reads}(idx(ptr(i) + j - 1))
                   enddo
                 enddo
                 print y(1), y(2), y(3), y(4)
                 end"
            );
            let p = parse_program(&src).unwrap();
            assert_eq!(stream_loops(&p), streams, "{reads}");
            let ran = assert_same_run(&p, |_| {});
            assert_eq!(ran.res, Ok(()));
            assert_eq!(ran.comp.stats.stream_entries, 4 * u64::from(streams));
        }
    }

    /// A statement of [`ROW_INVS`](irr_driver::compiled::ROW_INVS)
    /// distinct subscript parts streams; one of 17 gets no stream from
    /// the lowering — its plan counts none — and runs every iteration on
    /// the per-iteration ops, as the tree-walk does.
    #[test]
    fn a_table_past_row_invs_gets_no_stream() {
        for (parts, streams) in [(16, 1), (17, 0)] {
            // `p(1)` … `p(parts − 2)`, their sum and `x(k)`'s `0`.
            let sum: String = (1..parts - 1).map(|k| format!("p({k}) + ")).collect();
            let src = format!(
                "program t
                 integer k, p(15)
                 real x(8), z(12)
                 do k = 1, 8
                   x(k) = k * 0.5
                   p(mod(k, 4) + 1) = mod(k, 2)
                 enddo
                 do k = 1, 7
                   z({sum}k) = x(k) * 2.0
                 enddo
                 print z(3), z(9)
                 end"
            );
            let p = parse_program(&src).unwrap();
            let s = p.procedure(p.main()).body[1];
            let plan = irr_driver::compiled::derive_compiled_plan(&p, s).unwrap();
            assert_eq!(plan.stream_loops, streams, "{parts}");
            let ran = assert_same_run(&p, |_| {});
            assert_eq!(ran.res, Ok(()), "{parts}");
            assert_eq!(ran.typed_iters(), 8 + 7, "{parts}");
            let stats = &ran.comp.stats;
            let want = (u64::from(streams), 7 * u64::from(streams));
            assert_eq!((stats.stream_entries, stats.stream_iters), want, "{parts}");
        }
    }

    /// A store sink runs in program order through one payload, in every
    /// instantiation that stores: a recurrence reads what the iteration
    /// before wrote, an anti-dependence what no iteration has written
    /// yet, and a scatter may read the array it permutes.
    #[test]
    fn a_stream_through_its_own_sink_keeps_program_order() {
        for (arm, shape, _, aliased) in SHAPES {
            let Some(stmt) = aliased else { continue };
            for nest in [false, true] {
                let p = shape_program((shape, stmt), 40, 38, "", nest);
                let ran = assert_same_run(&p, |_| {});
                assert_eq!(ran.res, Ok(()), "{stmt}");
                assert_only_arm(&ran, arm, 1 + u64::from(nest), stmt);
            }
        }
    }

    /// Signed zeros, infinities, an overflow and NaNs of two payloads
    /// through every instantiation and every form of the tail — `c − P`
    /// beside `P − c`, whose zeros and payloads tell them apart — bit
    /// for bit what the tree-walk computes. No operation here meets two
    /// NaNs — which of two payloads an addition returns is the code
    /// generator's choice at every site, on every engine.
    #[test]
    fn stream_forms_are_bit_exact_on_zeros_infinities_and_nans() {
        let forms = [
            "z(k) = x(k)",
            "z(k) = x(k) * y(k) + z(k)",
            "z(k) = x(k) * y(k) - z(k)",
            "z(k) = z(k) + x(k) * y(k)",
            "z(k) = z(k) - x(k) * y(k)",
            "z(k) = x(k) - y(k)",
            "z(k) = x(k) * 1.0 - z(k)",
            "z(k) = z(k) - x(k) * 1.0",
        ];
        let table = SHAPES.map(|(arm, _, stmt, _)| (arm, stmt));
        let (inf, nan_a, nan_b) = (
            f64::INFINITY,
            f64::from_bits(0x7ff8_0000_0000_1234),
            f64::from_bits(0xfff8_0000_0000_0abc),
        );
        let setup = |it: &mut Interp<'_>| {
            preset_reals(it, "x", &[0.0, -0.0, 0.0, -0.0, 1.0e308, 2.0, inf, nan_a]);
            preset_reals(it, "y", &[1.0, 1.0, -0.0, 0.0, 10.0, -1.0, 1.0, 1.0]);
            preset_reals(it, "z", &[0.0, 0.0, -0.0, 0.0, nan_b, inf, -inf, 1.0]);
            preset_reals(it, "w", &[0.0, 0.0, -0.0, 0.0]);
            let idx = it.program().symbols.lookup("idx").unwrap();
            let data: Vec<i64> = (1..=8).rev().collect();
            let (dims, data) = ([8].into(), data.into());
            it.preset_array(idx, ArrayData::Int { dims, data });
        };
        for (arm, stmt) in table.into_iter().chain(forms.map(|f| (0, f))) {
            let src = format!(
                "program t
                 integer k, idx(8)
                 real s, w(4), x(8), y(8), z(8)
                 do k = 1, 8
                   {stmt}
                 enddo
                 end"
            );
            let p = parse_program(&src).unwrap();
            assert_eq!(stream_loops(&p), 1, "{stmt}");
            let mut seq = live(&p, setup);
            seq.exec_proc_with(p.main(), &mut SequentialDispatch)
                .unwrap();
            let mut comp = live(&p, setup);
            let mut dispatch = CompiledDispatch::new();
            comp.exec_proc_with(p.main(), &mut dispatch).unwrap();
            assert_eq!(
                (dispatch.compiled, comp.stats.stream_iters),
                (1, 8),
                "{stmt}"
            );
            assert_eq!(comp.probe.arms[arm][0], 1, "{stmt}");
            let bits = |it: &Interp<'_>| -> Vec<u64> {
                let var = |name| p.symbols.lookup(name).unwrap();
                let reals = |name| it.store.array_as_reals(var(name)).unwrap();
                let s = it.store.scalar(var("s")).as_real();
                let all = reals("z").into_iter().chain(reals("w")).chain([s]);
                all.map(f64::to_bits).collect()
            };
            assert_eq!(bits(&seq), bits(&comp), "{stmt}");
        }
    }

    /// A root-level stream polls the chunk's deadline between strips, and
    /// so does a segmented one between strips of rows: a chunk of 3 000
    /// iterations (or one-element rows) that times out has run a whole
    /// number of strips, none when the deadline had passed at entry, and
    /// an armed deadline that does not pass changes nothing.
    #[test]
    fn a_root_stream_polls_its_deadline_between_strips() {
        let root = "do k = 1, 3000\n z(k) = x(k) * 1.5 + 0.25\n enddo";
        // The same iterations as one-element rows of a segmented stream.
        let rows = "do i = 1, 3000\n do k = i, i\n z(k) = x(k) * 1.5 + 0.25\n enddo\n enddo";
        for (body, segmented) in [(root, false), (rows, true)] {
            polls_between_strips(body, segmented);
        }
    }

    /// Root iterations `range` of `cb` as a chunk runs them
    /// ([`FState::run`]) under `deadline`, storing straight into the
    /// master's arrays; returns how the run ended and the root
    /// iterations it started.
    fn run_until(
        it: &mut Interp<'_>,
        cb: &CompiledBody,
        range: (i64, i64, i64),
        deadline: Deadline,
    ) -> (Result<(), Abort>, u64) {
        let slots = cb.arrays().iter().zip(cb.stored());
        let direct = |(&a, &stored): (&VarId, &bool)| {
            stored.then(|| WriteSink::Direct(it.store.payload_raw(a)))
        };
        let mut sinks: Vec<_> = slots.map(direct).collect();
        let cx = Typed {
            program: it.program(),
            store: &it.store,
        };
        let mut st = FState::default();
        let res = st.run(cx, cb, range, (it.fuel, deadline), &mut sinks);
        (res, st.probe.typed_root_iters)
    }

    fn polls_between_strips(body: &str, segmented: bool) {
        let src = format!(
            "program t
             integer i, k
             real x(3000), z(3000)
             {body}
             end"
        );
        let p = parse_program(&src).unwrap();
        assert_eq!(seg_shapes(&p).len(), usize::from(segmented));
        let s = p.procedure(p.main()).body[0];
        let mut ran_short = false;
        for micros in [0, 1, 2, 4, 8, 16, 3_600_000_000] {
            let mut it = live(&p, |it| preset_reals(it, "x", &[2.0; 3000]));
            let cb = it.compiled_body_for(s).unwrap();
            let deadline = Some((Instant::now(), Duration::from_micros(micros)));
            let (res, iters) = run_until(&mut it, &cb, (1, 3000, 1), deadline);
            let z = it
                .store
                .array_as_reals(p.symbols.lookup("z").unwrap())
                .unwrap();
            let done = z.iter().take_while(|v| **v == 3.25).count();
            assert!(z[done..].iter().all(|v| *v == 0.0));
            assert_eq!(iters, done as u64);
            match res {
                Ok(()) => assert_eq!(done, 3000),
                Err(Abort::Fallback(FallbackReason::Timeout, None)) => {
                    assert!(
                        done % 1024 == 0 && done < 3000,
                        "stopped inside a strip: {done}"
                    );
                    ran_short = true;
                }
                Err(e) => panic!("{e:?}"),
            }
            assert!(micros > 0 || done == 0);
            assert!(micros < 1_000_000 || done == 3000);
        }
        assert!(ran_short);
    }

    /// A worker's deadline stops a chunk inside a long inner loop, not
    /// only between root iterations: one root iteration whose body, past
    /// a statement no row takes, is a stream, a segmented nest, a per-op
    /// `do` or a `while` of 10^8 iterations (0.1 s or more in a release
    /// build) ends `TimedOut` at a 5 ms deadline.
    #[test]
    fn a_deadline_stops_a_chunk_inside_a_long_inner_loop() {
        for (inner, streams, segs) in [
            ("do k = 1, N\n s = s + 1.5\n enddo", 1, 0),
            (
                "do i = 1, N\n do k = 1, 2\n s = s + 1.5\n enddo\n enddo",
                1,
                1,
            ),
            ("do k = 1, N\n s = s + 1.5\n t = t + 1\n enddo", 0, 0),
            ("while (t < N)\n t = t + 1\n endwhile", 0, 0),
        ] {
            let inner = inner.replace('N', "100000000");
            let src = format!(
                "program t
                 integer i, k, r, t
                 real s
                 do r = 1, 1
                   t = r
                   {inner}
                 enddo
                 print s, t
                 end"
            );
            let p = parse_program(&src).unwrap();
            assert_eq!(stream_loops(&p), streams, "{inner}");
            assert_eq!(seg_shapes(&p).len(), segs, "{inner}");
            let mut it = live(&p, |_| {});
            let cb = it.compiled_body_for(p.procedure(p.main()).body[0]).unwrap();
            let deadline = Some((Instant::now(), Duration::from_millis(5)));
            let (res, iters) = run_until(&mut it, &cb, (1, 1, 1), deadline);
            let timed_out = Err(Abort::Fallback(FallbackReason::Timeout, None));
            assert_eq!(res, timed_out, "{inner}");
            assert_eq!(iters, 1);
        }
    }

    /// Requests the parallel executor at every loop entry — the
    /// hybrid runtime's dispatch, minus its guards.
    #[derive(Default)]
    struct AlwaysParallel {
        failed: Vec<FallbackReason>,
    }

    impl LoopDispatcher for AlwaysParallel {
        fn dispatch(&mut self, _: &Store, _: StmtId, _: i64, _: i64, _: i64) -> LoopDecision {
            LoopDecision::Parallel(ParallelPlan::default())
        }

        fn parallel_failed(&mut self, _: StmtId, reason: FallbackReason) {
            self.failed.push(reason);
        }
    }

    /// A loop whose last iteration sits at `i64::MAX` ends there on
    /// every executor — no overflow panic, no wrap-around spin — with
    /// the induction variable at the wrapped sum; the chunked executor
    /// declines the trip-count arithmetic and falls back.
    #[test]
    fn induction_overflow_ends_the_loop_on_every_executor() {
        let src = "program t
             integer i, j, n
             real a(3), b(3)
             do i = 9223372036854775805, 9223372036854775807
               n = n + 1
               a(n) = n * 1.5
             enddo
             print n, i
             n = 0
             do i = 1, 2
               do j = 9223372036854775806, 9223372036854775807
                 n = n + 1
               enddo
               b(i) = n
             enddo
             print n, i, j
             do i = -9223372036854775807, -9223372036854775807 - 1, -1
               n = n + 1
             enddo
             print n, i
             end";
        let p = parse_program(src).unwrap();
        let seq = Interp::new(&p).run().unwrap();
        assert_eq!(
            seq.output,
            vec![
                "3 -9223372036854775808",
                "4 3 -9223372036854775808",
                "6 9223372036854775807"
            ]
        );
        // Typed inner loop included.
        let ran = assert_same_run(&p, |_| {});
        assert_eq!(ran.comp.output, seq.output);
        let mut hybrid = AlwaysParallel::default();
        let par = Interp::new(&p).run_dispatched(&mut hybrid).unwrap();
        assert_eq!(par.output, seq.output);
        assert_eq!(par.store, seq.store);
        assert!(hybrid.failed.contains(&FallbackReason::Unsupported));
    }

    /// The segmented streams in the lowered bodies of `p`'s top-level
    /// `do` loops, by [`SegStream::shape`](irr_driver::compiled::SegStream::shape).
    fn seg_shapes(p: &Program) -> Vec<String> {
        let top = &p.procedure(p.main()).body;
        let lowered = top.iter().filter_map(|s| lower_do_loop(p, *s).ok());
        lowered
            .flat_map(|cb| cb.segs().map(|sg| sg.shape()).collect::<Vec<_>>())
            .collect()
    }

    /// `stmt` (over `k`) as the inner loop of rows `1 ..= lens.len()`
    /// of an offset–length nest over [`shape_src`]'s arrays — row `i`
    /// runs `k = ptr(i) .. ptr(i + 1) - 1`, `lens[i - 1]` iterations —
    /// with `init` before it and `fin` after; `smash` runs between the
    /// fill and the rows. With `nest` the row loop is entered twice,
    /// inside a loop whose body no row of a segmented stream takes.
    fn seg_src(init: &str, stmt: &str, fin: &str, lens: &[i64], smash: &str, nest: bool) -> String {
        let rows = lens.len();
        let n = lens.iter().sum::<i64>().max(40);
        let mut ptrs = String::from("ptr(1) = 1");
        for (r, len) in lens.iter().enumerate() {
            ptrs += &format!("\n ptr({}) = ptr({}) + {len}", r + 2, r + 1);
        }
        let (open, close) = if nest {
            ("do t = 1, 2\n w(4) = t", "enddo")
        } else {
            ("", "")
        };
        format!(
            "program t
             integer i, k, t, idx({n}), ptr({rp})
             real s, w(4), x({n}), y({n}), z({n})
             do k = 1, {n}
               idx(k) = {n} + 1 - k
               x(k) = k * 0.5
               y(k) = 3.0 - k * 0.25
               z(k) = k
             enddo
             w(3) = 2.0
             s = 1.0
             {ptrs}
             {smash}
             {open}
             do i = 1, {rows}
               {init}
               do k = ptr(i), ptr(i + 1) - 1
                 {stmt}
               enddo
               {fin}
             enddo
             {close}
             print s, i, k, w(3), z(1), z({n})
             end",
            rp = rows + 1
        )
    }

    /// [`assert_same_run`] of `p`, then the same compiled run with the
    /// segmented kernel held off: the per-row path's stream entries,
    /// iterations and per-loop statistics are the kernel's.
    fn assert_seg_run<'p>(p: &'p Program, setup: impl Fn(&mut Interp<'p>)) -> Ran<'p> {
        let ran = assert_same_run(p, &setup);
        let mut rows = live(p, &setup);
        rows.scope.buffers.planes().segs_off = true;
        let res = rows.exec_proc_with(p.main(), &mut CompiledDispatch::new());
        assert_eq!(res, ran.res);
        assert_eq!(rows.store, ran.comp.store);
        assert_eq!(rows.fuel, ran.comp.fuel);
        assert_stats_eq(&rows.stats, &ran.comp.stats);
        let streamed = |it: &Interp<'_>| (it.stats.stream_entries, it.stats.stream_iters);
        assert_eq!(streamed(&rows), streamed(&ran.comp));
        assert_eq!(rows_per_arm(&rows.probe), [0; 5]);
        ran
    }

    /// Row lengths with empty rows at both ends and in the middle.
    const LENS: [i64; 7] = [0, 3, 1, 0, 5, 2, 0];

    /// Every statement of [`SHAPES`], and `colscale`'s in-place one, as
    /// the inner loop of a row loop: a lane sink with an INDIRECT
    /// reference stays on its per-row streams, every other shape runs
    /// its rows in the two-level kernel — `colscale`'s in place and out
    /// of place and SpMV's on their own instantiations — and leaves what
    /// the tree-walk and the per-row path leave, to the stream counts.
    #[test]
    fn every_row_shape_runs_whole_rows_and_matches_the_per_row_path() {
        let in_place = ("lin = lin·val + val", "z(k) = z(k) * 1.5 + 0.25");
        let arm = |shape: &str, stmt: &str| match shape {
            "lin = lin·val + val" if stmt == in_place.1 => 1,
            "lin = lin·val + val" => 2,
            "elem = acc + lin·ind" => 4,
            _ => 0,
        };
        let stmts = SHAPES.iter().flat_map(|&(_, shape, stmt, aliased)| {
            let forms = [Some(stmt), aliased].into_iter().flatten();
            forms.map(move |stmt| (shape, stmt))
        });
        for (shape, stmt) in stmts.chain([in_place]) {
            let p = parse_program(&seg_src("", stmt, "", &LENS, "", false)).unwrap();
            let ran = assert_seg_run(&p, |_| {});
            assert_eq!(ran.res, Ok(()), "{stmt}");
            let mut want = [0; 5];
            if shape.starts_with("ind") {
                assert_eq!(seg_shapes(&p), Vec::<String>::new(), "{stmt}");
            } else {
                assert_eq!(seg_shapes(&p), [shape], "{stmt}");
                want[arm(shape, stmt)] = LENS.len() as u64;
            }
            assert_eq!(rows_per_arm(&ran.comp.probe), want, "{stmt}");
            let nonempty = LENS.iter().filter(|&&n| n > 0).count() as u64;
            assert_eq!(ran.comp.stats.stream_entries, nonempty, "{stmt}");
        }
    }

    /// The row statements a segmented stream takes around a reduction —
    /// an initialization from a literal, the row variable or an
    /// element, a final store in either operand order — run whole rows,
    /// SpMV's on its own instantiation; a row body the family does not
    /// take stays on the per-row path.
    #[test]
    fn row_statements_around_a_reduction_run_in_the_kernel() {
        let spmv = "y(i) = y(i) + x(k) * z(idx(k))";
        let jacobi = "y(i) = y(i) - x(k) * z(idx(k))";
        let rows = LENS.len() as u64;
        for (init, stmt, fin, shape, arm) in [
            (
                "y(i) = 0.0",
                spmv,
                "",
                "elem := val; elem = acc + lin·ind",
                4,
            ),
            ("y(i) = i", spmv, "", "elem := val; elem = acc + lin·ind", 4),
            ("", spmv, "", "elem = acc + lin·ind", 4),
            (
                "y(i) = w(3)",
                jacobi,
                "y(i) = y(i) * x(i)",
                "elem := elem; elem = acc − lin·ind; elem := acc · elem",
                0,
            ),
            (
                "y(i) = z(i + 1)",
                jacobi,
                "y(i) = 0.5 - y(i)",
                "elem := elem; elem = acc − lin·ind; elem := val − acc",
                0,
            ),
            (
                "s = 0.0",
                "s = s + x(k)",
                "",
                "scalar := val; scalar = acc + lin",
                0,
            ),
            ("", "s = s + x(k) * 2.0", "", "scalar = acc + lin·val", 0),
            (
                "y(i) = 1.5",
                "y(i) = y(i) + x(k)",
                "y(i) = y(i) + 1",
                "elem := val; elem = acc + lin; elem := acc + val",
                0,
            ),
        ] {
            let p = parse_program(&seg_src(init, stmt, fin, &LENS, "", false)).unwrap();
            let ran = assert_seg_run(&p, |_| {});
            assert_eq!(ran.res, Ok(()), "{init}; {stmt}; {fin}");
            assert_eq!(seg_shapes(&p).concat(), shape, "{init}; {stmt}; {fin}");
            let mut want = [0; 5];
            want[arm] = rows;
            assert_eq!(rows_per_arm(&ran.comp.probe), want, "{init}; {stmt}; {fin}");
        }
        for (init, fin) in [
            ("w(4) = 0.0", ""),                   // initializes another element
            ("y(i) = 0.0", "w(4) = y(i)"),        // stores the value elsewhere
            ("y(i) = 0.0", "y(i) = y(i) + y(i)"), // reads it twice
            ("y(i) = 0.0", "y(i) = y(i) / 2"),    // a division can fail
            ("y(i) = y(k)", ""),                  // reads `k` before the loop
        ] {
            let p = parse_program(&seg_src(init, spmv, fin, &LENS, "", false)).unwrap();
            assert_eq!(seg_shapes(&p), Vec::<String>::new(), "{init}; {fin}");
            let ran = assert_seg_run(&p, |_| {});
            assert_eq!(rows_per_arm(&ran.comp.probe), [0; 5]);
        }
        // A subscript part with the row variable in two terms is not a
        // form the kernel evaluates rows in.
        let src = seg_src("", "z(k) = z(k - i + i) * 0.5", "", &LENS, "", false);
        let p = parse_program(&src).unwrap();
        assert_eq!(seg_shapes(&p), Vec::<String>::new());
    }

    /// Fuel running out at every position of every row — in its
    /// statements, in each iteration, in the row loop's bookkeeping —
    /// stops the kernel before the row it cannot pay for whole, and the
    /// per-row path stops where the tree-walk does.
    #[test]
    fn a_row_runs_out_of_fuel_where_the_tree_walk_does() {
        for (init, stmt, fin) in [
            ("y(i) = 0.0", "y(i) = y(i) + x(k) * z(idx(k))", ""),
            (
                "y(i) = w(3)",
                "y(i) = y(i) - x(k) * z(idx(k))",
                "y(i) = y(i) * 2.0",
            ),
            ("", "z(k) = z(k) * 0.5 + 1.0", ""),
        ] {
            let p = parse_program(&seg_src(init, stmt, fin, &LENS, "", false)).unwrap();
            let full = assert_seg_run(&p, |_| {});
            let mut kernel_rows = 0;
            for fuel in 0..full.comp.stats.total_cost {
                let ran = assert_seg_run(&p, |it| it.fuel = fuel);
                assert_eq!(ran.res, Err(ExecError::OutOfFuel), "{stmt}: fuel {fuel}");
                kernel_rows += rows_per_arm(&ran.comp.probe).iter().sum::<u64>();
            }
            assert!(kernel_rows > 40, "{stmt}: {kernel_rows}");
        }
    }

    /// A nested row loop runs its rows in strips, as the root does: 2 500
    /// rows, entered twice, all run in the kernel with the per-row path's
    /// stream counts, and fuel that runs out either side of a strip
    /// boundary stops where the tree-walk and the per-row path do.
    #[test]
    fn a_nested_row_loop_runs_in_strips_and_out_of_fuel_where_the_tree_walk_does() {
        let lens: Vec<i64> = LENS.iter().cycle().take(2500).copied().collect();
        let nonempty = lens.iter().filter(|&&n| n > 0).count() as u64;
        let kernel_rows = |it: &Interp<'_>| rows_per_arm(&it.probe).iter().sum();
        for (init, stmt) in [
            ("y(i) = 0.0", "y(i) = y(i) + x(k) * z(idx(k))"),
            ("", "z(k) = z(k) * 0.5 + 1.0"),
        ] {
            let p = parse_program(&seg_src(init, stmt, "", &lens, "", true)).unwrap();
            let full = assert_seg_run(&p, |_| {});
            assert_eq!(full.res, Ok(()), "{stmt}");
            assert_eq!(kernel_rows(&full.comp), 5000, "{stmt}");
            assert_eq!(full.comp.stats.stream_entries, 2 * nonempty, "{stmt}");
            for rows in [1024, 2048, 2500 + 1024] {
                let at = budget_for(&p, rows, kernel_rows);
                for fuel in at - 2..=at + 2 {
                    let ran = assert_seg_run(&p, |it| it.fuel = fuel);
                    assert_eq!(ran.res, Err(ExecError::OutOfFuel), "{stmt}: fuel {fuel}");
                }
            }
        }
    }

    /// A subscript out of range in a middle row — an INDIRECT one in a
    /// reduction, whose row the kernel abandons having stored nothing, a
    /// LINEAR range past the array's end, a pointer load past its array
    /// — ends the kernel before that row; the per-row path raises the
    /// program's own error over the tree-walk's store.
    #[test]
    fn a_row_that_would_fail_runs_on_the_per_row_path() {
        let spmv = ("y(i) = 0.0", "y(i) = y(i) + x(k) * z(idx(k))");
        let lane = ("", "z(k) = z(k) * 0.5 + 1.0");
        for ((init, stmt), smash, array, index) in [
            (spmv, "idx(6) = 41", "z", 41),
            (spmv, "idx(5) = 0", "z", 0),
            (lane, "ptr(7) = 42", "z", 41),
            (lane, "ptr(5) = -1", "z", -1),
            (spmv, "ptr(7) = 42", "x", 41),
        ] {
            let p = parse_program(&seg_src(init, stmt, "", &LENS, smash, false)).unwrap();
            let ran = assert_seg_run(&p, |_| {});
            assert!(
                matches!(&ran.res, Err(ExecError::OutOfBounds { array: a, index: i, .. }) if a == array && *i == index),
                "{stmt}, {smash}: {:?}",
                ran.res
            );
            let rows: u64 = rows_per_arm(&ran.comp.probe).iter().sum();
            assert!((1..LENS.len() as u64).contains(&rows), "{smash}: {rows}");
        }
        // A row the kernel declines but the per-row path completes — its
        // subscript only wraps on the way — and the rows after it run in
        // the kernel again.
        let src = seg_src(
            "",
            "z(k + q(i) - 9223372036854775807) = z(k) * 0.5 + 1.0",
            "",
            &LENS,
            "do i = 1, 7\n q(i) = 9223372036854775807\n enddo\n q(3) = -9223372036854775800",
            false,
        );
        let p = parse_program(&src.replace("idx(40),", "idx(40), q(7),")).unwrap();
        let ran = assert_seg_run(&p, |_| {});
        assert_eq!(ran.res, Ok(()));
        assert_eq!(rows_per_arm(&ran.comp.probe), [0, 0, 6, 0, 0]);
    }

    /// A row loop ending at `i64::MAX`, at the root and nested: the
    /// kernel runs every row but the last, whose advance ends the loop on
    /// the per-row ops with the row variable at `i64::MAX`.
    #[test]
    fn a_row_loop_ending_at_i64_max_ends_there() {
        let src = "program t
             integer i, j, r, n(3)
             real y(3), x(4)
             n(1) = 2
             n(2) = 0
             n(3) = 3
             x(2) = 1.5
             do r = 1, 2
               do i = 9223372036854775805, 9223372036854775807
                 y(i - 9223372036854775804) = 1.0
                 do j = 1, n(i - 9223372036854775804)
                   y(i - 9223372036854775804) = y(i - 9223372036854775804) + x(j)
                 enddo
               enddo
             enddo
             do i = 9223372036854775806, 9223372036854775807
               do j = 1, n(i - 9223372036854775804)
                 x(j + 1) = x(j) * 0.5 + 1.0
               enddo
             enddo
             print i, j, y(1), y(2), y(3), x(4)
             end";
        let p = parse_program(src).unwrap();
        let ran = assert_seg_run(&p, |_| {});
        assert_eq!(ran.res, Ok(()));
        assert_eq!(rows_per_arm(&ran.comp.probe).iter().sum::<u64>(), 2 * 2 + 1);
    }
}
