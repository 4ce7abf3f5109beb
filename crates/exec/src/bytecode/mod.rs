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
//!   the writing instruction (the tree-walk retires the same
//!   symbol-table lookups through its [`ScalarLayout`] table).
//! - **Resolved array operands.** Array accesses carry their pin slot
//!   and are bounds-checked against the live extents without
//!   allocating a subscript vector.
//! - **Superinstructions** for the paper's access idioms: affine
//!   `a(i+c)` (`FOp::LoadAff*` / `StoreAff*`), subscripted subscript
//!   `x(idx(e))` (`Gather*` / `Scatter*`), the offset–length address
//!   `ptr(j)+k-1` (`LeaI`), the accumulate `s = s + b * c`
//!   (`MulAddF`), and append-through-pointer `a(p) = e; p = p + 1`
//!   (`Append*`).
//! - **Streams.** An innermost `do` whose body is one assignment
//!   `sink = a * b ± c` over LINEAR / INDIRECT rank-1 references does
//!   not dispatch per iteration: the typed loop fast-forwards the
//!   iterations whose checks it can prove pass as one guarded stream
//!   (`irr_driver::compiled::Stream`), then continues per iteration.
//!
//! **Parity is the contract.** A compiled loop must be byte-identical
//! to the tree-walk in store contents, printed output, statement
//! costs, fuel accounting, and error identity — the differential
//! harness in `tests/strategy_parity.rs` and `sanitizer-audit
//! --compiled` enforce this across the whole corpus. To that end the
//! lowering is deliberately conservative: fuel is charged per
//! statement entry at the same program points (`FOp::Charge`), and any
//! construct whose interpreter semantics are not replicated
//! bit-for-bit — procedure calls, `print`, `return`, logical operators
//! in numeric position — rejects the lowering and falls back to the
//! interpreter via a reason-coded [`FallbackReason`].
//!
//! **Two engines; a worker has one.** There are exactly two executors
//! under that contract: the typed loop and the reference tree-walk.
//! Every array is live from the program's first statement, so a
//! sequential compiled entry is decided once, at entry: a nest that
//! lowered runs typed from its first iteration, and one that cannot
//! (a zero-trip range, a preset of another element type than declared)
//! walks. A parallel worker's share of a loop always runs the typed
//! loop — the dispatch is refused before any chunk runs when the nest
//! cannot — and what differs for it is in `WorkerChunk`: its deadline,
//! and the sinks its dispatch's commit strategy built for every array
//! it stores to (`WriteSink`).
//!
//! Trust discipline is the one the raw-pointer strategies use: a
//! verdict's `CompiledPlan` is the lowering's own summary, and still
//! only an advisory claim. The executor never runs a plan — at dispatch
//! it calls the same [`lower_do_loop`] on the AST (cached per `StmtId`;
//! lowering is a pure function of the program), just as it re-derives
//! the in-place and concat proofs with `irr_driver`'s derivations, and
//! falls back when the nest does not lower, so a forged plan can never
//! reach the typed path.

mod exec;
mod fast;

pub use irr_driver::compiled::{lower_do_loop, CompiledBody, LowerReject};

use crate::dispatch::{FallbackReason, LoopDecision, LoopDispatcher};
use crate::interp::{ExecError, Store, WriteSink};
use irr_frontend::{Program, ScalarType, StmtId, VarId};
use std::time::{Duration, Instant};

/// What makes a run of the typed loop one parallel worker's share of a
/// loop rather than a whole sequential entry. Given one, the typed loop
///
/// - leaves the root loop's invocation count, cost attribution and
///   final induction value to the master;
/// - polls the deadline, when one is armed, before every root
///   iteration (and every stream strip) — an unarmed one never reads a
///   clock;
/// - stores through `sinks` instead of straight into the payloads, and
///   puts each sink back, filled, when the chunk ends however it ends;
/// - abandons the chunk on a strategy violation: at the access that
///   leaves an in-place window, and after the root iteration in which
///   an append sink saw a write outside its discipline.
#[derive(Debug)]
pub(crate) struct WorkerChunk {
    /// When the worker started and how long it may run.
    pub(crate) deadline: Option<(Instant, Duration)>,
    /// One entry per pin slot of the body (`CompiledBody::arrays`): the
    /// sink of an array the body stores to, `None` for one it only
    /// reads.
    pub(crate) sinks: Vec<Option<WriteSink>>,
}

impl WorkerChunk {
    #[inline]
    pub(crate) fn poll(&self) -> Result<(), ChunkAbort> {
        match self.deadline {
            Some((started, limit)) if started.elapsed() >= limit => Err(ChunkAbort::TimedOut),
            _ => Ok(()),
        }
    }
}

/// Why a chunk did not complete.
#[derive(Debug)]
pub(crate) enum ChunkAbort {
    /// A genuine runtime error inside the chunk.
    Exec(ExecError),
    /// The watch's deadline expired before the chunk finished.
    TimedOut,
    /// The chunk broke its strategy's discipline on this variable: an
    /// access outside its in-place window (the chunk stopped there), or
    /// a store an append sink refused (it stopped at the iteration
    /// boundary).
    Violated(VarId),
}

impl From<ExecError> for ChunkAbort {
    fn from(e: ExecError) -> Self {
        ChunkAbort::Exec(e)
    }
}

/// Which engine ran a sequential compiled loop entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChunkEngine {
    /// The typed loop, for the whole entry.
    Typed,
    /// The tree-walk, for the whole entry: the range was empty, or a
    /// preset's element type is not the declared one.
    TreeWalk,
}

/// Dense per-`VarId` scalar type table: resolved once per interpreter
/// to retire per-access symbol-table lookups on scalar writes.
#[derive(Clone, Debug)]
pub struct ScalarLayout {
    types: Box<[ScalarType]>,
}

impl ScalarLayout {
    /// Builds the table from a program's symbol table.
    pub fn new(program: &Program) -> ScalarLayout {
        ScalarLayout {
            types: program.symbols.iter().map(|(_, info)| info.ty).collect(),
        }
    }

    /// Declared type of `v`.
    #[inline]
    pub fn ty(&self, v: VarId) -> ScalarType {
        self.types[v.index()]
    }
}

/// The all-compiled dispatcher: every `do` loop entry requests the
/// compiled tier; unlowerable or instrumented loops fall
/// back to the tree-walk per the interpreter's own guard. This is the
/// single-thread "compiled" arm of the differential parity matrix and
/// of the benchmark's `exec.bytecode_ms`.
#[derive(Debug, Default)]
pub struct CompiledDispatch {
    /// Dynamic loop entries that ran through the compiled tier's chunk
    /// entry, whichever engine finished them.
    pub compiled: u64,
    /// Those of `compiled` the typed loop ran; the rest walked the AST
    /// (zero-trip entries, and presets of another element type than
    /// declared).
    pub typed: u64,
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

    fn compiled_committed(&mut self, _loop_stmt: StmtId, engine: ChunkEngine) {
        self.compiled += 1;
        self.typed += u64::from(engine == ChunkEngine::Typed);
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
    use crate::dispatch::SequentialDispatch;
    use crate::interp::{ArrayData, ExecError, ExecStats, Interp};
    use crate::parallel::ParallelPlan;
    use irr_driver::compiled::Stream;
    use irr_frontend::parse_program;

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
            self.comp.typed_root_iters
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
    /// leaves its store.
    #[test]
    fn out_of_bounds_payload_is_identical_in_any_iteration() {
        for bad_iter in [1, 3] {
            let src = format!(
                "program t
                 integer i, k
                 real x(8), y(8), z(8)
                 do i = 1, 8
                   k = i
                   if (i == {bad_iter}) then
                     k = 9
                   endif
                   y(i) = x(i)
                   if (i > 1) then
                     z(i) = y(i - 1)
                   endif
                   z(k) = x(i)
                 enddo
                 end"
            );
            let p = parse_program(&src).unwrap();
            let ran = assert_same_run(&p, preset_x);
            assert_eq!(
                ran.res,
                Err(ExecError::OutOfBounds {
                    array: "z".to_string(),
                    index: 9,
                    extent: 8
                })
            );
            assert_eq!(ran.typed_iters(), bad_iter);
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
        assert_eq!((ran.dispatch.compiled, ran.dispatch.typed), (1, 1));
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
        assert_eq!((d.compiled, d.typed, d.fallback_count()), (2, 2, 0));
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
            assert_eq!((ran.dispatch.typed, ran.typed_iters()), (1, 2));
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

    /// Pins by role: the typed loop takes unique ownership only of the
    /// arrays its body stores to. A read-only input keeps sharing its
    /// payload with a snapshot taken before the run — after a typed
    /// sequential entry, and after a write-log dispatch, whose workers
    /// each ran the typed loop on a snapshot of their own.
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
        assert_eq!((got.chunks, par.typed_root_iters), (2, 8));
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

    /// One statement per kernel instantiation — `FState::try_stream`'s
    /// arm, the statement's [`Stream::shape`], the statement over
    /// [`shape_src`]'s arrays and, where a store can, the same shape
    /// with its sink aliasing an operand at another offset — and, last,
    /// one that lands in the catch-all.
    const SHAPES: [(usize, &str, &str, Option<&str>); 10] = [
        (1, "elem = acc + val", "w(3) = w(3) + 1.5", None),
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
        (4, "scalar = acc + lin", "s = s + x(k)", None),
        (
            5,
            "lin = lin·val + lin",
            "z(k) = x(k) * 0.98 + y(k)",
            Some("z(k + 1) = z(k) * 0.98 + z(k + 2)"),
        ),
        (
            6,
            "lin = lin + lin·val",
            "z(k) = y(k) + x(k) * 0.5",
            Some("z(k) = z(k + 1) + z(k + 2) * 0.5"),
        ),
        (
            7,
            "elem = acc + lin·ind",
            "w(3) = w(3) + x(k) * y(idx(k))",
            None,
        ),
        (
            8,
            "elem = acc − lin·ind",
            "w(3) = w(3) - x(k) * y(idx(k))",
            None,
        ),
        (
            9,
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
    /// (`nest`) entered twice inside one. `smash` runs between the fill
    /// and the loop.
    fn shape_src(stmt: &str, n: usize, hi: usize, smash: &str, nest: bool) -> String {
        let (open, close) = if nest {
            ("do i = 1, 2", "enddo")
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

    /// Every kernel the run entered was instantiation `arm`, and it
    /// entered one `entered` times (a root stream: once a strip).
    fn assert_only_arm(ran: &Ran<'_>, arm: usize, entered: u64, what: &str) {
        let mut want = [0; 10];
        want[arm] = entered;
        assert_eq!(ran.comp.stream_shapes, want, "{what}");
    }

    /// Every instantiation, at the root and nested, is entered by the
    /// statement the table says, runs every iteration, and leaves what
    /// the tree-walk leaves.
    #[test]
    fn every_kernel_instantiation_is_entered_and_matches_the_tree_walk() {
        for (arm, shape, stmt, _) in SHAPES {
            for nest in [false, true] {
                let p = shape_program((shape, stmt), 40, 40, "", nest);
                let ran = assert_same_run(&p, |_| {});
                assert_eq!(ran.res, Ok(()), "{stmt}");
                let entries = 1 + u64::from(nest);
                assert_only_arm(&ran, arm, entries, stmt);
                let stats = &ran.comp.stats;
                assert_eq!(
                    (stats.stream_entries, stats.stream_iters),
                    (entries, 40 * entries),
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
    /// exhaustion.
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
        }
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
                        let strips = if nest { 1 } else { (bad - 1) / 1024 + 1 };
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
    /// extent, in every instantiation (at the root the strip before it
    /// still streams) and in the second of two references that share
    /// their invariant part; a base past `i64` (which wraps, on both
    /// engines, to the program's own out-of-bounds index) and one that
    /// wraps back into range; a zero-trip loop, whose `ptr(i + 5)`
    /// nobody may evaluate; and a loop ending at `i64::MAX`, root and
    /// nested.
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
                    // The second strip (or the one nested entry) is
                    // declined before any kernel is picked.
                    (if nest { 0 } else { 1024 }, u64::from(!nest))
                } else {
                    assert_eq!(ran.res, Ok(()), "{what}");
                    // Two strips, or two nested entries.
                    (1101 * (1 + u64::from(nest)), 2)
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
            assert_eq!((dispatch.typed, comp.stats.stream_iters), (1, 8), "{stmt}");
            assert_eq!(comp.stream_shapes[arm], 1, "{stmt}");
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

    /// A root-level stream polls the chunk's deadline between strips: a
    /// chunk of 3 000 iterations that times out has run a whole number
    /// of strips, none when the deadline had passed at entry, and an
    /// armed deadline that does not pass changes nothing.
    #[test]
    fn a_root_stream_polls_its_deadline_between_strips() {
        let src = "program t
             integer k
             real x(3000), z(3000)
             do k = 1, 3000
               z(k) = x(k) * 1.5 + 0.25
             enddo
             end";
        let p = parse_program(src).unwrap();
        let s = p.procedure(p.main()).body[0];
        let mut ran_short = false;
        for micros in [0, 1, 2, 4, 8, 16, 3_600_000_000] {
            let mut it = live(&p, |it| preset_reals(it, "x", &[2.0; 3000]));
            let cb = it.compiled_body_for(s).unwrap();
            let mut share = WorkerChunk {
                deadline: Some((Instant::now(), Duration::from_micros(micros))),
                sinks: cb
                    .stored()
                    .iter()
                    .map(|&w| w.then_some(WriteSink::Direct))
                    .collect(),
            };
            let res = it.run_fast_iters(&cb, 1, 3000, 1, Some(&mut share));
            let z = it
                .store
                .array_as_reals(p.symbols.lookup("z").unwrap())
                .unwrap();
            let done = z.iter().take_while(|v| **v == 3.25).count();
            assert!(z[done..].iter().all(|v| *v == 0.0));
            assert_eq!(it.typed_root_iters, done as u64);
            match res {
                Ok(()) => assert_eq!(done, 3000),
                Err(ChunkAbort::TimedOut) => {
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
}
