//! The whole Fig. 15 pass pipeline on tricky programs: interactions
//! between phases and semantic preservation.

use irr_exec::Interp;
use irr_frontend::{parse_program, print_program, Program};
use irr_passes::{
    eliminate_dead_code, forward_substitute, inline_small_procedures, normalize_loops,
    propagate_constants, substitute_induction_variables,
};

/// The driver's pipeline; what each pass returned, in order.
fn pipeline(p: &mut Program) -> [usize; 7] {
    [
        inline_small_procedures(p, 50),
        propagate_constants(p),
        normalize_loops(p),
        substitute_induction_variables(p),
        propagate_constants(p),
        forward_substitute(p),
        eliminate_dead_code(p),
    ]
}

fn outputs(p: &Program) -> Vec<String> {
    Interp::new(p).run().expect("program runs").output
}

#[test]
fn induction_after_normalization() {
    // A strided loop with a derived induction variable: normalization
    // introduces a unit-step loop, then induction substitution rewrites
    // the pointer.
    let src = "program t
         integer i, q
         real x(200)
         q = 0
         do i = 2, 40, 2
           q = q + 1
           x(q) = i * 1.0
         enddo
         print x(1), x(20), q
         end";
    let mut p = parse_program(src).unwrap();
    let before = outputs(&p);
    pipeline(&mut p);
    let after = outputs(&p);
    assert_eq!(before, after);
    assert_eq!(before, vec!["2 40 20"]);
    // The irregular q subscripts became affine in the new index.
    let printed = print_program(&p);
    assert!(
        !printed.contains("q = (q + 1)"),
        "increment hoisted:\n{printed}"
    );
}

#[test]
fn constants_flow_through_inlined_calls() {
    let src = "program t
         integer n, i
         real x(64)
         n = 8
         call dbl
         do i = 1, n
           x(i) = i
         enddo
         print x(n), n
         end
         subroutine dbl
         n = n * 2
         end";
    let mut p = parse_program(src).unwrap();
    let before = outputs(&p);
    pipeline(&mut p);
    assert_eq!(before, outputs(&p));
    // n*2 inlined and folded: the loop bound is literal 16.
    let printed = print_program(&p);
    assert!(printed.contains("do i = 1, 16"), "{printed}");
}

#[test]
fn dce_never_removes_observable_state() {
    let src = "program t
         integer a, b, c
         a = 1
         b = a + 1
         c = b + 1
         print c
         end";
    let mut p = parse_program(src).unwrap();
    let before = outputs(&p);
    pipeline(&mut p);
    assert_eq!(before, outputs(&p));
    assert_eq!(before, vec!["3"]);
}

#[test]
fn gather_idiom_survives_the_whole_pipeline() {
    // The pipeline must not destroy the conditional-increment gather
    // idiom (the irregular analyses depend on it).
    let src = "program t
         integer i, q, ind(32)
         real w(32)
         call init
         q = 0
         do 9 i = 1, 32
           if (w(i) > 0.5) then
             q = q + 1
             ind(q) = i
           endif
 9       continue
         print q, ind(1)
         end
         subroutine init
         integer k
         do k = 1, 32
           w(k) = mod(k * 7, 10) * 0.1
         enddo
         end";
    let mut p = parse_program(src).unwrap();
    let before = outputs(&p);
    pipeline(&mut p);
    assert_eq!(before, outputs(&p));
    let printed = print_program(&p);
    assert!(printed.contains("q = (q + 1)"), "gather kept:\n{printed}");
    assert!(printed.contains("ind(q)"), "gather kept:\n{printed}");
    // And the gather is still recognized afterwards.
    let ctx = irr_core::AnalysisCtx::new(&p);
    let main_body = p.procedures[p.main().index()].body.clone();
    let found = irr_core::find_index_gathering_loops(&ctx, &main_body);
    assert_eq!(found.len(), 1);
}

#[test]
fn pipeline_is_idempotent_on_its_own_output() {
    for b in irr_programs::all(irr_programs::Scale::Test) {
        let mut p = parse_program(&b.source).unwrap();
        pipeline(&mut p);
        let once = print_program(&p);
        pipeline(&mut p);
        let twice = print_program(&p);
        assert_eq!(once, twice, "{} pipeline not idempotent", b.name);
    }
}

/// Each pass's count summed over `compile-corpus`, and the reachable
/// statements before and after (`frontend.stmts`, `passes.stmts_after`):
/// a pass that silently does less fails here before it shows in a
/// benchmark.
#[test]
fn pass_counts_on_the_compile_corpus_are_pinned() {
    let reachable =
        |p: &Program| -> usize { p.procedures.iter().map(|q| p.stmts_in(&q.body).len()).sum() };
    let (mut counts, mut before, mut after) = ([0; 7], 0, 0);
    for src in irr_programs::compile_corpus(3269) {
        let mut p = parse_program(&src).unwrap();
        before += reachable(&p);
        for (sum, n) in counts.iter_mut().zip(pipeline(&mut p)) {
            *sum += n;
        }
        after += reachable(&p);
    }
    // inline, constprop, normalize, induction, constprop, forward_sub, dce
    assert_eq!(counts, [9, 298, 0, 0, 0, 0, 184]);
    assert_eq!((before, after), (1200, 1048));
}

/// The driver reruns constant propagation only when loop normalization
/// or induction substitution reports a rewrite. That is exact when
/// constant propagation's output is its own fixpoint and the two
/// rewrites report every change they make; both hold on every source of
/// the `pipeline_digest` corpus that parses, inlined (as the driver
/// compiles) or not (the APO baseline).
#[test]
fn constant_propagation_reruns_only_after_a_loop_rewrite() {
    // Three that the rewrites do change: a strided loop, a derived
    // induction variable, and a literal unit step to drop.
    let reshaped = [
        "program s\ninteger i, n\nreal x(100)\nn = 10\ndo i = 1, n, 2\nx(i) = 1\nenddo\nend",
        "program q\ninteger i, q, n\nreal x(100)\nq = 0\ndo i = 1, n\nq = q + 1\nx(q) = i\nenddo\nend",
        "program u\ninteger i, n\nreal x(100)\ndo i = 1, n, 1\nx(i) = 1\nenddo\nend",
    ]
    .map(|src| (src.to_string(), src.to_string()));
    let (mut parsed, mut rewritten) = (0, 0);
    for (name, src) in irr_programs::pipeline_corpus().into_iter().chain(reshaped) {
        let Ok(source) = parse_program(&src) else {
            continue;
        };
        parsed += 1;
        for inline in [true, false] {
            let mut p = source.clone();
            if inline {
                inline_small_procedures(&mut p, 50);
            }
            propagate_constants(&mut p);
            let folded = print_program(&p);
            let mut again = p.clone();
            assert_eq!(
                propagate_constants(&mut again),
                0,
                "{name}: a second run folds more"
            );
            assert_eq!(
                print_program(&again),
                folded,
                "{name}: a second run changes the program"
            );
            let n = normalize_loops(&mut p) + substitute_induction_variables(&mut p);
            let unchanged = print_program(&p) == folded;
            assert_eq!(n == 0, unchanged, "{name}: {n} rewrite(s) reported");
            rewritten += usize::from(n > 0);
        }
    }
    assert_eq!((parsed, rewritten), (3185, 6));
}

/// Runs `src` before and after the pipeline; both outputs.
fn run_both(src: &str) -> (Vec<String>, Vec<String>) {
    let mut p = parse_program(src).unwrap();
    let before = outputs(&p);
    pipeline(&mut p);
    (before, outputs(&p))
}

#[test]
fn induction_keeps_a_bound_read_through_an_array_the_body_writes() {
    // The post-loop adjustment would re-read m(1) after the body set it
    // to 5.
    let (before, after) = run_both(
        "program t
         integer i, q, m(2)
         real x(10)
         m(1) = 3
         q = 0
         do i = 1, m(1)
           q = q + 1
           x(q) = 1.0
           m(1) = 5
         enddo
         print q
         end",
    );
    assert_eq!(before, vec!["3"]);
    assert_eq!(after, before);
}

#[test]
fn normalization_keeps_the_exit_value_of_the_index() {
    let (before, after) = run_both(
        "program t
         integer i
         real x(20)
         do i = 1, 10, 2
           x(i) = 1.0
         enddo
         print i
         end",
    );
    assert_eq!(before, vec!["11"]);
    assert_eq!(after, before);
}

#[test]
fn normalization_evaluates_the_lower_bound_once() {
    // `lo` is read through an element the body writes: re-reading it
    // every iteration would move the index.
    let (before, after) = run_both(
        "program t
         integer i, s, m(2)
         m(1) = 1
         s = 0
         do i = m(1), 10, 2
           s = s + i
           m(1) = 7
         enddo
         print s
         end",
    );
    assert_eq!(before, vec!["25"]);
    assert_eq!(after, before);
}
