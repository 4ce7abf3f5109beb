//! End-to-end checks of every worked example in the paper, plus
//! thread-level verification that the benchmark kernels' irregular
//! loops really are parallel.

use irr_core::property::{ArrayPropertyAnalysis, QueryStats, SolverOptions};
use irr_core::{AnalysisCtx, DistanceSpec, Property, PropertyQuery};
use irr_driver::{compile_source, DriverOptions, PhaseOrder};
use irr_exec::{Interp, ParallelPlan};
use irr_frontend::{parse_program, Program, StmtId, StmtKind, VarId};
use irr_programs::{all, Scale};
use irr_sanitizer::parity::{dispatched, first_divergence, OneLoopInChunks, Reals};
use irr_symbolic::{Section, SymExpr};

/// Fig. 1(b): the array stack. The outer loop parallelizes via the
/// STACK evidence.
#[test]
fn fig1b_stack_loop_parallelizes() {
    let src = "program fig1b
      integer i, j, n, m, p, cond(64)
      real t(64), work(64), out(64)
      n = 32
      m = 24
      call init
      do 100 i = 1, n
        p = 0
        do j = 1, m
          p = p + 1
          t(p) = work(j) + i
          if (cond(j) > 0) then
            ! drain the stack: reads reach elements pushed in *earlier*
            ! j-iterations, so only the stack discipline proves
            ! written-before-read
            while (p >= 1)
              out(i) = out(i) + t(p)
              p = p - 1
            endwhile
          endif
        enddo
 100  continue
      print out(1), out(32)
    end
    subroutine init
      integer w
      do w = 1, 64
        work(w) = w * 0.25
        cond(w) = mod(w, 3)
      enddo
    end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("FIG1B/do100").expect("loop exists");
    assert!(v.parallel, "{v:?}");
    assert!(v.privatized_arrays.iter().any(|(_, tag)| *tag == "STACK"));
    let without = compile_source(src, DriverOptions::without_iaa()).unwrap();
    assert!(!without.verdict("FIG1B/do100").unwrap().parallel);
}

/// Fig. 1(c): indirect read through a bounded index array.
#[test]
fn fig1c_indirect_privatization() {
    let src = "program fig1c
      integer i, j, k, n, m, q, pos(64)
      real x(64), y(64), z(64, 64)
      n = 16
      m = 32
      call gather
      do 100 i = 1, n
        do j = 1, m
          x(j) = y(i) + j * 0.5
        enddo
        do k = 1, q
          z(i, k) = x(pos(k))
        enddo
 100  continue
      print z(1, 1)
    end
    subroutine gather
      integer w
      do w = 1, 64
        y(w) = mod(w * 3, 7) * 0.4
      enddo
      q = 0
      do w = 1, m
        if (y(w) > 1.0) then
          q = q + 1
          pos(q) = w
        endif
      enddo
    end";
    let rep = compile_source(src, DriverOptions::with_iaa()).unwrap();
    let v = rep.verdict("FIG1C/do100").expect("loop exists");
    assert!(v.parallel, "{v:?}");
    assert!(v.privatized_arrays.iter().any(|(_, tag)| *tag == "CFB"));
    assert!(
        !compile_source(src, DriverOptions::without_iaa())
            .unwrap()
            .verdict("FIG1C/do100")
            .unwrap()
            .parallel
    );
}

/// The Fig. 15 phase-order ablation on a real benchmark: DYFESM's
/// offset-length loops need interprocedural queries (pptr/iblen are
/// defined in `setup`), so the original per-unit organization loses
/// them.
#[test]
fn phase_order_ablation_on_dyfesm() {
    let b = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "DYFESM")
        .unwrap();
    let reorganized = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
    let original = compile_source(
        &b.source,
        DriverOptions {
            phase_order: PhaseOrder::Original,
            ..DriverOptions::with_iaa()
        },
    )
    .unwrap();
    for label in &b.irregular_labels {
        assert!(reorganized.verdict(label).unwrap().parallel, "{label}");
        assert!(
            !original.verdict(label).unwrap().parallel,
            "{label} should need the reorganized phases"
        );
    }
}

/// Asks `queries` in order on one engine with `opts`: the answers and
/// the solver's work.
fn ask(
    program: &Program,
    opts: SolverOptions,
    queries: &[PropertyQuery],
) -> (Vec<bool>, QueryStats) {
    let ctx = AnalysisCtx::new(program);
    let mut apa = ArrayPropertyAnalysis::with_options(&ctx, opts);
    let answers = queries.iter().map(|q| apa.check(q)).collect();
    (answers, apa.stats)
}

/// `property` of `array` over `1..hi`, raised after `at_stmt`.
fn query(array: VarId, property: Property, hi: i64, at_stmt: StmtId) -> PropertyQuery {
    let section = Section::range1(SymExpr::int(1), SymExpr::int(hi));
    PropertyQuery {
        array,
        property,
        section,
        at_stmt,
    }
}

/// The last statement of the main program.
fn last_of_main(program: &Program) -> StmtId {
    *program.procedure(program.main()).body.last().unwrap()
}

/// Each of `properties` for every array of `program` over `1..hi`, at
/// the last statement of the main program.
fn every_array(program: &Program, properties: &[Property], hi: i64) -> Vec<PropertyQuery> {
    let last = last_of_main(program);
    let arrays = program.symbols.iter().filter(|(_, info)| info.is_array());
    arrays
        .flat_map(|(a, _)| {
            properties
                .iter()
                .map(move |p| query(a, p.clone(), hi, last))
        })
        .collect()
}

/// Fig. 5 line 11 / Fig. 9: a query stops at its first killed element.
/// Without early termination the solver gives the same answers but
/// walks on. Injective and MonotoneNonDecreasing for every array of each
/// benchmark: nodes visited with and without it, and the early
/// terminations taken.
#[test]
fn early_termination_saves_solver_work() {
    let expected = [
        ("TRFD", 444, 478, 38),
        ("DYFESM", 1234, 1622, 86),
        ("BDNA", 402, 440, 30),
        ("P3M", 402, 440, 30),
        ("TREE", 428, 494, 40),
    ];
    let battery = [Property::Injective, Property::MonotoneNonDecreasing];
    let exhaustive = SolverOptions {
        early_termination: false,
        ..SolverOptions::default()
    };
    let mut got = Vec::new();
    for b in all(Scale::Test) {
        let program = parse_program(&b.source).unwrap();
        let queries = every_array(&program, &battery, 50);
        let (early, with) = ask(&program, SolverOptions::default(), &queries);
        let (full, without) = ask(&program, exhaustive, &queries);
        assert_eq!(
            early, full,
            "{}: early termination changed an answer",
            b.name
        );
        assert_eq!(without.early_terminations, 0, "{}", b.name);
        assert!(with.nodes_visited < without.nodes_visited, "{}", b.name);
        got.push((
            b.name,
            with.nodes_visited,
            without.nodes_visited,
            with.early_terminations,
        ));
    }
    assert_eq!(got, expected);
}

/// §3.2.2: the worklist pops in reverse topological order, so each node
/// is visited once, after all its successors. FIFO reaches the joins of
/// four branchy `if` blocks early and visits them again; it stays under
/// its bound of eight visits a node here, so both answer the query.
#[test]
fn reverse_topological_worklist_visits_each_node_once() {
    let block = |d: u32| {
        format!(
            "if (k > {d}) then
               b({d}) = 1
               b({d} + 4) = 2
               b({d} + 8) = 3
               m = m + 1
               if (m > {d}) then
                 b(m) = 0
               endif
             endif\n"
        )
    };
    let src = format!(
        "program wl
         integer i, k, m, a(100), b(100)
         do i = 1, 100
           a(i) = i
         enddo
         {}{}{}{}print a(1)
         end",
        block(1),
        block(2),
        block(3),
        block(4)
    );
    let program = parse_program(&src).unwrap();
    let a = program.symbols.lookup("a").unwrap();
    let queries = [query(a, Property::Injective, 100, last_of_main(&program))];
    let (ordered, rtop) = ask(&program, SolverOptions::default(), &queries);
    let fifo = SolverOptions {
        rtop_priority: false,
        ..SolverOptions::default()
    };
    let (queued, fifo) = ask(&program, fifo, &queries);
    assert_eq!((ordered, queued), (vec![true], vec![true]));
    assert_eq!((rtop.nodes_visited, rtop.summarizations), (38, 22));
    assert_eq!((fifo.nodes_visited, fifo.summarizations), (100, 52));
}

/// §5.1.3: one engine caches loop and section summaries across queries.
/// DYFESM's pattern — `pptr` has closed-form distance `iblen` over
/// `1..99` at `do 10`, both set up in a subroutine — asked twice: the
/// second ask summarizes nothing.
#[test]
fn summary_caches_answer_a_repeated_query() {
    let program = parse_program(
        "program t
         integer i, j, pptr(101), iblen(100)
         real x(10000)
         call setup
         do 10 i = 1, 100
           do j = 1, iblen(i)
             x(pptr(i) + j - 1) = 1
           enddo
 10      continue
         end
         subroutine setup
         integer i2
         do i2 = 1, 100
           iblen(i2) = mod(i2, 7) + 1
         enddo
         pptr(1) = 1
         do i2 = 1, 100
           pptr(i2 + 1) = pptr(i2) + iblen(i2)
         enddo
         end",
    )
    .unwrap();
    let main = program.procedure(program.main());
    let is_do10 = |s: &StmtId| {
        matches!(
            program.stmt(*s).kind,
            StmtKind::Do {
                label: Some(10),
                ..
            }
        )
    };
    let do10 = program
        .stmts_in(&main.body)
        .into_iter()
        .find(is_do10)
        .unwrap();
    let var = |name| program.symbols.lookup(name).unwrap();
    let distance = DistanceSpec::Array(var("iblen"));
    let q = query(
        var("pptr"),
        Property::ClosedFormDistance { distance },
        99,
        do10,
    );
    let ctx = AnalysisCtx::new(&program);
    let mut apa = ArrayPropertyAnalysis::new(&ctx);
    assert!(apa.check(&q));
    let first = apa.stats;
    assert!(apa.check(&q));
    let again = (
        apa.stats.nodes_visited - first.nodes_visited,
        apa.stats.summarizations - first.summarizations,
    );
    assert_eq!((first.nodes_visited, first.summarizations), (10, 4));
    assert_eq!(again, (4, 0));
}

/// §3: queries are demand-driven. Compiling DYFESM asks what its loops
/// need and proves its irregular loops parallel; a three-property
/// battery over every array asks twice the queries, visits seven times
/// the nodes and verifies nothing.
#[test]
fn demand_driven_queries_cost_less_than_an_exhaustive_battery() {
    let b = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "DYFESM")
        .unwrap();
    let rep = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
    for label in &b.irregular_labels {
        assert!(rep.verdict(label).unwrap().parallel, "{label}");
    }
    let program = parse_program(&b.source).unwrap();
    let battery = [
        Property::Injective,
        Property::MonotoneNonDecreasing,
        Property::ClosedFormBound {
            lo: Some(SymExpr::int(0)),
            hi: None,
        },
    ];
    let (answers, exhaustive) = ask(
        &program,
        SolverOptions::default(),
        &every_array(&program, &battery, 50),
    );
    assert_eq!(
        (rep.stats.property_queries, rep.stats.solver_nodes),
        (15, 273)
    );
    assert_eq!((exhaustive.queries, exhaustive.nodes_visited), (33, 2051));
    assert!(answers.iter().all(|verified| !verified));
}

/// APO (no inlining, no interprocedural constants) is strictly weaker
/// than Polaris on at least one benchmark loop inventory.
#[test]
fn apo_is_weakest() {
    for b in all(Scale::Test) {
        let apo = compile_source(&b.source, DriverOptions::apo()).unwrap();
        let polaris = compile_source(&b.source, DriverOptions::without_iaa()).unwrap();
        let with = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        let napo = apo.parallel_labels().len();
        let npol = polaris.parallel_labels().len();
        let nwith = with.parallel_labels().len();
        assert!(napo <= npol, "{}: APO {napo} > Polaris {npol}", b.name);
        assert!(npol < nwith, "{}: IAA must add loops", b.name);
    }
}

/// Thread-level verification: each benchmark's headline irregular loop
/// executes in parallel chunks with results identical to the sequential
/// run.
#[test]
fn benchmark_irregular_loops_execute_in_parallel() {
    for b in all(Scale::Test) {
        let rep = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        let seq = Interp::new(&rep.program).run().unwrap();
        // The headline loop is the first irregular label: run every
        // entry of it chunked, and everything else sequentially.
        let label = b.irregular_labels[0];
        let v = rep.verdict(label).unwrap();
        let plan = ParallelPlan::for_verdict(v, 3);
        let mut chunked = OneLoopInChunks::new(v.loop_stmt, plan);
        let par = dispatched(&rep, &[], &mut chunked)
            .unwrap_or_else(|e| panic!("{}: {label}: {e}", b.name));
        assert!(
            chunked.committed > 0 && chunked.failed.is_empty(),
            "{}: {label}: {} committed, fell back {:?}",
            b.name,
            chunked.committed,
            chunked.failed
        );
        let diff = first_divergence(&rep, &seq, &par, Reals::Exact);
        assert_eq!(diff, None, "{}: after parallel {label}", b.name);
    }
}

/// Table 2's analysis share: the property analysis is a bounded
/// fraction of compilation (the paper: 4.5%–10.9% on full codes).
#[test]
fn property_analysis_time_is_bounded() {
    for b in all(Scale::Test) {
        let rep = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        assert!(
            rep.stats.property_time <= rep.stats.total_time,
            "{}",
            b.name
        );
        // TREE needs no property queries (the stack analysis is pure
        // bDFS); every other benchmark issues them.
        if b.name != "TREE" {
            assert!(
                rep.stats.property_queries > 0,
                "{}: IAA ran queries",
                b.name
            );
        }
    }
}

/// The annotated-source emission (Polaris's output artifact) is inert:
/// the directives are comments, so the annotated benchmark kernels
/// reparse and run to identical checksums.
#[test]
fn annotated_benchmarks_run_identically() {
    for b in all(Scale::Test) {
        let rep = compile_source(&b.source, DriverOptions::with_iaa()).unwrap();
        let annotated = irr_driver::emit_annotated(&rep);
        assert!(
            annotated.contains("!$omp parallel do"),
            "{}: no directives emitted",
            b.name
        );
        let reparsed = irr_frontend::parse_program(&annotated)
            .unwrap_or_else(|e| panic!("{}: {e}\n{annotated}", b.name));
        let out1 = Interp::new(&rep.program).run().unwrap().output;
        let out2 = Interp::new(&reparsed).run().unwrap().output;
        assert_eq!(out1, out2, "{}", b.name);
    }
}
