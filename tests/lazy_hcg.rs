//! A compile builds the hierarchical control graph only when an analysis
//! walks it: the property solver, for a query, or the routine summaries,
//! for a program of more than one routine. Counted exactly with
//! `irr_core::hcg_builds`, which counts the graphs built on this thread.

use irr_core::hcg_builds;
use irr_driver::{compile_source, CompilationReport, DriverOptions};

/// How many HCGs compiling `src` built, and its report.
fn compiled(src: &str) -> (u64, CompilationReport) {
    let before = hcg_builds();
    let rep = compile_source(src, DriverOptions::with_iaa()).expect("source parses");
    (hcg_builds() - before, rep)
}

#[test]
fn a_compile_builds_the_hcg_once_and_only_on_demand() {
    // One routine of affine loops: no query, no summary, no graph.
    let (built, rep) = compiled(
        "program a
         integer i, n
         real x(100), y(100)
         n = 100
         do i = 1, n
           x(i) = y(i) + 1
         enddo
         end",
    );
    assert_eq!((rep.stats.property_queries, built), (0, 0));
    // One routine whose scatter asks whether its index array is
    // injective: the solver builds the graph for it, once.
    let (built, rep) = compiled(
        "program g
         integer i, k, n, ind(100)
         real x(100), y(100)
         n = 50
         do i = 1, n
           ind(i) = i
         enddo
         do k = 1, n
           x(ind(k)) = y(k)
         enddo
         end",
    );
    assert!(
        rep.stats.property_queries > 0,
        "{}",
        rep.stats.property_queries
    );
    assert_eq!(built, 1);
    // Two routines and no query: the summaries build it once.
    let (built, rep) = compiled(
        "program m
         integer i, n
         real x(100)
         n = 100
         call fill
         do i = 1, n
           x(i) = x(i) * 2
         enddo
         end
         subroutine fill
         integer j
         do j = 1, 100
           x(j) = j
         enddo
         end",
    );
    assert_eq!((rep.stats.property_queries, built), (0, 1));
    assert_eq!(rep.program.procedures.len(), 2);
}

/// Over `compile-corpus`, exactly the compiles that ask a property query
/// or summarize a routine build the graph, each once.
#[test]
fn the_compile_corpus_builds_the_hcg_for_its_queries_and_its_calls() {
    let (mut built, mut querying, mut routines) = (0, 0, 0);
    for src in irr_programs::compile_corpus(3269) {
        let (n, rep) = compiled(&src);
        let queries = rep.stats.property_queries > 0;
        let several = rep.program.procedures.len() > 1;
        assert_eq!(n, u64::from(queries || several), "{src}");
        built += n;
        querying += u64::from(queries);
        routines += u64::from(several);
    }
    assert_eq!((built, querying, routines), (31, 30, 9));
}
