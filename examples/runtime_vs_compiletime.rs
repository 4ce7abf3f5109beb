//! The paper's §1 argument: user assertions and run-time tests are
//! alternatives to static analysis of irregular accesses, but "run-time
//! analysis methods ... introduce overhead that is not always
//! negligible". This example runs both on the same CCS program: the
//! compile-time offset–length verification (once, at compile time) and
//! the run-time inspector (every execution), and times them.
//!
//! ```sh
//! cargo run --release --example runtime_vs_compiletime
//! ```

use irr_repro::core::property::ArrayPropertyAnalysis;
use irr_repro::core::{AnalysisCtx, DistanceSpec, Property, PropertyQuery};
use irr_repro::exec::{inspect_offset_length, Interp};
use irr_repro::frontend::parse_program;
use irr_repro::symbolic::{Section, SymExpr};
use std::time::Instant;

fn main() {
    let nseg = 2000;
    let src = format!(
        "program ccs
  integer i, k, ptr({np1}), len({nseg})
  real data(20000)
  do k = 1, {nseg}
    len(k) = mod(k * 5, 8) + 1
  enddo
  ptr(1) = 1
  do k = 1, {nseg}
    ptr(k + 1) = ptr(k) + len(k)
  enddo
  do 10 i = 1, {nseg}
    do k = 1, len(i)
      data(ptr(i) + k - 1) = i + k
    enddo
 10 continue
end
",
        np1 = nseg + 1,
    );
    let program = parse_program(&src).expect("parses");

    // --- compile time: one demand-driven query -------------------------
    let ctx = AnalysisCtx::new(&program);
    let mut apa = ArrayPropertyAnalysis::new(&ctx);
    let ptr = program.symbols.lookup("ptr").unwrap();
    let len = program.symbols.lookup("len").unwrap();
    let loop10 = program
        .stmts_in(&program.procedures[program.main().index()].body)
        .into_iter()
        .find(|s| {
            matches!(
                program.stmt(*s).kind,
                irr_repro::frontend::StmtKind::Do {
                    label: Some(10),
                    ..
                }
            )
        })
        .unwrap();
    let t0 = Instant::now();
    let verified = apa.check(&PropertyQuery {
        array: ptr,
        property: Property::ClosedFormDistance {
            distance: DistanceSpec::Array(len),
        },
        section: Section::range1(SymExpr::int(1), SymExpr::int(nseg - 1)),
        at_stmt: loop10,
    });
    let compile_time = t0.elapsed();
    assert!(verified);
    println!(
        "compile-time verification: ptr has closed-form distance len \
         — {:?}, paid ONCE ({} solver nodes)",
        compile_time, apa.stats.nodes_visited
    );

    // --- run time: the inspector pays on every execution ----------------
    let store = Interp::new(&program).run().expect("runs").store;
    let t1 = Instant::now();
    let reps = 100;
    let mut ok = true;
    for _ in 0..reps {
        ok &= inspect_offset_length(&store, ptr, len, 1, nseg);
    }
    let per_exec = t1.elapsed() / reps;
    assert!(ok);
    println!(
        "run-time inspector:        O(segments) walk of ptr/len \
         — {per_exec:?} per execution, paid EVERY time"
    );
    println!(
        "\nWith {nseg} segments the inspector must also keep the \
         sequential loop version around for the failing case — the code\n\
         growth and recurring overhead the paper's compile-time approach \
         avoids."
    );
}
