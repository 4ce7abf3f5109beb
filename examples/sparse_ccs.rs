//! The Compressed Column Storage scenario of Fig. 3 / Fig. 13, grown
//! into the full sparse workload suite: matrices from the seeded
//! generator (`irr-sparse`) are lowered into the nine mini-Fortran
//! kernels of `irr_programs::sparse`, compiled, and dispatched through
//! the hybrid runtime. For one small and one large instance the example
//! prints every kernel's dispatch tier and execution strategy, then
//! proves the verdicts honest by checking hybrid/sequential parity on
//! the CCS column-scaling kernel.
//!
//! ```sh
//! cargo run --example sparse_ccs
//! ```

use irr_repro::driver::DispatchTier;
use irr_repro::driver::{compile_source, DriverOptions};
use irr_repro::programs::sparse::{kernels, SparseScale};
use irr_repro::programs::Case;
use irr_repro::runtime::{run_hybrid_seeded, HybridConfig};
use irr_repro::sanitizer::parity::{first_divergence, sequential, Reals};
use irr_repro::sparse::Structure;

fn main() {
    let small = SparseScale {
        n: 64,
        nnz: 600,
        structure: Structure::Banded { bandwidth: 8 },
        seed: 13,
    };
    let large = SparseScale {
        n: 4096,
        nnz: 200_000,
        structure: Structure::PowerLaw,
        seed: 13,
    };

    for (title, scale) in [("small", &small), ("large", &large)] {
        println!(
            "== {title} instance: n = {}, nnz = {}, {} structure ==",
            scale.n,
            scale.nnz,
            scale.structure.tag()
        );
        println!("{:<10} {:<28} strategy", "kernel", "dispatch tier");
        for k in kernels(scale) {
            let rep = compile_source(&k.source, DriverOptions::with_iaa()).expect("parses");
            let v = rep.verdict(&k.label).expect("loop exists");
            let tier = match &v.tier {
                DispatchTier::CompileTimeParallel => "compile-time parallel".to_string(),
                DispatchTier::RuntimeGuarded(g) => {
                    format!("runtime-guarded ({} group(s))", g.groups.len())
                }
                DispatchTier::Sequential => "sequential".to_string(),
            };
            println!("{:<10} {:<28} {}", k.name, tier, v.strategy_facts.name());
        }
        println!();
    }

    // Trust, but verify: the CCS column-scaling kernel is the paper's
    // Fig. 3 loop. Its offset/length arrays come preset from the
    // generator, so the offset-length property is *not* provable at
    // compile time — the dispatcher inspects the prefix-sum chain at
    // runtime, clears the guard, and commits a parallel execution that
    // must match the sequential interpreter bit for bit.
    let colscale = kernels(&large)
        .into_iter()
        .find(|k| k.name == "colscale")
        .expect("colscale kernel");
    let rep = compile_source(&colscale.source, DriverOptions::with_iaa()).expect("parses");
    let presets = Case::from(&colscale).resolve_presets(&rep.program);
    let seq = sequential(&rep, &presets).expect("sequential run");
    let hybrid = run_hybrid_seeded(&rep, HybridConfig::default(), &presets).expect("hybrid run");
    let diff = first_divergence(&rep, &seq, &hybrid.outcome, Reals::Exact);
    assert_eq!(diff, None, "hybrid / sequential parity");
    let t = &hybrid.telemetry;
    assert!(t.guarded_parallel >= 1, "guard cleared: {t:?}");
    assert_eq!(t.guarded_sequential, 0, "no guard rejections: {t:?}");

    println!("colscale on the large instance:");
    println!(
        "  guard inspections run: {}, guarded parallel entries: {}",
        t.inspections_run, t.guarded_parallel
    );
    println!("  hybrid execution matched the sequential run exactly.");
    println!("  checksums: {}", seq.output.join(" | "));
}
