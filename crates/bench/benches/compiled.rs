//! The compiled-tier sweep: tree-walk interpreter vs the register
//! bytecode backend, single-threaded and inside parallel workers, on
//! the Figure-16 sparse kernels at 64k–1M nonzeros.
//!
//! Every swept combination records four timed entries,
//! `compiled/{kernel}/{nnz}/{interp,bytecode,hybrid_compiled,hybrid_treewalk}`:
//!
//! - `interp` — the sequential tree walk, the baseline every prior
//!   speedup in this repo was measured against.
//! - `bytecode` — the same program through [`CompiledDispatch`]: every
//!   verdict-annotated leaf `do` nest lowers to register bytecode
//!   (typed-specialized where the nest types statically) and the rest
//!   of the program tree-walks.
//! - `hybrid_compiled` / `hybrid_treewalk` — the hybrid runtime with
//!   bytecode workers on and off, isolating what the compiled tier
//!   contributes inside the parallel path.
//!
//! Annotations (scaled by 1000 where fractional):
//!
//! - `speedup_x1000` — interp median over bytecode median. The
//!   acceptance floor is 10x on `spmv` at 1M nonzeros and a 5x
//!   geomean across the swept kernels at the largest size
//!   (`compiled/geomean_speedup_x1000`).
//! - `hybrid_speedup_x1000` — hybrid-treewalk over hybrid-compiled.
//! - `compiled_loops` / `compiled_worker_dispatches` /
//!   `compiled_fallbacks` — sequential-tier bytecode entries, parallel
//!   dispatches with bytecode workers, and reason-coded interpreter
//!   fallbacks, from one instrumented hybrid run. CI gates on the
//!   sweep keeping the first two jointly nonzero.
//!   `worker_chunks_{typed,per_op,tree_walk}` say which engine those
//!   workers' chunks finished on, `worker_threads_spawned` how many
//!   threads the run created for all its dispatches (the pool's size:
//!   chunk count minus one, the master runs chunks too).
//! - `compiled/opcodes/{name}` — per-opcode dispatch counts from one
//!   profiled `spmv` pass at the largest size. Profiling keeps the
//!   whole entry on the per-op loop (the typed loop has no per-op
//!   hook by design), so these counts describe the opcode mix, not
//!   the timed runs' dispatch rate.
//!
//! The sweep is capped by `COMPILED_MAX_NNZ` (default 1,048,576; CI
//! smoke runs can lower it, unoptimized builds default to 65,536).
//!
//! ```sh
//! cargo bench -p irr-bench --bench compiled -- --json BENCH_compiled.json
//! COMPILED_MAX_NNZ=65536 cargo bench -p irr-bench --bench compiled -- --samples 3
//! ```

use irr_bench::harness::Runner;
use irr_driver::{compile_source, DriverOptions};
use irr_exec::{CompiledDispatch, CompiledProfile, Interp, OPCODE_NAMES};
use irr_programs::sparse::{kernels, SparseScale};
use irr_runtime::{run_hybrid_seeded, HybridConfig};
use irr_sparse::Structure;

/// The Figure-16 kernels: affine scale, row/column gather, permutation
/// scatter, and the offset–length SpMV walk — one per superinstruction
/// family the lowering recognizes.
const SWEPT: [&str; 5] = ["spmv", "scale", "colscale", "permute", "rowgather"];

fn max_nnz() -> usize {
    let default = if cfg!(debug_assertions) {
        1 << 16
    } else {
        1 << 20
    };
    std::env::var("COMPILED_MAX_NNZ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn hybrid_config(compiled: bool) -> HybridConfig {
    HybridConfig {
        enable_compiled: compiled,
        ..HybridConfig::default()
    }
}

fn main() {
    let r = Runner::from_env();
    let cap = max_nnz();
    let sizes: Vec<usize> = [1 << 16, 1 << 18, 1 << 20]
        .into_iter()
        .filter(|&s| s <= cap)
        .collect();
    assert!(
        !sizes.is_empty(),
        "COMPILED_MAX_NNZ below the smallest size"
    );
    let top = *sizes.last().expect("non-empty sizes");
    println!("compiled sweep: nnz {sizes:?} (cap {cap}), kernels {SWEPT:?}");

    // (kernel, single-thread speedup) at the largest size, for the
    // geomean gate.
    let mut top_speedups: Vec<(String, f64)> = Vec::new();
    for &nnz in &sizes {
        let scale = SparseScale {
            n: (nnz / 16).max(1),
            nnz,
            structure: Structure::Uniform,
            seed: 0xCC5,
        };
        for k in kernels(&scale) {
            if !SWEPT.contains(&k.name) {
                continue;
            }
            let rep = compile_source(&k.source, DriverOptions::with_iaa()).expect("kernel parses");
            let presets = k.resolve_presets(&rep.program);

            let combo = format!("{}/{}", k.name, nnz);
            let mut g = r.group("compiled");
            g.sample_size(if nnz >= 1 << 20 { 3 } else { 5 });
            g.bench_function(&format!("{combo}/interp"), || {
                let mut it = Interp::new(&rep.program);
                for (var, data) in &presets {
                    it.preset_array(*var, data.clone());
                }
                it.run().expect("interpreter run")
            });
            g.bench_function(&format!("{combo}/bytecode"), || {
                let mut it = Interp::new(&rep.program);
                for (var, data) in &presets {
                    it.preset_array(*var, data.clone());
                }
                let mut d = CompiledDispatch::new();
                it.run_dispatched(&mut d).expect("bytecode run");
                assert!(d.compiled > 0, "{}: nothing compiled", k.name);
                d.compiled
            });
            g.bench_function(&format!("{combo}/hybrid_compiled"), || {
                run_hybrid_seeded(&rep, hybrid_config(true), &presets).expect("hybrid run")
            });
            g.bench_function(&format!("{combo}/hybrid_treewalk"), || {
                run_hybrid_seeded(&rep, hybrid_config(false), &presets).expect("hybrid run")
            });
            g.finish();

            if let (Some(seq), Some(byte)) = (
                r.median_of(&format!("compiled/{combo}/interp")),
                r.median_of(&format!("compiled/{combo}/bytecode")),
            ) {
                if byte > 0 {
                    let speedup = seq as f64 / byte as f64;
                    r.annotate(
                        &format!("compiled/{combo}/speedup_x1000"),
                        (speedup * 1000.0) as u64,
                    );
                    if nnz == top {
                        top_speedups.push((k.name.to_string(), speedup));
                    }
                }
            }
            if let (Some(tree), Some(comp)) = (
                r.median_of(&format!("compiled/{combo}/hybrid_treewalk")),
                r.median_of(&format!("compiled/{combo}/hybrid_compiled")),
            ) {
                if comp > 0 {
                    r.annotate(
                        &format!("compiled/{combo}/hybrid_speedup_x1000"),
                        (tree as f64 / comp as f64 * 1000.0) as u64,
                    );
                }
            }
            let probe = run_hybrid_seeded(&rep, hybrid_config(true), &presets)
                .expect("telemetry probe run");
            let t = &probe.telemetry;
            for (name, v) in [
                ("compiled_loops", t.compiled_loops),
                ("compiled_worker_dispatches", t.compiled_worker_dispatches),
                ("worker_chunks_typed", t.worker_chunks_typed),
                ("worker_chunks_per_op", t.worker_chunks_per_op),
                ("worker_chunks_tree_walk", t.worker_chunks_tree_walk),
                ("worker_threads_spawned", t.worker_threads_spawned),
                ("compiled_fallbacks", t.compiled_fallbacks()),
            ] {
                r.annotate(&format!("compiled/{combo}/{name}"), v);
            }
        }
    }

    // Opcode mix of the flagship kernel: one profiled pass (profiling
    // keeps the entry on the per-op loop, so this is not a timed entry).
    let scale = SparseScale {
        n: (top / 16).max(1),
        nnz: top,
        structure: Structure::Uniform,
        seed: 0xCC5,
    };
    if let Some(k) = kernels(&scale).into_iter().find(|k| k.name == "spmv") {
        let rep = compile_source(&k.source, DriverOptions::with_iaa()).expect("kernel parses");
        let presets = k.resolve_presets(&rep.program);
        let mut it = Interp::new(&rep.program);
        for (var, data) in &presets {
            it.preset_array(*var, data.clone());
        }
        it.compiled_profile = Some(Box::new(CompiledProfile::new()));
        let mut d = CompiledDispatch::new();
        it.exec_proc_with(rep.program.main(), &mut d)
            .expect("profiled run");
        let prof = it
            .compiled_profile
            .take()
            .expect("profile survives the run");
        for (i, &count) in prof.counts.iter().enumerate() {
            if count > 0 {
                r.annotate(&format!("compiled/opcodes/{}", OPCODE_NAMES[i]), count);
            }
        }
    }

    if !top_speedups.is_empty() {
        let geomean = (top_speedups.iter().map(|(_, s)| s.ln()).sum::<f64>()
            / top_speedups.len() as f64)
            .exp();
        r.annotate("compiled/geomean_speedup_x1000", (geomean * 1000.0) as u64);
        println!("\nsingle-thread bytecode speedup at {top} nnz:");
        for (name, s) in &top_speedups {
            println!("  {name:<12} {s:.2}x");
        }
        println!("  {:<12} {geomean:.2}x", "geomean");
    }
    std::process::exit(r.finalize());
}
