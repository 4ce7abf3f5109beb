//! The sparse workload suite: verdict stability, three-way execution
//! parity, and edge matrices for every generated kernel.

use irr_repro::driver::{compile_source, CompilationReport, DispatchTier, DriverOptions};
use irr_repro::exec::{ArrayData, Interp};
use irr_repro::programs::sparse::{
    interproc_kernels, kernels, producer_kernels, ExpectedTier, SparseProgram, SparseScale,
    STRUCTURES,
};
use irr_repro::programs::Case;
use irr_repro::runtime::{run_hybrid_seeded, HybridConfig, HybridOutcome};
use irr_repro::sanitizer::parity::{first_divergence, sequential, Reals};
use irr_repro::sanitizer::{checks, AuditConfig};
use irr_repro::sparse::Structure;

fn compile_kernel(k: &SparseProgram) -> CompilationReport {
    compile_source(&k.source, DriverOptions::with_iaa())
        .unwrap_or_else(|e| panic!("{}: parse error: {e}", k.name))
}

/// Runs `k` under each of `configs` and asserts every run reproduced
/// the sequential interpreter exactly, to the oracle (output, every
/// non-privatized variable, costs and loop statistics; no tolerance:
/// no kernel merges a real reduction). Returns the hybrid outcomes.
fn expect_parity<const N: usize>(
    k: &SparseProgram,
    rep: &CompilationReport,
    configs: [HybridConfig; N],
) -> [HybridOutcome; N] {
    let presets = Case::from(k).resolve_presets(&rep.program);
    let seq =
        sequential(rep, &presets).unwrap_or_else(|e| panic!("{}: sequential run: {e}", k.name));
    configs.map(|config| {
        let out = run_hybrid_seeded(rep, config, &presets)
            .unwrap_or_else(|e| panic!("{}: hybrid run: {e}", k.name));
        let diff = first_divergence(rep, &seq, &out.outcome, Reals::Exact);
        assert_eq!(diff, None, "{} under {config:?}", k.name);
        out
    })
}

/// Strategies on (the default), and every dispatch through the
/// write-log.
fn strategies_on_and_off() -> [HybridConfig; 2] {
    let off = HybridConfig {
        enable_strategies: false,
        ..HybridConfig::default()
    };
    [HybridConfig::default(), off]
}

/// Every kernel's main loop lands on its expected dispatch tier with
/// its expected strategy facts, for all three matrix structures.
#[test]
fn verdicts_are_stable() {
    for structure in STRUCTURES {
        for k in kernels(&SparseScale::test(structure, 42)) {
            let rep = compile_kernel(&k);
            let v = rep
                .verdict(&k.label)
                .unwrap_or_else(|| panic!("{}: no verdict for {}", k.name, k.label));
            let tier_ok = match k.expected_tier {
                ExpectedTier::CompileTimeParallel => {
                    matches!(v.tier, DispatchTier::CompileTimeParallel)
                }
                ExpectedTier::RuntimeGuarded => matches!(v.tier, DispatchTier::RuntimeGuarded(_)),
                ExpectedTier::Sequential => matches!(v.tier, DispatchTier::Sequential),
            };
            assert!(
                tier_ok,
                "{} ({}): expected {:?}, got {:?} (blockers: {:?})",
                k.name,
                structure.tag(),
                k.expected_tier,
                v.tier,
                v.blockers
            );
            assert_eq!(
                v.strategy_facts.name(),
                k.expected_facts,
                "{} ({}): strategy facts",
                k.name,
                structure.tag()
            );
        }
    }
}

/// Three-way parity at small size: hybrid with strategies, hybrid with
/// the write-log only, and the plain sequential interpreter must agree
/// on every observable.
#[test]
fn three_way_parity_for_every_kernel() {
    for k in kernels(&SparseScale::test(Structure::Uniform, 7)) {
        let rep = compile_kernel(&k);
        let [on, off] = expect_parity(&k, &rep, strategies_on_and_off());
        assert_eq!(
            on.telemetry.fallbacks(),
            0,
            "{}: {:?}",
            k.name,
            on.telemetry
        );
        assert_eq!(
            off.telemetry.fallbacks(),
            0,
            "{}: {:?}",
            k.name,
            off.telemetry
        );
    }
}

/// The guarded kernels actually clear their guards and dispatch
/// parallel; the strategy kernels commit through their strategies.
#[test]
fn dispatch_telemetry_matches_the_tier_map() {
    for k in kernels(&SparseScale::test(Structure::Uniform, 21)) {
        let rep = compile_kernel(&k);
        let [out] = expect_parity(&k, &rep, [HybridConfig::default()]);
        let t = &out.telemetry;
        match k.expected_tier {
            ExpectedTier::CompileTimeParallel => {
                assert!(t.compile_time_parallel >= 1, "{}: {t:?}", k.name);
            }
            ExpectedTier::RuntimeGuarded => {
                assert!(t.guarded_parallel >= 1, "{}: {t:?}", k.name);
                assert_eq!(t.guarded_sequential, 0, "{}: {t:?}", k.name);
            }
            ExpectedTier::Sequential => {
                if k.expected_facts == "consecutive-append" {
                    assert!(t.concat_parallel >= 1, "{}: {t:?}", k.name);
                } else {
                    assert!(t.sequential_proven >= 1, "{}: {t:?}", k.name);
                }
            }
        }
        match k.expected_facts {
            // The three in-place shapes: the main loop's dispatch
            // commits through the master's buffers, and nothing in the
            // program needs the log.
            "disjoint-affine" | "offset-length-segment" | "certified-scatter" => {
                assert!(t.strategy_in_place >= 1, "{}: {t:?}", k.name);
                assert_eq!(t.strategy_write_log, 0, "{}: {t:?}", k.name);
            }
            "consecutive-append" => assert!(t.strategy_concat >= 1, "{}: {t:?}", k.name),
            "none" => assert_eq!(t.strategy_in_place, 0, "{}: {t:?}", k.name),
            other => panic!("{}: unknown expected facts `{other}`", k.name),
        }
    }
}

/// No parallel dispatch of any kernel, on any structure, is refused for
/// a nest its workers cannot run: every worker is the typed loop, from
/// its first iteration — `rowgather`, which reads one of its arrays only
/// under a branch, included.
#[test]
fn no_worker_chunk_walks() {
    for structure in STRUCTURES {
        for k in kernels(&SparseScale::test(structure, 5)) {
            let rep = compile_kernel(&k);
            let [out] = expect_parity(&k, &rep, [HybridConfig::default()]);
            let t = &out.telemetry;
            let what = format!("{} ({})", k.name, structure.tag());
            assert_eq!(t.fallback_unsupported, 0, "{what}: {t:?}");
            if t.parallel_dispatches() > 0 {
                assert!(t.worker_chunks_typed > 0, "{what}: {t:?}");
            }
        }
    }
}

/// A preset is shared, not copied: after a hybrid run — typed or walked
/// sequential tier, strategies on or off — every preset the run never
/// wrote still shares its buffer with the caller's, every one it wrote
/// holds a copy of its own, and the caller's arrays hold what they held.
#[test]
fn a_run_copies_only_the_presets_it_writes() {
    let walked = HybridConfig {
        enable_compiled: false,
        ..HybridConfig::default()
    };
    let [on, off] = strategies_on_and_off();
    let families: [fn(&SparseScale) -> Vec<SparseProgram>; 3] =
        [kernels, producer_kernels, interproc_kernels];
    let mut written = 0;
    for k in families
        .iter()
        .flat_map(|f| f(&SparseScale::test(Structure::Uniform, 11)))
    {
        let rep = compile_kernel(&k);
        let presets = Case::from(&k).resolve_presets(&rep.program);
        let before: Vec<ArrayData> = presets.iter().map(|(_, d)| d.copied()).collect();
        for config in [on, off, walked] {
            let out = run_hybrid_seeded(&rep, config, &presets)
                .unwrap_or_else(|e| panic!("{}: hybrid run: {e}", k.name));
            let store = &out.outcome.store;
            for ((var, data), held) in presets.iter().zip(&before) {
                let what = format!(
                    "{} `{}` under {config:?}",
                    k.name,
                    rep.program.symbols.name(*var)
                );
                assert_eq!(data, held, "{what}: the caller's preset changed");
                // Installing a preset is the array's first version.
                let wrote = store.array_version(*var) > 1;
                let shared = store.array_ref(*var).unwrap().shares_buffer(data);
                assert_eq!(shared, !wrote, "{what}");
                written += usize::from(wrote);
            }
        }
    }
    assert!(written > 0, "no kernel writes a preset");
}

/// The runtime inspectors survive 10M-nonzero index arrays: the
/// offset–length scan over a 10M-element prefix-sum chain, the bitmap
/// injectivity scan over a 10M permutation (dense range), over 10M
/// widely-scattered values in order (monotone: no bitmap, no sort) and
/// its sorting fallback over the same values permuted. Inspectors are
/// called directly on a preset store — no interpreted initialization
/// loops — so the test stays fast.
#[test]
fn inspectors_survive_ten_million_nonzeros() {
    use irr_repro::exec::{inspect_injective, inspect_offset_length};
    use irr_repro::frontend::parse_program;
    use irr_repro::sparse::{generate, int_array, random_permutation, MatrixSpec};

    const NNZ: usize = 10_000_000;
    const ROWS: usize = 100_000;
    let m = generate(&MatrixSpec::square(ROWS, NNZ, Structure::Uniform, 99));
    assert_eq!(m.nnz(), NNZ);

    // Declared extents are irrelevant: a preset is its array's storage.
    let p = parse_program(
        "program t
         integer ptr(1), len(1), perm(1), wide(1)
         end",
    )
    .unwrap();
    let (ptr, len) = (
        p.symbols.lookup("ptr").unwrap(),
        p.symbols.lookup("len").unwrap(),
    );
    let (perm, wide) = (
        p.symbols.lookup("perm").unwrap(),
        p.symbols.lookup("wide").unwrap(),
    );
    let permutation = random_permutation(NNZ, 7);
    // Widely-scattered distinct values: range ~1000x the section. In
    // order they are strictly increasing, which certifies with no
    // bitmap and no sort.
    let scattered: Vec<i64> = (1..=NNZ as i64).map(|k| k * 1009).collect();
    let mut it = Interp::new(&p);
    it.preset_array(ptr, int_array(&m.ptr));
    it.preset_array(len, int_array(&m.len));
    it.preset_array(perm, int_array(&permutation));
    it.preset_array(wide, int_array(&scattered));
    drop(scattered);
    let store = it.run().unwrap().store;

    assert!(inspect_offset_length(&store, ptr, len, 1, ROWS as i64));
    assert!(inspect_injective(&store, perm, 1, NNZ as i64));
    assert!(inspect_injective(&store, wide, 1, NNZ as i64));
    drop(store);
    // The same values permuted are not monotone, so the inspector sorts
    // instead of marking a bitmap. A single duplicate at the far end of
    // the permutation must still be caught.
    let permuted: Vec<i64> = permutation.iter().map(|k| k * 1009).collect();
    let mut broken = permutation;
    broken[NNZ - 1] = broken[0];
    let mut it2 = Interp::new(&p);
    it2.preset_array(perm, int_array(&broken));
    it2.preset_array(wide, int_array(&permuted));
    drop((broken, permuted));
    let store2 = it2.run().unwrap().store;
    assert!(inspect_injective(&store2, wide, 1, NNZ as i64));
    assert!(!inspect_injective(&store2, perm, 1, NNZ as i64));
}

/// Every producer kernel's consumer loop promotes to compile-time
/// parallel with at least one retired residual check, for all three
/// matrix structures — the value-evolution analysis proves the
/// in-program offset–length chains and the reversal-fill injectivity —
/// and so do their call-structured forms, through the interprocedural
/// summaries: the gate `sanitizer-audit`'s `evolution` and `interproc`
/// sweeps apply (`checks::promotion`, `checks::interproc_promotion`),
/// five of five per structure.
#[test]
fn producer_kernels_promote_across_structures() {
    type Family = fn(&SparseScale) -> Vec<SparseProgram>;
    let gates: [(Family, checks::Check); 2] = [
        (producer_kernels, checks::promotion),
        (interproc_kernels, checks::interproc_promotion),
    ];
    for structure in STRUCTURES {
        let scale = SparseScale::test(structure, 42);
        let mut promoted = 0;
        for (family, gate) in gates {
            for k in family(&scale) {
                let what = format!("{} ({})", k.name, structure.tag());
                let checked = gate(&Case::from(&k), &AuditConfig::default());
                assert!(checked.violations.is_empty(), "{what}: {checked:#?}");
                // The promoted loop is the kernel's main loop. The
                // segment walks commit in place with no inspection at
                // all; the scatter has no certificate to commit under
                // (the analysis retired the scan that would issue one)
                // and keeps the write-log.
                let rep = compile_kernel(&k);
                let v = rep.verdict(&k.label).expect("the main loop has a verdict");
                assert!(!v.retired_checks.is_empty(), "{what}: {v:?}");
                assert_eq!(v.strategy_facts.name(), k.expected_facts, "{what}");
                promoted += 1;
            }
        }
        assert_eq!(promoted, 5, "{}", structure.tag());
    }
}

/// The producer kernels keep three-way parity with the sequential
/// interpreter and dispatch without fallbacks, and the telemetry
/// records the evolution promotion: at least one compile-time-parallel
/// entry owed to evolution, with its inspections counted as retired
/// instead of run.
#[test]
fn producer_kernels_keep_parity_and_retire_inspections() {
    for k in producer_kernels(&SparseScale::test(Structure::Uniform, 7)) {
        let rep = compile_kernel(&k);
        let [on, _] = expect_parity(&k, &rep, strategies_on_and_off());
        let t = &on.telemetry;
        assert_eq!(t.fallbacks(), 0, "{}: {t:?}", k.name);
        assert!(t.promoted_by_evolution >= 1, "{}: {t:?}", k.name);
        assert!(t.inspections_retired >= 1, "{}: {t:?}", k.name);
        assert!(t.compile_time_parallel >= 1, "{}: {t:?}", k.name);
    }
}

/// The shadow tracer replays every evolution-retired check against the
/// live store at each promoted loop entry. A promotion the tracer
/// contradicts is a soundness bug, so a clean replay across structures
/// (`checks::replay`, the second check of `sanitizer-audit`'s
/// `evolution` sweep) is the ground truth that the compile-time proofs
/// match the data the inspectors used to see.
#[test]
fn sanitizer_confirms_every_promotion() {
    let config = AuditConfig {
        inputs: 2,
        ..AuditConfig::default()
    };
    for structure in STRUCTURES {
        for k in producer_kernels(&SparseScale::test(structure, 13)) {
            let checked = checks::replay(&Case::from(&k), &config);
            assert!(
                checked.violations.is_empty(),
                "{} ({}): evolution promotion contradicted: {checked:#?}",
                k.name,
                structure.tag()
            );
        }
    }
}

/// Zero-nonzero and single-row producer matrices (the satellite-3 edge
/// cases): a zero-trip histogram still yields a monotone-nondecreasing
/// — not strictly increasing — chain, which is exactly what the
/// offset–length discharge needs, so the consumers stay promoted and
/// parity holds on empty and single-segment windows.
#[test]
fn producer_kernels_keep_promotion_at_edge_scales() {
    for scale in [
        SparseScale {
            n: 8,
            nnz: 0,
            structure: Structure::Uniform,
            seed: 3,
        },
        SparseScale {
            n: 1,
            nnz: 16,
            structure: Structure::Banded { bandwidth: 4 },
            seed: 4,
        },
    ] {
        for k in producer_kernels(&scale) {
            let rep = compile_kernel(&k);
            let v = rep
                .verdict(&k.label)
                .unwrap_or_else(|| panic!("{}: no verdict for {}", k.name, k.label));
            assert!(
                matches!(v.tier, DispatchTier::CompileTimeParallel),
                "{} (n={}, nnz={}): {:?} (blockers: {:?})",
                k.name,
                scale.n,
                scale.nnz,
                v.tier,
                v.blockers
            );
            expect_parity(&k, &rep, [HybridConfig::default()]);
        }
    }
}

/// Zero-nonzero and single-row matrices: every kernel still compiles,
/// runs, and keeps hybrid/sequential parity (loops are zero-trip or
/// single-iteration, guards inspect empty or tiny sections).
#[test]
fn edge_matrices_keep_parity() {
    for scale in [
        SparseScale {
            n: 8,
            nnz: 0,
            structure: Structure::Uniform,
            seed: 3,
        },
        SparseScale {
            n: 1,
            nnz: 16,
            structure: Structure::Banded { bandwidth: 4 },
            seed: 4,
        },
    ] {
        for k in kernels(&scale) {
            let rep = compile_kernel(&k);
            expect_parity(&k, &rep, [HybridConfig::default()]);
        }
    }
}

/// The typed bodies the exec workloads rest on. The parity suites
/// compare results and the benchmark's ratio gates divide two runs of
/// the same body, so neither sees a lost fusion or a lost common
/// subexpression; this does. Each kernel's labelled loop lowers to at
/// most the instructions it has today, and the SpMV inner block — the
/// paper's offset–length walk feeding a subscripted subscript — is
/// pinned instruction for instruction.
#[test]
fn kernel_bodies_keep_their_fusions() {
    use irr_repro::driver::compiled::{lower_do_loop, FOp};
    // Kernel, most instructions in its per-iteration blocks, streams.
    const MAX_OPS: [(&str, usize, u32); 9] = [
        ("spmv", 13, 1),
        ("jacobi", 20, 1),
        ("trisolve", 20, 0),
        ("lufront", 11, 1),
        ("colscale", 10, 1),
        ("chase", 20, 0),
        ("scale", 5, 1),
        ("permute", 4, 1),
        ("rowgather", 8, 1),
    ];
    let kernels = kernels(&SparseScale::test(Structure::Uniform, 11));
    assert_eq!(kernels.len(), MAX_OPS.len());
    for (k, (name, max_ops, streams)) in kernels.iter().zip(MAX_OPS) {
        assert_eq!(k.name, name);
        let rep = compile_kernel(k);
        let v = rep.verdicts.iter().find(|v| v.label == k.label).unwrap();
        let body = lower_do_loop(&rep.program, v.loop_stmt).unwrap();
        assert!(
            body.op_count() <= max_ops,
            "{name}: {} ops, at most {max_ops} expected: {:#?}",
            body.op_count(),
            body.blocks()
        );
        // A stream sits beside its block; the triangular solve reads
        // the array it accumulates into and must not get one.
        assert_eq!(body.plan().stream_loops, streams, "{name}");
        if name != "spmv" {
            continue;
        }
        // `y(i) = y(i) + aval(rowptr(i)+j-1) * x(colidx(rowptr(i)+j-1))`:
        // `y(i)` and `rowptr(i)` loaded once each, one three-term
        // address for both uses, one gather, one multiply–add — and no
        // register move anywhere in the nest. An access reads as its
        // instruction and its address form: `LoadF.Ind` is the gather.
        let mnemonic = |op: &FOp| {
            let word = |t: &str| t[..t.find([' ', '(']).unwrap()].to_string();
            let text = format!("{op:?}");
            match text.split_once(" at: ") {
                Some((_, at)) => format!("{}.{}", word(&text), word(at)),
                None => word(&text),
            }
        };
        let inner: Vec<String> = body.blocks()[1].iter().map(mnemonic).collect();
        let expected = "Charge LoadF.Elem LoadI.Elem LeaI LoadF.Elem LoadF.Ind MulAddF StoreF.Elem";
        assert_eq!(inner.join(" "), expected, "{:#?}", body.blocks()[1]);
        let moves = body.blocks().iter().flatten().map(mnemonic);
        assert_eq!(moves.filter(|m| m.starts_with("Mov")).count(), 0);
    }
}
