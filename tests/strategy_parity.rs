//! Execution-mode parity suite: proof-directed strategies and the
//! compiled bytecode tier must be semantically invisible.
//!
//! Every program runs four ways — **compiled** (bytecode tier for
//! sequential leaves, strategies enabled), **strategies** (sequential
//! leaves walked, in-place / concat commits where proven), **write-log**
//! (sequential leaves walked, every parallel dispatch through the
//! transactional write-log), and pure **sequential** interpretation —
//! and all four must agree on the final store, the printed output, and
//! the execution statistics (the compiled tier replays the tree-walk's
//! fuel accounting instruction for instruction). Parallel workers run
//! the typed loop in every mode. The corpus is the five benchmark kernels, the paper
//! figures, the generated sparse kernels, and a SplitMix64-randomized
//! program sweep, plus dedicated kernels for the zero-trip,
//! single-iteration, and consecutively-written (concat) edge cases.

use irr_driver::{compile_source, CompilationReport, DispatchTier, DriverOptions, StrategyFacts};
use irr_exec::ArrayData;
use irr_programs::fuzz::{random_cases, strategy_programs};
use irr_programs::sparse::{kernels, SparseScale};
use irr_programs::{paper_cases, Case, Scale};
use irr_runtime::{run_hybrid_seeded, HybridConfig, HybridOutcome};
use irr_sanitizer::parity::{first_divergence, sequential, Reals};
use irr_sanitizer::{checks, AuditConfig};
use irr_sparse::Structure;

fn compile(case: &Case) -> CompilationReport {
    compile_source(&case.source, DriverOptions::with_iaa()).expect("compiles")
}

/// The three hybrid modes of the matrix; the fourth way is the pure
/// sequential interpreter every mode is compared against.
const MODES: [(&str, bool, bool); 3] = [
    // (name, enable_compiled, enable_strategies)
    ("compiled", true, true),
    ("strategies", false, true),
    ("write-log", false, false),
];

/// The host's thread count, as `HybridConfig::default()` takes it.
fn host_threads() -> usize {
    HybridConfig::default().threads
}

/// Runs the full mode matrix against the sequential baseline; returns
/// the hybrid outcomes in [`MODES`] order (compiled, strategies,
/// write-log) for telemetry assertions.
fn four_way(case: &Case, rep: &CompilationReport) -> Vec<HybridOutcome> {
    four_way_at(case, rep, host_threads())
}

/// [`four_way`] with the chunk count pinned. Every mode must reproduce
/// the sequential run to the oracle: output, store (privatized scratch
/// excluded), total cost and per-loop statistics, reals modulo
/// reassociation.
fn four_way_at(case: &Case, rep: &CompilationReport, threads: usize) -> Vec<HybridOutcome> {
    let name = &case.name;
    let presets = case.resolve_presets(&rep.program);
    let seq = sequential(rep, &presets).expect("sequential run");
    MODES
        .iter()
        .map(|&(mode, enable_compiled, enable_strategies)| {
            let config = HybridConfig {
                threads,
                enable_compiled,
                enable_strategies,
                ..HybridConfig::default()
            };
            let out = run_hybrid_seeded(rep, config, &presets)
                .unwrap_or_else(|e| panic!("{name} ({mode}): {e}"));
            let diff = first_divergence(rep, &seq, &out.outcome, Reals::Reassociated);
            assert_eq!(diff, None, "{name} ({mode}) x{threads}");
            out
        })
        .collect()
}

/// The corpus tests also hold every program to the check
/// `sanitizer-audit`'s `compiled` sweep runs: the compiled tier's own
/// dispatcher against the tree-walk, exactly.
fn expect_compiled_parity(case: &Case) {
    let checked = checks::compiled(case, &AuditConfig::default());
    assert!(checked.violations.is_empty(), "{}: {checked:#?}", case.name);
}

#[test]
fn benchmarks_and_figures_agree_under_all_modes() {
    let mut in_place_commits = 0u64;
    let mut compiled_commits = 0u64;
    for case in &paper_cases(Scale::Test) {
        let name = &case.name;
        expect_compiled_parity(case);
        let rep = compile(case);
        let outs = four_way(case, &rep);
        let (with_compiled, with, without) = (&outs[0], &outs[1], &outs[2]);
        in_place_commits += with.telemetry.strategy_in_place;
        compiled_commits += with_compiled.telemetry.compiled_loops;
        assert_eq!(
            without.telemetry.strategy_in_place + without.telemetry.strategy_concat,
            0,
            "{name}: strategies disabled must commit only through the write-log: {:?}",
            without.telemetry
        );
        assert_eq!(
            with.telemetry.compiled_loops, 0,
            "{name}: compiled tier disabled must stay on the tree-walk: {:?}",
            with.telemetry
        );
    }
    assert!(
        in_place_commits > 0,
        "the corpus must exercise the in-place strategy at least once"
    );
    assert!(
        compiled_commits > 0,
        "the corpus must exercise the compiled tier at least once"
    );
}

#[test]
fn sparse_kernels_agree_under_all_modes() {
    for k in kernels(&SparseScale::test(Structure::Uniform, 11)) {
        let case = Case::from(&k);
        expect_compiled_parity(&case);
        four_way(&case, &compile(&case));
    }
}

#[test]
fn randomized_programs_agree_under_all_modes() {
    for case in random_cases(0xC0FFEE, 16) {
        expect_compiled_parity(&case);
        four_way(&case, &compile(&case));
    }
}

/// Soundness of the three in-place write shapes: every template of
/// `strategy_programs` at every trip count (zero, one, many), through
/// the whole matrix at 1, 2, 3 and 7 chunks. All four ways must agree
/// on the store, whatever the program; on top of that a *shape* must
/// commit every entry of its loop in place (no log, no fallback), and a
/// *near-miss* — a dependent loop, or a parallel one the executor has
/// no business writing through a master buffer for — must not commit
/// in place once it has two iterations to collide: it ends on the
/// write-log, in a fallback, or sequential.
#[test]
fn strategy_shapes_commit_in_place_and_their_near_misses_do_not() {
    let mut logged = std::collections::BTreeSet::new();
    for program in strategy_programs() {
        let rep = compile(&program.case);
        // What the loops around the one under test commit in place:
        // the same program with `F/do20` pinned sequential.
        let mut pinned = rep.clone();
        let v = pinned
            .verdicts
            .iter_mut()
            .find(|v| v.label == "F/do20")
            .expect("the labeled loop has a verdict");
        let honest_tier = std::mem::replace(&mut v.tier, DispatchTier::Sequential);
        v.strategy_facts = StrategyFacts::None;
        for threads in [1, 2, 3, 7] {
            let name = format!("{} x{threads}", program.case.name);
            let around = four_way_at(&program.case, &pinned, threads);
            let outs = four_way_at(&program.case, &rep, threads);
            // compiled and walked sequential tiers, strategies on
            for (out, around) in outs.iter().zip(&around).take(2) {
                let t = &out.telemetry;
                let in_place = t.strategy_in_place - around.telemetry.strategy_in_place;
                if program.in_place {
                    assert_eq!(
                        (in_place, t.strategy_write_log, t.fallbacks()),
                        (1, 0, 0),
                        "{name}: a shape must commit in place ({honest_tier:?}): {t:?}"
                    );
                } else if program.iterations > 1 {
                    assert_eq!(
                        in_place, 0,
                        "{name}: a near-miss must not ({honest_tier:?}): {t:?}"
                    );
                    if t.strategy_write_log > around.telemetry.strategy_write_log {
                        logged.insert(program.case.name.clone());
                    }
                }
            }
            assert_eq!(outs[2].telemetry.strategy_in_place, 0, "{name}");
        }
    }
    // The near-misses that are parallel loops reach the executor, whose
    // own derivation (or certificate check) is what keeps them on the
    // write-log; the rest are dependent and never dispatch.
    assert_eq!(
        logged.into_iter().collect::<Vec<_>>(),
        ["scatter-rmw", "strided-affine"]
    );
}

/// The three write shapes with a body the typed loop runs as a stream
/// — a read-modify-write at `i`, a segment walk, a certified scatter —
/// at one chunk, two, and more threads than the pool creates or the
/// loop has iterations: the workers stream through their windows
/// whether the sequential loops run compiled or walked, and every mode
/// agrees.
#[test]
fn each_write_shape_streams_in_its_workers_at_any_thread_count() {
    let streamed = ["affine-rmw", "segment-and-affine", "scatter"];
    let programs = strategy_programs()
        .filter(|p| p.iterations == 32 && streamed.contains(&p.case.name.as_str()));
    for program in programs {
        let rep = compile(&program.case);
        let plan = rep.verdict("F/do20").unwrap().compiled.unwrap();
        assert_eq!(plan.stream_loops, 1, "{}: {plan:?}", program.case.name);
        let mut streamed_iters = None;
        for threads in [1, 2, 300] {
            let name = format!("{} x{threads}", program.case.name);
            let outs = four_way_at(&program.case, &rep, threads);
            let t = &outs[0].telemetry;
            assert_eq!(
                (t.strategy_write_log, t.fallbacks()),
                (0, 0),
                "{name}: {t:?}"
            );
            // Workers are the typed loop in every mode, so they stream
            // whenever strategies are on; a write-log store is logged,
            // and a logged store has no raw lane to stream into.
            let entries = [0, 1, 2].map(|k| outs[k].outcome.stats.stream_entries);
            assert!(
                entries[0] > 0 && entries[1] > 0 && entries[2] == 0,
                "{name}: {entries:?}"
            );
            // However the loop is chunked, its workers stream every
            // iteration between them, and the master adds theirs up.
            let iters = outs[0].outcome.stats.stream_iters;
            assert_eq!(iters, *streamed_iters.get_or_insert(iters), "{name}");
            assert_eq!(outs[1].outcome.stats.stream_iters, iters, "{name}");
            assert!(iters >= 32, "{name}");
        }
    }
}

/// Stream coverage, read off the verdicts' plans (a `CompiledPlan` of
/// an innermost `do` counts its own stream and nothing else): per
/// program, `(streams, innermost do loops)` — the table in
/// EXPERIMENTS.md, "The typed loop stops dispatching per nonzero" —
/// and, over the corpus and the benchmark's three sweep sources, the
/// streams by [`Stream::shape`](irr_driver::compiled::Stream::shape),
/// filter streams by [`Filter::shape`](irr_driver::compiled::Filter::shape)
/// — the histogram in "A stream stops deciding per element". A lowering
/// that loses a stream, or a family widened by accident, changes a row
/// here before it changes a timing; a shape that appears here without
/// an arm in the typed loop's instantiation table runs on the catch-all.
#[test]
fn stream_coverage_is_the_table_in_experiments_md() {
    use irr_driver::compiled::lower_do_loop;
    use irr_frontend::StmtKind;
    use irr_programs::sparse::{interproc_kernels, producer_kernels};
    use std::collections::BTreeMap;
    // The shapes of a program's streams, and its innermost `do` loops.
    let coverage = |source: &str| {
        let rep = compile_source(source, DriverOptions::with_iaa()).expect("compiles");
        let p = &rep.program;
        let innermost = rep
            .verdicts
            .iter()
            .filter(|v| match &p.stmt(v.loop_stmt).kind {
                StmtKind::Do { body, .. } => {
                    !p.stmts_in(body).iter().any(|s| p.stmt(*s).kind.is_loop())
                }
                _ => false,
            });
        let (mut shapes, mut loops) = (Vec::new(), 0);
        for v in innermost {
            loops += 1;
            let stream = lower_do_loop(p, v.loop_stmt).ok().and_then(|cb| {
                let filter = cb.filter(0).map(|f| f.shape());
                cb.stream(0).map(|sd| sd.shape()).or(filter)
            });
            assert_eq!(
                v.compiled.map_or(0, |plan| plan.stream_loops),
                stream.is_some() as u32
            );
            shapes.extend(stream);
        }
        (shapes, loops)
    };
    let scale = SparseScale::test(Structure::Uniform, 11);
    let sparse = kernels(&scale)
        .into_iter()
        .chain(producer_kernels(&scale))
        .chain(interproc_kernels(&scale))
        .map(|k| (k.name.to_string(), k.source));
    let paper = paper_cases(Scale::Test)
        .into_iter()
        .map(|c| (c.name, c.source));
    let got: Vec<(String, (Vec<String>, u32))> = paper
        .chain(sparse)
        .map(|(name, source)| (name, coverage(&source)))
        .collect();
    let want = [
        ("TRFD", (0, 11)),
        ("DYFESM", (6, 16)),
        ("BDNA", (4, 10)),
        ("P3M", (4, 10)),
        ("TREE", (3, 7)),
        ("FIG1A", (0, 5)),
        ("FIG1B", (0, 2)),
        ("FIG1C", (2, 6)),
        ("MODPERM", (1, 2)),
        ("spmv", (1, 1)),
        ("jacobi", (1, 1)),
        ("trisolve", (0, 1)),
        ("lufront", (1, 1)),
        ("colscale", (1, 1)),
        ("chase", (0, 0)),
        ("scale", (1, 1)),
        ("permute", (1, 1)),
        ("rowgather", (1, 1)),
        ("lufront_producer", (1, 4)),
        ("colscale_producer", (1, 4)),
        ("permute_producer", (1, 2)),
        ("lufront_callchain", (1, 4)),
        ("permute_callchain", (1, 2)),
    ];
    let counts: Vec<(&str, (usize, u32))> = got
        .iter()
        .map(|(n, (shapes, loops))| (n.as_str(), (shapes.len(), *loops)))
        .collect();
    assert_eq!(counts, want);
    let fuzz: Vec<(Vec<String>, u32)> = random_cases(42, 64)
        .into_iter()
        .map(|c| coverage(&c.source))
        .collect();
    let total = fuzz
        .iter()
        .fold((0, 0), |(s, n), c| (s + c.0.len(), n + c.1));
    assert_eq!(total, (26, 131));
    // The sweep sources are the benchmark's templates: any extent does.
    let sweeps = ["permute", "spmv", "scale"].map(|kernel| {
        let path = format!(
            "{}/benchmark/sources/sweep_{kernel}.f",
            env!("CARGO_MANIFEST_DIR")
        );
        let template = std::fs::read_to_string(path).expect("a sweep source");
        let filled = template.split('@').enumerate();
        let filled: String = filled.map(|(k, s)| [s, "8"][k % 2]).collect();
        coverage(&filled)
    });
    let mut histogram = BTreeMap::new();
    let all = got.into_iter().map(|(_, c)| c).chain(fuzz).chain(sweeps);
    for shape in all.flat_map(|(shapes, _)| shapes) {
        *histogram.entry(shape).or_insert(0) += 1;
    }
    let mut histogram: Vec<(String, u32)> = histogram.into_iter().collect();
    histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let want = [
        ("elem = acc + val", 26),
        ("lin = lin·val + val", 11),
        ("ind = lin·val", 5),
        ("scalar = acc + lin", 5),
        ("lin > val ⇒ append j", 4),
        ("lin = lin·val + lin", 3),
        ("elem = acc + lin·ind", 2),
        ("lin = lin + lin·val", 2),
        ("elem = acc − lin·ind", 1),
        ("lin < val ⇒ append j", 1),
        ("lin = lin + lin", 1),
    ];
    let got: Vec<(&str, u32)> = histogram.iter().map(|(s, n)| (s.as_str(), *n)).collect();
    assert_eq!(got, want);
}

/// Segmented-stream coverage: over the corpus, the benchmark's sweep
/// sources and the same randomized programs as the stream table, the
/// row loops the lowering records a
/// [`SegStream`](irr_driver::compiled::SegStream) for, by
/// [`SegStream::shape`](irr_driver::compiled::SegStream::shape) — the
/// histogram in EXPERIMENTS.md, "A sparse nest is one kernel". The two
/// shapes the typed loop gives an instantiation of their own are the
/// ones a benchmark row runs, SpMV's and `colscale`'s (8 of the 15 row
/// loops); every other shape runs on the catch-all.
#[test]
fn segmented_stream_coverage_is_the_table_in_experiments_md() {
    use irr_driver::compiled::lower_do_loop;
    use irr_programs::sparse::{interproc_kernels, producer_kernels};
    use std::collections::BTreeMap;
    let segs = |source: &str| -> Vec<String> {
        let rep = compile_source(source, DriverOptions::with_iaa()).expect("compiles");
        let p = &rep.program;
        let lowered = rep
            .verdicts
            .iter()
            .filter_map(|v| lower_do_loop(p, v.loop_stmt).ok());
        lowered
            .filter_map(|cb| cb.seg(0).map(|sg| sg.shape()))
            .collect()
    };
    let scale = SparseScale::test(Structure::Uniform, 11);
    let sparse = kernels(&scale)
        .into_iter()
        .chain(producer_kernels(&scale))
        .chain(interproc_kernels(&scale))
        .map(|k| k.source);
    let paper = paper_cases(Scale::Test).into_iter().map(|c| c.source);
    let fuzz = random_cases(42, 64).into_iter().map(|c| c.source);
    let sweeps = ["permute", "spmv", "scale"].map(|kernel| {
        let path = format!(
            "{}/benchmark/sources/sweep_{kernel}.f",
            env!("CARGO_MANIFEST_DIR")
        );
        let template = std::fs::read_to_string(path).expect("a sweep source");
        let filled = template.split('@').enumerate();
        filled.map(|(k, s)| [s, "8"][k % 2]).collect::<String>()
    });
    let mut histogram = BTreeMap::new();
    for source in paper.chain(sparse).chain(fuzz).chain(sweeps) {
        for shape in segs(&source) {
            *histogram.entry(shape).or_insert(0) += 1;
        }
    }
    let mut got: Vec<(String, u32)> = histogram.into_iter().collect();
    got.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let got: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
    let want = [
        ("lin = lin·val + val", 6),
        ("lin = lin·val + lin", 3),
        ("elem := val; elem = acc + lin·ind", 2),
        ("lin = lin + lin·val", 2),
        ("elem := elem; elem = acc − lin·ind; elem := acc · elem", 1),
        ("lin = lin + lin", 1),
    ];
    assert_eq!(got, want);
}

/// On every sparse kernel, on both structures, the sequential typed
/// loop and every hybrid mode reproduce the tree-walk exactly, and a
/// kernel whose row loop runs as one segmented stream counts what the
/// per-row path counts: one stream entry per row that iterates, every
/// nonzero a streamed iteration, one entry of the inner loop per row
/// and its cost (the per-loop statistics `first_divergence` compares).
#[test]
fn a_segmented_kernel_counts_what_the_per_row_path_counts() {
    use irr_driver::compiled::lower_do_loop;
    use irr_exec::CompiledDispatch;
    use irr_sanitizer::parity::dispatched;
    for structure in [Structure::Uniform, Structure::PowerLaw] {
        for k in kernels(&SparseScale::test(structure, 11)) {
            let case = Case::from(&k);
            let rep = compile(&case);
            let presets = case.resolve_presets(&rep.program);
            let seq = sequential(&rep, &presets).expect("sequential run");
            let typed =
                dispatched(&rep, &presets, &mut CompiledDispatch::new()).expect("typed run");
            let name = format!("{} ({structure:?})", k.name);
            assert_eq!(
                first_divergence(&rep, &seq, &typed, Reals::Exact),
                None,
                "{name}"
            );
            let main = rep.verdict(&k.label).expect("the kernel's loop").loop_stmt;
            let segmented = lower_do_loop(&rep.program, main).is_ok_and(|cb| cb.seg(0).is_some());
            let lens = k
                .presets
                .iter()
                .find(|(n, _)| *n == "rowlen" || *n == "collen");
            if let (true, Some((_, ArrayData::Int { data, .. }))) = (segmented, lens) {
                let rows = data.iter().filter(|&&n| n > 0).count() as u64;
                let nnz: i64 = data.iter().sum();
                let want = (rows, nnz as u64);
                let got = (typed.stats.stream_entries, typed.stats.stream_iters);
                assert_eq!(got, want, "{name}");
                for threads in [1, 2, 3] {
                    let outs = four_way_at(&case, &rep, threads);
                    let stats = &outs[0].outcome.stats;
                    assert_eq!(
                        (stats.stream_entries, stats.stream_iters),
                        want,
                        "{name} x{threads}"
                    );
                }
            } else {
                assert!(
                    !["spmv", "jacobi", "lufront", "colscale"].contains(&k.name),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn zero_trip_and_single_iteration_loops_are_strategy_safe() {
    // `mod(n, 2) = 0` for n = 8: the proven-disjoint loop is zero-trip
    // (no workers spawn, the planned strategy commits vacuously);
    // `mod(n, 2) + 1 = 1`: a single iteration exercises the degenerate
    // one-chunk window.
    for (name, trip) in [("zero-trip", "mod(n, 2)"), ("one-trip", "mod(n, 2) + 1")] {
        let src = format!(
            "program t
             integer i, n, m
             real x(8)
             n = 8
             m = {trip}
             do i = 1, n
               x(i) = i * 1.0
             enddo
             do 20 i = 1, m
               x(i) = i * 2.0
 20          continue
             print x(1), m
             end"
        );
        let case = Case::new(name, src);
        let outs = four_way(&case, &compile(&case));
        let with = &outs[1];
        assert_eq!(
            with.telemetry.fallbacks(),
            0,
            "{name}: {:?}",
            with.telemetry
        );
        assert!(
            with.telemetry.strategy_in_place >= 1,
            "{name}: both loops are proven disjoint: {:?}",
            with.telemetry
        );
    }
}

#[test]
fn in_place_write_log_and_sequential_agree_on_affine_offsets() {
    // The in-place strategy's sharpest edge: affine offset windows
    // (`y(i + 1)`) against the array extent, plus a scalar reduction
    // combined without logging any array traffic.
    let src = "program t
         integer i, n
         real s, big(128), y(129)
         n = 128
         s = 0.0
         do i = 1, n
           big(i) = i * 0.5
         enddo
         do 20 i = 1, n
           y(i + 1) = big(i) + i
           s = s + big(i)
 20      continue
         print y(2), y(129), s
         end";
    let case = Case::new("affine-offset", src);
    let outs = four_way(&case, &compile(&case));
    let (with, without) = (&outs[1], &outs[2]);
    assert!(
        with.telemetry.strategy_in_place >= 1,
        "strategies on must commit in place: {:?}",
        with.telemetry
    );
    assert!(
        without.telemetry.strategy_write_log >= 1,
        "strategies off must commit through the write-log: {:?}",
        without.telemetry
    );
    assert_eq!(with.telemetry.fallbacks(), 0, "{:?}", with.telemetry);
    assert_eq!(without.telemetry.fallbacks(), 0, "{:?}", without.telemetry);
}

#[test]
fn concat_kernel_agrees_and_commits_positionally() {
    // A consecutively-written gather (§2.2): sequential tier promoted
    // to parallel dispatch by the privatize-and-concat strategy. The
    // concatenated result must be byte-identical to the sequential
    // append order.
    let src = "program t
         integer i, n, q, ind(64)
         real x(64)
         n = 64
         q = 0
         do i = 1, n
           x(i) = mod(i, 3) * 1.0
         enddo
         do 20 i = 1, n
           if (x(i) > 0.5) then
             q = q + 1
             ind(q) = i
           endif
 20      continue
         print q, ind(1)
         end";
    let case = Case::new("concat-gather", src);
    let outs = four_way(&case, &compile(&case));
    let (with, without) = (&outs[1], &outs[2]);
    assert!(
        with.telemetry.strategy_concat >= 1,
        "strategies on must commit a positional concat: {:?}",
        with.telemetry
    );
    assert_eq!(
        without.telemetry.concat_parallel, 0,
        "strategies off must not promote the sequential tier: {:?}",
        without.telemetry
    );
    assert_eq!(with.telemetry.fallbacks(), 0, "{:?}", with.telemetry);
}

/// A read-only array the program first touches inside a loop that
/// commits in place: the workers read it, nothing writes it, and it is
/// still in the master's store after the commit exactly as after the
/// sequential run, to the last bit.
#[test]
fn a_read_only_array_first_read_in_an_in_place_loop_is_in_the_master_store() {
    let src = "program t
         integer i, n
         real x(64), y(64)
         n = 64
         do 20 i = 1, n
           y(i) = x(i) * 2.0 + 1.0
 20      continue
         print y(1), y(64)
         end";
    let rep = compile(&Case::new("first-read-in-place", src));
    let seq = sequential(&rep, &[]).expect("sequential run");
    for threads in [1, 2, 3] {
        let config = HybridConfig {
            threads,
            ..HybridConfig::default()
        };
        let got = run_hybrid_seeded(&rep, config, &[]).expect("hybrid run");
        let t = &got.telemetry;
        assert_eq!(
            (t.strategy_in_place, t.fallbacks()),
            (1, 0),
            "x{threads}: {t:?}"
        );
        assert_eq!(t.worker_chunks_typed, threads as u64, "x{threads}: {t:?}");
        let diff = first_divergence(&rep, &seq, &got.outcome, Reals::Exact);
        assert_eq!(diff, None, "x{threads}");
    }
}

/// Each chunk of a concat dispatch appends from the entry pointer, so
/// its own subscripts stay inside the target even where the chunks'
/// appends together do not. The commit's overrun check catches that:
/// the dispatch falls back with a strategy reason, and the sequential
/// re-execution raises the program's own out-of-bounds error — the
/// payload the sequential run raises.
#[test]
fn concat_appends_past_the_target_fall_back_to_the_programs_own_error() {
    use irr_runtime::HybridDispatcher;
    use irr_sanitizer::parity::dispatched;
    // 50 appends into `ind(40)`: 25 a chunk. `ind` is read after the
    // loop, so it is no privatization candidate but the append target.
    let src = "program t
         integer i, n, q, ind(40)
         real x(100)
         n = 100
         q = 0
         do i = 1, n
           x(i) = mod(i, 2) * 1.0
         enddo
         do 20 i = 1, n
           if (x(i) > 0.5) then
             q = q + 1
             ind(q) = i
           endif
 20      continue
         print q, ind(1)
         end";
    let rep = compile(&Case::new("concat-overrun", src));
    let want = irr_exec::ExecError::OutOfBounds {
        array: "ind".to_string(),
        index: 41,
        extent: 40,
    };
    assert_eq!(sequential(&rep, &[]).unwrap_err(), want);
    let config = HybridConfig {
        threads: 2,
        ..HybridConfig::default()
    };
    let mut dispatcher = HybridDispatcher::new(&rep, config);
    assert_eq!(dispatched(&rep, &[], &mut dispatcher).unwrap_err(), want);
    let t = &dispatcher.telemetry;
    assert_eq!(t.concat_parallel, 1, "{t:?}");
    assert_eq!((t.fallback_strategy, t.fallbacks()), (1, 1), "{t:?}");
}

/// A parallel worker is the typed loop, so a dispatch whose nest it
/// cannot run is refused before any chunk runs, as `Unsupported`, and
/// the sequential tier runs the loop — to the sequential result: a
/// scalar assigned under a branch that the commit would have to claim,
/// a `print` in the body (the nest does not lower), and a preset whose
/// element type is not the declared one.
#[test]
fn a_nest_workers_cannot_run_typed_is_refused_and_runs_sequentially() {
    use irr_exec::{ArrayData, FallbackReason, ParallelPlan};
    use irr_sanitizer::parity::{dispatched, OneLoopInChunks};
    let body = [
        ("conditional-scalar", "if (i == 5) then\n last = i\n endif"),
        ("print", "print i"),
        ("preset-type", ""),
    ];
    for (name, extra) in body {
        let src = format!(
            "program t
             integer i, n, last
             real x(8)
             n = 8
             do 20 i = 1, n
               x(i) = x(i) + i * 0.5
               {extra}
 20          continue
             print x(8), last
             end"
        );
        let rep = compile(&Case::new(name, src));
        let x = rep.program.symbols.lookup("x").unwrap();
        let presets = match name {
            "preset-type" => vec![(
                x,
                ArrayData::Int {
                    data: vec![3; 8].into(),
                    dims: [8].into(),
                },
            )],
            _ => Vec::new(),
        };
        let seq = sequential(&rep, &presets).expect("sequential run");
        let do20 = rep.verdict("T/do20").unwrap().loop_stmt;
        let mut chunked = OneLoopInChunks::new(do20, ParallelPlan::with_threads(3));
        let got = dispatched(&rep, &presets, &mut chunked).expect("dispatched run");
        assert_eq!(
            (chunked.committed, &chunked.failed[..]),
            (0, &[FallbackReason::Unsupported][..]),
            "{name}"
        );
        assert_eq!(
            first_divergence(&rep, &seq, &got, Reals::Exact),
            None,
            "{name}"
        );
    }
}
