//! The five benchmark kernels of the paper's evaluation (§5.2).
//!
//! TRFD, DYFESM, and BDNA come from the Perfect Benchmarks, P3M from
//! NCSA, and TREE is the Hawaii Barnes–Hut N-body code. The original
//! Fortran sources are not redistributable here, so each program is a
//! faithful mini-Fortran kernel reproducing the loops of Table 3 — the
//! same subroutine names, loop labels, index-array definition patterns
//! (triangular closed form, CCS offset/length, index gathering, array
//! stacks), and approximately the same share of sequential execution
//! time — together with the surrounding regular and serial code that
//! gives each program its Fig. 16 speedup shape.
//!
//! Each program prints a checksum so executions can be compared.

pub mod bdna;
pub mod dyfesm;
mod figures;
pub mod fuzz;
pub mod p3m;
pub mod sparse;
pub mod tree;
pub mod trfd;

pub use figures::{figures, Figure};

use irr_exec::ArrayData;
use irr_frontend::{Program, VarId};

/// Workload size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny: for unit tests (fast to interpret).
    Test,
    /// The default evaluation size (seconds of interpreter time).
    Paper,
}

/// A benchmark program with its metadata.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Program name (upper case, as in Table 2).
    pub name: &'static str,
    /// Mini-Fortran source.
    pub source: String,
    /// The Table 3 loops: labels that should be parallelized *only*
    /// with the irregular access analyses.
    pub irregular_labels: Vec<&'static str>,
    /// Paper-reported fraction of sequential execution time accountable
    /// to the irregular loops (Table 3, column ten).
    pub paper_coverage: f64,
}

/// All five benchmarks at the given scale.
pub fn all(scale: Scale) -> Vec<Benchmark> {
    vec![
        trfd::benchmark(scale),
        dyfesm::benchmark(scale),
        bdna::benchmark(scale),
        p3m::benchmark(scale),
        tree::benchmark(scale),
    ]
}

/// One item of a corpus: what every cross-check — the sanitizer's
/// sweeps, the static lint, the parity, chaos and degradation suites —
/// takes as its input. Every program family of this crate produces
/// them: [`paper_cases`], the [`sparse`] kernel families (`Case::from`
/// a [`sparse::SparseProgram`]), [`fuzz::random_cases`] and
/// [`fuzz::strategy_programs`].
#[derive(Clone, Debug)]
pub struct Case {
    /// What reports call the program.
    pub name: String,
    /// Mini-Fortran source.
    pub source: String,
    /// `(array name, data)` presets to install before every run of the
    /// program (the generated index and value arrays of a sparse
    /// kernel); empty for a program that builds its own data.
    pub presets: Vec<(&'static str, ArrayData)>,
}

impl Case {
    /// A program that builds its own data.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Case {
        Case {
            name: name.into(),
            source: source.into(),
            presets: Vec::new(),
        }
    }

    /// Resolves the named presets against a compiled program's symbol
    /// table. Panics if a preset array does not survive to the symbol
    /// table (they are all printed or read, so dead-code elimination
    /// never drops them).
    pub fn resolve_presets(&self, program: &Program) -> Vec<(VarId, ArrayData)> {
        self.presets
            .iter()
            .map(|(name, data)| {
                let var = program.symbols.lookup(name).unwrap_or_else(|| {
                    panic!("{}: preset array `{name}` not in symbols", self.name)
                });
                (var, data.clone())
            })
            .collect()
    }
}

/// "The paper's programs": the five benchmarks at `scale`, then the
/// worked [`figures()`] — the corpus the sanitizer audit, the static lint
/// and the parity and chaos suites all start from.
pub fn paper_cases(scale: Scale) -> Vec<Case> {
    let benchmarks = all(scale).into_iter().map(|b| Case::new(b.name, b.source));
    let figures = figures().into_iter().map(|f| Case::new(f.name, f.source));
    benchmarks.chain(figures).collect()
}

/// The sources `benchmark/`'s `compile-corpus` workload compiles at
/// `seed` (its `compile::corpus` builds the same list): the five
/// benchmarks at paper scale, the sparse kernels — plain, producer and
/// call-chain — on uniform and power-law structures, and 64 random loop
/// programs.
///
/// This is a copy of that list, and nothing but the pins keeps the two in
/// step: change one, change the other (and the counts
/// `crates/passes/tests/pipeline_integration.rs` and CI pin). Building
/// the benchmark's list from this one is a benchmark-only change.
pub fn compile_corpus(seed: u64) -> Vec<String> {
    use irr_sparse::Structure;
    use sparse::{interproc_kernels, kernels, producer_kernels, SparseScale};
    let mut out: Vec<String> = all(Scale::Paper).into_iter().map(|b| b.source).collect();
    for structure in [Structure::Uniform, Structure::PowerLaw] {
        let scale = SparseScale::test(structure, seed);
        let sparse = kernels(&scale)
            .into_iter()
            .chain(producer_kernels(&scale))
            .chain(interproc_kernels(&scale));
        out.extend(sparse.map(|k| k.source));
    }
    let mut rng = irr_exec::SplitMix64::new(seed ^ 0x5eed_c0de);
    out.extend((0..64).map(|_| fuzz::random_loop_program(&mut rng)));
    out
}

/// The wide corpus `examples/pipeline_digest.rs` compiles under six
/// configurations, as `(name, source)`: the five benchmarks at both
/// scales, the figures, the sparse kernel families on two structures and
/// three seeds, 3 000 random loop programs, the strategy programs and 400
/// malformed sources. The passes' fixpoint test walks it too.
pub fn pipeline_corpus() -> Vec<(String, String)> {
    use irr_sparse::Structure;
    use sparse::{interproc_kernels, kernels, producer_kernels, SparseScale};
    let mut out: Vec<(String, String)> = Vec::new();
    for scale in [Scale::Test, Scale::Paper] {
        for b in all(scale) {
            out.push((format!("{}-{scale:?}", b.name), b.source));
        }
    }
    for f in figures() {
        out.push((f.name.to_string(), f.source.to_string()));
    }
    for structure in [Structure::Uniform, Structure::PowerLaw] {
        for seed in [1, 3269, 7411] {
            let scale = SparseScale::test(structure, seed);
            for k in kernels(&scale)
                .into_iter()
                .chain(producer_kernels(&scale))
                .chain(interproc_kernels(&scale))
            {
                out.push((format!("{}-{}-{seed}", k.name, structure.tag()), k.source));
            }
        }
    }
    for c in fuzz::random_cases(0xd16e57, 3000) {
        out.push((c.name, c.source));
    }
    for (i, s) in fuzz::strategy_programs().enumerate() {
        out.push((format!("{}-{i}", s.case.name), s.case.source));
    }
    for c in irr_frontend::malformed_corpus(400) {
        out.push((c.name.to_string(), c.source));
    }
    out
}

/// Lines of code of a source (non-empty lines, as Table 2 counts).
pub fn loc(source: &str) -> usize {
    source.lines().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn all_benchmarks_parse() {
        for b in all(Scale::Test) {
            parse_program(&b.source).unwrap_or_else(|e| panic!("{}: {e}\n{}", b.name, b.source));
        }
        for b in all(Scale::Paper) {
            parse_program(&b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn names_and_metadata() {
        let names: Vec<&str> = all(Scale::Test).iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["TRFD", "DYFESM", "BDNA", "P3M", "TREE"]);
        for b in all(Scale::Test) {
            assert!(!b.irregular_labels.is_empty(), "{}", b.name);
            assert!(b.paper_coverage > 0.0 && b.paper_coverage <= 1.0);
            assert!(loc(&b.source) > 20, "{} too small", b.name);
        }
    }
}
