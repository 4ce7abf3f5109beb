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

/// "The paper's programs" as `(name, source)` pairs: the five
/// benchmarks at `scale`, then the worked [`figures`] — the corpus the
/// sanitizer audit, the static lint and the parity and chaos suites
/// all start from.
pub fn named_sources(scale: Scale) -> Vec<(String, String)> {
    let benchmarks = all(scale)
        .into_iter()
        .map(|b| (b.name.to_string(), b.source));
    let figures = figures()
        .into_iter()
        .map(|f| (f.name.to_string(), f.source.to_string()));
    benchmarks.chain(figures).collect()
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
