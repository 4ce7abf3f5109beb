//! `sanitizer-audit`: every cross-check of `irr_sanitizer::checks` over
//! its corpus — the CI soundness gate.
//!
//! ```text
//! sanitizer-audit [--mode soundness|full] [--seed N] [--inputs N]
//!                 [--scale test|paper] [--only SWEEP|SUBSTR]
//! ```
//!
//! The binary is the table [`SWEEPS`] and a loop that prints and
//! counts; what each check verifies is documented on its function.
//! Every sweep always runs (`--help` prints the table):
//!
//! | sweep | corpus | checks |
//! |---|---|---|
//! | `paper` | the five benchmarks and the paper's figures | `replay`, `chaos` |
//! | `sparse` | nine generated sparse kernels (structures cycled, index arrays preset from the matrix generator) | `replay` |
//! | `evolution` | the producer-loop kernels on the three structures | `promotion`, `replay` |
//! | `interproc` | the call-structured kernels on the three structures | `interproc_promotion`, `replay` |
//! | `ladder` | `paper` plus one set of sparse kernels | `ladder` |
//! | `compiled` | `ladder`'s plus twelve randomized loop programs | `compiled` |
//!
//! `--only` with a sweep's name runs that sweep; with anything else,
//! the programs whose name contains it, in every sweep. `--seed` seeds
//! the randomized replay inputs, the fault schedules and the generated
//! corpora; `--inputs` is the number of randomized replays per program
//! (and caps the fault schedules, five at most); `--scale` sizes the
//! benchmarks.
//!
//! Each line is `sweep program: summary`; a `replay` summary ends with
//! how one hybrid run of the program (four chunks) committed its
//! parallel dispatches — in place, by concatenation, through the
//! write-log: the running answer to "what still needs the log". A sweep
//! in which no program gave a check anything to bite on (no fault
//! fired, no loop entry typed, no loop promoted) is itself a violation:
//! the mechanism under test has silently gone.
//!
//! Exits nonzero iff any violation is found. Precision gaps (full mode)
//! are informational.

use irr_programs::fuzz::random_cases;
use irr_programs::sparse::{
    interproc_kernels, kernels, producer_kernels, SparseProgram, SparseScale, STRUCTURES,
};
use irr_programs::{paper_cases, Case, Scale};
use irr_sanitizer::checks::{self, Check};
use irr_sanitizer::{AuditConfig, AuditMode};
use irr_sparse::Structure;

/// One row of the audit: a corpus and the checks every program of it
/// must pass.
struct Sweep {
    name: &'static str,
    /// The corpus, for `--help`.
    what: &'static str,
    corpus: fn(&AuditConfig, Scale) -> Vec<Case>,
    checks: &'static [(&'static str, Check)],
}

const SWEEPS: [Sweep; 6] = [
    Sweep {
        name: "paper",
        what: "the five benchmarks and the paper's figures",
        corpus: |_, scale| paper_cases(scale),
        checks: &[("replay", checks::replay), ("chaos", checks::chaos)],
    },
    Sweep {
        name: "sparse",
        what: "nine generated sparse kernels, structures cycled",
        corpus: |config, _| {
            let mut sample = across_structures(kernels, config.seed, 3);
            sample.truncate(9);
            sample
        },
        checks: &[("replay", checks::replay)],
    },
    Sweep {
        name: "evolution",
        what: "the producer-loop kernels on the three structures",
        corpus: |config, _| across_structures(producer_kernels, config.seed, 5),
        checks: &[("promotion", checks::promotion), ("replay", checks::replay)],
    },
    Sweep {
        name: "interproc",
        what: "the call-structured kernels on the three structures",
        corpus: |config, _| across_structures(interproc_kernels, config.seed, 7),
        checks: &[
            ("promotion", checks::interproc_promotion),
            ("replay", checks::replay),
        ],
    },
    Sweep {
        name: "ladder",
        what: "paper plus one set of sparse kernels",
        corpus: paper_and_sparse,
        checks: &[("ladder", checks::ladder)],
    },
    Sweep {
        name: "compiled",
        what: "ladder's plus twelve randomized loop programs",
        corpus: |config, scale| {
            let mut cases = paper_and_sparse(config, scale);
            cases.extend(random_cases(config.seed ^ 0xB17E_C0DE, 12));
            cases
        },
        checks: &[("compiled", checks::compiled)],
    },
];

/// `family` at test scale on each of the three structures, structure
/// `i` generated from seed `(seed + i) * mul | 1`; programs are named
/// `kernel-structure`.
fn across_structures(
    family: fn(&SparseScale) -> Vec<SparseProgram>,
    seed: u64,
    mul: u64,
) -> Vec<Case> {
    let mut cases = Vec::new();
    for (i, structure) in STRUCTURES.into_iter().enumerate() {
        let seed = seed.wrapping_add(i as u64).wrapping_mul(mul) | 1;
        for k in family(&SparseScale::test(structure, seed)) {
            let name = format!("{}-{}", k.name, structure.tag());
            cases.push(Case {
                name,
                ..Case::from(&k)
            });
        }
    }
    cases
}

fn paper_and_sparse(config: &AuditConfig, scale: Scale) -> Vec<Case> {
    let mut cases = paper_cases(scale);
    for k in kernels(&SparseScale::test(Structure::Uniform, config.seed | 1)) {
        let name = format!("sparse/{}", k.name);
        cases.push(Case {
            name,
            ..Case::from(&k)
        });
    }
    cases
}

fn main() {
    let mut config = AuditConfig {
        mode: AuditMode::Soundness,
        ..AuditConfig::default()
    };
    let mut scale = Scale::Test;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--mode" => {
                config.mode = match value("--mode").as_str() {
                    "soundness" => AuditMode::Soundness,
                    "full" => AuditMode::Full,
                    other => die(&format!("unknown mode `{other}`")),
                }
            }
            "--seed" => {
                config.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--inputs" => {
                config.inputs = value("--inputs")
                    .parse()
                    .unwrap_or_else(|_| die("--inputs needs an integer"))
            }
            "--scale" => {
                scale = match value("--scale").as_str() {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    other => die(&format!("unknown scale `{other}`")),
                }
            }
            "--only" => only = Some(value("--only")),
            "--help" | "-h" => {
                println!(
                    "sanitizer-audit [--mode soundness|full] [--seed N] [--inputs N] \
                     [--scale test|paper] [--only SWEEP|SUBSTR]"
                );
                for sweep in &SWEEPS {
                    let checks: Vec<&str> = sweep.checks.iter().map(|(name, _)| *name).collect();
                    println!("  {:<10} {}: {}", sweep.name, sweep.what, checks.join(", "));
                }
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let mode = match config.mode {
        AuditMode::Soundness => "soundness",
        AuditMode::Full => "full",
    };
    println!(
        "sanitizer-audit: mode {mode}, seed {}, 1 pristine + {} randomized input(s) per program",
        config.seed, config.inputs
    );
    // `--only` names a sweep, or else part of a program's name.
    let sweep_named = only
        .as_deref()
        .filter(|o| SWEEPS.iter().any(|s| s.name == *o));
    let (mut programs, mut violations, mut gaps) = (0usize, 0usize, 0usize);
    for sweep in &SWEEPS {
        if sweep_named.is_some_and(|name| name != sweep.name) {
            continue;
        }
        let corpus = (sweep.corpus)(&config, scale);
        let whole = corpus.len();
        let selected: Vec<&Case> = match (&only, sweep_named) {
            (Some(part), None) => corpus.iter().filter(|c| c.name.contains(part)).collect(),
            _ => corpus.iter().collect(),
        };
        let mut exercised = vec![false; sweep.checks.len()];
        for case in &selected {
            for ((_, check), exercised) in sweep.checks.iter().zip(&mut exercised) {
                let checked = check(case, &config);
                println!("{} {}: {}", sweep.name, case.name, checked.summary);
                for v in &checked.violations {
                    println!("  [VIOLATION] {v}");
                }
                for g in &checked.gaps {
                    println!("  [precision-gap] {g}");
                }
                violations += checked.violations.len();
                gaps += checked.gaps.len();
                *exercised |= checked.exercised;
            }
        }
        programs += selected.len();
        // Judged on whole sweeps only: a filtered one may honestly hold
        // no program that exercises a check.
        for ((name, _), exercised) in sweep.checks.iter().zip(exercised) {
            if selected.len() == whole && !exercised {
                println!(
                    "  [VIOLATION] {} sweep: no program exercised `{name}` — the sweep is vacuous",
                    sweep.name
                );
                violations += 1;
            }
        }
    }
    println!(
        "sanitizer-audit: {programs} program(s), {violations} violation(s), {gaps} \
         precision gap(s)"
    );
    if programs == 0 {
        die("--only matches no sweep and no program");
    }
    if violations > 0 {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("sanitizer-audit: {msg}");
    std::process::exit(2);
}
