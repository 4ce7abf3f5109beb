//! `lint`: static verdict-lint sweep over the whole corpus — the five
//! benchmark programs, the paper's worked figures, and the generated
//! sparse kernels (including the producer-loop and call-structured
//! variants) across the three matrix structures.
//!
//! ```text
//! lint [--check] [--scale test|paper] [--only SUBSTR]
//! ```
//!
//! Prints every diagnostic (byte-stable order) plus a per-program and
//! final summary. With `--check`, exits nonzero iff any soundness-class
//! diagnostic was emitted — precision gaps and explain lines are
//! informational — so the command doubles as a CI gate.

use irr_driver::{compile_source, DriverOptions};
use irr_frontend::StmtKind;
use irr_lint::{lint_report, DiagClass};
use irr_programs::sparse::{interproc_kernels, kernels, producer_kernels, SparseScale, STRUCTURES};
use irr_programs::{paper_cases, Case, Scale};

fn main() {
    let mut check = false;
    let mut scale = Scale::Test;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("paper") => Scale::Paper,
                    other => die(&format!("unknown scale `{other:?}`")),
                }
            }
            "--only" => only = Some(args.next().unwrap_or_else(|| die("--only needs a value"))),
            "--help" | "-h" => {
                println!("lint [--check] [--scale test|paper] [--only SUBSTR]");
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let mut targets = paper_cases(scale);
    for (i, structure) in STRUCTURES.iter().enumerate() {
        let s = SparseScale::test(*structure, 0x11A7 + i as u64);
        for k in kernels(&s)
            .into_iter()
            .chain(producer_kernels(&s))
            .chain(interproc_kernels(&s))
        {
            let name = format!("sparse:{}:{}", k.name, structure.tag());
            targets.push(Case::new(name, k.source));
        }
    }
    if let Some(filter) = &only {
        targets.retain(|case| case.name.contains(filter.as_str()));
    }

    let (mut programs, mut loops) = (0usize, 0usize);
    let (mut soundness, mut precision, mut explain) = (0usize, 0usize, 0usize);
    for Case { name, source, .. } in &targets {
        let rep = match compile_source(source, DriverOptions::with_iaa()) {
            Ok(r) => r,
            Err(e) => die(&format!("{name}: parse error: {e}")),
        };
        let n_loops = rep
            .verdicts
            .iter()
            .filter(|v| matches!(rep.program.stmt(v.loop_stmt).kind, StmtKind::Do { .. }))
            .count();
        let diags = lint_report(&rep);
        let count = |class: DiagClass| diags.iter().filter(|d| d.class == class).count();
        let (s, p, e) = (
            count(DiagClass::Soundness),
            count(DiagClass::Precision),
            count(DiagClass::Explain),
        );
        println!("{name}: {n_loops} loop(s), {s} soundness, {p} precision, {e} explain");
        for d in &diags {
            println!("  {}", d.line());
        }
        programs += 1;
        loops += n_loops;
        soundness += s;
        precision += p;
        explain += e;
    }
    println!(
        "lint: {programs} program(s), {loops} loop(s): {soundness} soundness, {precision} \
         precision, {explain} explain"
    );
    if check && soundness > 0 {
        eprintln!("lint --check: {soundness} soundness diagnostic(s)");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("lint: {msg}");
    std::process::exit(2);
}
