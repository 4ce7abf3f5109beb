//! The "same program out" comparer for changes to the Fig. 15 passes or
//! the analyses: compiles a wide corpus under six `DriverOptions` and
//! prints, per source and configuration, an FNV-1a digest of the
//! transformed program (`print_program`) and of every verdict's `Debug`
//! form, with the property-query and solver-node counts. Run it on two
//! checkouts and `diff` the outputs; the last line digests them all.
//!
//! ```sh
//! cargo run --release --example pipeline_digest > digest.txt
//! ```

use irr_repro::driver::{compile_source, DriverOptions, PhaseOrder};
use irr_repro::frontend::{malformed_corpus, print_program};
use irr_repro::programs::fuzz::{random_cases, strategy_programs};
use irr_repro::programs::sparse::{interproc_kernels, kernels, producer_kernels, SparseScale};
use irr_repro::programs::{all, figures, Scale};
use irr_repro::sparse::Structure;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn corpus() -> Vec<(String, String)> {
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
    for c in random_cases(0xd16e57, 3000) {
        out.push((c.name, c.source));
    }
    for (i, s) in strategy_programs().enumerate() {
        out.push((format!("{}-{i}", s.case.name), s.case.source));
    }
    for c in malformed_corpus(400) {
        out.push((c.name.to_string(), c.source));
    }
    out
}

fn main() {
    let configs = [
        ("with_iaa", DriverOptions::with_iaa()),
        ("without_iaa", DriverOptions::without_iaa()),
        ("apo", DriverOptions::apo()),
        ("without_summaries", DriverOptions::without_summaries()),
        ("without_evolution", DriverOptions::without_evolution()),
        (
            "original_order",
            DriverOptions {
                phase_order: PhaseOrder::Original,
                ..DriverOptions::default()
            },
        ),
    ];
    let sources = corpus();
    let mut all = 0xcbf2_9ce4_8422_2325;
    for (name, src) in &sources {
        for (cname, opts) in configs {
            let line = match compile_source(src, opts) {
                Ok(rep) => {
                    let h = fnv(
                        0xcbf2_9ce4_8422_2325,
                        print_program(&rep.program).as_bytes(),
                    );
                    let h = fnv(h, format!("{:?}", rep.verdicts).as_bytes());
                    let (q, n) = (rep.stats.property_queries, rep.stats.solver_nodes);
                    format!("{name} {cname} {h:016x} {q} {n}")
                }
                Err(e) => format!("{name} {cname} parse-error {e}"),
            };
            all = fnv(all, line.as_bytes());
            println!("{line}");
        }
    }
    println!(
        "{} source(s) x {} configuration(s), digest {all:016x}",
        sources.len(),
        configs.len()
    );
}
