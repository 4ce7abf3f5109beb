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
use irr_repro::frontend::print_program;
use irr_repro::programs::pipeline_corpus;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    let sources = pipeline_corpus();
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
