//! Dependence sanitizer: shadow-memory audit of every parallel verdict.
//!
//! The compiler's analyses (§2 bounded DFS, §3 array property solver)
//! decide, statically, which loops are safe to run in parallel. This
//! crate is their adversarial referee: it executes compiled programs
//! under a shadow-memory tracer that records the last writer and reader
//! iteration of every array element and scalar a loop touches, derives
//! the concrete loop-carried flow/anti/output dependences each run
//! exhibits (plus observed index-array facts: injectivity, monotonicity,
//! accessed-section bounds), and cross-checks every
//! [`irr_driver::LoopVerdict`]:
//!
//! - a parallel claim contradicted by an observed unexplained dependence
//!   is a **soundness violation**, reported with a minimized concrete
//!   witness (loop label, array, element, writer/reader iterations);
//! - a sequential verdict that never exhibits a dependence across
//!   pristine and randomized inputs is a **precision gap**.
//!
//! See [`shadow`] for the tracer and [`audit`] for the replay/cross-check
//! logic. The crate is also where every *other* cross-check of the
//! repository is written, once: [`parity`] is the differential oracle
//! (what "this run reproduced the sequential run" means, one real-number
//! tolerance), and [`checks`] holds one function per property — shadow
//! replay, seeded chaos, promotion gates, the degradation ladder, the
//! compiled tier's exact replay — that the `sanitizer-audit` binary (the
//! CI soundness gate) runs over its corpora and the integration suites
//! assert on theirs.

pub mod audit;
pub mod checks;
pub mod parity;
pub mod shadow;

pub use audit::{
    audit_report, audit_report_seeded, audit_source, figures, AuditConfig, AuditMode, AuditReport,
    Figure, Finding, FindingKind,
};
pub use shadow::{
    AccessFacts, DepKind, DepWitness, DependenceTracer, LoopExecTrace, TraceHandle, TraceLog,
};
