//! The compile-time analyses of Lin & Padua, *Compiler Analysis of
//! Irregular Memory Accesses* (PLDI 2000).
//!
//! Two families of irregular array accesses are analyzed:
//!
//! 1. **Irregular single-indexed accesses** (§2): every access of an
//!    array in a loop uses the same scalar index variable `p`. The
//!    bounded depth-first search classifies the *index evolution* as
//!    [consecutively written](single_indexed::consecutively_written)
//!    or as a [stack access](stack::stack_access), and §4's
//!    [index-gathering loops](gather) combine both with value
//!    reasoning.
//!
//! 2. **Simple indirect accesses** (§3): an array subscripted by an index
//!    array, `x(idx(i))`. The demand-driven interprocedural
//!    [array property analysis](property) verifies properties of the
//!    index array — injectivity, monotonicity, closed-form value,
//!    closed-form bound, closed-form distance — by reverse query
//!    propagation over the hierarchical control graph.
//!
//! The clients of these analyses (dependence tests, the privatization
//! test, and the parallelization driver) live in the `irr-deptest`,
//! `irr-privatize`, and `irr-driver` crates.

pub mod budget;
pub mod ctx;
pub mod evolution;
pub mod gather;
pub mod property;
pub mod single_indexed;
pub mod stack;
pub mod summaries;

pub use budget::{AnalysisBudget, BudgetExhaustion};
pub use ctx::{hcg_builds, AnalysisCtx, BodyTable};
pub use evolution::{EvoFacts, EvolutionAnalysis, Monotonicity};
pub use gather::{find_index_gathering_loops, IndexGatherInfo};
pub use property::{
    ArrayPropertyAnalysis, DistanceSpec, Property, PropertyQuery, QueryStats, INDEX_VAR,
};
pub use single_indexed::{
    consecutively_written, single_indexed_arrays, ConsecutivelyWritten, IndexDefKind, SingleIndexed,
};
pub use stack::{stack_access, StackAccess};
pub use summaries::{ProcSummary, SummaryAnalysis};
