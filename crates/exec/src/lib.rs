//! Execution substrate for the mini-Fortran language.
//!
//! - [`interp`]: the instrumenting tree-walk interpreter — the
//!   reference semantics every other engine is byte-compared against —
//!   with per-array write-version counters and a [`LoopDispatcher`]
//!   hook at every dynamic `do`-loop entry.
//! - [`bytecode`]: the compiled tier's executor. `irr_driver::compiled`
//!   lowers a nest once to a typed [`CompiledBody`]; the typed loop
//!   runs it over split `i64`/`f64` register planes and pinned
//!   payloads. There are exactly two engines, the typed loop and the
//!   tree-walk, and one rulebook: the walked `do`, the operators and
//!   the bounds rule are written once, in [`interp`]. A sequential
//!   compiled entry runs one engine or the other, and every parallel
//!   worker runs the typed loop.
//! - [`parallel`]: the chunked parallel executor, a transaction on the
//!   master store with three commit strategies the executor re-derives
//!   itself ([`ExecutionStrategy`]): the write-log (a chunk writes its
//!   own copy of every array it stores to and logs those stores; the
//!   logs are merged in `O(total writes)` with positional conflict
//!   detection), in-place
//!   disjoint windows (affine, offset–length segment, certified
//!   scatter — no log, no clone, no merge), and privatize-and-concat
//!   for append-through-pointer loops. Chunks run on the process's
//!   worker pool (`pool`), the master taking the first one;
//!   [`fault`] injects panics, stalls and lies into it.
//! - [`runtime_test`]: the one index-array scan the hybrid runtime's
//!   guarded tier inspects with, and the facts it yields, which
//!   in-place scatters are written under.
//! - [`machine`]: the machine-model simulator that reproduces the
//!   paper's speedup experiments (Fig. 16).
//!
//! The original evaluation ran on an SGI Origin 2000 (up to 32 of 56
//! R10k processors) and a 4-processor SGI Challenge. Neither machine is
//! available, so speedups are *simulated*: the interpreter measures
//! per-iteration work of every loop the compiler parallelized, and an
//! analytic machine model (static block scheduling, fork/join overhead
//! per parallel region, per-processor start cost) converts the measured
//! profile into a predicted parallel time. This preserves exactly what
//! Fig. 16 reports — relative speedup shapes, including DYFESM's
//! overhead-dominated slowdown on a tiny input — without the original
//! hardware.
//!
//! Integer semantics note: `/` is **floor** division and `mod` the
//! non-negative remainder (`div_euclid`/`rem_euclid`), matching the
//! assumptions of the symbolic layer.

pub mod bytecode;
pub mod dispatch;
pub mod fault;
pub mod interp;
pub mod machine;
pub mod parallel;
mod pool;
pub mod rng;
pub mod runtime_test;
pub mod trace;

pub use bytecode::{lower_do_loop, CompiledBody, CompiledDispatch, LowerReject};
pub use dispatch::{FallbackReason, LoopDecision, LoopDispatcher, SequentialDispatch};
pub use fault::{FaultKind, FaultPlan, FaultShot};
pub use interp::{ArrayData, ExecError, ExecOutcome, ExecStats, Interp, LoopStats, Store, Value};
pub use machine::{
    simulate_program_time, simulate_speedup, LoopProfile, MachineModel, ProgramProfile,
};
pub use parallel::{Committed, ExecutionStrategy, ParallelPlan, ReduceOp};
pub use rng::SplitMix64;
pub use runtime_test::{inspect_guard, inspect_injective, inspect_offset_length, IndexFacts};
pub use trace::{AccessTracer, TraceConfig};
