//! The instrumenting tree-walking interpreter.

use crate::bytecode::{lower_do_loop, CompiledBody};
use crate::dispatch::{Abort, FallbackReason, LoopDecision, LoopDispatcher, SequentialDispatch};
use crate::pool::WorkerPool;
use crate::rng::SplitMix64;
use crate::trace::{AccessTracer, TraceConfig, TracerSlot};
use irr_frontend::{
    BinOp, Expr, FxHashMap, Intrinsic, LValue, ProcId, Program, ScalarType, StmtId, StmtKind, UnOp,
    VarId,
};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{self, AtomicU64};
use std::sync::Arc;

/// A runtime scalar value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    Int(i64),
    Real(f64),
}

impl Value {
    /// The value as a real.
    pub fn as_real(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Real(v) => v,
        }
    }

    /// The value as an integer (reals truncate, as Fortran `INT`).
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Real(v) => v as i64,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
        }
    }
}

/// Array storage: a copy-on-write handle on an element buffer and its
/// extents.
///
/// Cloning an `ArrayData` shares both ([`Arc`]): a preset installed in
/// any number of stores, and every store cloned from those, hold one
/// buffer between them. A store that writes an element copies the
/// buffer first if anything else still holds it ([`Arc::make_mut`]), so
/// a run copies only the arrays it stores to, once each, and an array
/// it was handed never changes under its other holders.
#[derive(Clone, PartialEq, Debug)]
pub enum ArrayData {
    Int {
        data: Arc<Vec<i64>>,
        dims: Arc<[usize]>,
    },
    Real {
        data: Arc<Vec<f64>>,
        dims: Arc<[usize]>,
    },
}

impl ArrayData {
    /// Flat element count.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Int { data, .. } => data.len(),
            ArrayData::Real { data, .. } => data.len(),
        }
    }

    /// Whether the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declared extents.
    pub fn dims(&self) -> &[usize] {
        match self {
            ArrayData::Int { dims, .. } | ArrayData::Real { dims, .. } => dims,
        }
    }

    /// A zero-filled array of `ty` with the given extents.
    pub fn zeroed(ty: ScalarType, dims: Vec<usize>) -> ArrayData {
        let total: usize = dims.iter().product();
        let dims = dims.into();
        match ty {
            ScalarType::Int => ArrayData::Int {
                data: vec![0; total].into(),
                dims,
            },
            ScalarType::Real => ArrayData::Real {
                data: vec![0.0; total].into(),
                dims,
            },
        }
    }

    /// An array of `ty` filled with small deterministic pseudo-random
    /// values: integers in `1..=4` (so values stay plausible as 1-based
    /// subscripts into any array of extent ≥ 4) and reals in `[0, 1)`.
    /// The dependence auditor uses this to vary the initial contents of
    /// arrays a program reads before writing, perturbing data-dependent
    /// access streams without touching extents or scalar state.
    pub fn random(ty: ScalarType, dims: Vec<usize>, rng: &mut SplitMix64) -> ArrayData {
        let total: usize = dims.iter().product();
        let dims = dims.into();
        match ty {
            ScalarType::Int => ArrayData::Int {
                data: Arc::new((0..total).map(|_| rng.range_i64(1, 4)).collect()),
                dims,
            },
            ScalarType::Real => ArrayData::Real {
                data: Arc::new((0..total).map(|_| rng.next_f64()).collect()),
                dims,
            },
        }
    }

    /// A handle on a fresh copy of the buffer, shared with nothing (a
    /// clone shares it).
    pub fn copied(&self) -> ArrayData {
        match self {
            ArrayData::Int { data, dims } => ArrayData::Int {
                data: Arc::new(data.to_vec()),
                dims: Arc::clone(dims),
            },
            ArrayData::Real { data, dims } => ArrayData::Real {
                data: Arc::new(data.to_vec()),
                dims: Arc::clone(dims),
            },
        }
    }

    /// Whether `self` and `other` hold the same buffer: neither has
    /// copied it since one was cloned from the other.
    pub fn shares_buffer(&self, other: &ArrayData) -> bool {
        match (self, other) {
            (ArrayData::Int { data: a, .. }, ArrayData::Int { data: b, .. }) => Arc::ptr_eq(a, b),
            (ArrayData::Real { data: a, .. }, ArrayData::Real { data: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A raw pointer to the element buffer of an array, with its length.
///
/// The in-place strategy executor derives one per target from the
/// master store (after forcing payload uniqueness with
/// [`Store::payload_raw`], which copies a target whose old payload the
/// dispatch keeps as its undo image) and hands it to every chunk, each
/// of which reaches the buffer only through its [`InPlaceWindow`], so
/// no two chunks ever touch the same element; a sequential typed entry
/// pins the master's own payloads the same way ([`WriteSink::Direct`]).
/// The length is for the debug-build audit of every access through it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RawSlice {
    Int(*mut i64, usize),
    Real(*mut f64, usize),
}

// SAFETY: a RawSlice is dereferenced in one place only: the typed
// loop's pin (`RawPin` in `bytecode/fast.rs`), which bounds-checks every
// load and store against its extent. A window admits only the elements
// the dispatch gave its chunk: windows of one target are pairwise
// disjoint, or, for a scatter target, every chunk reaches the buffer
// only at the cells its own iterations write, through the one
// `WriteShape` every access to the target has (the derivation refuses
// a scatter target the nest reads), and injective index facts keep
// those sets disjoint. So no thread reads what another writes. Only a
// chunk holds a pin, and `WorkerPool::dispatch` does not return,
// normally or by unwinding, while its closure is running for any chunk
// or could still be called for one (the barrier in `pool.rs`),
// whichever thread runs it. The master store owns the Arc'd payload for
// that whole dispatch and is only read while it runs, so the pointee
// outlives every access; a target's undo image is another buffer, the
// one the payload was copied from, which no pin reaches.
unsafe impl Send for RawSlice {}
unsafe impl Sync for RawSlice {}

impl RawSlice {
    /// Elements in the buffer.
    pub(crate) fn len(self) -> usize {
        match self {
            RawSlice::Int(_, n) | RawSlice::Real(_, n) => n,
        }
    }
}

/// One in-place target as seen by one worker: the `len` elements from
/// flat index `lo` are the chunk's to read and write, straight in the
/// shared master buffer; touching any other element of the array is a
/// strategy violation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InPlaceWindow {
    /// Element 0 of the master buffer.
    pub(crate) slice: RawSlice,
    pub(crate) lo: usize,
    pub(crate) len: usize,
}

/// A typed value vector: a chunk's append buffer for one
/// consecutively-written array, its own copy of an array it logs or
/// privatizes, or the values a chunk logged. (An in-place target's undo
/// image is no `TypedBuf`: it is the target's old payload, kept by
/// handle.)
#[derive(Clone, Debug)]
pub(crate) enum TypedBuf {
    Int(Vec<i64>),
    Real(Vec<f64>),
}

impl TypedBuf {
    pub(crate) fn new(ty: ScalarType) -> TypedBuf {
        match ty {
            ScalarType::Int => TypedBuf::Int(Vec::new()),
            ScalarType::Real => TypedBuf::Real(Vec::new()),
        }
    }

    /// Becomes a copy of `range` of `data`, in this buffer's allocation
    /// when it holds the same type: a chunk's own copy of an array it
    /// logs or privatizes.
    pub(crate) fn copy_from(&mut self, data: &ArrayData, range: std::ops::Range<usize>) {
        match (data, &mut *self) {
            (ArrayData::Int { data, .. }, TypedBuf::Int(v)) => {
                v.clear();
                v.extend_from_slice(&data[range]);
            }
            (ArrayData::Real { data, .. }, TypedBuf::Real(v)) => {
                v.clear();
                v.extend_from_slice(&data[range]);
            }
            (ArrayData::Int { data, .. }, _) => *self = TypedBuf::Int(data[range].to_vec()),
            (ArrayData::Real { data, .. }, _) => *self = TypedBuf::Real(data[range].to_vec()),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            TypedBuf::Int(v) => v.len(),
            TypedBuf::Real(v) => v.len(),
        }
    }

    /// Gives the buffer's memory back, keeping its type.
    pub(crate) fn release(&mut self) {
        match self {
            TypedBuf::Int(v) => *v = Vec::new(),
            TypedBuf::Real(v) => *v = Vec::new(),
        }
    }

    /// The buffer's elements, to write through.
    pub(crate) fn raw(&mut self) -> RawSlice {
        match self {
            TypedBuf::Int(v) => RawSlice::Int(v.as_mut_ptr(), v.len()),
            TypedBuf::Real(v) => RawSlice::Real(v.as_mut_ptr(), v.len()),
        }
    }

    /// Appends `val`, coerced to the buffer's type.
    #[inline]
    pub(crate) fn push(&mut self, val: Value) {
        match self {
            TypedBuf::Int(v) => v.push(val.as_int()),
            TypedBuf::Real(v) => v.push(val.as_real()),
        }
    }

    fn set_last(&mut self, val: Value) {
        match self {
            TypedBuf::Int(v) => *v.last_mut().expect("non-empty") = val.as_int(),
            TypedBuf::Real(v) => *v.last_mut().expect("non-empty") = val.as_real(),
        }
    }

    /// Buffers a write at flat `idx` of an array whose appends start
    /// at `base`: valid writes land at `base + len` (append) or
    /// overwrite the element appended last — sequential semantics
    /// allow rewriting the current position before the next increment.
    /// Returns `false` — nothing buffered, a strategy violation — for
    /// any other position.
    #[inline]
    pub(crate) fn append_at(&mut self, base: usize, idx: usize, val: Value) -> bool {
        let next = base + self.len();
        if idx == next {
            self.push(val);
        } else if self.len() > 0 && idx + 1 == next {
            self.set_last(val);
        } else {
            return false;
        }
        true
    }

    /// Stores the buffered values at `idx[k]` of `data` in order,
    /// coercing to the payload's type (commit-time replay; the caller
    /// validated every index against the extent). Copies a shared
    /// payload first, as any element write does.
    pub(crate) fn scatter_into(&self, data: &mut ArrayData, idx: impl Iterator<Item = usize>) {
        match (data, self) {
            (ArrayData::Int { data, .. }, TypedBuf::Int(v)) => {
                let data = Arc::make_mut(data);
                idx.zip(v).for_each(|(k, &x)| data[k] = x);
            }
            (ArrayData::Real { data, .. }, TypedBuf::Real(v)) => {
                let data = Arc::make_mut(data);
                idx.zip(v).for_each(|(k, &x)| data[k] = x);
            }
            (ArrayData::Int { data, .. }, TypedBuf::Real(v)) => {
                let data = Arc::make_mut(data);
                idx.zip(v).for_each(|(k, &x)| data[k] = x as i64);
            }
            (ArrayData::Real { data, .. }, TypedBuf::Int(v)) => {
                let data = Arc::make_mut(data);
                idx.zip(v).for_each(|(k, &x)| data[k] = x as f64);
            }
        }
    }
}

/// Where the typed loop's stores to one array go for the length of an
/// entry. A sequential entry stores straight into the master's payload;
/// a parallel dispatch hands each chunk one sink per stored array,
/// built from its commit strategy, and the commit reads them back
/// filled. The master's store is only read while chunks run: a chunk
/// writes into nothing of it but its windows.
#[derive(Debug)]
pub(crate) enum WriteSink {
    /// A sequential entry: raw stores into the master's payload, which
    /// the entry made unique ([`Store::payload_raw`]).
    Direct(RawSlice),
    /// Privatized scratch: raw stores into the chunk's own copy of the
    /// array, taken when the chunk pins it; the commit has no use for it.
    Private(TypedBuf),
    /// Raw stores into the chunk's own copy of the array, taken when the
    /// chunk pins it, so the chunk reads back what it wrote; each store
    /// is also logged, in program order, as its flat index beside its
    /// value typed like the payload (16 bytes a write), for the commit
    /// to claim and replay.
    Logged {
        idx: Vec<usize>,
        vals: TypedBuf,
        copy: TypedBuf,
    },
    /// An in-place target: stores land in the master's buffer, inside
    /// this window only.
    Window(InPlaceWindow),
    /// A concat target: stores are buffered under the append rule.
    Append { base: usize, buf: TypedBuf },
}

/// The global store (all variables are global).
///
/// A fresh store holds its scalars only; every declared array is
/// allocated before the program's first statement
/// (`Interp::allocate_arrays`) and lives until the run ends, with the
/// extents the declaration fixed at parse time (or a preset's).
///
/// Every array slot carries a monotonically increasing **write-version
/// counter**, bumped when the array is allocated or preset and whenever
/// any of its elements may have been written. Version counters let the
/// hybrid runtime's schedule cache (`irr-runtime`) re-run an inspection only
/// when an index array has actually been mutated since the last loop
/// entry — O(n)-per-mutation instead of O(n)-per-execution. Versions
/// are bookkeeping metadata: they do not participate in store equality.
///
/// Arrays are [`ArrayData`] handles, copy-on-write on the first
/// mutation: cloning a store is O(#variables) regardless of how many
/// elements the arrays hold, and a preset costs its caller no copy.
///
/// A store observes nothing. A parallel dispatch's chunks all read the
/// master's store and none writes it: what a chunk's stores must become
/// under its dispatch's commit strategy is the business of the sinks its
/// typed loop stores through (`WriteSink`), and what it changes of its
/// scalars stays in its registers.
#[derive(Debug)]
pub struct Store {
    /// Which store this is, among all the process ever built or cloned
    /// ([`Store::id`]).
    id: u64,
    scalars: Vec<Value>,
    arrays: Vec<Option<ArrayData>>,
    versions: Vec<u64>,
}

/// The next [`Store::id`].
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

/// What every array access of a running program may assume.
const ALLOCATED: &str = "every declared array is allocated before the first statement";

impl Clone for Store {
    fn clone(&self) -> Store {
        Store {
            // A clone's history forks here: it is another store.
            id: NEXT_STORE_ID.fetch_add(1, atomic::Ordering::Relaxed),
            scalars: self.scalars.clone(),
            arrays: self.arrays.clone(),
            versions: self.versions.clone(),
        }
    }
}

impl PartialEq for Store {
    fn eq(&self, other: &Store) -> bool {
        // Identity and versions are deliberately excluded: two stores
        // holding the same values are equal regardless of their write
        // histories.
        self.scalars == other.scalars && self.arrays == other.arrays
    }
}

impl Store {
    /// Initializes the store for a program: integers 0, reals 0.0, no
    /// array allocated yet.
    pub fn new(program: &Program) -> Store {
        let n = program.symbols.len();
        let mut scalars = Vec::with_capacity(n);
        for (_, info) in program.symbols.iter() {
            scalars.push(match info.ty {
                ScalarType::Int => Value::Int(0),
                ScalarType::Real => Value::Real(0.0),
            });
        }
        Store {
            id: NEXT_STORE_ID.fetch_add(1, atomic::Ordering::Relaxed),
            scalars,
            arrays: vec![None; n],
            versions: vec![0; n],
        }
    }

    /// Element `idx` (flat, 0-based) of `arr` as the `i64` a subscript
    /// would use (reals truncate); `None` when `idx` is past its end.
    pub(crate) fn element_as_int(&self, arr: VarId, idx: usize) -> Option<i64> {
        match self.array(arr) {
            ArrayData::Int { data, .. } => data.get(idx).copied(),
            ArrayData::Real { data, .. } => data.get(idx).map(|v| *v as i64),
        }
    }

    /// Raw pointer to the element buffer of `arr`, with its flat
    /// length. Forces payload uniqueness first ([`Arc::make_mut`]: a
    /// buffer anything else holds is copied here — a preset's caller's,
    /// once, or the old payload an in-place dispatch keeps as its undo
    /// image, once a dispatch), so the pointer is this store's to write:
    /// a sequential typed entry's, or in-place chunks' through their
    /// windows while the master only reads the store.
    pub(crate) fn payload_raw(&mut self, arr: VarId) -> RawSlice {
        match self.array_mut(arr) {
            ArrayData::Int { data, .. } => {
                let data = Arc::make_mut(data);
                RawSlice::Int(data.as_mut_ptr(), data.len())
            }
            ArrayData::Real { data, .. } => {
                let data = Arc::make_mut(data);
                RawSlice::Real(data.as_mut_ptr(), data.len())
            }
        }
    }

    /// This store's identity: distinct for every store built or cloned
    /// in the process. Write-versions count from zero in each store, so
    /// a fact about an array's contents has to name the store beside
    /// the version ([`crate::IndexFacts`] does).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The write-version counter of `arr`: bumped when it is allocated
    /// or preset and on every (potential) element write. Two equal
    /// versions at two program points guarantee the array was not
    /// mutated in between.
    pub fn array_version(&self, arr: VarId) -> u64 {
        self.versions[arr.index()]
    }

    /// Records a (potential) write to `arr`.
    pub(crate) fn bump_version(&mut self, arr: VarId) {
        self.versions[arr.index()] += 1;
    }

    /// Records `n` writes to `arr` at once — the compiled fast path
    /// counts writes locally and lands them here at flush, keeping the
    /// version arithmetic identical to `n` tree-walk writes.
    pub(crate) fn bump_version_by(&mut self, arr: VarId, n: u64) {
        self.versions[arr.index()] += n;
    }

    /// The handle of `arr`, to write elements through: its buffer may
    /// still be shared, and every writer copies it first
    /// ([`Arc::make_mut`]).
    pub(crate) fn array_mut(&mut self, arr: VarId) -> &mut ArrayData {
        self.arrays[arr.index()].as_mut().expect(ALLOCATED)
    }

    /// The payload of `arr` in a store a run executes on.
    pub(crate) fn array(&self, arr: VarId) -> &ArrayData {
        self.arrays[arr.index()].as_ref().expect(ALLOCATED)
    }

    /// The payload of `arr`; `None` before the run allocated it (how
    /// the parity oracle compares integers as integers).
    pub fn array_ref(&self, arr: VarId) -> Option<&ArrayData> {
        self.arrays[arr.index()].as_ref()
    }

    /// Reads a scalar.
    pub fn scalar(&self, v: VarId) -> Value {
        self.scalars[v.index()]
    }

    /// Writes a scalar (coercing to the declared type).
    pub fn set_scalar(&mut self, v: VarId, ty: ScalarType, val: Value) {
        let coerced = match ty {
            ScalarType::Int => Value::Int(val.as_int()),
            ScalarType::Real => Value::Real(val.as_real()),
        };
        self.scalars[v.index()] = coerced;
    }

    /// Reads `arr` as a flat `f64` vector (for checksums in tests).
    pub fn array_as_reals(&self, arr: VarId) -> Option<Vec<f64>> {
        match self.arrays[arr.index()].as_ref()? {
            ArrayData::Int { data, .. } => Some(data.iter().map(|v| *v as f64).collect()),
            ArrayData::Real { data, .. } => Some(data.to_vec()),
        }
    }

    /// Installs `data` as the storage of `arr` — the public preset hook
    /// the sparse workload suite uses to inject generated index and
    /// value arrays without interpreting gigantic initialization loops,
    /// and how the run allocates the arrays no preset installed.
    /// Installed before the run, a preset is the array's storage for
    /// the whole run, whatever the declaration says: the run allocates
    /// only the arrays that have none, and the audit's randomized fill
    /// never touches it. The store shares the buffer with whoever else
    /// holds `data` until it first writes an element of it.
    pub fn preset_array(&mut self, arr: VarId, data: ArrayData) {
        self.arrays[arr.index()] = Some(data);
        self.bump_version(arr);
    }

    /// Writes one element of an array (copy-on-write: a shared payload
    /// is copied on the first mutation), coercing to the array's
    /// element type and bumping the write version.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range — callers bounds-check through
    /// [`Interp`].
    pub(crate) fn write_element(&mut self, arr: VarId, idx: usize, val: Value) {
        match self.array_mut(arr) {
            ArrayData::Int { data, .. } => Arc::make_mut(data)[idx] = val.as_int(),
            ArrayData::Real { data, .. } => Arc::make_mut(data)[idx] = val.as_real(),
        }
        self.versions[arr.index()] += 1;
    }
}

/// Per-loop execution statistics.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    /// Number of times the loop was entered.
    pub invocations: u64,
    /// Total statement cost spent inside (including nested).
    pub total_cost: u64,
    /// Per-invocation iteration costs (only for recorded loops).
    pub iteration_costs: Vec<Vec<u64>>,
}

/// Whole-run statistics.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Total statements executed (the cost unit).
    pub total_cost: u64,
    /// Per-loop stats.
    pub loops: FxHashMap<StmtId, LoopStats>,
    /// Loop entries whose first iterations the typed loop ran as one
    /// stream. Describes the engine, not the program: the tree-walk
    /// leaves it 0 and no parity oracle compares it.
    pub stream_entries: u64,
    /// Iterations those streams ran, each in place of a dispatch of its
    /// loop's block; over `stream_entries`, the mean trip of a stream.
    pub stream_iters: u64,
}

/// Runtime errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Array subscript outside the declared extent.
    OutOfBounds {
        array: String,
        index: i64,
        extent: usize,
    },
    /// Division by zero.
    DivisionByZero,
    /// The fuel limit was exhausted (runaway loop guard).
    OutOfFuel,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds {
                array,
                index,
                extent,
            } => {
                write!(
                    f,
                    "subscript {index} out of bounds for `{array}` (extent {extent})"
                )
            }
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::OutOfFuel => write!(f, "execution fuel exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a complete run.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// Lines produced by `print`.
    pub output: Vec<String>,
    /// Statistics.
    pub stats: ExecStats,
    /// Final memory.
    pub store: Store,
    /// Worker threads the run's parallel dispatches added to the
    /// process's pool: at most its largest chunk count minus one,
    /// however many dispatches it made, and 0 once an earlier run (or a
    /// concurrent one) left the pool that large; 0 for a run that never
    /// dispatched more than one chunk, or whose split dispatches all
    /// found the pool busy with another run's. Kept out of [`ExecStats`] (it
    /// describes the engine, not the program's execution).
    pub worker_threads_spawned: u64,
}

/// The interpreter: one execution of the whole program — the program it
/// runs, the store it runs on, what it has spent, recorded and printed,
/// how it is instrumented, and what it keeps across its loop entries
/// ([`ProgramScope`]).
pub struct Interp<'p> {
    program: &'p Program,
    /// The store.
    pub store: Store,
    /// Statistics.
    pub stats: ExecStats,
    /// Loops whose per-iteration costs are recorded.
    pub record_loops: HashSet<StmtId>,
    /// `print` output.
    pub output: Vec<String>,
    /// Remaining execution fuel.
    pub fuel: u64,
    /// The attached access tracer, if any (dependence sanitizer hook).
    /// `None` in ordinary runs: every hook site is one null check.
    tracer: Option<TracerSlot>,
    /// When set, the seed the arrays the run allocates are filled from
    /// with deterministic pseudo-random values instead of zeros
    /// (randomized audit inputs).
    random_fill: Option<u64>,
    /// What the run keeps across its loop entries.
    pub(crate) scope: ProgramScope,
    /// Where `flat_index` gathers a multi-dimensional access's
    /// subscripts: taken while they are evaluated, put back after.
    subscripts: Vec<i64>,
    /// What the run's typed entries counted so far.
    #[cfg(test)]
    pub(crate) probe: Probe,
}

/// What the unit tests read of the typed loop: kept by a run across its
/// typed entries, and by the register file for one entry.
#[cfg(test)]
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct Probe {
    /// Root iterations started on the typed loop, a stream's or a row
    /// kernel's included — how the unit tests tell which loop ran (the
    /// stores are byte-identical by contract).
    pub(crate) typed_root_iters: u64,
    /// Per arm of the kernel's instantiation tables, as
    /// `FState::instantiate` numbers them (0 the catch-all) and then
    /// `FState::instantiate_filter` (5 and 6, 7 its catch-all): the
    /// stream strips that entered it, and the segmented streams' rows
    /// it ran.
    pub(crate) arms: [[u64; 2]; 8],
}

#[cfg(test)]
impl Probe {
    /// Adds the counts of `other`.
    pub(crate) fn add(&mut self, other: &Probe) {
        self.typed_root_iters += other.typed_root_iters;
        let counts = other.arms.as_flattened();
        let totals = self.arms.as_flattened_mut().iter_mut();
        totals.zip(counts).for_each(|(t, n)| *t += n);
    }
}

/// What a run of the whole program keeps across its loop entries: what
/// it derived once of each loop statement, its handle on the threads its
/// parallel dispatches run on, and the state its typed loops run in.
#[derive(Default)]
pub struct ProgramScope {
    /// One memo per loop statement the run lowered or dispatched.
    pub(crate) loops: FxHashMap<StmtId, LoopMemo>,
    /// The run's handle on the worker pool: `None` until the first
    /// parallel dispatch with more than one chunk points it at the
    /// process's pool, whose threads outlive the run (a unit test may
    /// put in a private pool instead). The pool holds one batch at a
    /// time; a dispatch that finds it busy runs its chunks on the run's
    /// own thread. Dropping the run drops only the handle: no thread is
    /// joined, and none is left running a chunk of the run, since a
    /// dispatch that published a batch waits for it.
    pub(crate) pool: Option<Arc<WorkerPool>>,
    /// Threads the run's dispatches created: 0 once the pool already
    /// had as many as they asked for.
    pub(crate) spawned: u64,
    /// What typed entries and parallel dispatches keep between entries
    /// for their allocations: targets, windows and one slot per
    /// chunk, whose first holds the planes every typed loop the master
    /// runs itself runs in.
    pub(crate) buffers: crate::parallel::DispatchBuffers,
}

/// What a run derives once of one loop statement. Both halves are pure
/// functions of the immutable program (the shapes also of the plan's
/// lists, [`crate::parallel::DerivedShapes`]), so an entry stays valid
/// for the run's lifetime.
pub(crate) struct LoopMemo {
    /// The nest's lowering (`None` records a rejection); `Arc` lets
    /// parallel chunks share one body.
    pub(crate) body: Option<Arc<CompiledBody>>,
    /// The parallel executor's own strategy derivations.
    pub(crate) shapes: crate::parallel::DerivedShapes,
}

/// The fuel a new interpreter starts with (runaway loop guard).
const FUEL: u64 = 2_000_000_000;

/// The one bounds rule: the Fortran column-major, 1-based flat offset
/// of subscripts `subs` into array `a` of extents `dims`, or the
/// program's `OutOfBounds` on the first subscript outside `1 ..=
/// extent`. The tree-walk's `flat_index` and the typed loop's `IndexN`
/// both resolve through it, and the typed loop's other misses are
/// named by it.
#[inline(always)]
pub(crate) fn column_major(
    program: &Program,
    a: VarId,
    dims: &[usize],
    subs: impl IntoIterator<Item = i64>,
) -> Result<usize, ExecError> {
    let mut idx: usize = 0;
    let mut stride: usize = 1;
    for (k, v) in subs.into_iter().enumerate() {
        let extent = dims[k];
        if v < 1 || v as usize > extent {
            return Err(ExecError::OutOfBounds {
                array: program.symbols.name(a).to_string(),
                index: v,
                extent,
            });
        }
        idx += (v as usize - 1) * stride;
        stride *= extent;
    }
    Ok(idx)
}

impl<'p> Interp<'p> {
    /// Creates an interpreter with a fresh store and default fuel.
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp {
            program,
            store: Store::new(program),
            stats: ExecStats::default(),
            record_loops: HashSet::new(),
            output: Vec::new(),
            fuel: FUEL,
            tracer: None,
            random_fill: None,
            scope: ProgramScope::default(),
            subscripts: Vec::new(),
            #[cfg(test)]
            probe: Probe::default(),
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    pub(crate) fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.stats.total_cost += n;
        if self.fuel < n {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= n;
        Ok(())
    }

    /// Worker threads this interpreter's parallel dispatches have
    /// created so far (see [`ExecOutcome::worker_threads_spawned`]).
    pub fn worker_threads_spawned(&self) -> u64 {
        self.scope.spawned
    }

    /// The memo of loop statement `s`; the first call per loop runs the
    /// lowering.
    pub(crate) fn memo(&mut self, s: StmtId) -> &mut LoopMemo {
        self.scope.loops.entry(s).or_insert_with(|| LoopMemo {
            body: lower_do_loop(self.program, s).ok().map(Arc::new),
            shapes: Default::default(),
        })
    }

    /// The cached lowering of the `do` loop at `s` (`None` when the
    /// nest is not lowerable). The first call per loop runs the
    /// lowering; later calls are a map hit.
    pub fn compiled_body_for(&mut self, s: StmtId) -> Option<Arc<CompiledBody>> {
        self.memo(s).body.clone()
    }

    /// Whether a [`LoopDecision::Compiled`] dispatch of `s` can run, and
    /// with which body. Interpreter-only instrumentation (an attached
    /// tracer — whose access hooks fire on every read — or
    /// per-iteration cost recording on any loop of the nest) forces the
    /// instrumented tree-walk; so does a nest that does not lower,
    /// before its first iteration, so the ordinary `Do` arm still
    /// offers its inner loops to the dispatcher.
    fn compiled_decision(&mut self, s: StmtId) -> Result<Arc<CompiledBody>, FallbackReason> {
        if self.tracer.is_some() {
            return Err(FallbackReason::Traced);
        }
        let Some(cb) = self.compiled_body_for(s) else {
            return Err(FallbackReason::Unsupported);
        };
        if cb
            .loop_stmts()
            .iter()
            .any(|l| self.record_loops.contains(l))
        {
            return Err(FallbackReason::Traced);
        }
        Ok(cb)
    }

    /// Attaches an access tracer: `hook` receives loop events for the
    /// loops `config` selects, plus every element/scalar access executed
    /// from now on (see [`AccessTracer`]).
    pub fn attach_tracer(&mut self, config: TraceConfig, hook: Box<dyn AccessTracer>) {
        self.tracer = Some(TracerSlot { config, hook });
    }

    /// Fills every array the run allocates with deterministic
    /// pseudo-random values instead of zeros, each from a SplitMix64
    /// stream of its own seeded with `seed` and the array's [`VarId`]:
    /// what an array holds does not depend on which array the program
    /// touches first. Extents and scalar initialization are unaffected,
    /// so the program's shape is preserved while the data an array
    /// holds before its first write varies per seed.
    pub fn set_random_fill(&mut self, seed: u64) {
        self.random_fill = Some(seed);
    }

    /// Presets `arr` to `data` before the run (see
    /// [`Store::preset_array`]): the declaration's extents are ignored
    /// in favor of the preset's, and neither zero- nor random-fill
    /// touches the array afterwards. The run shares `data`'s buffer
    /// until it first stores to the array.
    pub fn preset_array(&mut self, arr: VarId, data: ArrayData) {
        self.store.preset_array(arr, data);
    }

    /// Allocates every declared array no preset installed, each with
    /// its declared extents: zero-filled through `vec![0; n]`, so pages
    /// the run never touches cost no resident memory, or under
    /// [`Interp::set_random_fill`] from its own stream. The one place
    /// arrays come into existence: a run calls it before its first
    /// statement, and from then on every array is live until the run
    /// ends.
    pub(crate) fn allocate_arrays(&mut self) {
        for (var, info) in self.program.symbols.iter() {
            if !info.is_array() || self.store.array_ref(var).is_some() {
                continue;
            }
            let dims = info.dims.clone();
            let data = match self.random_fill {
                Some(seed) => {
                    let stream = SplitMix64::new(var.index() as u64).next_u64();
                    ArrayData::random(info.ty, dims, &mut SplitMix64::new(seed ^ stream))
                }
                None => ArrayData::zeroed(info.ty, dims),
            };
            self.store.preset_array(var, data);
        }
    }

    /// Runs the whole program.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] raised during execution.
    pub fn run(self) -> Result<ExecOutcome, ExecError> {
        self.run_dispatched(&mut SequentialDispatch)
    }

    /// Runs the whole program, consulting `dispatcher` at every dynamic
    /// `do`-loop entry (see [`LoopDispatcher`]). This is the execution
    /// entry point of the hybrid inspector–executor runtime. Every
    /// declared array is allocated before `main`'s first statement.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] raised during execution, including
    /// failures of parallel dispatches the dispatcher requested.
    pub fn run_dispatched(
        mut self,
        dispatcher: &mut dyn LoopDispatcher,
    ) -> Result<ExecOutcome, ExecError> {
        self.allocate_arrays();
        let main = self.program.main();
        self.exec_proc_with(main, dispatcher)?;
        Ok(ExecOutcome {
            worker_threads_spawned: self.worker_threads_spawned(),
            output: self.output,
            stats: self.stats,
            store: self.store,
        })
    }

    /// Executes one procedure body under a dispatcher.
    pub(crate) fn exec_proc_with(
        &mut self,
        p: ProcId,
        dispatcher: &mut dyn LoopDispatcher,
    ) -> Result<(), ExecError> {
        let body = self.program.procedures[p.index()].body.clone();
        self.exec_body_with(&body, dispatcher)
    }

    /// Executes a statement list under a dispatcher.
    pub(crate) fn exec_body_with(
        &mut self,
        body: &[StmtId],
        dispatcher: &mut dyn LoopDispatcher,
    ) -> Result<(), ExecError> {
        for &s in body {
            self.exec_stmt_with(s, dispatcher)?;
        }
        Ok(())
    }

    /// Executes a single statement (how the unit tests drive one).
    #[cfg(test)]
    pub(crate) fn exec_stmt(&mut self, s: StmtId) -> Result<(), ExecError> {
        self.exec_stmt_with(s, &mut SequentialDispatch)
    }

    /// Executes a single statement under a dispatcher. Compound
    /// statements (loops, conditionals, calls) propagate the dispatcher
    /// into their bodies, so guarded loops are dispatched per execution
    /// at **any** nesting depth.
    pub(crate) fn exec_stmt_with(
        &mut self,
        s: StmtId,
        dispatcher: &mut dyn LoopDispatcher,
    ) -> Result<(), ExecError> {
        self.charge(1)?;
        // The program reference outlives `self`'s borrow, so statement
        // kinds are matched by reference — no per-statement clone on
        // this hot path.
        let program = self.program;
        match &program.stmt(s).kind {
            StmtKind::Assign { lhs, rhs } => {
                let val = self.eval(rhs)?;
                match lhs {
                    LValue::Scalar(v) => {
                        let v = *v;
                        let ty = program.symbols.var(v).ty;
                        self.store.set_scalar(v, ty, val);
                        if let Some(t) = &mut self.tracer {
                            t.hook.write_scalar(v);
                        }
                    }
                    LValue::Element(a, subs) => {
                        let a = *a;
                        let idx = self.flat_index(a, subs)?;
                        self.store.write_element(a, idx, val);
                        if let Some(t) = &mut self.tracer {
                            t.hook.write_element(a, idx);
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let var = *var;
                let lo = self.eval(lo)?.as_int();
                let hi = self.eval(hi)?.as_int();
                let step = match step {
                    Some(e) => self.eval(e)?.as_int(),
                    None => 1,
                };
                if step == 0 {
                    return Err(ExecError::DivisionByZero);
                }
                let in_range = |i: i64| (step > 0 && i <= hi) || (step < 0 && i >= hi);
                // The body the typed loop runs this entry on, if any.
                let mut typed = None;
                match dispatcher.dispatch(&self.store, s, lo, hi, step) {
                    LoopDecision::Parallel(plan) => {
                        match crate::parallel::exec_do_parallel(self, s, &plan, lo, hi, step) {
                            Ok(committed) => {
                                dispatcher.parallel_committed(s, &committed);
                                return Ok(());
                            }
                            // The program's own error propagates.
                            Err(Abort::Exec(x)) => return Err(x),
                            // The dispatch's fault. The transaction left
                            // the master store, stats, and output
                            // untouched, so fall through to the
                            // sequential loop below — the recorded run
                            // is then exactly the sequential one.
                            Err(Abort::Fallback(reason, _)) => {
                                dispatcher.parallel_failed(s, reason)
                            }
                        }
                    }
                    // Every array is live from the first statement, so
                    // the engine is decided once, here: a non-empty
                    // range over arrays of the element types the body
                    // was lowered for runs typed from its first
                    // iteration. Anything else is walked below, and
                    // only a zero-trip entry goes unreported.
                    LoopDecision::Compiled => match self.compiled_decision(s) {
                        Ok(_) if !in_range(lo) => {}
                        Ok(cb) if self.fast_ready(&cb) => typed = Some(cb),
                        Ok(_) => dispatcher.compiled_fallback(s, FallbackReason::Unsupported),
                        Err(reason) => dispatcher.compiled_fallback(s, reason),
                    },
                    LoopDecision::Sequential => {}
                }
                // Traced loops report entry (with the live store, for
                // guard replay), every iteration, and exit. Parallel
                // dispatches returned above: the sanitizer audits the
                // sequential semantics of a loop.
                let traced = self.tracer.as_ref().is_some_and(|t| t.config.traces(s));
                if traced {
                    if let Some(t) = &mut self.tracer {
                        t.hook.loop_enter(&self.store, s, lo, hi, step);
                    }
                }
                let record = self.record_loops.contains(&s);
                let entry = self.stats.loops.entry(s).or_default();
                entry.invocations += 1;
                let cost_at_entry = self.stats.total_cost;
                let mut iter_costs: Vec<u64> = Vec::new();
                if let Some(cb) = typed {
                    // It writes the final induction value back itself.
                    match self.run_typed(&cb, (lo, hi, step)) {
                        Ok(()) => dispatcher.compiled_committed(s),
                        Err(Abort::Exec(e)) => return Err(e),
                        Err(_) => unreachable!("a sequential entry has no deadline or sink"),
                    }
                } else {
                    let ty = program.symbols.var(var).ty;
                    let mut i = lo;
                    while in_range(i) {
                        self.store.set_scalar(var, ty, Value::Int(i));
                        if traced {
                            if let Some(t) = &mut self.tracer {
                                t.hook.loop_iter(s, i);
                            }
                        }
                        let c0 = self.stats.total_cost;
                        self.exec_body_with(body, dispatcher)?;
                        self.charge(1)?; // loop bookkeeping
                        if record {
                            iter_costs.push(self.stats.total_cost - c0);
                        }
                        if !advance_induction(&mut i, step) {
                            break;
                        }
                    }
                    if traced {
                        if let Some(t) = &mut self.tracer {
                            t.hook.loop_exit(s);
                        }
                    }
                    // Fortran leaves the induction variable at the
                    // first out-of-range value.
                    self.store.set_scalar(var, ty, Value::Int(i));
                }
                let total = self.stats.total_cost - cost_at_entry;
                let entry = self.stats.loops.entry(s).or_default();
                entry.total_cost += total;
                if record {
                    entry.iteration_costs.push(iter_costs);
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let entry = self.stats.loops.entry(s).or_default();
                entry.invocations += 1;
                let cost_at_entry = self.stats.total_cost;
                while self.eval_cond(cond)? {
                    self.charge(1)?;
                    self.exec_body_with(body, dispatcher)?;
                }
                let total = self.stats.total_cost - cost_at_entry;
                self.stats.loops.entry(s).or_default().total_cost += total;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval_cond(cond)? {
                    self.exec_body_with(then_body, dispatcher)
                } else {
                    self.exec_body_with(else_body, dispatcher)
                }
            }
            StmtKind::Call { proc } => self.exec_proc_with(*proc, dispatcher),
            StmtKind::Print { args } => {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    parts.push(format!("{}", self.eval(a)?));
                }
                self.output.push(parts.join(" "));
                Ok(())
            }
            StmtKind::Return => Ok(()),
        }
    }

    /// Evaluates a numeric expression.
    pub fn eval(&mut self, e: &Expr) -> Result<Value, ExecError> {
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::RealLit(v) => Ok(Value::Real(*v)),
            Expr::Var(v) => {
                if let Some(t) = &mut self.tracer {
                    t.hook.read_scalar(*v);
                }
                Ok(self.store.scalar(*v))
            }
            Expr::Element(a, subs) => {
                let idx = self.flat_index(*a, subs)?;
                if let Some(t) = &mut self.tracer {
                    t.hook.read_element(*a, idx);
                }
                Ok(self.read_element(*a, idx))
            }
            Expr::Bin(op, x, y) => {
                let a = self.eval(x)?;
                if op.is_logical() || op.is_comparison() {
                    // Logical value in numeric position: treat as 0/1.
                    let b = self.eval_cond(e)?;
                    return Ok(Value::Int(b as i64));
                }
                let b = self.eval(y)?;
                Ok(apply_bin(*op, a, b)?)
            }
            Expr::Un(UnOp::Neg, x) => Ok(match self.eval(x)? {
                Value::Int(v) => Value::Int(v.wrapping_neg()),
                Value::Real(v) => Value::Real(-v),
            }),
            Expr::Un(UnOp::Not, _) => {
                let b = self.eval_cond(e)?;
                Ok(Value::Int(b as i64))
            }
            Expr::Call(intr, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                apply_intrinsic(*intr, &vals)
            }
        }
    }

    /// Evaluates a condition.
    pub fn eval_cond(&mut self, e: &Expr) -> Result<bool, ExecError> {
        match e {
            Expr::Bin(op, x, y) if op.is_comparison() => {
                let a = self.eval(x)?;
                let b = self.eval(y)?;
                let ord = match (a, b) {
                    (Value::Int(p), Value::Int(q)) => p.cmp(&q),
                    _ => cmp_f(a.as_real(), b.as_real()),
                };
                Ok(cmp_res(*op, ord))
            }
            Expr::Bin(BinOp::And, x, y) => Ok(self.eval_cond(x)? && self.eval_cond(y)?),
            Expr::Bin(BinOp::Or, x, y) => Ok(self.eval_cond(x)? || self.eval_cond(y)?),
            Expr::Un(UnOp::Not, x) => Ok(!self.eval_cond(x)?),
            other => Ok(self.eval(other)?.as_real() != 0.0),
        }
    }

    fn flat_index(&mut self, a: VarId, subs: &[Expr]) -> Result<usize, ExecError> {
        // Every subscript is evaluated before any is checked; a lone one
        // needs no buffer to wait in. More wait in the interpreter's
        // scratch buffer, taken for the evaluation: a subscript that
        // itself holds such an access finds it empty and fills its own.
        let idx = match subs {
            [s] => {
                let v = self.eval(s)?.as_int();
                column_major(self.program, a, self.store.array(a).dims(), [v])
            }
            _ => {
                let mut vals = std::mem::take(&mut self.subscripts);
                vals.clear();
                let evaluated = subs
                    .iter()
                    .try_for_each(|s| self.eval(s).map(|v| vals.push(v.as_int())));
                let idx = evaluated.and_then(|()| {
                    let dims = self.store.array(a).dims();
                    column_major(self.program, a, dims, vals.iter().copied())
                });
                self.subscripts = vals;
                idx
            }
        }?;
        debug_assert!(idx < self.store.array(a).len());
        Ok(idx)
    }

    fn read_element(&self, a: VarId, idx: usize) -> Value {
        match self.store.array(a) {
            ArrayData::Int { data, .. } => Value::Int(data[idx]),
            ArrayData::Real { data, .. } => Value::Real(data[idx]),
        }
    }
}

/// Steps a `do` induction value. Returns `false` when `i + step`
/// overflows `i64`: no further value can be in range, so the loop ends
/// there, with the induction variable at the wrapped sum (integer
/// arithmetic in the language wraps, see [`bin_i`]).
///
/// Every executor steps through this one function so they agree on the
/// edge, and likewise computes through the operator table below
/// ([`bin_i`], [`bin_f`], [`cmp_res`]) and resolves a multi-dimensional
/// subscript through the one bounds rule ([`column_major`]).
#[inline]
pub(crate) fn advance_induction(i: &mut i64, step: i64) -> bool {
    let (next, overflowed) = i.overflowing_add(step);
    *i = next;
    !overflowed
}

/// An integer `+ - * / mod`: wrapping at the `i64` edges, `/` the
/// floor quotient and `mod` the non-negative remainder.
#[inline(always)]
pub(crate) fn bin_i(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div | BinOp::Mod => return div_mod_i(op, x, y),
        _ => unreachable!("an arithmetic operator"),
    })
}

/// Euclidean `/` and `mod`, wrapping at `i64::MIN / -1` like `+ - *`.
/// Out of line: a division dwarfs the call, and inlined into the
/// typed loop's dispatch loop the wrapping forms cost every op of it
/// (+5 % on `exec-reentry`, EXPERIMENTS.md "What the per-op loop was
/// still running").
#[inline(never)]
fn div_mod_i(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    match op {
        _ if y == 0 => Err(ExecError::DivisionByZero),
        BinOp::Div => Ok(x.wrapping_div_euclid(y)),
        _ => Ok(x.wrapping_rem_euclid(y)),
    }
}

/// A real `+ - * / mod`: `/` by zero is an error, `mod` the
/// non-negative remainder (NaN for a zero divisor).
#[inline(always)]
pub(crate) fn bin_f(op: BinOp, x: f64, y: f64) -> Result<f64, ExecError> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                return Err(ExecError::DivisionByZero);
            }
            x / y
        }
        BinOp::Mod => x.rem_euclid(y),
        _ => unreachable!("an arithmetic operator"),
    })
}

/// How two reals compare: an unordered pair (a NaN operand) compares
/// equal.
#[inline(always)]
pub(crate) fn cmp_f(x: f64, y: f64) -> Ordering {
    x.partial_cmp(&y).unwrap_or(Ordering::Equal)
}

/// Whether comparison `op` holds of operands that compare `ord`.
#[inline(always)]
pub(crate) fn cmp_res(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("a comparison"),
    }
}

/// A binary arithmetic operator on two values: integer when both are,
/// else real.
pub(crate) fn apply_bin(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => bin_i(op, x, y).map(Value::Int),
        _ => bin_f(op, a.as_real(), b.as_real()).map(Value::Real),
    }
}

pub(crate) fn apply_intrinsic(intr: Intrinsic, vals: &[Value]) -> Result<Value, ExecError> {
    let real1 =
        |f: fn(f64) -> f64| -> Result<Value, ExecError> { Ok(Value::Real(f(vals[0].as_real()))) };
    match intr {
        Intrinsic::Min => match (vals[0], vals[1]) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.min(b))),
            (a, b) => Ok(Value::Real(a.as_real().min(b.as_real()))),
        },
        Intrinsic::Max => match (vals[0], vals[1]) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.max(b))),
            (a, b) => Ok(Value::Real(a.as_real().max(b.as_real()))),
        },
        Intrinsic::Abs => Ok(match vals[0] {
            Value::Int(v) => Value::Int(v.wrapping_abs()),
            Value::Real(v) => Value::Real(v.abs()),
        }),
        Intrinsic::Mod => apply_bin(BinOp::Mod, vals[0], vals[1]),
        Intrinsic::Sqrt => real1(f64::sqrt),
        Intrinsic::Sin => real1(f64::sin),
        Intrinsic::Cos => real1(f64::cos),
        Intrinsic::Exp => real1(f64::exp),
        Intrinsic::Log => real1(f64::ln),
        Intrinsic::Int => Ok(Value::Int(vals[0].as_int())),
        Intrinsic::Real => Ok(Value::Real(vals[0].as_real())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    fn run(src: &str) -> ExecOutcome {
        let p = parse_program(src).unwrap();
        Interp::new(&p).run().unwrap()
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run("program t\nprint 1 + 2 * 3, 10 / 3, mod(10, 3)\nend\n");
        assert_eq!(out.output, vec!["7 3 1"]);
    }

    #[test]
    fn floor_division_semantics() {
        let out = run("program t\nprint (0 - 7) / 2, mod(0 - 7, 2)\nend\n");
        // div_euclid(-7, 2) = -4, rem_euclid = 1.
        assert_eq!(out.output, vec!["-4 1"]);
    }

    #[test]
    fn do_loop_and_arrays() {
        let out = run("program t
             integer i
             real x(10)
             do i = 1, 10
               x(i) = i * 1.5
             enddo
             print x(1), x(10)
             end");
        assert_eq!(out.output, vec!["1.5 15"]);
    }

    #[test]
    fn while_and_if() {
        let out = run("program t
             integer p, total
             p = 0
             total = 0
             while (p < 5)
               p = p + 1
               if (mod(p, 2) == 0) then
                 total = total + p
               endif
             endwhile
             print total
             end");
        assert_eq!(out.output, vec!["6"]);
    }

    #[test]
    fn subroutine_calls_share_globals() {
        let out = run("program t
             integer k
             k = 1
             call bump
             call bump
             print k
             end
             subroutine bump
             k = k + 1
             end");
        assert_eq!(out.output, vec!["3"]);
    }

    #[test]
    fn two_dimensional_arrays() {
        let out = run("program t
             integer i, j
             real z(3, 4)
             do i = 1, 3
               do j = 1, 4
                 z(i, j) = i * 10 + j
               enddo
             enddo
             print z(2, 3), z(3, 4)
             end");
        assert_eq!(out.output, vec!["23 34"]);
    }

    #[test]
    fn out_of_bounds_is_caught() {
        let p = parse_program("program t\nreal x(3)\nx(4) = 1\nend\n").unwrap();
        let err = Interp::new(&p).run().unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }));
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let p =
            parse_program("program t\ninteger i\nwhile (1 > 0)\ni = i\nendwhile\nend\n").unwrap();
        let mut it = Interp::new(&p);
        it.fuel = 10_000;
        assert_eq!(it.run().unwrap_err(), ExecError::OutOfFuel);
    }

    #[test]
    fn loop_stats_and_recording() {
        let p = parse_program(
            "program t
             integer i, j
             real x(100)
             do i = 1, 4
               do j = 1, i
                 x(j) = i + j
               enddo
             enddo
             end",
        )
        .unwrap();
        let outer = p
            .stmts_in(&p.procedure(p.main()).body)
            .into_iter()
            .find(|s| p.stmt(*s).kind.is_loop())
            .unwrap();
        let mut it = Interp::new(&p);
        it.record_loops.insert(outer);
        let out = it.run().unwrap();
        let stats = &out.stats.loops[&outer];
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.iteration_costs.len(), 1);
        let iters = &stats.iteration_costs[0];
        assert_eq!(iters.len(), 4);
        // Triangular work: each iteration costs more than the previous.
        assert!(iters.windows(2).all(|w| w[0] < w[1]), "{iters:?}");
    }

    #[test]
    fn induction_variable_final_value() {
        let out = run("program t
             integer i
             do i = 1, 5
               i = i
             enddo
             print i
             end");
        assert_eq!(out.output, vec!["6"]);
    }

    #[test]
    fn zero_trip_loop() {
        let out = run("program t
             integer i, k
             k = 7
             do i = 5, 1
               k = 0
             enddo
             print k, i
             end");
        assert_eq!(out.output, vec!["7 5"]);
    }
}
