//! The typed loop: runs a [`CompiledBody`] over split `i64` / `f64`
//! register planes and pre-pinned array payloads, without any
//! [`Value`] boxing.
//!
//! Walking the tree pays a dynamic-type tax on every node: a `Value`
//! enum match per read, `apply_bin`'s type dispatch per arithmetic op,
//! and a store round-trip per scalar access. All of those types are
//! statically known, and the lowering (`irr_driver::compiled`) has
//! already spent them: every instruction names its plane, and `Int →
//! Real` widening and Fortran-`INT` truncation are operand forms
//! ([`IOpnd::FReg`] / [`FOpnd::IReg`]). What is left for run time:
//!
//! - **Promoted scalars.** Referenced scalars (induction variables
//!   included) load into registers at loop entry, and the ones the nest
//!   can assign write back through
//!   [`Store::set_scalar`](crate::Store::set_scalar) on *every* exit —
//!   success or error — so the store is byte-identical to per-access
//!   traffic at every observable point.
//! - **Pre-pinned arrays, by role.** Every array is live from the
//!   program's first statement, so the typed run pins all payloads up
//!   front. An array the body
//!   only reads is pinned shared, with no copy; one it stores to is
//!   pinned with a [`WriteSink`] — a raw write in a sequential entry,
//!   and in a parallel worker the log column, the in-place window or
//!   the append buffer its dispatch's commit strategy built for it
//!   (see [`RawPin`]).
//!
//! [`Run::run_fblock`] and the one [`stream_kernel`] (with the row
//! statements of [`seg_row`] around it) are the only places an
//! instruction's semantics are written outside the tree-walk, and the
//! instructions compute through the tree-walk's own rules: its operator
//! table (`bin_i`, `bin_f`, `cmp_res`), its bounds rule
//! ([`Run::column_major`]) and its induction step. Parity is the
//! contract: same fuel ledger positions, same error identities, same
//! store at exit.
//!
//! - **One load, one store per plane; the address is an operand.** An
//!   element access names its pin slot and an [`Addr`], and
//!   [`FState::addr`] alone turns every form into a checked payload
//!   offset, in the tree-walk's order: an INDIRECT index array's
//!   subscript first, an affine `base + off` wrapping, a flat index
//!   as `IndexN` checked it. [`Run::addr`] names a miss: inside the
//!   array but outside a window pin's view a strategy violation, any
//!   other the program's `OutOfBounds` (`fast_oob`, by the bounds rule).
//!
//! - **One loop driver, at every depth.** [`Run::run_do`] is the only
//!   function here that advances a `do` loop's induction variable: the
//!   root (loop slot 0, the caller's range) and every nested
//!   [`FOp::DoLoop`] (slot `lidx + 1`) alike. Each time round it polls a
//!   worker's deadline and append sinks ([`FState::poll`], also between
//!   the iterations of a `while`), then runs a strip of up to [`STRIP`]
//!   rows or iterations through the slot's segmented stream or stream,
//!   when it has one, else one iteration on the per-iteration ops.
//! - **Streams are a fast-forward, not a second path.** Where the
//!   lowering recorded a [`Stream`] for an innermost loop,
//!   [`FState::run_stream`] runs the prefix of a strip every one of
//!   whose checks is known to pass as one tight loop, and the unchanged
//!   per-iteration loop continues from there — so whatever fails, fails
//!   on the per-iteration ops, where the tree-walk fails. What a strip
//!   can decide, it decides once: each distinct invariant subscript part
//!   is evaluated once, each LINEAR range checked at both ends, and the
//!   kernel picked by the operands' kinds; per element there is the
//!   arithmetic and an INDIRECT subscript's bounds check.
//! - **A sparse nest is one kernel, each row atomic.** Where the
//!   lowering recorded a [`SegStream`] for a row loop (`[init;] do j
//!   …; [fin]` over an offset–length nest), [`FState::run_seg`] runs a
//!   strip of its rows in order through one two-level kernel and returns
//!   the prefix it ran. A row enters only when every check it needs
//!   passes — its row table evaluates, every load in its view, fuel
//!   covers the whole row, both ends of each LINEAR range are in their
//!   pin's view — and an INDIRECT miss abandons a reduction row that has
//!   stored nothing (its initialization is deferred to its one final
//!   store, which no operand can observe). The row it stops before runs
//!   whole on the per-row path (the outer block, the inner loop's
//!   stream, its ops), which fails exactly where the tree-walk does; per
//!   row that ran, fuel, cost, the inner loop's entries and cost and the
//!   stream counts are charged in closed form, as that path would.
//! - **Instantiations follow the traffic.** Only a shape a benchmark
//!   row runs gets the kernel over its own operand types:
//!   `lin = lin·val + val` and `ind = lin·val` in `try_stream`,
//!   `colscale`'s and SpMV's rows in `run_seg`. Every other shape runs
//!   the catch-all, which decides operand kinds per element.
//!
//! **The `unsafe` here leans on one invariant, established elsewhere.**
//! A `CompiledBody` can only come out of `lower_do_loop` (its fields
//! are private to `irr_driver::compiled`), which hands out every
//! register number below the plane size the body reports, every pin
//! slot below `arrays().len()`, and marks every slot an instruction
//! stores to in `stored()`. [`FState`]'s unchecked register and pin
//! accessors and [`RawPin`]'s write path rely on exactly that.

use super::{ChunkAbort, WorkerChunk};
#[cfg(test)]
use crate::interp::Probe;
use crate::interp::{
    advance_induction, bin_f, bin_i, cmp_f, cmp_res, ArrayData, ExecError, RawSlice, Run, Value,
    WriteSink,
};
use irr_driver::compiled::{
    Addr, CompiledBody, FOp, FOpnd, IOpnd, Inv, InvTerm, RowVal, SegStream, Stream, StreamAt,
    StreamRef, StreamSink, StreamTail, ROW_INVS,
};
use irr_frontend::{BinOp, Intrinsic, ScalarType, VarId};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw view of one array pinned for the duration of a typed run: its
/// payload addressed directly, and — when the body
/// stores to it — the [`WriteSink`] those stores go through. Stores
/// that land in this store's own payload are counted locally and reach
/// the version counter at flush, so the version arithmetic is
/// identical to per-write bumps without paying them per element.
///
/// # Safety
///
/// `ip`/`fp` stay valid for as long as a pin lives, and every access
/// through them is race-free, because:
///
/// - *The payload cannot move or be freed.* Every array is allocated
///   before the program's first statement (no store slot is filled
///   mid-run), element writes never resize an array, and
///   compiled bodies contain no calls, prints, or dispatcher re-entry —
///   nothing else touches this store while the typed loop runs
///   (`run_fblock` takes `&self`). The store's `Arc` keeps the payload
///   alive; a window pin's buffer is kept alive by the master store
///   for the whole dispatch, and a pin exists only inside a chunk:
///   `WorkerPool::dispatch` does not return, normally or by unwinding,
///   while its closure runs for any chunk or could still be called for
///   one (the barrier in `pool.rs`), so the dispatch — and the buffer —
///   outlive every pin.
/// - *A slot the body only reads (`sink: None`) is pinned shared*,
///   through `Store::array_ref`, with no copy. Its pointer came from a
///   shared reference and is never written: `wr` on such a pin panics
///   before touching memory, and the lowering marks every slot an
///   instruction stores to (`CompiledBody::stored`), so that panic is
///   unreachable. Other
///   holders of the same `Arc` (the master, sibling snapshots, the
///   caller that preset the array) cannot
///   write the payload under the reader either: a store mutates a
///   payload only through `Arc::make_mut`, which copies while this
///   store's reference exists — in-place targets excepted, below.
/// - *`Direct` and `Logged` pins own their payload.* The pointer comes
///   from `Store::payload_raw` (exactly the copy a first tree-walk
///   write would take; a worker thereby writes its own copy-on-write
///   copy, never the master's, and a run never writes the buffer of a
///   preset its caller still holds), so no other store shares it.
/// - *A `Window` pin is a narrowed view of the master's buffer*: the
///   `RawSlice` `prepare_in_place` took after forcing uniqueness,
///   rebased so that `origin`, `dim0`/`len` and `ip`/`fp` describe the
///   chunk's window alone. `chk`, which every load and store already
///   passes, thus admits exactly the window, and the dispatch gives the
///   chunks of a target disjoint windows (a scatter target: the whole
///   array, stored to through a certified-injective index section and,
///   by the executor's derivation, never loaded) — no pin touches what
///   another worker writes. Targets are 1-D: no `IndexN` reaches one.
/// - *An `Append` pin never writes a payload*: stores go to the worker's
///   buffer; `ip`/`fp` serve bounds and reads, as for a read-only slot.
/// - *Pins never outlive one `run_fast_iters` call*: they live in its
///   `FState`, and their sinks go back to the worker before it returns.
///
/// Every index reaching `rd_*`/`wr_*` has passed `chk` (or `IndexN`'s
/// per-dimension check) against the extents cached here, and
/// `fast_ready` checked that the payload's element type is the declared
/// one the ops were typed with (each op dereferences the non-null pointer).
struct RawPin {
    ip: *mut i64,
    fp: *mut f64,
    is_int: bool,
    len: usize,
    /// 1-based subscript of the element `ip`/`fp` point at, and how
    /// many `chk` admits from there: `(1, dims[0])`, or a window.
    origin: u64,
    dim0: u64,
    /// The array's extents, shared with its handle.
    dims: Arc<[usize]>,
    /// Stores landed through `ip`/`fp`.
    writes: u64,
    /// `None` for a slot the body only reads.
    sink: Option<WriteSink>,
    /// `sink` is `Direct` or `Window`: a store is a raw write.
    raw: bool,
    /// An append sink refused a store: the chunk stops at the next
    /// iteration boundary of any loop ([`FState::poll`]).
    refused: Cell<bool>,
}

impl RawPin {
    /// Pins a payload this store owns uniquely (the caller got `slice`
    /// from `Store::payload_raw`) for stores that land in it.
    fn owned(data: &ArrayData, slice: RawSlice, sink: WriteSink) -> RawPin {
        let mut pin = RawPin::meta(data, Some(sink));
        match slice {
            RawSlice::Int(p, _) => pin.ip = p,
            RawSlice::Real(p, _) => pin.fp = p,
        }
        pin
    }

    /// Pins a payload other stores may share: read through the
    /// pointer, never written. A `Window` sink swaps in the master's,
    /// narrowed to the window; an `Append` sink's stores go to its buffer.
    fn shared(data: &ArrayData, sink: Option<WriteSink>) -> RawPin {
        let mut pin = RawPin::meta(data, sink);
        match data {
            ArrayData::Int { data, .. } => pin.ip = data.as_ptr().cast_mut(),
            ArrayData::Real { data, .. } => pin.fp = data.as_ptr().cast_mut(),
        }
        if let Some(WriteSink::Window(w)) = &pin.sink {
            debug_assert!(w.lo + w.len <= w.slice.len());
            (pin.origin, pin.dim0, pin.len) = (w.lo as u64 + 1, w.len as u64, w.len);
            match w.slice {
                RawSlice::Int(p, _) => pin.ip = p.wrapping_add(w.lo),
                RawSlice::Real(p, _) => pin.fp = p.wrapping_add(w.lo),
            }
        }
        pin
    }

    /// Everything but the payload pointers.
    fn meta(data: &ArrayData, sink: Option<WriteSink>) -> RawPin {
        let (ArrayData::Int { dims, .. } | ArrayData::Real { dims, .. }) = data;
        let dims = Arc::clone(dims);
        RawPin {
            ip: std::ptr::null_mut(),
            fp: std::ptr::null_mut(),
            is_int: matches!(data, ArrayData::Int { .. }),
            len: data.len(),
            origin: 1,
            dim0: dims[0] as u64,
            dims,
            writes: 0,
            raw: matches!(sink, Some(WriteSink::Direct | WriteSink::Window(_))),
            sink,
            refused: Cell::new(false),
        }
    }

    #[inline]
    fn rd_i(&self, k: usize) -> i64 {
        debug_assert!(self.is_int && k < self.len);
        // SAFETY: `k` passed `chk`/`IndexN` against this pin's extents
        // and the payload is an `i64` buffer (see the type's comment).
        unsafe { *self.ip.add(k) }
    }

    #[inline]
    fn rd_f(&self, k: usize) -> f64 {
        debug_assert!(!self.is_int && k < self.len);
        // SAFETY: as `rd_i`, for an `f64` buffer.
        unsafe { *self.fp.add(k) }
    }

    /// An index-array element as an integer (`Value::as_int`).
    #[inline]
    fn rd_int(&self, k: usize) -> i64 {
        if self.is_int {
            self.rd_i(k)
        } else {
            self.rd_f(k) as i64
        }
    }

    /// A store at `k` an observing sink takes: logged (`true`: it lands
    /// in `ip`/`fp` too), or buffered — or refused: a violation, nothing
    /// written — under the append rule
    /// ([`TypedBuf::append_at`](crate::interp::TypedBuf::append_at)).
    #[inline(always)]
    fn observed(&mut self, k: usize, v: Value) -> bool {
        // Tests in a row, the log's first: one `match` over every state
        // of the sink compiled to a jump table, an indirect branch a store.
        if let Some(WriteSink::Logged(col)) = &mut self.sink {
            col.idx.push(k);
            col.vals.push(v);
            return true;
        }
        let Some(WriteSink::Append { base, buf }) = &mut self.sink else {
            unreachable!("the lowering marks every stored slot")
        };
        if !buf.append_at(*base, k, v) {
            self.refused.set(true);
        }
        false
    }

    #[inline]
    fn wr_i(&mut self, k: usize, v: i64) {
        debug_assert!(self.is_int && k < self.len);
        if self.raw || self.observed(k, Value::Int(v)) {
            self.writes += 1;
            // SAFETY: `k` is in bounds as for `rd_i`; the pin owns its
            // payload (`payload_raw`) or `k` is in its window.
            unsafe { *self.ip.add(k) = v }
        }
    }

    #[inline]
    fn wr_f(&mut self, k: usize, v: f64) {
        debug_assert!(!self.is_int && k < self.len);
        if self.raw || self.observed(k, Value::Real(v)) {
            self.writes += 1;
            // SAFETY: as `wr_i`, for an `f64` buffer.
            unsafe { *self.fp.add(k) = v }
        }
    }

    /// Bounds-checks a 1-based first-dimension subscript against the
    /// view. The wrap to unsigned folds the `< origin` and `> end` tests
    /// into one compare (anything below the origin wraps past any extent).
    #[inline]
    fn chk(&self, v: i64) -> Option<usize> {
        in_view(v, self.origin, self.dim0)
    }

    /// The payload at `p` (`ip` or `fp`) under this pin's view.
    fn view<T>(&self, p: *mut T) -> View<T> {
        View {
            p,
            len: self.len,
            origin: self.origin,
            dim0: self.dim0,
        }
    }
}

/// A pin's payload and a copy of its view, detached from the pin: what
/// a stream resolves its lanes against — a segmented one once per
/// strip, for all its rows.
#[derive(Clone, Copy)]
struct View<T> {
    p: *mut T,
    len: usize,
    origin: u64,
    dim0: u64,
}

impl<T> View<T> {
    /// The elements at subscripts `first ..= first + n - 1`, `n >= 1`,
    /// when both ends — hence everything between — are in view: the
    /// window of an in-place pin, not the array. The last subscript is
    /// computed with an overflow check.
    #[inline(always)]
    fn lin(self, first: i64, n: usize) -> Option<Lin<T>> {
        let last = first.checked_add(n as i64 - 1)?;
        let k0 = in_view(first, self.origin, self.dim0)?;
        let k1 = in_view(last, self.origin, self.dim0)?;
        debug_assert!(k1 - k0 == n - 1 && k1 < self.len);
        Some(Lin {
            p: self.p.wrapping_add(k0),
            len: self.len - k0,
        })
    }
}

/// [`RawPin::chk`] on a copy of the pin's view.
#[inline(always)]
fn in_view(v: i64, origin: u64, dim0: u64) -> Option<usize> {
    let k = (v as u64).wrapping_sub(origin);
    if k >= dim0 {
        None
    } else {
        Some(k as usize)
    }
}

/// Iterations (or rows) a stream fast-forwards between two polls of a
/// worker's deadline, in a loop at any depth.
const STRIP: i64 = 1024;

/// Where iteration `t` of one resolved [`StreamAt`] lives, `None` when
/// an INDIRECT subscript misses its pin's view.
trait Lane: Copy {
    fn at(self, t: usize) -> Option<*mut f64>;
}

/// LINEAR: iteration `t` is `p[t]`. Both ends of the subscript range
/// passed the pin's view (`View::lin`) and `len` counts what the pin
/// holds from `p` on, so `t < n <= len`.
#[derive(Clone, Copy)]
struct Lin<T> {
    p: *mut T,
    len: usize,
}

impl Lane for Lin<f64> {
    #[inline(always)]
    fn at(self, t: usize) -> Option<*mut f64> {
        debug_assert!(t < self.len);
        Some(self.p.wrapping_add(t))
    }
}

/// INDIRECT: `idx` is the index array resolved as a [`Lin`], `data`
/// the data pin's first element, and every subscript read from `idx`
/// passes the data pin's `chk` — on the copy of its view in `origin` /
/// `dim0 <= len` — before it is used.
#[derive(Clone, Copy)]
struct Ind {
    idx: Lin<i64>,
    data: *mut f64,
    len: usize,
    origin: u64,
    dim0: u64,
}

impl Lane for Ind {
    #[inline(always)]
    fn at(self, t: usize) -> Option<*mut f64> {
        debug_assert!(t < self.idx.len);
        // SAFETY: `idx.p[0..n]` passed the view at both ends (`lin`) and
        // `t < n`; the pin is an `i64` payload (the lowering takes
        // integer-declared index arrays, `fast_ready`).
        let k = in_view(unsafe { *self.idx.p.add(t) }, self.origin, self.dim0)?;
        debug_assert!(k < self.len);
        Some(self.data.wrapping_add(k))
    }
}

/// A loop-invariant value.
#[derive(Clone, Copy)]
struct Val(f64);

/// The reduction's running value.
#[derive(Clone, Copy)]
struct Acc;

/// A stream operand: iteration `t`'s value, given the running value.
trait Rd: Copy {
    fn rd(self, t: usize, acc: f64) -> Option<f64>;
}

impl<L: Lane> Rd for L {
    #[inline(always)]
    fn rd(self, t: usize, _: f64) -> Option<f64> {
        // SAFETY: a `Lane` hands out elements of a live `f64` payload
        // only (see `Lin` and `Ind`, and `RawPin` for liveness).
        self.at(t).map(|p| unsafe { *p })
    }
}

impl Rd for Val {
    #[inline(always)]
    fn rd(self, _: usize, _: f64) -> Option<f64> {
        Some(self.0)
    }
}

impl Rd for Acc {
    #[inline(always)]
    fn rd(self, _: usize, acc: f64) -> Option<f64> {
        Some(acc)
    }
}

/// A stream sink: takes iteration `t`'s value, `None` when a scatter's
/// subscript misses.
trait Wr: Copy {
    fn wr(self, t: usize, v: f64, acc: &mut f64) -> Option<()>;
}

impl<L: Lane> Wr for L {
    #[inline(always)]
    fn wr(self, t: usize, v: f64, _: &mut f64) -> Option<()> {
        // SAFETY: as the reads; the sink's pin is `raw` (a kernel runs
        // only under `FState::streams`), so it owns its payload or the
        // element is in its window. Reads and writes of one payload go
        // through raw pointers in program order.
        self.at(t).map(|p| unsafe { *p = v })
    }
}

impl Wr for Acc {
    #[inline(always)]
    fn wr(self, _: usize, v: f64, acc: &mut f64) -> Option<()> {
        *acc = v;
        Some(())
    }
}

/// A resolved operand or sink of any kind: what `try_stream` picks the
/// kernel's instantiation by, and — as a reader and a sink itself,
/// deciding per element — what the catch-all instantiation runs on.
#[derive(Clone, Copy)]
enum Opnd {
    Val(Val),
    Lin(Lin<f64>),
    Ind(Ind),
    Acc(Acc),
}

impl Rd for Opnd {
    #[inline(always)]
    fn rd(self, t: usize, acc: f64) -> Option<f64> {
        match self {
            Opnd::Val(o) => o.rd(t, acc),
            Opnd::Lin(o) => o.rd(t, acc),
            Opnd::Ind(o) => o.rd(t, acc),
            Opnd::Acc(o) => o.rd(t, acc),
        }
    }
}

impl Wr for Opnd {
    #[inline(always)]
    fn wr(self, t: usize, v: f64, acc: &mut f64) -> Option<()> {
        match self {
            Opnd::Lin(o) => o.wr(t, v, acc),
            Opnd::Ind(o) => o.wr(t, v, acc),
            Opnd::Acc(o) => o.wr(t, v, acc),
            Opnd::Val(_) => unreachable!("a sink is a lane or the accumulator"),
        }
    }
}

/// The one stream kernel: iterations `0..n` of `sink = P`, `P ± c`,
/// `c ± P`, `P = a` or `a * b`, in order, each operation rounded on
/// its own in the source's operand order. Stops *before* the first
/// iteration one of whose INDIRECT subscripts misses its pin's view,
/// with nothing of that iteration done; returns how many ran.
///
/// Inlined into each arm of `try_stream`'s one `match`, where the
/// operand types are concrete and `b` and `tail` literals: an
/// instantiated shape decides nothing per element but its `in_view`s.
#[inline(always)]
fn stream_kernel<A: Rd, B: Rd, C: Rd, S: Wr>(
    n: usize,
    a: A,
    b: Option<B>,
    tail: Option<(StreamTail, C)>,
    sink: S,
    acc: &mut f64,
) -> usize {
    for t in 0..n {
        let Some(mut v) = a.rd(t, *acc) else { return t };
        if let Some(b) = b {
            let Some(b) = b.rd(t, *acc) else { return t };
            v *= b;
        }
        if let Some((op, c)) = tail {
            let Some(c) = c.rd(t, *acc) else { return t };
            v = match op {
                StreamTail::PAddC => v + c,
                StreamTail::PSubC => v - c,
                StreamTail::CAddP => c + v,
                StreamTail::CSubP => c - v,
            };
        }
        if sink.wr(t, v, acc).is_none() {
            return t;
        }
    }
    n
}

/// The iterations `do j = lo, hi` runs: 0 when `lo > hi`; `None` when
/// `hi` is `i64::MAX`, where advancing `j` past the end overflows and
/// the loop ends on the per-iteration ops.
#[inline(always)]
fn row_trip(lo: i64, hi: i64) -> Option<u64> {
    match () {
        _ if lo > hi => Some(0),
        _ if hi == i64::MAX => None,
        _ => Some(hi.abs_diff(lo) + 1),
    }
}

/// One term of an invariant table's entry over the live registers, the
/// pins and the entries before it (`vals`): `None` when a load misses
/// its pin's view.
#[inline(always)]
fn term_val(term: InvTerm, ir: &[i64], pins: &[RawPin], vals: &[i64]) -> Option<i64> {
    Some(match term {
        InvTerm::Reg(r) => ir[usize::from(r)],
        InvTerm::Load { slot, at } => {
            let pin = &pins[usize::from(slot)];
            pin.rd_i(pin.chk(vals[usize::from(at)])?)
        }
    })
}

/// One entry of an invariant table, as [`term_val`] its terms: `None`
/// when the sum leaves `i64` or a load misses its pin's view.
#[inline(always)]
fn eval_inv(inv: &Inv, ir: &[i64], pins: &[RawPin], vals: &[i64]) -> Option<i64> {
    let mut sum = inv.off;
    for &(neg, term) in inv.terms.iter() {
        let v = term_val(term, ir, pins, vals)?;
        sum = if neg {
            sum.checked_sub(v)?
        } else {
            sum.checked_add(v)?
        };
    }
    Some(sum)
}

/// The values of a row table's entries for the row at hand.
type RowVals = [i64; ROW_INVS];

/// Entry `k` of an invariant table's values: a stream's, or a row's.
#[inline(always)]
fn entry(vals: &[i64], k: u16) -> i64 {
    vals[usize::from(k)]
}

/// A row-dependent entry of a segmented stream's row table, resolved
/// once per strip: `off ± i` or `off ± ptr(i + c)` — the form an
/// offset–length nest's table takes — with every term that does not
/// depend on the row folded into `off`. The load needs no check of its
/// own: the rows whose `i + c` is inside `ptr`'s view are one range,
/// checked against the rows run (`RowTable::rows_in_view`).
#[derive(Clone, Copy)]
struct RowLoad {
    at: u8,
    neg: bool,
    off: i64,
    /// `ptr(i + c)` is `src[i]`; null for the row variable itself.
    src: *const i64,
    /// The view's first element and length, for the debug check of
    /// each read.
    view: *const i64,
    len: usize,
}

/// A row table as [`FState::run_seg`] evaluates it: the entries that do
/// not depend on the row evaluated once, the others as [`RowLoad`]s in
/// table order.
struct RowTable {
    vals: RowVals,
    loads: [RowLoad; ROW_INVS],
    len: usize,
    /// The rows whose every load is inside its view.
    rows: (i64, i64),
}

impl RowTable {
    /// The last row of `lo ..= hi` the kernel may run without a load
    /// leaving its view; `None` when row `lo` would.
    fn rows_in_view(&self, lo: i64, hi: i64) -> Option<i64> {
        let (r0, r1) = self.rows;
        (r0 <= lo && lo <= r1).then(|| hi.min(r1))
    }

    /// Evaluates the row-dependent entries for row `r`, one of
    /// [`RowTable::rows_in_view`], into `vals`, as [`eval_inv`] does:
    /// `None` when a sum leaves `i64`. Every row evaluates every entry,
    /// an empty row its statement's subscript parts too.
    #[inline(always)]
    fn eval(&mut self, r: i64) -> Option<()> {
        for e in &self.loads[..self.len] {
            let v = if e.src.is_null() {
                r
            } else {
                let at = e.src.wrapping_offset(r as isize);
                debug_assert!((at as usize).wrapping_sub(e.view as usize) / 8 < e.len);
                // SAFETY: `r` is one of the rows whose load is inside the
                // view of a live `i64` pin (`rows_in_view`).
                unsafe { *at }
            };
            let sum = if e.neg {
                e.off.checked_sub(v)?
            } else {
                e.off.checked_add(v)?
            };
            self.vals[usize::from(e.at) % ROW_INVS] = sum;
        }
        Some(())
    }
}

/// One stream operand, resolved into what stays fixed from one range of
/// iterations to the next; [`Res::row`] makes it a stream operand for
/// iterations `lo .. lo + n` over an invariant table's values — once
/// for a stream's strip, once per row for a segmented stream's.
trait Res: Copy {
    type L: Copy;
    fn row(self, vals: &[i64], lo: i64, n: usize) -> Option<Self::L>;
}

impl Res for Val {
    type L = Val;
    #[inline(always)]
    fn row(self, _: &[i64], _: i64, _: usize) -> Option<Val> {
        Some(self)
    }
}

impl Res for Acc {
    type L = Acc;
    #[inline(always)]
    fn row(self, _: &[i64], _: i64, _: usize) -> Option<Acc> {
        Some(self)
    }
}

/// LINEAR `arr(base + j)`: both ends of the row's range checked.
#[derive(Clone, Copy)]
struct LinRes {
    data: View<f64>,
    base: u16,
}

impl LinRes {
    /// Whether the two resolve to the same elements in every row.
    fn same(self, other: LinRes) -> bool {
        (self.data.p, self.base) == (other.data.p, other.base)
    }
}

impl Res for LinRes {
    type L = Lin<f64>;
    #[inline(always)]
    fn row(self, vals: &[i64], lo: i64, n: usize) -> Option<Lin<f64>> {
        self.data.lin(entry(vals, self.base).checked_add(lo)?, n)
    }
}

/// INDIRECT `arr(idx(base + j))`: the index range checked at both ends,
/// each subscript read from it as the kernel reads it.
#[derive(Clone, Copy)]
struct IndRes {
    idx: View<i64>,
    data: View<f64>,
    base: u16,
}

impl Res for IndRes {
    type L = Ind;
    #[inline(always)]
    fn row(self, vals: &[i64], lo: i64, n: usize) -> Option<Ind> {
        let idx = self.idx.lin(entry(vals, self.base).checked_add(lo)?, n)?;
        let d = self.data;
        Some(Ind {
            idx,
            data: d.p,
            len: d.len,
            origin: d.origin,
            dim0: d.dim0,
        })
    }
}

/// A resolver of any kind, for the catch-all instantiation.
#[derive(Clone, Copy)]
enum OpndRes {
    Val(Val),
    Lin(LinRes),
    Ind(IndRes),
    Acc(Acc),
}

impl Res for OpndRes {
    type L = Opnd;
    #[inline(always)]
    fn row(self, vals: &[i64], lo: i64, n: usize) -> Option<Opnd> {
        Some(match self {
            OpndRes::Val(v) => Opnd::Val(v),
            OpndRes::Lin(r) => Opnd::Lin(r.row(vals, lo, n)?),
            OpndRes::Ind(r) => Opnd::Ind(r.row(vals, lo, n)?),
            OpndRes::Acc(a) => Opnd::Acc(a),
        })
    }
}

/// A row's initial or final operand, resolved once per strip.
#[derive(Clone, Copy)]
enum RowValRes {
    Val(f64),
    /// The row variable, read as a real.
    Row,
    /// `arr(vals[at])`.
    Elem {
        at: u16,
        data: View<f64>,
    },
}

impl RowValRes {
    /// The value for row `r`, `None` when the element misses its view.
    #[inline(always)]
    fn get(self, vals: &RowVals, r: i64) -> Option<f64> {
        Some(match self {
            RowValRes::Val(v) => v,
            RowValRes::Row => r as f64,
            RowValRes::Elem { at, data } => {
                let k = in_view(entry(vals, at), data.origin, data.dim0)?;
                debug_assert!(k < data.len);
                // SAFETY: `k` is inside the view of a live `f64` pin.
                unsafe { *data.p.add(k) }
            }
        })
    }
}

/// A segmented stream's row statements around its inner loop, resolved
/// for one strip: the initialization, the final store `(op, acc
/// first, v)`, and where in the row table the inner loop's bounds are.
struct RowRes {
    init: Option<RowValRes>,
    fin: Option<(BinOp, bool, RowValRes)>,
    lo: u16,
    hi: u16,
}

/// Where a segmented stream's rows put their values, beside the lane a
/// lane sink writes ([`Res`]): how a row's running value starts and
/// where it goes once the row is done.
trait SegSink: Res {
    /// The running value a row starts from — `init`, or else what its
    /// target holds — and the target's offset in its view; `None` when
    /// the row stores (`writes > 0`) to a target outside the view.
    fn start(
        self,
        st: &FState,
        vals: &RowVals,
        init: Option<f64>,
        writes: u64,
    ) -> Option<(f64, usize)>;
    /// Stores the row's reduced value (a lane stored as it went).
    fn finish(self, st: &mut FState, acc: f64, k: usize, writes: u64);
}

impl SegSink for LinRes {
    #[inline(always)]
    fn start(self, _: &FState, _: &RowVals, _: Option<f64>, _: u64) -> Option<(f64, usize)> {
        Some((0.0, 0))
    }

    #[inline(always)]
    fn finish(self, _: &mut FState, _: f64, _: usize, _: u64) {}
}

/// A reduction into `arr(vals[at])`, a raw pin's element.
#[derive(Clone, Copy)]
struct ElemSink {
    at: u16,
    data: View<f64>,
}

impl Res for ElemSink {
    type L = Acc;
    #[inline(always)]
    fn row(self, _: &[i64], _: i64, _: usize) -> Option<Acc> {
        Some(Acc)
    }
}

impl SegSink for ElemSink {
    #[inline(always)]
    fn start(
        self,
        _: &FState,
        vals: &RowVals,
        init: Option<f64>,
        writes: u64,
    ) -> Option<(f64, usize)> {
        if writes == 0 {
            return Some((0.0, 0));
        }
        let d = self.data;
        let k = in_view(entry(vals, self.at), d.origin, d.dim0)?;
        debug_assert!(k < d.len);
        // SAFETY: `k` is inside the view of a live `f64` pin.
        Some((init.unwrap_or_else(|| unsafe { *d.p.add(k) }), k))
    }

    #[inline(always)]
    fn finish(self, _: &mut FState, acc: f64, k: usize, writes: u64) {
        if writes > 0 {
            debug_assert!(k < self.data.len);
            // SAFETY: `start` put `k` inside the view, and the pin is a
            // raw write (`FState::streams`): it owns its payload or `k` is
            // in its window.
            unsafe { *self.data.p.add(k) = acc }
        }
    }
}

/// A reduction into a real scalar's register.
#[derive(Clone, Copy)]
struct ScalarSink(u16);

impl Res for ScalarSink {
    type L = Acc;
    #[inline(always)]
    fn row(self, _: &[i64], _: i64, _: usize) -> Option<Acc> {
        Some(Acc)
    }
}

impl SegSink for ScalarSink {
    #[inline(always)]
    fn start(self, st: &FState, _: &RowVals, init: Option<f64>, _: u64) -> Option<(f64, usize)> {
        Some((init.unwrap_or_else(|| st.frg(self.0)), 0))
    }

    #[inline(always)]
    fn finish(self, st: &mut FState, acc: f64, _: usize, _: u64) {
        st.frs(self.0, acc);
    }
}

/// A sink of any kind, for the catch-all instantiation.
#[derive(Clone, Copy)]
enum AnySink {
    Lane(LinRes),
    Elem(ElemSink),
    Scalar(ScalarSink),
}

impl Res for AnySink {
    type L = Opnd;
    #[inline(always)]
    fn row(self, vals: &[i64], lo: i64, n: usize) -> Option<Opnd> {
        Some(match self {
            AnySink::Lane(l) => Opnd::Lin(l.row(vals, lo, n)?),
            AnySink::Elem(_) | AnySink::Scalar(_) => Opnd::Acc(Acc),
        })
    }
}

impl SegSink for AnySink {
    #[inline(always)]
    fn start(
        self,
        st: &FState,
        vals: &RowVals,
        init: Option<f64>,
        writes: u64,
    ) -> Option<(f64, usize)> {
        match self {
            AnySink::Lane(l) => l.start(st, vals, init, writes),
            AnySink::Elem(e) => e.start(st, vals, init, writes),
            AnySink::Scalar(s) => s.start(st, vals, init, writes),
        }
    }

    #[inline(always)]
    fn finish(self, st: &mut FState, acc: f64, k: usize, writes: u64) {
        match self {
            AnySink::Lane(l) => l.finish(st, acc, k, writes),
            AnySink::Elem(e) => e.finish(st, acc, k, writes),
            AnySink::Scalar(s) => s.finish(st, acc, k, writes),
        }
    }
}

/// What one row of a segmented stream did: its iterations, the value it
/// left in `j`, the fuel it took and the stores it counts.
struct RowDone {
    n: u64,
    j: i64,
    cost: u64,
    writes: u64,
}

/// Row `r` of a segmented stream, whole, or `None` with nothing of it
/// done, given `fuel` left. The row guard admits it only when every
/// check the row needs passes: its table evaluates (each load in its
/// pin's view, no sum leaving `i64`), fuel covers the whole row — its
/// statements, the inner loop's two units an iteration and the row
/// loop's bookkeeping — the initial and final values' elements and the
/// reduction's target are in view, and, for a row that iterates, both
/// ends of each LINEAR range are inside its pin's view. An INDIRECT
/// subscript is checked as the kernel reads it; only a reduction has
/// one, and a reduction stores once, at the row's end — its
/// initialization deferred to that store, which no operand can observe
/// (a stream's element sink is read by no operand) — so a miss abandons
/// a row that has stored nothing.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn seg_row<A: Res, B: Res, C: Res, S: SegSink>(
    st: &mut FState,
    table: &mut RowTable,
    row: &RowRes,
    r: i64,
    fuel: u64,
    a: A,
    b: Option<B>,
    tail: Option<(StreamTail, C)>,
    sink: S,
) -> Option<RowDone>
where
    A::L: Rd,
    B::L: Rd,
    C::L: Rd,
    S::L: Wr,
{
    table.eval(r)?;
    let vals = &table.vals;
    let (lo, hi) = (entry(vals, row.lo), entry(vals, row.hi));
    let n = row_trip(lo, hi)?;
    let (init, fin) = (u64::from(row.init.is_some()), u64::from(row.fin.is_some()));
    // The initialization, the inner `do`, the final store and the row
    // loop's bookkeeping, and two units an iteration.
    let cost = n.checked_mul(2)?.checked_add(2 + init + fin);
    let cost = cost.filter(|&c| c <= fuel)?;
    let writes = init + n + fin;
    let n = n as usize;
    let init = match row.init {
        Some(v) => Some(v.get(vals, r)?),
        None => None,
    };
    let fin = match row.fin {
        Some((op, acc_first, v)) => Some((op, acc_first, v.get(vals, r)?)),
        None => None,
    };
    let (mut acc, k) = sink.start(st, vals, init, writes)?;
    if n > 0 {
        let (a, s) = (a.row(vals, lo, n)?, sink.row(vals, lo, n)?);
        let b = match b {
            Some(b) => Some(b.row(vals, lo, n)?),
            None => None,
        };
        let tail = match tail {
            Some((op, c)) => Some((op, c.row(vals, lo, n)?)),
            None => None,
        };
        if stream_kernel(n, a, b, tail, s, &mut acc) < n {
            return None;
        }
    }
    if let Some((op, acc_first, v)) = fin {
        let (x, y) = if acc_first { (acc, v) } else { (v, acc) };
        acc = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            _ => x * y,
        };
    }
    sink.finish(st, acc, k, writes);
    Some(RowDone {
        n: n as u64,
        j: if n > 0 { hi + 1 } else { lo },
        cost,
        writes,
    })
}

/// Per-entry run state: the typed register planes, pinned payloads,
/// and the local fuel/cost ledger flushed back on every exit.
#[derive(Default)]
struct FState {
    ir: Vec<i64>,
    fr: Vec<f64>,
    pins: Vec<RawPin>,
    fuel: u64,
    spent: u64,
    /// Inner-loop entry counts, indexed by `lidx` (entries count even
    /// when the body errors, matching the tree walk).
    linv: Vec<u64>,
    /// Inner-loop attributed cost, indexed by `lidx` (completed
    /// entries only, matching the tree walk's error semantics).
    lcost: Vec<u64>,
    /// Loop entries a stream fast-forwarded and the iterations it ran
    /// (`ExecStats::stream_entries`, `stream_iters`).
    streamed: u64,
    stream_iters: u64,
    /// What this entry counted, for its run to add up.
    #[cfg(test)]
    probe: Probe,
    /// The values of the entered stream's `Stream::invs`, kept between
    /// entries for its allocation.
    invs: Vec<i64>,
    /// Every stored pin is a raw write, so a stream can have a sink:
    /// under a write-log or an append buffer no loop entry so much as
    /// looks its stream up — the stream and row kernels write raw.
    streams: bool,
    /// A worker's deadline: when it started and how long it may run.
    deadline: Option<(Instant, Duration)>,
    /// There is a deadline or an append sink, so [`FState::poll`] has
    /// something to check.
    watched: bool,
}

impl FState {
    /// A worker's checks between two iterations (or strips) of any loop:
    /// its deadline, and whether an append sink refused a store. A
    /// sequential entry, and a worker with neither, test one flag.
    #[inline(always)]
    fn poll(&self, cb: &CompiledBody) -> Result<(), ChunkAbort> {
        if !self.watched {
            return Ok(());
        }
        if self
            .deadline
            .is_some_and(|(started, limit)| started.elapsed() >= limit)
        {
            return Err(ChunkAbort::TimedOut);
        }
        self.refused(cb)
            .map_or(Ok(()), |a| Err(ChunkAbort::Violated(a)))
    }

    /// The first array whose append sink refused a store.
    fn refused(&self, cb: &CompiledBody) -> Option<VarId> {
        let k = self.pins.iter().position(|p| p.refused.get())?;
        Some(cb.arrays()[k])
    }

    /// Mirrors `Run::charge`: cost counts before the fuel check,
    /// and exhaustion leaves the failing charge undeducted.
    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.spent += n;
        if self.fuel < n {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= n;
        Ok(())
    }

    // Register and pin accessors skip the slice bounds checks. Every
    // number they are given is read out of a `CompiledBody`, which only
    // `lower_do_loop` can build: its allocator hands out each `u16`
    // register below the plane sizes `run_fast_iters` builds `FState`
    // with, and each slot below `arrays().len()`, for which
    // `run_fast_iters` pins one payload each. The debug asserts keep
    // that invariant audited in debug builds.

    #[inline(always)]
    fn irg(&self, r: u16) -> i64 {
        debug_assert!((r as usize) < self.ir.len());
        unsafe { *self.ir.get_unchecked(r as usize) }
    }

    #[inline(always)]
    fn irs(&mut self, r: u16, v: i64) {
        debug_assert!((r as usize) < self.ir.len());
        unsafe { *self.ir.get_unchecked_mut(r as usize) = v }
    }

    #[inline(always)]
    fn frg(&self, r: u16) -> f64 {
        debug_assert!((r as usize) < self.fr.len());
        unsafe { *self.fr.get_unchecked(r as usize) }
    }

    #[inline(always)]
    fn frs(&mut self, r: u16, v: f64) {
        debug_assert!((r as usize) < self.fr.len());
        unsafe { *self.fr.get_unchecked_mut(r as usize) = v }
    }

    #[inline(always)]
    fn pinr(&self, s: u16) -> &RawPin {
        debug_assert!((s as usize) < self.pins.len());
        unsafe { self.pins.get_unchecked(s as usize) }
    }

    #[inline(always)]
    fn pinw(&mut self, s: u16) -> &mut RawPin {
        debug_assert!((s as usize) < self.pins.len());
        unsafe { self.pins.get_unchecked_mut(s as usize) }
    }

    /// One operand over the pins' views, to be resolved for a range of
    /// iterations ([`Res::row`]); each reference checks its own range
    /// against its own pin, whatever part it shares with another.
    fn res(&self, r: &StreamRef) -> OpndRes {
        match r {
            StreamRef::Inv(v) => OpndRes::Val(Val(self.frd(*v))),
            StreamRef::At(at) => self.res_at(at),
            StreamRef::Acc => OpndRes::Acc(Acc),
        }
    }

    /// Fast-forwards iterations `lo ..= hi`, `lo <= hi`, of a loop
    /// whose body is `sd`: runs the first `m` as one stream and returns
    /// `m`, having charged them (a statement and a bookkeeping unit
    /// each) and counted the loop entry when `first` is its first strip.
    /// Every check of those `m` iterations is known to pass — fuel for
    /// `2 m`, both ends of each LINEAR range inside its pin's view, each
    /// INDIRECT subscript as it is read — so the caller's per-iteration
    /// loop, continued at `lo + m`, meets whatever fails exactly where
    /// the tree-walk does. `lo + m` fits an `i64`. The caller has
    /// checked `streams`: every store is a raw write.
    fn run_stream(&mut self, sd: &Stream, lo: i64, hi: i64, first: bool) -> i64 {
        let n = (hi.abs_diff(lo) + 1)
            .min(i64::MAX.abs_diff(lo))
            .min(self.fuel / 2);
        let Ok(n @ 1..) = usize::try_from(n) else {
            return 0;
        };
        let m = self.try_stream(sd, lo, n).unwrap_or(0) as u64;
        self.spent += 2 * m;
        self.fuel -= 2 * m;
        self.stream_iters += m;
        self.streamed += u64::from(first && m > 0);
        m as i64
    }

    fn try_stream(&mut self, sd: &Stream, lo: i64, n: usize) -> Option<usize> {
        debug_assert!(
            self.streams,
            "the caller checks that every store is a raw write"
        );
        // Each distinct subscript part of the statement, once a strip, in
        // table order; `None` when a sum leaves `i64` or a load misses
        // its pin's view.
        self.invs.clear();
        for inv in sd.invs.iter() {
            let v = eval_inv(inv, &self.ir, &self.pins, &self.invs)?;
            self.invs.push(v);
        }
        let row = |r: OpndRes| r.row(&self.invs, lo, n);
        // A reduction runs in `acc`, from the register or the element
        // (at `k` of its pin's view) it is stored to once, after.
        let (sink, mut acc, k) = match &sd.sink {
            StreamSink::At(at) => (row(self.res_at(at))?, 0.0, 0),
            StreamSink::Scalar(r) => (Opnd::Acc(Acc), self.frg(*r), 0),
            StreamSink::Elem { slot, at } => {
                let pin = self.pinr(*slot);
                let k = pin.chk(entry(&self.invs, *at))?;
                (Opnd::Acc(Acc), pin.rd_f(k), k)
            }
        };
        let a = row(self.res(&sd.a))?;
        let b = match &sd.b {
            Some(b) => Some(row(self.res(b))?),
            None => None,
        };
        let tail = match &sd.tail {
            Some((op, c)) => Some((*op, row(self.res(c))?)),
            None => None,
        };
        // The one decision of the strip: the two shapes a benchmark row
        // streams at the root or nested (EXPERIMENTS.md, "Shapes") get
        // the kernel over their own operand types; anything else runs it
        // over `Opnd`s, which decide per element.
        use {Opnd as O, StreamTail::*};
        const NO_TAIL: Option<(StreamTail, Val)> = None;
        macro_rules! run {
            ($shape:literal: $a:expr, $b:expr, $tail:expr, $sink:expr) => {{
                #[cfg(test)]
                {
                    self.probe.stream_shapes[$shape] += 1;
                }
                stream_kernel(n, $a, $b, $tail, $sink, &mut acc)
            }};
        }
        let m = match (a, b, tail, sink) {
            // `lin = lin·val + val`: scale
            (O::Lin(a), Some(O::Val(b)), Some((PAddC, O::Val(c))), O::Lin(s)) => {
                run!(1: a, Some(b), Some((PAddC, c)), s)
            }
            // `ind = lin·val`: permute
            (O::Lin(a), Some(O::Val(b)), None, O::Ind(s)) => run!(2: a, Some(b), NO_TAIL, s),
            (a, b, tail, s) => run!(0: a, b, tail, s),
        };
        if m > 0 {
            match &sd.sink {
                StreamSink::At(at) => self.pinw(at.slot).writes += m as u64,
                StreamSink::Scalar(r) => self.frs(*r, acc),
                StreamSink::Elem { slot, .. } => {
                    // One store of the last value, every iteration's
                    // write counted.
                    let pin = self.pinw(*slot);
                    pin.writes += m as u64 - 1;
                    pin.wr_f(k, acc);
                }
            }
        }
        Some(m)
    }

    /// Runs rows `lo ..= hi` of the segmented stream `sg` in order, each
    /// whole or not at all, and returns how many ran: the rows before the
    /// first one its row guard does not admit (`FState::seg_row`). The
    /// caller's per-row ops run that row, from its first statement, and
    /// meet whatever fails in it exactly where the tree-walk does; every
    /// row that ran is charged and counted as the per-row path would have
    /// (fuel, cost, the inner loop's entries and cost, its stream entry
    /// and iterations). Never runs row `i64::MAX`, whose advance ends
    /// the loop on the per-row ops. The caller has checked `streams`.
    #[inline(never)]
    fn run_seg(&mut self, sg: &SegStream, lo: i64, hi: i64) -> i64 {
        debug_assert!(
            self.streams,
            "the caller checks that every store is a raw write"
        );
        let sd = &sg.stream;
        let sink = match &sd.sink {
            StreamSink::At(at) => match self.res_at(at) {
                OpndRes::Lin(l) => AnySink::Lane(l),
                // A row of a lane sink writes as it goes, so every check
                // it needs must be known to pass before it starts: no
                // INDIRECT lane, whose subscripts are checked as read.
                _ => return 0,
            },
            StreamSink::Scalar(reg) => AnySink::Scalar(ScalarSink(*reg)),
            StreamSink::Elem { slot, at } => {
                let pin = self.pinr(*slot);
                AnySink::Elem(ElemSink {
                    at: *at,
                    data: pin.view(pin.fp),
                })
            }
        };
        let a = self.res(&sd.a);
        let b = sd.b.as_ref().map(|b| self.res(b));
        let tail = sd.tail.as_ref().map(|(op, c)| (*op, self.res(c)));
        let ind = |r: &OpndRes| matches!(r, OpndRes::Ind(_));
        if matches!(sink, AnySink::Lane(_))
            && (ind(&a) || b.as_ref().is_some_and(ind) || tail.is_some_and(|t| ind(&t.1)))
        {
            return 0;
        }
        let Some(mut table) = self.row_table(sg) else {
            return 0;
        };
        let Some(hi) = table.rows_in_view(lo, hi) else {
            return 0;
        };
        let hi = hi.min(i64::MAX - 1);
        let row = RowRes {
            init: sg.init.as_ref().map(|v| self.row_val_res(sg, v)),
            fin: (sg.fin.as_ref()).map(|f| (f.op, f.acc_first, self.row_val_res(sg, &f.v))),
            lo: sg.lo,
            hi: sg.hi,
        };
        // The one decision of the strip, as `try_stream`'s: the two
        // shapes a benchmark row runs get the two-level kernel over their
        // own resolvers, anything else runs it over `OpndRes` /
        // `AnySink`.
        use {AnySink as K, OpndRes as O, StreamTail::*};
        macro_rules! run {
            ($shape:literal: $a:expr, $b:expr, $tail:expr, $sink:expr) => {{
                let m = self.seg_rows(sg, &mut table, &row, lo, hi, $a, $b, $tail, $sink);
                #[cfg(test)]
                {
                    self.probe.seg_shapes[$shape] += m as u64;
                }
                m
            }};
        }
        match (a, b, tail, sink) {
            // `lin = lin·val + val` in place: colscale. With the operand's
            // own resolver passed as the sink the kernel vectorizes: one
            // pointer needs no overlap test (which the same element read
            // and written fails).
            (O::Lin(a), Some(O::Val(b)), Some((PAddC, O::Val(c))), K::Lane(s)) if a.same(s) => {
                run!(1: a, Some(b), Some((PAddC, c)), a)
            }
            // Out of place: the benchmark's scale sweep, whose sweep loop
            // is the row loop.
            (O::Lin(a), Some(O::Val(b)), Some((PAddC, O::Val(c))), K::Lane(s)) => {
                run!(1: a, Some(b), Some((PAddC, c)), s)
            }
            // `elem = acc + lin·ind`: spmv
            (O::Lin(a), Some(O::Ind(b)), Some((CAddP, O::Acc(c))), K::Elem(s)) => {
                run!(2: a, Some(b), Some((CAddP, c)), s)
            }
            (a, b, tail, s) => run!(0: a, b, tail, s),
        }
    }

    /// `sg`'s row table resolved for this strip: the entries that do not
    /// depend on the row variable evaluated, the others as [`RowLoad`]s.
    /// `None` — no row runs in the kernel — when an entry that does not
    /// depend on the row fails, or one that does takes another form.
    fn row_table(&self, sg: &SegStream) -> Option<RowTable> {
        let invs = &sg.stream.invs;
        let none = RowLoad {
            at: 0,
            neg: false,
            off: 0,
            src: std::ptr::null(),
            view: std::ptr::null(),
            len: 0,
        };
        let mut t = RowTable {
            vals: [0; ROW_INVS],
            loads: [none; ROW_INVS],
            len: 0,
            rows: (i64::MIN, i64::MAX),
        };
        // Per entry: whether it depends on the row, and `c` when it is
        // `c + i`.
        let mut by_row = [false; ROW_INVS];
        let mut row_plus = [None; ROW_INVS];
        for (k, inv) in invs.iter().enumerate() {
            let dep = |term: InvTerm| match term {
                InvTerm::Reg(r) => r == sg.row,
                InvTerm::Load { at, .. } => by_row[usize::from(at)],
            };
            if !inv.terms.iter().any(|&(_, term)| dep(term)) {
                t.vals[k] = eval_inv(inv, &self.ir, &self.pins, &t.vals[..k])?;
                continue;
            }
            let mut e = RowLoad {
                at: k as u8,
                off: inv.off,
                ..none
            };
            let mut row_term = None;
            for &(neg, term) in inv.terms.iter() {
                if dep(term) {
                    if row_term.replace((neg, term)).is_some() {
                        return None;
                    }
                    continue;
                }
                let v = term_val(term, &self.ir, &self.pins, &t.vals[..k])?;
                e.off = if neg {
                    e.off.checked_sub(v)?
                } else {
                    e.off.checked_add(v)?
                };
            }
            let (neg, term) = row_term?;
            e.neg = neg;
            match term {
                InvTerm::Reg(_) => row_plus[k] = (!neg).then_some(e.off),
                InvTerm::Load { slot, at } => {
                    let c = row_plus[usize::from(at)]?;
                    let ptr = self.pinr(slot);
                    debug_assert!(ptr.is_int);
                    // `origin <= i + c < origin + dim0`, exactly.
                    let first = i128::from(ptr.origin) - i128::from(c);
                    let last = first + i128::from(ptr.dim0) - 1;
                    let clamp = |v: i128| v.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
                    t.rows = if first > last {
                        (0, -1)
                    } else {
                        (t.rows.0.max(clamp(first)), t.rows.1.min(clamp(last)))
                    };
                    e.src = ptr
                        .ip
                        .wrapping_offset((i128::from(c) - i128::from(ptr.origin)) as isize);
                    (e.view, e.len) = (ptr.ip, ptr.len);
                }
            }
            by_row[k] = true;
            t.loads[t.len] = e;
            t.len += 1;
        }
        Some(t)
    }

    /// A row's initial or final operand, resolved for this strip: a
    /// register other than the row variable's is fixed for the loop.
    fn row_val_res(&self, sg: &SegStream, v: &RowVal) -> RowValRes {
        match *v {
            RowVal::Inv(FOpnd::IReg(r)) if r == sg.row => RowValRes::Row,
            RowVal::Inv(o) => RowValRes::Val(self.frd(o)),
            RowVal::Elem { slot, at } => {
                let pin = self.pinr(slot);
                debug_assert!(!pin.is_int);
                RowValRes::Elem {
                    at,
                    data: pin.view(pin.fp),
                }
            }
        }
    }

    /// The resolver of a stream location over its pins' views.
    fn res_at(&self, at: &StreamAt) -> OpndRes {
        let pin = self.pinr(at.slot);
        debug_assert!(!pin.is_int);
        let data = pin.view(pin.fp);
        match at.idx_slot {
            None => OpndRes::Lin(LinRes {
                data,
                base: at.base,
            }),
            Some(idx_slot) => {
                let idx = self.pinr(idx_slot);
                debug_assert!(idx.is_int);
                OpndRes::Ind(IndRes {
                    idx: idx.view(idx.ip),
                    data,
                    base: at.base,
                })
            }
        }
    }

    /// [`FState::run_seg`]'s two-level kernel, one instantiation per
    /// operand shape: [`seg_row`] row after row, fuel held in a local,
    /// the per-row counters flushed once.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn seg_rows<A: Res, B: Res, C: Res, S: SegSink>(
        &mut self,
        sg: &SegStream,
        table: &mut RowTable,
        row: &RowRes,
        lo: i64,
        hi: i64,
        a: A,
        b: Option<B>,
        tail: Option<(StreamTail, C)>,
        sink: S,
    ) -> i64
    where
        A::L: Rd,
        B::L: Rd,
        C::L: Rd,
        S::L: Wr,
    {
        let mut fuel = self.fuel;
        let (mut r, mut iters, mut streamed, mut writes) = (lo, 0, 0, 0);
        let mut j_end = None;
        while r <= hi {
            let Some(done) = seg_row(self, table, row, r, fuel, a, b, tail, sink) else {
                break;
            };
            fuel -= done.cost;
            iters += done.n;
            streamed += u64::from(done.n > 0);
            writes += done.writes;
            j_end = Some(done.j);
            r += 1;
        }
        let Some(j) = j_end else { return 0 };
        let rows = (r - lo) as u64;
        self.irs(sg.var, j);
        let spent = self.fuel - fuel;
        (self.fuel, self.spent) = (fuel, self.spent + spent);
        let l = usize::from(sg.inner);
        self.linv[l] += rows;
        self.lcost[l] += 2 * iters;
        self.streamed += streamed;
        self.stream_iters += iters;
        match sg.stream.sink {
            StreamSink::At(StreamAt { slot, .. }) | StreamSink::Elem { slot, .. } => {
                self.pinw(slot).writes += writes;
            }
            StreamSink::Scalar(_) => {}
        }
        rows as i64
    }

    /// The payload offset of element `at` of the pin at `slot`, checked
    /// as the tree-walk checks it: an INDIRECT index array's subscript
    /// first, then the element's own against the pin's view (an affine
    /// `base + off` wraps). A flat index is `IndexN`'s, checked per
    /// dimension there. A miss is the slot and the subscript that
    /// missed — two words, so the hot path carries no `ChunkAbort`.
    ///
    /// Only `Elem` is laid out as the hot form: with all four hot the
    /// `match` becomes a jump table, an indirect jump per access on top
    /// of the instruction's own, which cost the per-op `rowgather` and
    /// `trisolve` kernels 6–11 % and 15–39 % (EXPERIMENTS.md, "One load,
    /// one store"). The LINEAR and INDIRECT accesses of a hot loop
    /// mostly run in its stream's kernel.
    #[inline(always)]
    fn addr(&self, slot: u16, at: &Addr) -> Result<usize, (u16, i64)> {
        let v = match *at {
            Addr::Elem(sub) => self.ird(sub),
            Addr::Aff { base, off } => {
                std::hint::cold_path();
                self.irg(base).wrapping_add(off)
            }
            Addr::Ind { idx_slot, sub } => {
                std::hint::cold_path();
                let (pin, sv) = (self.pinr(idx_slot), self.ird(sub));
                match pin.chk(sv) {
                    Some(j) => pin.rd_int(j),
                    None => return Err((idx_slot, sv)),
                }
            }
            Addr::Flat(idx) => {
                std::hint::cold_path();
                return Ok(self.irg(idx) as usize);
            }
        };
        self.pinr(slot).chk(v).ok_or((slot, v))
    }

    #[inline]
    fn ird(&self, o: IOpnd) -> i64 {
        match o {
            IOpnd::Reg(r) => self.irg(r),
            IOpnd::Const(c) => c,
            IOpnd::FReg(r) => self.frg(r) as i64,
        }
    }

    #[inline]
    fn frd(&self, o: FOpnd) -> f64 {
        match o {
            FOpnd::Reg(r) => self.frg(r),
            FOpnd::Const(c) => c,
            FOpnd::IReg(r) => self.irg(r) as f64,
        }
    }
}

impl<S> Run<'_, S> {
    /// Whether every array the typed body references holds a payload
    /// of its declared element type, the type the ops were lowered for
    /// (a preset may install either).
    pub(crate) fn fast_ready(&self, cb: &CompiledBody) -> bool {
        cb.arrays().iter().all(|&a| {
            matches!(
                (self.store.array(a), self.program().symbols.var(a).ty),
                (ArrayData::Int { .. }, ScalarType::Int)
                    | (ArrayData::Real { .. }, ScalarType::Real)
            )
        })
    }

    /// Whether segmented streams run: always, but for a unit test that
    /// holds them off to compare with the per-row path.
    #[inline(always)]
    fn segs_on(&self) -> bool {
        #[cfg(test)]
        return !self.probe.segs_off;
        #[cfg(not(test))]
        true
    }

    /// `chk` refused `index`: the program's own error, unless the bounds
    /// rule admits it — a window pin's miss, a strategy violation.
    #[cold]
    fn fast_oob(&self, cb: &CompiledBody, st: &FState, slot: u16, index: i64) -> ChunkAbort {
        let a = cb.arrays()[slot as usize];
        match self.column_major(a, &st.pins[slot as usize].dims[..1], [index]) {
            Ok(_) => ChunkAbort::Violated(a),
            Err(e) => ChunkAbort::Exec(e),
        }
    }

    /// [`FState::addr`], its miss named by [`Run::fast_oob`]: a
    /// strategy violation or the program's `OutOfBounds`.
    #[inline(always)]
    fn addr(
        &self,
        cb: &CompiledBody,
        st: &FState,
        slot: u16,
        at: &Addr,
    ) -> Result<usize, ChunkAbort> {
        match st.addr(slot, at) {
            Ok(k) => Ok(k),
            Err((slot, index)) => Err(self.fast_oob(cb, st, slot, index)),
        }
    }

    /// Executes root iterations `lo..=hi` of the typed loop: same
    /// observable semantics as walking them, with scalars promoted to
    /// registers and every array payload pinned for the whole call. The
    /// caller has checked [`Run::fast_ready`] and done the root
    /// loop's entry bookkeeping.
    ///
    /// Without a `worker` (a sequential entry) stored arrays are written
    /// in place. A worker's stored arrays write through the sinks it
    /// hands in, which it gets back filled on every exit (see
    /// [`WorkerChunk`]). Either way every scalar the nest can assign —
    /// the root induction variable, left one past the range, included —
    /// is written back to the store on every exit.
    pub(crate) fn run_fast_iters(
        &mut self,
        cb: &CompiledBody,
        lo: i64,
        hi: i64,
        step: i64,
        mut worker: Option<&mut WorkerChunk>,
    ) -> Result<(), ChunkAbort> {
        let mut st = FState {
            ir: vec![0; cb.int_registers()],
            fr: vec![0.0; cb.real_registers()],
            pins: Vec::with_capacity(cb.arrays().len()),
            fuel: self.fuel,
            linv: vec![0; cb.inner_loops().len()],
            lcost: vec![0; cb.inner_loops().len()],
            deadline: worker.as_deref().and_then(|w| w.deadline),
            ..FState::default()
        };
        for (k, (&a, &stored)) in cb.arrays().iter().zip(cb.stored()).enumerate() {
            let sink = match worker.as_deref_mut() {
                Some(w) => w.sinks[k].take(),
                None => stored.then_some(WriteSink::Direct),
            };
            debug_assert_eq!(sink.is_some(), stored);
            st.pins.push(match sink {
                // Unique ownership once per run — the copy a first
                // tree-walk write would have taken.
                Some(sink @ (WriteSink::Direct | WriteSink::Logged(_))) => {
                    let slice = self.store.payload_raw(a);
                    RawPin::owned(self.store.array(a), slice, sink)
                }
                sink => RawPin::shared(self.store.array(a), sink),
            });
        }
        for p in cb.scalars() {
            let v = self.store.scalar(p.var);
            if p.real {
                st.fr[p.reg as usize] = v.as_real();
            } else {
                st.ir[p.reg as usize] = v.as_int();
            }
        }
        st.streams = st.pins.iter().all(|p| p.sink.is_none() || p.raw);
        // Only an append sink can refuse a store.
        let append = |p: &RawPin| matches!(p.sink, Some(WriteSink::Append { .. }));
        st.watched = st.deadline.is_some() || st.pins.iter().any(append);
        let var = (cb.root_reg(), cb.root_real());
        let res = self.run_do(cb, 0, var, cb.root(), (lo, hi, step), &mut st);
        // A refused store stops the chunk however else it ended.
        let res = st.refused(cb).map_or(res, |a| Err(ChunkAbort::Violated(a)));
        // Flush on every exit — success or error — so observable
        // state is indistinguishable from per-access traffic.
        self.stats.total_cost += st.spent;
        self.stats.stream_entries += st.streamed;
        self.stats.stream_iters += st.stream_iters;
        #[cfg(test)]
        self.probe.add(&st.probe);
        self.fuel = st.fuel;
        for (k, (&a, p)) in cb.arrays().iter().zip(st.pins).enumerate() {
            if p.writes > 0 {
                self.store.bump_version_by(a, p.writes);
            }
            if let Some(w) = worker.as_deref_mut() {
                w.sinks[k] = p.sink;
            }
        }
        // Only what the nest can assign is written back: a scalar it
        // merely reads is unchanged. A worker hands these final values
        // back to its dispatch.
        for p in cb.scalars().iter().filter(|p| p.assigned) {
            let (ty, val) = if p.real {
                (ScalarType::Real, Value::Real(st.fr[p.reg as usize]))
            } else {
                (ScalarType::Int, Value::Int(st.ir[p.reg as usize]))
            };
            self.store.set_scalar(p.var, ty, val);
        }
        // Dense counters fold into the per-loop map once per entry;
        // untouched loops get no entry, exactly like the tree walk.
        for (k, &stmt) in cb.inner_loops().iter().enumerate() {
            if st.linv[k] > 0 {
                let e = self.stats.loops.entry(stmt).or_default();
                e.invocations += st.linv[k];
                e.total_cost += st.lcost[k];
            }
        }
        res
    }

    /// The one loop driver: runs `do var = lo, hi, step` (`step != 0`)
    /// over block `body`, for the loop in `slot` of `CompiledBody::
    /// loop_stmts` — the root (slot 0, the caller's range) and every
    /// nested `do` alike; `var` is the induction variable's register,
    /// in the `f64` plane when `real`. Each time round it polls the
    /// worker's checks, then runs a strip of rows through the segmented
    /// kernel or of iterations through the stream, when the loop has one
    /// and it takes them, else one iteration on the per-iteration ops. A
    /// strip that comes back short met a check that is about to fail:
    /// the per-iteration ops meet it. Leaves the induction variable at
    /// the first out-of-range value. The entry's count and cost are the
    /// loop op's, as for a `while` (the root's, the caller's).
    fn run_do(
        &self,
        cb: &CompiledBody,
        slot: usize,
        (var, real): (u16, bool),
        body: u16,
        (lo, hi, step): (i64, i64, i64),
        st: &mut FState,
    ) -> Result<(), ChunkAbort> {
        let set = |st: &mut FState, i: i64| {
            if real {
                st.frs(var, i as f64);
            } else {
                st.irs(var, i);
            }
        };
        // The lowering takes unit steps for both.
        let fwd = step == 1 && st.streams;
        let mut stream = cb.stream(slot).filter(|_| fwd);
        let seg = cb.seg(slot).filter(|_| fwd && self.segs_on());
        let mut i = lo;
        while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
            st.poll(cb)?;
            let strip_hi = hi.min(i.saturating_add(STRIP - 1));
            let m = match (seg, stream) {
                (Some(sg), _) => st.run_seg(sg, i, strip_hi),
                (None, Some(sd)) => {
                    let m = st.run_stream(sd, i, strip_hi, i == lo);
                    if i + m <= strip_hi {
                        stream = None;
                    }
                    m
                }
                (None, None) => 0,
            };
            #[cfg(test)]
            {
                st.probe.typed_root_iters += u64::from(slot == 0) * m.max(1) as u64;
            }
            if m > 0 {
                i += m;
                continue;
            }
            set(st, i);
            self.run_fblock(cb, body, st)?;
            st.charge(1)?; // loop bookkeeping
            if !advance_induction(&mut i, step) {
                break;
            }
        }
        set(st, i);
        Ok(())
    }

    fn run_fblock(&self, cb: &CompiledBody, b: u16, st: &mut FState) -> Result<(), ChunkAbort> {
        let ops = &cb.blocks()[b as usize];
        let mut pc = 0usize;
        // The dispatch loop starts on a 64-byte boundary (which also makes
        // the function's section 64-byte aligned). Without this its speed
        // is a property of whatever is linked in front of it: the same
        // machine code read 44 ms on `exec-reentry` with the function at
        // 0 mod 64 and 54 ms at 32 mod 64, in four binaries (PR 21).
        // SAFETY: an assembler directive only — it emits padding, reads
        // and writes no register, memory or flag.
        unsafe { core::arch::asm!(".p2align 6", options(nomem, nostack, preserves_flags)) };
        while pc < ops.len() {
            match &ops[pc] {
                FOp::Charge(n) => st.charge(*n)?,
                FOp::MovI { dst, src } => st.irs(*dst, st.ird(*src)),
                FOp::MovF { dst, src } => st.frs(*dst, st.frd(*src)),
                FOp::BinI { op, dst, a, b } => {
                    st.irs(*dst, bin_i(*op, st.ird(*a), st.ird(*b))?);
                }
                FOp::BinF { op, dst, a, b } => {
                    st.frs(*dst, bin_f(*op, st.frd(*a), st.frd(*b))?);
                }
                FOp::NegI { dst, src } => st.irs(*dst, st.ird(*src).wrapping_neg()),
                FOp::NegF { dst, src } => st.frs(*dst, -st.frd(*src)),
                FOp::CmpI { op, dst, a, b } => {
                    st.irs(*dst, cmp_res(*op, st.ird(*a).cmp(&st.ird(*b))) as i64);
                }
                FOp::CmpF { op, dst, a, b } => {
                    let ord = cmp_f(st.frd(*a), st.frd(*b));
                    st.irs(*dst, cmp_res(*op, ord) as i64);
                }
                FOp::TruthyI { dst, src } => st.irs(*dst, (st.ird(*src) != 0) as i64),
                FOp::TruthyF { dst, src } => st.irs(*dst, (st.frd(*src) != 0.0) as i64),
                FOp::Not { t } => {
                    st.irs(*t, (st.irg(*t) == 0) as i64);
                }
                FOp::MinMaxI { max, dst, a, b } => {
                    let (x, y) = (st.ird(*a), st.ird(*b));
                    st.irs(*dst, if *max { x.max(y) } else { x.min(y) });
                }
                FOp::MinMaxF { max, dst, a, b } => {
                    let (x, y) = (st.frd(*a), st.frd(*b));
                    st.frs(*dst, if *max { x.max(y) } else { x.min(y) });
                }
                FOp::AbsI { dst, src } => st.irs(*dst, st.ird(*src).wrapping_abs()),
                FOp::AbsF { dst, src } => st.frs(*dst, st.frd(*src).abs()),
                FOp::Real1 { f, dst, src } => {
                    let x = st.frd(*src);
                    let v = match f {
                        Intrinsic::Sqrt => x.sqrt(),
                        Intrinsic::Sin => x.sin(),
                        Intrinsic::Cos => x.cos(),
                        Intrinsic::Exp => x.exp(),
                        Intrinsic::Log => x.ln(),
                        _ => unreachable!("the lowering emits `Real1` for these five"),
                    };
                    st.frs(*dst, v);
                }
                FOp::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                FOp::JumpIfZero { src, target } => {
                    if st.irg(*src) == 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                FOp::JumpIfNonZero { src, target } => {
                    if st.irg(*src) != 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                FOp::IndexN { slot, subs, dst } => {
                    let (a, dims) = (cb.arrays()[*slot as usize], &st.pinr(*slot).dims);
                    let idx = self.column_major(a, dims, subs.iter().map(|s| st.ird(*s)))?;
                    st.irs(*dst, idx as i64);
                }
                FOp::LoadI { slot, at, dst } => {
                    let k = self.addr(cb, st, *slot, at)?;
                    st.irs(*dst, st.pinr(*slot).rd_i(k));
                }
                FOp::LoadF { slot, at, dst } => {
                    let k = self.addr(cb, st, *slot, at)?;
                    st.frs(*dst, st.pinr(*slot).rd_f(k));
                }
                FOp::StoreI { slot, at, src } => {
                    let k = self.addr(cb, st, *slot, at)?;
                    let v = st.ird(*src);
                    st.pinw(*slot).wr_i(k, v);
                }
                FOp::StoreF { slot, at, src } => {
                    let k = self.addr(cb, st, *slot, at)?;
                    let v = st.frd(*src);
                    st.pinw(*slot).wr_f(k, v);
                }
                FOp::AppendI { slot, ptr, src } => {
                    let cur = st.irg(*ptr);
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(cur) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, cur)),
                    }
                    // The fused increment's charge sits between the
                    // write and the pointer bump.
                    st.charge(1)?;
                    st.irs(*ptr, cur.wrapping_add(1));
                }
                FOp::AppendF { slot, ptr, src } => {
                    let cur = st.irg(*ptr);
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(cur) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, cur)),
                    }
                    st.charge(1)?;
                    st.irs(*ptr, cur.wrapping_add(1));
                }
                FOp::LeaI { dst, a, b, off } => {
                    let v = st.ird(*a).wrapping_add(st.ird(*b)).wrapping_add(*off);
                    st.irs(*dst, v);
                }
                FOp::MulAddF { dst, a, b, c } => {
                    // Two roundings, exactly as the unfused ops.
                    let v = st.frd(*a) + st.frd(*b) * st.frd(*c);
                    st.frs(*dst, v);
                }
                FOp::DoLoop {
                    var,
                    var_real,
                    lidx,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let range = (st.ird(*lo), st.ird(*hi), st.ird(*step));
                    if range.2 == 0 {
                        return Err(ExecError::DivisionByZero.into());
                    }
                    let l = usize::from(*lidx);
                    st.linv[l] += 1;
                    let spent_at_entry = st.spent;
                    self.run_do(cb, l + 1, (*var, *var_real), *body, range, st)?;
                    st.lcost[l] += st.spent - spent_at_entry;
                }
                FOp::WhileLoop {
                    lidx,
                    cond,
                    cond_temp,
                    body,
                } => {
                    let l = usize::from(*lidx);
                    st.linv[l] += 1;
                    let spent_at_entry = st.spent;
                    loop {
                        st.poll(cb)?;
                        self.run_fblock(cb, *cond, st)?;
                        if st.irg(*cond_temp) == 0 {
                            break;
                        }
                        st.charge(1)?;
                        self.run_fblock(cb, *body, st)?;
                    }
                    st.lcost[l] += st.spent - spent_at_entry;
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

/// The small-scope check of the segmented stream's row guard: every
/// tiny input against a brute-force definition of what a row may run.
#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::compiled::lower_do_loop;
    use irr_frontend::{parse_program, Program};

    /// The row loop `do i = 1, rows` over rows `j = jlo(i) .. jhi(i)` of
    /// `c(ptr(i) + j - 1)`: every index array has exactly `rows`
    /// elements, so a row outside `1 ..= rows` misses its loads.
    fn program(rows: usize) -> (Program, CompiledBody) {
        let p = parse_program(&format!(
            "program t
             integer i, j, ptr({rows}), jlo({rows}), jhi({rows})
             real c(16)
             do i = 1, {rows}
               do j = jlo(i), jhi(i)
                 c(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + 1.0
               enddo
             enddo
             end"
        ))
        .unwrap();
        let cb = lower_do_loop(&p, p.procedure(p.main()).body[0]).unwrap();
        (p, cb)
    }

    /// `run_seg` over one set of rows — each `(ptr, jlo, jhi)` — with
    /// the pins a typed run would take, but `c` pinned as a view of a
    /// 16-element buffer, the way an in-place window is.
    struct Harness {
        st: FState,
        c: usize,
        base: *mut f64,
        _kept: (Vec<f64>, [ArrayData; 3]),
    }

    impl Harness {
        fn new(p: &Program, cb: &CompiledBody, rows: &[(i64, i64, i64)]) -> Harness {
            let col = |f: fn(&(i64, i64, i64)) -> i64| {
                let data: Vec<i64> = rows.iter().map(f).collect();
                let dims = [data.len()].into();
                ArrayData::Int {
                    data: data.into(),
                    dims,
                }
            };
            let ints = [col(|r| r.0), col(|r| r.1), col(|r| r.2)];
            let meta = ArrayData::zeroed(ScalarType::Real, vec![16]);
            let mut buf = vec![0.0f64; 16];
            let base = buf.as_mut_ptr();
            let names: Vec<&str> = cb.arrays().iter().map(|&a| p.symbols.name(a)).collect();
            let pins = names.iter().map(|name| match *name {
                "c" => RawPin::owned(&meta, RawSlice::Real(base, 16), WriteSink::Direct),
                "ptr" => RawPin::shared(&ints[0], None),
                "jlo" => RawPin::shared(&ints[1], None),
                _ => RawPin::shared(&ints[2], None),
            });
            let st = FState {
                ir: vec![0; cb.int_registers()],
                fr: vec![0.0; cb.real_registers()],
                pins: pins.collect(),
                linv: vec![0; cb.inner_loops().len()],
                lcost: vec![0; cb.inner_loops().len()],
                streams: true,
                ..FState::default()
            };
            let c = names.iter().position(|n| *n == "c").unwrap();
            Harness {
                st,
                c,
                base,
                _kept: (buf, ints),
            }
        }

        /// How many rows of `lo ..= hi` the kernel runs with `c` the view
        /// of `dim0` elements from subscript `origin`.
        fn admitted(
            &mut self,
            sg: &SegStream,
            (lo, hi): (i64, i64),
            (origin, dim0): (usize, usize),
        ) -> i64 {
            assert!(origin >= 1 && origin - 1 + dim0 <= 16);
            let pin = &mut self.st.pins[self.c];
            pin.fp = self.base.wrapping_add(origin - 1);
            (pin.origin, pin.dim0, pin.len) = (origin as u64, dim0 as u64, dim0);
            self.st.fuel = 1 << 40;
            self.st.run_seg(sg, lo, hi)
        }
    }

    /// The brute-force definition: the rows from `lo` on whose loads are
    /// inside `1 ..= rows.len()`, whose subscript part `ptr - 1` fits an
    /// `i64` — an empty row's too — and whose every subscript `ptr + j -
    /// 1`, computed exactly, is inside the view — an empty row touching
    /// nothing — up to the first that is not. A row ending at
    /// `j = i64::MAX` is not run: advancing past it ends its loop.
    fn brute(
        rows: &[(i64, i64, i64)],
        (lo, hi): (i64, i64),
        (origin, dim0): (usize, usize),
    ) -> i64 {
        let inside = |s: i128| s >= origin as i128 && s < (origin + dim0) as i128;
        let mut m = 0;
        for r in lo..=hi {
            let Some(&(p, a, b)) = usize::try_from(r - 1).ok().and_then(|k| rows.get(k)) else {
                break;
            };
            let too_long = i128::from(b) - i128::from(a) >= dim0 as i128;
            if p.checked_sub(1).is_none() {
                break;
            }
            if a <= b
                && (b == i64::MAX
                    || too_long
                    || !(a..=b).all(|j| inside(i128::from(p) + i128::from(j) - 1)))
            {
                break;
            }
            m += 1;
        }
        m
    }

    /// Every row range `lo ..= hi` inside `1 ..= rows` and one past each
    /// edge, an empty one included.
    fn ranges(rows: usize) -> Vec<(i64, i64)> {
        let n = rows as i64;
        (0..=n + 1)
            .flat_map(|lo| (lo - 1..=n + 1).map(move |hi| (lo, hi)))
            .collect()
    }

    /// Views of 0 to 8 elements at two origins.
    fn views() -> impl Iterator<Item = (usize, usize)> {
        [1, 3]
            .into_iter()
            .flat_map(|o| (0..=8).map(move |d| (o, d)))
    }

    /// Every assignment of `row_of(v)` to `rows` rows, `v` ranging over `vals`.
    fn each_array(rows: usize, vals: &[(i64, i64, i64)], mut f: impl FnMut(&[(i64, i64, i64)])) {
        let mut at = vec![0; rows];
        loop {
            let arr: Vec<_> = at.iter().map(|&k| vals[k]).collect();
            f(&arr);
            let Some(k) = at.iter().position(|&k| k + 1 < vals.len()) else {
                return;
            };
            at[k] += 1;
            at[..k].iter_mut().for_each(|v| *v = 0);
        }
    }

    /// The row guard admits exactly the rows the brute-force definition
    /// does. Rows are `(ptr, len)` pairs over −1 … 6 (`j = 1 .. len`):
    /// every array of up to two rows over every row range and view of 0
    /// to 8 elements at two origins; of three rows (release builds; debug
    /// builds narrow the alphabet to −1 … 3) and of four over −1 … 3
    /// (release builds only), over two ranges from the edges. Then one
    /// row with `ptr`, `jlo` and `jhi` at the ends of `i64`, where a sum
    /// computed without its overflow check lands inside the view.
    #[test]
    fn the_row_guard_admits_exactly_the_rows_in_view() {
        let pairs = |vals: std::ops::RangeInclusive<i64>| -> Vec<(i64, i64, i64)> {
            vals.clone()
                .flat_map(|p| vals.clone().map(move |l| (p, 1, l)))
                .collect()
        };
        let (wide, narrow) = (pairs(-1..=6), pairs(-1..=3));
        let mut checked = 0u64;
        let mut sweep = |n: usize,
                         vals: &[(i64, i64, i64)],
                         ranges: &[(i64, i64)],
                         views: &[(usize, usize)]| {
            let (p, cb) = program(n);
            let sg = cb.seg(0).unwrap();
            each_array(n, vals, |rows| {
                let mut h = Harness::new(&p, &cb, rows);
                for &range in ranges {
                    for &view in views {
                        let got = h.admitted(sg, range, view);
                        assert_eq!(got, brute(rows, range, view), "{rows:?} {range:?} {view:?}");
                        checked += 1;
                    }
                }
            });
        };
        let all_views: Vec<_> = views().collect();
        let origin_1: Vec<_> = (0..=8).map(|d| (1, d)).collect();
        let edges = |n: i64| [(0, n + 1), (1, n)];
        for n in 1..=2 {
            sweep(n, &wide, &ranges(n), &all_views);
        }
        if cfg!(debug_assertions) {
            sweep(3, &narrow, &[(1, 3)], &origin_1);
        } else {
            sweep(3, &wide, &edges(3), &origin_1);
            sweep(4, &narrow, &edges(4), &origin_1);
        }
        let ends = [
            i64::MIN,
            i64::MIN + 1,
            i64::MIN + 4,
            -1,
            0,
            1,
            2,
            5,
            i64::MAX - 1,
            i64::MAX,
        ];
        let mut extremes = Vec::new();
        for p in ends {
            for a in ends {
                extremes.extend(ends.map(|b| (p, a, b)));
            }
        }
        sweep(1, &extremes, &[(1, 1)], &all_views);
        assert!(checked > 1_000_000 || cfg!(debug_assertions), "{checked}");
    }
}
