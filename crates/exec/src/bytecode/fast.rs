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
//!   can assign write back through [`Store::set_scalar`] on *every*
//!   exit — success or error — so the store is byte-identical to
//!   per-access traffic at every observable point.
//! - **Pre-pinned arrays, by role.** Every array is live from the
//!   program's first statement, so the typed run pins all payloads up
//!   front. An array the body
//!   only reads is pinned shared, with no copy; one it stores to is
//!   pinned with a [`WriteSink`] — a raw write in a sequential entry,
//!   and in a parallel worker the log column, the in-place window or
//!   the append buffer its dispatch's commit strategy built for it
//!   (see [`RawPin`]).
//!
//! [`Interp::run_fblock`] and the one [`stream_kernel`] are the only
//! places an instruction's semantics are written outside the
//! tree-walk. Parity is the contract: same fuel ledger positions, same
//! error identities, same store at exit.
//!
//! - **Streams are a fast-forward, not a second path.** Where the
//!   lowering recorded a [`Stream`] for an innermost loop,
//!   [`FState::run_stream`] runs the prefix of its iterations every
//!   one of whose checks is known to pass as one tight loop, and the
//!   unchanged per-iteration loop continues from there — so whatever
//!   fails, fails on the per-iteration ops, where the tree-walk fails.
//!   What a loop entry can decide, it decides once: each distinct
//!   invariant subscript part is evaluated once, each LINEAR range
//!   checked at both ends, and the kernel picked by the operands'
//!   kinds; per element there is the arithmetic and an INDIRECT
//!   subscript's bounds check.
//!
//! **The `unsafe` here leans on one invariant, established elsewhere.**
//! A `CompiledBody` can only come out of `lower_do_loop` (its fields
//! are private to `irr_driver::compiled`), which hands out every
//! register number below the plane size the body reports, every pin
//! slot below `arrays().len()`, and marks every slot an instruction
//! stores to in `stored()`. [`FState`]'s unchecked register and pin
//! accessors and [`RawPin`]'s write path rely on exactly that.

use super::{ChunkAbort, WorkerChunk};
use crate::interp::{advance_induction, ArrayData, ExecError, Interp, RawSlice, Value, WriteSink};
use irr_driver::compiled::{
    CompiledBody, FOp, FOpnd, IOpnd, Inv, InvTerm, Stream, StreamAt, StreamRef, StreamSink,
    StreamTail,
};
use irr_frontend::{BinOp, Intrinsic, ScalarType};
use std::cell::Cell;
use std::sync::Arc;

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
///   for the whole dispatch, and a pin exists only inside a chunk job:
///   `WorkerPool::dispatch` does not return, normally or by unwinding,
///   while a job runs or could still be claimed (the barrier in
///   `pool.rs`), so the dispatch — and the buffer — outlive every pin.
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
    /// A subscript inside the array missed the window (`fast_oob`; the
    /// op returns at once), or an append sink refused a store (the
    /// chunk stops at the iteration boundary).
    violated: Cell<bool>,
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
            violated: Cell::new(false),
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
    /// written — under the append rule ([`TypedBuf::append_at`]).
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
            self.violated.set(true);
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

    /// The elements at subscripts `first ..= first + n - 1` of the
    /// payload at `p` (`ip` or `fp`), when both ends — hence everything
    /// between — pass `chk`: the window of an in-place pin, not the
    /// array.
    fn lin<T>(&self, p: *mut T, first: i64, n: usize) -> Option<Lin<T>> {
        let last = first.checked_add(n as i64 - 1)?;
        let (k0, k1) = (self.chk(first)?, self.chk(last)?);
        debug_assert!(k1 - k0 == n - 1 && k1 < self.len);
        Some(Lin {
            p: p.wrapping_add(k0),
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

/// Root iterations a stream fast-forwards between two polls of a
/// worker's deadline.
const STRIP: i64 = 1024;

/// Where iteration `t` of one resolved [`StreamAt`] lives, `None` when
/// an INDIRECT subscript misses its pin's view.
trait Lane: Copy {
    fn at(self, t: usize) -> Option<*mut f64>;
}

/// LINEAR: iteration `t` is `p[t]`. Both ends of the subscript range
/// passed the pin's `chk` (`RawPin::lin`) and `len` counts what the pin
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
        // SAFETY: `idx.p[0..n]` passed `chk` at both ends (`lin`) and
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
        // SAFETY: as the reads; the sink's pin is `raw`
        // (`FState::try_stream`), so it owns its payload or the element
        // is in its window. Reads and writes of one payload go through
        // raw pointers in program order.
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

/// Per-entry run state: the typed register planes, pinned payloads,
/// and the local fuel/cost ledger flushed back on every exit.
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
    /// The values of the entered stream's `Stream::invs`, kept between
    /// entries for its allocation.
    invs: Vec<i64>,
    /// Entries per kernel instantiation, as `try_stream` numbers them
    /// (0 the catch-all).
    #[cfg(test)]
    shapes: [u64; 10],
    /// Every stored pin is a raw write, so a stream can have a sink:
    /// under a write-log or an append buffer no loop entry so much as
    /// looks its stream up. (`try_stream` still checks its own sink.)
    streams: bool,
}

impl FState {
    /// Mirrors `Interp::charge`: cost counts before the fuel check,
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

    /// Every entry of `invs` over the live registers and pins, in
    /// table order, into `self.invs`: each distinct subscript part of
    /// the statement once per loop entry. `None` when a sum leaves
    /// `i64` or a load misses its pin's view.
    fn eval_invs(&mut self, invs: &[Inv]) -> Option<()> {
        let (ir, pins, vals) = (&self.ir, &self.pins, &mut self.invs);
        vals.clear();
        for inv in invs {
            let mut sum = inv.off;
            for &(neg, term) in inv.terms.iter() {
                let v = match term {
                    InvTerm::Reg(r) => ir[usize::from(r)],
                    InvTerm::Load { slot, at } => {
                        let pin = &pins[usize::from(slot)];
                        pin.rd_i(pin.chk(vals[usize::from(at)])?)
                    }
                };
                sum = if neg {
                    sum.checked_sub(v)?
                } else {
                    sum.checked_add(v)?
                };
            }
            vals.push(sum);
        }
        Some(())
    }

    /// `at` resolved for iterations `lo .. lo + n`, over the parts
    /// `eval_invs` left in `self.invs`. Each reference checks its own
    /// range against its own pin, whatever part it shares with another.
    #[inline(always)]
    fn lane(&self, at: &StreamAt, lo: i64, n: usize) -> Option<Opnd> {
        let first = self.invs[usize::from(at.base)].checked_add(lo)?;
        let pin = self.pinr(at.slot);
        debug_assert!(!pin.is_int);
        Some(match at.idx_slot {
            None => Opnd::Lin(pin.lin(pin.fp, first, n)?),
            Some(idx_slot) => {
                let idx = self.pinr(idx_slot);
                debug_assert!(idx.is_int);
                Opnd::Ind(Ind {
                    idx: idx.lin(idx.ip, first, n)?,
                    data: pin.fp,
                    len: pin.len,
                    origin: pin.origin,
                    dim0: pin.dim0,
                })
            }
        })
    }

    /// One operand resolved, as [`FState::lane`].
    #[inline(always)]
    fn src(&self, r: &StreamRef, lo: i64, n: usize) -> Option<Opnd> {
        Some(match r {
            StreamRef::Inv(v) => Opnd::Val(Val(self.frd(*v))),
            StreamRef::At(at) => self.lane(at, lo, n)?,
            StreamRef::Acc => Opnd::Acc(Acc),
        })
    }

    /// Fast-forwards the loop `do j = lo, hi` whose body is `sd`:
    /// runs its first `m` iterations as one stream and returns `m`,
    /// having charged them (a statement and a bookkeeping unit each).
    /// Every check of those `m` iterations is known to pass — fuel
    /// for `2 m`, both ends of each LINEAR range inside its pin's
    /// view, each INDIRECT subscript as it is read — so the caller's
    /// per-iteration loop, continued at `lo + m`, meets whatever fails
    /// exactly where the tree-walk does. Declines (`0`) before
    /// resolving anything when the sink is not a raw write. `lo + m`
    /// fits an `i64`.
    fn run_stream(&mut self, sd: &Stream, lo: i64, hi: i64) -> i64 {
        if lo > hi {
            return 0;
        }
        let n = (hi.abs_diff(lo).saturating_add(1))
            .min(i64::MAX.abs_diff(lo))
            .min(self.fuel / 2);
        let Ok(n @ 1..) = usize::try_from(n) else {
            return 0;
        };
        let m = self.try_stream(sd, lo, n).unwrap_or(0) as u64;
        self.spent += 2 * m;
        self.fuel -= 2 * m;
        self.stream_iters += m;
        m as i64
    }

    /// [`FState::run_stream`] for one entry of a nested loop, counted.
    #[inline(never)]
    fn enter_stream(&mut self, sd: &Stream, lo: i64, hi: i64) -> i64 {
        let m = self.run_stream(sd, lo, hi);
        self.streamed += u64::from(m > 0);
        m
    }

    fn try_stream(&mut self, sd: &Stream, lo: i64, n: usize) -> Option<usize> {
        let stored = match sd.sink {
            StreamSink::At(StreamAt { slot, .. }) | StreamSink::Elem { slot, .. } => Some(slot),
            StreamSink::Scalar(_) => None,
        };
        if stored.is_some_and(|slot| !self.pinr(slot).raw) {
            return None;
        }
        self.eval_invs(&sd.invs)?;
        // A reduction runs in `acc`, from the register or the element
        // (at `k` of its pin's view) it is stored to once, after.
        let (sink, mut acc, k) = match &sd.sink {
            StreamSink::At(at) => (self.lane(at, lo, n)?, 0.0, 0),
            StreamSink::Scalar(r) => (Opnd::Acc(Acc), self.frg(*r), 0),
            StreamSink::Elem { slot, at } => {
                let pin = self.pinr(*slot);
                let k = pin.chk(self.invs[usize::from(*at)])?;
                (Opnd::Acc(Acc), pin.rd_f(k), k)
            }
        };
        let a = self.src(&sd.a, lo, n)?;
        let b = match &sd.b {
            Some(b) => Some(self.src(b, lo, n)?),
            None => None,
        };
        let tail = match &sd.tail {
            Some((op, c)) => Some((*op, self.src(c, lo, n)?)),
            None => None,
        };
        // The one decision of the entry: the nine shapes the corpus and
        // the benchmark rows take (EXPERIMENTS.md has the histogram),
        // most frequent first, each get the kernel over their own
        // operand types; anything else runs it over `Opnd`s, which
        // decide per element.
        use {Opnd as O, StreamTail::*};
        const NO_B: Option<Val> = None;
        const NO_TAIL: Option<(StreamTail, Val)> = None;
        macro_rules! run {
            ($shape:literal: $a:expr, $b:expr, $tail:expr, $sink:expr) => {{
                #[cfg(test)]
                {
                    self.shapes[$shape] += 1;
                }
                stream_kernel(n, $a, $b, $tail, $sink, &mut acc)
            }};
        }
        let m = match (a, b, tail, sink) {
            // `acc = acc + val`
            (O::Val(a), None, Some((CAddP, O::Acc(c))), O::Acc(s)) => {
                run!(1: a, NO_B, Some((CAddP, c)), s)
            }
            // `lin = lin·val + val`: scale, colscale
            (O::Lin(a), Some(O::Val(b)), Some((PAddC, O::Val(c))), O::Lin(s)) => {
                run!(2: a, Some(b), Some((PAddC, c)), s)
            }
            // `ind = lin·val`: permute
            (O::Lin(a), Some(O::Val(b)), None, O::Ind(s)) => run!(3: a, Some(b), NO_TAIL, s),
            // `acc = acc + lin`
            (O::Lin(a), None, Some((CAddP, O::Acc(c))), O::Acc(s)) => {
                run!(4: a, NO_B, Some((CAddP, c)), s)
            }
            // `lin = lin·val + lin`: lufront
            (O::Lin(a), Some(O::Val(b)), Some((PAddC, O::Lin(c))), O::Lin(s)) => {
                run!(5: a, Some(b), Some((PAddC, c)), s)
            }
            // `lin = lin + lin·val`
            (O::Lin(a), Some(O::Val(b)), Some((CAddP, O::Lin(c))), O::Lin(s)) => {
                run!(6: a, Some(b), Some((CAddP, c)), s)
            }
            // `acc = acc + lin·ind`: spmv
            (O::Lin(a), Some(O::Ind(b)), Some((CAddP, O::Acc(c))), O::Acc(s)) => {
                run!(7: a, Some(b), Some((CAddP, c)), s)
            }
            // `acc = acc − lin·ind`: jacobi
            (O::Lin(a), Some(O::Ind(b)), Some((CSubP, O::Acc(c))), O::Acc(s)) => {
                run!(8: a, Some(b), Some((CSubP, c)), s)
            }
            // `lin = lin + lin`
            (O::Lin(a), None, Some((PAddC, O::Lin(c))), O::Lin(s)) => {
                run!(9: a, NO_B, Some((PAddC, c)), s)
            }
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

#[inline]
fn bin_i(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div | BinOp::Mod => return div_mod_i(op, x, y),
        _ => unreachable!("handled in lowering"),
    })
}

/// Euclidean `/` and `mod`, wrapping at `i64::MIN / -1` like `+ - *`.
/// Out of line: a division dwarfs the call, and inlined into the
/// dispatch loop the wrapping forms cost every op of it (+5 % on
/// `exec-reentry`, EXPERIMENTS.md "What the per-op loop was still
/// running").
#[inline(never)]
fn div_mod_i(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    match op {
        _ if y == 0 => Err(ExecError::DivisionByZero),
        BinOp::Div => Ok(x.wrapping_div_euclid(y)),
        _ => Ok(x.wrapping_rem_euclid(y)),
    }
}

#[inline]
fn bin_f(op: BinOp, x: f64, y: f64) -> Result<f64, ExecError> {
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
        _ => unreachable!("handled in lowering"),
    })
}

#[inline]
fn cmp_res(op: BinOp, ord: std::cmp::Ordering) -> i64 {
    use std::cmp::Ordering;
    (match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("comparison"),
    }) as i64
}

impl<'p> Interp<'p> {
    /// Whether every array the typed body references holds a payload
    /// of its declared element type, the type the ops were lowered for
    /// (a preset may install either).
    pub(crate) fn fast_ready(&self, cb: &CompiledBody) -> bool {
        cb.arrays().iter().all(|&a| {
            matches!(
                (self.store.array(a), self.layout.ty(a)),
                (ArrayData::Int { .. }, ScalarType::Int)
                    | (ArrayData::Real { .. }, ScalarType::Real)
            )
        })
    }

    /// `chk` refused `index`: the program's own error, unless the
    /// subscript is inside the array — a window pin's miss, which marks
    /// the pin; the error then only ends the op.
    #[cold]
    fn fast_oob(&self, cb: &CompiledBody, st: &FState, slot: u16, index: i64) -> ExecError {
        let pin = &st.pins[slot as usize];
        if (index as u64).wrapping_sub(1) < pin.dims[0] as u64 {
            pin.violated.set(true);
        }
        self.fast_oob_dim(cb, slot, index, pin.dims[0])
    }

    /// Executes root iterations `lo..=hi` of the typed loop: same
    /// observable semantics as walking them, with scalars promoted to
    /// registers and every array payload pinned for the whole call. The
    /// caller has checked [`Interp::fast_ready`] and done the root
    /// loop's entry bookkeeping.
    ///
    /// Without a `worker` (a sequential entry) stored arrays are written
    /// in place and the root induction variable is left one past the
    /// range. A worker's stored arrays write through the sinks it hands
    /// in, which it gets back filled on every exit (see
    /// [`WorkerChunk`]). Either way every scalar the nest can assign is
    /// written back to the store on every exit.
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
            spent: 0,
            linv: vec![0; cb.inner_loops().len()],
            lcost: vec![0; cb.inner_loops().len()],
            streamed: 0,
            stream_iters: 0,
            invs: Vec::new(),
            #[cfg(test)]
            shapes: [0; 10],
            streams: false,
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
        // Only an append sink can refuse a store, so only a chunk that
        // has one checks for violations per iteration.
        let append_sinks = st
            .pins
            .iter()
            .any(|p| matches!(p.sink, Some(WriteSink::Append { .. })));
        let violated = |st: &FState| st.pins.iter().position(|p| p.violated.get());
        let set_root = |st: &mut FState, i: i64| {
            if cb.root_real() {
                st.fr[cb.root_reg() as usize] = i as f64;
            } else {
                st.ir[cb.root_reg() as usize] = i;
            }
        };
        let mut stream = cb.root_stream().filter(|_| step == 1 && st.streams);
        let mut i = lo;
        let res = loop {
            if !((step > 0 && i <= hi) || (step < 0 && i >= hi)) {
                break Ok(());
            }
            if let Some(Err(e)) = worker.as_deref().map(WorkerChunk::poll) {
                break Err(e);
            }
            if let Some(sd) = stream {
                // A strip that comes back short met a check that is
                // about to fail: on the per-iteration ops, from here.
                let strip_hi = hi.min(i.saturating_add(STRIP - 1));
                let m = st.run_stream(sd, i, strip_hi);
                i += m;
                if i <= strip_hi {
                    stream = None;
                }
                if m > 0 {
                    #[cfg(test)]
                    {
                        self.typed_root_iters += m as u64;
                    }
                    st.streamed = 1;
                    set_root(&mut st, i - 1);
                    continue;
                }
            }
            #[cfg(test)]
            {
                self.typed_root_iters += 1;
            }
            set_root(&mut st, i);
            if let Err(e) = self.run_fblock(cb, cb.root(), &mut st) {
                // A window miss ends its op with a placeholder error.
                break Err(violated(&st).map_or(e.into(), |k| ChunkAbort::Violated(cb.arrays()[k])));
            }
            if let Err(e) = st.charge(1) {
                break Err(e.into()); // loop bookkeeping
            }
            if let Some(k) = append_sinks.then(|| violated(&st)).flatten() {
                break Err(ChunkAbort::Violated(cb.arrays()[k]));
            }
            if !advance_induction(&mut i, step) {
                break Ok(());
            }
        };
        if res.is_ok() && worker.is_none() {
            // Fortran leaves the induction variable at the first
            // out-of-range value.
            set_root(&mut st, i);
        }
        // Flush on every exit — success or error — so observable
        // state is indistinguishable from per-access traffic.
        self.stats.total_cost += st.spent;
        self.stats.stream_entries += st.streamed;
        self.stats.stream_iters += st.stream_iters;
        #[cfg(test)]
        for (total, n) in self.stream_shapes.iter_mut().zip(st.shapes) {
            *total += n;
        }
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

    fn run_fblock(&self, cb: &CompiledBody, b: u16, st: &mut FState) -> Result<(), ExecError> {
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
                    st.irs(*dst, cmp_res(*op, st.ird(*a).cmp(&st.ird(*b))));
                }
                FOp::CmpF { op, dst, a, b } => {
                    let ord = st
                        .frd(*a)
                        .partial_cmp(&st.frd(*b))
                        .unwrap_or(std::cmp::Ordering::Equal);
                    st.irs(*dst, cmp_res(*op, ord));
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
                    let p = st.pinr(*slot);
                    let mut idx: usize = 0;
                    let mut stride: usize = 1;
                    for (k, sub) in subs.iter().enumerate() {
                        let v = st.ird(*sub);
                        let extent = p.dims[k];
                        if v < 1 || v as usize > extent {
                            return Err(self.fast_oob_dim(cb, *slot, v, extent));
                        }
                        idx += (v as usize - 1) * stride;
                        stride *= extent;
                    }
                    st.irs(*dst, idx as i64);
                }
                FOp::LoadAtI { slot, idx, dst } => {
                    let k = st.irg(*idx) as usize;
                    st.irs(*dst, st.pinr(*slot).rd_i(k));
                }
                FOp::LoadAtF { slot, idx, dst } => {
                    let k = st.irg(*idx) as usize;
                    st.frs(*dst, st.pinr(*slot).rd_f(k));
                }
                FOp::StoreAtI { slot, idx, src } => {
                    let k = st.irg(*idx) as usize;
                    let v = st.ird(*src);
                    st.pinw(*slot).wr_i(k, v);
                }
                FOp::StoreAtF { slot, idx, src } => {
                    let k = st.irg(*idx) as usize;
                    let v = st.frd(*src);
                    st.pinw(*slot).wr_f(k, v);
                }
                FOp::LoadElemI { slot, sub, dst } => {
                    let v = st.ird(*sub);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.irs(*dst, st.pinr(*slot).rd_i(k)),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::LoadElemF { slot, sub, dst } => {
                    let v = st.ird(*sub);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.frs(*dst, st.pinr(*slot).rd_f(k)),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::StoreElemI { slot, sub, src } => {
                    let v = st.ird(*sub);
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::StoreElemF { slot, sub, src } => {
                    let v = st.ird(*sub);
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::LoadAffI {
                    slot,
                    base,
                    off,
                    dst,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.irs(*dst, st.pinr(*slot).rd_i(k)),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::LoadAffF {
                    slot,
                    base,
                    off,
                    dst,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.frs(*dst, st.pinr(*slot).rd_f(k)),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::StoreAffI {
                    slot,
                    base,
                    off,
                    src,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::StoreAffF {
                    slot,
                    base,
                    off,
                    src,
                } => {
                    let v = st.irg(*base).wrapping_add(*off);
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::GatherI {
                    slot,
                    idx_slot,
                    sub,
                    dst,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(cb, st, *idx_slot, sv)),
                    };
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.irs(*dst, st.pinr(*slot).rd_i(k)),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::GatherF {
                    slot,
                    idx_slot,
                    sub,
                    dst,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(cb, st, *idx_slot, sv)),
                    };
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.frs(*dst, st.pinr(*slot).rd_f(k)),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::ScatterI {
                    slot,
                    idx_slot,
                    sub,
                    src,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(cb, st, *idx_slot, sv)),
                    };
                    let val = st.ird(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_i(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
                }
                FOp::ScatterF {
                    slot,
                    idx_slot,
                    sub,
                    src,
                } => {
                    let sv = st.ird(*sub);
                    let ip = st.pinr(*idx_slot);
                    let v = match ip.chk(sv) {
                        Some(j) => ip.rd_int(j),
                        None => return Err(self.fast_oob(cb, st, *idx_slot, sv)),
                    };
                    let val = st.frd(*src);
                    match st.pinr(*slot).chk(v) {
                        Some(k) => st.pinw(*slot).wr_f(k, val),
                        None => return Err(self.fast_oob(cb, st, *slot, v)),
                    }
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
                    let lo = st.ird(*lo);
                    let hi = st.ird(*hi);
                    let stp = st.ird(*step);
                    if stp == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    st.linv[*lidx as usize] += 1;
                    let spent_at_entry = st.spent;
                    let mut i = lo;
                    if let Some(sd) = st.streams.then(|| cb.stream(*lidx)).flatten() {
                        debug_assert_eq!(stp, 1, "the lowering takes unit steps");
                        i += st.enter_stream(sd, lo, hi);
                    }
                    while (stp > 0 && i <= hi) || (stp < 0 && i >= hi) {
                        if *var_real {
                            st.frs(*var, i as f64);
                        } else {
                            st.irs(*var, i);
                        }
                        self.run_fblock(cb, *body, st)?;
                        st.charge(1)?; // loop bookkeeping
                        if !advance_induction(&mut i, stp) {
                            break;
                        }
                    }
                    if *var_real {
                        st.frs(*var, i as f64);
                    } else {
                        st.irs(*var, i);
                    }
                    st.lcost[*lidx as usize] += st.spent - spent_at_entry;
                }
                FOp::WhileLoop {
                    lidx,
                    cond,
                    cond_temp,
                    body,
                } => {
                    st.linv[*lidx as usize] += 1;
                    let spent_at_entry = st.spent;
                    loop {
                        self.run_fblock(cb, *cond, st)?;
                        if st.irg(*cond_temp) == 0 {
                            break;
                        }
                        st.charge(1)?;
                        self.run_fblock(cb, *body, st)?;
                    }
                    st.lcost[*lidx as usize] += st.spent - spent_at_entry;
                }
            }
            pc += 1;
        }
        Ok(())
    }

    #[cold]
    fn fast_oob_dim(&self, cb: &CompiledBody, slot: u16, index: i64, extent: usize) -> ExecError {
        ExecError::OutOfBounds {
            array: self
                .program()
                .symbols
                .name(cb.arrays()[slot as usize])
                .to_string(),
            index,
            extent,
        }
    }
}
