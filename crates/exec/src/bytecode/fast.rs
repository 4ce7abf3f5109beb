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
//!   included) load into registers at loop entry. A sequential entry
//!   writes the ones the nest can assign back through
//!   [`Store::set_scalar`] on *every* exit — success or error — so the
//!   store is byte-identical to per-access traffic at every observable
//!   point; a parallel chunk leaves them in its registers, for the
//!   commit to read the ones it claims.
//! - **Pre-pinned arrays, by role.** Every array is live from the
//!   program's first statement, so the typed run pins all payloads up
//!   front, from a store it only reads ([`FState::run`]). An array the
//!   body only reads is pinned shared, with no copy; one it stores to
//!   is pinned with a [`WriteSink`] — the master's payload in a
//!   sequential entry, and in a parallel chunk the in-place window, the
//!   append buffer or the own copy (logged or privatized) its
//!   dispatch's commit strategy built for it (see [`RawPin`]).
//!
//! [`Typed::run_fblock`] and the one [`stream_kernel`] (with the row
//! statements of [`seg_row`] around it) are the only places an
//! instruction's semantics are written outside the tree-walk, and they
//! compute through the tree-walk's own rules: its operator table
//! (`bin_i`, `bin_f`, `cmp_res`), its bounds rule ([`column_major`]) and
//! its induction step. Parity is the contract: same fuel ledger
//! positions, same error identities, same store at exit. Every check
//! returns the dispatcher's [`Abort`]: the program's `ExecError`, a
//! worker's `Timeout`, or a `Strategy` fallback on the array a window or
//! an append sink refused.
//!
//! - **One load, one store per plane; the address is an operand.** An
//!   element access names its pin slot and an [`Addr`], and
//!   [`FState::addr`] alone turns every form into a checked payload
//!   offset, in the tree-walk's order: an INDIRECT index array's
//!   subscript first, an affine `base + off` wrapping, a flat index as
//!   `IndexN` checked it. A miss inside the array but outside a window
//!   pin's view is a `Strategy` fallback, any other the program's
//!   `OutOfBounds` ([`Typed::addr`]).
//! - **One loop driver, at every depth.** [`Typed::run_do`] is the only
//!   function here that advances a `do` loop's induction variable, the
//!   root's (loop slot 0, the caller's range) and every nested
//!   [`FOp::DoLoop`]'s (slot `lidx + 1`). Each time round it polls a
//!   worker's deadline and append sinks ([`FState::poll`], also between
//!   the iterations of a `while`), then runs a strip of up to [`STRIP`]
//!   rows or iterations through the slot's segmented stream or stream,
//!   when it has one, else one iteration on the per-iteration ops.
//! - **Streams are a fast-forward, not a second path.** Where the
//!   lowering recorded a [`Stream`] for an innermost loop,
//!   [`FState::run_stream`] runs the prefix of a strip every one of
//!   whose checks is known to pass as one tight loop, and the
//!   per-iteration loop continues from there — so whatever fails, fails
//!   on the per-iteration ops, where the tree-walk fails. A strip
//!   evaluates each distinct invariant subscript part once, checks each
//!   LINEAR range at both ends and picks the kernel by the operands'
//!   kinds; per element there is the arithmetic and an INDIRECT
//!   subscript's bounds check.
//! - **The lowering decides a table; the executor evaluates it.** A
//!   stream's table holds at most [`ROW_INVS`] entries, and each entry of
//!   a segmented stream's row table has the [`RowForm`] the lowering
//!   proved: not row-dependent, `c ± i`, or a load at a `c + i` entry.
//!   One evaluator ([`FState::table`]) serves a plain stream's strip and
//!   a segmented stream's rows ([`RowTable::new`] adds the row entries);
//!   nothing about a table's shape is worked out again at run time.
//! - **A sparse nest is one kernel, each row atomic.** Where the
//!   lowering recorded a [`SegStream`] for a row loop (`[init;] do j
//!   …; [fin]` over an offset–length nest), [`FState::run_seg`] runs a
//!   strip of its rows in order through one two-level kernel and returns
//!   the prefix it ran. A row enters only when every check it needs
//!   passes — its row table evaluates, every load in its view, fuel
//!   covers the whole row, both ends of each LINEAR range are in their
//!   pin's view — and an INDIRECT miss abandons a reduction row that has
//!   stored nothing (its initialization is deferred to its one final
//!   store). The row it stops before runs whole on the per-row path,
//!   which fails exactly where the tree-walk does; per row that ran,
//!   fuel, cost, the inner loop's entries and cost and the stream counts
//!   are charged in closed form, as that path would.
//! - **One kernel driver for both.** A stream's strip and a segmented
//!   stream's strip resolve their statement the same way
//!   ([`FState::resolve`]: operands and sink over the pins' views), set
//!   up and store a reduction through the same [`Sink`] methods, and
//!   enter one instantiation table ([`FState::instantiate`]) with what
//!   they run (a [`Job`]: the strip's iterations, or its rows). Only the
//!   shapes benchmark rows run get their own instantiation — `colscale`
//!   in place, `scale` out of place, `permute`'s scatter and SpMV's
//!   reduction; every other shape runs the catch-all, which decides
//!   operand kinds per element.
//! - **The consecutively written array is a kernel too.** Where the
//!   lowering recorded a [`Filter`] for an innermost loop — `if (x cmp
//!   inv)` around an append through a pointer, the paper's §2.2 array
//!   and `rowgather` — [`FState::run_filter`] fast-forwards a strip under
//!   the same prefix rule: the table and each LINEAR range at both ends
//!   once, then per iteration the test (an INDIRECT subscript checked as
//!   read) and, where it holds, the target's room before the append and
//!   the fuel an appending iteration takes; fuel, cost, the pointer and
//!   the stores follow in closed form from the iterations and appends
//!   run. Its own table ([`FState::instantiate_filter`]) gives
//!   `rowgather`'s shape its own types — one range test, eight elements
//!   at a time while none holds — and the rest a catch-all. It also runs
//!   in a concat chunk, whose target is an append sink: there each
//!   append goes through the sink's append rule, as a per-iteration
//!   store's does.
//!
//! **The `unsafe` here leans on one invariant, established elsewhere.**
//! A `CompiledBody` can only come out of `lower_do_loop` (its fields
//! are private to `irr_driver::compiled`), which hands out every
//! register number below the plane size the body reports, every pin
//! slot below `arrays().len()`, and marks every slot an instruction
//! stores to in `stored()`. [`FState`]'s unchecked register and pin
//! accessors and [`RawPin`]'s write path rely on exactly that.

use crate::dispatch::{Abort, FallbackReason};
#[cfg(test)]
use crate::interp::Probe;
use crate::interp::{
    advance_induction, bin_f, bin_i, cmp_f, cmp_res, column_major, ArrayData, ExecError, ExecStats,
    Interp, RawSlice, Store, Value, WriteSink,
};
use irr_driver::compiled::{
    Addr, CompiledBody, FOp, FOpnd, Filter, FilterVal, IOpnd, Inv, InvTerm, PlaneOpnd, Promoted,
    RowForm, RowVal, SegStream, Stream, StreamAt, StreamRef, StreamSink, StreamTail, ROW_INVS,
};
use irr_frontend::{BinOp, Intrinsic, Program, ScalarType, VarId};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// When a chunk started and how long it may run; `None` unwatched.
pub(crate) type Deadline = Option<(Instant, Duration)>;

/// Raw view of one array pinned for the duration of a typed run: its
/// payload addressed directly, and — when the body stores to it — the
/// [`WriteSink`] those stores go through. Stores that land in a payload
/// are counted locally and reach the version counter at a sequential
/// entry's flush, so the version arithmetic is identical to per-write
/// bumps without paying them per element.
///
/// # Safety
///
/// `ip`/`fp` stay valid for as long as a pin lives, and every access
/// through them is race-free, because:
///
/// - *The payload cannot move or be freed.* Every array is allocated
///   before the program's first statement (no store slot is filled
///   mid-run), element writes never resize an array, and compiled
///   bodies contain no calls, prints, or dispatcher re-entry — nothing
///   writes the store a typed run pins while it runs: a sequential
///   entry holds the master exclusively, and a dispatch only reads it
///   until every chunk has finished. A pin exists only inside one typed
///   run (below), and `WorkerPool::dispatch` does not return,
///   normally or by unwinding, while its closure runs for any chunk or
///   could still be called for one (the barrier in `pool.rs`), so the
///   master's payloads outlive every pin.
/// - *A slot the body only reads (`sink: None`), and an `Append` slot,
///   is pinned shared*, with no copy. Its pointer came from a shared
///   reference and is never written: an `Append` pin's stores go to its
///   buffer, `wr` on a read-only pin panics before touching memory, and
///   the lowering marks every slot an instruction stores to
///   (`CompiledBody::stored`), so that panic is unreachable. Nothing
///   writes the payload under the reader either: the master is only
///   read while chunks run, and a payload is written only through a
///   `Direct` or `Window` pin of its own — in-place targets, below.
/// - *A `Direct` pin is a sequential entry's*: the pointer comes from
///   `Store::payload_raw` on the master, which the entry holds
///   exclusively (exactly the copy a first tree-walk write would take,
///   so a run never writes the buffer of a preset its caller still
///   holds).
/// - *`Private` and `Logged` pins own their payload*: the chunk's own
///   copy of the master's array, taken as it pins it, held by the sink
///   the pin carries (moving the sink moves no element).
/// - *A `Window` pin is a narrowed view of the master's buffer*: the
///   `RawSlice` `prepare_in_place` took after forcing uniqueness,
///   rebased so that `origin`, `dim0`/`len` and `ip`/`fp` describe the
///   chunk's window alone. `chk`, which every load and store already
///   passes, thus admits exactly the window, and the dispatch gives the
///   chunks of a target disjoint windows (a scatter target: the whole
///   array, stored to through a certified-injective index section and,
///   by the executor's derivation, never loaded) — no pin touches what
///   another chunk writes. Targets are 1-D: no `IndexN` reaches one.
/// - *Pins never outlive one typed run*: a chunk's [`FState::run`], or
///   a sequential entry's [`Interp::run_typed`]. They live in the
///   `FState` it runs in, which may be kept for the next call, but the
///   run drains them before it returns — handing a chunk's sinks back,
///   or flushing a sequential entry's writes (a call that unwinds
///   leaves them to the next [`FState::enter`], which drops them
///   unread).
///
/// Every index reaching `rd_*`/`wr_*` has passed `chk` against the view
/// cached here (or `IndexN`'s per-dimension check against the array's
/// extents, which only a whole-array pin meets), and
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
    /// Stores landed through `ip`/`fp`.
    writes: u64,
    /// `None` for a slot the body only reads.
    sink: Option<WriteSink>,
    /// A store is a raw write: `sink` is `Direct`, `Private` or
    /// `Window`.
    raw: bool,
    /// An append sink refused a store: the chunk stops at the next
    /// iteration boundary of any loop ([`FState::poll`]).
    refused: Cell<bool>,
}

// SAFETY: a pin is made, dereferenced and drained inside one typed
// run, on the thread that makes it. Its `FState` may
// move to another thread between runs — a chunk's slot is run by
// whichever thread claims it — but then holds no pin, or, after a run
// that unwound, pins the next `FState::enter` drops unread.
unsafe impl Send for RawPin {}

impl RawPin {
    /// Pins `data` for stores through `sink`: its own payload read
    /// shared, the master's payload a `Direct` sink carries, the copy a
    /// `Private` or `Logged` sink takes of it here, or the master's
    /// buffer narrowed to a `Window`.
    fn new(data: &ArrayData, mut sink: Option<WriteSink>) -> RawPin {
        let (ArrayData::Int { dims, .. } | ArrayData::Real { dims, .. }) = data;
        let (mut origin, mut dim0, mut len) = (1, dims[0] as u64, data.len());
        let slice = match &mut sink {
            Some(WriteSink::Direct(slice)) => *slice,
            Some(WriteSink::Private(copy) | WriteSink::Logged { copy, .. }) => {
                copy.copy_from(data, 0..len);
                copy.raw()
            }
            Some(WriteSink::Window(w)) => {
                debug_assert!(w.lo + w.len <= w.slice.len());
                (origin, dim0, len) = (w.lo as u64 + 1, w.len as u64, w.len);
                match w.slice {
                    RawSlice::Int(p, n) => RawSlice::Int(p.wrapping_add(w.lo), n),
                    RawSlice::Real(p, n) => RawSlice::Real(p.wrapping_add(w.lo), n),
                }
            }
            None | Some(WriteSink::Append { .. }) => match data {
                ArrayData::Int { data, .. } => RawSlice::Int(data.as_ptr().cast_mut(), len),
                ArrayData::Real { data, .. } => RawSlice::Real(data.as_ptr().cast_mut(), len),
            },
        };
        let (ip, fp) = match slice {
            RawSlice::Int(p, _) => (p, std::ptr::null_mut()),
            RawSlice::Real(p, _) => (std::ptr::null_mut(), p),
        };
        let raw = matches!(
            sink,
            Some(WriteSink::Direct(_) | WriteSink::Private(_) | WriteSink::Window(_))
        );
        RawPin {
            ip,
            fp,
            is_int: matches!(data, ArrayData::Int { .. }),
            len,
            origin,
            dim0,
            writes: 0,
            sink,
            raw,
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
        if let Some(WriteSink::Logged { idx, vals, .. }) = &mut self.sink {
            idx.push(k);
            vals.push(v);
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
            // payload (a copy, or `payload_raw`) or `k` is in its window.
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

/// The offset in `pin`'s view of subscript `first`, when `first ..=
/// first + n - 1`, `n >= 1`, is inside the view at both ends ([`View::
/// lin`] for a pin of either plane).
fn lin_at(pin: &RawPin, first: i64, n: usize) -> Option<usize> {
    pin.chk(first.checked_add(n as i64 - 1)?)?;
    pin.chk(first)
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
/// a copy of the data pin's view, and every subscript read from `idx`
/// passes the view's check (`in_view`, `dim0 <= len`) before it is used.
#[derive(Clone, Copy)]
struct Ind {
    idx: Lin<i64>,
    data: View<f64>,
}

impl Lane for Ind {
    #[inline(always)]
    fn at(self, t: usize) -> Option<*mut f64> {
        debug_assert!(t < self.idx.len);
        // SAFETY: `idx.p[0..n]` passed the view at both ends (`lin`) and
        // `t < n`; the pin is an `i64` payload (the lowering takes
        // integer-declared index arrays, `fast_ready`).
        let d = self.data;
        let k = in_view(unsafe { *self.idx.p.add(t) }, d.origin, d.dim0)?;
        debug_assert!(k < d.len);
        Some(d.p.wrapping_add(k))
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

/// A resolved operand or sink of any kind: as a reader and a sink
/// itself, deciding per element, what the catch-all instantiation runs
/// on.
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

/// A stream's statement — `sink = P`, `P ± c` or `c ± P` with `P = a`
/// or `a * b` — over operand and sink resolvers of any types.
#[derive(Clone, Copy)]
struct Stmt<A, B, C, S> {
    a: A,
    b: Option<B>,
    tail: Option<(StreamTail, C)>,
    sink: S,
}

/// A statement as [`FState::resolve`] resolves it, before the
/// instantiation table ([`FState::instantiate`]) picks concrete types.
type Ops = Stmt<OpndRes, OpndRes, OpndRes, AnySink>;

/// The one stream kernel: iterations `lo .. lo + n` of `s` over an
/// invariant table's values `vals`, in order, each operation rounded on
/// its own in the source's operand order. Resolves the operands and the
/// sink for the range first — `None`, nothing done, when a LINEAR range
/// misses its pin's view — then stops *before* the first iteration one
/// of whose INDIRECT subscripts misses, with nothing of that iteration
/// done; returns how many ran.
///
/// Inlined into each arm of [`FState::instantiate`]'s one `match`,
/// where the resolver types are concrete and `b` and `tail` literals:
/// an instantiated shape decides nothing per element but its `in_view`s.
#[inline(always)]
fn stream_kernel<A: Res, B: Res, C: Res, S: Sink>(
    vals: &[i64],
    lo: i64,
    n: usize,
    s: Stmt<A, B, C, S>,
    acc: &mut f64,
) -> Option<usize> {
    if n == 0 {
        return Some(0);
    }
    let (a, sink) = (s.a.row(vals, lo, n)?, s.sink.row(vals, lo, n)?);
    let b = match s.b {
        Some(b) => Some(b.row(vals, lo, n)?),
        None => None,
    };
    let tail = match s.tail {
        Some((op, c)) => Some((op, c.row(vals, lo, n)?)),
        None => None,
    };
    for t in 0..n {
        let Some(mut v) = a.rd(t, *acc) else {
            return Some(t);
        };
        if let Some(b) = b {
            let Some(b) = b.rd(t, *acc) else {
                return Some(t);
            };
            v *= b;
        }
        if let Some((op, c)) = tail {
            let Some(c) = c.rd(t, *acc) else {
                return Some(t);
            };
            v = match op {
                StreamTail::PAddC => v + c,
                StreamTail::PSubC => v - c,
                StreamTail::CAddP => c + v,
                StreamTail::CSubP => c - v,
            };
        }
        if sink.wr(t, v, acc).is_none() {
            return Some(t);
        }
    }
    Some(n)
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

/// The values of an invariant table's entries: a stream's for its strip,
/// a segmented stream's for the row at hand.
type RowVals = [i64; ROW_INVS];

/// Entry `k` of an invariant table's values: a stream's, or a row's.
#[inline(always)]
fn entry(vals: &[i64], k: u16) -> i64 {
    vals[usize::from(k)]
}

/// A row-dependent entry of a segmented stream's row table, resolved
/// once per strip: `off ± i` or `off ± ptr(i + c)`, as its [`RowForm`]
/// says, with every term but the row's folded into `off`. The load
/// needs no check of its own: the rows whose `i + c` is inside `ptr`'s
/// view are one range, checked against the rows run
/// (`RowTable::rows_in_view`).
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

impl RowLoad {
    const NONE: RowLoad = RowLoad {
        at: 0,
        neg: false,
        off: 0,
        src: std::ptr::null(),
        view: std::ptr::null(),
        len: 0,
    };
}

/// A segmented stream's row table as [`FState::run_seg`] evaluates it:
/// the entries that do not depend on the row evaluated once a strip
/// ([`FState::table`]), the others as [`RowLoad`]s in table order.
struct RowTable {
    vals: RowVals,
    loads: [RowLoad; ROW_INVS],
    len: usize,
    /// The rows whose every load is inside its view.
    rows: (i64, i64),
}

impl RowTable {
    /// `sg`'s row table for a strip over `vals`, [`FState::table`]'s:
    /// each row entry a [`RowLoad`] of the form recorded, its `off` the
    /// `c` `vals` holds for it.
    fn new(st: &FState, sg: &SegStream, vals: RowVals) -> RowTable {
        let mut t = RowTable {
            vals,
            loads: [RowLoad::NONE; ROW_INVS],
            len: 0,
            rows: (i64::MIN, i64::MAX),
        };
        for (k, form) in sg.forms.iter().enumerate() {
            let Some(term) = form.term() else { continue };
            let (neg, term) = sg.stream.invs[k].terms[usize::from(term)];
            let mut e = RowLoad {
                at: k as u8,
                neg,
                off: vals[k],
                ..RowLoad::NONE
            };
            if let InvTerm::Load { slot, at } = term {
                let c = vals[usize::from(at)];
                let ptr = st.pinr(slot);
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
            t.loads[t.len] = e;
            t.len += 1;
        }
        t
    }

    /// The last row of `lo ..= hi` the kernel may run without a load
    /// leaving its view; `None` when row `lo` would.
    fn rows_in_view(&self, lo: i64, hi: i64) -> Option<i64> {
        let (r0, r1) = self.rows;
        (r0 <= lo && lo <= r1).then(|| hi.min(r1))
    }

    /// Evaluates the row-dependent entries for row `r`, one of
    /// [`RowTable::rows_in_view`], into `vals`: `None` when a sum leaves
    /// `i64`. Every row evaluates every entry, an empty row its
    /// statement's subscript parts too.
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
    type L: Rd;
    fn row(self, vals: &[i64], lo: i64, n: usize) -> Option<Self::L>;
}

impl Res for Val {
    type L = Val;
    #[inline(always)]
    fn row(self, _: &[i64], _: i64, _: usize) -> Option<Val> {
        Some(self)
    }
}

/// A resolver whose value is the running value: the accumulator operand
/// and a reduction's target.
trait InAcc: Copy {}

impl InAcc for Acc {}

impl<T: InAcc> Res for T {
    type L = Acc;
    #[inline(always)]
    fn row(self, _: &[i64], _: i64, _: usize) -> Option<Acc> {
        Some(Acc)
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
        Some(Ind {
            idx,
            data: self.data,
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
    Elem(Elem),
}

impl RowValRes {
    /// The value for row `r`, `None` when the element misses its view.
    #[inline(always)]
    fn get(self, vals: &RowVals, r: i64) -> Option<f64> {
        Some(match self {
            RowValRes::Val(v) => v,
            RowValRes::Row => r as f64,
            RowValRes::Elem(e) => e.read(vals)?.1,
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

/// Where a stream's values go, beside the lane a lane sink writes
/// ([`Res`]): how the running value of a row or a strip starts, and
/// where it goes once the row or strip is done. A lane starts nowhere
/// and stores as it goes.
trait Sink: Res<L: Wr> {
    /// The running value a row starts from — `init`, or else what its
    /// target holds — and the target's offset in its view; `None` when
    /// the row or strip may store (`writes > 0`) to a target outside
    /// the view.
    #[inline(always)]
    fn start(self, _: &FState, _: &RowVals, _: Option<f64>, _: u64) -> Option<(f64, usize)> {
        Some((0.0, 0))
    }

    /// Stores the reduced value of a row or strip that made `writes`
    /// stores.
    #[inline(always)]
    fn finish(self, _: &mut FState, _: f64, _: usize, _: u64) {}
}

impl Sink for LinRes {}

impl Sink for IndRes {}

/// `arr(vals[at])`, an element of a real pin's view: a row's initial or
/// final value, or a reduction's target (a raw pin's).
#[derive(Clone, Copy)]
struct Elem {
    at: u16,
    data: View<f64>,
}

impl Elem {
    /// The element's offset in its view and its value, `None` when it
    /// misses the view.
    #[inline(always)]
    fn read(self, vals: &RowVals) -> Option<(usize, f64)> {
        let d = self.data;
        let k = in_view(entry(vals, self.at), d.origin, d.dim0)?;
        debug_assert!(k < d.len);
        // SAFETY: `k` is inside the view of a live `f64` pin.
        Some((k, unsafe { *d.p.add(k) }))
    }
}

impl InAcc for Elem {}

impl Sink for Elem {
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
        let (k, v) = self.read(vals)?;
        Some((init.unwrap_or(v), k))
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

impl InAcc for ScalarSink {}

impl Sink for ScalarSink {
    #[inline(always)]
    fn start(self, st: &FState, _: &RowVals, init: Option<f64>, _: u64) -> Option<(f64, usize)> {
        Some((init.unwrap_or_else(|| st.frg(self.0)), 0))
    }

    #[inline(always)]
    fn finish(self, st: &mut FState, acc: f64, _: usize, _: u64) {
        st.frs(self.0, acc);
    }
}

/// A sink of any kind, for the catch-all instantiation: a store, a
/// scatter (which only a stream's strip takes), or a reduction.
#[derive(Clone, Copy)]
enum AnySink {
    Lane(LinRes),
    Scatter(IndRes),
    Elem(Elem),
    Scalar(ScalarSink),
}

impl Res for AnySink {
    type L = Opnd;
    #[inline(always)]
    fn row(self, vals: &[i64], lo: i64, n: usize) -> Option<Opnd> {
        Some(match self {
            AnySink::Lane(l) => Opnd::Lin(l.row(vals, lo, n)?),
            AnySink::Scatter(r) => Opnd::Ind(r.row(vals, lo, n)?),
            AnySink::Elem(_) | AnySink::Scalar(_) => Opnd::Acc(Acc),
        })
    }
}

impl Sink for AnySink {
    #[inline(always)]
    fn start(
        self,
        st: &FState,
        vals: &RowVals,
        init: Option<f64>,
        writes: u64,
    ) -> Option<(f64, usize)> {
        match self {
            AnySink::Lane(_) | AnySink::Scatter(_) => Some((0.0, 0)),
            AnySink::Elem(e) => e.start(st, vals, init, writes),
            AnySink::Scalar(s) => s.start(st, vals, init, writes),
        }
    }

    #[inline(always)]
    fn finish(self, st: &mut FState, acc: f64, k: usize, writes: u64) {
        match self {
            AnySink::Lane(_) | AnySink::Scatter(_) => {}
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
fn seg_row<A: Res, B: Res, C: Res, S: Sink>(
    st: &mut FState,
    table: &mut RowTable,
    row: &RowRes,
    r: i64,
    fuel: u64,
    s: Stmt<A, B, C, S>,
) -> Option<RowDone> {
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
    let (mut acc, k) = s.sink.start(st, vals, init, writes)?;
    if stream_kernel(vals, lo, n, s, &mut acc)? < n {
        return None;
    }
    if let Some((op, acc_first, v)) = fin {
        let (x, y) = if acc_first { (acc, v) } else { (v, acc) };
        acc = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            _ => x * y,
        };
    }
    s.sink.finish(st, acc, k, writes);
    Some(RowDone {
        n: n as u64,
        j: if n > 0 { hi + 1 } else { lo },
        cost,
        writes,
    })
}

/// What one instantiation of the kernel runs: a strip of a stream's
/// iterations ([`Strip`]) or of a segmented stream's rows ([`Rows`]).
trait Job {
    /// Whether `Probe::arms` counts it as rows run, not as a strip.
    #[cfg(test)]
    const ROWS: bool;

    /// Runs the strip with `s` over concrete resolver types: how many
    /// iterations (rows) ran, every one of them charged and counted.
    fn run<A: Res, B: Res, C: Res, S: Sink>(self, st: &mut FState, s: Stmt<A, B, C, S>) -> i64;
}

/// Iterations `lo .. lo + n` of the stream `sd`, over its invariant
/// values `vals`: the prefix before the first INDIRECT miss runs.
struct Strip<'a> {
    sd: &'a Stream,
    vals: &'a RowVals,
    lo: i64,
    n: usize,
}

impl Job for Strip<'_> {
    #[cfg(test)]
    const ROWS: bool = false;

    #[inline(always)]
    fn run<A: Res, B: Res, C: Res, S: Sink>(self, st: &mut FState, s: Stmt<A, B, C, S>) -> i64 {
        let Some((mut acc, k)) = s.sink.start(st, self.vals, None, self.n as u64) else {
            return 0;
        };
        let Some(m) = stream_kernel(self.vals, self.lo, self.n, s, &mut acc) else {
            return 0;
        };
        s.sink.finish(st, acc, k, m as u64);
        st.count_writes(&self.sd.sink, m as u64);
        m as i64
    }
}

/// Rows `lo ..= hi` of the segmented stream `sg`, each whole or not at
/// all ([`seg_row`]), over its row table and row statements.
struct Rows<'a> {
    sg: &'a SegStream,
    table: &'a mut RowTable,
    row: &'a RowRes,
    lo: i64,
    hi: i64,
}

impl Job for Rows<'_> {
    #[cfg(test)]
    const ROWS: bool = true;

    /// Row after row, fuel held in a local, the per-row counters
    /// flushed once.
    #[inline(always)]
    fn run<A: Res, B: Res, C: Res, S: Sink>(self, st: &mut FState, s: Stmt<A, B, C, S>) -> i64 {
        let mut fuel = st.fuel;
        let (mut r, mut iters, mut streamed, mut writes) = (self.lo, 0, 0, 0);
        let mut j_end = None;
        while r <= self.hi {
            let Some(done) = seg_row(st, self.table, self.row, r, fuel, s) else {
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
        let (sg, rows) = (self.sg, (r - self.lo) as u64);
        st.irs(sg.var, j);
        let spent = st.fuel - fuel;
        (st.fuel, st.spent) = (fuel, st.spent + spent);
        let l = usize::from(sg.inner);
        st.linv[l] += rows;
        st.lcost[l] += 2 * iters;
        st.streamed += streamed;
        st.stream_iters += iters;
        st.count_writes(&sg.stream.sink, writes);
        rows as i64
    }
}

/// An element type of a filter's append target: what its value converts
/// to, as the per-iteration store's operand conversion does (`Value::
/// as_int` truncates a real), and the `Value` an append sink buffers.
trait Elt: Copy {
    fn of_int(v: i64) -> Self;
    fn of_real(v: f64) -> Self;
    fn value(self) -> Value;
}

impl Elt for i64 {
    #[inline(always)]
    fn of_int(v: i64) -> i64 {
        v
    }
    #[inline(always)]
    fn of_real(v: f64) -> i64 {
        v as i64
    }
    fn value(self) -> Value {
        Value::Int(self)
    }
}

impl Elt for f64 {
    #[inline(always)]
    fn of_int(v: i64) -> f64 {
        v as f64
    }
    #[inline(always)]
    fn of_real(v: f64) -> f64 {
        v
    }
    fn value(self) -> Value {
        Value::Real(self)
    }
}

/// A filter's test of iteration `t`: whether it holds, `None` when an
/// INDIRECT subscript misses its view.
trait Test: Copy {
    fn holds(self, t: usize) -> Option<bool>;

    /// Whether the test fails, with no subscript missing, for each of
    /// iterations `t .. t + BLOCK`, all of them in the strip: `false`
    /// when a test cannot tell at once.
    #[inline(always)]
    fn fails_block(self, _: usize) -> bool {
        false
    }
}

/// Iterations a filter kernel tests at once while none holds.
const BLOCK: u64 = 8;

/// An exact integer test of a LINEAR integer element: `rowgather`'s.
/// `x op c` as a range: it holds when `x - lo`, unsigned, is at most
/// `span`, or (`out`) when it is not.
#[derive(Clone, Copy)]
struct IntLin {
    x: Lin<i64>,
    lo: i64,
    span: u64,
    out: bool,
}

impl IntLin {
    fn new(x: Lin<i64>, op: BinOp, c: i64) -> IntLin {
        let (lo, hi, out) = match op {
            BinOp::Eq => (c, c, false),
            BinOp::Ne => (c, c, true),
            BinOp::Lt if c == i64::MIN => (i64::MIN, i64::MAX, true),
            BinOp::Lt => (i64::MIN, c - 1, false),
            BinOp::Le => (i64::MIN, c, false),
            BinOp::Gt if c == i64::MAX => (i64::MIN, i64::MAX, true),
            BinOp::Gt => (c + 1, i64::MAX, false),
            _ => (c, i64::MAX, false),
        };
        let span = hi.wrapping_sub(lo) as u64;
        IntLin { x, lo, span, out }
    }

    /// Whether element `t`, `t` below the strip's length, is in the
    /// range.
    #[inline(always)]
    fn in_range(self, t: usize) -> bool {
        debug_assert!(t < self.x.len);
        // SAFETY: `x` passed its view at both ends of the strip (`View::
        // lin`), `t` is below the strip's length, and the pin is an
        // `i64` payload.
        let v = unsafe { *self.x.p.add(t) };
        v.wrapping_sub(self.lo) as u64 <= self.span
    }

    /// The test of element `t`.
    #[inline(always)]
    fn at(self, t: usize) -> bool {
        self.in_range(t) != self.out
    }
}

impl Test for IntLin {
    #[inline(always)]
    fn holds(self, t: usize) -> Option<bool> {
        Some(self.at(t))
    }

    #[inline(always)]
    fn fails_block(self, t: usize) -> bool {
        // No branch inside the block: one test a block while none holds.
        let inside = (0..BLOCK).fold(0, |n, u| n + u64::from(self.in_range(t + u as usize)));
        inside == if self.out { BLOCK } else { 0 }
    }
}

/// An element of either plane: `k` counts from `p` (`ip` or `fp`,
/// whichever the pin's plane is).
#[derive(Clone, Copy)]
struct AnyElt {
    ip: *const i64,
    fp: *const f64,
    is_int: bool,
}

impl AnyElt {
    /// Element `k`, as an integer or a real: both planes read it.
    #[inline(always)]
    fn read<T: Elt>(self, k: usize) -> T {
        // SAFETY: the caller checked `k` against a view of a live pin of
        // this plane (a LINEAR range at both ends, or an INDIRECT
        // subscript against the data's view).
        unsafe {
            if self.is_int {
                T::of_int(*self.ip.add(k))
            } else {
                T::of_real(*self.fp.add(k))
            }
        }
    }

    /// `AnyElt` of `pin`'s payload from offset `k0` on.
    fn of(pin: &RawPin, k0: usize) -> AnyElt {
        AnyElt {
            ip: pin.ip.wrapping_add(k0),
            fp: pin.fp.wrapping_add(k0),
            is_int: pin.is_int,
        }
    }
}

/// Any test: a LINEAR or INDIRECT element of either plane, compared
/// exactly (`int`, both sides integers) or as reals.
#[derive(Clone, Copy)]
struct AnyTest {
    x: AnyElt,
    /// INDIRECT: the index lane, and the data's view (`x` is at its
    /// origin).
    ind: Option<(Lin<i64>, u64, u64)>,
    int: Option<i64>,
    real: f64,
    op: BinOp,
}

impl Test for AnyTest {
    #[inline(always)]
    fn holds(self, t: usize) -> Option<bool> {
        let k = match self.ind {
            None => t,
            Some((idx, origin, dim0)) => {
                debug_assert!(t < idx.len);
                // SAFETY: as `Ind::at`.
                in_view(unsafe { *idx.p.add(t) }, origin, dim0)?
            }
        };
        let ord = match self.int {
            Some(inv) => self.x.read::<i64>(k).cmp(&inv),
            None => cmp_f(self.x.read(k), self.real),
        };
        Some(cmp_res(self.op, ord))
    }
}

/// What a filter appends in iteration `t`, whose `j` is `j`.
trait Src<T>: Copy {
    fn get(self, t: usize, j: i64) -> T;
}

/// The loop variable.
#[derive(Clone, Copy)]
struct Index;

impl<T: Elt> Src<T> for Index {
    #[inline(always)]
    fn get(self, _: usize, j: i64) -> T {
        T::of_int(j)
    }
}

/// Any value: the loop variable, a fixed one, or a LINEAR element.
#[derive(Clone, Copy)]
enum AnySrc<T> {
    Index,
    Val(T),
    Lin(AnyElt),
}

impl<T: Elt> Src<T> for AnySrc<T> {
    #[inline(always)]
    fn get(self, t: usize, j: i64) -> T {
        match self {
            AnySrc::Index => T::of_int(j),
            AnySrc::Val(v) => v,
            AnySrc::Lin(e) => e.read(t),
        }
    }
}

/// A filter's append target: stores `v` at subscript `at`; `None`, with
/// nothing done, when `at` is outside the view, `Some(false)` when an
/// append sink refused it.
trait Put<T>: Copy {
    fn put(self, st: &mut FState, at: i64, v: T) -> Option<bool>;
}

/// A raw pin's payload under its view.
#[derive(Clone, Copy)]
struct RawPut<T>(View<T>);

impl<T: Elt> Put<T> for RawPut<T> {
    #[inline(always)]
    fn put(self, _: &mut FState, at: i64, v: T) -> Option<bool> {
        let d = self.0;
        let k = in_view(at, d.origin, d.dim0)?;
        debug_assert!(k < d.len);
        // SAFETY: `k` is in the view of a raw pin of this plane (the
        // filter runs only on one), which owns its payload or whose
        // window holds `k`.
        unsafe { *d.p.add(k) = v }
        Some(true)
    }
}

/// A concat chunk's append sink, at the pin in `slot`: each store goes
/// through [`TypedBuf::append_at`](crate::interp::TypedBuf::append_at)
/// under the append rule, as the per-iteration store's does.
#[derive(Clone, Copy)]
struct AppendPut(u16);

impl<T: Elt> Put<T> for AppendPut {
    #[inline(always)]
    fn put(self, st: &mut FState, at: i64, v: T) -> Option<bool> {
        let pin = st.pinw(self.0);
        let k = pin.chk(at)?;
        pin.observed(k, v.value());
        Some(!pin.refused.get())
    }
}

/// Any target: raw, or an append sink.
#[derive(Clone, Copy)]
enum AnyPut<T> {
    Raw(RawPut<T>),
    Append(AppendPut),
}

impl<T: Elt> Put<T> for AnyPut<T> {
    #[inline(always)]
    fn put(self, st: &mut FState, at: i64, v: T) -> Option<bool> {
        match self {
            AnyPut::Raw(w) => w.put(st, at, v),
            AnyPut::Append(w) => w.put(st, at, v),
        }
    }
}

/// A filter's strip as its kernel runs it: iterations `lo .. lo + n`,
/// with `half` the fuel left halved, the pointer starting at `p`.
struct FilterStrip {
    lo: i64,
    n: usize,
    half: u64,
    p: i64,
    /// The pointer is bumped before the store.
    pre: i64,
}

/// The one filter kernel: the iterations of `s` in order, each testing
/// `x` and, where the test holds, storing `v` at the pointer's next
/// element through `w` and bumping the pointer. Stops *before* the
/// first iteration whose INDIRECT subscript misses, whose store would
/// leave the target's view, or for which the fuel left does not cover
/// its statements and bookkeeping — two units, four where the test
/// holds — and *after* one whose append the sink refused. Returns the
/// iterations run, the appends made and the pointer.
#[inline(always)]
fn filter_kernel<X: Test, T: Elt, V: Src<T>, W: Put<T>>(
    st: &mut FState,
    s: &FilterStrip,
    x: X,
    v: V,
    w: W,
) -> (u64, u64, i64) {
    let (half, mut p) = (s.half, s.p);
    // `t + k` iterations' worth of two units is spent after `t`
    // iterations with `k` appends, so iteration `t` fits when `t + k <
    // half`, and one that appends when `t + k + 1 < half`.
    let mut end = (s.n as u64).min(half);
    let (mut t, mut k) = (0u64, 0u64);
    while t < end {
        if t + BLOCK <= end && x.fails_block(t as usize) {
            t += BLOCK;
            continue;
        }
        match x.holds(t as usize) {
            None => break,
            Some(false) => {}
            Some(true) => {
                if t + k + 1 >= half {
                    break;
                }
                let value = v.get(t as usize, s.lo + t as i64);
                let Some(taken) = w.put(st, p.wrapping_add(s.pre), value) else {
                    break;
                };
                p = p.wrapping_add(1);
                k += 1;
                end = end.min(half - k);
                if !taken {
                    t += 1;
                    break;
                }
            }
        }
        t += 1;
    }
    (t, k, p)
}

/// Per-entry run state: the typed register planes, pinned payloads,
/// and the local fuel/cost ledger — everything a typed run changes but
/// its sinks, for a sequential entry to flush into its interpreter
/// ([`FState::flush`]) and a dispatch to commit ([`FState::run`]). Its vectors
/// outlive the entry: an interpreter keeps one for its sequential
/// entries and one per chunk of its dispatches
/// ([`crate::interp::ProgramScope`]), and [`FState::enter`] resets it
/// in place.
#[derive(Default)]
pub(crate) struct FState {
    ir: Vec<i64>,
    fr: Vec<f64>,
    pins: Vec<RawPin>,
    fuel: u64,
    /// The body cost the last run charged.
    pub(crate) spent: u64,
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
    pub(crate) probe: Probe,
    /// Every stored pin is a raw write, so a stream can have a sink:
    /// under a write-log or an append buffer no loop entry so much as
    /// looks its stream up — the stream and row kernels write raw.
    streams: bool,
    /// The slot of the one stored pin that is not a raw write, when that
    /// pin is an append sink: a filter stream appending to it still runs.
    lone_append: Option<u16>,
    /// A worker's deadline.
    deadline: Deadline,
    /// There is a deadline or an append sink, so [`FState::poll`] has
    /// something to check.
    watched: bool,
    /// Holds segmented streams off: every row on the per-row path (a
    /// unit test's, to compare the two).
    #[cfg(test)]
    pub(crate) segs_off: bool,
}

impl FState {
    /// Readies this state for an entry of `cb` with `fuel` left: zeroed
    /// planes and loop counters of `cb`'s sizes, the scalars loaded from
    /// `store`, no pins, nothing spent. Reuses every vector's allocation.
    fn enter(&mut self, cb: &CompiledBody, store: &Store, fuel: u64, deadline: Deadline) {
        fn zeroed<T: Copy + Default>(v: &mut Vec<T>, n: usize) {
            v.clear();
            v.resize(n, T::default());
        }
        zeroed(&mut self.ir, cb.int_registers());
        zeroed(&mut self.fr, cb.real_registers());
        zeroed(&mut self.linv, cb.inner_loops().len());
        zeroed(&mut self.lcost, cb.inner_loops().len());
        // Empty unless the last entry unwound.
        self.pins.clear();
        self.pins.reserve(cb.arrays().len());
        (self.fuel, self.spent, self.streamed, self.stream_iters) = (fuel, 0, 0, 0);
        #[cfg(test)]
        {
            self.probe = Probe::default();
        }
        self.deadline = deadline;
        for p in cb.scalars() {
            let v = store.scalar(p.var);
            if p.real {
                self.fr[p.reg as usize] = v.as_real();
            } else {
                self.ir[p.reg as usize] = v.as_int();
            }
        }
    }

    /// A worker's checks between two iterations (or strips) of any loop:
    /// its deadline, and whether an append sink refused a store. A
    /// sequential entry, and a worker with neither, test one flag.
    #[inline(always)]
    fn poll(&self, cb: &CompiledBody) -> Result<(), Abort> {
        if !self.watched {
            return Ok(());
        }
        if self
            .deadline
            .is_some_and(|(started, limit)| started.elapsed() >= limit)
        {
            return Err(Abort::Fallback(FallbackReason::Timeout, None));
        }
        self.refused(cb)
    }

    /// A violation on the first array whose append sink refused a store.
    fn refused(&self, cb: &CompiledBody) -> Result<(), Abort> {
        let Some(k) = self.pins.iter().position(|p| p.refused.get()) else {
            return Ok(());
        };
        Err(Abort::Fallback(
            FallbackReason::Strategy,
            Some(cb.arrays()[k]),
        ))
    }

    /// Whether segmented streams run: always, but for a unit test that
    /// holds them off to compare with the per-row path.
    #[inline(always)]
    fn segs_on(&self) -> bool {
        #[cfg(test)]
        return !self.segs_off;
        #[cfg(not(test))]
        true
    }

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
    // register below the plane sizes `FState::enter` builds the planes
    // with, and each slot below `arrays().len()`, for which every typed
    // run pins one payload each. The debug asserts keep
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

    /// `sd`'s statement over the pins' views, its sink included: what a
    /// strip of a stream and of a segmented stream alike hand the
    /// instantiation table. Each operand is resolved for a range of
    /// iterations later ([`Res::row`]), and each reference checks its
    /// own range against its own pin, whatever part it shares with
    /// another.
    fn resolve(&self, sd: &Stream) -> Ops {
        let res = |r: &StreamRef| match r {
            StreamRef::Inv(v) => OpndRes::Val(Val(self.frd(*v))),
            StreamRef::At(at) => self.res_at(at),
            StreamRef::Acc => OpndRes::Acc(Acc),
        };
        let sink = match &sd.sink {
            StreamSink::At(at) => match self.res_at(at) {
                OpndRes::Lin(l) => AnySink::Lane(l),
                OpndRes::Ind(r) => AnySink::Scatter(r),
                _ => unreachable!("a location resolves to a lane"),
            },
            StreamSink::Scalar(reg) => AnySink::Scalar(ScalarSink(*reg)),
            StreamSink::Elem { slot, at } => AnySink::Elem(self.elem(*slot, *at)),
        };
        Stmt {
            a: res(&sd.a),
            b: sd.b.as_ref().map(res),
            tail: sd.tail.as_ref().map(|(op, c)| (*op, res(c))),
            sink,
        }
    }

    /// Counts `writes` stores to a stream's sink, which the kernel made
    /// raw; a reduction into a register counts none.
    fn count_writes(&mut self, sink: &StreamSink, writes: u64) {
        if let StreamSink::At(StreamAt { slot, .. }) | StreamSink::Elem { slot, .. } = sink {
            self.pinw(*slot).writes += writes;
        }
    }

    /// The one instantiation table, entered once a strip by a stream and
    /// a segmented stream alike: the shapes a benchmark row runs
    /// (EXPERIMENTS.md, "Shapes") get `job` over their own resolver
    /// types; anything else runs it over `OpndRes` / `AnySink`, which
    /// decide per element. The resolvers are matched in place: copying
    /// them out first cost the scatter kernel's loop two more stack
    /// reloads an element.
    #[inline(always)]
    fn instantiate<J: Job>(&mut self, job: J, ops: Ops) -> i64 {
        use {AnySink as K, OpndRes as O, StreamTail::*};
        const NO_TAIL: Option<(StreamTail, Val)> = None;
        macro_rules! run {
            ($arm:literal: $a:expr, $b:expr, $tail:expr, $sink:expr) => {{
                let s = Stmt {
                    a: $a,
                    b: $b,
                    tail: $tail,
                    sink: $sink,
                };
                let m = job.run(self, s);
                #[cfg(test)]
                {
                    let n = if J::ROWS { m as u64 } else { 1 };
                    self.probe.arms[$arm][usize::from(J::ROWS)] += n;
                }
                m
            }};
        }
        match (&ops.a, &ops.b, &ops.tail, &ops.sink) {
            // `lin = lin·val + val` in place: colscale. With the operand's
            // own resolver passed as the sink the kernel vectorizes: one
            // pointer needs no overlap test (which the same element read
            // and written fails).
            (O::Lin(a), Some(O::Val(b)), Some((PAddC, O::Val(c))), K::Lane(s)) if a.same(*s) => {
                run!(1: *a, Some(*b), Some((PAddC, *c)), *a)
            }
            // Out of place: scale, and the scale sweep, whose sweep loop
            // is a row loop.
            (O::Lin(a), Some(O::Val(b)), Some((PAddC, O::Val(c))), K::Lane(s)) => {
                run!(2: *a, Some(*b), Some((PAddC, *c)), *s)
            }
            // `ind = lin·val`: permute
            (O::Lin(a), Some(O::Val(b)), None, K::Scatter(s)) => run!(3: *a, Some(*b), NO_TAIL, *s),
            // `elem = acc + lin·ind`: spmv
            (O::Lin(a), Some(O::Ind(b)), Some((CAddP, O::Acc(c))), K::Elem(s)) => {
                run!(4: *a, Some(*b), Some((CAddP, *c)), *s)
            }
            _ => run!(0: ops.a, ops.b, ops.tail, ops.sink),
        }
    }

    /// Fast-forwards iterations `lo ..= hi`, `lo <= hi`, of a loop
    /// whose body is `sd`: runs the first `m` as one stream and returns
    /// `m`, having charged them (a statement and a bookkeeping unit
    /// each) and counted the loop entry when `first` is its first strip.
    /// Every check of those `m` iterations is known to pass — fuel for
    /// `2 m`, the invariant table, both ends of each LINEAR range inside
    /// its pin's view, a reduction's element, each INDIRECT subscript as
    /// it is read — so the caller's per-iteration loop, continued at
    /// `lo + m`, meets whatever fails exactly where the tree-walk does.
    /// `lo + m` fits an `i64`. The caller has checked `streams`: every
    /// store is a raw write. Out of line, as `run_seg` is: inlined, its
    /// arms cost `run_do`'s per-iteration loop its registers.
    #[inline(never)]
    fn run_stream(&mut self, sd: &Stream, lo: i64, hi: i64, first: bool) -> i64 {
        debug_assert!(
            self.streams,
            "the caller checks that every store is a raw write"
        );
        let n = (hi.abs_diff(lo) + 1)
            .min(i64::MAX.abs_diff(lo))
            .min(self.fuel / 2) as usize;
        let m = match self.table(&sd.invs, &[]) {
            Some(vals) => {
                let ops = self.resolve(sd);
                let vals = &vals;
                self.instantiate(Strip { sd, vals, lo, n }, ops) as u64
            }
            None => 0,
        };
        self.spent += 2 * m;
        self.fuel -= 2 * m;
        self.stream_iters += m;
        self.streamed += u64::from(first && m > 0);
        m as i64
    }

    /// Runs rows `lo ..= hi` of the segmented stream `sg` in order, each
    /// whole or not at all, and returns how many ran: the rows before the
    /// first one its row guard does not admit ([`seg_row`]). The
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
        let ops = self.resolve(&sg.stream);
        // A row of a lane sink writes as it goes, so every check it needs
        // passes before it starts: `seg_of` gives it no scatter and no
        // INDIRECT operand, whose subscripts are checked as read. All of
        // the check stays inside the macro: the same reads bound outside
        // it, dead in a release build, still cost the row kernels' loops
        // registers they then reloaded from the stack.
        let ind = |r: Option<OpndRes>| matches!(r, Some(OpndRes::Ind(_)));
        debug_assert!(match ops.sink {
            AnySink::Lane(_) => !(ind(Some(ops.a)) || ind(ops.b) || ind(ops.tail.map(|t| t.1))),
            AnySink::Scatter(_) => false,
            _ => true,
        });
        let Some(vals) = self.table(&sg.stream.invs, &sg.forms) else {
            return 0;
        };
        let mut table = RowTable::new(self, sg, vals);
        let Some(hi) = table.rows_in_view(lo, hi) else {
            return 0;
        };
        let row = RowRes {
            init: sg.init.as_ref().map(|v| self.row_val_res(sg, v)),
            fin: (sg.fin.as_ref()).map(|f| (f.op, f.acc_first, self.row_val_res(sg, &f.v))),
            lo: sg.lo,
            hi: sg.hi,
        };
        let rows = Rows {
            sg,
            table: &mut table,
            row: &row,
            lo,
            hi: hi.min(i64::MAX - 1),
        };
        self.instantiate(rows, ops)
    }

    /// Fast-forwards iterations `lo ..= hi`, `lo <= hi`, of a loop whose
    /// body is the filtered append `f`: runs the first `m` through the
    /// filter kernel and returns `m`, having charged them in closed form
    /// — two units an iteration, two more an append — counted the loop
    /// entry when `first` is its first strip, left the pointer in its
    /// register and counted a raw target's stores. Every check of those
    /// `m` iterations is known to pass — the invariant table, both ends
    /// of each LINEAR range in its pin's view, each INDIRECT subscript as
    /// it is read, the target's room before each append, the fuel — so
    /// the per-iteration ops, continued at `lo + m`, meet whatever fails
    /// where the tree-walk does. The caller has checked that every stored
    /// pin but the target is a raw write, and the target raw or an
    /// append sink. Its arms resolve only what they read: the table
    /// matches the recorded filter, not resolved operands.
    #[inline(never)]
    fn run_filter(&mut self, f: &Filter, lo: i64, hi: i64, first: bool) -> i64 {
        let n = (hi.abs_diff(lo) + 1).min(i64::MAX.abs_diff(lo)) as usize;
        let vals = self.table(&f.invs, &[]).filter(|_| n > 0);
        let s = FilterStrip {
            lo,
            n,
            half: self.fuel / 2,
            p: self.irg(f.ptr),
            pre: i64::from(f.bump_first),
        };
        let ran = vals.and_then(|vals| self.instantiate_filter(f, &vals, &s));
        let (m, k, p) = ran.unwrap_or((0, 0, s.p));
        self.irs(f.ptr, p);
        let target = self.pinw(f.slot);
        if target.raw {
            target.writes += k;
        }
        let cost = 2 * (m + k);
        self.spent += cost;
        self.fuel -= cost;
        self.stream_iters += m;
        self.streamed += u64::from(first && m > 0);
        m as i64
    }

    /// The filter kernel's instantiation table: `rowgather`'s shape —
    /// an integer LINEAR element against an integer, appending `j` to
    /// an integer array — over a raw target and over a concat chunk's
    /// append sink gets its own types; anything else runs the catch-all,
    /// which decides per element. `None`, nothing run, when a LINEAR
    /// range misses its view.
    #[inline(always)]
    fn instantiate_filter(
        &mut self,
        f: &Filter,
        vals: &RowVals,
        s: &FilterStrip,
    ) -> Option<(u64, u64, i64)> {
        macro_rules! run {
            ($arm:literal, $t:ty: $x:expr, $v:expr, $w:expr) => {{
                let done = filter_kernel::<_, $t, _, _>(self, s, $x, $v, $w);
                #[cfg(test)]
                {
                    self.probe.arms[$arm][0] += 1;
                }
                Some(done)
            }};
        }
        let first = |at: &StreamAt| entry(vals, at.base).checked_add(s.lo);
        let (xp, tp) = (self.pinr(f.x.slot), self.pinr(f.slot));
        if let (None, PlaneOpnd::Int(inv), FilterVal::Index, true, true) =
            (f.x.idx_slot, f.inv, &f.val, xp.is_int, tp.is_int)
        {
            let x = IntLin::new(xp.view(xp.ip).lin(first(&f.x)?, s.n)?, f.op, self.ird(inv));
            return match tp.raw {
                true => run!(5, i64: x, Index, RawPut(tp.view(tp.ip))),
                false => run!(6, i64: x, Index, AppendPut(f.slot)),
            };
        }
        let (int, real) = match f.inv {
            PlaneOpnd::Int(o) => (Some(self.ird(o)), 0.0),
            PlaneOpnd::Real(o) => (None, self.frd(o)),
        };
        let ind = match f.x.idx_slot {
            None => None,
            Some(idx) => {
                let idx = self.pinr(idx);
                Some((idx.view(idx.ip).lin(first(&f.x)?, s.n)?, xp.origin, xp.dim0))
            }
        };
        let k0 = match ind {
            None => lin_at(xp, first(&f.x)?, s.n)?,
            Some(_) => 0,
        };
        let x = AnyTest {
            x: AnyElt::of(xp, k0),
            ind,
            int,
            real,
            op: f.op,
        };
        let lin = match &f.val {
            FilterVal::At(at) => {
                let pin = self.pinr(at.slot);
                Some(AnyElt::of(pin, lin_at(pin, first(at)?, s.n)?))
            }
            _ => None,
        };
        macro_rules! any {
            ($t:ty, $p:ident) => {{
                let v: AnySrc<$t> = self.any_src(f, lin);
                let w = match tp.raw {
                    true => AnyPut::Raw(RawPut(tp.view(tp.$p))),
                    false => AnyPut::Append(AppendPut(f.slot)),
                };
                run!(7, $t: x, v, w)
            }};
        }
        match tp.is_int {
            true => any!(i64, ip),
            false => any!(f64, fp),
        }
    }

    /// What the catch-all filter kernel appends, in the target's plane:
    /// `f`'s invariant read once, its LINEAR element `lin`, or `j`.
    fn any_src<T: Elt>(&self, f: &Filter, lin: Option<AnyElt>) -> AnySrc<T> {
        match (&f.val, lin) {
            (FilterVal::Inv(PlaneOpnd::Int(o)), _) => AnySrc::Val(T::of_int(self.ird(*o))),
            (FilterVal::Inv(PlaneOpnd::Real(o)), _) => AnySrc::Val(T::of_real(self.frd(*o))),
            (_, Some(e)) => AnySrc::Lin(e),
            _ => AnySrc::Index,
        }
    }

    /// The invariant table `invs` evaluated for a strip, in table
    /// order, each distinct part once: every term of an entry but the one
    /// its [`RowForm`] says carries the row — a plain stream, which has
    /// no forms, has none — so a row entry's value is its `c`
    /// ([`RowTable::new`]). `None` when a sum leaves `i64` or a load
    /// misses its pin's view.
    #[inline(always)]
    fn table(&self, invs: &[Inv], forms: &[RowForm]) -> Option<RowVals> {
        let mut vals = [0; ROW_INVS];
        for (k, inv) in invs.iter().enumerate() {
            let on_row = forms.get(k).and_then(|f| f.term()).map(usize::from);
            let mut sum = inv.off;
            for (x, &(neg, term)) in inv.terms.iter().enumerate() {
                if Some(x) == on_row {
                    continue;
                }
                let v = match term {
                    InvTerm::Reg(r) => self.ir[usize::from(r)],
                    InvTerm::Load { slot, at } => {
                        let pin = &self.pins[usize::from(slot)];
                        pin.rd_i(pin.chk(vals[usize::from(at)])?)
                    }
                };
                sum = if neg {
                    sum.checked_sub(v)?
                } else {
                    sum.checked_add(v)?
                };
            }
            vals[k] = sum;
        }
        Some(vals)
    }

    /// A row's initial or final operand, resolved for this strip: a
    /// register other than the row variable's is fixed for the loop.
    fn row_val_res(&self, sg: &SegStream, v: &RowVal) -> RowValRes {
        match *v {
            RowVal::Inv(FOpnd::IReg(r)) if r == sg.row => RowValRes::Row,
            RowVal::Inv(o) => RowValRes::Val(self.frd(o)),
            RowVal::Elem { slot, at } => RowValRes::Elem(self.elem(slot, at)),
        }
    }

    /// Element `at` of the invariant table of the real pin at `slot`.
    fn elem(&self, slot: u16, at: u16) -> Elem {
        let pin = self.pinr(slot);
        debug_assert!(!pin.is_int);
        Elem {
            at,
            data: pin.view(pin.fp),
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

    /// The payload offset of element `at` of the pin at `slot`, checked
    /// as the tree-walk checks it: an INDIRECT index array's subscript
    /// first, then the element's own against the pin's view (an affine
    /// `base + off` wraps). A flat index is `IndexN`'s, checked per
    /// dimension there. A miss is the slot and the subscript that
    /// missed — two words, so the hot path carries no [`Abort`].
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

impl FState {
    /// The run step of a parallel chunk: pins every slot of `cb` from
    /// `cx`'s store for stores through `sinks` (one per slot,
    /// [`WriteSink`]), loads the scalars and runs root iterations `lo..=
    /// hi` with `fuel` left, under `deadline` ([`FState::go`]); then hands
    /// the sinks back, filled, whatever the end. The store is only read:
    /// what the nest assigns of its scalars, what it spent and what it
    /// counted stay here, for the dispatch's commit.
    pub(crate) fn run(
        &mut self,
        cx: Typed<'_>,
        cb: &CompiledBody,
        range: (i64, i64, i64),
        (fuel, deadline): (u64, Deadline),
        sinks: &mut [Option<WriteSink>],
    ) -> Result<(), Abort> {
        self.enter(cb, cx.store, fuel, deadline);
        for (&a, sink) in cb.arrays().iter().zip(sinks.iter_mut()) {
            self.pins.push(RawPin::new(cx.store.array(a), sink.take()));
        }
        let res = self.go(cx, cb, range);
        for (sink, mut p) in sinks.iter_mut().zip(self.pins.drain(..)) {
            // An own copy is the run's scratch: the commit reads the log.
            if let Some(WriteSink::Private(copy) | WriteSink::Logged { copy, .. }) = &mut p.sink {
                copy.release();
            }
            *sink = p.sink;
        }
        res
    }

    /// Executes root iterations `lo..=hi` of the typed loop over the
    /// pins [`FState::enter`] and its caller set up: same observable
    /// semantics as walking them, with scalars promoted to registers and
    /// every array payload pinned for the whole call. The caller has
    /// checked [`Interp::fast_ready`] and done the root loop's entry
    /// bookkeeping.
    fn go(
        &mut self,
        cx: Typed<'_>,
        cb: &CompiledBody,
        range: (i64, i64, i64),
    ) -> Result<(), Abort> {
        debug_assert_eq!(self.pins.len(), cb.arrays().len());
        // Only an append sink can refuse a store.
        let append = |p: &RawPin| matches!(p.sink, Some(WriteSink::Append { .. }));
        let mut observed = (0u16..)
            .zip(&self.pins)
            .filter(|(_, p)| p.sink.is_some() && !p.raw);
        (self.streams, self.lone_append) = match (observed.next(), observed.next()) {
            (None, _) => (true, None),
            (Some((k, p)), None) if append(p) => (false, Some(k)),
            _ => (false, None),
        };
        self.watched = self.deadline.is_some() || self.pins.iter().any(append);
        let var = (cb.root_reg(), cb.root_real());
        let res = cx.run_do(cb, 0, var, cb.root(), range, self);
        // A refused store stops the chunk however else it ended.
        self.refused(cb).and(res)
    }

    /// Promoted scalar `p`'s register.
    fn reg(&self, p: &Promoted) -> Value {
        match p.real {
            true => Value::Real(self.fr[p.reg as usize]),
            false => Value::Int(self.ir[p.reg as usize]),
        }
    }

    /// The final value of scalar `v` after a run: its register when the
    /// nest references it, else what `store` holds.
    pub(crate) fn scalar(&self, cb: &CompiledBody, store: &Store, v: VarId) -> Value {
        let p = cb.scalars().iter().find(|p| p.var == v);
        p.map_or_else(|| store.scalar(v), |p| self.reg(p))
    }

    /// Folds what the last run counted into `stats`: its inner loops'
    /// entries and costs — dense counters into the per-loop map once per
    /// run; untouched loops get no entry, exactly like the tree walk —
    /// and its streams. Its cost is the caller's to charge.
    pub(crate) fn fold(&self, cb: &CompiledBody, stats: &mut ExecStats) {
        stats.stream_entries += self.streamed;
        stats.stream_iters += self.stream_iters;
        for (k, &stmt) in cb.inner_loops().iter().enumerate() {
            if self.linv[k] > 0 {
                let e = stats.loops.entry(stmt).or_default();
                e.invocations += self.linv[k];
                e.total_cost += self.lcost[k];
            }
        }
    }

    /// The flush step, a sequential entry's on every exit — success or
    /// error — so its observable state is indistinguishable from
    /// per-access traffic: the cost, the fuel, the write-versions of
    /// what its stores wrote, every scalar the nest can assign (the
    /// root induction variable, left one past the range, included; a
    /// scalar it merely reads is unchanged) and the counters.
    fn flush(&mut self, cb: &CompiledBody, run: &mut Interp<'_>) {
        run.stats.total_cost += self.spent;
        run.fuel = self.fuel;
        #[cfg(test)]
        run.probe.add(&self.probe);
        for (&a, p) in cb.arrays().iter().zip(self.pins.drain(..)) {
            if p.writes > 0 {
                run.store.bump_version_by(a, p.writes);
            }
        }
        for p in cb.scalars().iter().filter(|p| p.assigned) {
            let ty = if p.real {
                ScalarType::Real
            } else {
                ScalarType::Int
            };
            run.store.set_scalar(p.var, ty, self.reg(p));
        }
        self.fold(cb, &mut run.stats);
    }
}

impl Interp<'_> {
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

    /// A typed entry on the master: root iterations `range` of `cb`
    /// ([`FState::run`]) with the stored arrays written in place, each
    /// payload made unique first (the copy a first tree-walk write would
    /// have taken), then flushed ([`FState::flush`]). Runs in the state
    /// of the interpreter's chunk slot 0, which a dispatch's chunk 0
    /// runs in too: the master runs one typed loop at a time, so one set
    /// of planes serves every loop. A sequential entry has no deadline.
    pub(crate) fn run_typed(
        &mut self,
        cb: &CompiledBody,
        range: (i64, i64, i64),
    ) -> Result<(), Abort> {
        let mut st = std::mem::take(self.scope.buffers.planes());
        st.enter(cb, &self.store, self.fuel, None);
        for (&a, &stored) in cb.arrays().iter().zip(cb.stored()) {
            let sink = stored.then(|| WriteSink::Direct(self.store.payload_raw(a)));
            st.pins.push(RawPin::new(self.store.array(a), sink));
        }
        let cx = Typed {
            program: self.program(),
            store: &self.store,
        };
        let ran = st.go(cx, cb, range);
        st.flush(cb, self);
        *self.scope.buffers.planes() = st;
        ran
    }
}

/// What a typed run reads besides its own state: the program, to name
/// an array in an error, and the store it pins and loads its scalars
/// from. Shared by every chunk of a dispatch.
#[derive(Clone, Copy)]
pub(crate) struct Typed<'a> {
    pub(crate) program: &'a Program,
    pub(crate) store: &'a Store,
}

impl Typed<'_> {
    /// `chk` refused `index`: the program's own error, unless the bounds
    /// rule admits it — a window pin's miss, a strategy violation.
    #[cold]
    fn fast_oob(self, cb: &CompiledBody, slot: u16, index: i64) -> Abort {
        let a = cb.arrays()[slot as usize];
        match column_major(self.program, a, &self.store.array(a).dims()[..1], [index]) {
            Ok(_) => Abort::Fallback(FallbackReason::Strategy, Some(a)),
            Err(e) => Abort::Exec(e),
        }
    }

    /// `IndexN`: the flat index of `subs` into the array at `slot`, each
    /// subscript checked against the array's extents in the store (a
    /// window pin's too). Out of line: no benchmark loop takes it, and
    /// the store lookup would widen `run_fblock`'s dispatch loop.
    #[inline(never)]
    fn index_n(
        self,
        cb: &CompiledBody,
        st: &FState,
        slot: u16,
        subs: &[IOpnd],
    ) -> Result<usize, ExecError> {
        let a = cb.arrays()[slot as usize];
        column_major(
            self.program,
            a,
            self.store.array(a).dims(),
            subs.iter().map(|s| st.ird(*s)),
        )
    }

    /// [`FState::addr`], its miss named by [`Typed::fast_oob`]: a
    /// strategy violation or the program's `OutOfBounds`.
    #[inline(always)]
    fn addr(self, cb: &CompiledBody, st: &FState, slot: u16, at: &Addr) -> Result<usize, Abort> {
        match st.addr(slot, at) {
            Ok(k) => Ok(k),
            Err((slot, index)) => Err(self.fast_oob(cb, slot, index)),
        }
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
        self,
        cb: &CompiledBody,
        slot: usize,
        (var, real): (u16, bool),
        body: u16,
        (lo, hi, step): (i64, i64, i64),
        st: &mut FState,
    ) -> Result<(), Abort> {
        let set = |st: &mut FState, i: i64| {
            if real {
                st.frs(var, i as f64);
            } else {
                st.irs(var, i);
            }
        };
        debug_assert!(
            step == 1
                || (cb.stream(slot).is_none()
                    && cb.filter(slot).is_none()
                    && cb.seg(slot).is_none()),
            "the lowering records streams of unit-step loops only"
        );
        let fwd = st.streams;
        let mut stream = cb.stream(slot).filter(|_| fwd);
        let append = st.lone_append;
        let mut filter = cb.filter(slot).filter(|f| fwd || append == Some(f.slot));
        let seg = cb.seg(slot).filter(|_| fwd && st.segs_on());
        let mut i = lo;
        while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
            st.poll(cb)?;
            let strip_hi = hi.min(i.saturating_add(STRIP - 1));
            let m = match (seg, stream, filter) {
                (Some(sg), ..) => st.run_seg(sg, i, strip_hi),
                (None, Some(sd), _) => {
                    let m = st.run_stream(sd, i, strip_hi, i == lo);
                    if i + m <= strip_hi {
                        stream = None;
                    }
                    m
                }
                (None, None, Some(f)) => {
                    let m = st.run_filter(f, i, strip_hi, i == lo);
                    if i + m <= strip_hi {
                        filter = None;
                    }
                    m
                }
                (None, None, None) => 0,
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

    fn run_fblock(self, cb: &CompiledBody, b: u16, st: &mut FState) -> Result<(), Abort> {
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
                    let idx = self.index_n(cb, st, *slot, subs)?;
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
                        None => return Err(self.fast_oob(cb, *slot, cur)),
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
                        None => return Err(self.fast_oob(cb, *slot, cur)),
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

/// The small-scope checks of the stream guards: every tiny input against
/// a brute-force definition of what a segmented stream's row and a
/// stream's strip may run.
#[cfg(test)]
mod tests {
    use super::*;
    use irr_driver::compiled::lower_do_loop;
    use irr_frontend::{parse_program, Program};

    /// The row loop `do i = 1, rows` over rows `j = jlo(i) .. hi` of
    /// `c(ptr(i) + j - 1)`: every index array has exactly `rows`
    /// elements, so a row outside `1 ..= rows` misses its loads.
    fn program(rows: usize, hi: &str) -> (Program, CompiledBody) {
        let p = parse_program(&format!(
            "program t
             integer i, j, n, ptr({rows}), jlo({rows}), jhi({rows})
             real c(16)
             do i = 1, {rows}
               do j = jlo(i), {hi}
                 c(ptr(i) + j - 1) = c(ptr(i) + j - 1) * 0.5 + 1.0
               enddo
             enddo
             end"
        ))
        .unwrap();
        let cb = lower_do_loop(&p, p.procedure(p.main()).body[0]).unwrap();
        (p, cb)
    }

    /// The pins a typed run of `cb` would take, the integer arrays from
    /// `ints` by name and each real array of 16 elements pinned as a view
    /// of a buffer of its own, the way an in-place window is.
    struct Harness {
        st: FState,
        /// Each real array's slot and buffer: its 16 elements and a slack
        /// that a kernel writing past its view lands in.
        reals: Vec<(usize, Vec<f64>)>,
        _ints: Vec<ArrayData>,
    }

    impl Harness {
        fn new(p: &Program, cb: &CompiledBody, ints: &[(&str, Vec<i64>)]) -> Harness {
            let meta = ArrayData::zeroed(ScalarType::Real, vec![16]);
            let (mut pins, mut reals, mut kept) = (Vec::new(), Vec::new(), Vec::new());
            for (slot, &a) in cb.arrays().iter().enumerate() {
                match ints.iter().find(|(name, _)| *name == p.symbols.name(a)) {
                    Some((_, data)) => {
                        let dims = [data.len()].into();
                        let arr = ArrayData::Int {
                            data: data.clone().into(),
                            dims,
                        };
                        pins.push(RawPin::new(&arr, None));
                        kept.push(arr);
                    }
                    None => {
                        let mut buf = vec![0.0f64; 24];
                        let slice = RawSlice::Real(buf.as_mut_ptr(), 16);
                        pins.push(RawPin::new(&meta, Some(WriteSink::Direct(slice))));
                        reals.push((slot, buf));
                    }
                }
            }
            let st = FState {
                ir: vec![0; cb.int_registers()],
                fr: vec![0.0; cb.real_registers()],
                pins,
                linv: vec![0; cb.inner_loops().len()],
                lcost: vec![0; cb.inner_loops().len()],
                streams: true,
                ..FState::default()
            };
            Harness {
                st,
                reals,
                _ints: kept,
            }
        }

        /// Views every real array as `dim0` elements from subscript
        /// `origin`, with `fuel` left.
        fn view(&mut self, (origin, dim0): (usize, usize), fuel: u64) {
            assert!(origin >= 1 && origin - 1 + dim0 <= 16);
            for (slot, buf) in &mut self.reals {
                let pin = &mut self.st.pins[*slot];
                pin.fp = buf.as_mut_ptr().wrapping_add(origin - 1);
                (pin.origin, pin.dim0, pin.len) = (origin as u64, dim0 as u64, dim0);
            }
            self.st.fuel = fuel;
        }

        /// How many rows of `lo ..= hi` the kernel runs with the view.
        fn admitted(&mut self, sg: &SegStream, (lo, hi): (i64, i64), view: (usize, usize)) -> i64 {
            self.view(view, 1 << 40);
            self.st.run_seg(sg, lo, hi)
        }
    }

    /// The brute-force definition: the rows from `lo` on whose `row(r)`
    /// — `(ptr, jlo, hi)`, `None` when a load is outside `1 ..= rows` or
    /// `hi` leaves `i64` — is defined, whose subscript part `ptr - 1`
    /// fits an `i64` — an empty row's too — and whose every subscript
    /// `ptr + j - 1`, computed exactly, is inside the view — an empty row
    /// touching nothing — up to the first that is not. A row ending at
    /// `j = i64::MAX` is not run: advancing past it ends its loop.
    fn brute(
        row: impl Fn(i64) -> Option<(i64, i64, i64)>,
        (lo, hi): (i64, i64),
        (origin, dim0): (usize, usize),
    ) -> i64 {
        let inside = |s: i128| s >= origin as i128 && s < (origin + dim0) as i128;
        let mut m = 0;
        for r in lo..=hi {
            let Some((p, a, b)) = row(r) else {
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
    fn each_array<T: Copy>(rows: usize, vals: &[T], mut f: impl FnMut(&[T])) {
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

    /// A row-guard program's upper bound: its source, and its value in
    /// row `r`, the `k`-th of `rows` — `(ptr, jlo, jhi)` each — with
    /// `n`. Each takes a [`RowForm`] of its own: a load at a `c + i`
    /// entry with `c` 0 and 1, and `c − i`.
    type Hi = (
        &'static str,
        fn(&[(i64, i64, i64)], usize, i64, i64) -> Option<i64>,
    );

    const HIS: [Hi; 3] = [
        ("jhi(i)", |rows, k, _, _| Some(rows[k].2)),
        ("jhi(i + 1)", |rows, k, _, _| Some(rows.get(k + 1)?.2)),
        ("n - i", |_, _, r, n| n.checked_sub(r)),
    ];

    /// The row guard admits exactly the rows the brute-force definition
    /// does, for each bound of [`HIS`]. Rows are `(ptr, len)` pairs over
    /// −1 … 6 (`j = 1 .. len`; `j = len .. n − i` under `n − i`, `n` 1,
    /// 3 and 6): every array of up to two rows over every row range and
    /// view of 0 to 8 elements at two origins; of three rows over −1 … 3
    /// and the range `1 ..= 3`. `jhi(i)` also takes (release builds
    /// only) three rows over −1 … 6 and four over −1 … 3, over two
    /// ranges from the edges. Then one row with `ptr`, `jlo`, `jhi` and
    /// `n` at the ends of `i64`, where a sum computed without its
    /// overflow check lands inside the view.
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
                         (src, hi): Hi,
                         vals: &[(i64, i64, i64)],
                         ranges: &[(i64, i64)],
                         views: &[(usize, usize)],
                         ns: &[i64]| {
            let (p, cb) = program(n, src);
            let sg = cb.seg(0).unwrap();
            let n_reg = cb.scalars().iter().find(|s| p.symbols.name(s.var) == "n");
            // Under `n − i` the pair's length is the row's `jlo`.
            let minus = n_reg.is_some();
            each_array(n, vals, |rows| {
                let col = |f: fn(&(i64, i64, i64)) -> i64| rows.iter().map(f).collect();
                let ints = [
                    ("ptr", col(|r| r.0)),
                    ("jlo", col(if minus { |r| r.2 } else { |r| r.1 })),
                    ("jhi", col(|r| r.2)),
                ];
                let mut h = Harness::new(&p, &cb, &ints);
                for &nv in if minus { ns } else { &[0] } {
                    if let Some(reg) = n_reg {
                        h.st.ir[usize::from(reg.reg)] = nv;
                    }
                    let row = |r: i64| {
                        let k = usize::try_from(r - 1).ok()?;
                        let &(p, a, b) = rows.get(k)?;
                        Some((p, if minus { b } else { a }, hi(rows, k, r, nv)?))
                    };
                    for &range in ranges {
                        for &view in views {
                            let got = h.admitted(sg, range, view);
                            let want = brute(row, range, view);
                            assert_eq!(got, want, "{src} {nv} {rows:?} {range:?} {view:?}");
                            checked += 1;
                        }
                    }
                }
            });
        };
        let all_views: Vec<_> = views().collect();
        let origin_1: Vec<_> = (0..=8).map(|d| (1, d)).collect();
        let edges = |n: i64| [(0, n + 1), (1, n)];
        let ns = [1, 3, 6];
        for (k, hi) in HIS.into_iter().enumerate() {
            for n in 1..=2 {
                sweep(n, hi, &wide, &ranges(n), &all_views, &ns);
            }
            if cfg!(debug_assertions) || k > 0 {
                sweep(3, hi, &narrow, &[(1, 3)], &origin_1, &ns);
            } else {
                sweep(3, hi, &wide, &edges(3), &origin_1, &ns);
                sweep(4, hi, &narrow, &edges(4), &origin_1, &ns);
            }
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
        for hi in HIS {
            sweep(1, hi, &extremes, &[(1, 1)], &all_views, &ends);
        }
        assert!(checked > 1_000_000 || cfg!(debug_assertions), "{checked}");
    }

    /// An integer filter's range test is its comparison, at the ends of
    /// `i64` too, element by element and a block at a time.
    #[test]
    fn an_integer_test_is_its_comparison() {
        let ends = [
            i64::MIN,
            i64::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i64::MAX - 1,
            i64::MAX,
        ];
        let mut data = ends.to_vec();
        let x = Lin {
            p: data.as_mut_ptr(),
            len: data.len(),
        };
        for op in [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ] {
            for c in ends {
                let test = IntLin::new(x, op, c);
                let want: Vec<bool> = ends.iter().map(|v| cmp_res(op, v.cmp(&c))).collect();
                let got: Vec<bool> = (0..ends.len()).map(|t| test.at(t)).collect();
                assert_eq!(got, want, "{op:?} {c}");
                for t in 0..=ends.len() - BLOCK as usize {
                    let none = !want[t..t + BLOCK as usize].contains(&true);
                    assert_eq!(test.fails_block(t), none, "{op:?} {c} {t}");
                }
            }
        }
    }

    /// Element `v` of a 1-based array in a 0-based buffer.
    fn at(v: i64) -> usize {
        usize::try_from(v - 1).unwrap()
    }

    /// What iteration `j` of a strip statement does to `c`, `d` and `s`
    /// given `idx`.
    type Step = fn(&mut [f64], &[f64], &mut f64, &[i64], i64);

    /// A strip statement over `c(16)` and `d(16)` — one view for both —
    /// `idx`, `m = 3` and `s`, with what the brute force needs of it: the
    /// instantiation it runs on, its LINEAR references' offsets from `j`,
    /// whether it reads or scatters through `idx(j)`, whether it reduces
    /// into `c(m)`, and one iteration.
    struct StripCase {
        stmt: &'static str,
        arm: usize,
        lin: &'static [i64],
        indirect: bool,
        elem: bool,
        step: Step,
    }

    /// A lane sink in place and out of place, a lane sink with an
    /// INDIRECT operand, a scatter, an element and a scalar sink.
    const STRIP_CASES: [StripCase; 6] = [
        StripCase {
            stmt: "c(j) = c(j) * 0.5 + 1.0",
            arm: 1,
            lin: &[0],
            indirect: false,
            elem: false,
            step: |c, _, _, _, j| c[at(j)] = c[at(j)] * 0.5 + 1.0,
        },
        StripCase {
            stmt: "c(j + 4) = d(j) * 0.5 + 1.0",
            arm: 2,
            lin: &[4, 0],
            indirect: false,
            elem: false,
            step: |c, d, _, _, j| c[at(j + 4)] = d[at(j)] * 0.5 + 1.0,
        },
        StripCase {
            stmt: "c(j) = d(idx(j)) + 1.0",
            arm: 0,
            lin: &[0],
            indirect: true,
            elem: false,
            step: |c, d, _, idx, j| c[at(j)] = d[at(idx[at(j)])] + 1.0,
        },
        StripCase {
            stmt: "c(idx(j)) = d(j) * 2.0",
            arm: 3,
            lin: &[0],
            indirect: true,
            elem: false,
            step: |c, d, _, idx, j| c[at(idx[at(j)])] = d[at(j)] * 2.0,
        },
        StripCase {
            stmt: "c(m) = c(m) + d(j) * d(idx(j))",
            arm: 4,
            lin: &[0],
            indirect: true,
            elem: true,
            step: |c, d, _, idx, j| c[at(3)] = c[at(3)] + d[at(j)] * d[at(idx[at(j)])],
        },
        StripCase {
            stmt: "s = s + d(idx(j))",
            arm: 0,
            lin: &[],
            indirect: true,
            elem: false,
            step: |_, d, s, idx, j| *s += d[at(idx[at(j)])],
        },
    ];

    /// The brute-force strip: the iterations of `lo ..= hi` a stream runs
    /// with `fuel` left, every subscript computed exactly. None when an
    /// end of a LINEAR range — `idx(j)`'s included — or the reduction's
    /// element is out of view; else up to the first INDIRECT subscript
    /// out of view.
    fn brute_strip(
        case: &StripCase,
        idx: &[i64],
        (lo, hi): (i64, i64),
        (origin, dim0): (usize, usize),
        fuel: u64,
    ) -> usize {
        let (lo, hi) = (i128::from(lo), i128::from(hi));
        let n = (hi - lo + 1)
            .min(i128::from(i64::MAX) - lo)
            .min(i128::from(fuel / 2));
        let last = lo + n - 1;
        let inside = |s: i128| s >= origin as i128 && s < (origin + dim0) as i128;
        let lin = case.lin.iter().map(|&o| i128::from(o));
        if n <= 0
            || !lin.clone().all(|o| inside(lo + o) && inside(last + o))
            || (case.indirect && (lo < 1 || last > idx.len() as i128))
            || (case.elem && !inside(3))
        {
            return 0;
        }
        let subs = (lo..=last).map(|j| i128::from(idx[at(j as i64)]));
        match case.indirect {
            true => subs.take_while(|&k| inside(k)).count(),
            false => n as usize,
        }
    }

    /// The strip rule, on every tiny view, index array and strip range: a
    /// stream's strip runs exactly the brute-force prefix of iterations —
    /// all of them when both ends of each LINEAR range and every INDIRECT
    /// subscript are in view, up to the first INDIRECT miss otherwise,
    /// none when a LINEAR end is out of view — and leaves exactly what
    /// that prefix does: the elements, the scalar, the sink's write count
    /// and the fuel, whatever the sink. Index arrays of one to three
    /// elements over −1 … 7 (two in debug builds), every range inside
    /// them and one past each edge, three at the ends of `i64`, three
    /// budgets (one too small for an iteration) and views of 0 to 8
    /// elements at two origins.
    #[test]
    fn a_strip_runs_exactly_the_prefix_in_view() {
        let alphabet: Vec<i64> = (-1..=7).collect();
        let c0: Vec<f64> = (0..24).map(|k| 1.5 + k as f64).collect();
        let d0: Vec<f64> = (0..24).map(|k| 2.0 - 0.25 * k as f64).collect();
        let max_len = if cfg!(debug_assertions) { 2 } else { 3 };
        let (mut checked, mut partial) = (0u64, 0u64);
        for case in &STRIP_CASES {
            let mut entered = [0; 5];
            for len in 1..=max_len {
                let src = format!(
                    "program t
                     integer j, m, idx({len})
                     real s, c(16), d(16)
                     do j = 1, {len}
                       {}
                     enddo
                     end",
                    case.stmt
                );
                let p = parse_program(&src).unwrap();
                let cb = lower_do_loop(&p, p.procedure(p.main()).body[0]).unwrap();
                let sd = cb.stream(0).expect(case.stmt);
                let reg = |name| {
                    let v = p.symbols.lookup(name).unwrap();
                    let s = cb.scalars().iter().find(|s| s.var == v);
                    s.map(|s| usize::from(s.reg))
                };
                let (m, s_reg) = (reg("m"), reg("s"));
                let n = len as i64;
                let mut ranges: Vec<(i64, i64)> = (-1..=n + 1)
                    .flat_map(|lo| (lo..=n + 1).map(move |hi| (lo, hi)))
                    .collect();
                ranges.extend([
                    (i64::MAX - 1, i64::MAX),
                    (i64::MAX, i64::MAX),
                    (i64::MIN, 2),
                ]);
                each_array(len, &alphabet, |idx| {
                    let mut h = Harness::new(&p, &cb, &[("idx", idx.to_vec())]);
                    let names: Vec<&str> = (h.reals.iter())
                        .map(|r| p.symbols.name(cb.arrays()[r.0]))
                        .collect();
                    for &range in &ranges {
                        for view in views() {
                            for fuel in [1 << 40, 5, 1] {
                                for ((slot, buf), name) in h.reals.iter_mut().zip(&names) {
                                    buf.copy_from_slice(if *name == "c" { &c0 } else { &d0 });
                                    h.st.pins[*slot].writes = 0;
                                }
                                if let Some(r) = m {
                                    h.st.ir[r] = 3;
                                }
                                if let Some(r) = s_reg {
                                    h.st.fr[r] = 0.25;
                                }
                                h.view(view, fuel);
                                let got = h.st.run_stream(sd, range.0, range.1, true);
                                let want = brute_strip(case, idx, range, view, fuel);
                                let what =
                                    format!("{} {idx:?} {range:?} {view:?} {fuel}", case.stmt);
                                assert_eq!(got, want as i64, "{what}");
                                let (mut c, mut s) = (c0.clone(), 0.25);
                                for j in (range.0..).take(want) {
                                    (case.step)(&mut c, &d0, &mut s, idx, j);
                                }
                                let mut writes = 0;
                                for ((slot, buf), name) in h.reals.iter().zip(&names) {
                                    let want = if *name == "c" { &c } else { &d0 };
                                    assert_eq!(buf, want, "{name}: {what}");
                                    writes += h.st.pins[*slot].writes;
                                }
                                // Every iteration stores to the sink but a
                                // reduction into a register.
                                let stores = if s_reg.is_some() { 0 } else { want as u64 };
                                assert_eq!(writes, stores, "writes: {what}");
                                if let Some(r) = s_reg {
                                    assert_eq!(h.st.fr[r].to_bits(), s.to_bits(), "s: {what}");
                                }
                                assert_eq!(h.st.fuel, fuel - 2 * want as u64, "fuel: {what}");
                                checked += 1;
                                let short = want as u64 <= range.1.abs_diff(range.0);
                                partial += u64::from(want > 0 && short);
                            }
                        }
                    }
                    entered = std::array::from_fn(|k| entered[k] + h.st.probe.arms[k][0]);
                });
            }
            let arms: Vec<usize> = (0..5).filter(|&k| entered[k] > 0).collect();
            assert_eq!(arms, [case.arm], "{}", case.stmt);
        }
        assert!(partial > 1000, "{partial}");
        assert!(checked > 1_000_000 || cfg!(debug_assertions), "{checked}");
    }
}
