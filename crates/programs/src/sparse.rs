//! The sparse kernel library: lowers generated [`SparseMatrix`] data
//! into mini-Fortran programs written in the offset–length
//! `a(ptr(i)+j)` form the driver's irregular analyses target.
//!
//! Each kernel comes with its expected dispatch tier and strategy
//! facts, so the suite doubles as a verdict-stability test: together
//! the nine kernels span all three tiers (compile-time parallel,
//! runtime-guarded, sequential) and all three execution strategies
//! (write-log, in-place disjoint, privatize-and-concat).
//!
//! The index and value arrays are *not* initialized by interpreted
//! loops — at 10M nonzeros that would dominate every run. They are
//! carried as presets: `(array name, data)` pairs the caller injects
//! with `Interp::preset_array` (or `run_hybrid_seeded`) after
//! compiling the source. A preset is its array's storage for the whole
//! run — the interpreter allocates only the arrays without one and the
//! audit's randomized fill never touches it — so the compile-time
//! verdicts and the runtime inspections see the same arrays. Installing
//! one shares its buffer: a run copies a preset only to store to it.

use crate::Case;
use irr_exec::{ArrayData, SplitMix64};
use irr_sparse::{
    generate, int_array, random_permutation, random_successors, real_array, Layout, MatrixSpec,
    SparseMatrix, Structure,
};

/// The dispatch tier a kernel's main loop must land on (mirrors the
/// driver's `DispatchTier` without depending on the driver crate).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpectedTier {
    CompileTimeParallel,
    RuntimeGuarded,
    Sequential,
}

/// One generated sparse kernel: source, presets, and the expected
/// verdict for its main loop.
#[derive(Clone, Debug)]
pub struct SparseProgram {
    /// Kernel name (lower case, stable across sizes).
    pub name: &'static str,
    /// `PROG/doNN` label of the kernel's main loop.
    pub label: String,
    /// Mini-Fortran source.
    pub source: String,
    /// `(array name, data)` presets to inject before running.
    pub presets: Vec<(&'static str, ArrayData)>,
    /// The dispatch tier the driver must assign the main loop.
    pub expected_tier: ExpectedTier,
    /// The strategy facts (`StrategyFacts::name()`) the verdict must
    /// carry: `"none"`, one of the in-place shapes (`"disjoint-affine"`,
    /// `"offset-length-segment"`, `"certified-scatter"`), or
    /// `"consecutive-append"`.
    pub expected_facts: &'static str,
}

/// The kernel as a corpus item, under its own name.
impl From<&SparseProgram> for Case {
    fn from(k: &SparseProgram) -> Case {
        Case {
            name: k.name.to_string(),
            source: k.source.clone(),
            presets: k.presets.clone(),
        }
    }
}

/// The three matrix structures every sweep of the suite covers.
pub const STRUCTURES: [Structure; 3] = [
    Structure::Banded { bandwidth: 8 },
    Structure::Uniform,
    Structure::PowerLaw,
];

/// Workload parameters for one suite instantiation.
#[derive(Clone, Copy, Debug)]
pub struct SparseScale {
    /// Rows (= columns) of the square system.
    pub n: usize,
    /// Nonzeros.
    pub nnz: usize,
    pub structure: Structure,
    pub seed: u64,
}

impl SparseScale {
    /// A small instance for unit tests (fast to interpret).
    pub fn test(structure: Structure, seed: u64) -> SparseScale {
        SparseScale {
            n: 48,
            nnz: 480,
            structure,
            seed,
        }
    }
}

fn crs(scale: &SparseScale) -> SparseMatrix {
    generate(&MatrixSpec::square(
        scale.n,
        scale.nnz,
        scale.structure,
        scale.seed,
    ))
}

fn ccs(scale: &SparseScale) -> SparseMatrix {
    generate(&MatrixSpec {
        rows: scale.n,
        cols: scale.n,
        nnz: scale.nnz,
        structure: scale.structure,
        layout: Layout::Ccs,
        seed: scale.seed.wrapping_add(1),
    })
}

/// Deterministic real vector in `[0.5, 1.5)` for right-hand sides and
/// input vectors.
fn dense_reals(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n.max(1)).map(|_| 0.5 + rng.next_f64()).collect()
}

fn mid(n: usize) -> usize {
    (n / 2).max(1)
}

/// Segment index (1-based) of every nonzero, in storage order: the
/// `rowof`/`colof` preset the producer kernels histogram over. For a
/// CRS matrix the nonzeros are row-sorted, so the prefix sum the
/// program computes over this histogram reproduces `m.ptr` exactly.
fn segment_of(m: &SparseMatrix) -> Vec<i64> {
    let mut out = Vec::with_capacity(m.nnz());
    for (i, &l) in m.len.iter().enumerate() {
        for _ in 0..l {
            out.push((i + 1) as i64);
        }
    }
    out
}

/// All nine kernels at the given scale, in a stable order.
pub fn kernels(scale: &SparseScale) -> Vec<SparseProgram> {
    vec![
        spmv(scale),
        jacobi(scale),
        trisolve(scale),
        lufront(scale),
        colscale(scale),
        chase(scale),
        scale_kernel(scale),
        permute(scale),
        rowgather(scale),
    ]
}

/// The three producer-loop kernels, in a stable order: the same
/// consumers as `lufront`, `colscale`, and `permute`, but the index
/// arrays are built by in-program producer loops instead of arriving
/// as presets. The value-evolution analysis proves offset–length /
/// injectivity at compile time, so the consumer loops promote to
/// `CompileTimeParallel` with their runtime inspections retired.
pub fn producer_kernels(scale: &SparseScale) -> Vec<SparseProgram> {
    vec![
        lufront_producer(scale),
        colscale_producer(scale),
        permute_producer(scale),
    ]
}

/// Sparse matrix–vector product `y = A·x` over CRS: every access to
/// the written array subscripts the outer loop variable directly, so
/// the identity-dimension test proves the loop parallel at compile
/// time; the nested segment loop keeps the strategy on the write-log.
pub fn spmv(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let (r, e) = (m.segments(), m.nnz().max(1));
    let source = format!(
        "program spmv
  integer i, j, n, rowptr({rp}), rowlen({r}), colidx({e})
  real aval({e}), x({c}), y({r})
  n = {r}
  do 100 i = 1, n
    y(i) = 0.0
    do j = 1, rowlen(i)
      y(i) = y(i) + aval(rowptr(i) + j - 1) * x(colidx(rowptr(i) + j - 1))
    enddo
 100 continue
  print y(1), y({m}), y({r})
end
",
        rp = r + 1,
        c = m.cols,
        m = mid(r),
    );
    SparseProgram {
        name: "spmv",
        label: "SPMV/do100".into(),
        source,
        presets: vec![
            ("rowptr", int_array(&m.ptr)),
            ("rowlen", int_array(&m.len)),
            ("colidx", int_array(&m.idx)),
            ("aval", real_array(&m.val)),
            ("x", real_array(&dense_reals(m.cols, scale.seed ^ 0x51))),
        ],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "disjoint-affine",
    }
}

/// One Jacobi sweep `xnew = (b − A·xold)·dinv` over CRS: compile-time
/// parallel for the same reason as SpMV.
pub fn jacobi(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let (r, e) = (m.segments(), m.nnz().max(1));
    let source = format!(
        "program jacobi
  integer i, j, n, rowptr({rp}), rowlen({r}), colidx({e})
  real aval({e}), xold({c}), xnew({r}), b({r}), dinv({r})
  n = {r}
  do 200 i = 1, n
    xnew(i) = b(i)
    do j = 1, rowlen(i)
      xnew(i) = xnew(i) - aval(rowptr(i) + j - 1) * xold(colidx(rowptr(i) + j - 1))
    enddo
    xnew(i) = xnew(i) * dinv(i)
 200 continue
  print xnew(1), xnew({m}), xnew({r})
end
",
        rp = r + 1,
        c = m.cols,
        m = mid(r),
    );
    SparseProgram {
        name: "jacobi",
        label: "JACOBI/do200".into(),
        source,
        presets: vec![
            ("rowptr", int_array(&m.ptr)),
            ("rowlen", int_array(&m.len)),
            ("colidx", int_array(&m.idx)),
            ("aval", real_array(&m.val)),
            ("xold", real_array(&dense_reals(m.cols, scale.seed ^ 0x52))),
            ("b", real_array(&dense_reals(r, scale.seed ^ 0x53))),
            ("dinv", real_array(&dense_reals(r, scale.seed ^ 0x54))),
        ],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "disjoint-affine",
    }
}

/// Sparse forward substitution `L·xsol = b` over the strictly-lower
/// triangle: iteration `i` reads `xsol` at earlier rows through the
/// index array, a genuine loop-carried dependence no inspection can
/// clear — proven (and kept) sequential.
pub fn trisolve(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale).strict_lower();
    let (r, e) = (m.segments(), m.nnz().max(1));
    let source = format!(
        "program trisolve
  integer i, j, n, lptr({rp}), llen({r}), lidx({e})
  real lval({e}), xsol({r}), b({r}), dinv({r})
  n = {r}
  do 300 i = 1, n
    xsol(i) = b(i)
    do j = 1, llen(i)
      xsol(i) = xsol(i) - lval(lptr(i) + j - 1) * xsol(lidx(lptr(i) + j - 1))
    enddo
    xsol(i) = xsol(i) * dinv(i)
 300 continue
  print xsol(1), xsol({m}), xsol({r})
end
",
        rp = r + 1,
        m = mid(r),
    );
    SparseProgram {
        name: "trisolve",
        label: "TRISOLVE/do300".into(),
        source,
        presets: vec![
            ("lptr", int_array(&m.ptr)),
            ("llen", int_array(&m.len)),
            ("lidx", int_array(&m.idx)),
            ("lval", real_array(&m.val)),
            ("b", real_array(&dense_reals(r, scale.seed ^ 0x55))),
            ("dinv", real_array(&dense_reals(r, scale.seed ^ 0x56))),
        ],
        expected_tier: ExpectedTier::Sequential,
        expected_facts: "none",
    }
}

/// LU factorization front updates over CRS: each row's segment of the
/// `front` workspace is scaled and accumulated in place. The segments
/// are disjoint exactly when `rowptr`/`rowlen` form an offset–length
/// chain — unprovable for preset arrays, so the loop lands on the
/// runtime-guarded tier with an offset–length inspection.
pub fn lufront(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let (r, e) = (m.segments(), m.nnz().max(1));
    let front = dense_reals(e, scale.seed ^ 0x57);
    let source = format!(
        "program lufront
  integer i, j, n, rowptr({rp}), rowlen({r})
  real aval({e}), front({e})
  n = {r}
  do 400 i = 1, n
    do j = 1, rowlen(i)
      front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98 + aval(rowptr(i) + j - 1)
    enddo
 400 continue
  print front(1), front({me}), front({e})
end
",
        rp = r + 1,
        me = mid(e),
    );
    SparseProgram {
        name: "lufront",
        label: "LUFRONT/do400".into(),
        source,
        presets: vec![
            ("rowptr", int_array(&m.ptr)),
            ("rowlen", int_array(&m.len)),
            ("aval", real_array(&m.val)),
            ("front", real_array(&front)),
        ],
        expected_tier: ExpectedTier::RuntimeGuarded,
        expected_facts: "offset-length-segment",
    }
}

/// `lufront` with the offset–length chain built *in the program*:
/// an init loop zeroes `rowlen`, a histogram over the preset `rowof`
/// counts nonzeros per row, and a prefix-sum loop derives `rowptr`.
/// Value evolution proves `rowlen ≥ 0` (fill + accumulate) and the
/// `rowptr(i+1) = rowptr(i) + rowlen(i)` chain, so the do-400 consumer
/// needs no offset–length inspection — it is compile-time parallel.
pub fn lufront_producer(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let (r, e) = (m.segments(), m.nnz().max(1));
    let front = dense_reals(e, scale.seed ^ 0x57);
    let source = format!(
        "program lufrontp
  integer i, j, k, n, nnz, rowptr({rp}), rowlen({r}), rowof({e})
  real aval({e}), front({e})
  n = {r}
  nnz = {anz}
  do 310 i = 1, n
    rowlen(i) = 0
 310 continue
  do 320 k = 1, nnz
    rowlen(rowof(k)) = rowlen(rowof(k)) + 1
 320 continue
  rowptr(1) = 1
  do 330 i = 1, n
    rowptr(i + 1) = rowptr(i) + rowlen(i)
 330 continue
  do 400 i = 1, n
    do j = 1, rowlen(i)
      front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98 + aval(rowptr(i) + j - 1)
    enddo
 400 continue
  print front(1), front({me}), front({e})
end
",
        rp = r + 1,
        anz = m.nnz(),
        me = mid(e),
    );
    SparseProgram {
        name: "lufront_producer",
        label: "LUFRONTP/do400".into(),
        source,
        presets: vec![
            ("rowof", int_array(&segment_of(&m))),
            ("aval", real_array(&m.val)),
            ("front", real_array(&front)),
        ],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "offset-length-segment",
    }
}

/// CCS column scaling (the Fig. 3 shape at generated scale): in-place
/// update of each column segment through preset `colptr`/`collen` —
/// runtime-guarded by the offset–length inspection, like `lufront`,
/// but over the column-compressed layout.
pub fn colscale(scale: &SparseScale) -> SparseProgram {
    let m = ccs(scale);
    let (s, e) = (m.segments(), m.nnz().max(1));
    let source = format!(
        "program colscale
  integer i, j, ncol, colptr({sp}), collen({s})
  real cval({e})
  ncol = {s}
  do 500 i = 1, ncol
    do j = 1, collen(i)
      cval(colptr(i) + j - 1) = cval(colptr(i) + j - 1) * 0.5 + 1.0
    enddo
 500 continue
  print cval(1), cval({me}), cval({e})
end
",
        sp = s + 1,
        me = mid(e),
    );
    SparseProgram {
        name: "colscale",
        label: "COLSCALE/do500".into(),
        source,
        presets: vec![
            ("colptr", int_array(&m.ptr)),
            ("collen", int_array(&m.len)),
            ("cval", real_array(&m.val)),
        ],
        expected_tier: ExpectedTier::RuntimeGuarded,
        expected_facts: "offset-length-segment",
    }
}

/// `colscale` with an in-program producer chain over the CCS layout:
/// zero-fill, histogram over the preset `colof`, prefix-sum into
/// `colptr` — the do-500 consumer's offset–length inspection is
/// retired and the loop promotes to compile-time parallel.
pub fn colscale_producer(scale: &SparseScale) -> SparseProgram {
    let m = ccs(scale);
    let (s, e) = (m.segments(), m.nnz().max(1));
    let source = format!(
        "program colscalep
  integer i, j, k, ncol, nnz, colptr({sp}), collen({s}), colof({e})
  real cval({e})
  ncol = {s}
  nnz = {anz}
  do 510 i = 1, ncol
    collen(i) = 0
 510 continue
  do 520 k = 1, nnz
    collen(colof(k)) = collen(colof(k)) + 1
 520 continue
  colptr(1) = 1
  do 530 i = 1, ncol
    colptr(i + 1) = colptr(i) + collen(i)
 530 continue
  do 500 i = 1, ncol
    do j = 1, collen(i)
      cval(colptr(i) + j - 1) = cval(colptr(i) + j - 1) * 0.5 + 1.0
    enddo
 500 continue
  print cval(1), cval({me}), cval({e})
end
",
        sp = s + 1,
        anz = m.nnz(),
        me = mid(e),
    );
    SparseProgram {
        name: "colscale_producer",
        label: "COLSCALEP/do500".into(),
        source,
        presets: vec![
            ("colof", int_array(&segment_of(&m))),
            ("cval", real_array(&m.val)),
        ],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "offset-length-segment",
    }
}

/// Pointer-chasing traversal: every row walks a successor chain
/// through `nxt`, accumulating weights into `acc(i)`. The chased
/// pointer `p` and hop counter `h` privatize (written before read each
/// iteration), and `acc` is identity-subscripted — compile-time
/// parallel despite the irregular read stream.
pub fn chase(scale: &SparseScale) -> SparseProgram {
    let r = scale.n.max(1);
    let nodes = scale.nnz.max(1);
    let mut rng = SplitMix64::new(scale.seed ^ 0x58);
    let head: Vec<i64> = (0..r).map(|_| rng.range_i64(1, nodes as i64)).collect();
    let source = format!(
        "program chase
  integer i, p, h, n, nhop, head({r}), nxt({nodes})
  real w({nodes}), acc({r})
  n = {r}
  nhop = 8
  do 600 i = 1, n
    acc(i) = 0.0
    p = head(i)
    h = 0
    while (h < nhop)
      acc(i) = acc(i) + w(p)
      p = nxt(p)
      h = h + 1
    endwhile
 600 continue
  print acc(1), acc({m}), acc({r})
end
",
        m = mid(r),
    );
    SparseProgram {
        name: "chase",
        label: "CHASE/do600".into(),
        source,
        presets: vec![
            ("head", int_array(&head)),
            (
                "nxt",
                int_array(&random_successors(nodes, scale.seed ^ 0x59)),
            ),
            ("w", real_array(&dense_reals(nodes, scale.seed ^ 0x5a))),
        ],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "disjoint-affine",
    }
}

/// Flat nonzero scaling `bval(k) = aval(k)·1.5 + 0.25`: straight-line
/// body, every write at the loop variable, target never read — the
/// driver proves the disjoint-affine facts and the runtime commits in
/// place with no write-log.
pub fn scale_kernel(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let e = m.nnz().max(1);
    let source = format!(
        "program scale
  integer k, nnz
  real aval({e}), bval({e})
  nnz = {e}
  do 700 k = 1, nnz
    bval(k) = aval(k) * 1.5 + 0.25
 700 continue
  print bval(1), bval({me}), bval({e})
end
",
        me = mid(e),
    );
    SparseProgram {
        name: "scale",
        label: "SCALE/do700".into(),
        source,
        presets: vec![("aval", real_array(&m.val))],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "disjoint-affine",
    }
}

/// Permutation scatter `pval(perm(k)) = aval(k)·2.0`: parallel exactly
/// when `perm` is injective — unprovable for a preset array, so the
/// loop is runtime-guarded by the injectivity inspection (the chunked
/// parallel bitmap path at bench sizes).
pub fn permute(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let e = m.nnz().max(1);
    let source = format!(
        "program permute
  integer k, nnz, perm({e})
  real aval({e}), pval({e})
  nnz = {e}
  do 800 k = 1, nnz
    pval(perm(k)) = aval(k) * 2.0
 800 continue
  print pval(1), pval({me}), pval({e})
end
",
        me = mid(e),
    );
    SparseProgram {
        name: "permute",
        label: "PERMUTE/do800".into(),
        source,
        presets: vec![
            ("perm", int_array(&random_permutation(e, scale.seed ^ 0x5b))),
            ("aval", real_array(&m.val)),
        ],
        expected_tier: ExpectedTier::RuntimeGuarded,
        expected_facts: "certified-scatter",
    }
}

/// `permute` with the permutation built by an in-program reversal
/// fill `perm(k) = nnz + 1 - k`: value evolution proves the fill
/// injective over the loop range, so the do-800 scatter needs no
/// injectivity inspection — compile-time parallel.
pub fn permute_producer(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let e = m.nnz().max(1);
    let source = format!(
        "program permutep
  integer k, nnz, perm({e})
  real aval({e}), pval({e})
  nnz = {anz}
  do 710 k = 1, nnz
    perm(k) = nnz + 1 - k
 710 continue
  do 800 k = 1, nnz
    pval(perm(k)) = aval(k) * 2.0
 800 continue
  print pval(1), pval({me}), pval({e})
end
",
        anz = m.nnz(),
        me = mid(e),
    );
    SparseProgram {
        name: "permute_producer",
        label: "PERMUTEP/do800".into(),
        source,
        presets: vec![("aval", real_array(&m.val))],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "none",
    }
}

/// `lufront_producer` with the whole producer chain moved into a
/// subroutine the inliner must skip (its loops are labeled): the
/// offset–length facts reach the do-400 consumer only via the
/// interprocedural summaries, so the loop promotes to
/// `CompileTimeParallel` exactly when summaries are enabled — the
/// SPARK00-style decomposed-kernel shape.
pub fn lufront_callchain(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let (r, e) = (m.segments(), m.nnz().max(1));
    let front = dense_reals(e, scale.seed ^ 0x65);
    let source = format!(
        "program lufrontc
  integer i, j, k, n, nnz, rowptr({rp}), rowlen({r}), rowof({e})
  real aval({e}), front({e})
  n = {r}
  call crsbld
  do 400 i = 1, n
    do j = 1, rowlen(i)
      front(rowptr(i) + j - 1) = front(rowptr(i) + j - 1) * 0.98 + aval(rowptr(i) + j - 1)
    enddo
 400 continue
  print front(1), front({me}), front({e})
end
subroutine crsbld
  integer i, k, nnz, rowptr({rp}), rowlen({r}), rowof({e})
  do 610 i = 1, {r}
    rowlen(i) = 0
 610 continue
  do 620 k = 1, {anz}
    rowlen(rowof(k)) = rowlen(rowof(k)) + 1
 620 continue
  rowptr(1) = 1
  do 630 i = 1, {r}
    rowptr(i + 1) = rowptr(i) + rowlen(i)
 630 continue
end
",
        rp = r + 1,
        anz = m.nnz(),
        me = mid(e),
    );
    SparseProgram {
        name: "lufront_callchain",
        label: "LUFRONTC/do400".into(),
        source,
        presets: vec![
            ("rowof", int_array(&segment_of(&m))),
            ("aval", real_array(&m.val)),
            ("front", real_array(&front)),
        ],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "offset-length-segment",
    }
}

/// `permute_producer` with the reversal fill hidden in a subroutine
/// (labeled loop, so never inlined): the injectivity fact crosses the
/// call via summaries and the do-800 scatter promotes — without them
/// it stays runtime-guarded.
pub fn permute_callchain(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let e = m.nnz().max(1);
    let source = format!(
        "program permutec
  integer k, nnz, perm({e})
  real aval({e}), pval({e})
  nnz = {anz}
  call permbld
  do 800 k = 1, nnz
    pval(perm(k)) = aval(k) * 2.0
 800 continue
  print pval(1), pval({me}), pval({e})
end
subroutine permbld
  integer k, perm({e})
  do 710 k = 1, {anz}
    perm(k) = {anz} + 1 - k
 710 continue
end
",
        anz = m.nnz(),
        me = mid(e),
    );
    SparseProgram {
        name: "permute_callchain",
        label: "PERMUTEC/do800".into(),
        source,
        presets: vec![("aval", real_array(&m.val))],
        expected_tier: ExpectedTier::CompileTimeParallel,
        expected_facts: "none",
    }
}

/// The call-structured producer kernels, in a stable order: consumers
/// identical to the producer kernels', but the index arrays are built
/// by subroutines the inliner cannot flatten. Their promotion is the
/// acceptance test of the interprocedural summary pass.
pub fn interproc_kernels(scale: &SparseScale) -> Vec<SparseProgram> {
    vec![lufront_callchain(scale), permute_callchain(scale)]
}

/// Heavy-row gathering: appends the indices of rows longer than the
/// mean to a compacted list through an incremented pointer. The
/// pointer dependence proves the loop sequential, but the
/// consecutive-append facts promote it to the privatize-and-concat
/// strategy at dispatch time.
pub fn rowgather(scale: &SparseScale) -> SparseProgram {
    let m = crs(scale);
    let r = m.segments();
    let threshold = (m.nnz() / r.max(1)) as i64;
    let source = format!(
        "program rowgather
  integer i, n, q, rowlen({r}), heavy({r})
  n = {r}
  q = 0
  do 900 i = 1, n
    if (rowlen(i) > {threshold}) then
      q = q + 1
      heavy(q) = i
    endif
 900 continue
  print q, heavy(1)
end
",
    );
    SparseProgram {
        name: "rowgather",
        label: "ROWGATHER/do900".into(),
        source,
        presets: vec![("rowlen", int_array(&m.len))],
        expected_tier: ExpectedTier::Sequential,
        expected_facts: "consecutive-append",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irr_frontend::parse_program;

    #[test]
    fn all_kernels_parse_at_test_scale() {
        for structure in STRUCTURES {
            let scale = SparseScale::test(structure, 42);
            let mut ks = kernels(&scale);
            assert_eq!(ks.len(), 9);
            let pks = producer_kernels(&scale);
            assert_eq!(pks.len(), 3);
            ks.extend(pks);
            for k in &ks {
                let p = parse_program(&k.source)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{}", k.name, k.source));
                for (name, data) in &k.presets {
                    assert!(
                        p.symbols.lookup(name).is_some(),
                        "{}: preset `{name}` undeclared",
                        k.name
                    );
                    assert!(!data.is_empty());
                }
            }
        }
    }

    #[test]
    fn kernels_parse_at_edge_scales() {
        for scale in [
            // Zero nonzeros: every segment empty, padded presets.
            SparseScale {
                n: 8,
                nnz: 0,
                structure: Structure::Uniform,
                seed: 1,
            },
            // Single row.
            SparseScale {
                n: 1,
                nnz: 12,
                structure: Structure::Banded { bandwidth: 4 },
                seed: 2,
            },
        ] {
            for k in kernels(&scale).into_iter().chain(producer_kernels(&scale)) {
                parse_program(&k.source)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{}", k.name, k.source));
            }
        }
    }

    #[test]
    fn suite_spans_all_tiers_and_strategies() {
        let ks = kernels(&SparseScale::test(Structure::Uniform, 7));
        let tiers: Vec<ExpectedTier> = ks.iter().map(|k| k.expected_tier).collect();
        assert!(tiers.contains(&ExpectedTier::CompileTimeParallel));
        assert!(tiers.contains(&ExpectedTier::RuntimeGuarded));
        assert!(tiers.contains(&ExpectedTier::Sequential));
        let facts: Vec<&str> = ks.iter().map(|k| k.expected_facts).collect();
        assert!(facts.contains(&"none"));
        assert!(facts.contains(&"disjoint-affine"));
        assert!(facts.contains(&"consecutive-append"));
    }

    #[test]
    fn producer_kernels_expect_promotion_everywhere() {
        let pks = producer_kernels(&SparseScale::test(Structure::PowerLaw, 11));
        assert_eq!(pks.len(), 3);
        for k in &pks {
            assert_eq!(
                k.expected_tier,
                ExpectedTier::CompileTimeParallel,
                "{}: producer kernels exist to exercise evolution promotion",
                k.name
            );
            parse_program(&k.source).unwrap_or_else(|e| panic!("{}: {e}\n{}", k.name, k.source));
        }
    }

    #[test]
    fn interproc_kernels_parse_and_keep_the_producers_out_of_line() {
        let iks = interproc_kernels(&SparseScale::test(Structure::Uniform, 13));
        assert_eq!(iks.len(), 2);
        for k in &iks {
            assert_eq!(k.expected_tier, ExpectedTier::CompileTimeParallel);
            let p = parse_program(&k.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", k.name, k.source));
            assert_eq!(
                p.procedures.len(),
                2,
                "{}: the producer chain must live in a subroutine",
                k.name
            );
            // Labeled producer loops keep the subroutine out of the
            // inliner, so promotion genuinely crosses the call.
            let sub = &p.procedures[1];
            assert!(p.stmts_in(&sub.body).iter().any(|&s| matches!(
                p.stmt(s).kind,
                irr_frontend::StmtKind::Do { label: Some(_), .. }
            )));
        }
    }

    #[test]
    fn segment_map_reproduces_the_pointer_array() {
        // The prefix sum the producer programs compute over the
        // `segment_of` histogram must land exactly on the generator's
        // `ptr`, or the producer kernels would compute different
        // segment windows than their preset-based counterparts.
        let m = crs(&SparseScale::test(Structure::Uniform, 9));
        let of = segment_of(&m);
        assert_eq!(of.len(), m.nnz());
        let mut ptr = vec![1i64];
        for i in 0..m.segments() {
            let cnt = of.iter().filter(|&&s| s == (i + 1) as i64).count() as i64;
            ptr.push(ptr[i] + cnt);
        }
        assert_eq!(ptr, m.ptr);
    }
}
