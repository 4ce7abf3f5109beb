//! Hand-written native Rust versions of the benchmark's sparse kernels.
//!
//! They serve two purposes. They are the *reference*: every hybrid run
//! of the `exec-*` workloads is compared bit for bit, final store and
//! printed output, with what these functions compute from the same
//! generated arrays — the reference never comes from the compiler or
//! the interpreter under test. And they are the hardware yardstick:
//! `native.kernel_ms` is what the loop costs when nothing is
//! interpreted.
//!
//! Floating-point operations are written in the same order as the
//! mini-Fortran sources and Rust never contracts `a * b + c` into a
//! fused multiply-add, so equal inputs give equal bits.
//!
//! Index arrays are 1-based, as in the sources.

use irr_exec::ArrayData;

/// What a kernel leaves behind: the arrays and scalars it wrote, and
/// the lines it printed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    pub arrays: Vec<(&'static str, Vec<f64>)>,
    pub scalars: Vec<(&'static str, i64)>,
    pub output: Vec<String>,
}

/// `y = A·x` over CRS (offset–length form).
pub fn spmv(ptr: &[i64], len: &[i64], idx: &[i64], val: &[f64], x: &[f64], y: &mut [f64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        let base = ptr[i] as usize - 1;
        for j in 0..len[i] as usize {
            acc += val[base + j] * x[idx[base + j] as usize - 1];
        }
        *yi = acc;
    }
}

/// In-place scaling of every CCS column segment.
pub fn colscale(ptr: &[i64], len: &[i64], cval: &mut [f64]) {
    for (p, l) in ptr.iter().zip(len) {
        let base = *p as usize - 1;
        for v in &mut cval[base..base + *l as usize] {
            *v = *v * 0.5 + 1.0;
        }
    }
}

/// Permutation scatter `pval(perm(k)) = aval(k)·2`.
pub fn permute(perm: &[i64], aval: &[f64], pval: &mut [f64]) {
    for (p, a) in perm.iter().zip(aval) {
        pval[*p as usize - 1] = a * 2.0;
    }
}

/// Affine scaling `bval(k) = aval(k)·1.5 + 0.25`.
pub fn scale(aval: &[f64], bval: &mut [f64]) {
    for (b, a) in bval.iter_mut().zip(aval) {
        *b = a * 1.5 + 0.25;
    }
}

/// Appends the (1-based) index of every row longer than `threshold` to
/// `heavy`; returns how many were appended.
pub fn rowgather(rowlen: &[i64], threshold: i64, heavy: &mut [i64]) -> usize {
    let mut q = 0;
    for (i, l) in rowlen.iter().enumerate() {
        if *l > threshold {
            heavy[q] = i as i64 + 1;
            q += 1;
        }
    }
    q
}

/// The kernels the `exec-*` workloads run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    Spmv,
    Scale,
    Colscale,
    Permute,
    Rowgather,
}

fn ints<'a>(presets: &'a [(&'static str, ArrayData)], name: &str) -> &'a [i64] {
    match presets.iter().find(|(n, _)| *n == name) {
        Some((_, ArrayData::Int { data, .. })) => data,
        _ => panic!("integer preset `{name}` missing"),
    }
}

fn reals<'a>(presets: &'a [(&'static str, ArrayData)], name: &str) -> &'a [f64] {
    match presets.iter().find(|(n, _)| *n == name) {
        Some((_, ArrayData::Real { data, .. })) => data,
        _ => panic!("real preset `{name}` missing"),
    }
}

/// `print a(1), a(mid), a(last)` as the interpreter formats it.
fn print_three(a: &[f64]) -> String {
    let mid = (a.len() / 2).max(1);
    format!("{} {} {}", a[0], a[mid - 1], a[a.len() - 1])
}

impl Kernel {
    /// Runs the kernel `sweeps` times over the generated arrays (the
    /// `exec-reentry` sources repeat the loop; `exec-large` runs it
    /// once) and returns the final state with the time the loops took,
    /// in nanoseconds. Allocation and formatting are outside the timing.
    pub fn reference(
        self,
        presets: &[(&'static str, ArrayData)],
        sweeps: usize,
    ) -> (Reference, u64) {
        let timed = |f: &mut dyn FnMut()| {
            let t0 = std::time::Instant::now();
            for _ in 0..sweeps {
                f();
            }
            t0.elapsed().as_nanos() as u64
        };
        match self {
            Kernel::Spmv => {
                let (ptr, len) = (ints(presets, "rowptr"), ints(presets, "rowlen"));
                let (idx, val) = (ints(presets, "colidx"), reals(presets, "aval"));
                let x = reals(presets, "x");
                let mut y = vec![0.0; len.len()];
                let ns = timed(&mut || spmv(ptr, len, idx, val, x, std::hint::black_box(&mut y)));
                let output = vec![print_three(&y)];
                (
                    Reference {
                        arrays: vec![("y", y)],
                        scalars: vec![],
                        output,
                    },
                    ns,
                )
            }
            Kernel::Colscale => {
                let (ptr, len) = (ints(presets, "colptr"), ints(presets, "collen"));
                let mut cval = reals(presets, "cval").to_vec();
                let ns = timed(&mut || colscale(ptr, len, std::hint::black_box(&mut cval)));
                let output = vec![print_three(&cval)];
                (
                    Reference {
                        arrays: vec![("cval", cval)],
                        scalars: vec![],
                        output,
                    },
                    ns,
                )
            }
            Kernel::Permute => {
                let (perm, aval) = (ints(presets, "perm"), reals(presets, "aval"));
                let mut pval = vec![0.0; aval.len()];
                let ns = timed(&mut || permute(perm, aval, std::hint::black_box(&mut pval)));
                let output = vec![print_three(&pval)];
                (
                    Reference {
                        arrays: vec![("pval", pval)],
                        scalars: vec![],
                        output,
                    },
                    ns,
                )
            }
            Kernel::Scale => {
                let aval = reals(presets, "aval");
                let mut bval = vec![0.0; aval.len()];
                let ns = timed(&mut || scale(aval, std::hint::black_box(&mut bval)));
                let output = vec![print_three(&bval)];
                (
                    Reference {
                        arrays: vec![("bval", bval)],
                        scalars: vec![],
                        output,
                    },
                    ns,
                )
            }
            Kernel::Rowgather => {
                let rowlen = ints(presets, "rowlen");
                let threshold = rowlen.iter().sum::<i64>() / rowlen.len().max(1) as i64;
                let mut heavy = vec![0i64; rowlen.len()];
                let mut q = 0;
                let ns = timed(&mut || {
                    q = rowgather(rowlen, threshold, std::hint::black_box(&mut heavy));
                });
                let output = vec![format!("{q} {}", heavy[0])];
                (
                    Reference {
                        arrays: vec![("heavy", heavy.iter().map(|v| *v as f64).collect())],
                        scalars: vec![("q", q as i64)],
                        output,
                    },
                    ns,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_what_the_sources_say() {
        // 3×3, rows {1: (1,2)}, {2: ()}, {3: (3,1)} in offset–length form.
        let (ptr, len) = ([1, 3, 3, 5], [2, 0, 2]);
        let (idx, val) = ([1, 2, 3, 1], [2.0, 3.0, 4.0, 5.0]);
        let x = [1.0, 10.0, 100.0];
        let mut y = [9.0; 3];
        spmv(&ptr, &len, &idx, &val, &x, &mut y);
        assert_eq!(y, [32.0, 0.0, 405.0]);

        let mut c = [2.0, 4.0, 6.0, 8.0];
        colscale(&[1, 3], &[2, 1], &mut c);
        assert_eq!(c, [2.0, 3.0, 4.0, 8.0]);

        let mut p = [0.0; 3];
        permute(&[3, 1, 2], &[1.0, 2.0, 3.0], &mut p);
        assert_eq!(p, [4.0, 6.0, 2.0]);

        let mut b = [0.0; 2];
        scale(&[2.0, 4.0], &mut b);
        assert_eq!(b, [3.25, 6.25]);

        let mut heavy = [0; 4];
        assert_eq!(rowgather(&[5, 1, 7, 2], 2, &mut heavy), 2);
        assert_eq!(heavy, [1, 3, 0, 0]);
    }
}
