//! The paper's worked examples as embedded sources, so the audit and
//! lint binaries, the test suites and CI replay one list without the
//! test tree.

/// A named source: one of the paper's worked figures.
#[derive(Clone, Copy, Debug)]
pub struct Figure {
    /// Short name (FIG1A, FIG1B, ...).
    pub name: &'static str,
    /// Mini-Fortran source.
    pub source: &'static str,
}

/// The paper's worked examples: Fig. 1(a) linked-list gather, Fig. 1(b)
/// array stack, Fig. 1(c) bounded indirect read, and the mod-permutation
/// kernel exercising the runtime-guarded tier.
pub fn figures() -> Vec<Figure> {
    vec![
        Figure {
            name: "FIG1A",
            source: "program fig1a
         integer i, j, k, n, p, link(100, 10)
         real x(100), y(100), z(10, 100)
         n = 10
         call init
         do k = 1, n
           p = 0
           i = link(1, k)
           while (i /= 0)
             p = p + 1
             x(p) = y(i)
             i = link(i, k)
           endwhile
           do j = 1, p
             z(k, j) = x(j)
           enddo
         enddo
         print z(1, 1)
         end
         subroutine init
         integer w, c
         do w = 1, 100
           y(w) = w * 0.5
         enddo
         do c = 1, 10
           do w = 1, 99
             link(w, c) = w + 1
           enddo
           link(100, c) = 0
           link(mod(c * 7, 20) + 40, c) = 0
         enddo
         end",
        },
        Figure {
            name: "FIG1B",
            source: "program fig1b
      integer i, j, n, m, p, cond(64)
      real t(64), work(64), out(64)
      n = 32
      m = 24
      call init
      do 100 i = 1, n
        p = 0
        do j = 1, m
          p = p + 1
          t(p) = work(j) + i
          if (cond(j) > 0) then
            while (p >= 1)
              out(i) = out(i) + t(p)
              p = p - 1
            endwhile
          endif
        enddo
 100  continue
      print out(1), out(32)
    end
    subroutine init
      integer w
      do w = 1, 64
        work(w) = w * 0.25
        cond(w) = mod(w, 3)
      enddo
    end",
        },
        Figure {
            name: "FIG1C",
            source: "program fig1c
      integer i, j, k, n, m, q, pos(64)
      real x(64), y(64), z(64, 64)
      n = 16
      m = 32
      call gather
      do 100 i = 1, n
        do j = 1, m
          x(j) = y(i) + j * 0.5
        enddo
        do k = 1, q
          z(i, k) = x(pos(k))
        enddo
 100  continue
      print z(1, 1)
    end
    subroutine gather
      integer w
      do w = 1, 64
        y(w) = mod(w * 3, 7) * 0.4
      enddo
      q = 0
      do w = 1, m
        if (y(w) > 1.0) then
          q = q + 1
          pos(q) = w
        endif
      enddo
    end",
        },
        Figure {
            name: "MODPERM",
            source: "program modperm
         integer i, n, p(8)
         real z(8), x(8)
         n = 8
         do i = 1, n
           p(i) = mod(i * 3, n) + 1
           x(i) = i * 1.0
         enddo
         do 20 i = 1, n
           z(p(i)) = x(i) * 2.0
 20      continue
         print z(1), z(8)
         end",
        },
    ]
}
