program swspmv
  integer it, i, j, n, nsweep, rowptr(@RP@), rowlen(@R@), colidx(@E@)
  real aval(@E@), x(@C@), y(@R@)
  n = @R@
  nsweep = @SWEEPS@
  do 10 it = 1, nsweep
    do 100 i = 1, n
      y(i) = 0.0
      do j = 1, rowlen(i)
        y(i) = y(i) + aval(rowptr(i) + j - 1) * x(colidx(rowptr(i) + j - 1))
      enddo
 100 continue
 10 continue
  print y(1), y(@MR@), y(@R@)
end
