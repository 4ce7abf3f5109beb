program swpermute
  integer it, k, nnz, nsweep, perm(@E@)
  real aval(@E@), pval(@E@)
  nnz = @E@
  nsweep = @SWEEPS@
  do 10 it = 1, nsweep
    do 800 k = 1, nnz
      pval(perm(k)) = aval(k) * 2.0
 800 continue
 10 continue
  print pval(1), pval(@ME@), pval(@E@)
end
