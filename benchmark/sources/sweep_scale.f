program swscale
  integer it, k, nnz, nsweep
  real aval(@E@), bval(@E@)
  nnz = @E@
  nsweep = @SWEEPS@
  do 10 it = 1, nsweep
    do 700 k = 1, nnz
      bval(k) = aval(k) * 1.5 + 0.25
 700 continue
 10 continue
  print bval(1), bval(@ME@), bval(@E@)
end
