module Simplex = Simplex

let with_dense f =
  Lp.Solve.with_engine { exact = Simplex.Exact.solve; approx = Simplex.Approx.solve } f
