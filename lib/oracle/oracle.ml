module Simplex = Simplex
module Ex = Lp.Revised.Exact

let with_dense f =
  Lp.Solve.with_engine { exact = Simplex.Exact.solve; approx = Simplex.Approx.solve } f

let with_cold f =
  Lp.Solve.with_engine { exact = Ex.solve; approx = Lp.Revised.Approx.solve } f

let with_certified f =
  let same = ref true in
  let exact p =
    let prep = Ex.prepare p in
    let cold, st = Ex.cold_solve prep ~count1:(ref 0) ~count2:(ref 0) in
    match (Lp.Solve.attempt prep).Lp.Solve.certified with
    | None -> cold
    | Some (outcome, basis) ->
      let sorted b = List.sort compare (Array.to_list b) in
      if sorted basis <> sorted st.Ex.basis then same := false;
      outcome
  in
  let r = Lp.Solve.with_engine { exact; approx = Lp.Revised.Approx.solve } f in
  (r, !same)
