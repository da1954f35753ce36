(* The solver runs on one domain by construction, so 1 is the only width. *)
let jobs () = 1

let set_jobs n =
  if n <> 1 then invalid_arg "Par.Pool.set_jobs: the solver is sequential (width 1)"
