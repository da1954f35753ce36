(* Solver dispatch: one entry point for the rest of the codebase.

   Every solve runs cold on the revised simplex over CSC columns
   ([Revised]), whose pivot rules follow the dense tableau oracle exactly.

   [with_engine] is the one test seam: it swaps in another engine (the
   dense tableau of lib/oracle) for the duration of a thunk, so the
   differential tests and the fuzz matrix can run whole pipelines on it.
   No CLI or bench flag reaches it. *)

module R = Numeric.Rat

(* A solve whose primal simplex exceeds its iteration cap
   ([Revised.max_iters_for]) raises this instead of returning. *)
exception Iteration_limit = Revised.Iteration_limit

type engine = {
  exact : R.t Problem.t -> R.t Solution.outcome;
  approx : float Problem.t -> float Solution.outcome;
}

(* The installed test engine, [None] for the revised simplex. *)
let override : engine option ref = ref None

let with_engine e f =
  let saved = !override in
  override := Some e;
  Fun.protect ~finally:(fun () -> override := saved) f

(* Exact (rational) solve. *)
let exact (p : R.t Problem.t) : R.t Solution.outcome =
  match !override with Some e -> e.exact p | None -> Revised.Exact.solve p

(* Approximate (float) solve. *)
let approx (p : float Problem.t) : float Solution.outcome =
  match !override with Some e -> e.approx p | None -> Revised.Approx.solve p
