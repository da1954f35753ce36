(* Solver dispatch: one entry point for the rest of the codebase.

   Every solve runs cold on the revised simplex over CSC columns
   ([Revised]), whose pivot rules follow the dense tableau oracle exactly.
   An exact solve is certified rather than pivoted ({!exact} below).

   [with_engine] is the one test seam: it swaps in another engine (the
   dense tableau of lib/oracle) for the duration of a thunk, so the
   differential tests and the fuzz matrix can run whole pipelines on it.
   No CLI or bench flag reaches it. *)

module R = Numeric.Rat
module Ex = Revised.Exact
module Ap = Revised.Approx

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

(* The float pass and the certificate of one exact solve, without
   instruments: the certified answer and basis ([None] when the solve
   must fall back), the pivots of the float pass, and the load pivots:
   the basic columns outside the cold basis, the pivots a load from it
   would do.  Exposed for the tests. *)
type attempt = {
  certified : (R.t Solution.outcome * int array) option;
  float_pivots : int;
  load_pivots : int;
}

(* The float image of an exact layout: the layout [Ex.prepare] made,
   every coefficient rounded once.  Its rows are flipped where the exact
   rhs is negative, whatever the rounded rhs reads, so both solves of
   one certified answer index the same columns. *)
let float_image : Ex.prepared -> Ap.prepared = Revised.map_layout R.to_float

(* Floats pick the basis, rationals certify it (DESIGN §6).  A cold float
   two-phase solve of [prep]'s float image ends on some basis; checking
   that basis in rationals ([Ex.certify]) costs one sparse factorization
   of it and its solves, and no pivot.  Anything the certificate does not
   accept falls back to the cold exact solve: a float [Iteration_limit]
   or [Unbounded] (in phase 1 too, where only the tolerance gets), a
   basis singular in rationals or a failed check.  A rational beyond the
   float range maps to ±inf or NaN, and one below it to 0.0; whatever
   basis the float solve then ends on, the check in rationals is what
   decides. *)
let attempt (prep : Ex.prepared) =
  let f1 = ref 0 and f2 = ref 0 and load = ref 0 in
  let certified =
    match Ap.cold_solve (float_image prep) ~count1:f1 ~count2:f2 with
    | exception Iteration_limit -> None
    | claim, st ->
      (* Only the basis outlives the float solve: its B⁻¹ is garbage
         before the factorization allocates. *)
      let basis = st.Ap.basis in
      Option.map (fun o -> (o, basis)) (Ex.certify prep claim basis ~count:load)
  in
  { certified; float_pivots = !f1 + !f2; load_pivots = !load }

let certified (p : R.t Problem.t) =
  let prep = Ex.prepare p in
  Ex.instrumented (fun () ->
      let a = attempt prep in
      Instrument.record_certification ~certified:(a.certified <> None);
      Obs.Span.set_bool "certified" (a.certified <> None);
      Obs.Span.set_int "load_pivots" a.load_pivots;
      Obs.Span.set_int "float_pivots" a.float_pivots;
      (* The exact pivots, per phase: a certified infeasibility counts
         its load pivots as phase 1, a certified optimum as phase 2. *)
      match a.certified with
      | Some ((Solution.Infeasible as o), _) -> (o, a.load_pivots, 0)
      | Some (o, _) -> (o, 0, a.load_pivots)
      | None -> Ex.cold_counted prep)

(* Exact (rational) solve. *)
let exact (p : R.t Problem.t) : R.t Solution.outcome =
  match !override with Some e -> e.exact p | None -> certified p

(* Approximate (float) solve. *)
let approx (p : float Problem.t) : float Solution.outcome =
  match !override with Some e -> e.approx p | None -> Revised.Approx.solve p
