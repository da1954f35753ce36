(* Solver dispatch: one entry point for the rest of the codebase.

   Every solve runs on the revised simplex over CSC columns ([Revised]).
   An exact solve warm-starts only when the caller passes a shape-keyed
   basis store ([?cache]); every other solve is cold, and cold pivot rules
   follow the dense tableau oracle exactly.

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

(* While [e] is installed, [?cache] is ignored and no basis is returned. *)
let with_engine e f =
  let saved = !override in
  override := Some e;
  Fun.protect ~finally:(fun () -> override := saved) f

(* Global warm-start enable: flipping this off makes even cached solves
   run cold.  The bench uses it to measure the warm-start payoff with
   everything else held fixed. *)
let warm = ref true

(* A basis cache keyed by the problem's structural shape.  Bounded: when
   full, the whole table is dropped (shape families in one search are few,
   so eviction is rare in practice).  Used by one domain at a time, so
   it takes no lock. *)
type cache = (string, int array) Hashtbl.t

let cache_capacity = 64
let cache () : cache = Hashtbl.create 16

(* Drop every stored basis.  Callers invalidate when the *problem family*
   changes shape-incompatibly — e.g. a machine failure rewrites the cost
   matrix, so bases keyed by the old columns would only mislead the
   crash-recovery logic of the first warm solve after the change. *)
let cache_clear (c : cache) =
  let bases = Hashtbl.length c in
  Hashtbl.reset c;
  if Obs.Sink.enabled () then
    Obs.Event.emit "lp.cache.cleared" ~attrs:[ ("bases", Obs.Sink.Int bases) ]

let cache_store (c : cache) shape basis =
  if Hashtbl.length c >= cache_capacity && not (Hashtbl.mem c shape) then
    Hashtbl.reset c;
  Hashtbl.replace c shape basis

(* Exact (rational) solve.  [exact_basis] additionally returns the final
   basis. *)
let exact_basis ?cache (p : R.t Problem.t) :
    R.t Solution.outcome * int array option =
  match !override with
  | Some e -> (e.exact p, None)
  | None ->
    let prep = Revised.Exact.prepare p in
    let shape = Revised.Exact.shape prep in
    let hint =
      if !warm then Option.bind cache (fun c -> Hashtbl.find_opt c shape) else None
    in
    let outcome, basis = Revised.Exact.solve_prepared ?warm:hint prep in
    Option.iter (fun c -> cache_store c shape basis) cache;
    (outcome, Some basis)

let exact ?cache p = fst (exact_basis ?cache p)

(* Approximate (float) solve, always cold. *)
let approx (p : float Problem.t) : float Solution.outcome =
  match !override with
  | Some e -> e.approx p
  | None -> fst (Revised.Approx.solve_prepared (Revised.Approx.prepare p))
