(* Solver dispatch: one entry point for the rest of the codebase.

   Every solve runs on the revised simplex over CSC columns ([Revised]).
   Warm-start hints are honored only when the caller supplies them
   ([?hint] for a one-shot basis, [?cache] for a shape-keyed basis
   store); paths that pass neither get cold solves, whose pivot rules
   follow the dense tableau oracle exactly.

   [with_engine] is the one test seam: it swaps in another engine (the
   dense tableau of lib/oracle) for the duration of a thunk, so the
   differential tests and the fuzz matrix can run whole pipelines on it.
   No CLI or bench flag reaches it. *)

module R = Numeric.Rat

type engine = {
  exact : R.t Problem.t -> R.t Solution.outcome;
  approx : float Problem.t -> float Solution.outcome;
}

(* The installed test engine, [None] for the revised simplex. *)
let override : engine option ref = ref None

(* While [e] is installed, [?hint] and [?cache] are ignored and no basis
   is returned. *)
let with_engine e f =
  let saved = !override in
  override := Some e;
  Fun.protect ~finally:(fun () -> override := saved) f

(* Global warm-start enable: flipping this off makes even hinted solves
   run cold.  The bench uses it to measure the warm-start payoff with
   everything else held fixed. *)
let warm = ref true

(* A basis cache keyed by the problem's structural shape.  Bounded: when
   full, the whole table is dropped (shape families in one search are few,
   so eviction is rare in practice).  The lock makes lookups and stores
   domain-safe — a deadline prober shared by concurrent feasibility
   probes (Par.Pool) reaches this table from several domains at once. *)
type cache = { tbl : (string, int array) Hashtbl.t; lock : Mutex.t }

let cache_capacity = 64
let cache () : cache = { tbl = Hashtbl.create 16; lock = Mutex.create () }

(* Drop every stored basis.  Callers invalidate when the *problem family*
   changes shape-incompatibly — e.g. a machine failure rewrites the cost
   matrix, so bases keyed by the old columns would only mislead the
   crash-recovery logic of the first warm solve after the change. *)
let cache_clear (c : cache) =
  let bases = Mutex.protect c.lock (fun () ->
      let n = Hashtbl.length c.tbl in
      Hashtbl.reset c.tbl;
      n)
  in
  if Obs.Sink.enabled () then
    Obs.Event.emit "lp.cache.cleared" ~attrs:[ ("bases", Obs.Sink.Int bases) ]

let cache_store (c : cache) shape basis =
  Mutex.protect c.lock (fun () ->
      if Hashtbl.length c.tbl >= cache_capacity && not (Hashtbl.mem c.tbl shape)
      then Hashtbl.reset c.tbl;
      Hashtbl.replace c.tbl shape basis)

let pick_hint ?cache ?hint shape =
  if not !warm then None
  else
    match hint with
    | Some _ -> hint
    | None ->
      Option.bind cache (fun c ->
          Mutex.protect c.lock (fun () -> Hashtbl.find_opt c.tbl shape))

(* Exact (rational) solve.  [exact_basis] additionally returns the final
   basis, for callers that hand bases across arithmetics (e.g. float probe
   → exact certification). *)
let exact_basis ?cache ?hint (p : R.t Problem.t) :
    R.t Solution.outcome * int array option =
  match !override with
  | Some e -> (e.exact p, None)
  | None ->
    let prep = Revised.Exact.prepare p in
    let shape = Revised.Exact.shape prep in
    let warm = pick_hint ?cache ?hint shape in
    let outcome, basis = Revised.Exact.solve_prepared ?warm prep in
    Option.iter (fun c -> cache_store c shape basis) cache;
    (outcome, Some basis)

let exact ?cache ?hint p = fst (exact_basis ?cache ?hint p)

(* Approximate (float) solve, same dispatch. *)
let approx_basis ?cache ?hint (p : float Problem.t) :
    float Solution.outcome * int array option =
  match !override with
  | Some e -> (e.approx p, None)
  | None ->
    let prep = Revised.Approx.prepare p in
    let shape = Revised.Approx.shape prep in
    let warm = pick_hint ?cache ?hint shape in
    let outcome, basis = Revised.Approx.solve_prepared ?warm prep in
    Option.iter (fun c -> cache_store c shape basis) cache;
    (outcome, Some basis)

let approx ?cache ?hint p = fst (approx_basis ?cache ?hint p)
