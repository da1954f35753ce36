(* Solver instrumentation over the global metric registry.

   Every engine records one solve into the [lp.exact.*] or [lp.approx.*]
   instrument family of [Obs.Registry.global] (exact vs approximate
   arithmetic, as declared by the engine's field).  Consumers that used
   to install an [Lp.Stats] hook now difference {!totals} snapshots
   around the work they care about; per-solve detail is available by
   installing an [Obs.Sink.callback] and reading the ["lp.solve"] spans
   the engines emit when tracing is on. *)

module R = Obs.Registry

type handles = {
  c_solves : R.counter;
  c_p1 : R.counter;
  c_p2 : R.counter;
  h_seconds : R.histogram;
}

let make prefix =
  let g = R.global in
  {
    c_solves = R.counter g (prefix ^ ".solves");
    c_p1 = R.counter g (prefix ^ ".pivots_phase1");
    c_p2 = R.counter g (prefix ^ ".pivots_phase2");
    h_seconds = R.histogram g (prefix ^ ".solve_seconds");
  }

let exact_h = make "lp.exact"
let approx_h = make "lp.approx"
let handles ~exact = if exact then exact_h else approx_h

type totals = {
  solves : int;
  warm_solves : int;
  pivots_phase1 : int;
  pivots_phase2 : int;
  pivots_dual : int;
  seconds : float;
}

(* Every solve is cold, so [warm_solves] and [pivots_dual] are 0. *)
let totals_of h =
  {
    solves = R.count h.c_solves;
    warm_solves = 0;
    pivots_phase1 = R.count h.c_p1;
    pivots_phase2 = R.count h.c_p2;
    pivots_dual = 0;
    seconds = R.hsum h.h_seconds;
  }

let exact_totals () = totals_of exact_h
let approx_totals () = totals_of approx_h
let totals_for ~exact = totals_of (handles ~exact)

let combined () =
  let e = exact_totals () and a = approx_totals () in
  {
    solves = e.solves + a.solves;
    warm_solves = 0;
    pivots_phase1 = e.pivots_phase1 + a.pivots_phase1;
    pivots_phase2 = e.pivots_phase2 + a.pivots_phase2;
    pivots_dual = 0;
    seconds = e.seconds +. a.seconds;
  }

let total_pivots t = t.pivots_phase1 + t.pivots_phase2

let diff ~before after =
  {
    solves = after.solves - before.solves;
    warm_solves = 0;
    pivots_phase1 = after.pivots_phase1 - before.pivots_phase1;
    pivots_phase2 = after.pivots_phase2 - before.pivots_phase2;
    pivots_dual = 0;
    seconds = after.seconds -. before.seconds;
  }

(* Numeric fast-path telemetry.  [Numeric.Counters] keeps plain refs on
   the arithmetic hot path (the numeric library cannot depend on [obs]);
   this is the bridge that mirrors them into the registry as the
   [rat.*] counter family.  Registry counters are monotonic, so each
   sync adds the delta against what the registry already holds. *)

let c_rat_small = R.counter R.global "rat.small_ops"
let c_rat_big = R.counter R.global "rat.big_ops"
let c_rat_promotions = R.counter R.global "rat.promotions"
let c_rat_demotions = R.counter R.global "rat.demotions"

let sync_rat_counters () =
  let mirror c v =
    let d = v - R.count c in
    if d > 0 then R.add c d
  in
  mirror c_rat_small (Numeric.Counters.small_ops ());
  mirror c_rat_big (Numeric.Counters.big_ops ());
  mirror c_rat_promotions (Numeric.Counters.promotions ());
  mirror c_rat_demotions (Numeric.Counters.demotions ())

(* The certified exact path ([Solve.exact]): how many solves the float
   basis certified, and how many fell back to the cold exact solve. *)
let c_certified = R.counter R.global "lp.exact.certified"
let c_fallbacks = R.counter R.global "lp.exact.fallbacks"

type certification = { certified : int; fallbacks : int }

let certification () = { certified = R.count c_certified; fallbacks = R.count c_fallbacks }
let record_certification ~certified = R.incr (if certified then c_certified else c_fallbacks)

let record ~exact ~pivots_phase1 ~pivots_phase2 ~seconds =
  let h = handles ~exact in
  R.incr h.c_solves;
  R.add h.c_p1 pivots_phase1;
  R.add h.c_p2 pivots_phase2;
  R.observe h.h_seconds seconds;
  sync_rat_counters ()

let now () = Unix.gettimeofday ()
