module Rat = Numeric.Rat

type 'a verdict = Found of 'a | Lower | Higher

exception No_verdict

(* Smallest index in [lo, hi] satisfying the monotone index predicate
   [feasible], assuming [hi] does; [hi] itself is never tested. *)
let binary_search ~feasible lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if feasible mid then hi := mid else lo := mid + 1
  done;
  !lo

(* The first feasible index lies in [lo, hi]; certify [i] there and
   narrow the range by its verdict.  Each step either finds the index or
   shrinks the range, so a consistent [certify] ends before it empties. *)
let rec search ~certify ~calls lo hi i =
  if lo > hi then
    invalid_arg "Flow_search.first_feasible: no bracket certified (last candidate infeasible?)";
  incr calls;
  match certify i with
  | Found payload -> (i, payload)
  | Higher -> search ~certify ~calls (i + 1) hi ((i + 1 + hi) / 2)
  | Lower -> search ~certify ~calls lo (i - 1) ((lo + i - 1) / 2)

let first_feasible_untraced ~certify ?approx ~calls candidates =
  let last = Array.length candidates - 1 in
  let unguided = last / 2 in
  let guess =
    match approx with
    | None -> unguided
    | Some approx -> (
      (* A float probe that hits the simplex's iteration cap, or that
         the float tolerance leaves without a verdict, answers nothing.
         The guess only saves exact solves, so drop it. *)
      try binary_search ~feasible:(fun i -> approx candidates.(i)) 0 last
      with Lp.Solve.Iteration_limit | No_verdict ->
        Obs.Event.emit "search.approx_limit";
        unguided)
  in
  (guess, search ~certify ~calls 0 last guess)

let first_feasible ~certify ?approx candidates =
  let calls = ref 0 in
  if not (Obs.Sink.enabled ()) then
    snd (first_feasible_untraced ~certify ?approx ~calls candidates)
  else
    Obs.Span.with_span "flow.search"
      ~attrs:[ ("candidates", Obs.Sink.Int (Array.length candidates)) ]
      (fun () ->
        let guess, (idx, payload) =
          first_feasible_untraced ~certify ?approx ~calls candidates
        in
        Obs.Span.set_int "guess" guess;
        Obs.Span.set_int "index" idx;
        Obs.Span.set_int "certify_solves" !calls;
        Obs.Event.emit "search.bracketed" ~attrs:[ ("index", Obs.Sink.Int idx) ];
        (idx, payload))
