module Rat = Numeric.Rat

(* Smallest index in [lo, hi] satisfying the monotone index predicate
   [feasible], assuming [hi] does; [hi] itself is never tested. *)
let binary_search ~feasible lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if feasible mid then hi := mid else lo := mid + 1
  done;
  !lo

let first_feasible_untraced ~exact ~approx candidates =
  let last = Array.length candidates - 1 in
  (* Cache each exact probe's payload so the winning candidate's LP
     solution is returned instead of being solved a second time. *)
  let payloads = Hashtbl.create 8 in
  let exact_idx i =
    match exact candidates.(i) with
    | Some payload ->
      Hashtbl.replace payloads i payload;
      true
    | None -> false
  in
  let guess = binary_search ~feasible:(fun i -> approx candidates.(i)) 0 last in
  (* Certify the float answer with exact tests at the boundary. *)
  let idx =
    if exact_idx guess then begin
      if guess = 0 || not (exact_idx (guess - 1)) then guess
      else
        (* Float search overshot: the exact boundary is at or below guess-1. *)
        binary_search ~feasible:exact_idx 0 (guess - 1)
    end
    else
      (* Float search undershot: the exact boundary is above guess. *)
      binary_search ~feasible:exact_idx (guess + 1) last
  in
  let payload =
    match Hashtbl.find_opt payloads idx with
    | Some p -> p
    | None -> (
      (* Only reachable when the winner was never probed (the search
         collapsed onto the unprobed sentinel): probe it now. *)
      match exact candidates.(idx) with
      | Some p -> p
      | None ->
        invalid_arg "Flow_search.first_feasible: last candidate not feasible")
  in
  (idx, payload)

let first_feasible ~exact ~approx candidates =
  if not (Obs.Sink.enabled ()) then
    first_feasible_untraced ~exact ~approx candidates
  else
    Obs.Span.with_span "flow.search"
      ~attrs:[ ("candidates", Obs.Sink.Int (Array.length candidates)) ]
      (fun () ->
        let idx, payload = first_feasible_untraced ~exact ~approx candidates in
        Obs.Span.set_int "index" idx;
        Obs.Event.emit "search.bracketed" ~attrs:[ ("index", Obs.Sink.Int idx) ];
        (idx, payload))
