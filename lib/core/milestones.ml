module Rat = Numeric.Rat

(* d̄_j(F) = o_j + F/w_j (with o_j the flow origin, equal to r_j in the
   paper's offline problem) crosses the release date r_k at
   F = w_j (r_k − o_j), and crosses d̄_k(F) (for w_j ≠ w_k) at
   F = (o_k − o_j) / (1/w_j − 1/w_k). *)
let compute inst =
  let n = Instance.num_jobs inst in
  let row j =
    let acc = ref [] in
    let push f = if Rat.sign f > 0 then acc := f :: !acc in
    let oj = Instance.flow_origin inst j and wj = Instance.weight inst j in
    for k = 0 to n - 1 do
      push (Rat.mul wj (Rat.sub (Instance.release inst k) oj));
      if k > j then begin
        let wk = Instance.weight inst k in
        let dslope = Rat.sub (Rat.inv wj) (Rat.inv wk) in
        if not (Rat.is_zero dslope) then
          push (Rat.div (Rat.sub (Instance.flow_origin inst k) oj) dslope)
      end
    done;
    !acc
  in
  let rows = Array.init n row in
  let candidates = Array.fold_left (fun acc r -> List.rev_append r acc) [] rows in
  let ms = List.sort_uniq Rat.compare candidates in
  if Obs.Sink.enabled () then
    Obs.Event.emit "milestones.computed"
      ~attrs:[ ("count", Obs.Sink.Int (List.length ms)) ];
  ms

let count_bound inst =
  let n = Instance.num_jobs inst in
  (n * n) - n

(* Search candidates for an upper-bounded objective search: milestones
   strictly below [upper], with [upper] appended as the feasible sentinel
   that keeps the binary search well-defined.  [milestones] avoids
   recomputing when the caller already has them. *)
let candidates ?milestones inst ~upper =
  let ms = match milestones with Some ms -> ms | None -> compute inst in
  let below = List.filter (fun m -> Rat.compare m upper < 0) ms in
  Array.of_list (below @ [ upper ])
