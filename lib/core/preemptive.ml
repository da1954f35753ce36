module Rat = Numeric.Rat

type result = {
  objective : Rat.t;
  schedule : Schedule.t;
  milestones : Rat.t list;
  search_range : Rat.t * Rat.t;
  preemption_slots : int;
}

(* Rebuild a preemptive schedule from interval fractions: per interval,
   decompose the processing-time matrix into synchronized slots. *)
let reconstruct inst ~intervals ~fractions =
  let m = Instance.num_machines inst and n = Instance.num_jobs inst in
  let slices = ref [] and slot_count = ref 0 in
  Array.iteri
    (fun t (lo, hi) ->
      let len = Rat.sub hi lo in
      if Rat.sign len > 0 then begin
        let matrix = Array.make_matrix m n Rat.zero in
        let nonempty = ref false in
        List.iter
          (fun (t', i, j, frac) ->
            if t' = t then begin
              let c =
                match Instance.cost inst ~machine:i ~job:j with
                | Some c -> c
                | None -> assert false
              in
              matrix.(i).(j) <- Rat.add matrix.(i).(j) (Rat.mul frac c);
              nonempty := true
            end)
          fractions;
        if !nonempty then begin
          let slots = Openshop.decompose ~matrix ~limit:len in
          let cursor = ref lo in
          List.iter
            (fun (slot : Openshop.slot) ->
              let stop = Rat.add !cursor slot.duration in
              Array.iteri
                (fun i assn ->
                  match assn with
                  | Some j ->
                    slices :=
                      { Schedule.machine = i; job = j; start = !cursor; stop } :: !slices
                  | None -> ())
                slot.assignment;
              incr slot_count;
              cursor := stop)
            slots
        end
      end)
    intervals;
  (Schedule.make inst !slices, !slot_count)

let solve inst =
  if Instance.num_jobs inst = 0 then invalid_arg "Preemptive.solve: empty instance";
  (* The serial schedule runs one job at a time, so it is also a valid
     preemptive schedule: its weighted flow is a feasible objective. *)
  let f_ub = Max_flow.feasible_upper_bound inst in
  let milestones = Milestones.compute inst in
  let candidates = Milestones.candidates ~milestones inst ~upper:f_ub in
  (* The bracket search of {!Max_flow.search} on system (5): system (3)
     plus the per-job capacity constraint (5b). *)
  let { Max_flow.f_star; intervals; fractions }, search_range =
    Max_flow.search ~divisible:false inst candidates
  in
  let schedule, preemption_slots = reconstruct inst ~intervals ~fractions in
  { objective = f_star; schedule; milestones; search_range; preemption_slots }

let solve_total inst =
  if Instance.num_jobs inst = 0 then `Trivial (Schedule.make inst [])
  else `Solved (solve inst)

let solve_max_stretch inst = solve (Instance.stretch_weights inst)
