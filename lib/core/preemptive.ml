module Rat = Numeric.Rat

type result = {
  objective : Rat.t;
  schedule : Schedule.t;
  milestones : Rat.t list;
  search_range : Rat.t * Rat.t;
  preemption_slots : int;
}

(* Feasibility of objective [f] in the preemptive model: system (5) at a
   fixed F is the deadline system (2) plus the per-job constraint (5b).
   Probes share a non-divisible {!Deadline.prober}, so the exact
   certifications warm-start from the float probes' bases. *)
let first_feasible inst candidates =
  let pr = Deadline.prober ~divisible:false inst in
  fst
    (Flow_search.first_feasible
       ~exact:(fun f ->
         if Deadline.probe_exact pr ~objective:f then Some () else None)
       ~approx:(fun f -> Deadline.probe_approx pr ~objective:f)
       candidates)

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
  let idx = first_feasible inst candidates in
  let f_hi = candidates.(idx) in
  let f_lo = if idx = 0 then Rat.zero else candidates.(idx - 1) in
  (* Cold final solve, as in {!Max_flow.solve}: schedules stay independent
     of probe history and identical to the dense oracle's. *)
  let form = Formulations.parametric_system ~divisible:false inst ~f_lo ~f_hi in
  match Lp.Solve.exact form.pf_problem with
  | Lp.Solution.Optimal sol ->
    let f_star, fractions = form.pf_decode sol.values in
    let intervals =
      Array.init
        (Array.length form.pf_bounds - 1)
        (fun t ->
          ( Numeric.Affine.eval form.pf_bounds.(t) f_star,
            Numeric.Affine.eval form.pf_bounds.(t + 1) f_star ))
    in
    let schedule, preemption_slots = reconstruct inst ~intervals ~fractions in
    { objective = f_star; schedule; milestones; search_range = (f_lo, f_hi); preemption_slots }
  | Lp.Solution.Infeasible -> assert false
  | Lp.Solution.Unbounded -> assert false

let solve_total inst =
  if Instance.num_jobs inst = 0 then `Trivial (Schedule.make inst [])
  else `Solved (solve inst)

let solve_max_stretch inst = solve (Instance.stretch_weights inst)
