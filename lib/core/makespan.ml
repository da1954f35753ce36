module Rat = Numeric.Rat

type result = { makespan : Rat.t; schedule : Schedule.t }

let solve_untraced inst =
  if Instance.num_jobs inst = 0 then invalid_arg "Makespan.solve: empty instance";
  let form = Formulations.makespan_system inst in
  match Lp.Solve.exact form.mk_problem with
  | Lp.Solution.Optimal sol ->
    let delta, fractions = form.mk_decode sol.values in
    let r_max = Instance.max_release inst in
    let intervals =
      Array.append form.mk_bounded_intervals [| (r_max, Rat.add r_max delta) |]
    in
    let schedule = Schedule.pack inst ~intervals ~fractions in
    { makespan = Rat.add r_max delta; schedule }
  | Lp.Solution.Infeasible ->
    assert false (* system (1) is always feasible: process everything in I_n *)
  | Lp.Solution.Unbounded -> assert false (* Δ ≥ 0 and the objective is minimized *)

let solve inst =
  if not (Obs.Sink.enabled ()) then solve_untraced inst
  else
    Obs.Span.with_span "makespan.solve"
      ~attrs:
        [
          ("jobs", Obs.Sink.Int (Instance.num_jobs inst));
          ("machines", Obs.Sink.Int (Instance.num_machines inst));
        ]
      (fun () ->
        let r = solve_untraced inst in
        Obs.Span.set_str "makespan" (Format.asprintf "%a" Rat.pp r.makespan);
        r)

let solve_total inst =
  if Instance.num_jobs inst = 0 then `Trivial (Schedule.make inst [])
  else `Solved (solve inst)

let lower_bound inst =
  let n = Instance.num_jobs inst and m = Instance.num_machines inst in
  let bound = ref Rat.zero in
  for j = 0 to n - 1 do
    let rate = ref Rat.zero in
    for i = 0 to m - 1 do
      match Instance.cost inst ~machine:i ~job:j with
      | Some c -> rate := Rat.add !rate (Rat.inv c)
      | None -> ()
    done;
    bound := Rat.max !bound (Rat.add (Instance.release inst j) (Rat.inv !rate))
  done;
  !bound
