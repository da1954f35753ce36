module Rat = Numeric.Rat

let solve_form inst (form : Formulations.deadline_form) =
  match Lp.Solve.exact form.dl_problem with
  | Lp.Solution.Optimal sol ->
    let fractions = form.dl_decode sol.values in
    Some (Schedule.pack inst ~intervals:form.dl_intervals ~fractions)
  | Lp.Solution.Infeasible -> None
  | Lp.Solution.Unbounded -> assert false (* feasibility system: bounded by construction *)

let feasible inst ~deadlines =
  solve_form inst (Formulations.deadline_system inst ~deadlines)

let is_feasible ?divisible inst ~deadlines =
  let form = Formulations.deadline_system ?divisible inst ~deadlines in
  match Lp.Solve.exact form.dl_problem with
  | Lp.Solution.Optimal _ -> true
  | Lp.Solution.Infeasible -> false
  | Lp.Solution.Unbounded -> assert false

let flow_deadlines inst ~objective =
  Array.init (Instance.num_jobs inst) (fun j ->
      Rat.add (Instance.flow_origin inst j)
        (Rat.div objective (Instance.weight inst j)))

(* A float verdict on a deadline system.  [Unbounded] is impossible
   exactly (the system has no objective), but the float phase 1 reports
   it when its tolerance hides every bounding entry of a column: no
   verdict then. *)
let decide_approx p =
  match Lp.Solve.approx p with
  | Lp.Solution.Optimal _ -> true
  | Lp.Solution.Infeasible -> false
  | Lp.Solution.Unbounded -> raise Flow_search.No_verdict

(* The milestone search's float probe: cold, and decided on the deadline
   system built in floats, so no schedule is decoded. *)
let probe_approx ?(divisible = true) inst ~objective =
  let body () =
    let p =
      Obs.Span.with_span "deadline.form" (fun () ->
          let deadlines = flow_deadlines inst ~objective in
          Formulations.deadline_problem Rat.to_float ~divisible inst ~deadlines)
    in
    decide_approx p
  in
  if not (Obs.Sink.enabled ()) then body ()
  else
    Obs.Span.with_span "probe.approx"
      ~attrs:[ ("objective", Obs.Sink.Str (Format.asprintf "%a" Rat.pp objective)) ]
      (fun () ->
        let feasible = body () in
        Obs.Span.set_bool "feasible" feasible;
        feasible)
