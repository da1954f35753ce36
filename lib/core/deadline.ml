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

let is_feasible_approx ?divisible inst ~deadlines =
  let form = Formulations.deadline_system ?divisible inst ~deadlines in
  match Lp.Solve.approx (Lp.Problem.map Rat.to_float form.dl_problem) with
  | Lp.Solution.Optimal _ -> true
  | Lp.Solution.Infeasible -> false
  | Lp.Solution.Unbounded -> assert false

let flow_deadlines inst ~objective =
  Array.init (Instance.num_jobs inst) (fun j ->
      Rat.add (Instance.flow_origin inst j)
        (Rat.div objective (Instance.weight inst j)))

(* ------------------------------------------------------------------ *)
(* Warm-started feasibility probes                                     *)
(* ------------------------------------------------------------------ *)

(* A prober amortizes a family of flow-deadline feasibility questions on
   one instance (the milestone binary search, online re-solves):
   - formulations are memoized per objective, so the approx pre-check and
     the exact certification of the same F build the LP once;
   - the float probe's final basis seeds the exact solve of the same
     system (verified warm start — see [Lp.Revised]);
   - exact bases are kept in a shape-keyed [Lp.Solve.cache], warm-starting
     later probes whose interval structure coincides (pass [?cache] to
     share it across probers, e.g. across online arrivals);
   - feasible exact probes keep their LP solution, so the winning
     objective's schedule is decoded without another solve
     ([schedule_at]).

   A prober is used by one domain at a time (the solver is sequential;
   the server reaches it only under its engine lock), so the memo
   tables take no lock. *)
type prober = {
  p_inst : Instance.t;
  p_divisible : bool;
  p_cache : Lp.Solve.cache;
  p_forms : (string, Formulations.deadline_form) Hashtbl.t;
  p_bases : (string, int array) Hashtbl.t; (* float bases, keyed by objective *)
  p_solutions : (string, Rat.t array) Hashtbl.t; (* feasible exact solutions *)
}

let prober ?(divisible = true) ?cache inst =
  {
    p_inst = inst;
    p_divisible = divisible;
    p_cache = (match cache with Some c -> c | None -> Lp.Solve.cache ());
    p_forms = Hashtbl.create 16;
    p_bases = Hashtbl.create 16;
    p_solutions = Hashtbl.create 8;
  }

let obj_key f = Format.asprintf "%a" Rat.pp f

let form_at pr ~objective =
  let key = obj_key objective in
  match Hashtbl.find_opt pr.p_forms key with
  | Some form -> form
  | None ->
    let form =
      Obs.Span.with_span "deadline.form" (fun () ->
          let deadlines = flow_deadlines pr.p_inst ~objective in
          Formulations.deadline_system ~divisible:pr.p_divisible pr.p_inst
            ~deadlines)
    in
    Hashtbl.replace pr.p_forms key form;
    form

let probe_approx pr ~objective =
  let body () =
    let form = form_at pr ~objective in
    let outcome, basis =
      Lp.Solve.approx_basis (Lp.Problem.map Rat.to_float form.dl_problem)
    in
    Option.iter (Hashtbl.replace pr.p_bases (obj_key objective)) basis;
    match outcome with
    | Lp.Solution.Optimal _ -> true
    | Lp.Solution.Infeasible -> false
    | Lp.Solution.Unbounded -> assert false
  in
  if not (Obs.Sink.enabled ()) then body ()
  else
    Obs.Span.with_span "probe.approx"
      ~attrs:[ ("objective", Obs.Sink.Str (obj_key objective)) ]
      (fun () ->
        let feasible = body () in
        Obs.Span.set_bool "feasible" feasible;
        feasible)

let probe_exact pr ~objective =
  let body () =
    let form = form_at pr ~objective in
    let hint = Hashtbl.find_opt pr.p_bases (obj_key objective) in
    Obs.Span.set_bool "float_basis_hint" (hint <> None);
    match Lp.Solve.exact ~cache:pr.p_cache ?hint form.dl_problem with
    | Lp.Solution.Optimal sol ->
      Hashtbl.replace pr.p_solutions (obj_key objective) sol.values;
      true
    | Lp.Solution.Infeasible -> false
    | Lp.Solution.Unbounded -> assert false
  in
  if not (Obs.Sink.enabled ()) then body ()
  else
    Obs.Span.with_span "probe.exact"
      ~attrs:[ ("objective", Obs.Sink.Str (obj_key objective)) ]
      (fun () ->
        let feasible = body () in
        Obs.Span.set_bool "feasible" feasible;
        feasible)

let schedule_at pr ~objective =
  let key = obj_key objective in
  let lookup () = Hashtbl.find_opt pr.p_solutions key in
  let values =
    match lookup () with
    | Some v -> Some v
    | None -> if probe_exact pr ~objective then lookup () else None
  in
  match values with
  | None -> None
  | Some values ->
    let form = form_at pr ~objective in
    let fractions = form.dl_decode values in
    Some (Schedule.pack pr.p_inst ~intervals:form.dl_intervals ~fractions)
