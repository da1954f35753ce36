module Rat = Numeric.Rat

type result = {
  objective : Rat.t;
  schedule : Schedule.t;
  milestones : Rat.t list;
  search_range : Rat.t * Rat.t;
}

let feasible_upper_bound inst =
  let n = Instance.num_jobs inst in
  let order = List.init n (fun j -> j) in
  let order =
    List.sort
      (fun a b ->
        let c = Rat.compare (Instance.release inst a) (Instance.release inst b) in
        if c <> 0 then c else compare a b)
      order
  in
  let finish = ref Rat.zero and worst = ref Rat.zero in
  List.iter
    (fun j ->
      let start = Rat.max !finish (Instance.release inst j) in
      let stop = Rat.add start (Instance.fastest_cost inst ~job:j) in
      finish := stop;
      let wflow =
        Rat.mul (Instance.weight inst j) (Rat.sub stop (Instance.flow_origin inst j))
      in
      worst := Rat.max !worst wflow)
    order;
  !worst

type optimum = {
  f_star : Rat.t;
  intervals : (Rat.t * Rat.t) array;
  fractions : Formulations.alloc;
}

(* Candidate [i]'s bracket: the previous candidate (0 below the first)
   and [i] itself. *)
let bracket candidates i =
  ((if i = 0 then Rat.zero else candidates.(i - 1)), candidates.(i))

(* Solve LP (3) (or (5), non-divisible) cold on candidate [i]'s closed
   bracket.  At an end of the range that LP is the deadline system there
   (DESIGN §5), so one solve decides both ends: infeasible iff c_i is,
   optimum at c_{i-1} iff c_{i-1} is feasible, and otherwise [i] is the
   first feasible index.  Cold solves follow the dense oracle's pivot
   rules, so the returned schedule never depends on the search path. *)
let certify ~divisible inst candidates i =
  let f_lo, f_hi = bracket candidates i in
  Obs.Span.with_span "parametric.solve" (fun () ->
      let form = Formulations.parametric_system ~divisible inst ~f_lo ~f_hi in
      match Lp.Solve.exact form.pf_problem with
      | Lp.Solution.Optimal sol ->
        let f_star, fractions = form.pf_decode sol.values in
        if i > 0 && Rat.equal f_star f_lo then Flow_search.Lower
        else
          let intervals =
            Array.init
              (Array.length form.pf_bounds - 1)
              (fun t ->
                ( Numeric.Affine.eval form.pf_bounds.(t) f_star,
                  Numeric.Affine.eval form.pf_bounds.(t + 1) f_star ))
          in
          Flow_search.Found { f_star; intervals; fractions }
      | Lp.Solution.Infeasible -> Flow_search.Higher
      | Lp.Solution.Unbounded -> assert false (* F is bounded below by f_lo ≥ 0 *))

(* The float probes only pick which bracket to certify first. *)
let search ?(accelerate = true) ~divisible inst candidates =
  let approx =
    if accelerate then Some (fun f -> Deadline.probe_approx ~divisible inst ~objective:f)
    else None
  in
  let idx, optimum =
    Flow_search.first_feasible ~certify:(certify ~divisible inst candidates) ?approx
      candidates
  in
  (optimum, bracket candidates idx)

let solve_untraced ?accelerate inst =
  if Instance.num_jobs inst = 0 then invalid_arg "Max_flow.solve: empty instance";
  let f_ub = feasible_upper_bound inst in
  let milestones = Milestones.compute inst in
  (* Only milestones at most [f_ub] matter: the optimum is ≤ f_ub, and
     [f_ub] itself is appended as a feasible sentinel so the search is
     always well-defined. *)
  let candidates = Milestones.candidates ~milestones inst ~upper:f_ub in
  let { f_star; intervals; fractions }, search_range =
    search ?accelerate ~divisible:true inst candidates
  in
  let schedule = Schedule.pack inst ~intervals ~fractions in
  { objective = f_star; schedule; milestones; search_range }

let solve ?accelerate inst =
  if not (Obs.Sink.enabled ()) then solve_untraced ?accelerate inst
  else
    Obs.Span.with_span "maxflow.solve"
      ~attrs:
        [
          ("jobs", Obs.Sink.Int (Instance.num_jobs inst));
          ("machines", Obs.Sink.Int (Instance.num_machines inst));
        ]
      (fun () ->
        let r = solve_untraced ?accelerate inst in
        let f_lo, f_hi = r.search_range in
        Obs.Span.set_str "f_star" (Format.asprintf "%a" Rat.pp r.objective);
        Obs.Span.set_str "f_lo" (Format.asprintf "%a" Rat.pp f_lo);
        Obs.Span.set_str "f_hi" (Format.asprintf "%a" Rat.pp f_hi);
        r)

(* Total entry point: the empty instance is a valid input with a trivial
   optimum (no jobs, objective 0, empty schedule) rather than an
   exception.  Degenerate *construction* inputs never reach here — they
   are typed out by [Instance.make_checked]. *)
let solve_total ?accelerate inst =
  if Instance.num_jobs inst = 0 then `Trivial (Schedule.make inst [])
  else `Solved (solve ?accelerate inst)

let solve_max_stretch inst = solve (Instance.stretch_weights inst)

let default_epsilon = Rat.of_ints 1 1048576 (* 2^-20 *)

let solve_bisection ?(epsilon = default_epsilon) inst =
  if Instance.num_jobs inst = 0 then invalid_arg "Max_flow.solve_bisection: empty instance";
  if Rat.sign epsilon <= 0 then invalid_arg "Max_flow.solve_bisection: epsilon must be positive";
  let at objective = Deadline.flow_deadlines inst ~objective in
  let lo = ref Rat.zero and hi = ref (feasible_upper_bound inst) in
  (* invariant: hi feasible, lo infeasible (or zero) *)
  while Rat.compare (Rat.sub !hi !lo) (Rat.mul epsilon !hi) > 0 do
    let mid = Rat.div_int (Rat.add !lo !hi) 2 in
    if Deadline.is_feasible inst ~deadlines:(at mid) then hi := mid else lo := mid
  done;
  (* One more cold solve at [hi] decodes its schedule: any vertex of the
     deadline system there meets every deadline d̄_j(hi). *)
  match Deadline.feasible inst ~deadlines:(at !hi) with
  | Some schedule ->
    { objective = !hi; schedule; milestones = []; search_range = (!lo, !hi) }
  | None -> assert false (* hi is feasible by the loop invariant *)
