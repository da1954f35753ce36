module Rat = Numeric.Rat
module Affine = Numeric.Affine
module P = Lp.Problem

type alloc = (int * int * int * Rat.t) list

(* What each constraint stands for.  A system keeps its labels in build
   order and prints a constraint's name from its label only when asked
   ([Lp.Problem.names]): the milestone search builds an LP per probe and
   never reads one. *)
type label =
  | Res of int * int (* interval t, machine i *)
  | Job of int * int (* interval t, job j *)
  | Complete of int (* job j *)
  | Final of int (* machine i *)
  | Named of string

let label_name = function
  | Res (t, i) -> Printf.sprintf "res_t%d_m%d" t i
  | Job (t, j) -> Printf.sprintf "job_t%d_j%d" t j
  | Complete j -> Printf.sprintf "complete_j%d" j
  | Final i -> Printf.sprintf "final_m%d" i
  | Named s -> s

type 'f system = {
  st : 'f P.Builder.state;
  mutable labels : label list; (* reversed *)
}

let system () = { st = P.Builder.create (); labels = [] }

let add_constr sys label terms rel rhs =
  P.Builder.add_constr sys.st terms rel rhs;
  sys.labels <- label :: sys.labels

(* Seal the LP.  Its first variables are the named [scalars], allocated
   before [alpha_variables]; the α's follow in [vars] order. *)
let finish sys ~scalars vars =
  let labels = lazy (Array.of_list (List.rev sys.labels)) in
  let alphas = lazy (Array.of_list vars) in
  let k = Array.length scalars in
  let var_name v =
    if v < k then scalars.(v)
    else
      let _, t, i, j, _ = (Lazy.force alphas).(v - k) in
      Printf.sprintf "a_t%d_m%d_j%d" t i j
  in
  P.Builder.finish sys.st
    ~names:{ P.var_name; constr_name = (fun c -> label_name (Lazy.force labels).(c)) }

(* Register α variables for all admissible (t, i, j) and return them with
   their LP indices and their c_{i,j} in the LP's field ([conv]).
   [admissible t j] decides (release/deadline) timing; machine
   admissibility is the finiteness of c_{i,j}. *)
let alpha_variables conv st inst ~num_intervals ~admissible =
  let n = Instance.num_jobs inst and m = Instance.num_machines inst in
  let vars = ref [] in
  for t = 0 to num_intervals - 1 do
    for j = 0 to n - 1 do
      if admissible t j then
        for i = 0 to m - 1 do
          match Instance.cost inst ~machine:i ~job:j with
          | Some c ->
            let v = P.Builder.fresh_var st in
            vars := (v, t, i, j, conv c) :: !vars
          | None -> ()
        done
    done
  done;
  List.rev !vars

(* Completion constraints (1d)/(2d)/(3e)/(5a): Σ_t Σ_i α = 1 per job.
   A job with no admissible variable yields the infeasible [0 = 1], which
   is exactly the right outcome (its deadline precedes any processing
   opportunity).  [one] is 1 in the LP's field. *)
let add_completion_constraints sys inst vars one =
  let n = Instance.num_jobs inst in
  let terms = Array.make n [] in
  List.iter (fun (v, _, _, j, _) -> terms.(j) <- (v, one) :: terms.(j)) vars;
  for j = 0 to n - 1 do
    add_constr sys (Complete j) terms.(j) P.Eq one
  done

(* [admissible t j] for consecutive intervals [\[lo t, hi t\]], both ends
   strictly increasing in t: interval t lies within job j's window
   [\[release j, deadline j\]].  A job's admissible intervals are a range
   of indices, found once per job by two binary searches. *)
let window inst ~num_intervals ~lo ~hi ~deadline =
  let first_where pred =
    let a = ref 0 and b = ref num_intervals in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if pred mid then b := mid else a := mid + 1
    done;
    !a
  in
  let n = Instance.num_jobs inst in
  let first =
    Array.init n (fun j ->
        first_where (fun t -> Rat.compare (lo t) (Instance.release inst j) >= 0))
  and stop =
    Array.init n (fun j -> first_where (fun t -> Rat.compare (hi t) (deadline j) > 0))
  in
  fun t j -> first.(j) <= t && t < stop.(j)

(* The work terms (α·c) grouped by [key], one group per resource
   constraint, handed to [f] in the order a [Hashtbl] of the keys
   iterates them: that order is the constraints' order, which every
   pivot sequence depends on.  The terms are gathered in an array indexed
   by [slot] (a bijection of the keys onto [0, slots)); only a group's
   first term touches the table, whose layout depends only on the order
   in which the keys first arrive. *)
let iter_work_terms vars ~slots ~slot ~key f =
  let groups = Array.make slots [] in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (v, t, i, j, c) ->
      let s = slot t i j in
      (match groups.(s) with [] -> Hashtbl.add tbl (key t i j) s | _ :: _ -> ());
      groups.(s) <- (v, c) :: groups.(s))
    vars;
  Hashtbl.iter (fun k s -> f k groups.(s)) tbl

(* Per (interval, machine): the resource constraints (1b)/(2c)/(3d). *)
let iter_by_machine inst ~num_intervals vars f =
  let m = Instance.num_machines inst in
  iter_work_terms vars ~slots:(num_intervals * m)
    ~slot:(fun t i _ -> (t * m) + i)
    ~key:(fun t i _ -> (t, i))
    f

(* Per (interval, job): constraint (5b). *)
let iter_by_job inst ~num_intervals vars f =
  let n = Instance.num_jobs inst in
  iter_work_terms vars ~slots:(num_intervals * n)
    ~slot:(fun t _ j -> (t * n) + j)
    ~key:(fun t _ j -> (t, j))
    f

let decode_alloc vars values =
  List.filter_map
    (fun (v, t, i, j, _) ->
      let x = values.(v) in
      if Rat.sign x > 0 then Some (t, i, j, x) else None)
    vars

(* ------------------------------------------------------------------ *)
(* System (1): makespan                                                *)
(* ------------------------------------------------------------------ *)

type makespan_form = {
  mk_problem : Rat.t P.t;
  mk_bounded_intervals : (Rat.t * Rat.t) array;
  mk_decode : Rat.t array -> Rat.t * alloc;
}

let makespan_system inst =
  let releases =
    Array.to_list (Array.map (fun (j : Instance.job) -> j.release) inst.Instance.jobs)
  in
  (* Bounded intervals between consecutive distinct release dates; the
     final interval starts at the last release and has LP-variable length
     Δ (constraint (1c)). *)
  let bounded = Intervals.of_epochals releases in
  let nb = Array.length bounded in
  let num_intervals = nb + 1 in
  let sys = system () in
  let delta = P.Builder.fresh_var sys.st in
  let admissible t j =
    if t = nb then true (* every job is released by the last release date *)
    else Rat.compare (fst bounded.(t)) (Instance.release inst j) >= 0
  in
  let vars = alpha_variables Fun.id sys.st inst ~num_intervals ~admissible in
  (* Resource constraints (1b) for bounded intervals, (1c) for the final. *)
  iter_by_machine inst ~num_intervals vars (fun (t, i) terms ->
      if t < nb then begin
        let lo, hi = bounded.(t) in
        add_constr sys (Res (t, i)) terms P.Le (Rat.sub hi lo)
      end
      else add_constr sys (Final i) ((delta, Rat.minus_one) :: terms) P.Le Rat.zero);
  add_completion_constraints sys inst vars Rat.one;
  P.Builder.set_objective sys.st P.Minimize [ (delta, Rat.one) ];
  {
    mk_problem = finish sys ~scalars:[| "delta" |] vars;
    mk_bounded_intervals = bounded;
    mk_decode = (fun values -> (values.(delta), decode_alloc vars values));
  }

(* ------------------------------------------------------------------ *)
(* System (2): deadline feasibility                                    *)
(* ------------------------------------------------------------------ *)

type deadline_form = {
  dl_problem : Rat.t P.t;
  dl_intervals : (Rat.t * Rat.t) array;
  dl_decode : Rat.t array -> alloc;
}

(* System (2) (or (5) at a fixed objective) in the field of [conv],
   which converts each exact coefficient once: c_{i,j} per variable, and
   each interval length, computed exactly, per interval. *)
let deadline_lp conv ~divisible inst ~deadlines =
  let n = Instance.num_jobs inst in
  if Array.length deadlines <> n then
    invalid_arg "Formulations.deadline_system: deadlines length mismatch";
  let intervals =
    Intervals.of_epochals
      (Array.to_list (Array.map (fun (j : Instance.job) -> j.release) inst.Instance.jobs)
      @ Array.to_list deadlines)
  in
  let num_intervals = Array.length intervals in
  let sys = system () in
  let admissible =
    window inst ~num_intervals
      ~lo:(fun t -> fst intervals.(t))
      ~hi:(fun t -> snd intervals.(t))
      ~deadline:(Array.get deadlines)
  in
  let vars = alpha_variables conv sys.st inst ~num_intervals ~admissible in
  let lengths = Array.map (fun (lo, hi) -> conv (Rat.sub hi lo)) intervals in
  iter_by_machine inst ~num_intervals vars (fun (t, i) terms ->
      add_constr sys (Res (t, i)) terms P.Le lengths.(t));
  if not divisible then
    (* Constraint (5b) of Section 4.4: each job receives at most the
       interval length across all machines. *)
    iter_by_job inst ~num_intervals vars (fun (t, j) terms ->
        add_constr sys (Job (t, j)) terms P.Le lengths.(t));
  add_completion_constraints sys inst vars (conv Rat.one);
  P.Builder.set_objective sys.st P.Minimize [];
  (finish sys ~scalars:[||] vars, intervals, vars)

let deadline_system ?(divisible = true) inst ~deadlines =
  let problem, intervals, vars = deadline_lp Fun.id ~divisible inst ~deadlines in
  {
    dl_problem = problem;
    dl_intervals = intervals;
    dl_decode = (fun values -> decode_alloc vars values);
  }

let deadline_problem conv ?(divisible = true) inst ~deadlines =
  let problem, _, _ = deadline_lp conv ~divisible inst ~deadlines in
  problem

(* ------------------------------------------------------------------ *)
(* Systems (3) and (5): parametric in F                                *)
(* ------------------------------------------------------------------ *)

type parametric_form = {
  pf_problem : Rat.t P.t;
  pf_bounds : Affine.t array;
  pf_decode : Rat.t array -> Rat.t * alloc;
}

let deadline_fn inst j =
  (* d̄_j(F) = o_j + F / w_j, with o_j the flow origin (= r_j offline) *)
  Affine.make ~const:(Instance.flow_origin inst j)
    ~slope:(Rat.inv (Instance.weight inst j))

let parametric_system ~divisible inst ~f_lo ~f_hi =
  if Rat.sign f_lo < 0 then invalid_arg "Formulations.parametric_system: negative f_lo";
  if Rat.compare f_lo f_hi >= 0 then
    invalid_arg "Formulations.parametric_system: empty objective range";
  let n = Instance.num_jobs inst in
  (* Reference point strictly inside the milestone-free range: the relative
     order of epochal times anywhere in the open range is their order
     everywhere in it. *)
  let mid = Rat.div_int (Rat.add f_lo f_hi) 2 in
  (* Each epochal function with its value at [mid]. *)
  let releases =
    List.init n (fun j ->
        let r = Instance.release inst j in
        (r, Affine.const r))
  and deadlines =
    Array.init n (fun j ->
        let d = deadline_fn inst j in
        (Affine.eval d mid, d))
  in
  let epochals = releases @ Array.to_list deadlines in
  (* Distinct epochal functions, ordered by value at the reference point.
     Two functions equal at [mid] are identical on the whole range (they
     would otherwise cross strictly inside it, contradicting the
     milestone-free hypothesis), so deduplication by value is sound. *)
  let sorted =
    Array.of_list (List.sort_uniq (fun (a, _) (b, _) -> Rat.compare a b) epochals)
  in
  let bounds = Array.map snd sorted in
  let num_intervals = Array.length bounds - 1 in
  let sys = system () in
  let f_var = P.Builder.fresh_var sys.st in
  let admissible =
    window inst ~num_intervals
      ~lo:(fun t -> fst sorted.(t))
      ~hi:(fun t -> fst sorted.(t + 1))
      ~deadline:(fun j -> fst deadlines.(j))
  in
  let vars = alpha_variables Fun.id sys.st inst ~num_intervals ~admissible in
  (* Length of interval t as an affine function of F. *)
  let length t = Affine.sub bounds.(t + 1) bounds.(t) in
  (* Σ work − slope·F ≤ const encodes Σ work ≤ length(F); an interval
     whose length does not depend on F gets no F term. *)
  let add_capacity label t terms =
    let len = length t in
    let terms =
      if Rat.is_zero len.Affine.slope then terms
      else (f_var, Rat.neg len.Affine.slope) :: terms
    in
    add_constr sys label terms P.Le len.Affine.const
  in
  iter_by_machine inst ~num_intervals vars (fun (t, i) terms ->
      add_capacity (Res (t, i)) t terms);
  if not divisible then
    (* Constraint (5b): a single job cannot receive more than the interval
       length in total across machines — necessary for the Lawler–Labetoulle
       reconstruction. *)
    iter_by_job inst ~num_intervals vars (fun (t, j) terms ->
        add_capacity (Job (t, j)) t terms);
  add_completion_constraints sys inst vars Rat.one;
  (* Constraint (3a): f_lo ≤ F ≤ f_hi. *)
  add_constr sys (Named "F_lo") [ (f_var, Rat.one) ] P.Ge f_lo;
  add_constr sys (Named "F_hi") [ (f_var, Rat.one) ] P.Le f_hi;
  P.Builder.set_objective sys.st P.Minimize [ (f_var, Rat.one) ];
  {
    pf_problem = finish sys ~scalars:[| "F" |] vars;
    pf_bounds = bounds;
    pf_decode = (fun values -> (values.(f_var), decode_alloc vars values));
  }

(* ------------------------------------------------------------------ *)
(* Constraint-matrix sparsity                                          *)
(* ------------------------------------------------------------------ *)

type sparsity = {
  sp_rows : int;
  sp_cols : int; (* structural columns incl. slack/artificial *)
  sp_nnz : int;
  sp_density : float;
}

(* The formulations emit one variable per admissible machine×interval
   triple, so rows touch few columns; this reports the CSC build of a
   system's constraint matrix (what the revised simplex engine actually
   iterates), for the bench reports and DESIGN numbers. *)
let sparsity (p : Rat.t P.t) =
  let prep = Lp.Revised.Exact.prepare p in
  let m = Lp.Revised.Exact.matrix prep in
  {
    sp_rows = Linalg.Sparse.nrows m;
    sp_cols = Linalg.Sparse.ncols m;
    sp_nnz = Linalg.Sparse.nnz m;
    sp_density = Linalg.Sparse.density m;
  }
