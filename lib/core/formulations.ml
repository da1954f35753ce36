module Rat = Numeric.Rat
module Affine = Numeric.Affine
module P = Lp.Problem

type alloc = (int * int * int * Rat.t) list

let var_name t i j = Printf.sprintf "a_t%d_m%d_j%d" t i j

(* Register α variables for all admissible (t, i, j) and return them with
   their LP indices.  [admissible t j] decides (release/deadline) timing;
   machine admissibility is the finiteness of c_{i,j}. *)
let alpha_variables st inst ~num_intervals ~admissible =
  let n = Instance.num_jobs inst and m = Instance.num_machines inst in
  let vars = ref [] in
  for t = 0 to num_intervals - 1 do
    for j = 0 to n - 1 do
      if admissible t j then
        for i = 0 to m - 1 do
          match Instance.cost inst ~machine:i ~job:j with
          | Some c ->
            let v = P.Builder.fresh_var st ~name:(var_name t i j) in
            vars := (v, t, i, j, c) :: !vars
          | None -> ()
        done
    done
  done;
  List.rev !vars

(* Completion constraints (1d)/(2d)/(3e)/(5a): Σ_t Σ_i α = 1 per job.
   A job with no admissible variable yields the infeasible [0 = 1], which
   is exactly the right outcome (its deadline precedes any processing
   opportunity). *)
let add_completion_constraints st inst vars =
  let n = Instance.num_jobs inst in
  let terms = Array.make n [] in
  List.iter (fun (v, _, _, j, _) -> terms.(j) <- (v, Rat.one) :: terms.(j)) vars;
  for j = 0 to n - 1 do
    P.Builder.add_constr st ~name:(Printf.sprintf "complete_j%d" j) terms.(j) P.Eq Rat.one
  done

(* Group the work terms (α·c) by key for resource constraints. *)
let work_terms_by vars ~key =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (v, t, i, j, c) ->
      let k = key t i j in
      let cur = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k ((v, c) :: cur))
    vars;
  tbl

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
  let st = P.Builder.create () in
  let delta = P.Builder.fresh_var st ~name:"delta" in
  let admissible t j =
    if t = nb then true (* every job is released by the last release date *)
    else Rat.compare (fst bounded.(t)) (Instance.release inst j) >= 0
  in
  let vars = alpha_variables st inst ~num_intervals ~admissible in
  (* Resource constraints (1b) for bounded intervals, (1c) for the final. *)
  let by_ti = work_terms_by vars ~key:(fun t i _ -> (t, i)) in
  Hashtbl.iter
    (fun (t, i) terms ->
      let terms = List.map (fun (v, c) -> (v, c)) terms in
      if t < nb then begin
        let lo, hi = bounded.(t) in
        P.Builder.add_constr st
          ~name:(Printf.sprintf "res_t%d_m%d" t i)
          terms P.Le (Rat.sub hi lo)
      end
      else
        P.Builder.add_constr st
          ~name:(Printf.sprintf "final_m%d" i)
          ((delta, Rat.minus_one) :: terms)
          P.Le Rat.zero)
    by_ti;
  add_completion_constraints st inst vars;
  P.Builder.set_objective st P.Minimize [ (delta, Rat.one) ];
  {
    mk_problem = P.Builder.finish st;
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

let deadline_system ?(divisible = true) inst ~deadlines =
  let n = Instance.num_jobs inst in
  if Array.length deadlines <> n then
    invalid_arg "Formulations.deadline_system: deadlines length mismatch";
  let intervals =
    Intervals.of_epochals
      (Array.to_list (Array.map (fun (j : Instance.job) -> j.release) inst.Instance.jobs)
      @ Array.to_list deadlines)
  in
  let st = P.Builder.create () in
  let admissible t j =
    let lo, hi = intervals.(t) in
    Rat.compare lo (Instance.release inst j) >= 0 && Rat.compare hi deadlines.(j) <= 0
  in
  let vars = alpha_variables st inst ~num_intervals:(Array.length intervals) ~admissible in
  let add_capacity_constraints ~key ~name_of =
    Hashtbl.iter
      (fun k terms ->
        let t, _ = k in
        let lo, hi = intervals.(t) in
        P.Builder.add_constr st ~name:(name_of k) terms P.Le (Rat.sub hi lo))
      (work_terms_by vars ~key)
  in
  add_capacity_constraints
    ~key:(fun t i _ -> (t, i))
    ~name_of:(fun (t, i) -> Printf.sprintf "res_t%d_m%d" t i);
  if not divisible then
    (* Constraint (5b) of Section 4.4: each job receives at most the
       interval length across all machines. *)
    add_capacity_constraints
      ~key:(fun t _ j -> (t, j))
      ~name_of:(fun (t, j) -> Printf.sprintf "job_t%d_j%d" t j);
  add_completion_constraints st inst vars;
  P.Builder.set_objective st P.Minimize [];
  {
    dl_problem = P.Builder.finish st;
    dl_intervals = intervals;
    dl_decode = (fun values -> decode_alloc vars values);
  }

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
  let epochals =
    List.init n (fun j -> Affine.const (Instance.release inst j))
    @ List.init n (fun j -> deadline_fn inst j)
  in
  (* Distinct epochal functions, ordered by value at the reference point.
     Two functions equal at [mid] are identical on the whole range (they
     would otherwise cross strictly inside it, contradicting the
     milestone-free hypothesis), so deduplication by value is sound. *)
  let bounds =
    epochals
    |> List.map (fun e -> (Affine.eval e mid, e))
    |> List.sort_uniq (fun (a, _) (b, _) -> Rat.compare a b)
    |> List.map snd
    |> Array.of_list
  in
  let num_intervals = Array.length bounds - 1 in
  let st = P.Builder.create () in
  let f_var = P.Builder.fresh_var st ~name:"F" in
  let admissible t j =
    let lo = Affine.eval bounds.(t) mid and hi = Affine.eval bounds.(t + 1) mid in
    Rat.compare lo (Instance.release inst j) >= 0
    && Rat.compare hi (Affine.eval (deadline_fn inst j) mid) <= 0
  in
  let vars = alpha_variables st inst ~num_intervals ~admissible in
  (* Length of interval t as an affine function of F. *)
  let length t = Affine.sub bounds.(t + 1) bounds.(t) in
  (* Σ work − slope·F ≤ const encodes Σ work ≤ length(F). *)
  let add_capacity name t terms =
    let len = length t in
    P.Builder.add_constr st ~name
      ((f_var, Rat.neg len.Affine.slope) :: terms)
      P.Le len.Affine.const
  in
  let by_ti = work_terms_by vars ~key:(fun t i _ -> (t, i)) in
  Hashtbl.iter
    (fun (t, i) terms -> add_capacity (Printf.sprintf "res_t%d_m%d" t i) t terms)
    by_ti;
  if not divisible then begin
    (* Constraint (5b): a single job cannot receive more than the interval
       length in total across machines — necessary for the Lawler–Labetoulle
       reconstruction. *)
    let by_tj = work_terms_by vars ~key:(fun t _ j -> (t, j)) in
    Hashtbl.iter
      (fun (t, j) terms -> add_capacity (Printf.sprintf "job_t%d_j%d" t j) t terms)
      by_tj
  end;
  add_completion_constraints st inst vars;
  (* Constraint (3a): f_lo ≤ F ≤ f_hi. *)
  P.Builder.add_constr st ~name:"F_lo" [ (f_var, Rat.one) ] P.Ge f_lo;
  P.Builder.add_constr st ~name:"F_hi" [ (f_var, Rat.one) ] P.Le f_hi;
  P.Builder.set_objective st P.Minimize [ (f_var, Rat.one) ];
  {
    pf_problem = P.Builder.finish st;
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
