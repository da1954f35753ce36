(* Tests for the LP layer: the dense-tableau oracle (lib/oracle) on both
   the exact-rational and the float instances, the revised simplex that
   production runs checked against it, and the [Lp.Solve] dispatcher's
   certified exact path and engine seam.  Random LPs are generated
   feasible-by-construction so that optimality and feasibility can be
   checked independently of the solver under test. *)

module R = Numeric.Rat
module P = Lp.Problem
module Sx = Oracle.Simplex.Exact
module Sf = Oracle.Simplex.Approx

let rat = Alcotest.testable R.pp R.equal

let q = R.of_ints

let solve_exact ?(dir = P.Minimize) ~vars ~obj constrs =
  let st = P.Builder.create () in
  for _ = 0 to vars - 1 do
    ignore (P.Builder.fresh_var st)
  done;
  List.iter (fun (terms, rel, rhs) -> P.Builder.add_constr st terms rel rhs) constrs;
  P.Builder.set_objective st dir obj;
  let p = P.Builder.finish st in
  (p, Sx.solve p)

let expect_optimal = function
  | Sx.Optimal s -> s
  | Sx.Infeasible -> Alcotest.fail "expected optimal, got infeasible"
  | Sx.Unbounded -> Alcotest.fail "expected optimal, got unbounded"

(* ------------------------------------------------------------------ *)
(* Hand-checked LPs                                                    *)
(* ------------------------------------------------------------------ *)

(* max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18  (classic Dantzig
   example; optimum 36 at (2,6)). *)
let test_dantzig () =
  let _, out =
    solve_exact ~dir:P.Maximize ~vars:2
      ~obj:[ (0, R.of_int 3); (1, R.of_int 5) ]
      [ ([ (0, R.one) ], P.Le, R.of_int 4);
        ([ (1, R.of_int 2) ], P.Le, R.of_int 12);
        ([ (0, R.of_int 3); (1, R.of_int 2) ], P.Le, R.of_int 18)
      ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "objective" (R.of_int 36) s.objective;
  Alcotest.(check rat) "x" (R.of_int 2) s.values.(0);
  Alcotest.(check rat) "y" (R.of_int 6) s.values.(1)

(* min x + y s.t. x + 2y >= 4; 3x + y >= 6 → optimum at intersection
   (8/5, 6/5), value 14/5. *)
let test_ge_constraints () =
  let _, out =
    solve_exact ~vars:2
      ~obj:[ (0, R.one); (1, R.one) ]
      [ ([ (0, R.one); (1, R.of_int 2) ], P.Ge, R.of_int 4);
        ([ (0, R.of_int 3); (1, R.one) ], P.Ge, R.of_int 6)
      ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "objective" (q 14 5) s.objective;
  Alcotest.(check rat) "x" (q 8 5) s.values.(0);
  Alcotest.(check rat) "y" (q 6 5) s.values.(1)

(* Equality constraints: min 2x + 3y s.t. x + y = 10; x - y <= 2. *)
let test_eq_constraints () =
  let _, out =
    solve_exact ~vars:2
      ~obj:[ (0, R.of_int 2); (1, R.of_int 3) ]
      [ ([ (0, R.one); (1, R.one) ], P.Eq, R.of_int 10);
        ([ (0, R.one); (1, R.minus_one) ], P.Le, R.of_int 2)
      ]
  in
  let s = expect_optimal out in
  (* Cheapest is to put as much as possible on x: x - y <= 2 and x + y = 10
     give x = 6, y = 4, objective 24. *)
  Alcotest.(check rat) "objective" (R.of_int 24) s.objective;
  Alcotest.(check rat) "x" (R.of_int 6) s.values.(0);
  Alcotest.(check rat) "y" (R.of_int 4) s.values.(1)

let test_infeasible () =
  let _, out =
    solve_exact ~vars:1
      ~obj:[ (0, R.one) ]
      [ ([ (0, R.one) ], P.Ge, R.of_int 5); ([ (0, R.one) ], P.Le, R.of_int 3) ]
  in
  (match out with
   | Sx.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_infeasible_eq () =
  let _, out =
    solve_exact ~vars:2
      ~obj:[ (0, R.one) ]
      [ ([ (0, R.one); (1, R.one) ], P.Eq, R.of_int 1);
        ([ (0, R.of_int 2); (1, R.of_int 2) ], P.Eq, R.of_int 3)
      ]
  in
  (match out with
   | Sx.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  let _, out =
    solve_exact ~dir:P.Maximize ~vars:2
      ~obj:[ (0, R.one); (1, R.one) ]
      [ ([ (0, R.one); (1, R.minus_one) ], P.Le, R.of_int 1) ]
  in
  (match out with
   | Sx.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

(* Negative right-hand side must be normalized, not rejected. *)
let test_negative_rhs () =
  let _, out =
    solve_exact ~vars:2
      ~obj:[ (0, R.one); (1, R.one) ]
      [ ([ (0, R.minus_one); (1, R.minus_one) ], P.Le, R.of_int (-4)) ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "objective" (R.of_int 4) s.objective

(* Degenerate LP (redundant constraint through the optimum). *)
let test_degenerate () =
  let _, out =
    solve_exact ~dir:P.Maximize ~vars:2
      ~obj:[ (0, R.one); (1, R.one) ]
      [ ([ (0, R.one) ], P.Le, R.of_int 2);
        ([ (1, R.one) ], P.Le, R.of_int 2);
        ([ (0, R.one); (1, R.one) ], P.Le, R.of_int 4);
        ([ (0, R.of_int 2); (1, R.of_int 2) ], P.Le, R.of_int 8)
      ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "objective" (R.of_int 4) s.objective

(* Redundant equality rows (phase 1 ends with a basic artificial on an
   all-zero row). *)
let test_redundant_equalities () =
  let _, out =
    solve_exact ~vars:2
      ~obj:[ (0, R.one); (1, R.of_int 2) ]
      [ ([ (0, R.one); (1, R.one) ], P.Eq, R.of_int 3);
        ([ (0, R.of_int 2); (1, R.of_int 2) ], P.Eq, R.of_int 6);
        ([ (0, R.one) ], P.Le, R.of_int 3)
      ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "objective" (R.of_int 3) s.objective;
  Alcotest.(check rat) "x" (R.of_int 3) s.values.(0)

(* Zero-width constraint 0 <= c and empty objective still work. *)
let test_trivial () =
  let _, out = solve_exact ~vars:1 ~obj:[] [ ([], P.Le, R.of_int 1) ] in
  let s = expect_optimal out in
  Alcotest.(check rat) "objective" R.zero s.objective;
  let _, out = solve_exact ~vars:1 ~obj:[ (0, R.one) ] [ ([], P.Le, R.of_int 1) ] in
  let s = expect_optimal out in
  Alcotest.(check rat) "min x = 0" R.zero s.objective

(* Duplicate terms on the same variable must be accumulated. *)
let test_duplicate_terms () =
  let _, out =
    solve_exact ~dir:P.Maximize ~vars:1
      ~obj:[ (0, R.one); (0, R.one) ] (* objective is really 2x *)
      [ ([ (0, R.one); (0, R.one) ], P.Le, R.of_int 6) (* really 2x <= 6 *) ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "x" (R.of_int 3) s.values.(0);
  Alcotest.(check rat) "objective" (R.of_int 6) s.objective

(* An LP with a fractional optimum exercises exactness: max x s.t. 3x <= 1
   must give exactly 1/3, not 0.33333. *)
let test_exactness () =
  let _, out =
    solve_exact ~dir:P.Maximize ~vars:1
      ~obj:[ (0, R.one) ]
      [ ([ (0, R.of_int 3) ], P.Le, R.one) ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "exactly 1/3" (q 1 3) s.values.(0)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

(* Random feasible-by-construction minimization problems: draw a random
   nonnegative point x0 and random rows a, then add constraints
   a·x >= a·x0 when a·x0 >= 0 favours boundedness below. *)
let random_lp_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 5 in
  let* ncons = int_range 1 6 in
  let* x0 = array_size (return nvars) (int_range 0 10) in
  let* rows = array_size (return ncons) (array_size (return nvars) (int_range 0 5)) in
  let* obj = array_size (return nvars) (int_range 1 5) in
  return (nvars, x0, rows, obj)

let build_random_min (nvars, x0, rows, obj) =
  let st = P.Builder.create () in
  for _ = 0 to nvars - 1 do
    ignore (P.Builder.fresh_var st)
  done;
  Array.iter
    (fun row ->
      let terms = Array.to_list (Array.mapi (fun v k -> (v, R.of_int k)) row) in
      let rhs =
        Array.fold_left ( + ) 0 (Array.mapi (fun v k -> k * x0.(v)) row)
      in
      P.Builder.add_constr st terms P.Ge (R.of_int rhs))
    rows;
  P.Builder.set_objective st P.Minimize
    (Array.to_list (Array.mapi (fun v k -> (v, R.of_int k)) obj));
  P.Builder.finish st

let prop_optimal_is_feasible =
  QCheck.Test.make ~name:"optimal solution satisfies all constraints" ~count:100
    (QCheck.make random_lp_gen) (fun spec ->
      let p = build_random_min spec in
      match Sx.solve p with
      | Sx.Optimal s -> Result.is_ok (Sx.check_feasible p s.values)
      | Sx.Infeasible -> false (* feasible by construction *)
      | Sx.Unbounded -> false (* min with nonnegative costs is bounded by 0 *))

let prop_optimal_beats_witness =
  QCheck.Test.make ~name:"optimal objective <= witness objective" ~count:100
    (QCheck.make random_lp_gen) (fun ((_, x0, _, obj) as spec) ->
      let p = build_random_min spec in
      match Sx.solve p with
      | Sx.Optimal s ->
        let witness =
          Array.fold_left ( + ) 0 (Array.mapi (fun v k -> k * x0.(v)) obj)
        in
        R.compare s.objective (R.of_int witness) <= 0
      | _ -> false)

let prop_exact_and_float_agree =
  QCheck.Test.make ~name:"exact and float solvers agree" ~count:100
    (QCheck.make random_lp_gen) (fun spec ->
      let p = build_random_min spec in
      let pf : float P.t =
        {
          P.num_vars = p.P.num_vars;
          direction = p.P.direction;
          objective = List.map (fun (v, k) -> (v, R.to_float k)) p.P.objective;
          constraints =
            List.map
              (fun (c : R.t P.constr) ->
                {
                  P.terms = List.map (fun (v, k) -> (v, R.to_float k)) c.P.terms;
                  rel = c.P.rel;
                  rhs = R.to_float c.P.rhs;
                })
              p.P.constraints;
          names = p.P.names;
        }
      in
      match (Sx.solve p, Sf.solve pf) with
      | Sx.Optimal a, Sf.Optimal b -> Float.abs (R.to_float a.objective -. b.objective) < 1e-6
      | Sx.Infeasible, Sf.Infeasible | Sx.Unbounded, Sf.Unbounded -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* LP duality                                                          *)
(* ------------------------------------------------------------------ *)

(* Strong duality and dual feasibility of the reported duals, checked on
   both exact solvers.  For a minimization with x ≥ 0:
   - Σ_i y_i·b_i = optimal objective;
   - reduced costs c_j − Σ_i y_i·a_ij ≥ 0 for every variable;
   - y_i ≤ 0 on Le rows, y_i ≥ 0 on Ge rows, free on Eq rows. *)
let dual_certificate_holds (p : R.t P.t) (s : Sx.solution) =
  let constrs = Array.of_list p.P.constraints in
  let strong =
    let yb =
      Array.to_list (Array.mapi (fun i (c : R.t P.constr) -> R.mul s.duals.(i) c.rhs) constrs)
      |> List.fold_left R.add R.zero
    in
    R.equal yb s.objective
  in
  let signs_ok =
    let expected_sign (c : R.t P.constr) =
      match (p.P.direction, c.rel) with
      | P.Minimize, P.Le | P.Maximize, P.Ge -> `NonPositive
      | P.Minimize, P.Ge | P.Maximize, P.Le -> `NonNegative
      | _, P.Eq -> `Free
    in
    Array.for_all2
      (fun (c : R.t P.constr) y ->
        match expected_sign c with
        | `NonPositive -> R.sign y <= 0
        | `NonNegative -> R.sign y >= 0
        | `Free -> true)
      constrs s.duals
  in
  let reduced_costs_ok =
    let reduced = Array.make p.P.num_vars R.zero in
    List.iter (fun (v, k) -> reduced.(v) <- R.add reduced.(v) k) p.P.objective;
    Array.iteri
      (fun i (c : R.t P.constr) ->
        List.iter
          (fun (v, k) -> reduced.(v) <- R.sub reduced.(v) (R.mul s.duals.(i) k))
          c.terms)
      constrs;
    match p.P.direction with
    | P.Minimize -> Array.for_all (fun r -> R.sign r >= 0) reduced
    | P.Maximize -> Array.for_all (fun r -> R.sign r <= 0) reduced
  in
  strong && signs_ok && reduced_costs_ok

let test_duality_hand_case () =
  (* Dantzig's example again: the known dual optimum is y = (0, 3/2, 1). *)
  let p, out =
    solve_exact ~dir:P.Maximize ~vars:2
      ~obj:[ (0, R.of_int 3); (1, R.of_int 5) ]
      [ ([ (0, R.one) ], P.Le, R.of_int 4);
        ([ (1, R.of_int 2) ], P.Le, R.of_int 12);
        ([ (0, R.of_int 3); (1, R.of_int 2) ], P.Le, R.of_int 18)
      ]
  in
  let s = expect_optimal out in
  Alcotest.(check rat) "y1" R.zero s.duals.(0);
  Alcotest.(check rat) "y2" (q 3 2) s.duals.(1);
  Alcotest.(check rat) "y3" R.one s.duals.(2);
  Alcotest.(check bool) "certificate" true (dual_certificate_holds p s)

(* Feasible-by-construction problems with MIXED relations (Le/Ge/Eq) and
   fractional coefficients — the shape of the scheduling formulations.
   This generator exists because a phase-1 drive-out bug in an earlier
   fraction-free engine survived the Ge-only generator above. *)
let mixed_lp_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 5 in
  let* ncons = int_range 1 7 in
  let* x0 = array_size (return nvars) (int_range 0 8) in
  let* rows =
    array_size (return ncons)
      (pair
         (array_size (return nvars) (pair (int_range (-4) 4) (int_range 1 3)))
         (pair (int_range 0 2) (int_range 0 5)))
  in
  let* obj = array_size (return nvars) (int_range 0 5) in
  return (nvars, x0, rows, obj)

let build_mixed_min (nvars, x0, rows, obj) =
  let st = P.Builder.create () in
  for _ = 0 to nvars - 1 do
    ignore (P.Builder.fresh_var st)
  done;
  Array.iter
    (fun (coeffs, (rel_pick, slack)) ->
      let terms =
        Array.to_list (Array.mapi (fun v (num, den) -> (v, q num den)) coeffs)
      in
      let at_x0 =
        Array.fold_left
          (fun acc (v, c) -> R.add acc (R.mul_int c x0.(v)))
          R.zero
          (Array.mapi (fun v (num, den) -> (v, q num den)) coeffs)
      in
      match rel_pick with
      | 0 -> P.Builder.add_constr st terms P.Le (R.add at_x0 (R.of_int slack))
      | 1 -> P.Builder.add_constr st terms P.Ge (R.sub at_x0 (R.of_int slack))
      | _ -> P.Builder.add_constr st terms P.Eq at_x0)
    rows;
  P.Builder.set_objective st P.Minimize
    (Array.to_list (Array.mapi (fun v k -> (v, R.of_int k)) obj));
  P.Builder.finish st

let prop_duality_rational =
  QCheck.Test.make ~name:"strong duality certificate (rational solver)" ~count:200
    (QCheck.make mixed_lp_gen) (fun spec ->
      let p = build_mixed_min spec in
      match Sx.solve p with
      | Sx.Optimal s -> dual_certificate_holds p s
      | Sx.Infeasible | Sx.Unbounded -> true)

(* Scaling all constraints and the objective by a positive constant scales
   the optimum by the same constant. *)
let prop_scaling =
  QCheck.Test.make ~name:"objective scales linearly" ~count:50
    (QCheck.pair (QCheck.make random_lp_gen) (QCheck.int_range 2 7))
    (fun (spec, k) ->
      let p = build_random_min spec in
      let scaled : R.t P.t =
        { p with
          P.objective = List.map (fun (v, c) -> (v, R.mul_int c k)) p.P.objective }
      in
      match (Sx.solve p, Sx.solve scaled) with
      | Sx.Optimal a, Sx.Optimal b -> R.equal (R.mul_int a.objective k) b.objective
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Revised simplex (sparse engine)                                     *)
(* ------------------------------------------------------------------ *)

module Rv = Lp.Revised.Exact
module Rva = Lp.Revised.Approx
module Lu = Linalg.Lu.Make (Linalg.Field.Rational)

let solution_equal (a : Sx.solution) (b : Sx.solution) =
  Array.length a.values = Array.length b.values
  && Array.for_all2 R.equal a.values b.values
  && R.equal a.objective b.objective
  && Array.length a.duals = Array.length b.duals
  && Array.for_all2 R.equal a.duals b.duals

let outcome_equal (a : Sx.outcome) (b : Sx.outcome) =
  match (a, b) with
  | Sx.Optimal a, Sx.Optimal b -> solution_equal a b
  | Sx.Infeasible, Sx.Infeasible | Sx.Unbounded, Sx.Unbounded -> true
  | _ -> false

let to_float_problem (p : R.t P.t) : float P.t = P.map R.to_float p

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_revised_hand_cases () =
  (* Dantzig's example through the revised engine, checked bit-for-bit
     against the dense tableau (values, objective, and duals). *)
  let p, dense_out =
    solve_exact ~dir:P.Maximize ~vars:2
      ~obj:[ (0, R.of_int 3); (1, R.of_int 5) ]
      [ ([ (0, R.one) ], P.Le, R.of_int 4);
        ([ (1, R.of_int 2) ], P.Le, R.of_int 12);
        ([ (0, R.of_int 3); (1, R.of_int 2) ], P.Le, R.of_int 18)
      ]
  in
  Alcotest.(check bool) "dantzig identical" true (outcome_equal dense_out (Rv.solve p));
  (* Infeasible, unbounded, fractional, negative-rhs cases. *)
  List.iter
    (fun (dir, vars, obj, constrs) ->
      let p, dense_out = solve_exact ~dir ~vars ~obj constrs in
      Alcotest.(check bool) "identical outcome" true
        (outcome_equal dense_out (Rv.solve p)))
    [ (P.Minimize, 1, [ (0, R.one) ],
       [ ([ (0, R.one) ], P.Ge, R.of_int 5); ([ (0, R.one) ], P.Le, R.of_int 3) ]);
      (P.Maximize, 2, [ (0, R.one); (1, R.one) ],
       [ ([ (0, R.one); (1, R.minus_one) ], P.Le, R.of_int 1) ]);
      (P.Maximize, 1, [ (0, R.one) ], [ ([ (0, R.of_int 3) ], P.Le, R.one) ]);
      (P.Minimize, 2, [ (0, R.one); (1, R.one) ],
       [ ([ (0, R.minus_one); (1, R.minus_one) ], P.Le, R.of_int (-4)) ]);
      (P.Minimize, 2, [ (0, R.one); (1, R.of_int 2) ],
       [ ([ (0, R.one); (1, R.one) ], P.Eq, R.of_int 3);
         ([ (0, R.of_int 2); (1, R.of_int 2) ], P.Eq, R.of_int 6);
         ([ (0, R.one) ], P.Le, R.of_int 3) ])
    ]

(* Beale's cycling LP: max ¾x₁ − 20x₂ + ½x₃ − 6x₄ subject to
   ¼x₁ − 8x₂ − x₃ + 9x₄ ≤ 0, ½x₁ − 12x₂ − ½x₃ + 3x₄ ≤ 0, x₃ ≤ 1.  Dantzig
   with first-index ties cycles on it, so it spends the whole Dantzig
   budget (50 + 4·(m + width) = 94 pivots) and the Bland fallback ends
   it: the only LP known to reach the Bland branch.  Both fields pin the
   pivot counts and the optimum 5/4. *)
let beale_lp () =
  fst
    (solve_exact ~dir:P.Maximize ~vars:4
       ~obj:[ (0, q 3 4); (1, R.of_int (-20)); (2, q 1 2); (3, R.of_int (-6)) ]
       [ ([ (0, q 1 4); (1, R.of_int (-8)); (2, R.of_int (-1)); (3, R.of_int 9) ], P.Le,
          R.zero);
         ([ (0, q 1 2); (1, R.of_int (-12)); (2, q (-1) 2); (3, R.of_int 3) ], P.Le,
          R.zero);
         ([ (2, R.one) ], P.Le, R.one)
       ])

let test_beale_bland () =
  let p = beale_lp () in
  let p1 = ref 0 and p2 = ref 0 in
  (match Rv.cold_solve (Rv.prepare p) ~count1:p1 ~count2:p2 with
   | Sx.Optimal s, _ -> Alcotest.check rat "exact objective" (q 5 4) s.objective
   | _ -> Alcotest.fail "exact: expected optimal");
  Alcotest.(check (list int)) "exact pivots per phase" [ 0; 96 ] [ !p1; !p2 ];
  let p1 = ref 0 and p2 = ref 0 in
  (match Rva.cold_solve (Rva.prepare (to_float_problem p)) ~count1:p1 ~count2:p2 with
   | Lp.Solution.Optimal s, _ ->
     Alcotest.(check (float 1e-9)) "float objective" 1.25 s.Lp.Solution.objective
   | _ -> Alcotest.fail "float: expected optimal");
  Alcotest.(check (list int)) "float pivots per phase" [ 0; 96 ] [ !p1; !p2 ]

(* The parity claim behind the dense-oracle differential tests
   ([Oracle.with_dense]): a cold
   revised solve follows the dense pivot rules exactly, so in exact
   arithmetic the full payload (values, objective, duals) is identical. *)
let prop_revised_bit_identical =
  QCheck.Test.make ~name:"revised ≡ dense bit-for-bit (cold, rational)" ~count:300
    (QCheck.make mixed_lp_gen) (fun spec ->
      let p = build_mixed_min spec in
      outcome_equal (Sx.solve p) (Rv.solve p))

let prop_revised_bit_identical_ge =
  QCheck.Test.make ~name:"revised ≡ dense bit-for-bit (Ge-only generator)" ~count:150
    (QCheck.make random_lp_gen) (fun spec ->
      let p = build_random_min spec in
      outcome_equal (Sx.solve p) (Rv.solve p))

let prop_revised_duality =
  QCheck.Test.make ~name:"strong duality certificate (revised solver)" ~count:200
    (QCheck.make mixed_lp_gen) (fun spec ->
      let p = build_mixed_min spec in
      match Rv.solve p with
      | Sx.Optimal s -> dual_certificate_holds p s
      | Sx.Infeasible | Sx.Unbounded -> true)

(* The approx instance of the revised engine against the dense float
   tableau: same classification, objectives within tolerance. *)
let prop_revised_approx_agrees =
  QCheck.Test.make ~name:"revised approx ≈ dense approx" ~count:150
    (QCheck.make random_lp_gen) (fun spec ->
      let p = build_random_min spec in
      let pf = to_float_problem p in
      match (Sf.solve pf, Rva.solve pf) with
      | Sf.Optimal a, Sf.Optimal b -> Float.abs (a.objective -. b.objective) < 1e-6
      | Sf.Infeasible, Sf.Infeasible | Sf.Unbounded, Sf.Unbounded -> true
      | _ -> false)

(* The basis invariants of a revised-simplex state, checked exactly and
   independently of the engine's kernels: B⁻¹·A_j is the unit vector e_k
   for the column j basic in row k, and x_B = B⁻¹·b.  [pivot] updates
   B⁻¹ only on the pivot row's nonzero columns, so a stale or skipped
   entry there breaks one of the two. *)
let basis_invariants_hold (st : Rv.state) =
  let prep = st.Rv.prep in
  let cols = Rv.matrix prep in
  let dot_col i j =
    Linalg.Sparse.fold_col cols j
      (fun acc r a -> R.add acc (R.mul st.Rv.binv.(i).(r) a))
      R.zero
  in
  let row_ok i =
    let unit_ok = ref true in
    Array.iteri
      (fun k j ->
        if not (R.equal (dot_col i j) (if i = k then R.one else R.zero)) then
          unit_ok := false)
      st.Rv.basis;
    let x = ref R.zero in
    Array.iteri (fun k bk -> x := R.add !x (R.mul st.Rv.binv.(i).(k) bk)) prep.Lp.Revised.b;
    !unit_ok && R.equal !x st.Rv.xb.(i)
  in
  List.for_all row_ok (List.init prep.Lp.Revised.m Fun.id)

(* [mixed_lp_gen]'s problems with every term split into two duplicates
   ((c−1)·x + 1·x, so a zero coefficient becomes a pair that cancels),
   and, on [degenerate], the witness x0 set to 0 so that every Eq row and
   every slack-0 row has right-hand side 0. *)
let duplicated_terms_problem ((nvars, x0, rows, obj), degenerate) =
  let x0 = if degenerate then Array.make (Array.length x0) 0 else x0 in
  let p = build_mixed_min (nvars, x0, rows, obj) in
  let split (c : R.t P.constr) =
    { c with
      P.terms = List.concat_map (fun (v, k) -> [ (v, R.sub k R.one); (v, R.one) ]) c.P.terms }
  in
  { p with P.constraints = List.map split p.P.constraints }

let prop_basis_invariants =
  QCheck.Test.make ~name:"revised state: binv·B = I and xb = binv·b after a solve"
    ~count:300
    (QCheck.pair (QCheck.make mixed_lp_gen) QCheck.bool)
    (fun spec ->
      let p = duplicated_terms_problem spec in
      let _, st = Rv.cold_solve (Rv.prepare p) ~count1:(ref 0) ~count2:(ref 0) in
      basis_invariants_hold st)

(* ------------------------------------------------------------------ *)
(* Bit-identity fixture: every solve of a fixed corpus, to the bit      *)
(* ------------------------------------------------------------------ *)

(* The corpus: the deadline systems (2)/(5) at every milestone candidate
   and the parametric systems (3)/(5) on every bracket of 100
   [Check.Gen] instances, plus the random LP generators above.  Each LP
   is solved by both revised instances.  A record holds the outcome tag,
   the phase pivot counts, the final basis, the prepared CSC matrix, and
   every value, the objective and every dual — floats as their IEEE bit
   patterns, rationals as [R.to_string].  The committed fixture is one
   MD5 per corpus group and field; the ≈1e-6 agreement
   properties above cannot see a reordered rounding, this can.

   To re-record after an intended change of results: run the test, then
   copy _build/default/test/lp_bits.actual over
   test/fixtures/lp_bits.digest. *)

module I = Sched_core.Instance
module Fm = Sched_core.Formulations

let corpus_seeds = List.init 100 Fun.id

(* [(label, problems)] groups, in a fixed order. *)
let corpus () =
  let gen_groups =
    List.concat_map
      (fun seed ->
        let inst = Check.Gen.instance (Gripps.Prng.create seed) in
        if I.num_jobs inst = 0 then []
        else
          let candidates =
            Sched_core.Milestones.candidates inst
              ~upper:(Sched_core.Max_flow.feasible_upper_bound inst)
          in
          List.map
            (fun divisible ->
              let deadline f =
                (Fm.deadline_system ~divisible inst
                   ~deadlines:(Sched_core.Deadline.flow_deadlines inst ~objective:f))
                  .Fm.dl_problem
              in
              let parametric i =
                let f_lo = if i = 0 then R.zero else candidates.(i - 1) in
                (Fm.parametric_system ~divisible inst ~f_lo ~f_hi:candidates.(i))
                  .Fm.pf_problem
              in
              ( Printf.sprintf "gen%03d-%s" seed (if divisible then "div" else "pre"),
                Array.to_list (Array.map deadline candidates)
                @ List.init (Array.length candidates) parametric ))
            [ true; false ])
      corpus_seeds
  in
  let generated name gen build n seed =
    ( name,
      List.map build (QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n gen) )
  in
  gen_groups
  @ [ generated "random-ge" random_lp_gen build_random_min 150 1;
      generated "mixed" mixed_lp_gen build_mixed_min 150 2;
      generated "duplicated"
        (QCheck.Gen.pair mixed_lp_gen QCheck.Gen.bool)
        duplicated_terms_problem 150 3
    ]

(* One engine's record of a solve, written to [buf]. *)
module Record (E : sig
  type f

  val bits : f -> string

  type prepared

  type state = {
    prep : prepared;
    basis : int array;
    in_basis : bool array;
    binv : f array array;
    xb : f array;
  }

  val prepare : f P.t -> prepared
  val matrix : prepared -> f Linalg.Sparse.t

  val cold_solve :
    prepared -> count1:int ref -> count2:int ref -> f Lp.Solution.outcome * state
end) =
struct
  let add_list buf f xs =
    Buffer.add_char buf '[';
    List.iter (fun x -> Buffer.add_string buf (f x); Buffer.add_char buf ' ') xs;
    Buffer.add_char buf ']'

  let add_outcome buf (outcome : E.f Lp.Solution.outcome) (st : E.state) counts =
    add_list buf string_of_int counts;
    add_list buf string_of_int (Array.to_list st.E.basis);
    (match outcome with
     | Lp.Solution.Infeasible -> Buffer.add_string buf "infeasible"
     | Lp.Solution.Unbounded -> Buffer.add_string buf "unbounded"
     | Lp.Solution.Optimal s ->
       Buffer.add_string buf "optimal";
       add_list buf E.bits (Array.to_list s.Lp.Solution.values);
       Buffer.add_string buf (E.bits s.Lp.Solution.objective);
       add_list buf E.bits (Array.to_list s.Lp.Solution.duals));
    Buffer.add_char buf '\n'

  let add_matrix buf prep =
    let cols = E.matrix prep in
    for j = 0 to Linalg.Sparse.ncols cols - 1 do
      Linalg.Sparse.iter_col cols j (fun r v ->
          Buffer.add_string buf (Printf.sprintf " %d,%d:%s" j r (E.bits v)))
    done;
    Buffer.add_char buf '\n'

  let record buf problems =
    List.iter
      (fun p ->
        let prep = E.prepare p in
        add_matrix buf prep;
        let p1 = ref 0 and p2 = ref 0 in
        let outcome, st = E.cold_solve prep ~count1:p1 ~count2:p2 in
        add_outcome buf outcome st [ !p1; !p2 ])
      problems
end

module Record_exact = Record (struct
  type f = R.t

  let bits = R.to_string

  include Rv
end)

module Record_approx = Record (struct
  type f = float

  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

  include Rva
end)

let corpus_digest () =
  List.concat_map
    (fun (label, problems) ->
      let line field record =
        let buf = Buffer.create 4096 in
        record buf;
        Printf.sprintf "%s %s %d %s" label field (List.length problems)
          (Digest.to_hex (Digest.string (Buffer.contents buf)))
      in
      [ line "exact" (fun buf -> Record_exact.record buf problems);
        line "approx" (fun buf ->
            Record_approx.record buf (List.map to_float_problem problems))
      ])
    (corpus ())

let test_bit_identity_fixture () =
  Fixture.check ~fixture:"fixtures/lp_bits.digest" ~actual:"lp_bits.actual" (corpus_digest ())

(* ------------------------------------------------------------------ *)
(* Lp.Solve: exact answers certified from the float basis              *)
(* ------------------------------------------------------------------ *)

let same_columns a b =
  let sorted x = List.sort compare (Array.to_list x) in
  sorted a = sorted b

(* Every corpus LP through the certified path, against the cold exact
   solve.  A certified answer has the cold outcome kind and objective;
   its values and duals are bit-equal whenever it ended on the cold
   solve's basis (a basis's values and duals depend only on its column
   set), and otherwise are still an optimum — primal feasible with a
   dual certificate.  A fallback is the cold solve itself.  The counts
   are pinned: a float-side change that moves the final basis of one
   solve moves them. *)
let test_certified_corpus () =
  let same = ref 0 and other = ref 0 and fallbacks = ref 0 in
  List.iter
    (fun (label, problems) ->
      List.iteri
        (fun k p ->
          let where = Printf.sprintf "%s #%d" label k in
          let cold, st = Rv.cold_solve (Rv.prepare p) ~count1:(ref 0) ~count2:(ref 0) in
          match ((Lp.Solve.attempt (Rv.prepare p)).Lp.Solve.certified, cold) with
          | None, _ -> incr fallbacks
          | Some (got, basis), _ when same_columns basis st.Rv.basis ->
            incr same;
            if not (outcome_equal got cold) then
              Alcotest.failf "%s: same basis, different bits" where
          | Some (Sx.Optimal s, _), Sx.Optimal c ->
            incr other;
            if not (R.equal s.objective c.objective) then
              Alcotest.failf "%s: objective differs" where;
            if not (Result.is_ok (Sx.check_feasible p s.values) && dual_certificate_holds p s)
            then Alcotest.failf "%s: certified answer is not an optimum" where
          | Some (Sx.Infeasible, _), Sx.Infeasible -> incr other
          | Some _, _ -> Alcotest.failf "%s: outcome kind differs" where)
        problems)
    (corpus ());
  Alcotest.(check (list int)) "same basis, other basis, fallbacks" [ 2014; 0; 0 ]
    [ !same; !other; !fallbacks ]

(* A power of two as a rational: [pow2 k = 2^k], [k] may be negative. *)
let pow2 k =
  let step = if k < 0 then fun x -> R.div_int x 2 else fun x -> R.mul_int x 2 in
  List.fold_left (fun x _ -> step x) R.one (List.init (abs k) Fun.id)

(* [Lp.Solve.exact] on [p], with the certification counters around it. *)
let certified_solve p =
  let before = Lp.Instrument.certification () in
  let outcome = Lp.Solve.exact p in
  let after = Lp.Instrument.certification () in
  ( outcome,
    after.Lp.Instrument.certified - before.Lp.Instrument.certified,
    after.Lp.Instrument.fallbacks - before.Lp.Instrument.fallbacks )

(* Each way the float basis can fail its certificate falls back to the
   cold exact solve, returns exactly its answer, and counts one fallback;
   an infeasibility the float solve proves, and a row whose rhs rounds to
   −0.0, are certified. *)
let test_certified_fallbacks () =
  let cases =
    [ (* −2^−1100 rounds to −0.0, so a float normalization of its own
         would not flip the row the exact one flips (x ≥ −2^−1100 becomes
         −x ≤ 2^−1100).  The float image takes the exact layout, flip
         included, and its basis passes the certificate. *)
      ( "rhs sign disagreement",
        fst
          (solve_exact ~dir:P.Maximize ~vars:1 ~obj:[ (0, R.one) ]
             [ ([ (0, R.one) ], P.Le, R.one); ([ (0, R.one) ], P.Ge, R.neg (pow2 (-1100))) ]),
        `Certified );
      (* x + y = 1 and 2x + 2y = 2 + 2^−40: the float phase 1 ends 2^−40
         short and leaves the second row's artificial basic, as if the row
         were redundant.  Its basis is primal and dual feasible; only the
         artificial at 2^−40 refutes it. *)
      ( "basic artificial left nonzero",
        fst
          (solve_exact ~vars:2 ~obj:[ (0, R.one); (1, R.one) ]
             [ ([ (0, R.one); (1, R.one) ], P.Eq, R.one);
               ([ (0, R.two); (1, R.two) ], P.Eq, R.add R.two (pow2 (-40))) ]),
        `Fallback );
      (* 10^−12·x = 1: the float image drops the coefficient (below its
         tolerance) and finds the row infeasible; exactly, x = 10^12.  The
         float phase-1 basis has a positive value but a negative reduced
         cost. *)
      ( "float infeasible, exactly feasible",
        fst
          (solve_exact ~vars:1 ~obj:[ (0, R.one) ]
             [ ([ (0, R.inv (R.of_int 1_000_000_000_000)) ], P.Eq, R.one) ]),
        `Fallback );
      (* (1/13)·x ≤ 10^10/169 and x ≥ 10^10/13 meet exactly at
         x = 10^10/13; the float image rounds them apart by more than its
         tolerance and claims infeasibility, on a phase-1 basis whose
         value is exactly 0. *)
      ( "float infeasible, phase-1 value exactly 0",
        fst
          (solve_exact ~vars:1 ~obj:[ (0, R.one) ]
             [ ([ (0, q 1 13) ], P.Le, R.of_ints 10_000_000_000 169);
               ([ (0, R.one) ], P.Ge, R.of_ints 10_000_000_000 13) ]),
        `Fallback );
      (* x ≤ 1 and x ≥ 1 + 2^−40: the float phase 1 ends 2^−40 short, within
         its tolerance, and claims an optimum the rationals refute. *)
      ( "float feasible, exactly infeasible",
        fst
          (solve_exact ~vars:1 ~obj:[ (0, R.one) ]
             [ ([ (0, R.one) ], P.Le, R.one); ([ (0, R.one) ], P.Ge, R.add R.one (pow2 (-40))) ]),
        `Fallback );
      (* Both costs round to 1.0, so the float solve keeps x; exactly, y is
         cheaper and x's basis fails the reduced-cost check. *)
      ( "reduced cost negative in rationals",
        fst
          (solve_exact ~vars:2
             ~obj:[ (0, R.add R.one (pow2 (-60))); (1, R.one) ]
             [ ([ (0, R.one); (1, R.one) ], P.Ge, R.one) ]),
        `Fallback );
      (* 10⁻⁹·x = 1 on two rows: the float x prices at −2·10⁻⁹, below
         −eps, but both of its entries are within eps of 0, so the float
         phase 1 finds no leaving row; exactly, x = 10⁹. *)
      ( "float phase 1 unbounded",
        (let c = R.inv (R.of_int 1_000_000_000) in
         fst
           (solve_exact ~vars:1 ~obj:[ (0, R.one) ]
              [ ([ (0, c) ], P.Eq, R.one); ([ (0, c) ], P.Eq, R.one) ])),
        `Fallback );
      (* (2^1100 + 1)/2^1100 maps to NaN (numerator and denominator both
         overflow), which the float solve never prices; the rationals
         refuse the basis it ends on. *)
      ( "coefficient beyond the float range",
        (let c = R.add R.one (pow2 (-1100)) in
         fst (solve_exact ~vars:1 ~obj:[ (0, R.one) ] [ ([ (0, c) ], P.Ge, R.one) ])),
        `Fallback );
      ( "unbounded",
        fst
          (solve_exact ~dir:P.Maximize ~vars:2 ~obj:[ (0, R.one); (1, R.one) ]
             [ ([ (0, R.one); (1, R.minus_one) ], P.Le, R.one) ]),
        `Fallback );
      ( "infeasible, certified",
        fst
          (solve_exact ~vars:1 ~obj:[ (0, R.one) ]
             [ ([ (0, R.one) ], P.Ge, R.of_int 5); ([ (0, R.one) ], P.Le, R.of_int 3) ]),
        `Certified );
      (* x and y are both optimal.  Their phase-1 prices tie in floats, so
         the float solve keeps x, while the exact one prefers y: the
         certified answer is the other optimal vertex. *)
      ( "other optimal vertex, certified",
        (let a = R.add (q 1 3) (pow2 (-60)) in
         fst (solve_exact ~vars:2 ~obj:[ (0, q 1 3); (1, a) ] [ ([ (0, q 1 3); (1, a) ], P.Ge, R.one) ])),
        `Other_vertex )
    ]
  in
  List.iter
    (fun (name, p, expect) ->
      let outcome, certified, fallbacks = certified_solve p in
      let cold = Rv.solve p in
      (match (expect, outcome, cold) with
       | `Other_vertex, Sx.Optimal s, Sx.Optimal c ->
         Alcotest.(check rat) (name ^ ": objective") c.objective s.objective;
         Alcotest.(check bool) (name ^ ": another vertex") false (outcome_equal outcome cold)
       | `Other_vertex, _, _ -> Alcotest.failf "%s: expected two optima" name
       | (`Fallback | `Certified), _, _ ->
         Alcotest.(check bool) (name ^ ": cold answer") true (outcome_equal outcome cold));
      Alcotest.(check (pair int int)) (name ^ ": certified, fallbacks")
        (if expect = `Fallback then (0, 1) else (1, 0))
        (certified, fallbacks))
    cases;
  (* A singular target: y's column is 3 times x's, exactly.  Its
     factorization runs out of entries in y's column, and the certificate
     refuses. *)
  let p =
    fst
      (solve_exact ~vars:2 ~obj:[ (0, R.one) ]
         [ ([ (0, R.one); (1, R.of_int 3) ], P.Le, R.one);
           ([ (0, q 1 3); (1, R.one) ], P.Le, R.one) ])
  in
  let prep = Rv.prepare p in
  Alcotest.(check bool) "singular factorization" true
    (Lu.factor (Rv.matrix prep) [| 0; 1 |] = None);
  Alcotest.(check bool) "singular target refused" true
    (Rv.certify prep Lp.Solution.Infeasible [| 0; 1 |] ~count:(ref 0) = None)

(* [duplicated_terms_problem]'s LPs, and on [contradict] two more rows
   a·x ≥ t and a·x ≤ t − 1 on the first row's coefficients a, so that
   phase 1 ends positive whatever a is. *)
let feasible_or_not ((((_, _, rows, _) as spec), degenerate), contradict) =
  let p = duplicated_terms_problem (spec, degenerate) in
  if not contradict then p
  else begin
    let coeffs, (_, slack) = rows.(0) in
    let terms = Array.to_list (Array.mapi (fun v (num, den) -> (v, q num den)) coeffs) in
    let t = R.of_int slack in
    let row rel rhs = { P.terms; rel; rhs } in
    { p with P.constraints = p.P.constraints @ [ row P.Ge t; row P.Le (R.sub t R.one) ] }
  end

let feasible_or_not_arb =
  QCheck.pair (QCheck.pair (QCheck.make mixed_lp_gen) QCheck.bool) QCheck.bool

(* The cold solve's final basis and the factorization's certificate of
   it: a basis's values and duals depend only on its column set, so the
   certificate returns the cold outcome to the bit. *)
let prop_cold_basis_certified =
  QCheck.Test.make ~name:"certifying the cold basis returns the cold outcome" ~count:300
    feasible_or_not_arb (fun spec ->
      let prep = Rv.prepare (feasible_or_not spec) in
      let cold, st = Rv.cold_solve prep ~count1:(ref 0) ~count2:(ref 0) in
      match Rv.certify prep cold st.Rv.basis ~count:(ref 0) with
      | Some got -> outcome_equal got cold
      | None -> false)

(* The order of the target's columns picks the factorization's pivots,
   never its answer. *)
let prop_certify_permutation =
  QCheck.Test.make ~name:"permuting the target keeps the certified answer" ~count:300
    (QCheck.pair feasible_or_not_arb QCheck.int)
    (fun (spec, seed) ->
      let prep = Rv.prepare (feasible_or_not spec) in
      let cold, st = Rv.cold_solve prep ~count1:(ref 0) ~count2:(ref 0) in
      let shuffled = Array.copy st.Rv.basis in
      let rand = Random.State.make [| seed |] in
      for i = Array.length shuffled - 1 downto 1 do
        let k = Random.State.int rand (i + 1) in
        let x = shuffled.(i) in
        shuffled.(i) <- shuffled.(k);
        shuffled.(k) <- x
      done;
      match
        ( Rv.certify prep cold st.Rv.basis ~count:(ref 0),
          Rv.certify prep cold shuffled ~count:(ref 0) )
      with
      | Some a, Some b -> outcome_equal a b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Kept y and reduced costs ≡ recomputing them every iteration         *)
(* ------------------------------------------------------------------ *)

(* The primal loop with nothing kept across pivots: every iteration
   recomputes y = c_B·B⁻¹ with [multipliers] and every nonbasic reduced
   cost with [price], picks the entering column (Dantzig, then Bland)
   and the leaving row (minimum ratio, smallest basic variable on ties)
   by plain scans, and pivots.  The engine keeps y and d and refreshes
   only what a pivot's support touches; its final basis, x_B bits and
   per-phase pivot counts must be this loop's. *)
module Reference (F : Linalg.Field.With_kernels) = struct
  module E = Lp.Revised.Make (F)
  module L = Lp.Revised

  let primal count (st : E.state) ~cost ~allowed_up_to ~max_iters =
    let prep = st.E.prep in
    let budget = 50 + (4 * (prep.L.m + prep.L.total + 1)) in
    let rec loop iters =
      if iters > max_iters then raise L.Iteration_limit;
      let y = E.multipliers st cost in
      let nonbasic =
        Array.of_list
          (List.filter (fun j -> not st.E.in_basis.(j)) (List.init allowed_up_to Fun.id))
      in
      let d = Array.make allowed_up_to F.zero in
      F.price prep.L.cols cost y nonbasic (Array.length nonbasic) d;
      let negative = List.filter (fun j -> F.sign d.(j) < 0) (Array.to_list nonbasic) in
      let enter =
        match negative with
        | [] -> None
        | first :: rest when iters <= budget ->
          Some (List.fold_left (fun b j -> if F.compare d.(j) d.(b) < 0 then j else b) first rest)
        | first :: _ -> Some first
      in
      match enter with
      | None -> `Optimal
      | Some j -> (
        let w = E.column st j in
        let ratio i = F.div st.E.xb.(i) w.(i) in
        let better i b =
          let c = F.compare (ratio i) (ratio b) in
          c < 0 || (c = 0 && st.E.basis.(i) < st.E.basis.(b))
        in
        let leave =
          List.fold_left
            (fun best i ->
              if F.sign w.(i) <= 0 then best
              else match best with Some b when not (better i b) -> best | _ -> Some i)
            None
            (List.init prep.L.m Fun.id)
        in
        match leave with
        | None -> `Unbounded
        | Some i ->
          ignore (E.pivot st ~row:i ~col:j ~w);
          incr count;
          loop (iters + 1))
    in
    loop 1

  (* [E.cold_solve]'s two phases around [primal]: the outcome's tag, the
     final state and the pivots per phase. *)
  let cold_solve prep =
    let st = E.cold_state prep and p1 = ref 0 and p2 = ref 0 in
    let max_iters = E.max_iters_for prep in
    let phase2 () =
      primal p2 st ~cost:prep.L.cost2 ~allowed_up_to:prep.L.art_start ~max_iters
    in
    let tag =
      if prep.L.num_art = 0 then phase2 ()
      else
        let cost1 = E.phase1_cost prep in
        match primal p1 st ~cost:cost1 ~allowed_up_to:prep.L.total ~max_iters with
        | `Unbounded -> `Unbounded
        | `Optimal when not (F.is_zero (E.basic_value cost1 st.E.basis st.E.xb)) ->
          `Infeasible
        | `Optimal ->
          E.drive_out_artificials st;
          phase2 ()
    in
    (tag, st, [ !p1; !p2 ])

  (* The engine and the reference agree on [prep]: outcome, final basis,
     every bit of x_B ([same] compares two values) and pivots per phase. *)
  let agree ~same prep =
    let p1 = ref 0 and p2 = ref 0 in
    let outcome, st = E.cold_solve prep ~count1:p1 ~count2:p2 in
    let tag =
      match outcome with
      | Lp.Solution.Optimal _ -> `Optimal
      | Lp.Solution.Infeasible -> `Infeasible
      | Lp.Solution.Unbounded -> `Unbounded
    in
    let ref_tag, ref_st, ref_counts = cold_solve prep in
    tag = ref_tag
    && st.E.basis = ref_st.E.basis
    && Array.for_all2 same st.E.xb ref_st.E.xb
    && [ !p1; !p2 ] = ref_counts
end

module Ref_exact = Reference (Linalg.Field.Rational)
module Ref_approx = Reference (Linalg.Field.Approx)

let agree_exact p = Ref_exact.agree ~same:R.equal (Rv.prepare p)
let agree_approx p = Ref_approx.agree ~same:same_bits (Rva.prepare (to_float_problem p))

let test_reference_corpus () =
  let solved = ref 0 in
  List.iter
    (fun (label, problems) ->
      List.iteri
        (fun k p ->
          incr solved;
          if not (agree_exact p) then Alcotest.failf "%s #%d: exact engine ≠ reference" label k;
          if not (agree_approx p) then Alcotest.failf "%s #%d: float engine ≠ reference" label k)
        problems)
    (corpus ());
  Alcotest.(check int) "corpus LPs" 2014 !solved

(* Mixed LPs with duplicated terms, optionally degenerate (every row
   through 0), optionally with a contradictory pair so phase 1 ends
   positive. *)
let prop_reference_random =
  QCheck.Test.make ~name:"kept y and d ≡ recomputed, random LPs, both fields" ~count:400
    feasible_or_not_arb (fun spec ->
      let p = feasible_or_not spec in
      agree_exact p && agree_approx p)

(* [Linalg.Lu] on its own: random sparse integer matrices with spare
   columns, a random choice of m of them.  The factorization is [None]
   exactly when a dense elimination finds the choice singular, and
   otherwise both solves satisfy their equations, checked by
   multiplying back. *)
let dense_singular (a : R.t array array) =
  let a = Array.map Array.copy a and m = Array.length a in
  let rec go c =
    c >= m
    ||
    match List.find_opt (fun r -> not (R.is_zero a.(r).(c))) (List.init (m - c) (( + ) c)) with
    | None -> false
    | Some r ->
      let t = a.(r) in
      a.(r) <- a.(c);
      a.(c) <- t;
      for i = c + 1 to m - 1 do
        let f = R.div a.(i).(c) a.(c).(c) in
        a.(i) <- Array.mapi (fun k x -> R.sub x (R.mul f a.(c).(k))) a.(i)
      done;
      go (c + 1)
  in
  not (go 0)

let prop_lu_solves =
  let gen =
    let open QCheck.Gen in
    let* m = int_range 1 7 in
    let* extra = int_range 0 3 in
    let* cells =
      array_size (return (m * (m + extra))) (frequency [ (3, return 0); (2, int_range (-3) 3) ])
    in
    let* pick = shuffle_l (List.init (m + extra) Fun.id) in
    let* rhs = array_size (return m) (int_range (-5) 5) in
    return (m, extra, cells, Array.sub (Array.of_list pick) 0 m, rhs)
  in
  QCheck.Test.make ~name:"sparse LU: singular iff dense, solves check out" ~count:500
    (QCheck.make gen) (fun (m, extra, cells, cols, rhs) ->
      let entry r j = R.of_int cells.((j * m) + r) in
      let builder = Linalg.Sparse.Builder.create ~nrows:m ~ncols:(m + extra) in
      for j = 0 to m + extra - 1 do
        for r = 0 to m - 1 do
          if not (R.is_zero (entry r j)) then
            Linalg.Sparse.Builder.add builder ~row:r ~col:j (entry r j)
        done
      done;
      let a = Linalg.Sparse.Builder.finish builder in
      let b = Array.map R.of_int rhs in
      let dense = Array.init m (fun r -> Array.map (fun j -> entry r j) cols) in
      match Lu.factor a cols with
      | None -> dense_singular dense
      | Some lu ->
        let x = Lu.solve lu b and y = Lu.solve_transpose lu b in
        let sum f = List.fold_left (fun acc k -> R.add acc (f k)) R.zero (List.init m Fun.id) in
        (not (dense_singular dense))
        && List.for_all
             (fun i ->
               R.equal (sum (fun k -> R.mul dense.(i).(k) x.(k))) b.(i)
               && R.equal (sum (fun r -> R.mul y.(r) dense.(r).(i))) b.(i))
             (List.init m Fun.id))

(* The limit of the float probe (DESIGN §6): its pivoting rules read a
   10⁻¹² coefficient as zero, so the float solve of 10⁻¹²·x = 1 answers
   [Infeasible].  The exact answer x = 10¹² still comes out, through one
   fallback to the cold exact solve. *)
let test_tiny_coefficient () =
  let p, _ =
    solve_exact ~vars:1 ~obj:[ (0, R.one) ]
      [ ([ (0, R.inv (R.of_int 1_000_000_000_000)) ], P.Eq, R.one) ]
  in
  let outcome, certified, fallbacks = certified_solve p in
  Alcotest.(check rat) "x" (R.of_int 1_000_000_000_000) (expect_optimal outcome).values.(0);
  Alcotest.(check (pair int int)) "certified, fallbacks" (0, 1) (certified, fallbacks);
  Alcotest.(check bool) "float solve infeasible" true
    (Rva.solve (to_float_problem p) = Lp.Solution.Infeasible)

(* ------------------------------------------------------------------ *)
(* Float systems built once                                            *)
(* ------------------------------------------------------------------ *)

let same_terms a b = List.equal (fun (v, x) (w, y) -> v = w && same_bits x y) a b

(* Two float problems agree to the bit: variables, direction, objective,
   every constraint in order, and the names they print. *)
let same_float_problem (a : float P.t) (b : float P.t) =
  a.P.num_vars = b.P.num_vars
  && a.P.direction = b.P.direction
  && same_terms a.P.objective b.P.objective
  && List.equal
       (fun (c : float P.constr) (d : float P.constr) ->
         c.P.rel = d.P.rel && same_bits c.P.rhs d.P.rhs && same_terms c.P.terms d.P.terms)
       a.P.constraints b.P.constraints
  && List.for_all (fun v -> P.var_name a v = P.var_name b v) (List.init a.P.num_vars Fun.id)
  && List.for_all
       (fun i -> P.constr_name a i = P.constr_name b i)
       (List.init (P.num_constraints a) Fun.id)

(* The float deadline system, built directly in floats, is the exact one
   mapped to floats: same constraints, same columns, same bits. *)
let prop_float_builder =
  QCheck.Test.make ~name:"float deadline system = mapped exact system" ~count:100
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let inst = Check.Gen.instance (Gripps.Prng.create seed) in
      I.num_jobs inst = 0
      ||
      let candidates =
        Sched_core.Milestones.candidates inst
          ~upper:(Sched_core.Max_flow.feasible_upper_bound inst)
      in
      Array.for_all
        (fun f ->
          let deadlines = Sched_core.Deadline.flow_deadlines inst ~objective:f in
          List.for_all
            (fun divisible ->
              same_float_problem
                (Fm.deadline_problem R.to_float ~divisible inst ~deadlines)
                (P.map R.to_float (Fm.deadline_system ~divisible inst ~deadlines).Fm.dl_problem))
            [ true; false ])
        candidates)

(* The float image a certified solve derives from the exact layout is
   the layout the float engine makes of the mapped problem, to the bit,
   on every corpus LP whose coefficients and right-hand sides are all 0
   or at least 1e-9 in magnitude (below that the float engine's own
   normalization drops a coefficient or keeps an rhs sign the exact one
   flips) and which repeats no variable within a row (duplicates are
   summed before rounding in one, after in the other). *)
let test_float_image () =
  let module L = Lp.Revised in
  let module Sp = Linalg.Sparse in
  let plain (p : R.t P.t) =
    let ok x = R.is_zero x || Float.abs (R.to_float x) >= 1e-9 in
    List.for_all
      (fun (c : R.t P.constr) ->
        ok c.P.rhs
        && List.for_all (fun (_, k) -> ok k) c.P.terms
        && List.length (List.sort_uniq compare (List.map fst c.P.terms))
           = List.length c.P.terms)
      p.P.constraints
  in
  let checked = ref 0 in
  List.iter
    (fun (label, problems) ->
      List.iteri
        (fun k p ->
          if plain p then begin
            incr checked;
            let (a : float L.layout) = Lp.Solve.float_image (Rv.prepare p)
            and (b : float L.layout) = Rva.prepare (to_float_problem p) in
            let ok =
              a.L.m = b.L.m && a.L.n = b.L.n && a.L.total = b.L.total
              && a.L.art_start = b.L.art_start && a.L.num_art = b.L.num_art
              && Sp.col_ptr a.L.cols = Sp.col_ptr b.L.cols
              && Sp.row_idx a.L.cols = Sp.row_idx b.L.cols
              && Array.for_all2 same_bits (Sp.vals a.L.cols) (Sp.vals b.L.cols)
              && Array.for_all2 same_bits a.L.b b.L.b
              && Array.for_all2 same_bits a.L.cost2 b.L.cost2
              && same_terms a.L.objective b.L.objective
              && a.L.negate = b.L.negate && a.L.dual_col = b.L.dual_col
              && a.L.flipped = b.L.flipped
            in
            if not ok then Alcotest.failf "%s #%d: float image differs" label k
          end)
        problems)
    (corpus ());
  Alcotest.(check bool) "corpus LPs compared" true (!checked > 1500)

(* 10⁻¹²·x = 1: the float layout drops only exact zeros, so it keeps the
   tiny coefficient, as the certified image of the exact layout does (the
   float pivoting rules still apply their tolerance to it). *)
let test_prepare_keeps_tiny () =
  let module L = Lp.Revised in
  let module Sp = Linalg.Sparse in
  let p, _ =
    solve_exact ~vars:1 ~obj:[ (0, R.one) ]
      [ ([ (0, R.inv (R.of_int 1_000_000_000_000)) ], P.Eq, R.one) ]
  in
  let (a : float L.layout) = Lp.Solve.float_image (Rv.prepare p)
  and (b : float L.layout) = Rva.prepare (to_float_problem p) in
  Alcotest.(check int) "image nnz" 2 (Array.length (Sp.vals a.L.cols));
  Alcotest.(check int) "layout nnz" 2 (Array.length (Sp.vals b.L.cols));
  Alcotest.(check (array int)) "same rows" (Sp.row_idx a.L.cols) (Sp.row_idx b.L.cols);
  Alcotest.(check (array int)) "same columns" (Sp.col_ptr a.L.cols) (Sp.col_ptr b.L.cols)

(* ------------------------------------------------------------------ *)
(* Lp.Solve: the engine seam                                           *)
(* ------------------------------------------------------------------ *)

let dantzig_lp () =
  fst
    (solve_exact ~dir:P.Maximize ~vars:2
       ~obj:[ (0, R.of_int 3); (1, R.of_int 5) ]
       [ ([ (0, R.one) ], P.Le, R.of_int 4);
         ([ (1, R.of_int 2) ], P.Le, R.of_int 12);
         ([ (0, R.of_int 3); (1, R.of_int 2) ], P.Le, R.of_int 18)
       ])

let test_with_engine_restores () =
  let p = dantzig_lp () in
  let calls = ref 0 in
  let stub : Lp.Solve.engine =
    { exact = (fun _ -> incr calls; Lp.Solution.Infeasible);
      approx = (fun _ -> incr calls; Lp.Solution.Infeasible) }
  in
  (try
     Lp.Solve.with_engine stub (fun () ->
         let outcome = Lp.Solve.exact p in
         Alcotest.(check bool) "stub answers" true (outcome = Lp.Solution.Infeasible);
         failwith "thunk raised")
   with Failure _ -> ());
  Alcotest.(check int) "stub called once" 1 !calls;
  let outcome = Lp.Solve.exact p in
  Alcotest.(check bool) "revised engine back: optimal" true
    (outcome_equal outcome (Sx.solve p));
  Alcotest.(check int) "stub not called after the raise" 1 !calls

let () =
  Alcotest.run "lp"
    [ ( "simplex-unit",
        [ Alcotest.test_case "dantzig example" `Quick test_dantzig;
          Alcotest.test_case ">= constraints" `Quick test_ge_constraints;
          Alcotest.test_case "equality constraints" `Quick test_eq_constraints;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "infeasible equalities" `Quick test_infeasible_eq;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms;
          Alcotest.test_case "exact fractional optimum" `Quick test_exactness;
          Alcotest.test_case "duality hand case" `Quick test_duality_hand_case;
          Alcotest.test_case "revised hand cases" `Quick test_revised_hand_cases;
          Alcotest.test_case "Beale's cycling LP reaches Bland" `Quick test_beale_bland
        ] );
      ( "simplex-props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_optimal_is_feasible; prop_optimal_beats_witness;
            prop_exact_and_float_agree; prop_duality_rational; prop_scaling
          ] );
      ( "revised-props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_revised_bit_identical; prop_revised_bit_identical_ge;
            prop_revised_duality; prop_revised_approx_agrees;
            prop_basis_invariants
          ] );
      ( "solve-cache",
        [ Alcotest.test_case "with_engine restores on raise" `Quick
            test_with_engine_restores
        ] );
      ( "bit-identity",
        [ Alcotest.test_case "corpus records match the fixture" `Quick
            test_bit_identity_fixture
        ] );
      ( "certified",
        [ Alcotest.test_case "certified ≡ cold over the corpus" `Quick
            test_certified_corpus;
          Alcotest.test_case "each fallback branch returns the cold answer" `Quick
            test_certified_fallbacks;
          Alcotest.test_case "10^-12 coefficient: float infeasible, exact by fallback"
            `Quick test_tiny_coefficient;
          QCheck_alcotest.to_alcotest prop_cold_basis_certified;
          QCheck_alcotest.to_alcotest prop_certify_permutation;
          QCheck_alcotest.to_alcotest prop_lu_solves
        ] );
      ( "kept-pricing",
        [ Alcotest.test_case "engine ≡ full recomputation over the corpus" `Quick
            test_reference_corpus;
          QCheck_alcotest.to_alcotest prop_reference_random
        ] );
      ( "float-systems",
        [ QCheck_alcotest.to_alcotest prop_float_builder;
          Alcotest.test_case "certified float image = float layout" `Quick test_float_image;
          Alcotest.test_case "float layout keeps a 10^-12 coefficient" `Quick
            test_prepare_keeps_tiny
        ] )
    ]
