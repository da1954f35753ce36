(* Solver-independent result types.

   Both engines (the revised simplex here, the dense tableau oracle in
   lib/oracle) re-export these with a type equation, so outcomes flow
   freely between engines and the [Solve] dispatcher without conversion — in particular the differential tests compare a dense and a
   sparse solve with plain [=] on the payload. *)

type 'f solution = {
  values : 'f array; (* one per problem variable *)
  objective : 'f;
  duals : 'f array;
      (* one per constraint, in problem order, for the original problem:
         at optimality Σ_i duals_i · rhs_i = objective (strong duality),
         and for a minimization duals_i ≤ 0 on Le rows, ≥ 0 on Ge rows
         (reversed for a maximization; Eq rows are unconstrained) *)
}

type 'f outcome =
  | Optimal of 'f solution
  | Infeasible
  | Unbounded

let pp_outcome pp_coeff fmt = function
  | Optimal s -> Format.fprintf fmt "optimal (objective %a)" pp_coeff s.objective
  | Infeasible -> Format.pp_print_string fmt "infeasible"
  | Unbounded -> Format.pp_print_string fmt "unbounded"
