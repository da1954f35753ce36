(* Two-phase primal simplex on a dense tableau, functorized over the
   coefficient field.

   Pivoting uses Bland's anti-cycling rule (smallest-index entering column,
   smallest-ratio leaving row with ties broken by smallest basic variable
   index), so termination is guaranteed even on the degenerate LPs that the
   scheduling formulations produce (intervals of zero duration at milestone
   boundaries make degeneracy the common case, not the exception).

   No production path solves on this engine: it is the independent oracle
   the revised simplex ([Lp.Revised]) is checked against.  [Exact]
   (rationals) must agree with it bit for bit on cold solves; [Approx]
   (floats with tolerance) within tolerance.  {!Oracle.with_dense} routes
   every [Lp.Solve] call through it. *)

module Problem = Lp.Problem
module Solution = Lp.Solution
module Instrument = Lp.Instrument

module Make (F : Linalg.Field.S) = struct
  (* Result types are shared across engines (see [Solution]); the type
     equations keep [Sx.Optimal]-style constructors working while letting
     dense and revised results be compared with [=].  The re-exports must
     keep the original arity, hence the polymorphic aliases. *)
  type 'f poly_solution = 'f Solution.solution = {
    values : 'f array; (* one per problem variable *)
    objective : 'f;
    duals : 'f array;
        (* one per constraint, in problem order, for the original problem:
           at optimality Σ_i duals_i · rhs_i = objective (strong duality),
           and for a minimization duals_i ≤ 0 on Le rows, ≥ 0 on Ge rows
           (reversed for a maximization; Eq rows are unconstrained) *)
  }

  type solution = F.t poly_solution

  type 'f poly_outcome = 'f Solution.outcome =
    | Optimal of 'f poly_solution
    | Infeasible
    | Unbounded

  type outcome = F.t poly_outcome

  let pp_outcome fmt o = Solution.pp_outcome F.pp fmt o

  type tableau = {
    rows : F.t array array; (* m rows of width [width]; last column = rhs *)
    basis : int array; (* basic variable of each row *)
    obj : F.t array; (* reduced-cost row, same width *)
    width : int; (* total columns including rhs *)
    art_start : int; (* first artificial column *)
  }

  (* Entering column under Bland's rule: smallest index among allowed
     columns with negative reduced cost.  Guarantees no cycling. *)
  let entering_bland t ~allowed_up_to =
    let rec go j =
      if j >= allowed_up_to then None
      else if F.sign t.obj.(j) < 0 then Some j
      else go (j + 1)
    in
    go 0

  (* Entering column under Dantzig's rule: most negative reduced cost.
     Usually needs far fewer pivots than Bland but can cycle on degenerate
     problems, so [optimize] falls back to Bland after a pivot budget. *)
  let entering_dantzig t ~allowed_up_to =
    let best = ref None in
    for j = 0 to allowed_up_to - 1 do
      if F.sign t.obj.(j) < 0 then
        match !best with
        | None -> best := Some j
        | Some b -> if F.compare t.obj.(j) t.obj.(b) < 0 then best := Some j
    done;
    !best

  (* Leaving row for entering column [j]: minimum ratio rhs / coeff over
     positive coefficients; ties broken by smallest basic variable index. *)
  let leaving t j =
    let m = Array.length t.rows in
    let best = ref None in
    for i = 0 to m - 1 do
      let coeff = t.rows.(i).(j) in
      if F.sign coeff > 0 then begin
        let ratio = F.div t.rows.(i).(t.width - 1) coeff in
        match !best with
        | None -> best := Some (ratio, i)
        | Some (r, i') ->
          let c = F.compare ratio r in
          if c < 0 || (c = 0 && t.basis.(i) < t.basis.(i')) then best := Some (ratio, i)
      end
    done;
    Option.map snd !best

  let pivot t ~row ~col =
    let piv = t.rows.(row).(col) in
    let prow = t.rows.(row) in
    for j = 0 to t.width - 1 do
      prow.(j) <- F.div prow.(j) piv
    done;
    let eliminate target =
      let factor = target.(col) in
      if not (F.is_zero factor) then
        for j = 0 to t.width - 1 do
          target.(j) <- F.sub target.(j) (F.mul factor prow.(j))
        done
    in
    Array.iteri (fun i r -> if i <> row then eliminate r) t.rows;
    eliminate t.obj;
    t.basis.(row) <- col

  (* Rebuild the reduced-cost row for cost vector [cost] (indexed over all
     columns except rhs) given the current basis. *)
  let set_costs t cost =
    Array.fill t.obj 0 t.width F.zero;
    Array.blit cost 0 t.obj 0 (t.width - 1);
    Array.iteri
      (fun i b ->
        let cb = cost.(b) in
        if not (F.is_zero cb) then
          for j = 0 to t.width - 1 do
            t.obj.(j) <- F.sub t.obj.(j) (F.mul cb t.rows.(i).(j))
          done)
      t.basis

  exception Iteration_limit

  let optimize ?(count = ref 0) t ~allowed_up_to ~max_iters =
    (* Dantzig pivoting until the budget is spent, then Bland (which cannot
       cycle) for as long as it takes.  The budget is generous enough that
       the fallback only triggers on genuinely degenerate stalls. *)
    let dantzig_budget = 50 + (4 * (Array.length t.rows + t.width)) in
    let iters = ref 0 in
    let rec loop () =
      incr iters;
      if !iters > max_iters then raise Iteration_limit;
      let enter =
        if !iters <= dantzig_budget then entering_dantzig t ~allowed_up_to
        else entering_bland t ~allowed_up_to
      in
      match enter with
      | None -> `Optimal
      | Some j -> (
        match leaving t j with
        | None -> `Unbounded
        | Some i ->
          pivot t ~row:i ~col:j;
          incr count;
          loop ())
    in
    loop ()

  let solve_untraced (p : F.t Problem.t) : outcome =
    let t_start = Instrument.now () in
    let pivots1 = ref 0 and pivots2 = ref 0 in
    let record () =
      Instrument.record ~exact:F.exact ~pivots_phase1:!pivots1
        ~pivots_phase2:!pivots2 ~seconds:(Instrument.now () -. t_start);
      Obs.Span.set_int "pivots_phase1" !pivots1;
      Obs.Span.set_int "pivots_phase2" !pivots2
    in
    let n = p.Problem.num_vars in
    let constrs = Array.of_list p.Problem.constraints in
    let m = Array.length constrs in
    (* Normalize right-hand sides to be nonnegative. *)
    let normalized =
      Array.map
        (fun (c : F.t Problem.constr) ->
          if F.sign c.rhs < 0 then
            let flip = function Problem.Le -> Problem.Ge | Ge -> Le | Eq -> Eq in
            ( List.map (fun (v, k) -> (v, F.neg k)) c.terms,
              flip c.rel,
              F.neg c.rhs )
          else (c.terms, c.rel, c.rhs))
        constrs
    in
    (* Column layout: originals, then one slack/surplus per inequality,
       then one artificial per Ge/Eq row, then rhs. *)
    let num_slack =
      Array.fold_left
        (fun acc (_, rel, _) -> match rel with Problem.Le | Ge -> acc + 1 | Eq -> acc)
        0 normalized
    in
    let num_art =
      Array.fold_left
        (fun acc (_, rel, _) -> match rel with Problem.Ge | Eq -> acc + 1 | Le -> acc)
        0 normalized
    in
    let art_start = n + num_slack in
    let total = n + num_slack + num_art in
    let width = total + 1 in
    let rows = Array.init m (fun _ -> Array.make width F.zero) in
    let basis = Array.make m (-1) in
    (* Per-row unit column used to read the dual value off the final
       reduced-cost row: the slack for Le, the artificial for Ge/Eq. *)
    let dual_col = Array.make m (-1) in
    let flipped =
      Array.mapi
        (fun i (c : F.t Problem.constr) ->
          ignore i;
          F.sign c.rhs < 0)
        constrs
    in
    let next_slack = ref n and next_art = ref art_start in
    Array.iteri
      (fun i (terms, rel, rhs) ->
        let row = rows.(i) in
        List.iter (fun (v, k) -> row.(v) <- F.add row.(v) k) terms;
        row.(total) <- rhs;
        (match rel with
         | Problem.Le ->
           row.(!next_slack) <- F.one;
           basis.(i) <- !next_slack;
           dual_col.(i) <- !next_slack;
           incr next_slack
         | Problem.Ge ->
           row.(!next_slack) <- F.neg F.one;
           incr next_slack;
           row.(!next_art) <- F.one;
           basis.(i) <- !next_art;
           dual_col.(i) <- !next_art;
           incr next_art
         | Problem.Eq ->
           row.(!next_art) <- F.one;
           basis.(i) <- !next_art;
           dual_col.(i) <- !next_art;
           incr next_art))
      normalized;
    let t = { rows; basis; obj = Array.make width F.zero; width; art_start } in
    let max_iters = 1000 + (100 * (m + total)) in
    (* Phase 1: minimize the sum of artificials. *)
    let outcome =
      if num_art = 0 then `Optimal
      else begin
        let cost = Array.make total F.zero in
        for j = art_start to total - 1 do
          cost.(j) <- F.one
        done;
        set_costs t cost;
        match optimize ~count:pivots1 t ~allowed_up_to:total ~max_iters with
        | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
        | `Optimal ->
          (* Objective cell holds the negated phase-1 value. *)
          if not (F.is_zero t.obj.(total)) then `Infeasible
          else begin
            (* Drive remaining artificials out of the basis where possible;
               rows where it is impossible are redundant (all-zero on real
               columns) and harmless. *)
            Array.iteri
              (fun i b ->
                if b >= art_start then begin
                  let rec find j =
                    if j >= art_start then None
                    else if not (F.is_zero t.rows.(i).(j)) then Some j
                    else find (j + 1)
                  in
                  match find 0 with
                  | Some j -> pivot t ~row:i ~col:j
                  | None -> ()
                end)
              t.basis;
            `Feasible
          end
      end
    in
    match outcome with
    | `Infeasible ->
      record ();
      Infeasible
    | `Optimal | `Feasible -> (
      (* Phase 2: the real objective (internally always a minimization). *)
      let cost = Array.make total F.zero in
      let negate = p.Problem.direction = Problem.Maximize in
      List.iter
        (fun (v, k) ->
          let k = if negate then F.neg k else k in
          cost.(v) <- F.add cost.(v) k)
        p.Problem.objective;
      set_costs t cost;
      match optimize ~count:pivots2 t ~allowed_up_to:art_start ~max_iters with
      | `Unbounded ->
        record ();
        Unbounded
      | `Optimal ->
        let values = Array.make n F.zero in
        Array.iteri
          (fun i b -> if b < n then values.(b) <- t.rows.(i).(t.width - 1))
          t.basis;
        let objective =
          List.fold_left
            (fun acc (v, k) -> F.add acc (F.mul k values.(v)))
            F.zero p.Problem.objective
        in
        (* Dual of normalized row i: −c̄ on its unit column; undo the rhs
           flip and the Maximize negation to express it for the original
           problem. *)
        let duals =
          Array.init m (fun i ->
              let y = F.neg t.obj.(dual_col.(i)) in
              let y = if flipped.(i) then F.neg y else y in
              if negate then F.neg y else y)
        in
        record ();
        Optimal { values; objective; duals })

  let solve (p : F.t Problem.t) : outcome =
    if not (Obs.Sink.enabled ()) then solve_untraced p
    else
      Obs.Span.with_span "lp.solve"
        ~attrs:
          [
            ("exact", Obs.Sink.Bool F.exact);
            ("engine", Obs.Sink.Str "tableau");
          ]
        (fun () -> solve_untraced p)

  (* Check that [values] satisfies every constraint of [p] (within the
     field's tolerance) and is componentwise nonnegative. *)
  let check_feasible (p : F.t Problem.t) (values : F.t array) : (unit, string) result =
    let buf = Buffer.create 0 in
    Array.iteri
      (fun i v ->
        if F.sign v < 0 then
          Buffer.add_string buf
            (Printf.sprintf "variable %s negative; " (Problem.var_name p i)))
      values;
    List.iteri
      (fun ci (c : F.t Problem.constr) ->
        let lhs =
          List.fold_left (fun acc (v, k) -> F.add acc (F.mul k values.(v))) F.zero c.terms
        in
        let ok =
          match c.rel with
          | Problem.Le -> F.sign (F.sub lhs c.rhs) <= 0
          | Problem.Ge -> F.sign (F.sub lhs c.rhs) >= 0
          | Problem.Eq -> F.is_zero (F.sub lhs c.rhs)
        in
        if not ok then
          Buffer.add_string buf
            (Printf.sprintf "constraint %s violated; " (Problem.constr_name p ci)))
      p.Problem.constraints;
    if Buffer.length buf = 0 then Ok () else Error (Buffer.contents buf)
end

module Exact = Make (Linalg.Field.Rational)
module Approx = Make (Linalg.Field.Approx)
