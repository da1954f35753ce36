(* Revised simplex over a sparse (CSC) constraint matrix, functorized over
   the coefficient field.  Every solve is cold: the two-phase method from
   the slack/artificial basis.  [certify] checks, from a sparse LU of it
   and without a pivot, a basis that another solve of the same layout
   ended on; [Solve.exact] uses it to answer exactly from the float
   solve's final basis.

   Where the dense tableau rewrites all m×(n+m) entries per pivot, this
   engine keeps only the basis inverse B⁻¹ (m×m) and the basic solution
   x_B, prices columns against the sparse matrix (y = c_B·B⁻¹,
   d_j = c_j − y·A_j), and updates B⁻¹ by touching only the nonzero
   columns of the pivot row — O(m · nnz(pivot row)) per pivot rather than
   the tableau's m×(n+m).  The win grows with the number of variables,
   and the scheduling formulations have one variable per
   machine×interval.  y and d are kept across pivots: a pivot changes y
   only on that support, and d only on the columns with an entry on a
   support row, so only those are recomputed.

   Rules here, loops in the field: the phase logic, the Dantzig budget,
   the Bland fallback and the drive-out are written once below; the
   O(m·nnz) arithmetic, Dantzig's scan and the ratio test are the
   field's kernels ([Linalg.Field.Kernels]), implemented over [Rat] and
   over unboxed [float array]s with the same operations in the same
   order (DESIGN §6).

   Support, not tolerance: the row updates of [pivot] run on
   [F.support], which drops only *exact* zeros — a [Rat] zero, a
   literal [0.0] float — because skipping x − f·0 leaves every value
   unchanged, so each engine's pivot sequence is the one the dense update
   would give.  [F.is_zero]'s float tolerance would not.

   Pivot-rule parity: solves use exactly the rules of the dense tableau
   oracle ([Oracle.Simplex.Make], lib/oracle) — Dantzig entering
   with the same budget formula and first-index tie-break, Bland fallback,
   minimum-ratio leaving with ties broken by smallest basic variable, the
   same normalization and phase-1 artificial drive-out scan order.  In
   exact arithmetic the reduced costs computed here equal the dense
   tableau's objective row entry for entry, so a solve visits the same
   sequence of bases and returns bit-identical values and duals.  The
   dense solvers are kept, outside the production libraries, as the
   differential-testing oracle ([Oracle.with_dense]). *)

module Sp = Linalg.Sparse

(* Raised by a solve whose primal simplex exceeds its iteration cap; one
   exception for both instances, so callers can catch it without naming
   a field. *)
exception Iteration_limit

(* A normalized problem in CSC form, the one layout every solve of it
   reads ([prepare] below).  Outside the functor so that one layout can
   be read in another field ([map_layout]). *)
type 'f layout = {
  m : int;
  n : int; (* original variables *)
  total : int; (* structural columns: originals, slack/surplus, artificials *)
  art_start : int;
  num_art : int;
  cols : 'f Sp.t; (* m × total *)
  (* [cols]' pattern by rows ([Sp.row_pattern]): the columns with an
     entry on row r are row_cols.(row_ptr.(r)) … row_cols.(row_ptr.(r+1) - 1). *)
  row_ptr : int array;
  row_cols : int array;
  b : 'f array; (* normalized (nonnegative) right-hand sides *)
  cost2 : 'f array; (* phase-2 costs over all columns (minimization) *)
  objective : (int * 'f) list; (* the problem's own objective terms *)
  negate : bool; (* original problem was a maximization *)
  dual_col : int array; (* unit column used to read each row's dual *)
  flipped : bool array; (* rows whose rhs sign was flipped *)
}

(* The same layout with every coefficient converted: CSC values, rhs,
   costs and objective.  The sparsity pattern (its row index too), the
   row flips, the slack and artificial numbering and [dual_col] are
   shared, so the image is decided by the source field's normalization,
   not by its own. *)
let map_layout f l =
  {
    l with
    cols = Sp.map f l.cols;
    b = Array.map f l.b;
    cost2 = Array.map f l.cost2;
    objective = List.map (fun (v, k) -> (v, f k)) l.objective;
  }

module Make (F : Linalg.Field.With_kernels) = struct
  type 'f poly_solution = 'f Solution.solution = {
    values : 'f array;
    objective : 'f;
    duals : 'f array;
  }

  type solution = F.t poly_solution

  type 'f poly_outcome = 'f Solution.outcome =
    | Optimal of 'f poly_solution
    | Infeasible
    | Unbounded

  type outcome = F.t poly_outcome

  let pp_outcome fmt o = Solution.pp_outcome F.pp fmt o

  type prepared = F.t layout

  let matrix prep = prep.cols

  (* Normalize and build the CSC matrix.  The layout matches the dense
     solvers exactly: originals, then one slack/surplus per inequality,
     then one artificial per Ge/Eq row; rhs is kept separately.  Duplicate
     terms are combined and only an exact zero is dropped, so a float
     layout has the sparsity pattern of its problem's exact one (a 10⁻¹²
     coefficient is a coefficient, not noise). *)
  let prepare (p : F.t Problem.t) : prepared =
    let n = p.Problem.num_vars in
    let constrs = Array.of_list p.Problem.constraints in
    let m = Array.length constrs in
    let normalized =
      Array.map
        (fun (c : F.t Problem.constr) ->
          if F.sign c.rhs < 0 then
            let flip = function Problem.Le -> Problem.Ge | Ge -> Le | Eq -> Eq in
            (List.map (fun (v, k) -> (v, F.neg k)) c.terms, flip c.rel, F.neg c.rhs)
          else (c.terms, c.rel, c.rhs))
        constrs
    in
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
    let builder = Sp.Builder.create ~nrows:m ~ncols:total in
    let b = Array.make m F.zero in
    let dual_col = Array.make m (-1) in
    let flipped =
      Array.map (fun (c : F.t Problem.constr) -> F.sign c.rhs < 0) constrs
    in
    (* Scratch row for combining duplicate terms; [touched] lists the
       columns written, each once ([marked] flags them). *)
    let scratch = Array.make (max n 1) F.zero in
    let marked = Array.make (max n 1) false in
    let next_slack = ref n and next_art = ref art_start in
    Array.iteri
      (fun i (terms, rel, rhs) ->
        let touched = ref [] in
        List.iter
          (fun (v, k) ->
            if not marked.(v) then begin
              marked.(v) <- true;
              touched := v :: !touched
            end;
            scratch.(v) <- F.add scratch.(v) k)
          terms;
        (* Columns must be fed in increasing order within the row so that
           CSC columns come out row-sorted; sort the touched set. *)
        List.iter
          (fun v ->
            if not (F.exactly_zero scratch.(v)) then
              Sp.Builder.add builder ~row:i ~col:v scratch.(v);
            scratch.(v) <- F.zero;
            marked.(v) <- false)
          (List.sort compare !touched);
        b.(i) <- rhs;
        (match rel with
         | Problem.Le ->
           Sp.Builder.add builder ~row:i ~col:!next_slack F.one;
           dual_col.(i) <- !next_slack;
           incr next_slack
         | Problem.Ge ->
           Sp.Builder.add builder ~row:i ~col:!next_slack (F.neg F.one);
           incr next_slack;
           Sp.Builder.add builder ~row:i ~col:!next_art F.one;
           dual_col.(i) <- !next_art;
           incr next_art
         | Problem.Eq ->
           Sp.Builder.add builder ~row:i ~col:!next_art F.one;
           dual_col.(i) <- !next_art;
           incr next_art))
      normalized;
    let cols = Sp.Builder.finish builder in
    let row_ptr, row_cols = Sp.row_pattern cols in
    let negate = p.Problem.direction = Problem.Maximize in
    let cost2 = Array.make (max total 1) F.zero in
    List.iter
      (fun (v, k) ->
        let k = if negate then F.neg k else k in
        cost2.(v) <- F.add cost2.(v) k)
      p.Problem.objective;
    {
      m;
      n;
      total;
      art_start;
      num_art;
      cols;
      row_ptr;
      row_cols;
      b;
      cost2;
      objective = p.Problem.objective;
      negate;
      dual_col;
      flipped;
    }

  type state = {
    prep : prepared;
    basis : int array; (* basic column of each row *)
    in_basis : bool array; (* over all [total] columns *)
    binv : F.t array array; (* B⁻¹, m×m, row-major *)
    xb : F.t array; (* current basic values, = B⁻¹·b *)
  }

  (* The initial basis: the slack of each Le row, the artificial of each
     Ge/Eq row — i.e. exactly [dual_col] — with B⁻¹ = I and x_B = b. *)
  let cold_state prep =
    let m = prep.m in
    let basis = Array.copy prep.dual_col in
    let in_basis = Array.make (max prep.total 1) false in
    Array.iter (fun j -> in_basis.(j) <- true) basis;
    {
      prep;
      basis;
      in_basis;
      binv =
        Array.init m (fun i ->
            let row = Array.make m F.zero in
            row.(i) <- F.one;
            row);
      xb = Array.copy prep.b;
    }

  (* w = B⁻¹ · A_j, the entering column expressed in the current basis. *)
  let column st j =
    let w = Array.make st.prep.m F.zero in
    F.col_accum st.prep.cols j st.binv w;
    w

  (* Row r of B⁻¹·A at column j (used by the artificial drive-out). *)
  let row_entry st r j = F.dot_add st.prep.cols j st.binv.(r)

  (* Simplex multipliers y = c_B · B⁻¹ for cost vector [cost]. *)
  let multipliers st cost =
    let m = st.prep.m in
    let y = Array.make m F.zero in
    F.multipliers y cost st.basis st.binv (Array.init m Fun.id);
    y

  (* Basis change: column [col] enters at row [row]; [w] = B⁻¹·A_col.
     Updates B⁻¹ and x_B, each row only on the pivot row's support, and
     returns that support: the columns of B⁻¹ the pivot may change. *)
  let pivot st ~row ~col ~w =
    let supp = F.eliminate st.binv row w in
    F.eliminate_vec st.xb row w;
    st.in_basis.(st.basis.(row)) <- false;
    st.basis.(row) <- col;
    st.in_basis.(col) <- true;
    supp

  exception Iteration_limit = Iteration_limit

  (* Primal simplex from the current (primal-feasible) state.  Entering
     rules and the Dantzig budget mirror [Oracle.Simplex.optimize] so that
     solves traverse the same bases as the dense tableau.

     y = c_B·B⁻¹ and the reduced costs d_j = c_j − y·A_j of every column
     below [allowed_up_to] (basic ones too, so a column that leaves is
     already priced) are computed in full once, then kept: a pivot
     recomputes y only on its support and reprices only the columns with
     an entry on a support row, which leaves every value as a full
     recomputation would give it, to the bit (DESIGN §6). *)
  let primal ?(count = ref 0) st ~cost ~allowed_up_to ~max_iters =
    let prep = st.prep in
    let dantzig_budget = 50 + (4 * (prep.m + prep.total + 1)) in
    let y = multipliers st cost in
    let d = Array.make allowed_up_to F.zero in
    (* [cols] lists the columns to price; [seen.(j)] is the last pivot
       that listed [j]. *)
    let cols = Array.init allowed_up_to Fun.id and seen = Array.make allowed_up_to 0 in
    F.price prep.cols cost y cols allowed_up_to d;
    let reprice iters supp =
      F.multipliers y cost st.basis st.binv supp;
      let n = ref 0 in
      Array.iter
        (fun r ->
          for e = prep.row_ptr.(r) to prep.row_ptr.(r + 1) - 1 do
            let j = prep.row_cols.(e) in
            if j < allowed_up_to && seen.(j) <> iters then begin
              seen.(j) <- iters;
              cols.(!n) <- j;
              incr n
            end
          done)
        supp;
      F.price prep.cols cost y cols !n d
    in
    (* Bland: smallest index with negative reduced cost. *)
    let rec bland j =
      if j >= allowed_up_to then -1
      else if (not st.in_basis.(j)) && F.sign d.(j) < 0 then j
      else bland (j + 1)
    in
    let rec loop iters =
      if iters > max_iters then raise Iteration_limit;
      (* Dantzig: most negative reduced cost, first index on ties. *)
      let j = if iters <= dantzig_budget then F.dantzig d st.in_basis allowed_up_to else bland 0 in
      if j < 0 then `Optimal
      else begin
        let w = column st j in
        let i = F.leaving st.xb w st.basis in
        if i < 0 then `Unbounded
        else begin
          reprice iters (pivot st ~row:i ~col:j ~w);
          incr count;
          loop (iters + 1)
        end
      end
    in
    loop 1

  (* Drive zero-valued basic artificials out of the basis, mirroring the
     dense phase-1 epilogue: scan rows in order, pivot on the first real
     column with a nonzero entry; rows with none are redundant. *)
  let drive_out_artificials st =
    let prep = st.prep in
    for i = 0 to prep.m - 1 do
      if st.basis.(i) >= prep.art_start then begin
        let rec find j =
          if j >= prep.art_start then None
          else if
            (not st.in_basis.(j)) && not (F.is_zero (row_entry st i j))
          then Some j
          else find (j + 1)
        in
        match find 0 with
        | Some j ->
          let w = column st j in
          ignore (pivot st ~row:i ~col:j ~w)
        | None -> ()
      end
    done

  (* The value of [cost] at the basic solution: column [basis.(i)] at
     [xb.(i)]. *)
  let basic_value cost basis xb =
    let acc = ref F.zero in
    Array.iteri
      (fun i b ->
        if not (F.is_zero cost.(b)) then
          acc := F.add !acc (F.mul cost.(b) xb.(i)))
      basis;
    !acc

  (* The answer at a basis: column [basis.(i)] at [xb.(i)], and [y] the
     multipliers of the phase-2 costs. *)
  let answer prep basis xb y =
    let values = Array.make prep.n F.zero in
    Array.iteri
      (fun i b -> if b < prep.n then values.(b) <- xb.(i))
      basis;
    let objective =
      List.fold_left
        (fun acc (v, k) -> F.add acc (F.mul k values.(v)))
        F.zero prep.objective
    in
    (* Dual of normalized row i is y at its unit column; undo the rhs flip
       and the Maximize negation, exactly as the dense extraction does. *)
    let duals =
      Array.init prep.m (fun i ->
          let v = y.(i) in
          let v = if prep.flipped.(i) then F.neg v else v in
          if prep.negate then F.neg v else v)
    in
    Optimal { values; objective; duals }

  let extract st = answer st.prep st.basis st.xb (multipliers st st.prep.cost2)

  let max_iters_for prep = 1000 + (100 * (prep.m + prep.total))

  (* Phase-1 costs: 1 on every artificial, 0 elsewhere. *)
  let phase1_cost prep =
    let cost1 = Array.make (max prep.total 1) F.zero in
    for j = prep.art_start to prep.total - 1 do
      cost1.(j) <- F.one
    done;
    cost1

  (* Cold two-phase solve; returns the outcome plus the final state.  The
     state is where the solve stopped: on [Infeasible] the optimal
     phase-1 basis, otherwise the final phase-2 basis (or, in floats, the
     phase-1 basis whose ratio test found no row). *)
  let cold_solve prep ~count1 ~count2 =
    let st = cold_state prep in
    let max_iters = max_iters_for prep in
    let feasible =
      if prep.num_art = 0 then `Feasible
      else begin
        let cost1 = phase1_cost prep in
        match primal ~count:count1 st ~cost:cost1 ~allowed_up_to:prep.total ~max_iters with
        | `Unbounded ->
          (* The phase-1 objective is bounded below by 0, so only the
             float tolerance gets here: a column can price negative while
             every entry of its w is within eps of 0 (10⁻⁹·x = 1 on two
             rows).  The float solve then reports what its ratio test saw,
             and [Solve.exact] falls back on it. *)
          assert (not F.exact);
          `Unbounded
        | `Optimal ->
          if not (F.is_zero (basic_value cost1 st.basis st.xb)) then `Infeasible
          else begin
            drive_out_artificials st;
            `Feasible
          end
      end
    in
    match feasible with
    | `Infeasible -> (Infeasible, st)
    | `Unbounded -> (Unbounded, st)
    | `Feasible -> (
      match
        primal ~count:count2 st ~cost:prep.cost2 ~allowed_up_to:prep.art_start
          ~max_iters
      with
      | `Unbounded -> (Unbounded, st)
      | `Optimal -> (extract st, st))

  module Lu = Linalg.Lu.Make (F)

  (* Certification: check, in this field and without pricing a pivot,
     the basis another solve of the same layout ended on.

     [target]'s columns are factorized afresh ([Linalg.Lu]), and x_B, y
     come from its solves, so no intermediate basis is visited and x_B
     may have any sign on the way.  Values and duals depend only on the
     column set, not on its order or the pivots the factorization picks.
     The basis is accepted as the answer [claim] names when:
     - [Optimal _]: x_B ≥ 0, every basic artificial is 0, and no column
       below [art_start] has a negative phase-2 reduced cost — a primal
       and a dual feasible solution with equal objectives, so an optimum;
     - [Infeasible]: x_B ≥ 0, a positive phase-1 value, and no column has
       a negative phase-1 reduced cost — the minimum total artificial is
       positive, so no point satisfies the constraints.
     [Unbounded] is never certified.  [None] when [target] is singular or
     a check fails.  [count] receives the pivots a load from the cold
     basis would do: one per target column outside it, accepted or
     not. *)
  let certify prep (claim : _ Solution.outcome) target ~count =
    let verdict lu =
      let xb = Lu.solve lu prep.b in
      let in_basis = Array.make (max prep.total 1) false in
      Array.iter (fun j -> in_basis.(j) <- true) target;
      let multipliers cost = Lu.solve_transpose lu (Array.map (fun j -> cost.(j)) target) in
      (* No nonbasic column below [limit] prices negative against [cost]. *)
      let dual_feasible cost y ~limit =
        let cols = Array.of_seq (Seq.filter (fun j -> not in_basis.(j)) (Seq.init limit Fun.id)) in
        let d = Array.make limit F.zero in
        F.price prep.cols cost y cols (Array.length cols) d;
        Array.for_all (fun j -> F.sign d.(j) >= 0) cols
      in
      if not (Array.for_all (fun x -> F.sign x >= 0) xb) then None
      else
        match claim with
        | Optimal _ ->
          if Array.for_all2 (fun b x -> b < prep.art_start || F.is_zero x) target xb then
            let y = multipliers prep.cost2 in
            if dual_feasible prep.cost2 y ~limit:prep.art_start then
              Some (answer prep target xb y)
            else None
          else None
        | Infeasible ->
          let cost1 = phase1_cost prep in
          if
            F.sign (basic_value cost1 target xb) > 0
            && dual_feasible cost1 (multipliers cost1) ~limit:prep.total
          then Some Infeasible
          else None
        | Unbounded -> None
    in
    match claim with
    | Unbounded -> None
    | Optimal _ | Infeasible ->
      (* Columns from [n] on are unit columns, cold when their row's. *)
      let ri = Sp.row_idx prep.cols and ptr = Sp.col_ptr prep.cols in
      Array.iter
        (fun j -> if j < prep.n || prep.dual_col.(ri.(ptr.(j))) <> j then incr count)
        target;
      Option.bind (Lu.factor prep.cols target) verdict

  (* Run [body] as one solve: time it, fold its pivot counts into the
     field's [Instrument] family and, when tracing, inside an [lp.solve]
     span carrying them.  [body] returns the outcome and the phase-1 and
     phase-2 pivots; it may add attributes of its own. *)
  let instrumented body =
    let run () =
      let t_start = Instrument.now () in
      let outcome, p1, p2 = body () in
      Instrument.record ~exact:F.exact ~pivots_phase1:p1 ~pivots_phase2:p2
        ~seconds:(Instrument.now () -. t_start);
      Obs.Span.set_int "pivots_phase1" p1;
      Obs.Span.set_int "pivots_phase2" p2;
      outcome
    in
    if not (Obs.Sink.enabled ()) then run ()
    else
      Obs.Span.with_span "lp.solve"
        ~attrs:[ ("exact", Obs.Sink.Bool F.exact); ("engine", Obs.Sink.Str "revised") ]
        run

  let cold_counted prep =
    let p1 = ref 0 and p2 = ref 0 in
    let outcome, _ = cold_solve prep ~count1:p1 ~count2:p2 in
    (outcome, !p1, !p2)

  (* Normalize, then the cold two-phase solve.  [prepare] runs outside the
     [lp.solve] span and its timing, as the caller's own work. *)
  let solve (p : F.t Problem.t) : outcome =
    let prep = prepare p in
    instrumented (fun () -> cold_counted prep)
end

module Exact = Make (Linalg.Field.Rational)
module Approx = Make (Linalg.Field.Approx)
