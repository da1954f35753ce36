(* Right-looking sparse Gaussian elimination (DESIGN §6, "Exact answers
   by certification").

   Step s pivots on entry (p_s, q_s) of the active submatrix, value v_s.
   Its multipliers l_i = a_{i,q_s} / v_s over the other active rows of
   column q_s are L's column s; the rest of row p_s, over the active
   columns k ≠ q_s, is U's row s.  Each such column k then loses its row
   p_s entry u and gets a_{i,k} −= l_i·u for every multiplier, which may
   create entries (fill) or cancel them.  Writing E_s for that row
   operation, M = E_{m−1}⋯E_0 turns B into U' = M·B, whose row p_s is
   v_s at column q_s plus U's row s on columns pivoted later.  Hence:
   - B·x = b: z = M·b by applying each E_s in order (forward), then U's
     rows backwards: x_{q_s} = (z_{p_s} − Σ u·x_k) / v_s;
   - yᵀ·B = cᵀ: wᵀ·U' = cᵀ forwards (w_{p_s} = c'_{q_s} / v_s, then
     c'_k −= w_{p_s}·u along U's row s), then yᵀ = wᵀ·M, applying each
     E_s backwards: y_{p_s} −= Σ_i y_i·l_i.

   Active storage: each column keeps its live entries (rows not yet
   pivoted) in growable arrays, and each row a list of the columns that
   ever held an entry in it, plus an exact count of the live ones.  A
   list may hold a column twice, or one whose entry cancelled; the scan
   of a pivot row skips both. *)

module Make (F : Field.S) = struct
  type t = {
    m : int;
    prow : int array; (* pivot row of step s *)
    pcol : int array; (* pivot column (position in [cols]) of step s *)
    pval : F.t array; (* pivot value v_s *)
    lrow : int array array; (* L's column s: rows ... *)
    lval : F.t array array; (* ... and multipliers *)
    ucol : int array array; (* U's row s: column positions ... *)
    uval : F.t array array; (* ... and entries *)
  }

  exception Singular

  (* [a] with room for an element at [len], doubled when full. *)
  let grow a len fill =
    if len < Array.length a then a else Array.append a (Array.make (max 1 len) fill)

  let factor a cols =
    let m = Sparse.nrows a in
    if Array.length cols <> m then invalid_arg "Lu.factor: one column per row expected";
    let ptr = Sparse.col_ptr a and ri = Sparse.row_idx a and av = Sparse.vals a in
    let crow = Array.make m [||] and cval = Array.make m [||] and clen = Array.make m 0 in
    let rcount = Array.make m 0 in
    Array.iteri
      (fun k j ->
        let n = ptr.(j + 1) - ptr.(j) in
        let rows = Array.make n 0 and vals = Array.make n F.zero and c = ref 0 in
        for e = ptr.(j) to ptr.(j + 1) - 1 do
          if not (F.exactly_zero av.(e)) then begin
            rows.(!c) <- ri.(e);
            vals.(!c) <- av.(e);
            rcount.(ri.(e)) <- rcount.(ri.(e)) + 1;
            incr c
          end
        done;
        crow.(k) <- rows;
        cval.(k) <- vals;
        clen.(k) <- !c)
      cols;
    let rcol = Array.init m (fun i -> Array.make rcount.(i) 0) and rlen = Array.make m 0 in
    let add_to_row i k =
      rcol.(i) <- grow rcol.(i) rlen.(i) 0;
      rcol.(i).(rlen.(i)) <- k;
      rlen.(i) <- rlen.(i) + 1
    in
    for k = 0 to m - 1 do
      for e = 0 to clen.(k) - 1 do
        add_to_row crow.(k).(e) k
      done
    done;
    (* Columns not yet pivoted ([alive], with each one's slot in it), and
       those that may have one entry left, most recent first. *)
    let alive = Array.init m Fun.id and slot = Array.init m Fun.id and nalive = ref m in
    let singles = ref [] in
    let settle k =
      match clen.(k) with
      | 0 -> raise_notrace Singular
      | 1 -> singles := k :: !singles
      | _ -> ()
    in
    let rec single () =
      match !singles with
      | [] -> None
      | k :: rest ->
        singles := rest;
        if slot.(k) >= 0 && clen.(k) = 1 then Some k else single ()
    in
    let fewest () =
      let best = ref alive.(0) in
      for s = 1 to !nalive - 1 do
        if clen.(alive.(s)) < clen.(!best) then best := alive.(s)
      done;
      !best
    in
    let retire k =
      let s = slot.(k) and last = alive.(!nalive - 1) in
      alive.(s) <- last;
      slot.(last) <- s;
      slot.(k) <- -1;
      decr nalive
    in
    (* Scratch: [where.(i)] is 1 + the index of row i in the column being
       updated (0 when absent); [seen.(k)] the last step that visited k;
       U's row in the making. *)
    let where = Array.make m 0 and seen = Array.make m (-1) in
    let ubuf_col = Array.make m 0 and ubuf_val = Array.make m F.zero in
    (* a_{i,k} −= l_i·u over the multipliers, on column k. *)
    let update k lr lv u =
      let rows = ref crow.(k) and vals = ref cval.(k) in
      for e = 0 to clen.(k) - 1 do
        where.(!rows.(e)) <- e + 1
      done;
      let cancelled = ref false in
      Array.iteri
        (fun t i ->
          let d = F.mul lv.(t) u in
          let w = where.(i) in
          if w > 0 then begin
            let x = F.sub !vals.(w - 1) d in
            !vals.(w - 1) <- x;
            if F.exactly_zero x then cancelled := true
          end
          else begin
            let n = clen.(k) in
            rows := grow !rows n 0;
            vals := grow !vals n F.zero;
            !rows.(n) <- i;
            !vals.(n) <- F.neg d;
            clen.(k) <- n + 1;
            where.(i) <- n + 1;
            rcount.(i) <- rcount.(i) + 1;
            add_to_row i k
          end)
        lr;
      let rows = !rows and vals = !vals in
      crow.(k) <- rows;
      cval.(k) <- vals;
      for e = 0 to clen.(k) - 1 do
        where.(rows.(e)) <- 0
      done;
      if !cancelled then begin
        let n = ref 0 in
        for e = 0 to clen.(k) - 1 do
          if F.exactly_zero vals.(e) then rcount.(rows.(e)) <- rcount.(rows.(e)) - 1
          else begin
            rows.(!n) <- rows.(e);
            vals.(!n) <- vals.(e);
            incr n
          end
        done;
        clen.(k) <- !n
      end
    in
    let prow = Array.make m 0 and pcol = Array.make m 0 and pval = Array.make m F.zero in
    let lrow = Array.make m [||] and lval = Array.make m [||] in
    let ucol = Array.make m [||] and uval = Array.make m [||] in
    let step s =
      let q = match single () with Some k -> k | None -> fewest () in
      let rows = crow.(q) and vals = cval.(q) and n = clen.(q) in
      let e = ref 0 in
      for f = 1 to n - 1 do
        if rcount.(rows.(f)) < rcount.(rows.(!e)) then e := f
      done;
      let p = rows.(!e) and v = vals.(!e) in
      let lr = Array.make (n - 1) 0 and lv = Array.make (n - 1) F.zero and t = ref 0 in
      for f = 0 to n - 1 do
        rcount.(rows.(f)) <- rcount.(rows.(f)) - 1;
        if f <> !e then begin
          lr.(!t) <- rows.(f);
          lv.(!t) <- F.div vals.(f) v;
          incr t
        end
      done;
      retire q;
      crow.(q) <- [||];
      cval.(q) <- [||];
      let nu = ref 0 in
      for x = 0 to rlen.(p) - 1 do
        let k = rcol.(p).(x) in
        if slot.(k) >= 0 && seen.(k) <> s then begin
          seen.(k) <- s;
          let rows = crow.(k) and len = clen.(k) in
          let f = ref 0 in
          while !f < len && rows.(!f) <> p do
            incr f
          done;
          if !f < len then begin
            let vals = cval.(k) in
            let u = vals.(!f) in
            rows.(!f) <- rows.(len - 1);
            vals.(!f) <- vals.(len - 1);
            clen.(k) <- len - 1;
            ubuf_col.(!nu) <- k;
            ubuf_val.(!nu) <- u;
            incr nu;
            if n > 1 then update k lr lv u;
            settle k
          end
        end
      done;
      prow.(s) <- p;
      pcol.(s) <- q;
      pval.(s) <- v;
      lrow.(s) <- lr;
      lval.(s) <- lv;
      ucol.(s) <- Array.sub ubuf_col 0 !nu;
      uval.(s) <- Array.sub ubuf_val 0 !nu
    in
    match
      for k = m - 1 downto 0 do
        settle k
      done;
      for s = 0 to m - 1 do
        step s
      done
    with
    | () -> Some { m; prow; pcol; pval; lrow; lval; ucol; uval }
    | exception Singular -> None

  let solve lu b =
    let z = Array.copy b in
    for s = 0 to lu.m - 1 do
      let zp = z.(lu.prow.(s)) in
      if not (F.exactly_zero zp) then begin
        let lr = lu.lrow.(s) and lv = lu.lval.(s) in
        for t = 0 to Array.length lr - 1 do
          let i = lr.(t) in
          z.(i) <- F.sub z.(i) (F.mul lv.(t) zp)
        done
      end
    done;
    let x = Array.make lu.m F.zero in
    for s = lu.m - 1 downto 0 do
      let acc = ref z.(lu.prow.(s)) in
      let uc = lu.ucol.(s) and uv = lu.uval.(s) in
      for t = 0 to Array.length uc - 1 do
        let xk = x.(uc.(t)) in
        if not (F.exactly_zero xk) then acc := F.sub !acc (F.mul uv.(t) xk)
      done;
      if not (F.exactly_zero !acc) then x.(lu.pcol.(s)) <- F.div !acc lu.pval.(s)
    done;
    x

  let solve_transpose lu c =
    let c = Array.copy c in
    let y = Array.make lu.m F.zero in
    for s = 0 to lu.m - 1 do
      let cq = c.(lu.pcol.(s)) in
      if not (F.exactly_zero cq) then begin
        let w = F.div cq lu.pval.(s) in
        y.(lu.prow.(s)) <- w;
        let uc = lu.ucol.(s) and uv = lu.uval.(s) in
        for t = 0 to Array.length uc - 1 do
          let k = uc.(t) in
          c.(k) <- F.sub c.(k) (F.mul w uv.(t))
        done
      end
    done;
    for s = lu.m - 1 downto 0 do
      let lr = lu.lrow.(s) and lv = lu.lval.(s) in
      let acc = ref y.(lu.prow.(s)) in
      for t = 0 to Array.length lr - 1 do
        let yi = y.(lr.(t)) in
        if not (F.exactly_zero yi) then acc := F.sub !acc (F.mul yi lv.(t))
      done;
      y.(lu.prow.(s)) <- !acc
    done;
    y
end
