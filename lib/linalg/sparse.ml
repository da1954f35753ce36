(* Column-major sparse matrices (CSC: compressed sparse columns).

   The scheduling formulations emit constraint matrices where one variable
   exists per machine×interval, so each row touches only a handful of the
   columns and the dense representation is ~95% zeros on realistic
   instances.  The revised simplex engine only ever walks whole columns
   (pricing a candidate entering column, forming B⁻¹·A_j), which is exactly
   the access pattern CSC makes cheap.

   The representation is polymorphic in the coefficient type: the builder
   never combines entries, so no field operations are needed here.  Callers
   that may feed duplicate (row, col) coordinates must combine them
   themselves (see [Lp.Revised.prepare]). *)

type 'f t = {
  nrows : int;
  ncols : int;
  col_ptr : int array; (* length ncols + 1; column j spans [col_ptr.(j), col_ptr.(j+1)) *)
  row_idx : int array; (* length nnz; row index of each stored entry *)
  vals : 'f array; (* length nnz; value of each stored entry *)
}

let nrows t = t.nrows
let ncols t = t.ncols
let nnz t = Array.length t.vals

let density t =
  let cells = t.nrows * t.ncols in
  if cells = 0 then 0.0 else float_of_int (nnz t) /. float_of_int cells

(* Incremental builder: entries are appended per column and materialized
   into CSC arrays by [finish].  Within a column, entries must arrive in
   strictly increasing row order (the natural order when scanning
   constraint rows top to bottom), which [finish] checks. *)
module Builder = struct
  type 'f state = {
    b_nrows : int;
    b_ncols : int;
    mutable entries : (int * int * 'f) list; (* (col, row, value), reversed *)
    mutable count : int;
  }

  let create ~nrows ~ncols =
    if nrows < 0 || ncols < 0 then invalid_arg "Sparse.Builder.create";
    { b_nrows = nrows; b_ncols = ncols; entries = []; count = 0 }

  let add st ~row ~col v =
    if row < 0 || row >= st.b_nrows || col < 0 || col >= st.b_ncols then
      invalid_arg "Sparse.Builder.add: index out of range";
    st.entries <- (col, row, v) :: st.entries;
    st.count <- st.count + 1

  let finish st : 'f t =
    let n = st.count in
    let counts = Array.make (st.b_ncols + 1) 0 in
    List.iter (fun (c, _, _) -> counts.(c + 1) <- counts.(c + 1) + 1) st.entries;
    for j = 1 to st.b_ncols do
      counts.(j) <- counts.(j) + counts.(j - 1)
    done;
    let col_ptr = Array.copy counts in
    let row_idx = Array.make n (-1) in
    let vals_opt = Array.make n None in
    (* [entries] is reversed insertion order; walk it backwards-compatible
       by filling columns from their ends. *)
    let next = Array.make st.b_ncols 0 in
    Array.blit col_ptr 1 next 0 st.b_ncols;
    List.iter
      (fun (c, r, v) ->
        let pos = next.(c) - 1 in
        next.(c) <- pos;
        row_idx.(pos) <- r;
        vals_opt.(pos) <- Some v)
      st.entries;
    let vals =
      Array.map (function Some v -> v | None -> assert false) vals_opt
    in
    (* Enforce sorted, duplicate-free rows within each column. *)
    for j = 0 to st.b_ncols - 1 do
      for k = col_ptr.(j) + 1 to col_ptr.(j + 1) - 1 do
        if row_idx.(k - 1) >= row_idx.(k) then
          invalid_arg "Sparse.Builder.finish: column entries not strictly increasing"
      done
    done;
    { nrows = st.b_nrows; ncols = st.b_ncols; col_ptr; row_idx; vals }
end

let iter_col t j f =
  if j < 0 || j >= t.ncols then invalid_arg "Sparse.iter_col";
  for k = t.col_ptr.(j) to t.col_ptr.(j + 1) - 1 do
    f t.row_idx.(k) t.vals.(k)
  done

let fold_col t j f acc =
  if j < 0 || j >= t.ncols then invalid_arg "Sparse.fold_col";
  let acc = ref acc in
  for k = t.col_ptr.(j) to t.col_ptr.(j + 1) - 1 do
    acc := f !acc t.row_idx.(k) t.vals.(k)
  done;
  !acc

let map f t =
  { nrows = t.nrows; ncols = t.ncols; col_ptr = t.col_ptr; row_idx = t.row_idx;
    vals = Array.map f t.vals }

let row_pattern t =
  let ptr = Array.make (t.nrows + 1) 0 in
  Array.iter (fun r -> ptr.(r + 1) <- ptr.(r + 1) + 1) t.row_idx;
  for r = 1 to t.nrows do
    ptr.(r) <- ptr.(r) + ptr.(r - 1)
  done;
  let next = Array.sub ptr 0 t.nrows and cols = Array.make (nnz t) 0 in
  (* Columns in increasing order, so each row's list comes out sorted. *)
  for j = 0 to t.ncols - 1 do
    for k = t.col_ptr.(j) to t.col_ptr.(j + 1) - 1 do
      let r = t.row_idx.(k) in
      cols.(next.(r)) <- j;
      next.(r) <- next.(r) + 1
    done
  done;
  (ptr, cols)

let col_ptr t = t.col_ptr
let row_idx t = t.row_idx
let vals t = t.vals
