(** Column-major sparse matrices (CSC), polymorphic in the value type.

    Built incrementally by the LP formulations and consumed column-wise by
    the revised simplex engine.  No field operations are performed here:
    duplicate coordinates are rejected, not combined. *)

type 'f t

val nrows : 'f t -> int
val ncols : 'f t -> int
val nnz : 'f t -> int

val density : 'f t -> float
(** Fraction of stored entries over [nrows * ncols]; 0 for empty shapes. *)

module Builder : sig
  type 'f state

  val create : nrows:int -> ncols:int -> 'f state

  val add : 'f state -> row:int -> col:int -> 'f -> unit
  (** Entries within a column must be added in strictly increasing row
      order; [finish] raises [Invalid_argument] otherwise. *)

  val finish : 'f state -> 'f t
end

val iter_col : 'f t -> int -> (int -> 'f -> unit) -> unit
(** [iter_col t j f] calls [f row value] for each stored entry of column
    [j], in increasing row order. *)

val fold_col : 'f t -> int -> ('a -> int -> 'f -> 'a) -> 'a -> 'a

val map : ('a -> 'b) -> 'a t -> 'b t
(** The same sparsity pattern with every stored value converted; the
    index arrays are shared, not copied.  An entry that converts to zero
    stays stored. *)

val row_pattern : 'f t -> int array * int array
(** [(ptr, cols)], the pattern read by rows, without the values: row
    [r]'s stored entries lie in columns [cols.(k)] for [k] from
    [ptr.(r)] to [ptr.(r+1) - 1], in increasing column order.  [ptr]
    has length [nrows + 1]. *)

(** {1 Raw storage}

    For inner loops that must not allocate a closure per column (the
    simplex kernels of {!Field.Kernels}): column [j]'s entries are
    [(row_idx t).(k), (vals t).(k)] for [k] from [(col_ptr t).(j)] to
    [(col_ptr t).(j+1) - 1], in increasing row order.  These are the
    matrix's own arrays: read them, never write them. *)

val col_ptr : 'f t -> int array
(** Length [ncols + 1]. *)

val row_idx : 'f t -> int array
val vals : 'f t -> 'f array
