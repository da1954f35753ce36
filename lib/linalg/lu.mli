(** Sparse LU factorization of a square choice of a CSC matrix's columns,
    for exact solves with a basis matrix.

    [factor a cols] takes [B], the [m × m] matrix whose column [k] is
    column [cols.(k)] of [a] ([m] = [Sparse.nrows a]), and eliminates it
    one pivot at a time on a sparse active submatrix.  The pivot is
    chosen where it makes no fill first: a column with one active entry
    (every slack, surplus and artificial column starts as one), then the
    active column with the fewest entries, on its row with the fewest.
    Entries that cancel to an exact zero ([F.exactly_zero]) are dropped,
    so the factorization is singular exactly when some column runs out
    of entries.

    The solves read the factors without changing them.  In an exact
    field their results do not depend on the pivots chosen: permuting
    [cols] permutes [solve]'s result the same way, and, with the costs
    permuted alike, leaves [solve_transpose]'s as it is. *)

module Make (F : Field.S) : sig
  type t

  val factor : F.t Sparse.t -> int array -> t option
  (** [None] when [B] is singular.  Raises [Invalid_argument] unless
      [cols] has one entry per row of [a]. *)

  val solve : t -> F.t array -> F.t array
  (** [solve lu b] is [x] with [B·x = b]: [x.(k)] multiplies column
      [cols.(k)], [b] is indexed by row.  One forward and one back
      substitution. *)

  val solve_transpose : t -> F.t array -> F.t array
  (** [solve_transpose lu c] is [y] with [yᵀ·B = cᵀ]: [c.(k)] belongs to
      column [cols.(k)], [y] is indexed by row.  With [c] the basic
      costs, [y] is the simplex multipliers [c_B·B⁻¹]. *)
end
