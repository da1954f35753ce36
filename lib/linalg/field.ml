(* Ordered-field abstraction the simplex engines are functorized over.
   Two instances matter in this project:
   - [Rational]: exact arithmetic, used by every solve whose answer is
     returned, so that the paper's exactness claims actually hold;
   - [Approx]: IEEE doubles with an epsilon tolerance, used by the float
     feasibility probes that guide the milestone search before the exact
     parametric solve certifies its bracket.

   Each instance also carries the revised simplex's inner loops
   ([Kernels]).  Without flambda, code written once against an abstract
   [F.t] boxes every float it reads from an array and reaches every
   [F.add] through an indirect call; the loops below are written per
   field instead, so the [Approx] ones run on unboxed [float array]s.
   The phase logic and the other pivoting rules stay generic in
   [Lp.Revised.Make]; two kernels apply the rule they are named for
   (Dantzig's entering column, the minimum-ratio row) in one pass each.
   Both versions of a loop perform the same field operations in the same
   order and test zeros with the same predicate (except that rational
   pricing skips a term whose dual is an exact zero, which changes no
   value), so the float kernels return bit-for-bit what the generic code
   they replace returned (DESIGN §6). *)

module type S = sig
  type t

  val zero : t
  val one : t

  val of_int : int -> t
  val of_rat : Numeric.Rat.t -> t
  val to_float : t -> float

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t

  val compare : t -> t -> int
  val equal : t -> t -> bool

  val is_zero : t -> bool
  (** Within the field's tolerance: exact zero for [Rational], [|x| < eps]
      for [Approx].  The simplex pivoting rules only use this predicate and
      [compare], so numerical robustness is confined here. *)

  val exactly_zero : t -> bool
  (** A [Rat] zero or a float equal to [0.0], with no tolerance: the test
      for dropping a term, whose absence must not change the problem. *)

  val sign : t -> int
  (** [-1], [0] (within tolerance) or [1]. *)

  val exact : bool
  (** Whether arithmetic in this field is exact.  Solver instrumentation
      uses it to split statistics between exact and approximate solves. *)

  val pp : Format.formatter -> t -> unit
end

(* The revised simplex's O(m·nnz) loops.  "nz" below is [not (is_zero
   x)], the field's tolerance; "exactly nonzero" is a [Rat] nonzero or a
   float other than [0.0].  Sums fold left in the order given. *)
module type Kernels = sig
  type t

  val eliminate : t array array -> int -> t array -> int array
  (** [eliminate rows r f], a Gauss–Jordan step on the pivot [f.(r)]:
      row [r] is divided by [f.(r)], then for each [i ≠ r] in order with
      [f.(i)] nz, [rows.(i) <- rows.(i) − f.(i)·rows.(r)].  Both updates
      touch only the columns where row [r] is exactly nonzero; those
      columns are returned, in increasing order (the pivot row's
      support). *)

  val eliminate_vec : t array -> int -> t array -> unit
  (** [eliminate_vec x r f], the same step on a vector:
      [x.(r) <- x.(r) / f.(r)], then [x.(i) <- x.(i) − f.(i)·x.(r)] for
      each [i ≠ r] in order with [f.(i)] nz. *)

  val col_accum : t Sparse.t -> int -> t array array -> t array -> unit
  (** [col_accum mat j rows w]: for each entry [(r, v)] of column [j] in
      row order, then each [i] in order, [w.(i) <- w.(i) + rows.(i).(r)·v]
      when [rows.(i).(r)] is nz.  With [rows = B⁻¹] and [w] zero this is
      [w = B⁻¹·A_j]. *)

  val multipliers : t array -> t array -> int array -> t array array -> int array -> unit
  (** [multipliers y cost basis rows ks] recomputes [y.(k)] for each [k]
      in [ks]: zero, then for each [i] in order with
      [c = cost.(basis.(i))] nz, [y.(k) <- y.(k) + c·rows.(i).(k)] when
      [rows.(i).(k)] is nz.  Other entries of [y] are left as they are.
      Over every [k], this is [y = c_B·B⁻¹] for [rows = B⁻¹]. *)

  val dot_add : t Sparse.t -> int -> t array -> t
  (** [dot_add mat j x = 0 + x.(r₁)·v₁ + x.(r₂)·v₂ + …] over column [j]. *)

  val price : t Sparse.t -> t array -> t array -> int array -> int -> t array -> unit
  (** [price mat cost y cols n d]: [d.(j) <- cost.(j) − y.(r₁)·v₁ −
      y.(r₂)·v₂ − …] over column [j], for each [j] among [cols.(0)] …
      [cols.(n-1)].  Other entries of [d] are left as they are. *)

  val dantzig : t array -> bool array -> int -> int
  (** [dantzig d skip n], Dantzig's entering rule: scanning [j] from 0 to
      [n - 1] over the [j] with [skip.(j)] false and [sign d.(j) < 0],
      the first one found is the best so far, and a later one replaces
      it when [compare d.(j) d.(best) < 0].  The last best, or [-1] when
      there is none. *)

  val leaving : t array -> t array -> int array -> int
  (** [leaving xb w basis], the minimum-ratio rule: scanning the rows [i]
      with [sign w.(i) > 0] in order, with ratio [xb.(i) / w.(i)], the
      first one is the best so far, and a later one replaces it when its
      ratio compares below the best's, or equal with a smaller
      [basis.(i)].  The last best, or [-1] when there is none. *)
end

module type With_kernels = sig
  include S
  include Kernels with type t := t
end

(* Inherits the tagged two-representation fast path (DESIGN.md §10): as
   long as a solve's rationals fit a machine word, every field operation
   below stays allocation-light native arithmetic, promoting to limbs
   only on overflow.  Nothing here needs to know which representation a
   value is in. *)
module Rational : With_kernels with type t = Numeric.Rat.t = struct
  include Numeric.Rat

  let of_rat x = x
  let exactly_zero = Numeric.Rat.is_zero
  let exact = true

  module R = Numeric.Rat

  let support row =
    let idx = Array.make (Array.length row) 0 and n = ref 0 in
    Array.iteri
      (fun k v ->
        if not (R.is_zero v) then begin
          idx.(!n) <- k;
          incr n
        end)
      row;
    Array.sub idx 0 !n

  let eliminate rows r f =
    let prow = rows.(r) and piv = f.(r) in
    let supp = support prow in
    Array.iter (fun k -> prow.(k) <- R.div prow.(k) piv) supp;
    Array.iteri
      (fun i a ->
        let fi = f.(i) in
        if i <> r && not (R.is_zero fi) then
          Array.iter (fun k -> a.(k) <- R.sub a.(k) (R.mul fi prow.(k))) supp)
      rows;
    supp

  let eliminate_vec x r f =
    x.(r) <- R.div x.(r) f.(r);
    Array.iteri
      (fun i fi -> if i <> r && not (R.is_zero fi) then x.(i) <- R.sub x.(i) (R.mul fi x.(r)))
      f

  let col_accum mat j rows w =
    let ptr = Sparse.col_ptr mat and ri = Sparse.row_idx mat and vals = Sparse.vals mat in
    for e = ptr.(j) to ptr.(j + 1) - 1 do
      let r = ri.(e) and v = vals.(e) in
      for i = 0 to Array.length w - 1 do
        let c = rows.(i).(r) in
        if not (R.is_zero c) then w.(i) <- R.add w.(i) (R.mul c v)
      done
    done

  let multipliers y cost basis rows ks =
    Array.iter (fun k -> y.(k) <- R.zero) ks;
    Array.iteri
      (fun i b ->
        let cb = cost.(b) in
        if not (R.is_zero cb) then
          let row = rows.(i) in
          Array.iter
            (fun k ->
              let v = row.(k) in
              if not (R.is_zero v) then y.(k) <- R.add y.(k) (R.mul cb v))
            ks)
      basis

  let dot_add mat j x =
    let ptr = Sparse.col_ptr mat and ri = Sparse.row_idx mat and vals = Sparse.vals mat in
    let acc = ref R.zero in
    for e = ptr.(j) to ptr.(j + 1) - 1 do
      acc := R.add !acc (R.mul x.(ri.(e)) vals.(e))
    done;
    !acc

  (* A zero dual's term is skipped: it would subtract an exact zero. *)
  let price mat cost y cols n d =
    let ptr = Sparse.col_ptr mat and ri = Sparse.row_idx mat and vals = Sparse.vals mat in
    for c = 0 to n - 1 do
      let j = cols.(c) in
      let acc = ref cost.(j) in
      for e = ptr.(j) to ptr.(j + 1) - 1 do
        let yr = y.(ri.(e)) in
        if not (R.is_zero yr) then acc := R.sub !acc (R.mul yr vals.(e))
      done;
      d.(j) <- !acc
    done

  let dantzig d skip n =
    let best = ref (-1) in
    for j = 0 to n - 1 do
      if (not skip.(j)) && R.sign d.(j) < 0 && (!best < 0 || R.compare d.(j) d.(!best) < 0)
      then best := j
    done;
    !best

  let leaving xb w basis =
    let best = ref (-1) and rbest = ref R.zero in
    Array.iteri
      (fun i wi ->
        if R.sign wi > 0 then begin
          let ratio = R.div xb.(i) wi in
          let c = if !best < 0 then -1 else R.compare ratio !rbest in
          if c < 0 || (c = 0 && basis.(i) < basis.(!best)) then begin
            best := i;
            rbest := ratio
          end
        end)
      w;
    !best
end

(* Every loop below is annotated [float array] so that reads and writes
   stay unboxed; each is the [Rational] loop above with [+.], [-.], [*.],
   [/.] for the field operations and the same zero tests, save one:
   [price] multiplies every term, also where [y] is [0.0], because
   [0.0 *. inf] is NaN, not 0, so skipping it could change a reduced
   cost.  Running bests are kept in local refs, which stay unboxed; a
   float returned from a call that is not inlined would be boxed. *)
module Approx : With_kernels with type t = float = struct
  type t = float

  let eps = 1e-9
  let zero = 0.0
  let one = 1.0
  let of_int = float_of_int
  let of_rat = Numeric.Rat.to_float
  let to_float x = x
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let[@inline] is_zero x = Float.abs x < eps
  let exactly_zero x = x = 0.0
  let[@inline] sign x = if x > eps then 1 else if x < -.eps then -1 else 0
  let exact = false
  let[@inline] compare a b = if is_zero (a -. b) then 0 else Float.compare a b
  let equal a b = compare a b = 0
  let pp fmt x = Format.fprintf fmt "%g" x

  let support (row : float array) =
    let idx = Array.make (Array.length row) 0 and n = ref 0 in
    for k = 0 to Array.length row - 1 do
      if not (row.(k) = 0.0) then begin
        idx.(!n) <- k;
        incr n
      end
    done;
    Array.sub idx 0 !n

  let eliminate (rows : float array array) r (f : float array) =
    let prow = rows.(r) and piv = f.(r) in
    let supp = support prow in
    for e = 0 to Array.length supp - 1 do
      let k = supp.(e) in
      prow.(k) <- prow.(k) /. piv
    done;
    for i = 0 to Array.length rows - 1 do
      let fi = f.(i) in
      if i <> r && not (is_zero fi) then begin
        let a = rows.(i) in
        for e = 0 to Array.length supp - 1 do
          let k = supp.(e) in
          a.(k) <- a.(k) -. (fi *. prow.(k))
        done
      end
    done;
    supp

  let eliminate_vec (x : float array) r (f : float array) =
    x.(r) <- x.(r) /. f.(r);
    let xr = x.(r) in
    for i = 0 to Array.length f - 1 do
      let fi = f.(i) in
      if i <> r && not (is_zero fi) then x.(i) <- x.(i) -. (fi *. xr)
    done

  let col_accum mat j (rows : float array array) (w : float array) =
    let ptr = Sparse.col_ptr mat and ri = Sparse.row_idx mat in
    let vals : float array = Sparse.vals mat in
    for e = ptr.(j) to ptr.(j + 1) - 1 do
      let r = ri.(e) and v = vals.(e) in
      for i = 0 to Array.length w - 1 do
        let c = rows.(i).(r) in
        if not (is_zero c) then w.(i) <- w.(i) +. (c *. v)
      done
    done

  let multipliers (y : float array) (cost : float array) basis (rows : float array array)
      ks =
    for e = 0 to Array.length ks - 1 do
      y.(ks.(e)) <- 0.0
    done;
    for i = 0 to Array.length basis - 1 do
      let cb = cost.(basis.(i)) in
      if not (is_zero cb) then begin
        let row = rows.(i) in
        for e = 0 to Array.length ks - 1 do
          let k = ks.(e) in
          let v = row.(k) in
          if not (is_zero v) then y.(k) <- y.(k) +. (cb *. v)
        done
      end
    done

  let dot_add mat j (x : float array) =
    let ptr = Sparse.col_ptr mat and ri = Sparse.row_idx mat in
    let vals : float array = Sparse.vals mat in
    let acc = ref 0.0 in
    for e = ptr.(j) to ptr.(j + 1) - 1 do
      acc := !acc +. (x.(ri.(e)) *. vals.(e))
    done;
    !acc

  let price mat (cost : float array) (y : float array) cols n (d : float array) =
    let ptr = Sparse.col_ptr mat and ri = Sparse.row_idx mat in
    let vals : float array = Sparse.vals mat in
    for c = 0 to n - 1 do
      let j = cols.(c) in
      let acc = ref cost.(j) in
      for e = ptr.(j) to ptr.(j + 1) - 1 do
        acc := !acc -. (y.(ri.(e)) *. vals.(e))
      done;
      d.(j) <- !acc
    done

  let dantzig (d : float array) skip n =
    let best = ref (-1) and dbest = ref 0.0 in
    for j = 0 to n - 1 do
      let dj = d.(j) in
      (* [dj < -.eps] is [sign dj < 0], tested first: most columns fail it. *)
      if dj < -.eps && (not skip.(j)) && (!best < 0 || compare dj !dbest < 0) then begin
        best := j;
        dbest := dj
      end
    done;
    !best

  let leaving (xb : float array) (w : float array) basis =
    let best = ref (-1) and rbest = ref 0.0 in
    for i = 0 to Array.length w - 1 do
      let wi = w.(i) in
      if wi > eps (* sign wi > 0 *) then begin
        let ratio = xb.(i) /. wi in
        let c = if !best < 0 then -1 else compare ratio !rbest in
        if c < 0 || (c = 0 && basis.(i) < basis.(!best)) then begin
          best := i;
          rbest := ratio
        end
      end
    done;
    !best
end
