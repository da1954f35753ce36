(* Ordered-field abstraction the simplex engines are functorized over.
   Two instances matter in this project:
   - [Rational]: exact arithmetic, used by every solve whose answer is
     returned, so that the paper's exactness claims actually hold;
   - [Approx]: IEEE doubles with an epsilon tolerance, used by the float
     feasibility probes that guide the milestone search before the exact
     parametric solve certifies its bracket. *)

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
  val abs : t -> t

  val compare : t -> t -> int
  val equal : t -> t -> bool

  val is_zero : t -> bool
  (** Within the field's tolerance: exact zero for [Rational], [|x| < eps]
      for [Approx].  The simplex pivoting rules only use this predicate and
      [compare], so numerical robustness is confined here. *)

  val sign : t -> int
  (** [-1], [0] (within tolerance) or [1]. *)

  val exact : bool
  (** Whether arithmetic in this field is exact.  Solver instrumentation
      uses it to split statistics between exact and approximate solves. *)

  val pp : Format.formatter -> t -> unit
end

(* Inherits the tagged two-representation fast path (DESIGN.md §10): as
   long as a solve's rationals fit a machine word, every field operation
   below stays allocation-light native arithmetic, promoting to limbs
   only on overflow.  Nothing here needs to know which representation a
   value is in. *)
module Rational : S with type t = Numeric.Rat.t = struct
  include Numeric.Rat

  let of_rat x = x
  let exact = true
end

module Approx : S with type t = float = struct
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
  let abs = Float.abs
  let is_zero x = Float.abs x < eps
  let sign x = if x > eps then 1 else if x < -.eps then -1 else 0
  let exact = false
  let compare a b = if is_zero (a -. b) then 0 else Float.compare a b
  let equal a b = compare a b = 0
  let pp fmt x = Format.fprintf fmt "%g" x
end
