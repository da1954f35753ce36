(** Arbitrary-precision rational numbers with a machine-word fast path.

    Values are kept normalized: the denominator is positive, numerator and
    denominator are coprime, and zero is represented as [0/1].  Release
    dates, weights, processing times, LP coefficients and the optimal
    maximum weighted flow are all values of this type: the milestone search
    of the paper (Section 4.3.2) is only correct under exact comparison.

    Internally a rational whose reduced numerator and denominator both fit
    native ints is carried as two machine words; arithmetic on that form is
    overflow-checked and transparently promoted to the limb representation
    ([Bigint]) when a 63-bit intermediate would wrap, and limb results are
    demoted back on construction.  The representation is canonical and
    never observable — results are bit-identical to the always-big
    implementation (enforced by a differential qcheck oracle in
    test/test_numeric.ml against the reference limb integers of
    test/bigint_ref.ml).  [Counters] tallies fast-path hits, promotions and
    demotions; see DESIGN §10. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b].  @raise Division_by_zero if [b = 0]. *)

val of_float : float -> t
(** Exact conversion of a finite float (every finite double is a dyadic
    rational).  @raise Invalid_argument on NaN or infinity. *)

val of_string : string -> t
(** Accepts ["n"], ["n/d"] and decimal notation ["1.25"].
    @raise Invalid_argument on malformed input, a zero denominator
    included. *)

(** {1 Inspection} *)

val num : t -> Bigint.t
val den : t -> Bigint.t
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Representation-independent: a value hashes the same whether it holds
    the machine-word or the limb form, so both collide in one hash
    table. *)

val is_small : t -> bool
(** [true] iff the value currently holds the machine-word representation.
    Diagnostic only. *)

val promote : t -> t
(** Re-tag a machine-word value into the limb representation without
    changing its value.  Test hook for the representation-independence
    suites; [equal]/[compare]/[hash] treat the result identically. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero. *)

val inv : t -> t
(** @raise Division_by_zero. *)

val min : t -> t -> t
val max : t -> t -> t

val mul_int : t -> int -> t
val div_int : t -> int -> t

(** {1 Rounding and conversion} *)

val to_float : t -> float
val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val approx : max_den:int -> t -> t
(** Best rational approximation with denominator at most [max_den]
    (continued-fraction convergents/semiconvergents).  Exact solvers
    produce exact but unwieldy values like [1441734/258269]; this gives a
    readable nearby fraction for display without touching the exact value
    used in computation.  @raise Invalid_argument if [max_den < 1]. *)

val to_string : t -> string

val buffer_add : Buffer.t -> t -> unit
(** Append [to_string x] to the buffer without building the string
    (small values never allocate). *)

val buffer_add_int : Buffer.t -> int -> unit
(** Append [string_of_int n] to the buffer, likewise. *)

val pp : Format.formatter -> t -> unit

(** {1 Infix operators}

    [open Rat.Infix] locally for formula-heavy code. *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
