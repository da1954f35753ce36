(** Process-wide counters for the numeric tower's two-representation
    dispatch (see [Rat]): how many rational operations ran entirely on
    the native-int fast path, how many had to use the limb
    representation, and how many values crossed between the two.

    Rational arithmetic runs on one domain at a time, so the plain
    increments behind these counts are exact.  The [lp] layer mirrors
    them into [Obs.Registry.global] as the [rat.small_ops] /
    [rat.big_ops] / [rat.promotions] / [rat.demotions] counters after
    every solve, and the bench harness embeds them in every
    [BENCH_*.json] envelope. *)

val small_ops : unit -> int
(** Rational operations completed on the native-int fast path. *)

val big_ops : unit -> int
(** Rational operations that ran on the limb representation — either
    because an operand was already big, or because the fast path
    overflowed mid-operation (counted in {!promotions} too). *)

val promotions : unit -> int
(** Fast-path attempts that overflowed 63-bit arithmetic and were
    redone on the limb representation. *)

val demotions : unit -> int
(** Limb-representation results that normalized back into machine
    words and were re-tagged small. *)

val hit_rate : unit -> float
(** [small_ops / (small_ops + big_ops)]; [1.0] when no operations have
    been recorded. *)

val reset : unit -> unit

(**/**)

(* Recording entry points, called by [Rat] on every arithmetic
   operation; not meant for user code. *)

val note_small : unit -> unit
val note_big : unit -> unit
val note_promotion : unit -> unit
val note_demotion : unit -> unit
