(** Solver width.  The solver is sequential; these two calls remain for
    benchmark harnesses that pin and report the width. *)

val jobs : unit -> int
(** Always 1. *)

val set_jobs : int -> unit
(** [set_jobs 1] is a no-op.
    @raise Invalid_argument on any other width. *)
