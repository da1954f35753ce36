(** The differential-oracle matrix.

    Each oracle runs one generated case through two independent paths of
    the codebase and demands bit-identical answers (different simplex
    engines, float-guided vs exact probing, live vs crash-resumed) or
    dominance-consistent ones (preemptive vs divisible relaxation, online
    policies vs the offline optimum); [snapshot-mutation] instead demands
    that an edited snapshot and WAL record end in a typed error or a
    valid schedule.  [aux] is a
    deterministic per-case integer the driver supplies; oracles use it to
    pick secondary knobs (crash index, snapshot cadence, cache arming,
    the edit) so a case replays identically during shrinking. *)

type outcome = Pass | Fail of string

type t =
  | Offline of string * (aux:int -> Sched_core.Instance.t -> outcome)
      (** runs on a generated offline instance *)
  | Serve of string * (aux:int -> Gen.script -> outcome)
      (** runs on a generated serve script *)

val name : t -> string
val all : t list
val find : string -> t option

val run_offline : t -> aux:int -> Sched_core.Instance.t -> outcome
(** Applies an [Offline] oracle; exceptions become [Fail].  [Serve]
    oracles pass vacuously, and vice versa for {!run_serve}. *)

val run_serve : t -> aux:int -> Gen.script -> outcome
