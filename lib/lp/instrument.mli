(** Solver instrumentation over [Obs.Registry.global].

    Each engine records one solve into the [lp.exact.*] or [lp.approx.*]
    instrument family (counters for solves and pivots per phase; a
    histogram of per-solve wall seconds).  The milestone
    searches drive both families: float probes land under [lp.approx],
    the certifying parametric solves under [lp.exact].

    This module replaces the old [Lp.Stats] accumulators and its hook.
    Aggregate consumers snapshot {!totals} before and after the work of
    interest and {!diff} the two; per-solve consumers install an
    [Obs.Sink.callback] and read the ["lp.solve"] spans emitted when
    tracing is enabled. *)

type totals = {
  solves : int;
  warm_solves : int;
      (** always 0: every solve is cold; the field stays for the readers
          of this record *)
  pivots_phase1 : int;
  pivots_phase2 : int;
  pivots_dual : int;  (** always 0, likewise: no solve runs a dual simplex *)
  seconds : float;  (** total wall seconds across the solves *)
}

val exact_totals : unit -> totals
(** Snapshot of the [lp.exact.*] instruments (process lifetime). *)

val approx_totals : unit -> totals
val totals_for : exact:bool -> totals

val combined : unit -> totals
(** Exact and approximate totals summed. *)

val total_pivots : totals -> int

val diff : before:totals -> totals -> totals
(** Component-wise difference of two snapshots of the same family. *)

val record : exact:bool -> pivots_phase1:int -> pivots_phase2:int -> seconds:float -> unit
(** Fold one finished solve into its instrument family.  Called by the
    engines; not meant for user code. *)

type certification = {
  certified : int;  (** exact solves answered by a certified float basis *)
  fallbacks : int;  (** exact solves that fell back to the cold exact solve *)
}

val certification : unit -> certification
(** Snapshot of the [lp.exact.certified] and [lp.exact.fallbacks]
    counters (process lifetime); every [Solve.exact] through the revised
    engine adds one to exactly one of them. *)

val record_certification : certified:bool -> unit
(** Count one certified exact solve, or one fallback.  Called by
    [Solve.exact]; not meant for user code. *)

val now : unit -> float
(** [Unix.gettimeofday], shared so all engines time solves the same way. *)

val sync_rat_counters : unit -> unit
(** Mirror the numeric tower's fast-path tallies ([Numeric.Counters])
    into [Obs.Registry.global] as the [rat.small_ops] / [rat.big_ops] /
    [rat.promotions] / [rat.demotions] counters.  Runs automatically at
    the end of every {!record}; callers that want the counters current
    outside any solve (e.g. a metrics dump at shutdown) may call it
    directly.  Registry counters are monotonic, so a [Counters.reset]
    only stalls the mirrored values until the live tallies catch back
    up. *)
