(** Deadline scheduling in the divisible-load model (Section 4.2 of the
    paper, Lemma 1): there is a schedule meeting every job's release date
    and deadline if, and only if, LP system (2) is feasible. *)

module Rat = Numeric.Rat

val feasible : Instance.t -> deadlines:Rat.t array -> Schedule.t option
(** [Some schedule] iff every job [J_j] can be fully processed within
    [\[r_j, deadlines.(j)\]].  The returned schedule is valid for
    {!Schedule.validate_divisible} and meets all deadlines. *)

val is_feasible : ?divisible:bool -> Instance.t -> deadlines:Rat.t array -> bool
(** Feasibility only, skipping schedule construction.  [divisible] (default
    [true]) selects system (2) or, when [false], system (5) at a fixed
    objective (the preemptive model of Section 4.4). *)

val is_feasible_approx : ?divisible:bool -> Instance.t -> deadlines:Rat.t array -> bool
(** Same question answered with the float simplex: much faster, possibly
    wrong near the feasibility boundary.  The milestone search uses it as a
    pre-check and verifies the answer exactly at the decision points. *)

val flow_deadlines : Instance.t -> objective:Rat.t -> Rat.t array
(** The deadlines [d̄_j(F) = r_j + F/w_j] induced by a maximum weighted
    flow objective [F] (Section 4.3.1). *)

(** {2 Warm-started feasibility probes}

    A prober answers a family of "is objective [F] feasible?" questions on
    one instance, reusing work across probes: memoized formulations, the
    float probe's basis seeding the exact solve of the same system, a
    shape-keyed basis cache across objectives, and cached solutions so the
    winning probe's schedule needs no extra solve.  Every reuse is
    verified by the solver (see [Lp.Revised] warm starts), so answers are identical
    to cold solves — only cheaper. *)

type prober

val prober : ?divisible:bool -> ?cache:Lp.Solve.cache -> Instance.t -> prober
(** [divisible] defaults to [true] (system (2)); [false] selects the
    preemptive system (5) at fixed objective.  Pass [?cache] to share a
    basis cache across probers (e.g. across online re-solves). *)

val probe_approx : prober -> objective:Rat.t -> bool
(** Float feasibility pre-check at [objective]; records the float basis
    for {!probe_exact} to warm-start from. *)

val probe_exact : prober -> objective:Rat.t -> bool
(** Exact feasibility at [objective], warm-started when a float basis or
    a shape-compatible cached basis is available. *)

val schedule_at : prober -> objective:Rat.t -> Schedule.t option
(** The schedule of the (divisible) deadline system at [objective],
    decoded from the cached probe solution when [probe_exact] already ran
    there — the winning milestone's LP is not solved twice. *)
