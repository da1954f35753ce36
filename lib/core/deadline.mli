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

val flow_deadlines : Instance.t -> objective:Rat.t -> Rat.t array
(** The deadlines [d̄_j(F) = r_j + F/w_j] induced by a maximum weighted
    flow objective [F] (Section 4.3.1). *)

(** {2 Feasibility probes}

    A prober answers a family of "is objective [F] feasible?" questions on
    one instance: the float probes that steer {!Max_flow.search}, and the
    exact probes of {!Max_flow.solve_bisection}.  It memoizes formulations
    per objective, warm-starts exact probes from a shape-keyed basis cache
    of earlier exact probes, and keeps feasible exact solutions so the
    winning probe's schedule needs no extra solve.  Every warm start is
    verified by the solver (see [Lp.Revised]), so answers are identical to
    cold solves — only cheaper. *)

type prober

val prober : ?divisible:bool -> Instance.t -> prober
(** [divisible] defaults to [true] (system (2)); [false] selects the
    preemptive system (5) at fixed objective. *)

val probe_approx : prober -> objective:Rat.t -> bool
(** Float feasibility at [objective]: cold, fast, possibly wrong near the
    feasibility boundary. *)

val probe_exact : prober -> objective:Rat.t -> bool
(** Exact feasibility at [objective], warm-started when an earlier exact
    probe of this prober left a shape-compatible basis. *)

val schedule_at : prober -> objective:Rat.t -> Schedule.t option
(** The schedule of the (divisible) deadline system at [objective],
    decoded from the cached probe solution when [probe_exact] already ran
    there — the winning objective's LP is not solved twice. *)
