(** Deadline scheduling in the divisible-load model (Section 4.2 of the
    paper, Lemma 1): there is a schedule meeting every job's release date
    and deadline if, and only if, LP system (2) is feasible.

    Every LP here is solved cold, exactly or (for {!probe_approx}) in
    floats, so an answer never depends on earlier solves. *)

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

val probe_approx : ?divisible:bool -> Instance.t -> objective:Rat.t -> bool
(** Float feasibility of the deadlines {!flow_deadlines} at [objective]:
    fast, possibly wrong near the feasibility boundary.  The float probes
    only steer {!Max_flow.search}, whose exact parametric solve certifies
    the answer.  [divisible] is as for {!is_feasible}.  The system is
    built in floats ({!Formulations.deadline_problem}) and decided by
    {!decide_approx}.
    @raise Flow_search.No_verdict as {!decide_approx}.
    @raise Lp.Solve.Iteration_limit if the float simplex hits its cap. *)

val decide_approx : float Lp.Problem.t -> bool
(** [true] iff the float solve of a feasibility LP finds it feasible.
    @raise Flow_search.No_verdict if the float solve reports [Unbounded],
    which only its tolerance can produce on a system without objective. *)
