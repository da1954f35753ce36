(** Minimization of the maximum weighted flow in the divisible-load model
    (Section 4.3 of the paper, Theorem 2).

    The algorithm is the paper's: enumerate the milestones (O(n²) objective
    values at which the relative order of release dates and parametric
    deadlines changes), binary-search for the first feasible one using the
    deadline-scheduling LP of Lemma 1, then solve the parametric system (3)
    on the bracketing milestone-free range, with the objective [F] itself as
    an LP variable.  Here the float deadline LP steers the search and the
    parametric LP of a bracket is the exact test: it is infeasible iff the
    bracket's upper milestone is, and its optimum sits at the lower
    milestone iff that one is already feasible.  Everything exact runs on
    rationals, so the returned objective is the exact optimum. *)

module Rat = Numeric.Rat

type result = {
  objective : Rat.t;  (** optimal maximum weighted flow [F*] *)
  schedule : Schedule.t;  (** a schedule achieving it *)
  milestones : Rat.t list;  (** the milestones that were enumerated *)
  search_range : Rat.t * Rat.t;
      (** the milestone-free range on which the parametric LP found [F*] *)
}

val solve : ?accelerate:bool -> Instance.t -> result
(** [accelerate] (default [true]) lets the float LP guess which milestone
    bracket holds [F*], so that normally one exact LP — the parametric
    solve on that bracket — both certifies the guess and yields the
    optimum ({!search}); [false] drives the bracket search with exact
    solves alone, starting at the middle candidate.  Every exact solve is
    cold, so the result is identical in both configurations.
    @raise Invalid_argument on an empty instance. *)

val solve_total :
  ?accelerate:bool -> Instance.t -> [ `Solved of result | `Trivial of Schedule.t ]
(** Total variant of {!solve}: the empty instance (no jobs) yields
    [`Trivial] with an empty schedule instead of raising.  Never raises on
    a well-formed {!Instance.t}. *)

(** {2 The bracket search}

    Shared by {!solve} ([divisible:true], system (3)) and
    {!Preemptive.solve} ([divisible:false], system (5)).  [candidates] is
    sorted increasing with a feasible last element
    ({!Milestones.candidates}); candidate [i]'s bracket is
    [\[c_{i-1}, c_i\]], with [0] in place of [c_{-1}]. *)

type optimum = {
  f_star : Rat.t;  (** the minimum of [F] on the bracket *)
  intervals : (Rat.t * Rat.t) array;  (** the epochal intervals at [f_star] *)
  fractions : Formulations.alloc;  (** the optimal fractions *)
}

val certify :
  divisible:bool -> Instance.t -> Rat.t array -> int -> optimum Flow_search.verdict
(** [certify ~divisible inst candidates i] solves the parametric LP cold
    on candidate [i]'s bracket.  It is [Higher] iff [c_i] is infeasible,
    [Lower] iff [i > 0] and [c_{i-1}] is feasible, and otherwise [Found]
    with the bracket's optimum — so [Found] marks exactly the first
    feasible index, and its optimum is [F*]. *)

val search :
  ?accelerate:bool ->
  divisible:bool ->
  Instance.t ->
  Rat.t array ->
  optimum * (Rat.t * Rat.t)
(** The optimum [F*] and its bracket [(f_lo, f_hi)]:
    {!Flow_search.first_feasible} over {!certify}, with the float
    deadline LP picking the first bracket when [accelerate] (default
    [true]) holds. *)

val solve_max_stretch : Instance.t -> result
(** Maximum stretch as the particular case of maximum weighted flow with
    [w_j = 1 / fastest_cost j] (Section 3).  The returned schedule is for
    the reweighted instance, which differs from the input only in weights. *)

val feasible_upper_bound : Instance.t -> Rat.t
(** Weighted flow of a trivial serial schedule (jobs in release order, each
    run entirely on its fastest machine): a finite feasible objective that
    seeds the milestone search. *)

val solve_bisection : ?epsilon:Rat.t -> Instance.t -> result
(** The naive approach the paper contrasts with in Section 4.3.1: plain
    bisection on the objective value, which "is not guaranteed to terminate"
    at the exact optimum and must settle for a precision bound.  Stops when
    the bracket satisfies [hi - lo <= epsilon·hi] (default
    [epsilon = 2^-20]) and returns the feasible upper end: the result is
    within a factor [1 + epsilon] of optimal, never below it.  Each probe
    is a cold exact {!Deadline.is_feasible}; the schedule comes from one
    more cold {!Deadline.feasible} at the returned objective, so it meets
    every deadline [d̄_j] there.  Provided as the comparison baseline for
    the exact milestone algorithm (see the [search] bench). *)
