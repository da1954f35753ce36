(** Float-guided search for the milestone bracket that holds [F*].

    Candidates [c_0 < c_1 < … < c_last] are objective values; feasibility
    is monotone in the objective (a larger [F] only loosens deadlines) and
    [c_last] is known feasible.  The optimum lies in the bracket
    [\[c_{i-1}, c_i\]] of the first feasible index [i] (with [0] standing
    in for [c_{-1}]).

    The exact question is asked of the bracket itself: [certify i] solves
    the parametric LP on [\[c_{i-1}, c_i\]], which decides both ends at
    once — infeasible iff [c_i] is infeasible, optimum at [c_{i-1}] iff
    [c_{i-1}] is feasible — and otherwise yields the winning LP's solution.
    The float search only picks which bracket to certify first; a wrong
    guess is corrected by an exact binary search driven by the same
    verdicts.  The result therefore never depends on float rounding. *)

module Rat = Numeric.Rat

(** The exact verdict on one bracket [\[c_{i-1}, c_i\]]. *)
type 'a verdict =
  | Found of 'a  (** [i] is the first feasible index; the bracket's payload *)
  | Lower  (** [c_{i-1}] is already feasible: the first feasible index is below [i] *)
  | Higher  (** [c_i] is infeasible: the first feasible index is above [i] *)

exception No_verdict
(** Raised by an [approx] probe that has no answer (see
    {!Deadline.decide_approx}). *)

val first_feasible :
  certify:(int -> 'a verdict) ->
  ?approx:(Rat.t -> bool) ->
  Rat.t array ->
  int * 'a
(** [first_feasible ~certify ?approx candidates] returns the first
    feasible index [i] and the payload of [certify i = Found _].  With
    [approx] (an approximate feasibility test of one candidate), the float
    binary search picks the first bracket to certify, so a truthful
    [approx] costs exactly one [certify] call; without it the exact search
    starts at the middle.  An [approx] that raises
    {!Lp.Solve.Iteration_limit} (a float probe that hit the simplex's
    iteration cap) or {!No_verdict} abandons the float guess, emitting
    [search.approx_limit]: the search then runs exactly as without
    [approx].  [certify] must answer [Found] exactly at the
    first feasible index, [Lower] above it and [Higher] below it.
    Raises [Invalid_argument] if the verdicts are inconsistent (e.g. the
    last candidate turns out infeasible). *)
