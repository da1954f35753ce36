(** Verified accelerated binary search over milestone candidates.

    Feasibility of a flow objective is monotone (a larger [F] only loosens
    deadlines), so the optimal objective lies between the last infeasible
    and the first feasible candidate.  The exact LP feasibility test is
    expensive; this module drives the binary search with the float LP and
    then certifies the answer with at most two exact tests — falling back
    to a fully exact binary search in the (rare) case the float search was
    fooled by a near-boundary instance.  The result is therefore exactly
    the one a purely exact search would produce.

    Exact probes return a payload (typically the probe's LP solution or
    schedule), and [first_feasible] returns the winning candidate's payload
    along with its index — so the winner's LP is never solved twice. *)

module Rat = Numeric.Rat

val first_feasible :
  exact:(Rat.t -> 'a option) ->
  approx:(Rat.t -> bool) ->
  Rat.t array ->
  int * 'a
(** [first_feasible ~exact ~approx candidates] returns the smallest index
    [i] with [exact candidates.(i) <> None] together with that probe's
    payload, given that feasibility is monotone increasing and the last
    candidate is feasible.  [approx] must answer the same question
    approximately.  Raises [Invalid_argument] if the last candidate turns
    out infeasible (broken contract). *)
