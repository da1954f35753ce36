(** LP formulations of the paper's four systems.

    Variables are the fractions [α^{(t)}_{i,j}] of job [j] processed on
    machine [i] during time interval [I_t].  A variable is only created when
    the triple is admissible — the job is released by the start of the
    interval, its deadline (if any) is not before the end of the interval,
    and [c_{i,j}] is finite; the paper's constraints (1a), (2a), (2b), (3b),
    (3c), (5d), (5e) are thus enforced structurally rather than as explicit
    equations. *)

module Rat = Numeric.Rat
module Affine = Numeric.Affine

type alloc = (int * int * int * Rat.t) list
(** [(t, i, j, α)] with [α > 0]: fraction of job [j] on machine [i] during
    interval [t]. *)

(** {1 System (1): makespan} *)

type makespan_form = {
  mk_problem : Rat.t Lp.Problem.t;
  mk_bounded_intervals : (Rat.t * Rat.t) array;
      (** the [nint - 1] intervals delimited by distinct release dates *)
  mk_decode : Rat.t array -> Rat.t * alloc;
      (** optimal [Δ_n] (length of the final, open-ended interval) and the
          fractions; interval index [Array.length mk_bounded_intervals]
          denotes the final interval *)
}

val makespan_system : Instance.t -> makespan_form

(** {1 System (2): deadline feasibility} *)

type deadline_form = {
  dl_problem : Rat.t Lp.Problem.t;
  dl_intervals : (Rat.t * Rat.t) array;
  dl_decode : Rat.t array -> alloc;
}

val deadline_system :
  ?divisible:bool -> Instance.t -> deadlines:Rat.t array -> deadline_form
(** With [divisible = false] (default [true]), the per-job interval-capacity
    constraint (5b) of Section 4.4 is added: this is system (5) at a fixed
    objective value, the feasibility test of the preemptive model. *)

val deadline_problem :
  (Rat.t -> 'f) -> ?divisible:bool -> Instance.t -> deadlines:Rat.t array -> 'f Lp.Problem.t
(** The LP of {!deadline_system}, built directly in the field of the
    conversion: each exact coefficient is converted once (c_{i,j} per
    variable, each interval length per interval, computed exactly first).
    [deadline_problem Rat.to_float] equals
    [Lp.Problem.map Rat.to_float] of the exact system, to the bit, without
    building the exact one. *)

(** {1 Systems (3) and (5): parametric in the flow objective F} *)

type parametric_form = {
  pf_problem : Rat.t Lp.Problem.t;
  pf_bounds : Affine.t array;
      (** epochal times as affine functions of [F]; interval [t] is
          [\[pf_bounds.(t), pf_bounds.(t+1))] *)
  pf_decode : Rat.t array -> Rat.t * alloc;  (** optimal [F] and fractions *)
}

val parametric_system :
  divisible:bool -> Instance.t -> f_lo:Rat.t -> f_hi:Rat.t -> parametric_form
(** Minimize [F] over [\[f_lo, f_hi\]] given that the relative order of
    release dates and deadlines [d̄_j(F) = r_j + F/w_j] is constant on the
    open range — i.e. no milestone lies strictly between [f_lo] and [f_hi].
    With [divisible = false] the per-job-per-interval constraint (5b) of
    Section 4.4 is added, making the solution reconstructible as a
    preemptive schedule without intra-job parallelism.
    @raise Invalid_argument if [f_lo >= f_hi] or either bound is negative. *)

(** {1 Constraint-matrix sparsity} *)

type sparsity = {
  sp_rows : int;
  sp_cols : int;  (** structural columns, incl. slack/artificial *)
  sp_nnz : int;
  sp_density : float;
}

val sparsity : Rat.t Lp.Problem.t -> sparsity
(** Sparsity of the system's constraint matrix as the revised simplex
    engine sees it (CSC over originals + slacks + artificials).  Used by
    the bench reports; on realistic instances density is a few percent. *)
