(** Problem instances: jobs with release dates and weights on unrelated
    machines (Section 3 of the paper).

    [cost i j] is the time machine [M_i] would need to process the whole of
    job [J_j]; [None] encodes the paper's infinite [c_{i,j}] — the databank
    required by [J_j] is not present on [M_i], so no fraction of the job may
    run there. *)

module Rat = Numeric.Rat

type job = {
  release : Rat.t;  (** release date [r_j >= 0]: no processing before it *)
  weight : Rat.t;  (** priority [w_j > 0] *)
  flow_origin : Rat.t;
      (** the date flow is measured from: the weighted flow of the job is
          [w_j (C_j - flow_origin)].  Equal to [release] in the paper's
          offline problem; strictly earlier when the online adaptation
          re-optimizes mid-flight jobs whose remaining work is re-released
          "now" but whose flow still counts from the original arrival.
          Every result of Section 4 carries over: deadlines become
          [d̄_j(F) = flow_origin_j + F/w_j], still affine in [F]. *)
}

type t = private {
  jobs : job array;
  num_machines : int;
  cost : Rat.t option array array;  (** [cost.(i).(j)], [num_machines × n] *)
}

type degeneracy =
  | No_machines  (** [m = 0] *)
  | Unrunnable_job of int  (** all-[+∞] cost column: [c_{i,j} = ∞] for every [i] *)
  | Nonpositive_weight of int  (** [w_j <= 0] *)
  | Negative_release of int  (** [r_j < 0] *)
  | Bad_flow_origin of int  (** flow origin negative or after the release date *)
  | Nonpositive_cost of int * int  (** finite [c_{i,j} <= 0] (machine, job) *)
  | Shape_mismatch of string  (** array dimensions disagree *)
(** Every way a would-be instance can violate the model of Section 3.  The
    paper's algorithms are only defined away from these; the fuzzing
    generators ({!Check}) deliberately produce them and classify the
    rejection by this type rather than by exception message. *)

val degeneracy_to_string : degeneracy -> string

val make_checked :
  ?flow_origins:Rat.t array ->
  releases:Rat.t array ->
  weights:Rat.t array ->
  Rat.t option array array ->
  (t, degeneracy) result
(** Total variant of {!make}: a degenerate input is a value, not an
    exception.  [n = 0] (no jobs) is {e not} degenerate — the empty
    instance is valid and solvers return their [`Trivial] case on it.
    Array shapes are checked first; then each job in index order, and the
    lowest-indexed degenerate job is reported with its first failing
    condition among release, flow origin, weight, finite costs (by
    machine) and runnability. *)

val make :
  ?flow_origins:Rat.t array ->
  releases:Rat.t array ->
  weights:Rat.t array ->
  Rat.t option array array ->
  t
(** [flow_origins] defaults to [releases].
    @raise Invalid_argument on any {!degeneracy} (the message carries
    {!degeneracy_to_string}). *)

val uniform :
  speeds:Rat.t array ->
  sizes:Rat.t array ->
  releases:Rat.t array ->
  weights:Rat.t array ->
  available:bool array array ->
  t
(** Uniform machines with restricted availabilities (the GriPPS situation,
    Section 3): [cost.(i).(j) = sizes.(j) * speeds.(i)] where [speeds.(i)]
    is in seconds per unit of work, masked by databank [available.(i).(j)].
    This is a special case of [make]. *)

val num_jobs : t -> int
val num_machines : t -> int
val job : t -> int -> job
val release : t -> int -> Rat.t
val weight : t -> int -> Rat.t
val flow_origin : t -> int -> Rat.t
val cost : t -> machine:int -> job:int -> Rat.t option

val can_run : t -> machine:int -> job:int -> bool

val fastest_cost : t -> job:int -> Rat.t
(** Minimum finite [c_{i,j}] over machines; total work of the job if it runs
    on its best machine. *)

val max_release : t -> Rat.t
(** Latest release date; zero for an empty instance. *)

val stretch_weights : t -> t
(** The same instance with every weight replaced by [1 / fastest_cost j]:
    with these weights, maximum weighted flow is maximum stretch (each job's
    flow is measured relative to its best-case processing time, the standard
    stretch of Bender et al. which the paper adopts). *)

val pp : Format.formatter -> t -> unit
