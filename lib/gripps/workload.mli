(** Workload and platform generators for the scheduling experiments.

    A platform is a set of heterogeneous sequence-comparison servers, each
    holding a subset of the databanks (Section 3: "uniform machines with
    restricted availabilities").  A request compares a motif set against
    one databank and may only run on servers that hold it. *)

module Rat = Numeric.Rat

type platform = {
  speeds : Rat.t array;
      (** relative slowdown per machine: 1 = reference machine of
          {!Cost_model}, 2 = twice slower *)
  bank_sizes : int array;  (** sequences per databank *)
  has_bank : bool array array;  (** [has_bank.(machine).(bank)] *)
}

type request = {
  arrival : Rat.t;  (** seconds *)
  bank : int;
  num_motifs : int;
}

(** {1 Availability overlay}

    The paper's cost matrix encodes a machine that lacks a databank as
    [c_{i,j} = +∞] ([None] here).  An overlay extends that encoding to
    {e time-varying} availability: a machine that is down behaves exactly
    like one that holds no databank at all.  The serving engine masks
    each request's cost column through the current overlay before every
    scheduling decision. *)

type machine_state =
  | Up
  | Down  (** every cost on this machine becomes [None] — the paper's +∞ *)

type overlay = machine_state array
(** One state per machine, in platform machine order. *)

val all_up : platform -> overlay
(** The identity overlay: every machine up. *)

val healthy : overlay -> bool
(** Whether the overlay is the identity (all machines [Up]). *)

val machine_live : machine_state -> bool
(** [true] for [Up], [false] for [Down]. *)

val mask_column : overlay -> Rat.t option array -> Rat.t option array
(** Apply the overlay to a base cost column ({!cost_column}): [Down]
    machines are masked to [None], [Up] ones keep their cost.  The result
    may be all-[None] — a request starved by the current outages; callers
    decide how to handle that (the serving engine parks such requests
    until a holder recovers).
    @raise Invalid_argument on a length mismatch. *)

val random_platform :
  Prng.t -> machines:int -> banks:int -> replication:int -> platform
(** Speeds uniform in [{1, …, 4}] (quantized quarters); every databank is
    placed on [replication] distinct machines (at least one); bank sizes
    vary within ×4 around 1/10 of the reference databank.
    @raise Invalid_argument if [replication > machines] or any count is
    not positive. *)

val poisson_requests :
  Prng.t -> rate:float -> count:int -> max_motifs:int -> banks:int -> request list
(** [count] requests with exponential inter-arrival times of rate [rate]
    (requests per second), uniform target bank, motif-set sizes uniform in
    [\[1, max_motifs\]].  Arrival times are quantized to centiseconds so
    the exact solvers stay fast. *)

val request_cost : platform -> machine:int -> request -> Rat.t option
(** Processing time of the request on the machine ([None] when the bank is
    absent), from {!Cost_model.default} scaled by the machine speed,
    quantized to centiseconds. *)

val cost_column : platform -> request -> Rat.t option array
(** [request_cost] on every machine of the platform, in machine order — the
    instance column one request contributes.  This is the trace-to-cost
    bridge the serving layer uses to grow an instance one admitted request
    at a time.
    @raise Invalid_argument if the request's bank is held by no machine
    (the request could never be served). *)

val quantize : float -> Rat.t
(** Seconds, quantized to exact centiseconds — the time grain of every
    generated arrival and cost (rational arithmetic downstream stays
    cheap). *)

val to_instance : platform -> request list -> Sched_core.Instance.t
(** Offline instance with unit weights (maximum flow).  Use
    {!Sched_core.Instance.stretch_weights} on the result for max-stretch
    experiments. *)

val random_instance : jobs:int -> machines:int -> seed:int -> Sched_core.Instance.t
(** The instance [dlsched generate] writes: integer releases in
    [\[0, 20)], weights in [\[1, 4\]], and each cost in [\[1, 9\]] or,
    with probability 1/4, [+∞]; a job that no machine can run gets a
    finite cost on machine 0. *)
