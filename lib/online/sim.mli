(** Event-driven online scheduling simulator.

    The paper's conclusion reports "preliminary simulations" in which an
    online adaptation of the offline algorithm, enhanced by a simple
    preemption scheme, beats classical heuristics such as Minimum
    Completion Time.  This engine reproduces that experiment: jobs arrive
    at their release dates, the policy is consulted at every event
    (arrival, completion, or self-requested review) and answers with
    machine shares; the engine advances simulated time exactly (rational
    arithmetic) and materializes a legal divisible schedule.

    Between two events each machine [i] devotes a constant share
    [s_{i,j} ∈ \[0,1\]] of its time to job [j] ([Σ_j s_{i,j} ≤ 1]); job [j]
    then progresses at rate [Σ_i s_{i,j}/c_{i,j}].  Within the event
    segment the engine lays the shares out sequentially on each machine, so
    the resulting schedule is machine-disjoint and passes
    {!Sched_core.Schedule.validate_divisible}. *)

module Rat = Numeric.Rat

type job_view = {
  id : int;
  release : Rat.t;
  weight : Rat.t;
  remaining : Rat.t;  (** fraction of the job still to process, in (0, 1] *)
}

type share = {
  machine : int;
  job : int;
  share : Rat.t;  (** fraction of the machine's time, in (0, 1] *)
}

type decision = {
  shares : share list;
  review_at : Rat.t option;
      (** ask to be consulted again at this date even if no event occurs *)
}

(** Online scheduling policy.  {!run} passes the full instance to [init]
    for convenience (cost matrix, weights), but an honest online policy
    must only ever inspect jobs that have been announced through
    [on_arrival].  A policy must also be index-relative: its decisions may
    depend on the order of job indices but not on their values, so that
    renumbering the jobs by any increasing map renumbers its shares and
    changes nothing else.  The serving engine relies on it: it hands
    [init] an instance over the jobs still in the system only, job [k]
    being the [k]-th of them in index order, and translates indices at
    the boundary (DESIGN.md §7, §13). *)
module type POLICY = sig
  type state

  val name : string
  val init : Sched_core.Instance.t -> state
  val on_arrival : state -> now:Rat.t -> job:int -> unit
  val on_completion : state -> now:Rat.t -> job:int -> unit

  val on_platform_change :
    state -> now:Rat.t -> inst:Sched_core.Instance.t -> [ `Adapted | `Rebuild ]
  (** Machine availability changed: [inst] is the same job set under the
      new cost matrix (down machines masked to [None], the paper's +∞).
      Return [`Adapted] after
      updating the state in place to schedule against [inst]; return
      [`Rebuild] (the {!rebuild_on_platform_change} shim) to have the
      engine discard the state, [init] a fresh one from [inst], and
      re-announce the live jobs.  Policies that cache per-platform data —
      plans, machine queues — must either refresh those caches or
      rebuild: stale plans are useless and stale queues may point at down
      machines. *)

  val on_batch_arrival : state -> now:Rat.t -> jobs:int list -> unit
  (** A coalesced batch of arrivals, all at the same instant [now], in
      announcement order.  Driving engines that batch admissions
      ([Serve.Admission]) fire this once per batch instead of calling
      [on_arrival] k times, so a policy can rebalance its queues once for
      the whole burst.  The {!announce_each} shim — announce each job via
      [on_arrival] — is behaviorally identical for policies whose arrival
      handler is independent of its siblings, which is every policy in
      this repository. *)

  val decide : state -> now:Rat.t -> active:job_view list -> decision
end

val rebuild_on_platform_change :
  'a -> now:Rat.t -> inst:Sched_core.Instance.t -> [ `Adapted | `Rebuild ]
(** The default [on_platform_change]: always [`Rebuild].  Sound for every
    policy (availability changes are rare, so rebuilding is never hot);
    alias it when the state holds nothing worth preserving. *)

val announce_each :
  ('a -> now:Rat.t -> job:int -> unit) -> 'a -> now:Rat.t -> jobs:int list -> unit
(** The default [on_batch_arrival], built from the policy's own
    [on_arrival]; alias it (eta-expanded, for the value restriction):
    [let on_batch_arrival s ~now ~jobs = Sim.announce_each on_arrival s ~now ~jobs]. *)

type result = {
  policy : string;
  schedule : Sched_core.Schedule.t;
      (** legal divisible schedule of the whole run *)
  decisions : int;  (** number of times the policy was consulted *)
}

val run : (module POLICY) -> Sched_core.Instance.t -> result
(** Simulate the policy on the instance until all jobs complete.
    @raise Invalid_argument if the policy emits an inconsistent decision
    (share on an inactive job or unavailable machine, machine over
    capacity) or starves active jobs forever. *)

(** {1 Engine hooks}

    The building blocks of {!run}, exposed so other event loops — notably
    the wall-clock serving engine of [Serve.Engine] — can drive the same
    policies with identical validation and slice-materialization semantics.
    They read costs through a lookup, [cost ~machine ~job] (the paper's
    [c_{i,j}], [None] for +∞), rather than from an instance: {!run} passes
    [Sched_core.Instance.cost inst], and the serving engine each job's own
    cost column under the availability overlay, so executing a decision
    needs no instance over the jobs it names. *)

type cost = machine:int -> job:int -> Rat.t option

val check_decision :
  ?where:string ->
  ?up:(int -> bool) ->
  name:string ->
  machines:int ->
  cost:cost ->
  eligible:(int -> bool) ->
  now:Rat.t ->
  decision ->
  unit
(** Validate a policy decision: machine indices in [\[0, machines)], shares
    only on [eligible] jobs ([eligible] must be total: it answers [false]
    for an index out of range), [up] machines (defaults to all machines up)
    and available machines ([cost] not [None]), positive shares,
    per-machine capacity at most 1, and [review_at] strictly in the future.
    The serving engine passes the platform's live-machine predicate as [up]
    so a decision placing work on a failed machine is rejected even if the
    policy state that made it predates the failure.
    @raise Invalid_argument with a ["where(name): ..."] message ([where]
    defaults to ["Sim.run"]). *)

val next_completion :
  cost:cost -> decision -> now:Rat.t -> remaining:(int -> Rat.t) -> Rat.t option
(** Earliest date at which a job holding a share of the decision completes,
    each job progressing at rate [Σ_i s_{i,j}/c_{i,j}] from [remaining j];
    [None] for a decision without shares.  Walks the shares only, so its
    cost follows the decision's size, not the instance's. *)

val materialize :
  machines:int ->
  cost:cost ->
  now:Rat.t ->
  horizon:Rat.t ->
  decision ->
  remaining:Rat.t array ->
  Sched_core.Schedule.slice list
(** Lay the decision's shares out sequentially per machine over
    [\[now, horizon)] (share [s] becomes a slice of duration
    [s·(horizon−now)] starting at the machine's cursor), debiting each
    job's entry of [remaining] by the fraction processed.  The result is
    machine-disjoint within the segment; slices are returned in decision
    order. *)
