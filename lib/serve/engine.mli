(** Wall-clock serving engine: the online simulator turned into a daemon.

    {!Online.Sim.run} solves a closed problem — every job is known up
    front and simulated time is free.  This engine serves an {e open}
    stream: requests are admitted while it runs, time is owned by a
    pluggable {!Clock} (virtual for replay and tests, the system clock for
    a live daemon), and every decision, segment and completed request is
    recorded in an {!Obs.Registry}.  The scheduling semantics are
    shared with the simulator through its exposed hooks
    ({!Online.Sim.check_decision}, {!Online.Sim.next_completion},
    {!Online.Sim.materialize}): a virtual-clock replay of a trace with a
    zero batch window produces {e exactly} the schedule [Sim.run] produces
    on the equivalent offline instance.

    {b Batching under load.}  Consulting the policy on every arrival is
    wasteful when arrivals burst (the re-optimizing policies solve LPs).
    With a positive [batch_window], an arrival less than one window after
    the last decision does not trigger an immediate re-evaluation: the
    engine keeps executing the current decision and re-consults the policy
    at [last_decision + window], admitting every request that arrived in
    between at once.  Completions and policy-requested reviews always
    re-evaluate immediately.

    {b Live submissions.}  A policy runner is built over a {e window}:
    the jobs submitted and not yet complete (arrived, parked or still
    pending), in index order, relative index [k] naming the window's
    [k]-th job.  It is handed an instance over that window alone, so a
    rebuild costs O(window), not O(history), and the engine translates
    job indices at the boundary (announcements, completions and views
    into the window; decision shares back to absolute indices).  This is
    sound because policies are index-relative ({!Online.Sim.POLICY}).
    A job submitted after the engine has started (the [serve] front-end)
    falls outside the runner's window, so the runner is dropped and
    rebuilt from the surviving jobs; queue-based policies lose their
    queue estimates at that point (counted by the [policy_rebuilds]
    metric).  A machine failure or recovery is the same rebuild barrier
    (see below); a policy never adapts a live state to a new platform.
    Arrivals due at one instant are announced one by one with
    [on_arrival], in index order: there is no batch callback.  The current {e decision} survives the submission — its
    shares name absolute job indices, stable under growth, and executing
    it reads each job's own costs, with no policy state and no instance —
    so the plan keeps running and the newcomer only forces a re-decision
    when its arrival date fires, which is where the batch window
    coalesces a burst into a single consultation.  Trace replay submits
    everything before the first step and rebuilds only at its faults.

    {b Decision caching.}  {!set_decision_cache} arms a cache of past
    decisions keyed by a canonical fingerprint of the masked decision
    instance — availability overlay plus the shape (arrival age, bank,
    motif count, remaining fraction) of every schedulable job, in
    announcement order.  It is consulted only at rebuild barriers (no
    live policy state), where the upcoming decision is a pure function of
    exactly the fingerprinted state; a hit replays the remembered plan
    without consulting the policy (counted by [decision_cache_hits], with
    [decisions] untouched), a miss ([decision_cache_misses]) computes and
    remembers.  Every reused plan is re-validated with
    {!Online.Sim.check_decision} before it drives the schedule.  The
    cache is cleared on every availability change.  DESIGN.md §13 states
    the soundness contract policies must honor.

    {b Machine failures.}  Faults ({!Trace.fault}) can be injected at any
    date, live ([fail]/[recover] server commands) or from a trace's event
    stream.  A failure masks the machine's costs to [None] (the paper's
    +∞) in the costs decisions are made and executed against, clips the running
    segment at the failure instant, drops the policy runner (the next
    step rebuilds it over the re-masked window, counted by
    [policy_rebuilds]) and forces a re-decision;
    in-flight work on the dead machine is by default lost and re-credited
    to the affected jobs ([`Lost]; [`Preserved] keeps it).  A job whose
    every capable machine is down is {e parked} — withheld from the policy
    rather than scheduled against phantom costs — and re-announced when a
    recovery makes it runnable again; a permanently starved job surfaces
    as incomplete instead of livelocking the drain.  While every machine
    is up the engine is bit-identical to its fault-unaware self. *)

module Rat = Numeric.Rat

type lost_work =
  [ `Lost  (** in-flight work on a failed machine is lost and redone *)
  | `Preserved  (** partial results survive the failure (checkpointing) *) ]

type t

val create :
  ?batch_window:Rat.t ->
  ?lost_work:lost_work ->
  clock:Clock.t ->
  policy:(module Online.Sim.POLICY) ->
  Gripps.Workload.platform ->
  t
(** [batch_window] defaults to zero (re-evaluate on every arrival);
    [lost_work] defaults to [`Lost].  Each job weighs [1/fastest_cost],
    so the policy optimizes max stretch.  Engine time starts at 0 at the
    clock's current date, with every machine up. *)

val submit :
  t -> id:string -> ?arrival:Rat.t -> bank:int -> num_motifs:int -> unit -> int
(** Admit a request; returns its job index.  [arrival] defaults to the
    clock's current date (quantized to centiseconds) and must not precede
    the engine's current time — the engine never rewrites history.
    @raise Invalid_argument (an [Engine.submit:] message) on an empty or
    whitespace-holding id, a duplicate id, an out-of-range bank, a bank
    held by no machine, a non-positive motif count, or an [arrival] in
    the engine's past. *)

val run_until : t -> Rat.t -> unit
(** Process all events up to the given engine time and advance the clock
    with them (a virtual clock jumps, a wall clock sleeps).  No-op if the
    date is in the past.
    @raise Invalid_argument if the policy misbehaves (see
    {!Online.Sim.run}). *)

val catch_up : t -> unit
(** [run_until] the clock's current date — how a live server absorbs the
    time that passed while it waited for input.  No-op on a virtual
    clock. *)

val drain : t -> unit
(** Run until every submitted job has completed — or, under faults, until
    only permanently starved jobs remain (no pending fault or arrival can
    unpark them).  Under a virtual clock this fast-forwards; under a wall
    clock it really waits. *)

val inject : t -> at:Rat.t -> Trace.fault -> unit
(** Schedule a machine failure or recovery at engine time [at]; a date at
    or before the current time applies immediately.  Idempotent per state:
    failing a dead machine or recovering a live one is a no-op when the
    date arrives.
    @raise Invalid_argument if the machine index is out of range. *)

val machine_up : t -> int -> bool
(** Whether the machine is currently up.
    @raise Invalid_argument if the index is out of range. *)

val machines_up : t -> int
(** Number of currently live machines. *)

val now : t -> Rat.t
(** Current engine time (seconds since the engine's epoch). *)

val submitted : t -> int

val active : t -> int
(** Arrived, incomplete jobs, parked ones included. *)

val starved : t -> int
(** Arrived, incomplete jobs currently parked because no live machine
    holds their bank. *)

val schedulable : t -> int
(** Arrived, incomplete jobs the policy may schedule: [active - starved].
    All three counts are computed from the arrived, incomplete jobs'
    records on each call, in O(active). *)

val instance : t -> Sched_core.Instance.t
(** The instance over every submitted job with healthy costs (job [j] is
    the [j]-th submission, weighing [1/fastest_cost]), built afresh in
    O(submitted) on each call: what {!schedule} validates against.  The
    event loop never builds it; policies decide over their window (see
    the module preamble). *)

val completed : t -> int
(** Completed jobs: {!submitted} less the incomplete ones, in
    O(incomplete). *)

val find : t -> string -> int option
(** Job index of a submitted request id, if any. *)

val job_completed : t -> int -> bool
(** Whether the job at this index has completed — how an admission
    front-end ({!Admission}) retires its in-flight accounting.
    @raise Invalid_argument if the index is out of range. *)

val set_decision_cache : t -> bool -> unit
(** Enable or disable the decision cache (disabled by default; see the
    module preamble).  Disabling also drops every cached entry.  A
    resumed engine must be armed identically to the crashed one
    ({!Snapshot.resume}'s [decision_cache]) for bit-identical replay of
    the cache counters. *)

val clock : t -> Clock.t
val platform : t -> Gripps.Workload.platform

val metrics : t -> Obs.Registry.t
(** Live registry: counters [requests_submitted], [requests_completed],
    [decisions], [segments], [slices], [arrivals_coalesced],
    [decision_cache_hits], [decision_cache_misses], [policy_rebuilds],
    [machine_failures], [machine_recoveries], [slices_lost]; gauges
    [queue_depth], [machines_up]; histograms [flow_seconds],
    [weighted_flow_seconds], [stretch] (one sample per completed
    request).  Solver counters [lp_solves], [lp_solves_warm],
    [lp_pivots_phase1], [lp_pivots_phase2], [lp_pivots_dual] attribute
    per-decision deltas of the global [Lp.Instrument] totals to this
    engine ([lp_solves_warm] and [lp_pivots_dual] stay 0: every solve is
    cold); the [lp_solve_seconds] histogram records one sample per
    LP-using decision (that decision's total solver seconds), not one
    per solve. *)

val schedule : t -> Sched_core.Schedule.t
(** The slices materialized so far, over the instance of every submitted
    job (healthy costs; under [`Lost] the slices wasted on failed machines
    have already been dropped).  Passes
    {!Sched_core.Schedule.validate_divisible} once all jobs have completed
    (e.g. after a {!drain} with no starved leftovers).
    @raise Invalid_argument if nothing was ever submitted. *)

val replay :
  ?batch_window:Rat.t ->
  ?lost_work:lost_work ->
  policy:(module Online.Sim.POLICY) ->
  Trace.t ->
  t
(** Submit the whole trace to a fresh virtual-clock engine, {!inject} its
    fault events, and {!drain} it. *)

(** {1 Durability}

    The engine is deterministic in its sequence of externally visible
    events, so crash consistency reduces to logging that sequence: when
    armed ({!set_durability}), every {!submit}, {!inject}, {!run_until} /
    {!catch_up} advance and {!drain} is appended to a write-ahead log
    {e before} it is applied.  Snapshots ({!checkpoint}) serialize the
    whole engine state ({!dump}) and let the covered log prefix be
    dropped.  {!Snapshot} owns the on-disk formats and the [--resume]
    orchestration; DESIGN.md §11 states the invariant. *)

val set_durability :
  t -> wal:Wal.writer -> checkpoint:(unit -> unit) -> every:int -> last_seq:int -> unit
(** Arm write-ahead logging: the engine's one durability handle.  Every
    event is appended to [wal] (made durable, numbered) before it is
    applied; [checkpoint] must persist {!dump}, after which the engine
    truncates [wal] (never during recovery replay — the un-reappended
    tail must survive).  [every] > 0 takes an automatic checkpoint after
    that many logged records ([0] = only on explicit {!checkpoint});
    [last_seq] seeds {!last_seq} (the highest seq already applied — [0]
    on a fresh log).  {!Snapshot.arm} and {!Snapshot.resume} are the
    callers.
    @raise Invalid_argument on a negative [every]. *)

val checkpoint : t -> bool
(** Take a snapshot now: quiesce the policy (a scheduling barrier — the
    opaque policy state is discarded and will be rebuilt from the
    serializable state, exactly as a live submission forces), invoke the
    armed checkpoint writer, and truncate the covered log.  Returns
    [false] when durability is not armed. *)

val last_seq : t -> int
(** Seq of the last WAL record logged or replayed; what a snapshot records
    as the prefix it covers. *)

val apply_record : t -> seq:int -> Wal.record -> unit
(** Recovery replay: apply one already-durable record.  Nothing is
    re-appended and nothing sleeps — time advances logically even on a
    wall clock (call {!rebase} when the tail is exhausted).  Automatic
    checkpoints still fire at the same record counts as in the original
    run, re-taking any snapshot whose write the crash lost.
    @raise Invalid_argument if durability is not armed. *)

val rebase : t -> unit
(** Re-anchor the engine epoch so the clock's {e current} date maps to the
    current engine time — the downtime between crash and resume is excised
    rather than replayed as idle time. *)

(** {2 Snapshot state}

    Everything {!restore} needs, as plain serializable values (the policy
    by name, jobs by their admission parameters, metrics as an
    {!Obs.Registry.dump}).  Meaningful as a bit-identity capture only at a
    barrier — {!checkpoint} quiesces before calling {!dump}. *)

type cached_decision = {
  cd_shares : (int * int * Rat.t) list;
      (** machine, position in announcement order, share *)
  cd_review_offset : Rat.t option;  (** [review_at] relative to the decision date *)
}
(** One remembered decision, in the census-relative normal form the
    decision cache stores (see the module preamble).  Snapshot state
    carries the cache because the live engine keeps it across a
    checkpoint: a resumed engine without it would miss where the
    uninterrupted one hits, splitting the [decision_cache_hits] /
    [decision_cache_misses] counters and with them bit-identity. *)

(** A job as a snapshot records it, which is also the engine's own
    record of the job: the engine stores each job's [job_state] next to
    what admission derives from it (cost column, weight), and every
    change (arrival, parking, a debit, a lost-work re-credit, completion)
    replaces the record, so {!dump} lists the stored records as they are
    and no per-job field can live outside the snapshot.  A completed
    job's state is final: no later event changes any of its fields, and
    jobs are never removed or reordered, so the dumps of one engine list
    a completed job the same way at the same position ever after
    ({!Snapshot} encodes the completed prefix once per durability handle
    on that contract). *)
type job_state = {
  js_id : string;
  js_arrival : Rat.t;
  js_bank : int;
  js_num_motifs : int;
  js_remaining : Rat.t;
  js_arrived : bool;
  js_parked : bool;
  js_completed_at : Rat.t option;
}

type state = {
  st_policy : string;
  st_batch_window : Rat.t;
  st_lost_work : lost_work;
  st_now : Rat.t;
  st_jobs : job_state list;  (** in submission (= policy index) order *)
  st_overlay : Gripps.Workload.machine_state array;
  st_faults : (Rat.t * Trace.fault) list;  (** pending, sorted by date *)
  st_slices : Sched_core.Schedule.slice list;  (** chronological *)
  st_last_stop : Rat.t array;
  st_num_completed : int;
  st_metrics : (string * Obs.Registry.dump_item) list;
  st_cache : (string * cached_decision) list;
      (** live decision-cache entries, sorted by fingerprint key *)
}

val dump : t -> state

val restore :
  clock:Clock.t ->
  policy:(module Online.Sim.POLICY) ->
  Gripps.Workload.platform ->
  state ->
  t
(** Rebuild an engine from a dumped state.  Jobs go through {!submit}'s
    admission path with their recorded flags and remaining fractions, and
    slices through the check every live slice passes; the overlay,
    pending faults, frontiers, decision cache and metrics are restored
    exactly, and the epoch is anchored so the clock's current date maps
    to [st_now].  The policy runner is rebuilt lazily on the first
    decision, mirroring the quiesce on the snapshot side.
    @raise Invalid_argument (an [Engine.restore:] message) on a state no
    run reaches: a policy or machine count other than the given ones; a
    negative batch window; a pending fault on a missing machine, out of
    date order or before [st_now]; a job {!submit} would reject; flags
    that disagree with the dates and the overlay (completed ⇒ arrived ⇒
    arrival ≤ [st_now]; not arrived ⇒ arrival ≥ [st_now]; parked ⇔
    arrived, incomplete and held by no live machine); live work outside
    (0, 1], or completed work not 0 by a date in [arrival, st_now]; a
    slice on a missing machine or job, or one a live run could not append
    (empty, overlapping, before its release, after [st_now], on a machine
    lacking the bank); work not conserved (a job's slices at its cost
    column plus its remaining fraction make exactly one job); a frontier
    before its machine's last slice or after [st_now]; a completed count
    that disagrees with the jobs; a decision-cache entry naming a missing
    machine or a census position past its key's jobs, with a share
    outside (0, 1] or a review offset not positive; a metric name that
    is neither one of the engine's instruments ({!metrics}) nor an
    [admission.*] instrument of a valve ({!Admission}) sharing the
    registry; or a metric of another kind than the instrument of its
    name. *)
