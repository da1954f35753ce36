module Rat = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module Sim = Online.Sim
module W = Gripps.Workload

module Metrics = Obs.Registry

module Iset = Set.Make (Int)

(* Not-yet-arrived jobs as (arrival date, index): the minimum is the next
   arrival, and ties fire together. *)
module Pending = Set.Make (struct
  type t = Rat.t * int

  let compare (a, i) (b, j) =
    let c = Rat.compare a b in
    if c <> 0 then c else Int.compare i j
end)

type objective = [ `Flow | `Stretch ]

type lost_work = [ `Lost | `Preserved ]

type job = {
  id : string;
  arrival : Rat.t;
  bank : int;  (* kept for durability snapshots; costs derive from it *)
  num_motifs : int;
  column : Rat.t option array;  (* cost per machine, healthy platform *)
  weight : Rat.t;
  fastest : Rat.t;  (* min finite cost, for stretch accounting *)
  mutable arrived : bool;  (* arrival date has passed *)
  mutable parked : bool;  (* arrived but starved: no live machine can run it *)
  mutable completed_at : Rat.t option;
}

(* A job as a snapshot records it, and the one input of admission: a
   live submission is a fresh job state (not arrived, nothing done). *)
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

(* The policy's abstract state, packed with its module and its window:
   the jobs it was built over, ascending, relative index [k] naming job
   [window.(k)]. *)
type runner = Runner : (module Sim.POLICY with type state = 's) * 's * int array -> runner

(* A cached decision in canonical form: shares name jobs by their
   *position* in announcement order (not by absolute index, which differs
   between recurrences of the same workload shape) and [review_at] is
   stored as an offset from the decision date (absolute dates never
   recur).  [decide] reconstitutes a [Sim.decision] against the current
   census on a hit. *)
type cached_decision = {
  cd_shares : (int * int * Rat.t) list;  (* machine, census position, share *)
  cd_review_offset : Rat.t option;
}

(* Durability (DESIGN.md §11).  When armed, every externally visible event
   is appended to [wal] before it is applied, and [save] writes a
   snapshot every [every] records. *)
type durability = {
  wal : Wal.writer;
  save : unit -> unit;
  every : int;  (* auto-checkpoint threshold; 0 = manual only *)
  mutable since : int;  (* records applied since the last checkpoint *)
  mutable last_seq : int;  (* seq of the last record applied *)
  mutable replaying : bool;  (* recovery replay: records are already durable *)
}

type t = {
  platform : W.platform;
  policy : (module Sim.POLICY);
  clock : Clock.t;
  mutable origin : float;  (* clock date of engine time 0; rebased on restore *)
  batch_window : Rat.t;
  objective : objective;
  lost_work : lost_work;
  (* Machine availability.  [overlay] is mutated in place; [faults] is the
     pending injection queue, sorted by date. *)
  overlay : W.overlay;
  mutable faults : (Rat.t * Trace.fault) list;
  (* Growable job store; index = policy job index. *)
  mutable jobs : job array;
  mutable n : int;
  ids : (string, int) Hashtbl.t;  (* request id -> job index *)
  mutable remaining : Rat.t array;  (* parallel to [jobs], fraction left *)
  (* Derived indexes over [jobs], rebuilt by [restore] and never
     serialized, so the event loop touches only the jobs still in play:
     [unfinished] holds every incomplete job (a runner's window), [live]
     the arrived ones among them (parked ones included), both in index
     order; [num_live]/[num_parked] count the live ones, and [pending]
     queues the jobs whose arrival date has not fired yet. *)
  mutable unfinished : Iset.t;
  mutable live : Iset.t;
  mutable num_live : int;
  mutable num_parked : int;
  mutable pending : Pending.t;
  mutable runner : runner option;
  mutable now : Rat.t;
  (* Current validated decision and its batching state. *)
  mutable decision : Sim.decision option;
  mutable decided_at : Rat.t;
  mutable dirty : bool;
  mutable batch_deadline : Rat.t option;
  (* Decision cache (DESIGN.md §13).  Keyed by an exact fingerprint of
     every serializable input a rebuilt policy's decision is a function
     of; consulted only at rebuild barriers ([runner = None]), where that
     functional dependence is the quiesce/restore invariant itself. *)
  mutable cache_enabled : bool;
  decision_cache : (string, cached_decision) Hashtbl.t;
  (* Output. *)
  mutable slices : S.slice list;  (* reverse order *)
  last_stop : Rat.t array;  (* per machine, incremental validation *)
  mutable num_completed : int;
  (* Metrics. *)
  metrics : Metrics.t;
  c_submitted : Metrics.counter;
  c_completed : Metrics.counter;
  c_decisions : Metrics.counter;
  c_segments : Metrics.counter;
  c_slices : Metrics.counter;
  c_coalesced : Metrics.counter;
  c_cache_hits : Metrics.counter;
  c_cache_misses : Metrics.counter;
  c_rebuilds : Metrics.counter;
  c_failures : Metrics.counter;
  c_recoveries : Metrics.counter;
  c_slices_lost : Metrics.counter;
  g_machines_up : Metrics.gauge;
  g_queue : Metrics.gauge;
  h_flow : Metrics.histogram;
  h_weighted : Metrics.histogram;
  h_stretch : Metrics.histogram;
  (* Solver instrumentation: per-decision deltas of the global LP
     instruments ([Lp.Instrument]) attributed to this engine (LP-free
     policies leave these at zero). *)
  c_lp_solves : Metrics.counter;
  c_lp_warm : Metrics.counter;
  c_lp_pivots1 : Metrics.counter;
  c_lp_pivots2 : Metrics.counter;
  c_lp_pivots_dual : Metrics.counter;
  h_lp_seconds : Metrics.histogram;
  (* Numeric-tower fast-path telemetry, same per-decision delta scheme
     (DESIGN.md §10). *)
  c_rat_small : Metrics.counter;
  c_rat_big : Metrics.counter;
  c_rat_promoted : Metrics.counter;
  c_rat_demoted : Metrics.counter;
  mutable durability : durability option;
}

let bug fmt = Printf.ksprintf (fun s -> failwith ("Serve.Engine: " ^ s)) fmt

(* A typed boundary error: [where] is the entry point refusing its input. *)
let reject where fmt = Printf.ksprintf (fun s -> invalid_arg (where ^ ": " ^ s)) fmt

let min_opt a b =
  match (a, b) with
  | None, c | c, None -> c
  | Some a, Some b -> Some (Rat.min a b)

let policy_name t =
  let (module P : Sim.POLICY) = t.policy in
  P.name

let create ?(batch_window = Rat.zero) ?(objective = `Stretch) ?(lost_work = `Lost) ~clock
    ~policy platform =
  if Rat.sign batch_window < 0 then invalid_arg "Engine.create: negative batch window";
  let m = Array.length platform.W.speeds in
  let metrics = Metrics.create () in
  let t =
    {
      platform;
      policy;
      clock;
      origin = Clock.now clock;
      batch_window;
      objective;
      lost_work;
      overlay = W.all_up platform;
      faults = [];
      jobs = [||];
      n = 0;
      ids = Hashtbl.create 64;
      remaining = [||];
      unfinished = Iset.empty;
      live = Iset.empty;
      num_live = 0;
      num_parked = 0;
      pending = Pending.empty;
      runner = None;
      now = Rat.zero;
    decision = None;
    decided_at = Rat.zero;
    dirty = true;
    batch_deadline = None;
    cache_enabled = false;
    decision_cache = Hashtbl.create 16;
    slices = [];
    last_stop = Array.make m Rat.zero;
    num_completed = 0;
    metrics;
    c_submitted = Metrics.counter metrics "requests_submitted";
    c_completed = Metrics.counter metrics "requests_completed";
    c_decisions = Metrics.counter metrics "decisions";
    c_segments = Metrics.counter metrics "segments";
    c_slices = Metrics.counter metrics "slices";
      c_coalesced = Metrics.counter metrics "arrivals_coalesced";
      c_cache_hits = Metrics.counter metrics "decision_cache_hits";
      c_cache_misses = Metrics.counter metrics "decision_cache_misses";
      c_rebuilds = Metrics.counter metrics "policy_rebuilds";
      c_failures = Metrics.counter metrics "machine_failures";
      c_recoveries = Metrics.counter metrics "machine_recoveries";
      c_slices_lost = Metrics.counter metrics "slices_lost";
      g_machines_up = Metrics.gauge metrics "machines_up";
      g_queue = Metrics.gauge metrics "queue_depth";
    h_flow = Metrics.histogram metrics "flow_seconds";
    h_weighted = Metrics.histogram metrics "weighted_flow_seconds";
    h_stretch = Metrics.histogram metrics "stretch";
    c_lp_solves = Metrics.counter metrics "lp_solves";
    c_lp_warm = Metrics.counter metrics "lp_solves_warm";
    c_lp_pivots1 = Metrics.counter metrics "lp_pivots_phase1";
    c_lp_pivots2 = Metrics.counter metrics "lp_pivots_phase2";
      c_lp_pivots_dual = Metrics.counter metrics "lp_pivots_dual";
      h_lp_seconds = Metrics.histogram metrics "lp_solve_seconds";
      c_rat_small = Metrics.counter metrics "rat.small_ops";
      c_rat_big = Metrics.counter metrics "rat.big_ops";
      c_rat_promoted = Metrics.counter metrics "rat.promotions";
      c_rat_demoted = Metrics.counter metrics "rat.demotions";
      durability = None;
    }
  in
  Metrics.set t.g_machines_up (float_of_int m);
  t

let submitted t = t.n
let completed t = t.num_completed

let active t = t.num_live
let starved t = t.num_parked

(* Arrived, incomplete and not starved: the jobs the policy may schedule. *)
let schedulable t = t.num_live - t.num_parked

let machine_up t i =
  if i < 0 || i >= Array.length t.overlay then
    invalid_arg (Printf.sprintf "Engine.machine_up: machine %d out of range" i);
  W.machine_live t.overlay.(i)

let machines_up t =
  Array.fold_left (fun k s -> if W.machine_live s then k + 1 else k) 0 t.overlay

let find t id = Hashtbl.find_opt t.ids id

let job_completed t j =
  if j < 0 || j >= t.n then
    invalid_arg (Printf.sprintf "Engine.job_completed: job %d out of range" j);
  t.jobs.(j).completed_at <> None

let set_decision_cache t enabled =
  t.cache_enabled <- enabled;
  if not enabled then Hashtbl.reset t.decision_cache

let now t = t.now
let metrics t = t.metrics
let clock t = t.clock
let platform t = t.platform

let clock_date t = W.quantize (Clock.now t.clock -. t.origin)

(* No live machine holds the job's bank: the masked column is all-[None],
   the paper's "every c_{i,j} = +∞" row. *)
let starved_column t column =
  let runnable = ref false in
  Array.iteri
    (fun i c -> if W.machine_live t.overlay.(i) && c <> None then runnable := true)
    column;
  not !runnable

(* A job's cost on a machine as decisions see it, read from the job's own
   column — making or executing a decision needs no instance over the
   history: down machines' costs are masked to [None] (the paper's +∞),
   so while the platform is healthy these are the healthy costs and
   failure-free runs are bit-identical to the fault-unaware engine.
   Starved jobs keep their healthy column — {!Sched_core.Instance.make}
   rejects all-[None] columns — but are parked out of the policy's sight,
   so nothing is ever scheduled against those phantom costs. *)
let cost t ~machine ~job =
  let column = t.jobs.(job).column in
  if W.machine_live t.overlay.(machine) || starved_column t column then column.(machine)
  else None

(* The instance over [jobs] (ascending indices), job [k] being
   [jobs.(k)], with costs from [cost]. *)
let instance_of t jobs cost =
  I.make
    ~releases:(Array.map (fun j -> t.jobs.(j).arrival) jobs)
    ~weights:(Array.map (fun j -> t.jobs.(j).weight) jobs)
    (Array.init (Array.length t.overlay) (fun machine ->
         Array.map (fun job -> cost ~machine ~job) jobs))

let instance t =
  instance_of t (Array.init t.n Fun.id) (fun ~machine ~job -> t.jobs.(job).column.(machine))

(* The instance a runner decides against: its window under the overlay. *)
let window_instance t window = instance_of t window (cost t)

(* Relative index of job [j] in a runner's window.  A runner is built over
   every incomplete job and dropped by every live submission, so each job
   it hears about is in its window. *)
let rel window j =
  let rec go lo hi =
    if lo >= hi then bug "job %d is outside the policy's window" j
    else
      let mid = (lo + hi) / 2 in
      let c = Int.compare window.(mid) j in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length window)

(* --- derived job indexes ---------------------------------------------- *)

let make_live t j =
  t.live <- Iset.add j t.live;
  t.num_live <- t.num_live + 1;
  if t.jobs.(j).parked then t.num_parked <- t.num_parked + 1

let set_parked t j parked =
  let job = t.jobs.(j) in
  if job.parked <> parked then begin
    job.parked <- parked;
    t.num_parked <- (t.num_parked + if parked then 1 else -1)
  end

(* Store a job (new, or restored with its flags) and file it in the index
   its flags place it in. *)
let push t job remaining =
  if t.n = Array.length t.jobs then begin
    let cap = Stdlib.max 8 (2 * t.n) in
    let jobs = Array.make cap job in
    Array.blit t.jobs 0 jobs 0 t.n;
    t.jobs <- jobs;
    let rem = Array.make cap Rat.one in
    Array.blit t.remaining 0 rem 0 t.n;
    t.remaining <- rem
  end;
  let j = t.n in
  t.jobs.(j) <- job;
  t.remaining.(j) <- remaining;
  t.n <- j + 1;
  if job.completed_at = None then t.unfinished <- Iset.add j t.unfinished;
  if not job.arrived then t.pending <- Pending.add (job.arrival, j) t.pending
  else if job.completed_at = None then make_live t j
  else t.num_completed <- t.num_completed + 1;
  j

(* --- durability ------------------------------------------------------ *)

(* Discard the opaque policy state, counting the rebuild it forces. *)
let drop_runner t =
  if t.runner <> None then begin
    t.runner <- None;
    Metrics.incr t.c_rebuilds
  end

(* No current plan: the next step re-decides. *)
let reset_decision t =
  t.decision <- None;
  t.dirty <- true;
  t.batch_deadline <- None

(* Scheduling barrier: discard the opaque policy runner and the cached
   decision, exactly as a live submission does.  A snapshot taken right
   after [quiesce] therefore captures the *complete* engine state — the
   one piece that cannot be serialized (the policy's abstract state) has
   been reset to a function of the serializable rest — which is what makes
   a resumed engine bit-identical to the uninterrupted one: both rebuild
   the policy from the same jobs at the same point. *)
let quiesce t =
  drop_runner t;
  reset_decision t

let checkpoint t =
  match t.durability with
  | None -> false
  | Some d ->
    (* Barrier first: the snapshot must capture the post-barrier state the
       surviving run continues from. *)
    quiesce t;
    d.save ();
    (* The snapshot covers every record in the log; drop them.  Skipped
       during recovery replay — the tail still in the log after this point
       has not been re-appended, so wiping it would lose it.  (Stale
       records a crash leaves behind are skipped by seq on resume.) *)
    if not d.replaying then Wal.truncate d.wal;
    d.since <- 0;
    true

let set_durability t ~wal ~checkpoint:save ~every ~last_seq =
  if every < 0 then invalid_arg "Engine.set_durability: negative snapshot interval";
  t.durability <- Some { wal; save; every; since = 0; last_seq; replaying = false }

let last_seq t = match t.durability with Some d -> d.last_seq | None -> 0

let replaying t = match t.durability with Some d -> d.replaying | None -> false

let log_record t record =
  match t.durability with
  | Some d when not d.replaying -> d.last_seq <- Wal.append d.wal record
  | Some _ | None -> ()

(* One durable record was applied (live or replayed): advance the
   checkpoint cadence.  Counting replayed records too keeps the snapshot
   points of a resumed run aligned with the uninterrupted one — including
   re-taking a snapshot whose write was lost to the crash. *)
let bump t =
  match t.durability with
  | None -> ()
  | Some d ->
    d.since <- d.since + 1;
    if d.every > 0 && d.since >= d.every then ignore (checkpoint t)

(* --- admission -------------------------------------------------------- *)

(* The one admission path, for a live submission and for every job a
   snapshot restores: validate the job against the engine's time and
   overlay, make it durable, then file it.  The checks are invariants
   every run keeps, so a fresh submission whose arrival is not in the past
   passes them by construction, and a restored job passes them only if a
   run could have reached it.  A restored engine is not armed yet, so
   [log_record] writes nothing there. *)
let admit t ~where js =
  let fail fmt = reject where fmt in
  let { js_id = id; js_arrival = arrival; js_bank = bank; js_num_motifs = num_motifs; _ } = js in
  let remaining = js.js_remaining and date = Rat.to_string in
  let before a b = Rat.compare a b < 0 in
  if not (Wal.encodable_id id) then fail "request id %S is empty or contains whitespace" id;
  if Hashtbl.mem t.ids id then fail "duplicate request id %S" id;
  if bank < 0 || bank >= Array.length t.platform.W.bank_sizes then
    fail "request %S: bank %d out of range" id bank;
  if not (Array.exists (fun holds -> holds.(bank)) t.platform.W.has_bank) then
    fail "request %S: bank %d is held by no machine" id bank;
  if num_motifs <= 0 then fail "request %S: motif count %d is not positive" id num_motifs;
  if Rat.sign arrival < 0 then fail "request %S arrives at negative date %s" id (date arrival);
  if js.js_arrived && before t.now arrival then
    fail "request %S is marked arrived but arrives at %s, after engine time %s" id
      (date arrival) (date t.now);
  if (not js.js_arrived) && before arrival t.now then
    fail "request %S: arrival %s precedes engine time %s" id (date arrival) (date t.now);
  (match js.js_completed_at with
   | None ->
     if Rat.sign remaining <= 0 || before Rat.one remaining then
       fail "live request %S has remaining %s outside (0, 1]" id (date remaining)
   | Some c ->
     if not js.js_arrived then fail "request %S completed but never arrived" id;
     if not (Rat.is_zero remaining) then
       fail "completed request %S has remaining %s, not 0" id (date remaining);
     if before c arrival || before t.now c then
       fail "request %S completed at %s, outside [arrival, now %s]" id (date c) (date t.now));
  let column = W.cost_column t.platform { W.arrival; bank; num_motifs } in
  (* Parked exactly when arrived, incomplete and held by no live machine:
     every fault and arrival keeps the flag in step with the overlay. *)
  if js.js_parked <> (js.js_arrived && js.js_completed_at = None && starved_column t column)
  then fail "request %S: parked flag %b disagrees with the overlay" id js.js_parked;
  log_record t (Wal.Submit { id; arrival; bank; num_motifs });
  let fastest = Array.fold_left min_opt None column |> Option.get in
  let job =
    {
      id;
      arrival;
      bank;
      num_motifs;
      column;
      weight = (match t.objective with `Flow -> Rat.one | `Stretch -> Rat.inv fastest);
      fastest;
      arrived = js.js_arrived;
      parked = js.js_parked;
      completed_at = js.js_completed_at;
    }
  in
  let j = push t job remaining in
  Hashtbl.add t.ids id j;
  j

let submit t ~id ?arrival ~bank ~num_motifs () =
  let arrival = match arrival with Some a -> a | None -> clock_date t in
  let j =
    admit t ~where:"Engine.submit"
      {
        js_id = id;
        js_arrival = arrival;
        js_bank = bank;
        js_num_motifs = num_motifs;
        js_remaining = Rat.one;
        js_arrived = false;
        js_parked = false;
        js_completed_at = None;
      }
  in
  (* The newcomer is outside the runner's window, so the policy state is
     stale.  A live rebuild mid-run is counted; replay submits everything
     up front.  The current *decision* stays: it is validated shares over
     jobs that all still exist (absolute indices are stable under growth),
     and executing it needs no policy state.  The newcomer forces a
     re-decision only when its arrival date fires — which is where the
     batch window coalesces a burst into one consultation instead of one
     per submit. *)
  drop_runner t;
  Metrics.incr t.c_submitted;
  bump t;
  j

(* --- policy plumbing ------------------------------------------------ *)

(* Parked (starved) jobs are withheld from the policy entirely: not in the
   views, not eligible, never announced.  They re-enter when a recovery
   makes them runnable again.  Ids are relative to the runner's window. *)
let views t window =
  Seq.fold_left
    (fun acc j ->
      let job = t.jobs.(j) in
      if job.parked then acc
      else
        let id = rel window j in
        { Sim.id; release = job.arrival; weight = job.weight; remaining = t.remaining.(j) } :: acc)
    [] (Iset.to_rev_seq t.live)

let by_arrival t a b =
  let c = Rat.compare t.jobs.(a).arrival t.jobs.(b).arrival in
  if c <> 0 then c else compare a b

(* Schedulable jobs in announcement order (arrival date, then index) — the
   exact sequence a rebuilt policy state is re-announced, and therefore the
   canonical job enumeration the decision cache keys on. *)
let announced t =
  Iset.elements t.live
  |> List.filter (fun j -> not t.jobs.(j).parked)
  |> List.sort (by_arrival t)

let runner t =
  match t.runner with
  | Some r -> r
  | None ->
    let (module P : Sim.POLICY) = t.policy in
    (* Over the incomplete jobs only: a rebuild costs O(window), not
       O(history). *)
    let window = Array.of_list (Iset.elements t.unfinished) in
    let state = P.init (window_instance t window) in
    (* Re-announce the surviving schedulable jobs, in arrival order. *)
    List.iter (fun j -> P.on_arrival state ~now:t.now ~job:(rel window j)) (announced t);
    let r = Runner ((module P), state, window) in
    t.runner <- Some r;
    t.dirty <- true;
    r

let eligible_for t j = Iset.mem j t.live && not t.jobs.(j).parked

(* Canonical fingerprint of the masked decision instance: availability
   overlay plus the *shape* of every schedulable job — arrival age, bank,
   motif count, remaining fraction — in announcement order, rendered as
   exact strings, never lossy hashes.  At a rebuild barrier
   ([t.runner = None]) the policy state about to decide is [init] +
   re-announcements of exactly these jobs, so under the policy contract
   (honest, index-relative, time-translation equivariant — see
   DESIGN.md §13) equal fingerprints yield the same decision up to job
   renumbering and a [review_at] time shift, which is precisely the
   normalization [cached_decision] stores.  The cache is never consulted
   while a long-lived policy state (with history a fingerprint cannot
   see) is driving. *)
let fingerprint t =
  let b = Buffer.create 256 in
  Buffer.add_string b (policy_name t);
  Buffer.add_char b '|';
  Buffer.add_string b (match t.objective with `Flow -> "flow" | `Stretch -> "stretch");
  Buffer.add_char b '|';
  Array.iter (fun s -> Buffer.add_char b (match s with W.Up -> 'u' | W.Down -> 'd')) t.overlay;
  List.iter
    (fun j ->
      let job = t.jobs.(j) in
      Buffer.add_char b '|';
      Buffer.add_string b (Rat.to_string (Rat.sub t.now job.arrival));
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int job.bank);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int job.num_motifs);
      Buffer.add_char b ':';
      Buffer.add_string b (Rat.to_string t.remaining.(j)))
    (announced t);
  Buffer.contents b

(* Validate a decision, fresh or recalled from the cache — a bad one must
   fail loudly, not corrupt the schedule — and make it the current plan. *)
let install t d =
  Sim.check_decision ~where:"Serve.Engine" ~name:(policy_name t)
    ~machines:(Array.length t.overlay) ~cost:(cost t)
    ~up:(fun i -> W.machine_live t.overlay.(i))
    ~eligible:(eligible_for t) ~now:t.now d;
  t.decision <- Some d;
  t.decided_at <- t.now;
  t.dirty <- false;
  t.batch_deadline <- None

(* A runner's decision with its shares renamed to absolute job indices.  A
   share past the window names no job at all. *)
let absolute t window (d : Sim.decision) =
  let job k =
    if k < 0 || k >= Array.length window then
      invalid_arg
        (Printf.sprintf "Serve.Engine(%s): share on inactive job %d" (policy_name t) k);
    window.(k)
  in
  { d with Sim.shares = List.map (fun (s : Sim.share) -> { s with job = job s.job }) d.shares }

let decide_fresh t =
  let (Runner ((module P), state, window)) = runner t in
  (* Every LP solve triggered by the policy — exact or float — is
     accounted to this engine by differencing the global solver
     instruments around the call, without the policy knowing about
     metrics.  [lp_solve_seconds] gets one sample per LP-using decision
     (the decision's total solver time), not one per solve. *)
  let before = Lp.Instrument.combined () in
  let module NC = Numeric.Counters in
  let rat_small0 = NC.small_ops () and rat_big0 = NC.big_ops () in
  let rat_promoted0 = NC.promotions () and rat_demoted0 = NC.demotions () in
  let d =
    Obs.Span.with_span "engine.decide" (fun () ->
        Obs.Span.set_str "policy" P.name;
        Obs.Span.set_int "active" (active t);
        P.decide state ~now:t.now ~active:(views t window))
  in
  let delta = Lp.Instrument.(diff ~before (combined ())) in
  Metrics.add t.c_lp_solves delta.Lp.Instrument.solves;
  Metrics.add t.c_lp_warm delta.Lp.Instrument.warm_solves;
  Metrics.add t.c_lp_pivots1 delta.Lp.Instrument.pivots_phase1;
  Metrics.add t.c_lp_pivots2 delta.Lp.Instrument.pivots_phase2;
  Metrics.add t.c_lp_pivots_dual delta.Lp.Instrument.pivots_dual;
  if delta.Lp.Instrument.solves > 0 then
    Metrics.observe t.h_lp_seconds delta.Lp.Instrument.seconds;
  Metrics.add t.c_rat_small (NC.small_ops () - rat_small0);
  Metrics.add t.c_rat_big (NC.big_ops () - rat_big0);
  Metrics.add t.c_rat_promoted (NC.promotions () - rat_promoted0);
  Metrics.add t.c_rat_demoted (NC.demotions () - rat_demoted0);
  let d = absolute t window d in
  install t d;
  Metrics.incr t.c_decisions;
  d

let decide t =
  if not (t.cache_enabled && t.runner = None) then decide_fresh t
  else begin
    let order = Array.of_list (announced t) in
    let key = fingerprint t in
    match Hashtbl.find_opt t.decision_cache key with
    | Some cd ->
      (* Hit: reconstitute against the current census without consulting
         the policy — or even building its state. *)
      let shares =
        List.map
          (fun (machine, pos, share) -> { Sim.machine; job = order.(pos); share })
          cd.cd_shares
      in
      let d =
        { Sim.shares; review_at = Option.map (Rat.add t.now) cd.cd_review_offset }
      in
      Metrics.incr t.c_cache_hits;
      install t d;
      d
    | None ->
      Metrics.incr t.c_cache_misses;
      let d = decide_fresh t in
      (* Canonicalize and insert.  Every share names an eligible job
         (validated above), so the position lookup is total. *)
      let pos = Hashtbl.create (Array.length order) in
      Array.iteri (fun p j -> Hashtbl.replace pos j p) order;
      let cd =
        {
          cd_shares =
            List.map
              (fun (s : Sim.share) -> (s.machine, Hashtbl.find pos s.job, s.share))
              d.Sim.shares;
          cd_review_offset =
            Option.map (fun r -> Rat.sub r t.now) d.Sim.review_at;
        }
      in
      (* Entries under a retired overlay are purged eagerly
         ([platform_changed]); this bound only guards pathological
         same-overlay churn. *)
      if Hashtbl.length t.decision_cache >= 128 then Hashtbl.reset t.decision_cache;
      Hashtbl.replace t.decision_cache key cd;
      d
  end

let fire_due_arrivals t =
  let rec pop due =
    match Pending.min_elt_opt t.pending with
    | Some ((a, j) as e) when Rat.compare a t.now <= 0 ->
      t.pending <- Pending.remove e t.pending;
      pop (j :: due)
    | _ -> due
  in
  match List.sort Int.compare (pop []) with
  | [] -> ()
  | due ->
    let parked, runnable =
      List.partition (fun j -> starved_column t t.jobs.(j).column) due
    in
    let arrive j =
      t.jobs.(j).arrived <- true;
      make_live t j
    in
    (* Nothing live can run a starved job: park it instead of announcing
       it — Mct's arrival handler, for one, asserts some machine can take
       the job. *)
    List.iter
      (fun j ->
        t.jobs.(j).parked <- true;
        arrive j)
      parked;
    (match runnable with
     | [] -> ()
     | runnable ->
       (* Build the runner before flipping [arrived], or a fresh rebuild
          would announce the batch a second time. *)
       let (Runner ((module P), state, window)) = runner t in
       List.iter arrive runnable;
       (* The whole instant's arrivals are one batch: policies hear about
          the burst in a single callback and can rebalance once. *)
       P.on_batch_arrival state ~now:t.now ~jobs:(List.map (rel window) runnable);
       (* Batching: within one window of the last decision the current
          plan keeps running and the newcomers wait for the coalesced
          re-decision. *)
       if t.dirty || t.decision = None || Rat.is_zero t.batch_window then
         t.dirty <- true
       else begin
         let deadline = Rat.add t.decided_at t.batch_window in
         if Rat.compare deadline t.now <= 0 then t.dirty <- true
         else begin
           (match t.batch_deadline with
            | None -> t.batch_deadline <- Some deadline
            | Some _ -> ());
           Metrics.add t.c_coalesced (List.length runnable)
         end
       end);
    Metrics.set t.g_queue (float_of_int (active t))

let complete t j =
  let job = t.jobs.(j) in
  job.completed_at <- Some t.now;
  t.unfinished <- Iset.remove j t.unfinished;
  t.live <- Iset.remove j t.live;
  t.num_live <- t.num_live - 1;
  if job.parked then t.num_parked <- t.num_parked - 1;
  t.num_completed <- t.num_completed + 1;
  t.dirty <- true;
  (* The finishing decision may have outlived its policy state: a live
     submission (or a decision-cache hit) leaves the validated shares
     running with [runner = None].  There is nothing to retract then —
     the eventual rebuild announces only surviving jobs — so the
     completion callback fires only on a runner that announced [j]. *)
  (match t.runner with
   | Some (Runner ((module P), state, window)) ->
     P.on_completion state ~now:t.now ~job:(rel window j)
   | None -> ());
  let flow = Rat.sub t.now job.arrival in
  Metrics.incr t.c_completed;
  Metrics.observe t.h_flow (Rat.to_float flow);
  Metrics.observe t.h_weighted (Rat.to_float (Rat.mul job.weight flow));
  Metrics.observe t.h_stretch (Rat.to_float (Rat.div flow job.fastest));
  Metrics.set t.g_queue (float_of_int (active t))

(* --- machine failures ----------------------------------------------- *)

(* In-flight work on a machine that just died is lost: re-credit every
   incomplete job with the fraction it had processed there and drop those
   slices from the output.  Slices of *completed* jobs stay — their
   responses already left the building.  The decision's segments were
   clipped at the failure instant, so every dropped slice lies entirely in
   the machine's up period and its fraction is exact. *)
let drop_lost_slices t i =
  let lost = ref 0 in
  let keep (s : S.slice) =
    let job = t.jobs.(s.job) in
    if s.machine = i && job.completed_at = None then begin
      incr lost;
      let c = Option.get job.column.(i) in
      t.remaining.(s.job) <-
        Rat.add t.remaining.(s.job) (Rat.div (Rat.sub s.stop s.start) c);
      false
    end
    else true
  in
  t.slices <- List.filter keep t.slices;
  Metrics.add t.c_slices_lost !lost

(* The overlay changed under us: recompute which jobs are starved, tell
   the policy, and force the next step to re-decide against the reduced
   (or re-grown) platform. *)
let platform_changed t =
  (* Eager invalidation.  The overlay is part of every cache key, so stale
     entries could never *hit* — but a fail/recover cycle returning to a
     previous overlay must re-consult the policy, not resurrect plans made
     before the disruption, and the table should not hoard entries for
     overlays that may never recur. *)
  Hashtbl.reset t.decision_cache;
  let unparked =
    Iset.fold
      (fun j acc ->
        let was = t.jobs.(j).parked in
        let now_starved = starved_column t t.jobs.(j).column in
        set_parked t j now_starved;
        if was && not now_starved then j :: acc else acc)
      t.live []
    |> List.sort (by_arrival t)
  in
  (match t.runner with
   | None -> ()  (* the next [runner] builds against the new platform *)
   | Some (Runner ((module P), state, window)) -> (
     (* The same window re-masked, so relative indices stay valid. *)
     match P.on_platform_change state ~now:t.now ~inst:(window_instance t window) with
     | `Adapted ->
       (* The policy kept its state; jobs that were parked the whole time
          were never announced, so introduce the rescued ones now. *)
       List.iter (fun j -> P.on_arrival state ~now:t.now ~job:(rel window j)) unparked
     | `Rebuild -> drop_runner t));
  reset_decision t;
  Metrics.set t.g_queue (float_of_int (active t))

(* Apply a fault at the current engine time.  Idempotent: failing a dead
   machine or recovering a live one is a no-op. *)
let apply_fault t fault =
  let (Trace.Fail i | Trace.Recover i) = fault in
  let up = match fault with Trace.Fail _ -> false | Trace.Recover _ -> true in
  if W.machine_live t.overlay.(i) <> up then begin
    t.overlay.(i) <- (if up then W.Up else W.Down);
    if up then Metrics.incr t.c_recoveries
    else begin
      Metrics.incr t.c_failures;
      match t.lost_work with `Lost -> drop_lost_slices t i | `Preserved -> ()
    end;
    if Obs.Sink.enabled () then
      Obs.Event.emit "engine.fault"
        ~attrs:
          [
            ("kind", Obs.Sink.Str (if up then "recover" else "fail"));
            ("machine", Obs.Sink.Int i);
            ("at", Obs.Sink.Str (Rat.to_string t.now));
          ];
    Metrics.set t.g_machines_up (float_of_int (machines_up t));
    platform_changed t
  end

let inject t ~at fault =
  let (Trace.Fail i | Trace.Recover i) = fault in
  if i < 0 || i >= Array.length t.overlay then reject "Engine.inject" "machine %d out of range" i;
  log_record t (Wal.Inject { at; fault });
  (if Rat.compare at t.now <= 0 then
     (* The date is already past (e.g. a live [fail] command racing the
        clock): apply it right now rather than rewriting history. *)
     apply_fault t fault
   else begin
     let rec insert = function
       | ((a, _) as hd) :: tl when Rat.compare a at <= 0 -> hd :: insert tl
       | rest -> (at, fault) :: rest
     in
     t.faults <- insert t.faults
   end);
  bump t

let fire_due_faults t =
  let rec go () =
    match t.faults with
    | (at, fault) :: rest when Rat.compare at t.now <= 0 ->
      t.faults <- rest;
      apply_fault t fault;
      go ()
    | _ -> ()
  in
  go ()

let next_fault t = match t.faults with [] -> None | (at, _) :: _ -> Some at

let next_arrival_after t date =
  Pending.find_first_opt (fun (a, _) -> Rat.compare a date > 0) t.pending
  |> Option.map fst

let advance_time t date =
  (* During recovery replay the events being applied happened in the past:
     engine time advances logically without waiting on the wall clock
     (Snapshot.resume rebases the clock once replay is done). *)
  if not (replaying t) then Clock.advance_to t.clock (t.origin +. Rat.to_float date);
  t.now <- date

(* The checks every slice passes, live or restored: nonempty, after
   [frontier] (its machine's last stop, which it then advances), no earlier
   than its job's release and no later than now.  The live path runs them
   on each materialized slice, where a violation is an engine bug; restore
   runs them over the dumped slices, where it is a state no run reaches. *)
let check_slice t ~fail frontier (s : S.slice) =
  if Rat.compare s.start s.stop >= 0 then
    fail (Printf.sprintf "empty slice of job %d on machine %d" s.job s.machine)
  else if Rat.compare s.start frontier.(s.machine) < 0 then
    fail (Printf.sprintf "slice overlaps on machine %d" s.machine)
  else if Rat.compare s.start t.jobs.(s.job).arrival < 0 then
    fail (Printf.sprintf "slice starts before release of job %d" s.job)
  else if Rat.compare s.stop t.now > 0 then
    fail (Printf.sprintf "slice of job %d ends after now" s.job);
  frontier.(s.machine) <- s.stop

let append_slices t segment_slices =
  let fail = bug "%s" in
  List.iter
    (fun s ->
      check_slice t ~fail t.last_stop s;
      t.slices <- s :: t.slices;
      Metrics.incr t.c_slices)
    segment_slices

(* One pass of the event loop: process everything up to [limit] (None =
   until all jobs complete).  Mirrors Sim.run's loop, with the clock in
   charge of real time and batching folded into the event set. *)
let step t ~limit =
  let guard = ref (100_000 + (1000 * t.n) + (10 * List.length t.faults)) in
  let within date = match limit with None -> true | Some l -> Rat.compare date l <= 0 in
  let continue = ref true in
  while !continue do
    decr guard;
    if !guard < 0 then
      invalid_arg
        (Printf.sprintf "Serve.Engine(%s): no progress (possible livelock)" (policy_name t));
    (* Faults strictly before arrivals at the same instant: a request
       arriving as its last capable machine dies must be parked, and one
       arriving at the recovery must be announced. *)
    fire_due_faults t;
    fire_due_arrivals t;
    if schedulable t = 0 then begin
      (* Idle: empty, or only starved jobs waiting for a recovery.  Sleep
         until something changes — an arrival or an injected fault — and
         stop (even mid-drain) when nothing ever will: a permanently
         starved job surfaces as incomplete, it does not livelock. *)
      match min_opt (next_arrival_after t t.now) (next_fault t) with
      | Some a when within a -> advance_time t a
      | Some _ | None ->
        (match limit with
         | Some l when Rat.compare l t.now > 0 -> advance_time t l
         | _ -> ());
        continue := false
    end
    else begin
      let d =
        match t.decision with
        | Some d when not t.dirty -> d
        | _ -> decide t
      in
      let cost = cost t in
      let completion_candidate =
        Sim.next_completion ~cost d ~now:t.now ~remaining:(fun j -> t.remaining.(j))
      in
      let arrival_candidate = next_arrival_after t t.now in
      let event =
        List.fold_left min_opt None
          [ completion_candidate; arrival_candidate; next_fault t; d.Sim.review_at; t.batch_deadline ]
      in
      match event with
      | None ->
        invalid_arg
          (Printf.sprintf
             "Serve.Engine(%s): active jobs but no progress and no future event"
             (policy_name t))
      | Some event ->
        if Rat.compare event t.now <= 0 then
          invalid_arg
            (Printf.sprintf "Serve.Engine(%s): time did not advance" (policy_name t));
        let te, clipped =
          match limit with
          | Some l when Rat.compare l event < 0 -> (l, true)
          | _ -> (event, false)
        in
        if Rat.compare te t.now > 0 then begin
          let segment =
            Sim.materialize ~machines:(Array.length t.overlay) ~cost ~now:t.now ~horizon:te d
              ~remaining:t.remaining
          in
          advance_time t te;
          append_slices t segment;
          Metrics.incr t.c_segments;
          (* A partial segment consumed part of the plan's shares in time
             but the share *rates* are unchanged, so the decision stays
             valid for the rest of its window. *)
          let finished =
            Iset.fold
              (fun j acc ->
                if Rat.sign t.remaining.(j) < 0 then bug "job %d over-processed" j;
                if Rat.is_zero t.remaining.(j) then j :: acc else acc)
              t.live []
          in
          (* Ascending index order, as policies and histograms expect. *)
          List.iter (complete t) (List.rev finished)
        end;
        if not clipped then begin
          (match d.Sim.review_at with
           | Some r when Rat.compare r t.now <= 0 -> t.dirty <- true
           | _ -> ());
          match t.batch_deadline with
          | Some b when Rat.compare b t.now <= 0 ->
            t.dirty <- true;
            t.batch_deadline <- None
          | _ -> ()
        end
        else continue := false
    end
  done

let run_until t date =
  if Rat.compare date t.now > 0 then begin
    (* The resolved target date goes in the record, so replay never
       re-reads a clock: [Advance] covers virtual ticks and wall catch-ups
       alike. *)
    log_record t (Wal.Advance date);
    step t ~limit:(Some date);
    bump t
  end

let catch_up t =
  if not (Clock.is_virtual t.clock) then begin
    let d = Clock.now t.clock -. t.origin in
    (* A deranged wall clock (NaN or infinite) must never become an engine
       date — the same guard the server applies to [tick] seconds. *)
    if Float.is_finite d && d > 0. then run_until t (W.quantize d)
  end

let drain t =
  if t.num_completed < t.n then begin
    log_record t Wal.Drain;
    step t ~limit:None;
    bump t
  end

let schedule t =
  if t.n = 0 then invalid_arg "Engine.schedule: nothing submitted";
  S.make (instance t) (List.rev t.slices)

(* --- recovery --------------------------------------------------------- *)

let apply_record t ~seq record =
  match t.durability with
  | None -> invalid_arg "Engine.apply_record: durability is not armed"
  | Some d ->
    d.replaying <- true;
    Fun.protect
      ~finally:(fun () -> d.replaying <- false)
      (fun () ->
        d.last_seq <- seq;
        match record with
        | Wal.Submit { id; arrival; bank; num_motifs } ->
          ignore (submit t ~id ~arrival ~bank ~num_motifs ())
        | Wal.Inject { at; fault } -> inject t ~at fault
        | Wal.Advance date -> run_until t date
        | Wal.Drain -> drain t)

let rebase t = t.origin <- Clock.now t.clock -. Rat.to_float t.now

(* --- snapshot state --------------------------------------------------- *)

type state = {
  st_policy : string;
  st_batch_window : Rat.t;
  st_objective : objective;
  st_lost_work : lost_work;
  st_now : Rat.t;
  st_jobs : job_state list;  (* in submission (= policy index) order *)
  st_overlay : W.machine_state array;
  st_faults : (Rat.t * Trace.fault) list;  (* pending, sorted by date *)
  st_slices : S.slice list;  (* chronological *)
  st_last_stop : Rat.t array;
  st_num_completed : int;
  st_metrics : (string * Metrics.dump_item) list;
  st_cache : (string * cached_decision) list;  (* sorted by fingerprint *)
}

let dump t =
  {
    st_policy = policy_name t;
    st_batch_window = t.batch_window;
    st_objective = t.objective;
    st_lost_work = t.lost_work;
    st_now = t.now;
    st_jobs =
      List.init t.n (fun j ->
          let job = t.jobs.(j) in
          {
            js_id = job.id;
            js_arrival = job.arrival;
            js_bank = job.bank;
            js_num_motifs = job.num_motifs;
            js_remaining = t.remaining.(j);
            js_arrived = job.arrived;
            js_parked = job.parked;
            js_completed_at = job.completed_at;
          });
    st_overlay = Array.copy t.overlay;
    st_faults = t.faults;
    st_slices = List.rev t.slices;
    st_last_stop = Array.copy t.last_stop;
    st_num_completed = t.num_completed;
    st_metrics = Metrics.dump t.metrics;
    (* The cache survives a checkpoint in the live engine (quiescing drops
       the policy runner, not remembered plans), so a resumed engine must
       get it back or its hit/miss counters — and therefore its state
       dump — diverge from an uninterrupted run.  Sorted so equal caches
       dump identically regardless of hash-table iteration order. *)
    st_cache =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.decision_cache []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let restore ~clock ~policy platform st =
  let fail fmt = reject "Engine.restore" fmt in
  let (module P : Sim.POLICY) = policy in
  if P.name <> st.st_policy then
    fail "snapshot was taken under policy %s, not %s" st.st_policy P.name;
  let m = Array.length platform.W.speeds in
  if Array.length st.st_overlay <> m then fail "overlay size does not match the platform";
  if Array.length st.st_last_stop <> m then fail "machine count does not match the platform";
  if Rat.sign st.st_batch_window < 0 then
    fail "negative batch window %s" (Rat.to_string st.st_batch_window);
  ignore
    (List.fold_left
       (fun prev (at, (Trace.Fail i | Trace.Recover i)) ->
         if i < 0 || i >= m then fail "pending fault names machine %d of %d" i m;
         if Rat.compare at prev < 0 then
           fail "pending fault at %s is out of date order or before now" (Rat.to_string at);
         at)
       st.st_now st.st_faults);
  let t =
    create ~batch_window:st.st_batch_window ~objective:st.st_objective
      ~lost_work:st.st_lost_work ~clock ~policy platform
  in
  t.now <- st.st_now;
  rebase t;
  (* The overlay first: admission checks each job's [parked] flag against
     it.  Jobs then go through the live admission path, which rebuilds
     the derived indexes and the completed count from their flags. *)
  Array.blit st.st_overlay 0 t.overlay 0 m;
  List.iter (fun js -> ignore (admit t ~where:"Engine.restore" js)) st.st_jobs;
  if t.num_completed <> st.st_num_completed then
    fail "%d completed requests recorded, %d found" st.st_num_completed t.num_completed;
  (* Slices through the live slice check, from an empty frontier; then
     work conservation: each job's slices, at its cost column, plus its
     remaining fraction make exactly one job.  Under [`Lost] a failure
     drops an incomplete job's slices and re-credits their work, so this
     holds under both policies for lost work. *)
  let frontier = Array.make m Rat.zero in
  let work = Array.make t.n Rat.zero in
  let slice_fail msg = fail "%s" msg in
  List.iter
    (fun (s : S.slice) ->
      if s.machine < 0 || s.machine >= m then fail "slice names machine %d of %d" s.machine m;
      if s.job < 0 || s.job >= t.n then fail "slice names job %d of %d" s.job t.n;
      check_slice t ~fail:slice_fail frontier s;
      match t.jobs.(s.job).column.(s.machine) with
      | None -> fail "slice of job %d on machine %d, which lacks its bank" s.job s.machine
      | Some c -> work.(s.job) <- Rat.add work.(s.job) (Rat.div (Rat.sub s.stop s.start) c))
    st.st_slices;
  Array.iteri
    (fun j w ->
      let total = Rat.add w t.remaining.(j) in
      if not (Rat.equal total Rat.one) then
        fail "request %S: slices and remaining work add up to %s, not 1" t.jobs.(j).id
          (Rat.to_string total))
    work;
  Array.iteri
    (fun i stop ->
      if Rat.compare stop frontier.(i) < 0 || Rat.compare stop t.now > 0 then
        fail "machine %d stops at %s, outside [its last slice %s, now %s]" i
          (Rat.to_string stop) (Rat.to_string frontier.(i)) (Rat.to_string t.now))
    st.st_last_stop;
  Array.blit st.st_last_stop 0 t.last_stop 0 m;
  t.faults <- st.st_faults;
  t.slices <- List.rev st.st_slices;
  (* A cache hit looks each share's census position up among the key's
     jobs (one '|'-separated field each, after policy, objective and
     overlay) before [install] validates the decision, so positions out of
     range would fail as an index error. *)
  List.iter
    (fun (key, cd) ->
      let jobs = List.length (String.split_on_char '|' key) - 3 in
      List.iter
        (fun (machine, pos, share) ->
          if machine < 0 || machine >= m then
            fail "cache entry %S names machine %d of %d" key machine m;
          if pos < 0 || pos >= jobs then
            fail "cache entry %S names census position %d of %d" key pos jobs;
          if Rat.sign share <= 0 || Rat.compare share Rat.one > 0 then
            fail "cache entry %S has share %s outside (0, 1]" key (Rat.to_string share))
        cd.cd_shares;
      (match cd.cd_review_offset with
       | Some r when Rat.sign r <= 0 ->
         fail "cache entry %S has review offset %s, not positive" key (Rat.to_string r)
       | _ -> ());
      Hashtbl.replace t.decision_cache key cd)
    st.st_cache;
  (* Last: the dump holds the exact instrument contents (including the
     gauges [create] pre-set), so loading it reproduces reports bit for
     bit.  Every name must be one [create] registered, or one of the
     [admission.*] instruments a valve keeps in this registry: loading
     any other would create it, and leave the instrument it misnames at
     its initial value. *)
  let registered = Metrics.dump t.metrics in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name registered || String.starts_with ~prefix:"admission." name)
      then fail "metric %S is not an engine instrument" name)
    st.st_metrics;
  (match Metrics.load t.metrics st.st_metrics with
   | () -> ()
   | exception Invalid_argument msg -> fail "%s" msg);
  t

let replay ?batch_window ?objective ?lost_work ~policy (trace : Trace.t) =
  let clock = Clock.virtual_ () in
  let t =
    create ?batch_window ?objective ?lost_work ~clock ~policy trace.Trace.platform
  in
  List.iter
    (fun (e : Trace.entry) ->
      ignore
        (submit t ~id:e.Trace.id ~arrival:e.Trace.request.W.arrival
           ~bank:e.Trace.request.W.bank ~num_motifs:e.Trace.request.W.num_motifs ()))
    trace.Trace.entries;
  List.iter (fun (e : Trace.event) -> inject t ~at:e.Trace.at e.Trace.fault) trace.Trace.events;
  drain t;
  t
