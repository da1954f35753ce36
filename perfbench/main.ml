(* perfbench: the repository benchmark.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Three workloads, each driven only through the program's public entry
   points and checked for correctness before any number is reported:

     serve-lp         online-opt (the paper's section 5 policy) behind the
                      admission valve: 2 s coalescing window, decision cache
     serve-durable    mct, direct admission, write-ahead log and a snapshot
                      every 64 records on the real disk
     offline-maxflow  Max_flow.solve (Theorem 2) on seeded instances of
                      18 jobs, parsed from Instance_io text

   The seed generates a few independent sessions (traces, or instance
   sets).  --trace 0 runs each session once unchecked (the reference
   fingerprint and the peak heap), times set-up alone, then repeats the
   sessions in turn for --seconds with tracing off, the first round
   through the correctness gate, and prints the end-to-end metrics.
   --trace 1 runs the first session through the gate, once untraced and
   once under an Obs callback sink, and prints the per-layer split.  The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  README.md in this
   directory records why each workload and metric was chosen. *)

module R = Numeric.Rat
module W = Gripps.Workload
module I = Sched_core.Instance
module S = Sched_core.Schedule
module Reg = Obs.Registry
module Mf = Sched_core.Max_flow

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                                *)
(* ------------------------------------------------------------------ *)

(* Every bench sample is read from the monotonic clock (ns resolution);
   [Unix.gettimeofday] has 1 us resolution and steps with NTP. *)
let now_ns () = Bechamel.Toolkit.Monotonic_clock.get ()
let seconds_since t0 = (now_ns () -. t0) *. 1e-9
let ms_since t0 = (now_ns () -. t0) *. 1e-6

(* Nearest rank. *)
let percentile xs level =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  s.(max 0 (min (n - 1) (int_of_float (Float.ceil (level *. float n)) - 1)))

let median xs = percentile xs 0.5
let ratio a b = if b = 0. then 0. else a /. b
let mean xs = ratio (Array.fold_left ( +. ) 0. xs) (float (Array.length xs))

(* The tail is taken over distinct client operations (bursts, or
   instances), of which every workload has at least 400: at this level
   at least 20 of them lie beyond it. *)
let tail_level = 0.95

(* Each session repeats at least this often in the timed loop, so every
   operation has a median over its repetitions. *)
let min_rounds = 3

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type serving = {
  policy : (module Online.Sim.POLICY);
  period : int;  (** simulated seconds between bursts *)
  requests : int;  (** per session *)
  window : R.t;  (** admission coalescing window, seconds *)
  cache : bool;  (** the engine's decision cache *)
  durable : bool;  (** WAL and snapshots armed *)
}

type kind = Serving of serving | Offline of { instances : int }

type workload = { kind : kind; sessions : int }

let workloads =
  [
    ( "serve-lp",
      {
        kind =
          Serving
            {
              policy = (module Online.Online_opt.Divisible);
              period = 40;
              requests = 600;
              window = R.of_int 2;
              cache = true;
              durable = false;
            };
        sessions = 8;
      } );
    ( "serve-durable",
      {
        kind =
          Serving
            {
              policy = (module Online.Policies.Mct);
              period = 30;
              requests = 1500;
              window = R.zero;
              cache = false;
              durable = true;
            };
        sessions = 4;
      } );
    ("offline-maxflow", { kind = Offline { instances = 40 }; sessions = 10 });
  ]

let snapshot_every = 64
let offline_jobs = 18

(* One fixed platform: the seed varies the traffic, not the hardware, so
   that load (and with it LP sizes and stretch) stays comparable across
   seeds.  Four machines of relative slowdown 1, 3/2, 2 and 3; three
   databanks, each held by two machines. *)
let platform =
  {
    W.speeds = [| R.one; R.of_ints 3 2; R.of_int 2; R.of_int 3 |];
    bank_sizes = [| 3800; 1900; 7600 |];
    has_bank =
      [|
        [| true; false; true |];
        [| false; true; false |];
        [| true; false; false |];
        [| false; true; true |];
      |];
  }

(* Periodic bursts: every [period] simulated seconds, two waves of three
   requests, the second [wave_gap] seconds after the first, each wave
   spread over one second.  The admission window coalesces each wave into
   one batch, so the policy re-plans several queued requests at once.
   The second wave is submitted while the first runs, so a completion
   inside its window is a re-plan at a rebuild barrier, where the
   decision cache is consulted.  Bursts are far enough apart that the
   platform drains between them, so every burst costs about the same and
   the seed moves the total little; a Poisson stream instead concentrates
   the cost in its rare long busy periods, whose LPs grow with the
   queue. *)
let burst = 6
let wave_gap = 3

(* With [repeats], one burst in three repeats the shape (offsets from the
   burst's start, banks, motifs) of an earlier burst drawn at random,
   translated to its own start.  The platform is idle when a burst
   begins, so a repeat reaches every rebuild barrier in the state its
   first occurrence did, up to a translation in time, and the decision
   cache answers it.  Drawing from all earlier bursts, not from a few
   fixed shapes, keeps any one shape from filling the latency tail. *)
let bursts rng ~period ~count ~repeats =
  let shape () =
    Array.init burst (fun i ->
        let num_motifs = 1 + Gripps.Prng.int rng 60 in
        let bank = Gripps.Prng.int rng 3 in
        let offset = W.quantize (float (wave_gap * (2 * i / burst)) +. Gripps.Prng.float rng) in
        (offset, bank, num_motifs))
  in
  let shapes = Array.make ((count + burst - 1) / burst) [||] in
  for b = 0 to Array.length shapes - 1 do
    shapes.(b) <-
      (if repeats && b > 0 && Gripps.Prng.int rng 3 = 0 then shapes.(Gripps.Prng.int rng b)
       else shape ())
  done;
  List.concat
    (List.mapi
       (fun b shape ->
         let start = R.of_int (b * period) in
         Array.to_list
           (Array.map
              (fun (offset, bank, num_motifs) -> { W.arrival = R.add start offset; bank; num_motifs })
              shape)
         |> List.stable_sort (fun (a : W.request) b -> R.compare a.arrival b.arrival))
       (Array.to_list shapes))
  |> List.filteri (fun i _ -> i < count)

(* A client operation: the commands of one burst, each with the name of
   the bench span that wraps it. *)
type op = (string * string) array

(* A session carries its workload's configuration, so that running it
   needs nothing else. *)
type session =
  | Trace_session of {
      config : serving;
      text : string;  (** the trace text the program parses *)
      ops : op array;  (** one per burst *)
      arrivals : R.t array;  (** each request's own arrival, in submission order *)
    }
  | Instance_session of string array

(* The closed-loop client's script on a virtual clock: per request, a
   [tick] up to its arrival (none when it arrives at the current date),
   then its [submit].  Arrivals are whole centiseconds, so the printed
   tick is exact. *)
let ops_of (entries : Serve.Trace.entry list) =
  let now = ref R.zero in
  let commands =
    List.map
      (fun (e : Serve.Trace.entry) ->
        let r = e.request in
        let tick =
          if R.compare r.W.arrival !now <= 0 then []
          else begin
            let dt = R.sub r.W.arrival !now in
            now := r.W.arrival;
            [ ("server.tick", Printf.sprintf "tick %.2f" (R.to_float dt)) ]
          end
        in
        tick @ [ ("server.submit", Printf.sprintf "submit %s %d %d" e.id r.W.bank r.W.num_motifs) ])
      entries
    |> Array.of_list
  in
  let n = Array.length commands in
  Array.init
    ((n + burst - 1) / burst)
    (fun b ->
      Array.of_list (List.concat (Array.to_list (Array.sub commands (b * burst) (min burst (n - (b * burst)))))))

let generate w seed =
  Array.init w.sessions (fun k ->
      let rng = Gripps.Prng.create ((seed * 7919) + k) in
      match w.kind with
      | Serving config ->
        let entries =
          List.mapi
            (fun i request -> { Serve.Trace.id = Printf.sprintf "r%05d" i; request })
            (bursts rng ~period:config.period ~count:config.requests ~repeats:config.cache)
        in
        Trace_session
          {
            config;
            text = Serve.Trace.to_string { Serve.Trace.platform; entries; events = [] };
            ops = ops_of entries;
            arrivals = Array.of_list (List.map (fun (e : Serve.Trace.entry) -> e.request.W.arrival) entries);
          }
      | Offline { instances } ->
        (* One size for every instance, so that the seed changes instance
           contents, not the amount of work, and the tail is made of hard
           instances rather than of the few largest ones. *)
        Instance_session
          (Array.init instances (fun _ ->
               let requests =
                 W.poisson_requests rng ~rate:0.15 ~count:offline_jobs ~max_motifs:60 ~banks:3
               in
               Sched_core.Instance_io.to_string (I.stretch_weights (W.to_instance platform requests)))))

(* ------------------------------------------------------------------ *)
(* One run of a session                                                *)
(* ------------------------------------------------------------------ *)

type run = {
  setup_s : float;  (** parse and build (and arm the WAL), or parse the set *)
  wall_s : float;  (** first command to the drain reply, or the solve loop *)
  samples : float array;  (** ms: one per burst, or one per solve *)
  drain_ms : float;  (** the final [drain]; 0 offline *)
  units : int;  (** requests, or instances *)
  failed : int;  (** err replies and requests left incomplete by drain *)
  print : string;  (** deterministic fingerprint, equal on every run of a session *)
  stretches : float array;  (** per request, or per job of every instance *)
  episode_max : float array;  (** max stretch per burst, or per instance *)
  layer : (string * float) list;  (** counts read from the run's own state *)
  check : unit -> string list;  (** the correctness gate's failures *)
}

let global_count name = Reg.count (Reg.counter Reg.global name)

let ok_reply lines =
  match List.rev lines with
  | last :: _ -> String.starts_with ~prefix:"ok" last
  | [] -> false

(* The valve keeps its own accounting ("admission." instruments) in the
   engine registry; WAL replay reproduces the engine, not the valve. *)
let engine_text engine =
  let st = Serve.Engine.dump engine in
  let st_metrics =
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"admission." k))
      st.Serve.Engine.st_metrics
  in
  Serve.Snapshot.state_to_string ~seq:0 ~platform { st with Serve.Engine.st_metrics }

type live = { engine : Serve.Engine.t; server : Serve.Server.t; wal : Serve.Snapshot.handle option }

let setup_serving c ~dir text =
  let t0 = now_ns () in
  let trace = Serve.Trace.of_string text in
  let parse_s = seconds_since t0 in
  let engine =
    Serve.Engine.create ~clock:(Serve.Clock.virtual_ ()) ~policy:c.policy trace.platform
  in
  let admission =
    Serve.Admission.create
      ~config:{ Serve.Admission.default_config with window = c.window; cache = c.cache }
      engine
  in
  let server = Serve.Server.create ~admission engine in
  let wal =
    if c.durable then Some (Serve.Snapshot.arm ~snapshot_every ~dir engine) else None
  in
  ({ engine; server; wal }, parse_s, seconds_since t0)

let fastest_cost req =
  Array.fold_left
    (fun acc c -> match (acc, c) with None, c -> c | Some a, Some c -> Some (R.min a c) | a, None -> a)
    None (W.cost_column platform req)
  |> Option.get

(* Stretch as the client sees it: from the request's own arrival, which a
   coalescing window may precede by up to the window, to its completion. *)
let client_stretches engine arrivals =
  let jobs = Array.of_list (Serve.Engine.dump engine).Serve.Engine.st_jobs in
  if Array.length jobs <> Array.length arrivals then [||]
  else
    Array.mapi
      (fun j (js : Serve.Engine.job_state) ->
        match js.js_completed_at with
        | None -> Float.infinity
        | Some c ->
          let req = { W.arrival = arrivals.(j); bank = js.js_bank; num_motifs = js.js_num_motifs } in
          R.to_float (R.div (R.sub c arrivals.(j)) (fastest_cost req)))
      jobs

let run_serving c ~dir ~text ~ops ~arrivals =
  let live, _, setup_s = setup_serving c ~dir text in
  let fsyncs0 = global_count "wal.fsyncs" in
  let errs = ref 0 in
  (* The bench's own spans, one per command kind: the traced run's roots. *)
  let send (span, line) =
    Obs.Span.with_span span (fun () ->
        if not (ok_reply (fst (Serve.Server.handle_line live.server line))) then incr errs)
  in
  let samples = Array.make (Array.length ops) 0. in
  let t0 = now_ns () in
  Array.iteri
    (fun i op ->
      let a = now_ns () in
      Array.iter send op;
      samples.(i) <- ms_since a)
    ops;
  let a = now_ns () in
  send ("server.drain", "drain");
  let drain_ms = ms_since a in
  let wall_s = seconds_since t0 in
  Option.iter Serve.Snapshot.close live.wal;
  let e = live.engine in
  let m = Serve.Engine.metrics e in
  let count name = Reg.count (Reg.counter m name) in
  let fcount name = float (count name) in
  let requests = Array.length arrivals in
  let completed = Serve.Engine.completed e in
  let stretches = client_stretches e arrivals in
  let episode_max =
    Array.init
      ((Array.length stretches + burst - 1) / burst)
      (fun b ->
        Array.fold_left Float.max 0.
          (Array.sub stretches (b * burst) (min burst (Array.length stretches - (b * burst)))))
  in
  let batch = Reg.histogram m "admission.batch_size" in
  let check () =
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    if !errs > 0 then fail "%d err replies" !errs;
    if completed <> requests then fail "%d of %d requests completed" completed requests;
    (match Check.Invariants.divisible (Serve.Engine.schedule e) with
     | Ok () -> ()
     | Error msg -> fail "schedule: %s" msg);
    if c.durable then begin
      let h, resumed =
        Serve.Snapshot.resume ~snapshot_every ~decision_cache:c.cache ~dir
          ~clock:(Serve.Clock.virtual_ ()) ~policies:[ c.policy ] ()
      in
      Serve.Snapshot.close h;
      if engine_text resumed <> engine_text e then
        fail "state resumed from the WAL differs from the live engine"
    end;
    !failures
  in
  {
    setup_s;
    wall_s;
    samples;
    drain_ms;
    units = requests;
    failed = !errs + (requests - completed);
    print =
      Printf.sprintf "completed=%d decisions=%d hits=%d slices=%d pivots=%d fsyncs=%d stretch=%h"
        completed (count "decisions") (count "decision_cache_hits") (count "slices")
        (count "lp_pivots_phase1" + count "lp_pivots_phase2" + count "lp_pivots_dual")
        (global_count "wal.fsyncs" - fsyncs0)
        (Array.fold_left ( +. ) 0. stretches);
    stretches;
    episode_max;
    layer =
      [
        ("engine.decisions", fcount "decisions");
        ("engine.slices", fcount "slices");
        ("engine.policy_rebuilds", fcount "policy_rebuilds");
        ("engine.cache_hits", fcount "decision_cache_hits");
        ("engine.cache_misses", fcount "decision_cache_misses");
        ("admission.batches", fcount "admission.batches");
        ("admission.batch_size_mean", if Reg.samples batch = 0 then 0. else Reg.mean batch);
      ];
    check;
  }

let setup_offline texts =
  let t0 = now_ns () in
  let insts = Array.map Sched_core.Instance_io.of_string texts in
  (insts, seconds_since t0)

(* Stretch of every job in a returned schedule: the instances carry
   stretch weights, so a job's weighted flow is its stretch. *)
let job_stretches (r : Mf.result) =
  let inst = S.instance r.schedule in
  let stop = Array.make (I.num_jobs inst) R.zero in
  List.iter
    (fun (s : S.slice) -> if R.compare s.stop stop.(s.job) > 0 then stop.(s.job) <- s.stop)
    (S.slices r.schedule);
  Array.mapi (fun j c -> R.to_float (R.mul (I.weight inst j) (R.sub c (I.flow_origin inst j)))) stop

let run_offline texts =
  let insts, setup_s = setup_offline texts in
  let samples = Array.make (Array.length insts) 0. in
  let before = Lp.Instrument.combined () in
  let t0 = now_ns () in
  let results =
    Array.mapi
      (fun i inst ->
        let a = now_ns () in
        let r = Obs.Span.with_span "offline.solve" (fun () -> Mf.solve inst) in
        samples.(i) <- ms_since a;
        r)
      insts
  in
  let wall_s = seconds_since t0 in
  let lp = Lp.Instrument.diff ~before (Lp.Instrument.combined ()) in
  let milestones =
    Array.fold_left (fun acc (r : Mf.result) -> acc + List.length r.milestones) 0 results
  in
  let check () =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i (r : Mf.result) ->
              match Check.Invariants.solution ~objective:r.objective r.schedule with
              | Ok () -> []
              | Error msg -> [ Printf.sprintf "instance %d: %s" i msg ])
            results))
  in
  {
    setup_s;
    wall_s;
    samples;
    drain_ms = 0.;
    units = Array.length insts;
    failed = 0;
    print =
      Printf.sprintf "objectives=%s solves=%d pivots=%d milestones=%d"
        (String.concat ","
           (Array.to_list (Array.map (fun (r : Mf.result) -> R.to_string r.objective) results)))
        lp.solves (Lp.Instrument.total_pivots lp) milestones;
    stretches = Array.concat (Array.to_list (Array.map job_stretches results));
    episode_max = Array.map (fun (r : Mf.result) -> R.to_float r.objective) results;
    layer = [];
    check;
  }

(* ------------------------------------------------------------------ *)
(* Scratch directories for the WAL, inside the checkout                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The name is fixed, not per process: every string the run allocates must
   be the same from run to run, or the peak heap would not repeat. *)
let scratch = ".perfbench_tmp"
let next_dir = ref 0

(* A fresh, not yet existing directory for one run; removed afterwards. *)
let with_dir f =
  incr next_dir;
  let dir = Filename.concat scratch (Printf.sprintf "run%d" !next_dir) in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let run_once ~dir = function
  | Trace_session { config; text; ops; arrivals } -> run_serving config ~dir ~text ~ops ~arrivals
  | Instance_session texts -> run_offline texts

(* Set-up alone: total time and parse time. *)
let setup_once ~dir = function
  | Trace_session { config; text; _ } ->
    let live, parse_s, setup_s = setup_serving config ~dir text in
    Option.iter Serve.Snapshot.close live.wal;
    (setup_s, parse_s)
  | Instance_session texts ->
    let _, s = setup_offline texts in
    (s, s)

(* ------------------------------------------------------------------ *)
(* Host fingerprint                                                    *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  try In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'
  with Sys_error _ -> []

let first_line path = match read_lines path with l :: _ -> String.trim l | [] -> "?"

(* Type of the filesystem holding [dir]: the longest mount point that is a
   prefix of its absolute path. *)
let fs_type dir =
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  let under mnt = mnt = "/" || dir = mnt || String.starts_with ~prefix:(mnt ^ "/") dir in
  List.fold_left
    (fun (best, ty) line ->
      match String.split_on_char ' ' line with
      | _ :: mnt :: fstype :: _ when under mnt && String.length mnt > String.length best ->
        (mnt, fstype)
      | _ -> (best, ty))
    ("", "?")
    (read_lines "/proc/self/mounts")
  |> snd

let host_json () =
  let nproc =
    List.length
      (List.filter (String.starts_with ~prefix:"processor") (read_lines "/proc/cpuinfo"))
  in
  Printf.sprintf
    {|{"ocaml":"%s","nproc":%d,"recommended_domain_count":%d,"pool_width":%d,"uname":"%s %s %s","wal_fs":"%s"}|}
    Sys.ocaml_version nproc
    (Domain.recommended_domain_count ())
    (Par.Pool.jobs ())
    (first_line "/proc/sys/kernel/ostype")
    (first_line "/proc/sys/kernel/osrelease")
    (first_line "/proc/sys/kernel/arch")
    (fs_type scratch)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* The names and units BENCHMARK.json declares, in print order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("peak_heap_mb", "MB");
    ("episode_max_stretch", "ratio");
    ("mean_stretch", "ratio");
  ]

let per_layer =
  [
    ("server.tick.self_s", "s");
    ("server.submit.self_s", "s");
    ("server.drain.self_s", "s");
    ("admission.submit.self_s", "s");
    ("engine.decide.self_s", "s");
    ("engine.decisions", "count");
    ("engine.decisions_per_request", "ratio");
    ("engine.slices", "count");
    ("engine.policy_rebuilds", "count");
    ("admission.batches", "count");
    ("admission.batch_size_mean", "count");
    ("engine.cache_hit_rate", "ratio");
    ("wal.append.self_s", "s");
    ("wal.fsync.self_s", "s");
    ("wal.fsyncs_per_request", "ratio");
    ("wal.append_bytes", "bytes");
    ("snapshot.write.self_s", "s");
    ("snapshot.writes", "count");
    ("snapshot.bytes_per_write", "bytes");
    ("offline.solve.self_s", "s");
    ("online_opt.plan.self_s", "s");
    ("maxflow.solve.self_s", "s");
    ("flow.search.self_s", "s");
    ("probe.exact.self_s", "s");
    ("probe.approx.self_s", "s");
    ("probe.exact.count", "count");
    ("probe.approx.count", "count");
    ("probe.exact_per_search", "ratio");
    ("deadline.form.self_s", "s");
    ("parametric.solve.self_s", "s");
    ("milestones.per_instance", "count");
    ("lp.exact.solves", "count");
    ("lp.exact.pivots", "count");
    ("lp.exact.self_s", "s");
    ("lp.exact.warm_rate", "ratio");
    ("lp.approx.solves", "count");
    ("lp.approx.pivots", "count");
    ("lp.approx.self_s", "s");
    ("lp.approx.warm_rate", "ratio");
    ("rat.small_ops", "count");
    ("rat.big_ops", "count");
    ("rat.hit_rate", "ratio");
    ("rat.promotions", "count");
    ("trace.parse_s", "s");
    ("instance.parse_s", "s");
    ("trace.overhead_ratio", "ratio");
    ("trace.coverage", "ratio");
    ("host.probe_ms", "ms");
  ]

(* Self time per span name, folded online as spans close: a span's self
   time is its duration minus that of its direct children, which close
   (and are emitted) before it.  lp.solve is split by its [exact]
   attribute. *)
type fold = {
  self : (string, float) Hashtbl.t;
  spans : (string, int) Hashtbl.t;
  children : (int, float) Hashtbl.t;  (** open span id -> children's time *)
  mutable milestones : int;
}

let add tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let fold_record f = function
  | Obs.Sink.Span sp ->
    let key =
      match (sp.name, Obs.Sink.attr sp "exact") with
      | "lp.solve", Some (Obs.Sink.Bool true) -> "lp.exact"
      | "lp.solve", _ -> "lp.approx"
      | name, _ -> name
    in
    let dur = sp.t_stop -. sp.t_start in
    let inner = Option.value ~default:0. (Hashtbl.find_opt f.children sp.id) in
    Hashtbl.remove f.children sp.id;
    add f.self key (dur -. inner);
    Hashtbl.replace f.spans key (1 + Option.value ~default:0 (Hashtbl.find_opt f.spans key));
    Option.iter (fun p -> add f.children p dur) sp.parent
  | Obs.Sink.Event { ev_name = "milestones.computed"; ev_attrs; _ } -> (
    match List.assoc_opt "count" ev_attrs with
    | Some (Obs.Sink.Int n) -> f.milestones <- f.milestones + n
    | _ -> ())
  | Obs.Sink.Event _ -> ()

(* Process-wide counters, read before and after the traced run. *)
type counters = {
  exact : Lp.Instrument.totals;
  approx : Lp.Instrument.totals;
  small : int;
  big : int;
  promotions : int;
  wal : (string * int) list;
}

let wal_counters = [ "wal.fsyncs"; "wal.append_bytes"; "wal.snapshots"; "wal.snapshot_bytes" ]

let counters () =
  {
    exact = Lp.Instrument.exact_totals ();
    approx = Lp.Instrument.approx_totals ();
    small = Numeric.Counters.small_ops ();
    big = Numeric.Counters.big_ops ();
    promotions = Numeric.Counters.promotions ();
    wal = List.map (fun n -> (n, global_count n)) wal_counters;
  }

let layer_metrics ~(traced : run) ~untraced_wall ~parse_s ~probe ~serving ~before ~after f =
  let self name = Option.value ~default:0. (Hashtbl.find_opt f.self name) in
  let spans name = float (Option.value ~default:0 (Hashtbl.find_opt f.spans name)) in
  let own name = Option.value ~default:0. (List.assoc_opt name traced.layer) in
  let wal name = float (List.assoc name after.wal - List.assoc name before.wal) in
  let requests = if serving then float traced.units else 0. in
  let lp kind (b : Lp.Instrument.totals) (a : Lp.Instrument.totals) =
    let d = Lp.Instrument.diff ~before:b a in
    [
      (kind ^ ".solves", float d.solves);
      (kind ^ ".pivots", float (Lp.Instrument.total_pivots d));
      (kind ^ ".self_s", self kind);
      (kind ^ ".warm_rate", ratio (float d.warm_solves) (float d.solves));
    ]
  in
  let small = float (after.small - before.small) and big = float (after.big - before.big) in
  let self_total = Hashtbl.fold (fun _ s acc -> acc +. s) f.self 0. in
  [
    ("server.tick.self_s", self "server.tick");
    ("server.submit.self_s", self "server.submit");
    ("server.drain.self_s", self "server.drain");
    ("admission.submit.self_s", self "admission.submit");
    ("engine.decide.self_s", self "engine.decide");
    ("engine.decisions", own "engine.decisions");
    ("engine.decisions_per_request", ratio (own "engine.decisions") requests);
    ("engine.slices", own "engine.slices");
    ("engine.policy_rebuilds", own "engine.policy_rebuilds");
    ("admission.batches", own "admission.batches");
    ("admission.batch_size_mean", own "admission.batch_size_mean");
    ( "engine.cache_hit_rate",
      ratio (own "engine.cache_hits") (own "engine.cache_hits" +. own "engine.cache_misses") );
    ("wal.append.self_s", self "wal.append");
    ("wal.fsync.self_s", self "wal.fsync");
    ("wal.fsyncs_per_request", ratio (wal "wal.fsyncs") requests);
    ("wal.append_bytes", wal "wal.append_bytes");
    ("snapshot.write.self_s", self "snapshot.write");
    ("snapshot.writes", wal "wal.snapshots");
    ("snapshot.bytes_per_write", ratio (wal "wal.snapshot_bytes") (wal "wal.snapshots"));
    ("offline.solve.self_s", self "offline.solve");
    ("online_opt.plan.self_s", self "online_opt.plan");
    ("maxflow.solve.self_s", self "maxflow.solve");
    ("flow.search.self_s", self "flow.search");
    ("probe.exact.self_s", self "probe.exact");
    ("probe.approx.self_s", self "probe.approx");
    ("probe.exact.count", spans "probe.exact");
    ("probe.approx.count", spans "probe.approx");
    ("probe.exact_per_search", ratio (spans "probe.exact") (spans "flow.search"));
    ("deadline.form.self_s", self "deadline.form");
    ("parametric.solve.self_s", self "parametric.solve");
    ("milestones.per_instance", ratio (float f.milestones) (spans "maxflow.solve"));
  ]
  @ lp "lp.exact" before.exact after.exact
  @ lp "lp.approx" before.approx after.approx
  @ [
      ("rat.small_ops", small);
      ("rat.big_ops", big);
      ("rat.hit_rate", ratio small (small +. big));
      ("rat.promotions", float (after.promotions - before.promotions));
      ("trace.parse_s", if serving then parse_s else 0.);
      ("instance.parse_s", if serving then 0. else parse_s);
      ("trace.overhead_ratio", ratio traced.wall_s untraced_wall);
      ("trace.coverage", ratio self_total traced.wall_s);
      ("host.probe_ms", probe);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

(* Every run counts its requests or instances and its own failures, and
   has to reproduce the fingerprint of its session's first run. *)
let record tally ~(reference : run) (r : run) =
  tally.attempted <- tally.attempted + r.units;
  tally.failed <- tally.failed + r.failed;
  if r.print <> reference.print then begin
    tally.failed <- tally.failed + r.units;
    tally.notes <- ("fingerprint differs: " ^ r.print) :: tally.notes
  end

(* The correctness gate, kept outside every timed region. *)
let gate tally ~reference (r : run) =
  record tally ~reference r;
  let failures = r.check () in
  tally.failed <- tally.failed + min r.units (List.length failures);
  tally.notes <- failures @ tally.notes

(* A run kept as a reference must not keep its engine or results alive
   through [check]. *)
let unchecked (r : run) = { r with check = (fun () -> []) }

(* Set-up is timed in rounds that set up every session once; a sample is
   the round's mean set-up time. *)
let setup_rounds = 15

let setup_round sessions =
  let times = Array.map (fun s -> with_dir (fun dir -> setup_once ~dir s)) sessions in
  (mean (Array.map fst times), mean (Array.map snd times))

(* Bound on the timed loop, so that a run always ends within the time the
   harness allows whatever --seconds says. *)
let max_loop_s = 120.

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Host speed probe.  The shared host this benchmark was tuned on runs
   the same code up to a third faster or slower for seconds to minutes at
   a time, as other tenants come and go; a run that lands in a fast phase
   would read as a gain.  So every set-up round and every timed
   repetition starts from a compacted heap and is preceded by this fixed
   piece of integer, hashing, allocation and sorting work, written here
   rather than taken from the program so that no program change moves it.
   Each time sample is multiplied by [probe_ref_ms] over the probe time
   measured right before it, so it reads in reference-host milliseconds.
   Over the same runs this narrowed the spread of every time metric on
   every workload (README.md gives both); the raw values are printed
   too. *)
let probe_ref_ms = 40.

let probe_ms () =
  let t0 = now_ns () in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let h = Hashtbl.create 1024 and acc = ref 0 in
  for i = 1 to 200_000 do
    let a = ((i * 7919) land 0xffff) + 1 and b = ((i * 104729) land 0xffff) + 1 in
    let g = gcd a b in
    Hashtbl.replace h (i land 1023) (a / g, b / g);
    acc := !acc + g
  done;
  let pairs = Array.init 30_000 (fun i -> ((i * 7919) mod 10007, float i)) in
  Array.stable_sort compare pairs;
  let sorted = List.sort Float.compare (List.init 20_000 (fun i -> float ((i * 7919) mod 10007))) in
  ignore (Sys.opaque_identity (!acc, pairs, sorted));
  ms_since t0

(* [f ()] from a compacted heap, right after a probe: (probe time, result). *)
let probed f =
  Gc.compact ();
  let p = probe_ms () in
  (p, f ())

(* Wall time of each untimed phase, printed for the record. *)
let phase name t0 = Printf.printf "phase %s %.3f s\n%!" name (seconds_since t0)

let end_to_end_run w ~seed ~seconds tally =
  let t = now_ns () in
  let sessions = generate w seed in
  (* Each session runs once untimed and unchecked, from a compacted heap.
     Its fingerprint is the reference every later run of it must
     reproduce.  The peak heap is read right after, before any check has
     run, so it is that of the largest single run of the program. *)
  let reference =
    Array.map
      (fun s ->
        Gc.compact ();
        let r = with_dir (fun dir -> run_once ~dir s) in
        record tally ~reference:r r;
        unchecked r)
      sessions
  in
  let heap = peak_heap_mb () in
  phase "warm-up" t;
  let t = now_ns () in
  let setups = Array.init setup_rounds (fun _ -> probed (fun () -> fst (setup_round sessions))) in
  phase "setup" t;
  let t0 = now_ns () and gate_s = ref 0. in
  let elapsed () = seconds_since t0 -. !gate_s in
  let by_session = Array.make w.sessions [] and k = ref 0 in
  while (elapsed () < seconds || !k < min_rounds * w.sessions) && elapsed () < max_loop_s do
    let s = !k mod w.sessions in
    let p, r =
      probed (fun () ->
          with_dir (fun dir ->
              let r = run_once ~dir sessions.(s) in
              (* The first round goes through the correctness gate, after
                 the heap was read, between repetitions and off the loop's
                 clock. *)
              if !k < w.sessions then begin
                let g = now_ns () in
                gate tally ~reference:reference.(s) r;
                gate_s := !gate_s +. seconds_since g
              end
              else record tally ~reference:reference.(s) r;
              unchecked r))
    in
    by_session.(s) <- (p, r) :: by_session.(s);
    incr k
  done;
  Printf.printf "phase timed %.3f s, of which gate %.3f s\n" (seconds_since t0) !gate_s;
  let by_session = Array.map Array.of_list by_session in
  (* The time metrics, each sample taken raw or scaled by its probe. *)
  let time_metrics adjust =
    (* One latency per distinct operation: the median over its
       repetitions, which spreads them over the whole timed loop. *)
    let op_latency =
      Array.concat
        (Array.to_list
           (Array.map
              (fun rs ->
                Array.init
                  (Array.length (snd rs.(0)).samples)
                  (fun i -> median (Array.map (fun (p, r) -> adjust p r.samples.(i)) rs)))
              by_session))
    in
    (* Throughput is that of a typical round of the sessions: every
       operation (and drain) at its median time, so a stall of the disk
       or the host in one repetition does not count. *)
    let drain_ms rs = median (Array.map (fun (p, r) -> adjust p r.drain_ms) rs) in
    let round_ms =
      Array.fold_left ( +. ) 0. op_latency
      +. Array.fold_left (fun acc rs -> acc +. drain_ms rs) 0. by_session
    in
    let units = Array.fold_left (fun acc (r : run) -> acc + r.units) 0 reference in
    [
      ("setup_s", median (Array.map (fun (p, s) -> adjust p s) setups));
      ("throughput_per_s", float units /. (round_ms /. 1000.));
      ("latency_p50_ms", median op_latency);
      ("latency_p95_ms", percentile op_latency tail_level);
    ]
  in
  let raw = time_metrics (fun _ x -> x) in
  let scaled = time_metrics (fun p x -> x *. probe_ref_ms /. p) in
  let probes = Array.concat (Array.map fst setups :: Array.to_list (Array.map (Array.map fst) by_session)) in
  Printf.printf "runs %d, probe median %.3f ms\n" !k (median probes);
  List.iter2 (fun (name, r) (_, s) -> Printf.printf "raw %s %.6g scaled %.6g\n" name r s) raw scaled;
  let all f = Array.concat (Array.to_list (Array.map f reference)) in
  scaled
  @ [
    ("peak_heap_mb", heap);
    ("episode_max_stretch", mean (all (fun r -> r.episode_max)));
    ("mean_stretch", mean (all (fun r -> r.stretches)));
  ]

let per_layer_run w ~seed tally =
  let session = (generate w seed).(0) in
  (* A warm-up run through the gate, then the untraced and traced runs
     whose wall times give the tracing overhead. *)
  let reference =
    with_dir (fun dir ->
        let r = run_once ~dir session in
        gate tally ~reference:r r;
        unchecked r)
  in
  let parse_s = median (Array.init setup_rounds (fun _ -> snd (setup_round [| session |]))) in
  Gc.compact ();
  let untraced = with_dir (fun dir -> run_once ~dir session) in
  record tally ~reference untraced;
  let f =
    { self = Hashtbl.create 32; spans = Hashtbl.create 32; children = Hashtbl.create 64; milestones = 0 }
  in
  Gc.compact ();
  let before = counters () in
  let traced =
    with_dir (fun dir ->
        Obs.Sink.with_sink (Obs.Sink.callback (fold_record f)) (fun () -> run_once ~dir session))
  in
  let after = counters () in
  record tally ~reference traced;
  (* Per-layer times are raw; the probe says how fast the host was. *)
  let probe = median (Array.init 5 (fun _ -> probe_ms ())) in
  layer_metrics ~traced ~untraced_wall:untraced.wall_s ~parse_s ~probe
    ~serving:(match session with Trace_session _ -> true | Instance_session _ -> false)
    ~before ~after f

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-lp|serve-durable|offline-maxflow --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match List.assoc_opt !workload workloads with Some w -> w | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  (* Width 1 whatever DLSCHED_JOBS says: at a larger width the pool's
     measured-cost gates choose serial or parallel paths by timing, and
     probe and pivot counts drift. *)
  Par.Pool.set_jobs 1;
  let spec = if !trace = 0 then end_to_end else per_layer in
  let tally = { attempted = 0; failed = 0; notes = [] } in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds !trace;
  let metrics, crashed =
    try
      rm_rf scratch;
      Unix.mkdir scratch 0o755;
      Printf.printf "host %s\n%!" (host_json ());
      let m =
        if !trace = 0 then end_to_end_run w ~seed:!seed ~seconds:!seconds tally
        else per_layer_run w ~seed:!seed tally
      in
      (m, false)
    with e ->
      tally.notes <- Printexc.to_string e :: tally.notes;
      ([], true)
  in
  rm_rf scratch;
  List.iter (fun n -> Printf.printf "FAILED %s\n" n) (List.rev tally.notes);
  let correct = (not crashed) && tally.failed = 0 && tally.notes = [] in
  let present =
    List.filter_map
      (fun (name, unit) -> Option.map (fun v -> (name, v, unit)) (List.assoc_opt name metrics))
      spec
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-30s %24s %s\n" name (json_number v) unit) present;
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct
    (max 1 tally.attempted) tally.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (json_number v) unit)
          present));
  print_newline ();
  if not correct then exit 1
