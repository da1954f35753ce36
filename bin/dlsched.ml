(* dlsched: command-line front end to the library.

     dlsched solve INSTANCE [--objective makespan|maxflow|stretch|preemptive]
     dlsched max-flow INSTANCE [--trace FILE]
     dlsched feasible INSTANCE --deadlines 8,7,6
     dlsched milestones INSTANCE
     dlsched simulate INSTANCE [--policy mct|fcfs|srpt|online-opt] [--stretch]
     dlsched compare INSTANCE [--stretch]
     dlsched generate --jobs N --machines M [--seed S] [-o FILE]
     dlsched gripps [--machines M] [--banks B] [--replication R] [--requests N]
     dlsched trace [--profile poisson|diurnal] [--requests N] [-o FILE]
     dlsched replay TRACE [--policy P] [--batch S] [--report FILE] [--json]
     dlsched serve [--socket PATH] [--clock wall|virtual] [--policy P]
                   [--batch-window S] [--max-inflight N] [--cache]

   Instances use the textual format of Sched_core.Instance_io (see
   `dlsched generate` for examples); traces use Serve.Trace's format (see
   `dlsched trace`). *)

module R = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
open Cmdliner

(* Data-loading errors (missing file, syntax error, bad semantics) are user
   errors: one line on stderr and a nonzero exit, not a backtrace. *)
let or_die f x =
  match f x with
  | v -> v
  | exception (Invalid_argument msg | Sys_error msg | Failure msg) ->
    Format.eprintf "dlsched: %s@." msg;
    exit 2

let load_instance path = or_die Sched_core.Instance_io.load path
let load_trace path = or_die Serve.Trace.load path

let print_schedule ~header sched =
  Format.printf "%s@." header;
  Format.printf "%a" (S.pp_gantt ?width:None) sched;
  Format.printf "@.slices:@.%a@." S.pp sched;
  Format.printf "metrics: makespan=%s max-flow=%s max-weighted-flow=%s max-stretch=%s@."
    (R.to_string (S.makespan sched))
    (R.to_string (S.max_flow sched))
    (R.to_string (S.max_weighted_flow sched))
    (R.to_string (S.max_stretch sched))

(* Every policy the CLI knows, keyed by the policy's own name — the same
   name a durability snapshot records, so `serve --resume` resolves the
   snapshot's policy from this one list. *)
let all_policies : (module Online.Sim.POLICY) list =
  [ (module Online.Policies.Mct);
    (module Online.Policies.Fcfs);
    (module Online.Policies.Srpt);
    (module Online.Policies.Evd);
    (module Online.Policies.Fair);
    (module Online.Online_opt.Divisible);
    (module Online.Online_opt.Lazy_divisible) ]

(* --- Flags ---------------------------------------------------------------

   Every flag the CLI parses, defined once.  Each info block funnels
   through [mk]/[req] (option flags), [switch] (boolean flags) or
   [pos_file] (positional file arguments) — the single usage renderer —
   so names, metavariables and doc strings read the same in every
   command's man page, and a flag shared by several commands (seed,
   machines, policy, the WAL trio, ...) cannot drift between them. *)
module Flags = struct
  let mk ?docv names doc kind default =
    Arg.(value & opt kind default & info names ?docv ~doc)

  let req ?docv names doc kind =
    Arg.(required & opt (some kind) None & info names ?docv ~doc)

  let switch names doc = Arg.(value & flag & info names ~doc)

  let pos_file ~docv doc =
    Arg.(required & pos 0 (some file) None & info [] ~docv ~doc)

  let instance =
    pos_file ~docv:"INSTANCE" "Instance file (see `dlsched generate` for the format)."

  let trace_file = pos_file ~docv:"TRACE" "Trace file (see `dlsched trace`)."

  let svg =
    mk [ "svg" ] ~docv:"FILE" "Also write an SVG Gantt chart of the schedule to $(docv)."
      Arg.(some string) None

  let output = mk [ "output"; "o" ] "Output file." Arg.(some string) None
  let seed = mk [ "seed"; "s" ] "PRNG seed." Arg.int 1

  let machines default = mk [ "machines"; "m" ] "Number of servers." Arg.int default
  let banks = mk [ "banks"; "b" ] "Number of databanks." Arg.int 3
  let replication = mk [ "replication"; "r" ] "Replicas per databank." Arg.int 2
  let requests default = mk [ "requests"; "n" ] "Number of requests." Arg.int default
  let rate ~doc default = mk [ "rate" ] doc Arg.float default

  (* Shared by every command that solves LPs.  Evaluates to (), installing
     the trace sink (with [--trace]) as a side effect before the command
     runs. *)
  let setup =
    let trace =
      mk [ "trace" ] ~docv:"FILE"
        "Write an observability trace to $(docv): one JSON object per line, \
         nested spans (LP solves with pivot counts, feasibility probes, \
         milestone searches) and instant events."
        Arg.(some string) None
    in
    let setup trace =
      match trace with
      | None -> ()
      | Some path ->
        Obs.Sink.install (or_die Obs.Sink.file path);
        (* Flush and close the file even on [exit 1/2] paths. *)
        at_exit Obs.Sink.uninstall
    in
    Term.(const setup $ trace)

  let policy =
    let keyed =
      List.map
        (fun m ->
          let module P = (val m : Online.Sim.POLICY) in
          (P.name, m))
        all_policies
    in
    mk [ "policy"; "p" ]
      ("Scheduling policy: " ^ String.concat ", " (List.map fst keyed) ^ ".")
      (Arg.enum keyed)
      (module Online.Policies.Mct : Online.Sim.POLICY)

  let batch =
    mk [ "batch" ] ~docv:"SECONDS"
      "Engine batch window in seconds: after a decision, coalesce arrivals \
       within this window instead of re-consulting the policy on each one."
      Arg.float 0.

  let lost_work =
    mk [ "lost-work" ]
      "What happens to in-flight work when a machine fails: lost (redone from \
       scratch) or preserved (partial results survive)."
      (Arg.enum [ ("lost", `Lost); ("preserved", `Preserved) ])
      `Lost

  let wal =
    mk [ "wal" ] ~docv:"DIR"
      "Arm crash safety: append every event to a write-ahead log under \
       $(docv) (fsync'd before it is applied) and write snapshots there \
       on the `snapshot` command."
      Arg.(some string) None

  let resume =
    mk [ "resume" ] ~docv:"DIR"
      "Recover a crashed server from the durability directory $(docv): \
       restore the latest snapshot, replay the log tail, and keep \
       logging there.  The platform and policy come from the snapshot; \
       --platform/--policy/--seed are ignored."
      Arg.(some string) None

  let snapshot_every =
    mk [ "snapshot-every" ] ~docv:"N"
      "With --wal/--resume: automatically checkpoint after every $(docv) \
       logged events (0 = only on the `snapshot` command)."
      Arg.int 0

  (* Admission valve (serve).  Distinct from --batch: --batch bounds how
     often a *standing* decision is revised, --batch-window coalesces
     *submissions* into one shared arrival so the engine plans once per
     burst. *)
  let batch_window =
    mk [ "batch-window" ] ~docv:"SECONDS"
      "Admission coalescing window: submissions accepted within $(docv) of \
       each other share one future arrival date, so the engine re-plans once \
       per batch instead of once per request (0 = plan per request)."
      Arg.float 0.

  let max_inflight =
    mk [ "max-inflight" ] ~docv:"N"
      "Load shedding: once $(docv) admitted requests are in flight, new \
       submissions get `err shed retry_after=T` instead of growing the \
       backlog (0 = unlimited)."
      Arg.int 0

  let max_per_client =
    mk [ "max-per-client" ] ~docv:"N"
      "Per-client in-flight cap, counted per connection (0 = unlimited)."
      Arg.int 0

  let admit_priority =
    mk [ "admit-priority" ]
      "Drain bias under load shedding: $(b,fifo) (over the cap, everyone is \
       shed alike) or $(b,smallest) (a request strictly smaller than the \
       largest in flight may overflow the global cap by 25%, so cheap \
       requests keep flowing while heavy ones drain)."
      (Arg.enum [ ("fifo", `Fifo); ("smallest", `Smallest) ])
      `Fifo

  let cache =
    switch [ "cache" ]
      "Cache scheduling decisions, keyed by the masked decision instance \
       (availability overlay + active job shapes): recurring workload shapes \
       replay remembered plans instead of re-consulting the policy.  With \
       --resume this must match the crashed run's setting."
end

(* --- solve ------------------------------------------------------- *)

let maybe_svg svg sched =
  match svg with
  | Some path ->
    Sched_core.Gantt_svg.save path sched;
    Format.printf "wrote %s@." path
  | None -> ()

let solve_run ~root () file objective svg =
  Obs.Span.with_span root (fun () ->
    let inst = load_instance file in
    let schedule =
      match objective with
      | `Makespan ->
        let r = Sched_core.Makespan.solve inst in
        Format.printf "optimal makespan: %s@." (R.to_string r.Sched_core.Makespan.makespan);
        r.Sched_core.Makespan.schedule
      | `Maxflow ->
        let r = Sched_core.Max_flow.solve inst in
        Format.printf "optimal max weighted flow: %s%s (%d milestones)@."
          (R.to_string r.Sched_core.Max_flow.objective)
          (let approx = R.approx ~max_den:1000 r.Sched_core.Max_flow.objective in
           if R.equal approx r.Sched_core.Max_flow.objective then ""
           else Printf.sprintf " (~%s)" (R.to_string approx))
          (List.length r.Sched_core.Max_flow.milestones);
        r.Sched_core.Max_flow.schedule
      | `Stretch ->
        let r = Sched_core.Max_flow.solve_max_stretch inst in
        Format.printf "optimal max stretch: %s (~%.4f)@."
          (R.to_string r.Sched_core.Max_flow.objective)
          (R.to_float r.Sched_core.Max_flow.objective);
        r.Sched_core.Max_flow.schedule
      | `Preemptive ->
        let r = Sched_core.Preemptive.solve inst in
        Format.printf "optimal max weighted flow (preemptive): %s (%d slots)@."
          (R.to_string r.Sched_core.Preemptive.objective)
          r.Sched_core.Preemptive.preemption_slots;
        r.Sched_core.Preemptive.schedule
    in
    print_schedule ~header:"schedule:" schedule;
    maybe_svg svg schedule)

let objective_arg =
  Flags.mk [ "objective"; "O" ]
    "Objective: makespan, maxflow (max weighted flow, divisible), \
     stretch (max stretch, divisible), or preemptive (max weighted \
     flow, preemption without divisibility)."
    (Arg.enum [ ("makespan", `Makespan); ("maxflow", `Maxflow);
                ("stretch", `Stretch); ("preemptive", `Preemptive) ])
    `Maxflow

let solve_cmd =
  let doc = "Solve an offline scheduling problem exactly (Theorems 1/2, Section 4.4)." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(const (solve_run ~root:"dlsched.solve")
          $ Flags.setup $ Flags.instance $ objective_arg $ Flags.svg)

(* Alias for `solve --objective maxflow`, the paper's headline problem —
   with [--trace] the whole milestone search renders as one span tree. *)
let max_flow_cmd =
  let doc = "Minimize the maximum weighted flow (alias for `solve --objective maxflow`)." in
  Cmd.v (Cmd.info "max-flow" ~doc)
    Term.(const (fun () file svg -> solve_run ~root:"dlsched.max-flow" () file `Maxflow svg)
          $ Flags.setup $ Flags.instance $ Flags.svg)

(* --- feasible ----------------------------------------------------- *)

let feasible_cmd =
  let deadlines =
    Flags.req [ "deadlines"; "d" ]
      "Comma-separated deadlines, one rational per job (e.g. 8,15/2,6)."
      Arg.string
  in
  let run () file deadlines =
    Obs.Span.with_span "dlsched.feasible" (fun () ->
      let inst = load_instance file in
      let ds =
        String.split_on_char ',' deadlines |> List.map R.of_string |> Array.of_list
      in
      if Array.length ds <> I.num_jobs inst then begin
        Format.eprintf "expected %d deadlines, got %d@." (I.num_jobs inst) (Array.length ds);
        exit 2
      end;
      match Sched_core.Deadline.feasible inst ~deadlines:ds with
      | Some sched ->
        Format.printf "FEASIBLE@.";
        print_schedule ~header:"witness schedule:" sched
      | None ->
        Format.printf "INFEASIBLE@.";
        exit 1)
  in
  let doc = "Decide deadline feasibility (Lemma 1) and print a witness schedule." in
  Cmd.v (Cmd.info "feasible" ~doc)
    Term.(const run $ Flags.setup $ Flags.instance $ deadlines)

(* --- milestones ---------------------------------------------------- *)

let milestones_cmd =
  let run file =
    let inst = load_instance file in
    let ms = Sched_core.Milestones.compute inst in
    Format.printf "%d milestones (bound n^2 - n = %d):@." (List.length ms)
      (Sched_core.Milestones.count_bound inst);
    List.iter (fun f -> Format.printf "  %s@." (R.to_string f)) ms
  in
  let doc = "List the milestones (critical trial values) of the instance." in
  Cmd.v (Cmd.info "milestones" ~doc) Term.(const run $ Flags.instance)

(* --- simulate ------------------------------------------------------ *)

let simulate_cmd =
  let policy =
    Flags.mk [ "policy"; "p" ] "Online policy: mct, fcfs, srpt or online-opt."
      (Arg.enum [ ("mct", `Mct); ("fcfs", `Fcfs); ("srpt", `Srpt); ("online-opt", `Oo) ])
      `Mct
  in
  let stretch =
    Flags.switch [ "stretch" ] "Reweight the instance for max-stretch before simulating."
  in
  let run () file policy stretch =
    Obs.Span.with_span "dlsched.simulate" (fun () ->
      let inst = load_instance file in
      let inst = if stretch then I.stretch_weights inst else inst in
      let m : (module Online.Sim.POLICY) =
        match policy with
        | `Mct -> (module Online.Policies.Mct)
        | `Fcfs -> (module Online.Policies.Fcfs)
        | `Srpt -> (module Online.Policies.Srpt)
        | `Oo -> (module Online.Online_opt.Divisible)
      in
      let r = Online.Sim.run m inst in
      let offline = Sched_core.Max_flow.solve inst in
      print_schedule ~header:(Printf.sprintf "%s schedule:" r.Online.Sim.policy)
        r.Online.Sim.schedule;
      Format.printf "offline optimal max weighted flow: %s; achieved: %s@."
        (R.to_string offline.Sched_core.Max_flow.objective)
        (R.to_string (S.max_weighted_flow r.Online.Sim.schedule)))
  in
  let doc = "Run an online policy on the instance and compare to the offline optimum." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ Flags.setup $ Flags.instance $ policy $ stretch)

(* --- compare ------------------------------------------------------- *)

let compare_cmd =
  let stretch =
    Flags.switch [ "stretch" ] "Reweight the instance for max-stretch before comparing."
  in
  let run () file stretch =
    Obs.Span.with_span "dlsched.compare" (fun () ->
      let inst = load_instance file in
      let inst = if stretch then I.stretch_weights inst else inst in
      let report = Online.Compare.run inst in
      Format.printf "%a@." Online.Compare.pp report)
  in
  let doc = "Run every online policy on the instance and tabulate them              against the offline optimum." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ Flags.setup $ Flags.instance $ stretch)

(* --- generate ------------------------------------------------------ *)

let generate_cmd =
  let jobs = Flags.mk [ "jobs"; "n" ] "Number of jobs." Arg.int 6 in
  let run jobs machines seed output =
    let inst = Gripps.Workload.random_instance ~jobs ~machines ~seed in
    let text = Sched_core.Instance_io.to_string inst in
    match output with
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Format.printf "wrote %s@." path
    | None -> print_string text
  in
  let doc = "Generate a random instance in the textual format." in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const run $ jobs $ Flags.machines 3 $ Flags.seed $ Flags.output)

(* --- gripps -------------------------------------------------------- *)

let gripps_cmd =
  let rate =
    Flags.rate ~doc:"Poisson arrival rate (requests per second)." (1.0 /. 60.0)
  in
  let run machines banks replication requests rate seed output =
    let rng = Gripps.Prng.create seed in
    let platform = Gripps.Workload.random_platform rng ~machines ~banks ~replication in
    let reqs =
      Gripps.Workload.poisson_requests rng ~rate ~count:requests ~max_motifs:60 ~banks
    in
    let inst = Gripps.Workload.to_instance platform reqs in
    let text = Sched_core.Instance_io.to_string inst in
    match output with
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Format.printf "wrote %s@." path
    | None -> print_string text
  in
  let doc = "Generate a GriPPS-style instance: heterogeneous servers, replicated              databanks, Poisson motif-comparison requests." in
  Cmd.v (Cmd.info "gripps" ~doc)
    Term.(const run $ Flags.machines 4 $ Flags.banks $ Flags.replication
          $ Flags.requests 8 $ rate $ Flags.seed $ Flags.output)

(* --- trace --------------------------------------------------------- *)

let trace_cmd =
  let profile =
    Flags.mk [ "profile" ]
      "Arrival profile: poisson (homogeneous) or diurnal (sin^2 day shape)."
      (Arg.enum [ ("poisson", `Poisson); ("diurnal", `Diurnal) ])
      `Diurnal
  in
  let rate =
    Flags.rate ~doc:"Arrival rate in requests per second (the peak rate for diurnal)."
      0.2
  in
  let day =
    Flags.mk [ "day" ] "Length of the diurnal \"day\" in seconds." Arg.float 3600.
  in
  let faults =
    Flags.switch [ "faults" ]
      "Overlay machine failure/recovery events (exponential up/down periods)."
  in
  let mtbf =
    Flags.mk [ "mtbf" ]
      "Mean time between failures per machine, in seconds (with --faults)."
      Arg.float 300.
  in
  let mttr =
    Flags.mk [ "mttr" ] "Mean time to recovery, in seconds (with --faults)."
      Arg.float 30.
  in
  let run profile machines banks replication requests rate day seed output faults mtbf
      mttr =
    let trace =
      match profile with
      | `Poisson ->
        Serve.Trace.poisson ~seed ~machines ~banks ~replication ~rate ~count:requests ()
      | `Diurnal ->
        Serve.Trace.diurnal ~seed ~machines ~banks ~replication ~day ~peak_rate:rate
          ~count:requests ()
    in
    let trace =
      if faults then or_die (Serve.Trace.with_faults ~seed:(seed + 1) ~mtbf ~mttr) trace
      else trace
    in
    let text = Serve.Trace.to_string trace in
    match output with
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Format.printf "wrote %s (%d requests, %d fault events)@." path
        (List.length trace.Serve.Trace.entries)
        (List.length trace.Serve.Trace.events)
    | None -> print_string text
  in
  let doc = "Generate a synthetic workload trace for `dlsched replay`." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ profile $ Flags.machines 4 $ Flags.banks $ Flags.replication
          $ Flags.requests 200 $ rate $ day $ Flags.seed $ Flags.output
          $ faults $ mtbf $ mttr)

(* --- replay / serve ------------------------------------------------- *)

let replay_cmd =
  let report =
    Flags.mk [ "report" ] ~docv:"FILE" "Also write the metrics report to $(docv)."
      Arg.(some string) None
  in
  let json = Flags.switch [ "json" ] "Report metrics as JSON." in
  let run () file policy batch lost_work report json =
    let trace = load_trace file in
    let wall0 = Unix.gettimeofday () in
    let engine =
      Obs.Span.with_span "dlsched.replay" (fun () ->
          Serve.Engine.replay ~batch_window:(Gripps.Workload.quantize batch)
            ~lost_work ~policy trace)
    in
    let wall = Unix.gettimeofday () -. wall0 in
    let m = Serve.Engine.metrics engine in
    let body = if json then Obs.Registry.to_json m else Obs.Registry.to_text m in
    (match report with
     | Some path ->
       Out_channel.with_open_text path (fun oc -> output_string oc (body ^ "\n"));
       Format.printf "wrote %s@." path
     | None -> print_string body; if json then print_newline ());
    if Serve.Engine.submitted engine = 0 then begin
      Format.eprintf "dlsched: %s: trace has no requests@." file;
      exit 2
    end;
    let incomplete = Serve.Engine.submitted engine - Serve.Engine.completed engine in
    if incomplete > 0 then
      (* A trace whose failures are never recovered can leave permanently
         starved requests; the partial schedule cannot pass the fraction
         check, so report instead of validating. *)
      Format.printf
        "note: %d request(s) incomplete (%d starved by machine failures); \
         skipping schedule validation@."
        incomplete (Serve.Engine.starved engine)
    else begin
      let sched = Serve.Engine.schedule engine in
      match S.validate_divisible sched with
      | Ok () ->
        Format.printf "schedule valid (%d slices)@." (List.length sched.S.slices)
      | Error msg ->
        Format.eprintf "dlsched: invalid schedule: %s@." msg;
        exit 1
    end;
    let n = Serve.Engine.completed engine in
    if wall > 0. then
      Format.printf "replayed %d requests in %.3fs wall (%.0f requests/s, %.0f decisions/s)@."
        n wall
        (float_of_int n /. wall)
        (float_of_int (Obs.Registry.count (Obs.Registry.counter m "decisions")) /. wall)
  in
  let doc = "Replay a workload trace through the serving engine under a virtual              clock and report per-request flow/stretch metrics." in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ Flags.setup $ Flags.trace_file $ Flags.policy $ Flags.batch
          $ Flags.lost_work $ report $ json)

let serve_cmd =
  let socket =
    Flags.mk [ "socket" ] ~docv:"PATH"
      "Listen on a Unix-domain socket at $(docv) instead of stdin/stdout."
      Arg.(some string) None
  in
  let clock =
    Flags.mk [ "clock" ] "Clock: wall (real time) or virtual (advanced by `tick`)."
      (Arg.enum [ ("wall", `Wall); ("virtual", `Virtual) ])
      `Wall
  in
  let platform_from =
    Flags.mk [ "platform" ] ~docv:"TRACE"
      "Take the platform (machines, banks, replication) from this trace \
       file instead of generating a random one."
      Arg.(some file) None
  in
  let run () socket clock platform_from machines banks replication seed policy batch
      lost_work wal resume snapshot_every batch_window max_inflight max_per_client
      admit_priority cache =
    (* A disconnecting client must never kill the daemon with SIGPIPE —
       writes to a dead peer surface as exceptions the session loop eats. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let clock =
      match clock with `Wall -> Serve.Clock.wall () | `Virtual -> Serve.Clock.virtual_ ()
    in
    let durability, engine =
      match resume with
      | Some dir ->
        (match wal with
         | Some d when d <> dir ->
           Format.eprintf
             "dlsched: --wal %s conflicts with --resume %s (a resumed server keeps \
              logging into the directory it recovered from)@."
             d dir;
           exit 2
         | _ -> ());
        let handle, engine =
          or_die
            (fun () ->
              Serve.Snapshot.resume ~snapshot_every ~decision_cache:cache ~dir ~clock
                ~policies:all_policies ())
            ()
        in
        Format.eprintf "dlsched serve: resumed from %s (seq %d, now=%s, %d/%d \
                        requests completed)@."
          dir
          (Serve.Engine.last_seq engine)
          (R.to_string (Serve.Engine.now engine))
          (Serve.Engine.completed engine)
          (Serve.Engine.submitted engine);
        (Some handle, engine)
      | None ->
        let platform =
          match platform_from with
          | Some file -> (load_trace file).Serve.Trace.platform
          | None ->
            Gripps.Workload.random_platform (Gripps.Prng.create seed) ~machines ~banks
              ~replication
        in
        let engine =
          Serve.Engine.create ~batch_window:(Gripps.Workload.quantize batch) ~lost_work
            ~clock ~policy platform
        in
        let durability =
          Option.map
            (fun dir ->
              let h = or_die (fun () -> Serve.Snapshot.arm ~snapshot_every ~dir engine) () in
              Format.eprintf "dlsched serve: write-ahead log armed at %s@." dir;
              h)
            wal
        in
        (durability, engine)
    in
    let admission_config =
      { Serve.Admission.window = Gripps.Workload.quantize batch_window;
        max_inflight; max_per_client; cache; priority = admit_priority }
    in
    let admission =
      or_die (fun () -> Serve.Admission.create ~config:admission_config engine) ()
    in
    if admission_config <> Serve.Admission.default_config then
      Format.eprintf
        "dlsched serve: admission valve: window=%ss max-inflight=%d \
         max-per-client=%d cache=%b priority=%s@."
        (R.to_string admission_config.Serve.Admission.window)
        max_inflight max_per_client cache
        (match admit_priority with `Fifo -> "fifo" | `Smallest -> "smallest");
    let platform = Serve.Engine.platform engine in
    let server = Serve.Server.create ~admission engine in
    Format.eprintf "dlsched serve: %d machines, %d banks; commands: \
                    submit/status/metrics/trace/spans/fail/recover/tick/drain/\
                    snapshot/help/quit@."
      (Array.length platform.Gripps.Workload.speeds)
      (Array.length platform.Gripps.Workload.bank_sizes);
    Fun.protect
      ~finally:(fun () -> Option.iter Serve.Snapshot.close durability)
      (fun () ->
        match socket with
        | Some path ->
          Format.eprintf "listening on %s@." path;
          Serve.Server.run_socket server ~path
        | None -> Serve.Server.run server stdin stdout)
  in
  let doc = "Run the scheduler as a daemon speaking a newline-delimited command              protocol on stdin/stdout or a Unix socket." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ Flags.setup $ socket $ clock $ platform_from $ Flags.machines 4
          $ Flags.banks $ Flags.replication $ Flags.seed $ Flags.policy $ Flags.batch
          $ Flags.lost_work $ Flags.wal $ Flags.resume $ Flags.snapshot_every
          $ Flags.batch_window $ Flags.max_inflight $ Flags.max_per_client
          $ Flags.admit_priority $ Flags.cache)

(* --- fuzz ----------------------------------------------------------- *)

let fuzz_cmd =
  let cases =
    Flags.mk [ "cases"; "n" ] "Number of generated cases per run." Arg.int 200
  in
  let out =
    Flags.mk [ "out" ] ~docv:"DIR"
      "Directory for shrunk failing cases (created only on failure)."
      Arg.string "_fuzz"
  in
  let replay =
    Flags.mk [ "replay" ] ~docv:"FILE"
      "Replay a saved artifact (an $(b,.inst) instance or $(b,.script) serve \
       script) against one oracle instead of generating cases; requires \
       $(b,--oracle)."
      Arg.(some file) None
  in
  let oracle =
    Flags.mk [ "oracle" ] ~docv:"NAME"
      "Oracle to replay against (see $(b,--list))." Arg.(some string) None
  in
  let aux =
    Flags.mk [ "aux" ] ~docv:"N"
      "Auxiliary oracle knob recorded in the artifact's $(b,.sh) file \
       (crash index, snapshot cadence, ...)."
      Arg.int 0
  in
  let list = Flags.switch [ "list" ] "List the oracle matrix and exit." in
  let run () seed cases out replay oracle aux list =
    if list then
      List.iter (fun o -> Format.printf "%s@." (Check.Oracles.name o)) Check.Oracles.all
    else
      match replay with
      | Some path -> (
        let o =
          match oracle with
          | None ->
            Format.eprintf "dlsched fuzz: --replay requires --oracle@.";
            exit 2
          | Some name -> (
            match Check.Oracles.find name with
            | Some o -> o
            | None ->
              Format.eprintf "dlsched fuzz: unknown oracle %S (try --list)@." name;
              exit 2)
        in
        match or_die (fun () -> Check.Fuzz.replay ~oracle:o ~aux ~path) () with
        | Ok () -> Format.printf "PASS: %s on %s@." (Check.Oracles.name o) path
        | Error detail ->
          Format.printf "FAIL: %s on %s@.  %s@." (Check.Oracles.name o) path detail;
          exit 1)
      | None ->
        let report = Check.Fuzz.run ~out_dir:out ~seed ~cases () in
        List.iter
          (fun (name, n) -> Format.printf "%-24s %d cases@." name n)
          (("totality", report.Check.Fuzz.cases) :: report.Check.Fuzz.oracles_run);
        if report.Check.Fuzz.failures = [] then
          Format.printf "fuzz: %d cases clean (seed %d)@." report.Check.Fuzz.cases seed
        else begin
          List.iter
            (fun f ->
              Format.printf "FAIL case %d oracle %s: %s@." f.Check.Fuzz.case
                f.Check.Fuzz.oracle f.Check.Fuzz.detail;
              Option.iter (Format.printf "  repro: %s@.") f.Check.Fuzz.repro)
            report.Check.Fuzz.failures;
          Format.printf "fuzz: %d/%d cases FAILED (seed %d)@."
            (List.length report.Check.Fuzz.failures)
            report.Check.Fuzz.cases seed;
          exit 1
        end
  in
  let doc = "Differential fuzzing: run the oracle matrix on random cases, shrink and \
             save failures as replayable artifacts." in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ Flags.setup $ Flags.seed $ cases $ out $ replay $ oracle $ aux
          $ list)

let () =
  let doc = "exact schedulers for divisible requests on heterogeneous databanks" in
  let info = Cmd.info "dlsched" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
          [ solve_cmd; max_flow_cmd; feasible_cmd; milestones_cmd; simulate_cmd;
            compare_cmd; generate_cmd; gripps_cmd; trace_cmd; replay_cmd; serve_cmd;
            fuzz_cmd ]))
