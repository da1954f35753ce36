(* Tests for the online simulation engine and policies.

   The sandwich invariant drives most property tests: for any policy, the
   offline optimum of Theorem 2 lower-bounds the achieved maximum weighted
   flow.  For the online adaptation of the offline algorithm, equality must
   hold when every job arrives at time zero (no clairvoyance needed). *)

module R = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module Mf = Sched_core.Max_flow
module Sim = Online.Sim
module Po = Online.Policies
module Oo = Online.Online_opt

let rat = Alcotest.testable R.pp R.equal
let ri = R.of_int

let simple ?releases ?weights costs =
  let cost = Array.map (Array.map (fun c -> if c = 0 then None else Some (ri c))) costs in
  let n = Array.length cost.(0) in
  let releases = Option.value releases ~default:(Array.make n R.zero) in
  let weights = Option.value weights ~default:(Array.make n R.one) in
  I.make ~releases ~weights cost

let check_valid what sched =
  match S.validate_divisible sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": invalid schedule: " ^ e)

let policies : (module Sim.POLICY) list =
  [ (module Po.Mct); (module Po.Fcfs); (module Po.Srpt); (module Po.Evd);
    (module Po.Fair); (module Oo.Divisible); (module Oo.Lazy_divisible) ]

(* ------------------------------------------------------------------ *)
(* Engine basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_mct_hand_case () =
  (* Two machines, three unit jobs at time 0 with c = 2 everywhere:
     MCT puts jobs 0,1 on distinct machines and job 2 behind job 0.
     Completions: 2, 2, 4. *)
  let inst = simple [| [| 2; 2; 2 |]; [| 2; 2; 2 |] |] in
  let r = Sim.run (module Po.Mct) inst in
  check_valid "mct" r.Sim.schedule;
  Alcotest.(check rat) "C0" (ri 2) (S.completion_time r.Sim.schedule 0);
  Alcotest.(check rat) "C1" (ri 2) (S.completion_time r.Sim.schedule 1);
  Alcotest.(check rat) "C2" (ri 4) (S.completion_time r.Sim.schedule 2);
  Alcotest.(check rat) "makespan" (ri 4) (S.makespan r.Sim.schedule)

let test_mct_respects_affinity () =
  (* Job 1 can only run on the slow machine. *)
  let inst = simple [| [| 1; 0 |]; [| 5; 5 |] |] in
  let r = Sim.run (module Po.Mct) inst in
  check_valid "mct affinity" r.Sim.schedule;
  List.iter
    (fun (s : S.slice) -> if s.job = 1 then Alcotest.(check int) "on machine 1" 1 s.machine)
    (S.slices r.Sim.schedule)

let test_fcfs_order () =
  (* Single machine: strict arrival order. *)
  let inst = simple ~releases:[| R.zero; R.zero; ri 1 |] [| [| 2; 2; 2 |] |] in
  let r = Sim.run (module Po.Fcfs) inst in
  check_valid "fcfs" r.Sim.schedule;
  Alcotest.(check rat) "C0" (ri 2) (S.completion_time r.Sim.schedule 0);
  Alcotest.(check rat) "C1" (ri 4) (S.completion_time r.Sim.schedule 1);
  Alcotest.(check rat) "C2" (ri 6) (S.completion_time r.Sim.schedule 2)

let test_srpt_preempts () =
  (* A long job is preempted by a short one on a single machine. *)
  let inst = simple ~releases:[| R.zero; ri 1 |] [| [| 10; 1 |] |] in
  let r = Sim.run (module Po.Srpt) inst in
  check_valid "srpt" r.Sim.schedule;
  Alcotest.(check rat) "short job served immediately" (ri 2)
    (S.completion_time r.Sim.schedule 1);
  Alcotest.(check rat) "long job finishes last" (ri 11)
    (S.completion_time r.Sim.schedule 0)

let test_fair_processor_sharing () =
  (* Two identical jobs on one machine under fair sharing progress at the
     same rate and both are done at time 4 (total work).  Within the final
     event segment the engine lays the equal shares out back to back, so
     one job's last slice ends at 2 and the other's at 4 — processor
     sharing up to intra-segment sequencing. *)
  let inst = simple [| [| 2; 2 |] |] in
  let r = Sim.run (module Po.Fair) inst in
  check_valid "fair" r.Sim.schedule;
  Alcotest.(check rat) "all work done at 4" (ri 4) (S.makespan r.Sim.schedule);
  Alcotest.(check rat) "flows 2 and 4" (ri 6) (S.sum_flow r.Sim.schedule)

let test_evd_respects_weights () =
  (* Both jobs present at t=0; job 1 has much higher weight, so its virtual
     deadline is earlier and EVD serves it first despite its later index. *)
  let inst = simple ~weights:[| ri 1; ri 10 |] [| [| 2; 2 |] |] in
  let r = Sim.run (module Po.Evd) inst in
  check_valid "evd" r.Sim.schedule;
  Alcotest.(check rat) "heavy job first" (ri 2) (S.completion_time r.Sim.schedule 1);
  Alcotest.(check rat) "light job second" (ri 4) (S.completion_time r.Sim.schedule 0)

let test_engine_honors_review_at () =
  (* A quantum-based round-robin policy exercises the self-wakeup path:
     with no arrivals or completions due, the engine must still cut
     segments at the requested review instants. *)
  let module Rr : Sim.POLICY = struct
    type state = int ref (* decision counter drives the alternation *)

    let name = "round-robin"
    let init _ = ref 0
    let on_arrival _ ~now:_ ~job:_ = ()
    let on_completion _ ~now:_ ~job:_ = ()
    let on_batch_arrival state ~now ~jobs = Sim.announce_each on_arrival state ~now ~jobs
    let on_platform_change = Sim.rebuild_on_platform_change

    let decide counter ~now ~active =
      incr counter;
      let pick = List.nth active (!counter mod List.length active) in
      {
        Sim.shares = [ { Sim.machine = 0; job = pick.Sim.id; share = R.one } ];
        review_at = Some (R.add now R.one) (* quantum of one second *);
      }
  end in
  let inst = simple [| [| 4; 4 |] |] in
  let r = Sim.run (module Rr) inst in
  check_valid "round robin" r.Sim.schedule;
  (* Quantum-sized slices alternate between the two jobs. *)
  Alcotest.(check bool) "many decisions (one per quantum)" true (r.Sim.decisions >= 8);
  List.iter
    (fun (s : S.slice) ->
      Alcotest.(check rat) "quantum slices" (ri 1) (R.sub s.stop s.start))
    (S.slices r.Sim.schedule);
  Alcotest.(check rat) "all work done" (ri 8) (S.makespan r.Sim.schedule)

let test_engine_rejects_bad_policy () =
  let module Bad : Sim.POLICY = struct
    type state = unit

    let name = "bad"
    let init _ = ()
    let on_arrival () ~now:_ ~job:_ = ()
    let on_completion () ~now:_ ~job:_ = ()
    let on_batch_arrival state ~now ~jobs = Sim.announce_each on_arrival state ~now ~jobs
    let on_platform_change = Sim.rebuild_on_platform_change

    let decide () ~now:_ ~active =
      (* Overload machine 0 with total share 2. *)
      match active with
      | (v : Sim.job_view) :: _ ->
        {
          Sim.shares =
            [ { Sim.machine = 0; job = v.id; share = R.one };
              { Sim.machine = 0; job = v.id; share = R.one }
            ];
          review_at = None;
        }
      | [] -> { Sim.shares = []; review_at = None }
  end in
  let inst = simple [| [| 2 |] |] in
  Alcotest.(check bool) "over-capacity rejected" true
    (try ignore (Sim.run (module Bad) inst); false with Invalid_argument _ -> true)

let test_engine_rejects_starvation () =
  let module Lazy_policy : Sim.POLICY = struct
    type state = unit

    let name = "lazy"
    let init _ = ()
    let on_arrival () ~now:_ ~job:_ = ()
    let on_completion () ~now:_ ~job:_ = ()
    let on_batch_arrival state ~now ~jobs = Sim.announce_each on_arrival state ~now ~jobs
    let on_platform_change = Sim.rebuild_on_platform_change
    let decide () ~now:_ ~active:_ = { Sim.shares = []; review_at = None }
  end in
  let inst = simple [| [| 2 |] |] in
  Alcotest.(check bool) "starvation detected" true
    (try ignore (Sim.run (module Lazy_policy) inst); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Online adaptation of the offline algorithm                          *)
(* ------------------------------------------------------------------ *)

let test_online_opt_equals_offline_at_zero () =
  (* All jobs available at time 0: the online adaptation executes the
     offline optimal plan and must achieve exactly F*. *)
  let inst =
    simple ~weights:[| ri 1; ri 4; ri 2 |] [| [| 4; 2; 3 |]; [| 8; 0; 6 |] |]
  in
  let offline = Mf.solve inst in
  let online = Sim.run (module Oo.Divisible) inst in
  check_valid "online-opt" online.Sim.schedule;
  Alcotest.(check rat) "achieves offline optimum" offline.Mf.objective
    (S.max_weighted_flow online.Sim.schedule)

let test_online_opt_single_job () =
  let inst = simple ~releases:[| ri 3 |] ~weights:[| ri 2 |] [| [| 2 |]; [| 6 |] |] in
  let online = Sim.run (module Oo.Divisible) inst in
  check_valid "single" online.Sim.schedule;
  (* Harmonic completion: 3 + 1/(1/2+1/6) = 9/2; weighted flow 2·3/2 = 3. *)
  Alcotest.(check rat) "optimal flow" (ri 3) (S.max_weighted_flow online.Sim.schedule)

let test_online_opt_beats_mct () =
  (* MCT commits a large job to the fast machine; small jobs arriving just
     after are stuck behind it (or on the far slower machine).  The online
     adaptation preempts. *)
  let inst =
    simple
      ~releases:[| R.zero; ri 1; ri 2 |]
      [| [| 10; 1; 1 |]; [| 40; 20; 20 |] |]
  in
  let mct = Sim.run (module Po.Mct) inst in
  let oo = Sim.run (module Oo.Divisible) inst in
  check_valid "mct" mct.Sim.schedule;
  check_valid "online-opt" oo.Sim.schedule;
  let f_mct = S.max_weighted_flow mct.Sim.schedule in
  let f_oo = S.max_weighted_flow oo.Sim.schedule in
  Alcotest.(check bool)
    (Printf.sprintf "online-opt (%s) strictly beats MCT (%s)" (R.to_string f_oo)
       (R.to_string f_mct))
    true
    (R.compare f_oo f_mct < 0)

(* ------------------------------------------------------------------ *)
(* Properties: every policy produces valid schedules dominated by the
   offline bound.                                                       *)
(* ------------------------------------------------------------------ *)

let sized_instance_gen ~max_jobs =
  let open QCheck.Gen in
  let* n = int_range 1 max_jobs in
  let* m = int_range 1 3 in
  let* releases = array_size (return n) (int_range 0 8) in
  let* weights = array_size (return n) (int_range 1 3) in
  let* costs = array_size (return m) (array_size (return n) (int_range 0 5)) in
  let* fallback = array_size (return n) (int_range 1 5) in
  let costs =
    Array.mapi
      (fun i row ->
        Array.mapi
          (fun j c ->
            if i = 0 && Array.for_all (fun r -> r.(j) = 0) costs then fallback.(j) else c)
          row)
      costs
  in
  return
    (I.make
       ~releases:(Array.map R.of_int releases)
       ~weights:(Array.map R.of_int weights)
       (Array.map (Array.map (fun c -> if c = 0 then None else Some (R.of_int c))) costs))

let instance_gen = sized_instance_gen ~max_jobs:4

let arbitrary_instance =
  QCheck.make instance_gen ~print:(fun i -> Format.asprintf "%a" I.pp i)

let policy_property (module P : Sim.POLICY) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: valid schedule, dominated by offline optimum" P.name)
    ~count:25 arbitrary_instance
    (fun inst ->
      let r = Sim.run (module P) inst in
      let offline = (Mf.solve inst).Mf.objective in
      Result.is_ok (S.validate_divisible r.Sim.schedule)
      && R.compare offline (S.max_weighted_flow r.Sim.schedule) <= 0)

let prop_online_opt_matches_offline_when_static =
  QCheck.Test.make ~name:"online-opt achieves F* when all jobs arrive at 0" ~count:20
    (QCheck.make
       (QCheck.Gen.map
          (fun inst ->
            let n = I.num_jobs inst in
            I.make
              ~releases:(Array.make n R.zero)
              ~weights:(Array.init n (I.weight inst))
              (Array.init (I.num_machines inst) (fun i ->
                   Array.init n (fun j -> I.cost inst ~machine:i ~job:j))))
          instance_gen))
    (fun inst ->
      let offline = Mf.solve inst in
      let online = Sim.run (module Oo.Divisible) inst in
      R.equal offline.Mf.objective (S.max_weighted_flow online.Sim.schedule))

let prop_lazy_matches_eager =
  (* The cached plan's horizon is the earliest deadline, where a completion
     occurs anyway, so the lazy re-optimizer refreshes at the same instants
     and must deliver the same quality. *)
  QCheck.Test.make ~name:"lazy re-optimization matches the eager one" ~count:20
    arbitrary_instance (fun inst ->
      let eager = Sim.run (module Oo.Divisible) inst in
      let lazy_ = Sim.run (module Oo.Lazy_divisible) inst in
      R.equal
        (S.max_weighted_flow eager.Sim.schedule)
        (S.max_weighted_flow lazy_.Sim.schedule))

(* ------------------------------------------------------------------ *)
(* Index-relativity: a policy initialised over a window of the jobs     *)
(* decides as it does over all of them, up to the renumbering.          *)
(* ------------------------------------------------------------------ *)

(* [inst] restricted to [window] (ascending), job [k] being [window.(k)]. *)
let restrict inst window =
  let pick f = Array.map f window in
  I.make ~flow_origins:(pick (I.flow_origin inst)) ~releases:(pick (I.release inst))
    ~weights:(pick (I.weight inst))
    (Array.init (I.num_machines inst) (fun i -> pick (fun j -> I.cost inst ~machine:i ~job:j)))

(* An instance; per job, whether it is outside the window (0), in it (1),
   or in it and announced (2, at least one job); the announcement order;
   and each announced job's remaining fraction. *)
let window_case_gen =
  let open QCheck.Gen in
  let* inst = sized_instance_gen ~max_jobs:7 in
  let n = I.num_jobs inst in
  let* tags = array_size (return n) (int_bound 2) in
  if Array.for_all (fun t -> t < 2) tags then tags.(0) <- 2;
  let announced = List.filter (fun j -> tags.(j) = 2) (List.init n Fun.id) in
  let* order = shuffle_l announced in
  let* remaining = array_size (return n) (oneofl [ R.one; R.of_ints 1 2; R.of_ints 1 3 ]) in
  return (inst, tags, order, remaining)

let print_window_case (inst, tags, order, remaining) =
  Format.asprintf "%a@.tags [%s] order [%s] remaining [%s]" I.pp inst
    (String.concat "; " (Array.to_list (Array.map string_of_int tags)))
    (String.concat "; " (List.map string_of_int order))
    (String.concat "; " (Array.to_list (Array.map R.to_string remaining)))

let same_decision (a : Sim.decision) (b : Sim.decision) =
  List.equal
    (fun (x : Sim.share) (y : Sim.share) ->
      x.machine = y.machine && x.job = y.job && R.equal x.share y.share)
    a.shares b.shares
  && Option.equal R.equal a.review_at b.review_at

let prop_window_relative (module P : Sim.POLICY) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: same decision over a window, up to renumbering" P.name)
    ~count:100 (QCheck.make ~print:print_window_case window_case_gen)
    (fun (inst, tags, order, remaining) ->
      let window =
        Array.of_list (List.filter (fun j -> tags.(j) > 0) (List.init (I.num_jobs inst) Fun.id))
      in
      let rel j =
        let rec go k = if window.(k) = j then k else go (k + 1) in
        go 0
      in
      let now = List.fold_left (fun acc j -> R.max acc (I.release inst j)) R.zero order in
      let decide sub id =
        let st = P.init sub in
        List.iter (fun j -> P.on_arrival st ~now ~job:(id j)) order;
        let active =
          List.filter_map
            (fun j ->
              if tags.(j) = 2 then
                Some
                  { Sim.id = id j; release = I.release inst j; weight = I.weight inst j;
                    remaining = remaining.(j) }
              else None)
            (List.init (I.num_jobs inst) Fun.id)
        in
        P.decide st ~now ~active
      in
      let full = decide inst Fun.id in
      let windowed = decide (restrict inst window) rel in
      same_decision full
        { windowed with
          shares =
            List.map (fun (s : Sim.share) -> { s with job = window.(s.job) }) windowed.shares })

(* ------------------------------------------------------------------ *)
(* Compare harness and adversarial families                            *)
(* ------------------------------------------------------------------ *)

let test_compare_report () =
  let inst = simple ~releases:[| R.zero; ri 1 |] [| [| 3; 1 |]; [| 6; 2 |] |] in
  let report = Online.Compare.run inst in
  Alcotest.(check int) "six policies" 6 (List.length report.Online.Compare.entries);
  List.iter
    (fun (e : Online.Compare.entry) ->
      Alcotest.(check bool) (e.policy ^ " at least offline") true (e.vs_offline >= 0.999);
      Alcotest.(check bool) (e.policy ^ " made decisions") true (e.decisions > 0))
    report.Online.Compare.entries;
  (* online-opt is last in the default list and must be optimal here. *)
  let oo = List.nth report.Online.Compare.entries 5 in
  Alcotest.(check string) "last is online-opt" "online-opt" oo.Online.Compare.policy;
  (* The pretty-printer emits one line per policy. *)
  let txt = Format.asprintf "%a" Online.Compare.pp report in
  List.iter
    (fun (e : Online.Compare.entry) ->
      let occurs =
        let p = e.Online.Compare.policy in
        let rec search i =
          i + String.length p <= String.length txt
          && (String.sub txt i (String.length p) = p || search (i + 1))
        in
        search 0
      in
      Alcotest.(check bool) ("pp mentions " ^ e.Online.Compare.policy) true occurs)
    report.Online.Compare.entries

let test_mct_trap_grows () =
  (* The MCT stretch ratio must grow with the trap scale while online-opt
     stays optimal. *)
  let ratio_at k =
    let inst = I.stretch_weights (Online.Adversarial.mct_trap ~scale:k) in
    let report =
      Online.Compare.run
        ~policies:[ (module Po.Mct); (module Oo.Divisible) ]
        inst
    in
    match report.Online.Compare.entries with
    | [ mct; oo ] -> (mct.Online.Compare.vs_offline, oo.Online.Compare.vs_offline)
    | _ -> Alcotest.fail "two entries expected"
  in
  let mct4, oo4 = ratio_at 4 in
  let mct8, oo8 = ratio_at 8 in
  Alcotest.(check bool) "ratio grows" true (mct8 > mct4 && mct4 > 1.5);
  Alcotest.(check bool) "online-opt optimal at 4" true (oo4 < 1.001);
  Alcotest.(check bool) "online-opt optimal at 8" true (oo8 < 1.001)

let test_srpt_starvation_grows () =
  let ratio_at n =
    let inst = Online.Adversarial.srpt_starvation ~jobs:n in
    let report = Online.Compare.run ~policies:[ (module Po.Srpt) ] inst in
    (List.hd report.Online.Compare.entries).Online.Compare.vs_offline
  in
  Alcotest.(check bool) "starvation worsens" true (ratio_at 8 > ratio_at 3 && ratio_at 3 > 1.2)

let test_adversarial_validation () =
  Alcotest.(check bool) "scale < 2 rejected" true
    (try ignore (Online.Adversarial.mct_trap ~scale:1); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "jobs < 1 rejected" true
    (try ignore (Online.Adversarial.srpt_starvation ~jobs:0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "online"
    [ ( "engine",
        [ Alcotest.test_case "mct hand case" `Quick test_mct_hand_case;
          Alcotest.test_case "mct affinity" `Quick test_mct_respects_affinity;
          Alcotest.test_case "fcfs order" `Quick test_fcfs_order;
          Alcotest.test_case "srpt preempts" `Quick test_srpt_preempts;
          Alcotest.test_case "fair processor sharing" `Quick test_fair_processor_sharing;
          Alcotest.test_case "evd respects weights" `Quick test_evd_respects_weights;
          Alcotest.test_case "review_at honored" `Quick test_engine_honors_review_at;
          Alcotest.test_case "rejects bad policy" `Quick test_engine_rejects_bad_policy;
          Alcotest.test_case "rejects starvation" `Quick test_engine_rejects_starvation
        ] );
      ( "online-opt",
        [ Alcotest.test_case "equals offline at zero" `Quick
            test_online_opt_equals_offline_at_zero;
          Alcotest.test_case "single job" `Quick test_online_opt_single_job;
          Alcotest.test_case "beats MCT on the motivating case" `Quick
            test_online_opt_beats_mct;
          QCheck_alcotest.to_alcotest prop_online_opt_matches_offline_when_static;
          QCheck_alcotest.to_alcotest prop_lazy_matches_eager
        ] );
      ( "compare",
        [ Alcotest.test_case "report structure" `Quick test_compare_report;
          Alcotest.test_case "mct trap grows" `Quick test_mct_trap_grows;
          Alcotest.test_case "srpt starvation grows" `Quick test_srpt_starvation_grows;
          Alcotest.test_case "adversarial validation" `Quick test_adversarial_validation
        ] );
      ("policy-props", List.map policy_property policies |> List.map QCheck_alcotest.to_alcotest);
      ("window", List.map prop_window_relative policies |> List.map QCheck_alcotest.to_alcotest)
    ]
