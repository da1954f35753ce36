(* Tests for the serving subsystem: trace round-trips, metrics quantile
   correctness, engine-vs-simulator equivalence, batching, live
   submissions, and the server line protocol. *)

module R = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module W = Gripps.Workload
module T = Serve.Trace
module M = Obs.Registry
module E = Serve.Engine

let rat = Alcotest.testable R.pp R.equal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_valid what sched =
  match S.validate_divisible sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": invalid schedule: " ^ e)

let trace_equal (a : T.t) (b : T.t) =
  a.platform.W.speeds = b.platform.W.speeds
  && a.platform.W.bank_sizes = b.platform.W.bank_sizes
  && a.platform.W.has_bank = b.platform.W.has_bank
  && List.length a.entries = List.length b.entries
  && List.for_all2
       (fun (x : T.entry) (y : T.entry) ->
         x.id = y.id
         && R.equal x.request.W.arrival y.request.W.arrival
         && x.request.W.bank = y.request.W.bank
         && x.request.W.num_motifs = y.request.W.num_motifs)
       a.entries b.entries
  && List.length a.events = List.length b.events
  && List.for_all2
       (fun (x : T.event) (y : T.event) ->
         R.equal x.at y.at && x.fault = y.fault)
       a.events b.events

let slices_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : S.slice) (y : S.slice) ->
         x.machine = y.machine && x.job = y.job && R.equal x.start y.start
         && R.equal x.stop y.stop)
       a b

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_parse () =
  let t =
    T.of_string
      "trace v1\n\
       machines 2\n\
       banks 2\n\
       # a comment\n\
       speed 1 3/2\n\
       bank 0 3800\n\
       bank 1 1900\n\
       holds 0 0 1\n\
       holds 1 1\n\
       req a 27/100 0 12\n\
       req b 0 1 3\n"
  in
  Alcotest.(check int) "machines" 2 (Array.length t.platform.W.speeds);
  Alcotest.(check rat) "default speed" R.one t.platform.W.speeds.(0);
  Alcotest.(check rat) "parsed speed" (R.of_ints 3 2) t.platform.W.speeds.(1);
  (* Entries come back sorted by arrival. *)
  Alcotest.(check (list string)) "sorted ids" [ "b"; "a" ]
    (List.map (fun (e : T.entry) -> e.id) t.entries)

let test_trace_roundtrip_example () =
  let t = T.poisson ~seed:42 ~rate:(1. /. 30.) ~count:12 () in
  let t' = T.of_string (T.to_string t) in
  Alcotest.(check bool) "roundtrip" true (trace_equal t t')

let prop_trace_roundtrip =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 9999 in
      let* machines = int_range 1 4 in
      let* banks = int_range 1 3 in
      let* replication = int_range 1 machines in
      let* count = int_range 1 10 in
      let* diurnal = bool in
      return
        (if diurnal then
           T.diurnal ~seed ~machines ~banks ~replication ~peak_rate:0.1 ~count ()
         else T.poisson ~seed ~machines ~banks ~replication ~rate:0.05 ~count ()))
  in
  QCheck.Test.make ~name:"trace text roundtrip" ~count:60
    (QCheck.make gen ~print:T.to_string)
    (fun t -> trace_equal t (T.of_string (T.to_string t)))

let test_trace_faults_roundtrip () =
  let base = T.poisson ~seed:9 ~rate:0.2 ~count:15 () in
  let t = T.with_faults ~seed:10 ~mtbf:30. ~mttr:5. base in
  Alcotest.(check bool) "has events" true (t.T.events <> []);
  (* Every failure is eventually recovered, machine by machine. *)
  let m = Array.length t.T.platform.W.speeds in
  let balance = Array.make m 0 in
  List.iter
    (fun (e : T.event) ->
      match e.fault with
      | T.Fail i -> balance.(i) <- balance.(i) + 1
      | T.Recover i -> balance.(i) <- balance.(i) - 1)
    t.T.events;
  Alcotest.(check bool) "fails and recovers balance" true
    (Array.for_all (fun b -> b = 0) balance);
  (* Events are sorted and survive the text round-trip. *)
  let sorted = ref true in
  ignore
    (List.fold_left
       (fun prev (e : T.event) ->
         if R.compare e.at prev < 0 then sorted := false;
         e.T.at)
       R.zero t.T.events);
  Alcotest.(check bool) "events sorted" true !sorted;
  Alcotest.(check bool) "roundtrip with events" true
    (trace_equal t (T.of_string (T.to_string t)))

let test_trace_errors () =
  let bad s =
    Alcotest.(check bool) ("rejects " ^ s) true
      (try
         ignore (T.of_string s);
         false
       with Invalid_argument _ -> true)
  in
  bad "";
  bad "machines 1\nbanks 1\nbank 0 10\nholds 0 0\n" (* missing header *);
  bad "trace v2\nmachines 1\nbanks 1\nbank 0 10\n";
  bad "trace v1\nbanks 1\nbank 0 10\n" (* no machines *);
  bad "trace v1\nmachines 1\nbanks 1\nholds 0 0\n" (* bank without size *);
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 1\n" (* bank index *);
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 2 0\n" (* machine index *);
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nreq a -1 0 5\n";
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nreq a 0 0 0\n";
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nreq a 0 0 5\nreq a 1 0 5\n";
  bad "trace v1\nmachines 2\nbanks 2\nbank 0 10\nbank 1 10\nholds 0 0\nreq a 0 1 5\n"
  (* bank 1 held nowhere *);
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nfrob\n";
  bad "trace v1\nmachines 1\nbanks 1\nspeed 0 0\nbank 0 10\nholds 0 0\n";
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nfail 5 1\n" (* machine *);
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nfail -1 0\n" (* time *);
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nrecover x 0\n";
  (* Redeclaring the dimensions would invalidate every index already
     checked against the old ones (a later bank/machine reference could
     then land out of bounds deep in the engine). *)
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nmachines 2\n";
  bad "trace v1\nmachines 1\nbanks 1\nbank 0 10\nholds 0 0\nreq a 0 0 2\nbanks 2\n";
  bad "trace v1\nmachines 2\nbanks 1\nbank 0 10\nholds 0 0\nfail 1 1\nmachines 1\n"

let test_trace_diurnal_shape () =
  let count = 200 in
  let t = T.diurnal ~seed:7 ~peak_rate:0.5 ~count () in
  Alcotest.(check int) "count" count (List.length t.entries);
  let arrivals = List.map (fun (e : T.entry) -> e.request.W.arrival) t.entries in
  let sorted = ref true in
  ignore
    (List.fold_left
       (fun prev a ->
         if R.compare a prev < 0 then sorted := false;
         a)
       R.zero arrivals);
  Alcotest.(check bool) "sorted" true !sorted;
  let ids = List.map (fun (e : T.entry) -> e.id) t.entries in
  Alcotest.(check int) "unique ids" count (List.length (List.sort_uniq compare ids))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_quantiles () =
  let reg = M.create () in
  let h = M.histogram reg "x" in
  (* 1..100 observed in a scrambled order. *)
  let values = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let rng = Gripps.Prng.create 3 in
  Gripps.Prng.shuffle rng values;
  Array.iter (M.observe h) values;
  Alcotest.(check int) "count" 100 (M.samples h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (M.hmin h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (M.hmax h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (M.mean h);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (M.quantile h 0.);
  Alcotest.(check (float 1e-9)) "p50" 50.5 (M.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p95" 95.05 (M.quantile h 0.95);
  Alcotest.(check (float 1e-9)) "p99" 99.01 (M.quantile h 0.99);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (M.quantile h 1.);
  (* Deciles of a uniform grid stay within a grid step of the ideal. *)
  for d = 1 to 9 do
    let q = float_of_int d /. 10. in
    let got = M.quantile h q in
    Alcotest.(check bool)
      (Printf.sprintf "p%d near ideal" (10 * d))
      true
      (Float.abs (got -. (q *. 100.)) <= 1.0)
  done

let test_metrics_registry () =
  let reg = M.create () in
  let c = M.counter reg "reqs" in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "counter" 5 (M.count c);
  Alcotest.(check bool) "same instrument" true (M.counter reg "reqs" == c);
  let g = M.gauge reg "depth" in
  M.set g 3.;
  M.set g 1.;
  Alcotest.(check (float 1e-9)) "gauge value" 1. (M.value g);
  Alcotest.(check (float 1e-9)) "gauge peak" 3. (M.peak g);
  (let h = M.histogram reg "lat" in
   M.observe h 1.5);
  let text = M.to_text reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("text mentions " ^ needle) true
        (contains text needle))
    [ "reqs"; "depth"; "lat" ];
  let json = M.to_json reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true
        (contains json needle))
    [ "\"reqs\":5"; "\"depth\""; "\"lat\""; "\"p95\"" ]

(* ------------------------------------------------------------------ *)
(* Engine vs. the plain simulator                                      *)
(* ------------------------------------------------------------------ *)

let policies : (module Online.Sim.POLICY) list =
  [ (module Online.Policies.Mct); (module Online.Policies.Fair);
    (module Online.Policies.Srpt); (module Online.Online_opt.Divisible) ]

let test_engine_matches_sim () =
  let trace = T.poisson ~seed:11 ~rate:(1. /. 40.) ~count:10 () in
  let inst = I.stretch_weights (T.to_instance trace) in
  List.iter
    (fun (module P : Online.Sim.POLICY) ->
      let sim = Online.Sim.run (module P) inst in
      let eng = E.replay ~policy:(module P) trace in
      let esched = E.schedule eng in
      check_valid ("engine " ^ P.name) esched;
      Alcotest.(check rat)
        (P.name ^ " same max stretch")
        (S.max_stretch sim.Online.Sim.schedule)
        (S.max_stretch esched);
      Alcotest.(check rat)
        (P.name ^ " same makespan")
        (S.makespan sim.Online.Sim.schedule)
        (S.makespan esched);
      let decisions = M.count (M.counter (E.metrics eng) "decisions") in
      Alcotest.(check int) (P.name ^ " same decision count") sim.Online.Sim.decisions
        decisions)
    policies

let test_engine_metrics_report () =
  let trace = T.poisson ~seed:5 ~rate:(1. /. 30.) ~count:8 () in
  let eng = E.replay ~policy:(module Online.Policies.Fair) trace in
  Alcotest.(check int) "all completed" 8 (E.completed eng);
  let reg = E.metrics eng in
  Alcotest.(check int) "submitted" 8 (M.count (M.counter reg "requests_submitted"));
  Alcotest.(check int) "completed" 8 (M.count (M.counter reg "requests_completed"));
  let h = M.histogram reg "stretch" in
  Alcotest.(check int) "stretch samples" 8 (M.samples h);
  (* Max stretch of the schedule is the largest stretch observation. *)
  let esched = E.schedule eng in
  Alcotest.(check (float 1e-6))
    "stretch max agrees with schedule"
    (R.to_float (S.max_stretch esched))
    (M.hmax h)

let test_engine_batching () =
  let trace = T.poisson ~seed:13 ~rate:(1. /. 5.) ~count:12 () in
  let plain = E.replay ~policy:(module Online.Policies.Fair) trace in
  let batched =
    E.replay ~batch_window:(R.of_int 30) ~policy:(module Online.Policies.Fair) trace
  in
  check_valid "batched" (E.schedule batched);
  Alcotest.(check int) "all completed" 12 (E.completed batched);
  let d reg = M.count (M.counter (E.metrics reg) "decisions") in
  Alcotest.(check bool) "fewer or equal decisions" true (d batched <= d plain);
  Alcotest.(check bool) "coalesced something" true
    (M.count (M.counter (E.metrics batched) "arrivals_coalesced") > 0)

let mini_platform () =
  (* Two unit-speed machines, each holding the single bank. *)
  {
    W.speeds = [| R.one; R.one |];
    bank_sizes = [| 380 |];
    has_bank = [| [| true |]; [| true |] |];
  }

let test_engine_live_submissions () =
  let clock = Serve.Clock.virtual_ () in
  let eng =
    E.create ~clock ~policy:(module Online.Policies.Srpt) (mini_platform ())
  in
  ignore (E.submit eng ~id:"a" ~arrival:R.zero ~bank:0 ~num_motifs:300 ());
  E.run_until eng R.one;
  Alcotest.(check int) "one active" 1 (E.active eng);
  (* Mid-flight submission: rebuilds the policy, extends the instance. *)
  ignore (E.submit eng ~id:"b" ~arrival:(E.now eng) ~bank:0 ~num_motifs:200 ());
  E.drain eng;
  Alcotest.(check int) "both completed" 2 (E.completed eng);
  check_valid "live" (E.schedule eng);
  Alcotest.(check bool) "rebuild counted" true
    (M.count (M.counter (E.metrics eng) "policy_rebuilds") >= 1);
  (* Duplicate ids and time travel are rejected. *)
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Engine.submit: duplicate request id \"a\"")
    (fun () -> ignore (E.submit eng ~id:"a" ~arrival:(E.now eng) ~bank:0 ~num_motifs:1 ()));
  Alcotest.(check bool) "past arrival rejected" true
    (try
       ignore (E.submit eng ~id:"c" ~arrival:R.zero ~bank:0 ~num_motifs:1 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Machine failures                                                    *)
(* ------------------------------------------------------------------ *)

(* The availability layer must be invisible while every machine is up:
   replaying any failure-free trace produces the simulator's schedule
   slice for slice. *)
let prop_failure_free_identity =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 9999 in
      let* machines = int_range 1 3 in
      let* banks = int_range 1 2 in
      let* replication = int_range 1 machines in
      let* count = int_range 1 6 in
      let* pi = int_range 0 3 in
      return (seed, machines, banks, replication, count, pi))
  in
  let print (seed, machines, banks, replication, count, pi) =
    Printf.sprintf "seed=%d m=%d b=%d r=%d n=%d policy=%d" seed machines banks
      replication count pi
  in
  QCheck.Test.make ~name:"failure-free replay is slice-identical to the simulator"
    ~count:40 (QCheck.make gen ~print)
    (fun (seed, machines, banks, replication, count, pi) ->
      let trace = T.poisson ~seed ~machines ~banks ~replication ~rate:0.1 ~count () in
      let policy = List.nth policies pi in
      let inst = I.stretch_weights (T.to_instance trace) in
      let sim = Online.Sim.run policy inst in
      let eng = E.replay ~policy trace in
      slices_equal
        (S.slices sim.Online.Sim.schedule)
        (S.slices (E.schedule eng)))

(* Two machines sharing one bank.  Machine 0 dies at t=1 and returns at
   t=3: everything still completes, the schedule stays legal, and no work
   is placed on machine 0 while it is down. *)
let test_fail_recover () =
  let clock = Serve.Clock.virtual_ () in
  let eng =
    E.create ~clock ~policy:(module Online.Policies.Fair) (mini_platform ())
  in
  ignore (E.submit eng ~id:"a" ~arrival:R.zero ~bank:0 ~num_motifs:300 ());
  ignore (E.submit eng ~id:"b" ~arrival:R.zero ~bank:0 ~num_motifs:200 ());
  E.inject eng ~at:R.one (T.Fail 0);
  E.inject eng ~at:(R.of_int 3) (T.Recover 0);
  E.run_until eng (R.of_int 2);
  Alcotest.(check bool) "machine 0 down at t=2" false (E.machine_up eng 0);
  Alcotest.(check int) "one machine up" 1 (E.machines_up eng);
  E.drain eng;
  Alcotest.(check bool) "machine 0 back up" true (E.machine_up eng 0);
  Alcotest.(check int) "both completed" 2 (E.completed eng);
  let sched = E.schedule eng in
  check_valid "fail/recover" sched;
  List.iter
    (fun (s : S.slice) ->
      if s.machine = 0 then
        Alcotest.(check bool) "no slice on machine 0 during its downtime" true
          (R.compare s.stop R.one <= 0 || R.compare s.start (R.of_int 3) >= 0))
    (S.slices sched);
  let reg = E.metrics eng in
  Alcotest.(check int) "failure counted" 1 (M.count (M.counter reg "machine_failures"));
  Alcotest.(check int) "recovery counted" 1
    (M.count (M.counter reg "machine_recoveries"))

(* Same failure, both lost-work regimes: [`Lost] drops the dead machine's
   in-flight slices (and redoes the work), [`Preserved] keeps them.  Both
   must still produce complete, legal schedules. *)
let test_lost_vs_preserved () =
  let run lost_work =
    let clock = Serve.Clock.virtual_ () in
    let eng =
      E.create ~lost_work ~clock ~policy:(module Online.Policies.Fair)
        (mini_platform ())
    in
    ignore (E.submit eng ~id:"a" ~arrival:R.zero ~bank:0 ~num_motifs:300 ());
    ignore (E.submit eng ~id:"b" ~arrival:R.zero ~bank:0 ~num_motifs:200 ());
    E.inject eng ~at:R.one (T.Fail 0);
    E.inject eng ~at:(R.of_int 3) (T.Recover 0);
    E.drain eng;
    Alcotest.(check int) "completed" 2 (E.completed eng);
    check_valid "lost-work schedule" (E.schedule eng);
    eng
  in
  let lost = run `Lost and preserved = run `Preserved in
  let lost_count e = M.count (M.counter (E.metrics e) "slices_lost") in
  Alcotest.(check bool) "lost run drops slices" true (lost_count lost > 0);
  Alcotest.(check int) "preserved run keeps everything" 0 (lost_count preserved);
  (* Redoing work can only delay completion. *)
  Alcotest.(check bool) "lost makespan >= preserved" true
    (R.compare (S.makespan (E.schedule lost)) (S.makespan (E.schedule preserved)) >= 0)

(* A job whose only capable machine goes down must surface as starved —
   drain terminates with it incomplete — and complete after a recovery. *)
let test_starvation () =
  let platform =
    (* Bank 0 lives only on machine 0; machine 1 only holds bank 1. *)
    {
      W.speeds = [| R.one; R.one |];
      bank_sizes = [| 380; 380 |];
      has_bank = [| [| true; false |]; [| false; true |] |];
    }
  in
  let clock = Serve.Clock.virtual_ () in
  let eng = E.create ~clock ~policy:(module Online.Policies.Mct) platform in
  ignore (E.submit eng ~id:"x" ~arrival:R.zero ~bank:0 ~num_motifs:300 ());
  E.inject eng ~at:R.one (T.Fail 0);
  E.drain eng;
  Alcotest.(check int) "nothing completed" 0 (E.completed eng);
  Alcotest.(check int) "one starved" 1 (E.starved eng);
  (* A request arriving while its bank is unreachable parks immediately. *)
  ignore (E.submit eng ~id:"y" ~arrival:(E.now eng) ~bank:0 ~num_motifs:100 ());
  E.drain eng;
  Alcotest.(check int) "still starved" 2 (E.starved eng);
  E.inject eng ~at:(E.now eng) (T.Recover 0);
  Alcotest.(check int) "unparked" 0 (E.starved eng);
  E.drain eng;
  Alcotest.(check int) "completed after recovery" 2 (E.completed eng);
  check_valid "starvation schedule" (E.schedule eng)

let test_metrics_json_nonfinite () =
  let reg = M.create () in
  let g = M.gauge reg "weird" in
  M.set g infinity;
  let h = M.histogram reg "h" in
  M.observe h neg_infinity;
  M.observe h nan;
  let json = M.to_json reg in
  Alcotest.(check bool) "no bare inf" false (contains json "inf");
  Alcotest.(check bool) "no bare nan" false (contains json "nan");
  Alcotest.(check bool) "nulls instead" true (contains json "null")

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

module A = Serve.Admission

(* Canonical textual engine state with the admission valve's own
   instruments (the "admission." registry entries) filtered out: the
   transparency claims below are about the engine, not about whether a
   valve happened to be doing its bookkeeping in front of it. *)
let canonical_dump ~platform eng =
  let st = E.dump eng in
  let st =
    {
      st with
      E.st_metrics =
        List.filter
          (fun (k, _) -> not (String.starts_with ~prefix:"admission." k))
          st.E.st_metrics;
    }
  in
  Serve.Snapshot.state_to_string ~seq:0 ~platform st

(* Feed a failure-free trace through an engine — directly, or through an
   uncapped admission valve with the given coalescing window — and drain. *)
let run_stream ?window ~policy (trace : T.t) =
  let eng = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy trace.platform in
  let valve =
    Option.map
      (fun window -> A.create ~config:{ A.default_config with window } eng)
      window
  in
  List.iter
    (fun (e : T.entry) ->
      E.run_until eng e.request.W.arrival;
      match valve with
      | None ->
        ignore
          (E.submit eng ~id:e.id ~arrival:(E.now eng) ~bank:e.request.W.bank
             ~num_motifs:e.request.W.num_motifs ())
      | Some a -> (
        A.poll a;
        match
          A.submit a ~id:e.id ~bank:e.request.W.bank
            ~num_motifs:e.request.W.num_motifs ()
        with
        | A.Admitted _ -> ()
        | A.Shed _ -> Alcotest.fail "uncapped valve shed a request"))
    trace.entries;
  E.drain eng;
  eng

let completed_ids (trace : T.t) eng =
  List.filter_map
    (fun (e : T.entry) ->
      match E.find eng e.id with
      | Some j when E.job_completed eng j -> Some e.id
      | Some _ | None -> None)
    trace.entries

(* Batching is a latency/efficiency trade, not a semantic one: for any
   window the valve completes exactly the same request set as an
   unbatched run, with fewer (or equal) policy consultations; and the
   degenerate zero-window valve is bit-identical — state and engine
   metrics — to no valve at all. *)
let prop_batched_matches_unbatched =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 9999 in
      let* machines = int_range 1 3 in
      let* banks = int_range 1 2 in
      let* replication = int_range 1 machines in
      let* count = int_range 1 8 in
      let* window_tenths = int_range 1 400 in
      let* pi = int_range 0 2 in
      return (seed, machines, banks, replication, count, window_tenths, pi))
  in
  let print (seed, machines, banks, replication, count, w, pi) =
    Printf.sprintf "seed=%d m=%d b=%d r=%d n=%d window=%d/10 policy=%d" seed
      machines banks replication count w pi
  in
  QCheck.Test.make
    ~name:"any-window valve completes the unbatched set; zero-window is invisible"
    ~count:25 (QCheck.make gen ~print)
    (fun (seed, machines, banks, replication, count, w, pi) ->
      let trace = T.poisson ~seed ~machines ~banks ~replication ~rate:0.2 ~count () in
      let policy = List.nth policies pi in
      let direct = run_stream ~policy trace in
      let unbatched = run_stream ~window:R.zero ~policy trace in
      let batched = run_stream ~window:(R.of_ints w 10) ~policy trace in
      check_valid "unbatched schedule" (E.schedule unbatched);
      check_valid "batched schedule" (E.schedule batched);
      let platform = trace.platform in
      let decisions e = M.count (M.counter (E.metrics e) "decisions") in
      canonical_dump ~platform direct = canonical_dump ~platform unbatched
      && completed_ids trace batched = completed_ids trace unbatched
      && E.completed batched = count
      && decisions batched <= decisions unbatched)

let test_admission_shed () =
  let eng =
    E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct)
      (mini_platform ())
  in
  let adm = A.create ~config:{ A.default_config with max_inflight = 2 } eng in
  let admit id motifs =
    match A.submit adm ~id ~bank:0 ~num_motifs:motifs () with
    | A.Admitted _ -> true
    | A.Shed _ -> false
  in
  Alcotest.(check bool) "first admitted" true (admit "a" 10);
  Alcotest.(check bool) "second admitted" true (admit "b" 10);
  Alcotest.(check int) "two in flight" 2 (A.inflight adm);
  (match A.submit adm ~id:"c" ~bank:0 ~num_motifs:10 () with
   | A.Shed { retry_after } ->
     Alcotest.(check bool) "positive retry hint" true (R.sign retry_after > 0)
   | A.Admitted _ -> Alcotest.fail "over-cap submit admitted");
  (* Shedding is refusal at the door: the request never reached the
     engine (or the WAL), so its id is still free. *)
  Alcotest.(check int) "engine saw two" 2 (E.submitted eng);
  Alcotest.(check bool) "shed id unknown to engine" true (E.find eng "c" = None);
  Alcotest.(check int) "shed counted" 1
    (M.count (M.counter (E.metrics eng) "admission.sheds"));
  (* Completions retire in-flight entries and reopen the door. *)
  E.drain eng;
  Alcotest.(check int) "drained valve" 0 (A.inflight adm);
  Alcotest.(check bool) "admitted after drain" true (admit "c" 10);
  E.drain eng;
  Alcotest.(check int) "all three done" 3 (E.completed eng)

let test_admission_per_client () =
  let eng =
    E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct)
      (mini_platform ())
  in
  let adm = A.create ~config:{ A.default_config with max_per_client = 1 } eng in
  let reply ?client id =
    A.submit adm ?client ~id ~bank:0 ~num_motifs:10 ()
  in
  Alcotest.(check bool) "alice admitted" true
    (match reply ~client:"alice" "a" with A.Admitted _ -> true | A.Shed _ -> false);
  Alcotest.(check bool) "alice capped" true
    (match reply ~client:"alice" "b" with A.Shed _ -> true | A.Admitted _ -> false);
  Alcotest.(check bool) "bob unaffected" true
    (match reply ~client:"bob" "b" with A.Admitted _ -> true | A.Shed _ -> false);
  Alcotest.(check int) "alice in flight" 1 (A.inflight_for adm "alice");
  Alcotest.(check int) "bob in flight" 1 (A.inflight_for adm "bob");
  Alcotest.(check int) "global in flight" 2 (A.inflight adm);
  E.drain eng;
  Alcotest.(check bool) "alice readmitted after drain" true
    (match reply ~client:"alice" "c" with A.Admitted _ -> true | A.Shed _ -> false)

(* Under [`Smallest], pressure at the global cap still admits a request
   strictly smaller than the largest in-flight one, up to 125% of the
   cap; under [`Fifo] the cap is the cap. *)
let test_admission_smallest_priority () =
  let run priority =
    let eng =
      E.create ~clock:(Serve.Clock.virtual_ ())
        ~policy:(module Online.Policies.Mct) (mini_platform ())
    in
    let adm =
      A.create ~config:{ A.default_config with max_inflight = 2; priority } eng
    in
    let admit id motifs =
      match A.submit adm ~id ~bank:0 ~num_motifs:motifs () with
      | A.Admitted _ -> true
      | A.Shed _ -> false
    in
    Alcotest.(check bool) "whale 1" true (admit "w1" 50);
    Alcotest.(check bool) "whale 2" true (admit "w2" 40);
    (adm, admit)
  in
  let _, admit = run `Smallest in
  Alcotest.(check bool) "larger than largest shed" false (admit "big" 60);
  Alcotest.(check bool) "tie with largest shed" false (admit "tie" 50);
  Alcotest.(check bool) "small fry overflows" true (admit "s1" 10);
  Alcotest.(check bool) "overflow is bounded at 125%" false (admit "s2" 5);
  let _, admit = run `Fifo in
  Alcotest.(check bool) "fifo sheds even the small fry" false (admit "s1" 10)

(* Decision caching.  A live submission discards the policy runner but
   keeps the validated plan, so the re-decide at the next completion
   happens at a rebuild barrier — exactly where the cache may answer.
   Two episodes with identical workload shapes (and a far-future
   submission to create the barrier) make the second episode's barrier
   decide a cache hit, by time-translation equivariance of the policies. *)
let cache_episode eng tag t0 =
  ignore (E.submit eng ~id:(tag ^ "-a") ~arrival:t0 ~bank:0 ~num_motifs:10 ());
  ignore (E.submit eng ~id:(tag ^ "-b") ~arrival:t0 ~bank:0 ~num_motifs:20 ());
  E.run_until eng t0;
  ignore
    (E.submit eng ~id:(tag ^ "-z")
       ~arrival:(R.add t0 (R.of_int 1_000_000))
       ~bank:0 ~num_motifs:5 ());
  E.drain eng

let test_decision_cache_hits () =
  let eng =
    E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct)
      (mini_platform ())
  in
  E.set_decision_cache eng true;
  let c name = M.count (M.counter (E.metrics eng) name) in
  (* t0 = 1, not 0: the episode's arrival fire must be a real clock
     advance so both episodes decide through the same sequence of
     barriers. *)
  cache_episode eng "one" R.one;
  Alcotest.(check bool) "first episode misses" true (c "decision_cache_misses" > 0);
  Alcotest.(check int) "no hits yet" 0 (c "decision_cache_hits");
  cache_episode eng "two" (R.add (E.now eng) (R.of_int 100));
  Alcotest.(check bool) "recurring shape hits" true (c "decision_cache_hits" > 0);
  Alcotest.(check int) "all six completed" 6 (E.completed eng);
  check_valid "cached schedule" (E.schedule eng)

(* A fail/recover cycle that returns to the very same overlay must still
   re-consult the policy: the disruption purges the cache eagerly, so the
   second episode's barrier decide is a miss, not a resurrected plan. *)
let test_decision_cache_invalidation () =
  let eng =
    E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct)
      (mini_platform ())
  in
  E.set_decision_cache eng true;
  let c name = M.count (M.counter (E.metrics eng) name) in
  cache_episode eng "one" R.one;
  let misses_before = c "decision_cache_misses" in
  E.inject eng ~at:(E.now eng) (T.Fail 0);
  E.inject eng ~at:(E.now eng) (T.Recover 0);
  cache_episode eng "two" (R.add (E.now eng) (R.of_int 100));
  Alcotest.(check int) "no hits across the disruption" 0 (c "decision_cache_hits");
  Alcotest.(check bool) "second episode re-decided" true
    (c "decision_cache_misses" > misses_before);
  Alcotest.(check int) "all six completed" 6 (E.completed eng);
  check_valid "invalidated schedule" (E.schedule eng)

(* ------------------------------------------------------------------ *)
(* Server protocol                                                     *)
(* ------------------------------------------------------------------ *)

let test_server_protocol () =
  let clock = Serve.Clock.virtual_ () in
  let eng = E.create ~clock ~policy:(module Online.Policies.Fair) (mini_platform ()) in
  let srv = Serve.Server.create eng in
  let expect_last ?(verdict = `Continue) cmd prefix =
    let replies, v = Serve.Server.handle_line srv cmd in
    Alcotest.(check bool) (cmd ^ " verdict") true (v = verdict);
    match List.rev replies with
    | [] -> Alcotest.fail (cmd ^ ": no reply")
    | last :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s (got %s)" cmd prefix last)
        true
        (String.length last >= String.length prefix
        && String.sub last 0 (String.length prefix) = prefix)
  in
  expect_last "status" "ok now=0 submitted=0";
  expect_last "submit r1 0 10" "ok submitted r1 job=0";
  expect_last "submit r2 0 5" "ok submitted r2 job=1";
  expect_last "submit r2 0 5" "err bad_request";
  expect_last "submit r3 9 5" "err bad_request";
  expect_last "submit r3 9" "err usage" (* wrong arity *);
  expect_last "tick 1" "ok now=1";
  expect_last "status" "ok now=1 submitted=2";
  expect_last "fail 0" "ok machine 0 down up=1/2";
  expect_last "status" "ok now=1 submitted=2 active=2 completed=0 up=1/2";
  expect_last "fail 0" "ok machine 0 down up=1/2" (* idempotent *);
  expect_last "fail 7" "err bad_request";
  expect_last "fail" "err usage" (* wrong arity *);
  expect_last "recover 0" "ok machine 0 up up=2/2";
  expect_last "metrics" "ok";
  expect_last "drain" "ok drained";
  expect_last "nonsense" "err unknown_command";
  expect_last "help" "ok";
  (let replies, _ = Serve.Server.handle_line srv "metrics json" in
   match replies with
   | [ json; "ok" ] ->
     Alcotest.(check bool) "json has completed counter" true
       (contains json "\"requests_completed\":2")
   | _ -> Alcotest.fail "metrics json shape");
  expect_last ~verdict:`Quit "quit" "ok bye";
  check_valid "server schedule" (E.schedule eng)

(* The same protocol unit, with an admission valve in front: submits are
   acknowledged with their coalesced arrival date and shed with a
   machine-parseable retry hint. *)
let test_server_admission () =
  let clock = Serve.Clock.virtual_ () in
  let eng =
    E.create ~clock ~policy:(module Online.Policies.Mct) (mini_platform ())
  in
  let adm =
    A.create
      ~config:{ A.default_config with window = R.of_int 5; max_inflight = 1 }
      eng
  in
  let srv = Serve.Server.create ~admission:adm eng in
  let last cmd =
    match List.rev (fst (Serve.Server.handle_line srv cmd)) with
    | last :: _ -> last
    | [] -> Alcotest.fail (cmd ^ ": no reply")
  in
  Alcotest.(check string) "coalesced ack" "ok submitted r1 job=0 fires_at=5"
    (last "submit r1 0 10");
  Alcotest.(check string) "shed with retry hint" "err shed retry_after=10"
    (last "submit r2 0 10");
  let drained = last "drain" in
  Alcotest.(check bool) ("drained: " ^ drained) true
    (contains drained "completed=1");
  let reopened = last "submit r2 0 10" in
  Alcotest.(check bool) ("door reopens: " ^ reopened) true
    (String.starts_with ~prefix:"ok submitted r2 job=1 fires_at=" reopened)

(* The door rejects malformed submissions before they reach the valve or
   the engine: a negative bank or non-positive motif count is a protocol
   error ([err bad_request]), never a shed — previously such requests at
   full load were counted against capacity and answered [err shed],
   polluting the shed statistics and inviting pointless retries. *)
let test_server_door_validation () =
  let clock = Serve.Clock.virtual_ () in
  let eng = E.create ~clock ~policy:(module Online.Policies.Mct) (mini_platform ()) in
  let adm = A.create ~config:{ A.default_config with max_inflight = 1 } eng in
  let srv = Serve.Server.create ~admission:adm eng in
  let last cmd =
    match List.rev (fst (Serve.Server.handle_line srv cmd)) with
    | last :: _ -> last
    | [] -> Alcotest.fail (cmd ^ ": no reply")
  in
  let expect_bad cmd =
    let reply = last cmd in
    Alcotest.(check bool)
      (Printf.sprintf "%s -> err bad_request (got %s)" cmd reply)
      true
      (String.starts_with ~prefix:"err bad_request" reply)
  in
  expect_bad "submit r1 -1 5";
  expect_bad "submit r1 0 0";
  expect_bad "submit r1 0 -3";
  expect_bad "fail -1";
  expect_bad "recover -2";
  (* Fill the valve, then submit garbage: still a protocol error, not a
     shed, and the shed counter stays untouched. *)
  Alcotest.(check bool) "valve admits r1" true
    (String.starts_with ~prefix:"ok submitted r1" (last "submit r1 0 10"));
  Alcotest.(check bool) "valve at capacity sheds r2" true
    (String.starts_with ~prefix:"err shed" (last "submit r2 0 10"));
  let sheds_before = M.count (M.counter (E.metrics eng) "admission.sheds") in
  expect_bad "submit r3 -1 5";
  expect_bad "submit r3 0 0";
  Alcotest.(check int) "malformed submits are not counted as sheds" sheds_before
    (M.count (M.counter (E.metrics eng) "admission.sheds"));
  Alcotest.(check int) "engine saw only the valid submit" 1 (E.submitted eng)

(* Protocol-grammar lint: every reply the implementation can emit must
   use a registered shape.  Scans the [okf]/[errf] call sites in
   server.ml (declared as a dune dep of this test) against the published
   [error_codes]/[ok_heads] lists — the machine-checkable half of the
   proto=2 contract. *)
let test_protocol_grammar_lint () =
  let src =
    (* dune runtest runs in test/, dune exec from the workspace root. *)
    let path =
      List.find Sys.file_exists
        [ "../lib/serve/server.ml"; "lib/serve/server.ml" ]
    in
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* Positions right after each occurrence of [marker]; the marker ends
     with the opening quote of a string literal (no call site in
     server.ml escapes quotes inside these literals). *)
  let literals_after marker =
    let ml = String.length marker in
    let rec go i acc =
      if i + ml > String.length src then List.rev acc
      else if String.sub src i ml = marker then begin
        let stop = String.index_from src (i + ml) '"' in
        go stop (String.sub src (i + ml) (stop - i - ml) :: acc)
      end
      else go (i + 1) acc
    in
    go 0 []
  in
  let ok_fmts = literals_after "okf \"" in
  let err_codes = literals_after "errf \"" in
  Alcotest.(check bool) "found ok call sites" true (List.length ok_fmts >= 8);
  Alcotest.(check bool) "found err call sites" true (List.length err_codes >= 8);
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "errf %S uses a registered code" code)
        true
        (List.mem code Serve.Server.error_codes))
    err_codes;
  List.iter
    (fun fmt ->
      let head =
        match String.index_opt fmt ' ' with
        | Some i -> String.sub fmt 0 i
        | None -> fmt
      in
      Alcotest.(check bool)
        (Printf.sprintf "okf %S starts with a registered head" fmt)
        true
        (List.exists
           (fun h -> String.starts_with ~prefix:h head)
           Serve.Server.ok_heads))
    ok_fmts

let test_server_tick_guard () =
  let eng =
    E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Fair)
      (mini_platform ())
  in
  let srv = Serve.Server.create eng in
  let last cmd =
    match List.rev (fst (Serve.Server.handle_line srv cmd)) with
    | last :: _ -> last
    | [] -> Alcotest.fail (cmd ^ ": no reply")
  in
  let rejected cmd =
    Alcotest.(check bool) (cmd ^ " rejected") true
      (String.length (last cmd) >= 3 && String.sub (last cmd) 0 3 = "err");
    Alcotest.(check rat) (cmd ^ " left time alone") R.zero (E.now eng)
  in
  (* inf satisfies [> 0.]; without the finiteness guard it would become an
     engine date. *)
  rejected "tick inf";
  rejected "tick infinity";
  rejected "tick nan";
  rejected "tick -1";
  rejected "tick 0";
  rejected "tick bogus";
  Alcotest.(check string) "finite tick works" "ok now=2" (last "tick 2")

(* A wall clock whose source steps backwards (NTP) must stay monotonic,
   and advance_to must not oversleep chasing the stepped-back source. *)
let test_clock_monotonic () =
  let t = ref 100. in
  let clock = Serve.Clock.wall_with ~now:(fun () -> !t) ~sleep:(fun _ -> ()) () in
  let a = Serve.Clock.now clock in
  t := 50.;
  let b = Serve.Clock.now clock in
  Alcotest.(check bool) "never regresses" true (b >= a);
  t := 60.;
  Alcotest.(check (float 1e-9)) "resumes from the high-water mark" (b +. 10.)
    (Serve.Clock.now clock)

let test_clock_bounded_sleep () =
  (* Every sleep is undermined by a 3 s backwards step of the raw source:
     the un-credited retry loop would sleep forever (each pass still sees
     3 s missing); the offset-crediting clock finishes after sleeping the
     requested duration once. *)
  let t = ref 0. in
  let total = ref 0. in
  let clock =
    Serve.Clock.wall_with
      ~now:(fun () -> !t)
      ~sleep:(fun dt ->
        total := !total +. dt;
        if !total > 100. then Alcotest.fail "unbounded oversleep";
        t := !t +. dt -. 3.)
      ()
  in
  let start = Serve.Clock.now clock in
  Serve.Clock.advance_to clock (start +. 5.);
  Alcotest.(check bool) "reached the target" true (Serve.Clock.now clock >= start +. 5.);
  Alcotest.(check bool) "slept roughly the requested duration" true (!total <= 5. +. 1e-9)

(* The engine-side twin of the tick guard: a deranged wall clock must not
   become an engine date via catch_up. *)
let test_engine_catch_up_guard () =
  let t = ref 100. in
  let clock = Serve.Clock.wall_with ~now:(fun () -> !t) ~sleep:(fun _ -> ()) () in
  let eng =
    E.create ~clock ~policy:(module Online.Policies.Fair) (mini_platform ())
  in
  ignore (E.submit eng ~id:"a" ~arrival:R.zero ~bank:0 ~num_motifs:10 ());
  t := infinity;
  E.catch_up eng;
  Alcotest.(check rat) "infinite clock ignored" R.zero (E.now eng);
  t := 103.;
  E.catch_up eng;
  Alcotest.(check rat) "finite clock resumes" (R.of_int 3) (E.now eng)

(* ------------------------------------------------------------------ *)
(* Derived engine state                                                *)
(* ------------------------------------------------------------------ *)

(* The engine keeps its instances, live-job set and pending-arrival queue
   incrementally.  After every command of a random script, each must agree
   with a from-scratch computation over the dumped jobs: the instances
   with [Instance.make] (masked under the current overlay), the counts
   with a full scan of the job flags. *)
type derived_op =
  | D_submit of int * int * int  (* bank, motifs, arrival delay in cs *)
  | D_tick of int
  | D_fault of T.fault
  | D_later of int * T.fault  (* a fault injected this many cs ahead *)
  | D_drain

let derived_platform () =
  (* Machine 2 alone holds bank 0: failing it parks bank-0 requests. *)
  {
    W.speeds = [| R.one; R.of_ints 3 2; R.of_int 2 |];
    bank_sizes = [| 100; 200 |];
    has_bank = [| [| false; true |]; [| false; true |]; [| true; true |] |];
  }

let scratch_instance platform (st : E.state) =
  let jobs = Array.of_list st.st_jobs in
  let columns =
    Array.map
      (fun (js : E.job_state) ->
        W.cost_column platform
          { W.arrival = js.js_arrival; bank = js.js_bank; num_motifs = js.js_num_motifs })
      jobs
  in
  let weights =
    Array.map
      (fun column ->
        R.inv (Array.fold_left (fun acc c -> match c with Some c -> R.min acc c | None -> acc)
                 (Option.get (Array.find_map Fun.id column)) column))
      columns
  in
  I.make ~releases:(Array.map (fun (js : E.job_state) -> js.js_arrival) jobs) ~weights
    (Array.init (Array.length platform.W.speeds) (fun i -> Array.map (fun c -> c.(i)) columns))

let prop_derived_state =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 5,
            map3
              (fun b m d -> D_submit (b, m, d))
              (int_bound 1) (int_range 1 30)
              (frequency [ (2, return 0); (1, int_range 1 500) ]) );
          (3, map (fun cs -> D_tick cs) (int_range 1 400));
          (1, map (fun i -> D_fault (T.Fail i)) (int_bound 2));
          (1, map (fun i -> D_fault (T.Recover i)) (int_bound 2));
          (1, map2 (fun d i -> D_later (d, T.Recover i)) (int_range 1 300) (int_bound 2));
          (1, return D_drain);
        ])
  in
  let gen =
    QCheck.Gen.(
      triple (list_size (int_range 1 30) gen_op) (int_bound 2) (oneofl [ 0; 50 ]))
  in
  let print (ops, pi, window) =
    let op = function
      | D_submit (b, m, d) -> Printf.sprintf "submit(%d,%d,+%d)" b m d
      | D_tick cs -> Printf.sprintf "tick(%d)" cs
      | D_fault (T.Fail i) -> Printf.sprintf "fail(%d)" i
      | D_fault (T.Recover i) -> Printf.sprintf "recover(%d)" i
      | D_later (d, T.Fail i) -> Printf.sprintf "fail(%d)@+%d" i d
      | D_later (d, T.Recover i) -> Printf.sprintf "recover(%d)@+%d" i d
      | D_drain -> "drain"
    in
    Printf.sprintf "policy %d, window %dcs: [%s]" pi window
      (String.concat "; " (List.map op ops))
  in
  QCheck.Test.make ~count:60 ~name:"incremental instances and job counts match a full rebuild"
    (QCheck.make ~print gen)
    (fun (ops, pi, window) ->
      let platform = derived_platform () in
      let eng =
        E.create ~batch_window:(R.of_ints window 100) ~clock:(Serve.Clock.virtual_ ())
          ~policy:(List.nth policies pi) platform
      in
      let counter = ref 0 in
      let cs n = R.of_ints n 100 in
      let check () =
        let st = E.dump eng in
        let count p = List.length (List.filter p st.st_jobs) in
        let live (js : E.job_state) = js.js_arrived && js.js_completed_at = None in
        E.instance eng = scratch_instance platform st
        && E.active eng = count live
        && E.starved eng = count (fun js -> live js && js.js_parked)
        && E.schedulable eng = count (fun js -> live js && not js.js_parked)
      in
      List.for_all
        (fun op ->
          (match op with
           | D_submit (bank, motifs, delay) ->
             incr counter;
             ignore
               (E.submit eng ~id:(Printf.sprintf "r%d" !counter)
                  ~arrival:(R.add (E.now eng) (cs delay)) ~bank ~num_motifs:motifs ())
           | D_tick n -> E.run_until eng (R.add (E.now eng) (cs n))
           | D_fault f -> E.inject eng ~at:(E.now eng) f
           | D_later (d, f) -> E.inject eng ~at:(R.add (E.now eng) (cs d)) f
           | D_drain -> E.drain eng);
          check ())
        ops)

(* ------------------------------------------------------------------ *)
(* Recorded schedules under faults                                     *)
(* ------------------------------------------------------------------ *)

(* Every policy, under machine failures, to the bit: one line per run
   with its decision count and the MD5 of every slice (machine, job,
   start, stop, chronological) and every job's completion date.  Two
   sets of runs: the traces of [dlsched trace --requests 20 --rate 0.1
   --faults --mtbf 40 --mttr 8] at seeds 1-6, replayed under both
   lost-work modes with a zero and a 5 s batch window; and the generated
   serve scripts of seeds 1-50, driven live with the decision cache
   armed.  The rebuild counters are left out on
   purpose: how a policy state reaches a decision is free, the decision
   is not.  To re-record after an intended change of results: run the
   test, then copy _build/default/test/fault_replay_schedules.actual over
   test/fixtures/fault_replay_schedules.digest. *)
let run_digest eng =
  let st = E.dump eng in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (sl : S.slice) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %s %s\n" sl.machine sl.job (R.to_string sl.start)
           (R.to_string sl.stop)))
    st.E.st_slices;
  List.iter
    (fun (js : E.job_state) ->
      Buffer.add_string buf
        (Printf.sprintf "done %s\n"
           (match js.js_completed_at with Some t -> R.to_string t | None -> "none")))
    st.E.st_jobs;
  Printf.sprintf "decisions=%d %s"
    (M.count (M.counter (E.metrics eng) "decisions"))
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let fault_schedule_lines () =
  let replays =
    List.concat_map
      (fun seed ->
        let trace =
          T.with_faults ~seed:(seed + 1) ~mtbf:40. ~mttr:8.
            (T.poisson ~seed ~rate:0.1 ~count:20 ())
        in
        List.concat_map
          (fun (module P : Online.Sim.POLICY) ->
            List.concat_map
              (fun lost_work ->
                List.map
                  (fun window ->
                    let eng =
                      E.replay ~batch_window:(R.of_int window) ~lost_work
                        ~policy:(module P) trace
                    in
                    Printf.sprintf "replay %s seed=%d %s window=%d %s" P.name seed
                      (match lost_work with `Lost -> "lost" | `Preserved -> "preserved")
                      window (run_digest eng))
                  [ 0; 5 ])
              [ `Lost; `Preserved ])
          Online.Compare.all_policies)
      (List.init 6 (fun k -> k + 1))
  in
  let live =
    List.concat_map
      (fun seed ->
        let script = Check.Gen.script (Gripps.Prng.create seed) in
        List.map
          (fun (module P : Online.Sim.POLICY) ->
            let eng =
              E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module P)
                script.Check.Gen.platform
            in
            E.set_decision_cache eng true;
            List.iter (Check.Gen.apply eng (ref 0)) script.Check.Gen.ops;
            Printf.sprintf "live %s seed=%d cache %s" P.name seed (run_digest eng))
          Online.Compare.all_policies)
      (List.init 50 (fun k -> k + 1))
  in
  replays @ live

let test_fault_schedule_fixture () =
  Fixture.check ~fixture:"fixtures/fault_replay_schedules.digest"
    ~actual:"fault_replay_schedules.actual" (fault_schedule_lines ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [ ( "trace",
        [ Alcotest.test_case "parse" `Quick test_trace_parse;
          Alcotest.test_case "roundtrip example" `Quick test_trace_roundtrip_example;
          Alcotest.test_case "faults roundtrip" `Quick test_trace_faults_roundtrip;
          Alcotest.test_case "errors" `Quick test_trace_errors;
          Alcotest.test_case "diurnal shape" `Quick test_trace_diurnal_shape;
          QCheck_alcotest.to_alcotest prop_trace_roundtrip
        ] );
      ( "metrics",
        [ Alcotest.test_case "quantiles" `Quick test_metrics_quantiles;
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "non-finite json" `Quick test_metrics_json_nonfinite
        ] );
      ( "engine",
        [ Alcotest.test_case "matches simulator" `Quick test_engine_matches_sim;
          Alcotest.test_case "metrics report" `Quick test_engine_metrics_report;
          Alcotest.test_case "batching" `Quick test_engine_batching;
          Alcotest.test_case "live submissions" `Quick test_engine_live_submissions;
          Alcotest.test_case "catch-up guard" `Quick test_engine_catch_up_guard;
          QCheck_alcotest.to_alcotest prop_derived_state
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic wall" `Quick test_clock_monotonic;
          Alcotest.test_case "bounded sleep" `Quick test_clock_bounded_sleep
        ] );
      ( "faults",
        [ QCheck_alcotest.to_alcotest prop_failure_free_identity;
          Alcotest.test_case "fail and recover" `Quick test_fail_recover;
          Alcotest.test_case "lost vs preserved work" `Quick test_lost_vs_preserved;
          Alcotest.test_case "starvation" `Quick test_starvation;
          Alcotest.test_case "schedules match the fixture" `Quick
            test_fault_schedule_fixture
        ] );
      ( "admission",
        [ QCheck_alcotest.to_alcotest prop_batched_matches_unbatched;
          Alcotest.test_case "global shed" `Quick test_admission_shed;
          Alcotest.test_case "per-client shed" `Quick test_admission_per_client;
          Alcotest.test_case "smallest priority" `Quick
            test_admission_smallest_priority;
          Alcotest.test_case "cache hits" `Quick test_decision_cache_hits;
          Alcotest.test_case "cache invalidation" `Quick
            test_decision_cache_invalidation
        ] );
      ( "server",
        [ Alcotest.test_case "protocol" `Quick test_server_protocol;
          Alcotest.test_case "admission valve" `Quick test_server_admission;
          Alcotest.test_case "door validation" `Quick test_server_door_validation;
          Alcotest.test_case "grammar lint" `Quick test_protocol_grammar_lint;
          Alcotest.test_case "tick guard" `Quick test_server_tick_guard
        ] )
    ]
