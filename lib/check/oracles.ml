module Rat = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module MF = Sched_core.Max_flow
module E = Serve.Engine
module Snap = Serve.Snapshot

type outcome = Pass | Fail of string

type t =
  | Offline of string * (aux:int -> I.t -> outcome)
  | Serve of string * (aux:int -> Gen.script -> outcome)

let name = function Offline (n, _) | Serve (n, _) -> n

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt
let of_result = function Ok () -> Pass | Error m -> Fail m
let ( &&& ) a b = match a with Pass -> b () | Fail _ -> a

(* --- bit-identity plumbing -------------------------------------------- *)

let slices_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : S.slice) (y : S.slice) ->
         x.machine = y.machine && x.job = y.job && Rat.equal x.start y.start
         && Rat.equal x.stop y.stop)
       a b

let same_maxflow a b =
  match (a, b) with
  | `Trivial _, `Trivial _ -> Pass
  | `Solved (ra : MF.result), `Solved (rb : MF.result) ->
    if not (Rat.equal ra.objective rb.objective) then
      failf "objectives differ: %s vs %s" (Rat.to_string ra.objective)
        (Rat.to_string rb.objective)
    else if not (slices_equal (S.slices ra.schedule) (S.slices rb.schedule)) then
      Fail "equal objectives but different schedules"
    else begin
      let alo, ahi = ra.search_range and blo, bhi = rb.search_range in
      if not (Rat.equal alo blo && Rat.equal ahi bhi) then
        Fail "search ranges differ"
      else Pass
    end
  | _ -> Fail "one path trivial, the other solved"

(* --- offline oracles -------------------------------------------------- *)

(* The validator itself: every solved case satisfies the paper's
   invariants as re-checked by lib/check, not just by lib/core. *)
let validator ~aux:_ inst =
  match MF.solve_total inst with
  | `Trivial sched -> of_result (Invariants.divisible sched)
  | `Solved r -> of_result (Invariants.solution ~objective:r.objective r.schedule)

let dense_vs_sparse ~aux:_ inst =
  same_maxflow (Oracle.with_dense (fun () -> MF.solve_total inst)) (MF.solve_total inst)

let exact_vs_accelerated ~aux:_ inst =
  same_maxflow (MF.solve_total ~accelerate:false inst) (MF.solve_total ~accelerate:true inst)

let preemptive_vs_divisible ~aux:_ inst =
  match (Sched_core.Preemptive.solve_total inst, MF.solve_total inst) with
  | `Trivial _, `Trivial _ -> Pass
  | `Solved (pr : Sched_core.Preemptive.result), `Solved (dr : MF.result) ->
    if Rat.compare pr.objective dr.objective < 0 then
      failf "preemptive optimum %s beats its divisible relaxation %s"
        (Rat.to_string pr.objective) (Rat.to_string dr.objective)
    else
      of_result (Invariants.preemptive pr.schedule)
      &&& fun () ->
      of_result (Invariants.objective_consistent ~objective:pr.objective pr.schedule)
      &&& fun () ->
      of_result (Invariants.deadlines_met ~objective:pr.objective pr.schedule)
  | _ -> Fail "preemptive and divisible disagree on triviality"

let makespan_oracle ~aux:_ inst =
  match Sched_core.Makespan.solve_total inst with
  | `Trivial _ -> Pass
  | `Solved (r : Sched_core.Makespan.result) ->
    let recomputed =
      List.fold_left
        (fun acc (s : S.slice) -> Rat.max acc s.stop)
        Rat.zero (S.slices r.schedule)
    in
    if not (Rat.equal recomputed r.makespan) then
      failf "reported makespan %s but slices end at %s" (Rat.to_string r.makespan)
        (Rat.to_string recomputed)
    else if Rat.compare r.makespan (Sched_core.Makespan.lower_bound inst) < 0 then
      Fail "makespan beats the combinatorial lower bound"
    else
      of_result (Invariants.shares_sum r.schedule)
      &&& fun () ->
      of_result (Invariants.releases_respected r.schedule)
      &&& fun () -> of_result (Invariants.machine_capacity r.schedule)

let online_policies : (module Online.Sim.POLICY) list =
  (* LP-free and deterministic: their serve-side replays are bit-stable
     and their offline comparison runs in microseconds. *)
  [ (module Online.Policies.Mct); (module Online.Policies.Fcfs);
    (module Online.Policies.Srpt) ]

let online_vs_offline ~aux:_ inst =
  let shifted_origin =
    let rec go j =
      j < I.num_jobs inst
      && (not (Rat.equal (I.flow_origin inst j) (I.release inst j)) || go (j + 1))
    in
    go 0
  in
  (* The comparison harness measures policy flow from release dates; an
     instance with earlier flow origins would compare different metrics. *)
  if I.num_jobs inst = 0 || shifted_origin then Pass
  else begin
    let report = Online.Compare.run ~policies:online_policies inst in
    let rec go = function
      | [] -> Pass
      | (e : Online.Compare.entry) :: tl ->
        if Rat.compare e.max_weighted_flow report.Online.Compare.offline_objective < 0
        then
          failf "online policy %s achieves %s, below the offline optimum %s" e.policy
            (Rat.to_string e.max_weighted_flow)
            (Rat.to_string report.Online.Compare.offline_objective)
        else go tl
    in
    go report.Online.Compare.entries
  end

(* --- serve oracles ---------------------------------------------------- *)

let fresh_dir =
  let k = ref 0 in
  fun () ->
    incr k;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dlsched-check-%d-%d" (Unix.getpid ()) !k)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let policy : (module Online.Sim.POLICY) = (module Online.Policies.Mct)

let apply eng counter = function
  | Gen.Submit { bank; motifs } ->
    incr counter;
    ignore
      (E.submit eng
         ~id:(Printf.sprintf "r%d" !counter)
         ~arrival:(E.now eng) ~bank ~num_motifs:motifs ())
  | Gen.Tick s -> E.run_until eng (Rat.add (E.now eng) (Rat.of_int s))
  | Gen.Fault f -> E.inject eng ~at:(E.now eng) f
  | Gen.Drain -> E.drain eng

let dump (script : Gen.script) eng =
  Snap.state_to_string ~seq:0 ~platform:script.Gen.platform (E.dump eng)

(* Live engine vs WAL-replayed engine: the same script, once uninterrupted
   and once crashed after [k] ops and resumed from snapshot + log tail,
   must end in bit-identical states — counters, review offsets, decision
   cache and all.  [aux] picks the crash point, the snapshot cadence and
   whether the decision cache is armed. *)
let wal_crash_resume ~aux (script : Gen.script) =
  let ops = script.Gen.ops in
  let cache = aux land 1 = 1 in
  let snapshot_every = 1 + (aux lsr 1 mod 3) in
  let k = aux lsr 3 mod (List.length ops + 1) in
  let oracle =
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
        let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy script.Gen.platform in
        let h = Snap.arm ~snapshot_every ~dir e in
        E.set_decision_cache e cache;
        let counter = ref 0 in
        List.iter (apply e counter) ops;
        Snap.close h;
        dump script e)
  in
  let crashed =
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
        let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy script.Gen.platform in
        let h = Snap.arm ~snapshot_every ~dir e in
        E.set_decision_cache e cache;
        let counter = ref 0 in
        let rec first i = function
          | op :: tl when i < k ->
            apply e counter op;
            first (i + 1) tl
          | rest -> rest
        in
        let rest = first 0 ops in
        Snap.close h (* the crash: the process dies with [rest] unapplied *);
        let h', e' =
          Snap.resume ~snapshot_every ~decision_cache:cache ~dir
            ~clock:(Serve.Clock.virtual_ ())
            ~policies:[ policy ] ()
        in
        (* Resuming re-admits every logged job, so the id counter must
           resume where the crash left it. *)
        let counter = ref !counter in
        List.iter (apply e' counter) rest;
        Snap.close h';
        dump script e')
  in
  if String.equal oracle crashed then Pass
  else
    failf "crash at op %d (snapshot_every=%d cache=%b) diverges from the live run" k
      snapshot_every cache

(* The zero-window admission valve must be invisible: same script, with
   and without the valve, identical final states up to the valve's own
   admission.* instruments. *)
let strip_admission text =
  let starts_with p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         not
           (starts_with "metrics " l (* the registry size differs by the valve's own *)
           || starts_with "checksum " l
           || starts_with "counter admission." l
           || starts_with "gauge admission." l
           || starts_with "hist admission." l))
  |> String.concat "\n"

let admission_zero_window ~aux:_ (script : Gen.script) =
  let direct =
    let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy script.Gen.platform in
    let counter = ref 0 in
    List.iter (apply e counter) script.Gen.ops;
    dump script e
  in
  let valved =
    let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy script.Gen.platform in
    let adm = Serve.Admission.create e in
    let counter = ref 0 in
    List.iter
      (function
        | Gen.Submit { bank; motifs } ->
          incr counter;
          (match
             Serve.Admission.submit adm
               ~id:(Printf.sprintf "r%d" !counter)
               ~bank ~num_motifs:motifs ()
           with
          | Serve.Admission.Admitted _ -> ()
          | Serve.Admission.Shed _ -> failwith "zero-window valve shed a request")
        | op -> apply e counter op)
      script.Gen.ops;
    dump script e
  in
  if String.equal (strip_admission direct) (strip_admission valved) then Pass
  else Fail "zero-window admission valve is not transparent"

(* Batching may move arrival dates, so bit-identity is out; what must hold
   is that the batched valve completes exactly the same request set. *)
let batched_vs_zero_window ~aux (script : Gen.script) =
  let window = Rat.of_ints (1 + (aux mod 5)) 10 in
  let completed cfg =
    let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy script.Gen.platform in
    let adm = Serve.Admission.create ?config:cfg e in
    let counter = ref 0 in
    List.iter
      (function
        | Gen.Submit { bank; motifs } ->
          incr counter;
          (match
             Serve.Admission.submit adm
               ~id:(Printf.sprintf "r%d" !counter)
               ~bank ~num_motifs:motifs ()
           with
          | Serve.Admission.Admitted _ -> ()
          | Serve.Admission.Shed _ -> failwith "uncapped valve shed a request")
        | op -> apply e counter op)
      script.Gen.ops;
    (E.submitted e, E.completed e)
  in
  let s0, c0 = completed None in
  let s1, c1 =
    completed (Some { Serve.Admission.default_config with window })
  in
  if s0 <> s1 then failf "request sets differ: %d vs %d submitted" s0 s1
  else if c0 <> s0 then failf "zero-window valve completed %d of %d" c0 s0
  else if c1 <> s1 then
    failf "batched valve (window %s) completed %d of %d" (Rat.to_string window) c1 s1
  else Pass

(* --- registry --------------------------------------------------------- *)

let all =
  [ Offline ("validator", validator);
    Offline ("dense-vs-sparse", dense_vs_sparse);
    Offline ("exact-vs-accelerated", exact_vs_accelerated);
    Offline ("preemptive-vs-divisible", preemptive_vs_divisible);
    Offline ("makespan", makespan_oracle);
    Offline ("online-vs-offline", online_vs_offline);
    Serve ("wal-crash-resume", wal_crash_resume);
    Serve ("admission-zero-window", admission_zero_window);
    Serve ("batched-vs-zero-window", batched_vs_zero_window)
  ]

let find n = List.find_opt (fun o -> name o = n) all

let guard f = match f () with o -> o | exception exn -> Fail (Printexc.to_string exn)

let run_offline o ~aux inst =
  match o with Offline (_, f) -> guard (fun () -> f ~aux inst) | Serve _ -> Pass

let run_serve o ~aux script =
  match o with Serve (_, f) -> guard (fun () -> f ~aux script) | Offline _ -> Pass
