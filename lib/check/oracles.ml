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
  same_maxflow
    (Oracle.with_dense (fun () -> MF.solve_total inst))
    (Oracle.with_cold (fun () -> MF.solve_total inst))

(* DESIGN §6's guarantee for certified exact solves: when every one ends
   on the cold solve's basis, the pipeline's answer is the cold one bit
   for bit; otherwise the objective is the same and the schedule, another
   optimal vertex, passes the invariants. *)
let certified_vs_cold ~aux:_ inst =
  let cold = Oracle.with_cold (fun () -> MF.solve_total inst) in
  match (cold, Oracle.with_certified (fun () -> MF.solve_total inst)) with
  | `Solved (c : MF.result), (`Solved (r : MF.result), false) ->
    if not (Rat.equal c.objective r.objective) then
      failf "objectives differ: %s cold vs %s certified" (Rat.to_string c.objective)
        (Rat.to_string r.objective)
    else of_result (Invariants.solution ~objective:r.objective r.schedule)
  | _, (certified, _) -> same_maxflow cold certified

let same_outcome (a : Rat.t Lp.Solution.outcome) (b : Rat.t Lp.Solution.outcome) =
  let same x y = Array.length x = Array.length y && Array.for_all2 Rat.equal x y in
  match (a, b) with
  | Optimal a, Optimal b ->
    same a.values b.values && Rat.equal a.objective b.objective && same a.duals b.duals
  | Infeasible, Infeasible | Unbounded, Unbounded -> true
  | _ -> false

(* The certificate's factorization against the cold solve (DESIGN §6): a
   basis's values and duals depend only on its column set, so certifying
   the cold exact solve's own final basis must return the cold answer
   bit for bit — values, objective and duals, or [Infeasible].  Every
   exact LP of the max-flow pipeline is checked so, whichever basis the
   float pass would pick. *)
let cold_basis_certificate ~aux:_ inst =
  let module Ex = Lp.Revised.Exact in
  let failures = ref 0 and solves = ref 0 in
  let exact p =
    let prep = Ex.prepare p in
    let cold, st = Ex.cold_solve prep ~count1:(ref 0) ~count2:(ref 0) in
    incr solves;
    (match (cold, Ex.certify prep cold st.Ex.basis ~count:(ref 0)) with
     | Unbounded, _ -> ()
     | _, Some got when same_outcome got cold -> ()
     | _ -> incr failures);
    cold
  in
  ignore
    (Lp.Solve.with_engine { exact; approx = Lp.Revised.Approx.solve } (fun () ->
         MF.solve_total inst));
  if !failures > 0 then
    failf "%d of %d exact LPs: the cold basis certifies another answer or none" !failures
      !solves
  else Pass

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

(* Incremental checkpoints write the bytes a from-scratch encoding
   writes.  The script runs under an armed WAL, once per lost-work mode,
   crashed after [k] ops and resumed (a fresh memo over the restored
   engine); after every op whose checkpoint covers the last logged
   record, the snapshot file must equal [state_to_string] of a fresh
   dump.  [aux] picks the cadence (1-3), the decision cache and [k]. *)
let checkpoint_bytes ~aux (script : Gen.script) =
  let ops = script.Gen.ops in
  let cache = aux land 1 = 1 in
  let snapshot_every = 1 + (aux lsr 1 mod 3) in
  let k = aux lsr 3 mod (List.length ops + 1) in
  let platform = script.Gen.platform in
  let under lost_work =
    let dir = fresh_dir () in
    let h = ref None in
    let close () =
      Option.iter Snap.close !h;
      h := None
    in
    let differs e =
      let file = Snap.snapshot_file dir in
      Sys.file_exists file
      &&
      let text = In_channel.with_open_bin file In_channel.input_all in
      let seq = Scanf.sscanf text "dlsched-snapshot v2\nseq %d" Fun.id in
      seq = E.last_seq e && text <> Snap.state_to_string ~seq ~platform (E.dump e)
    in
    let resume () =
      close ();
      let h', e =
        Snap.resume ~snapshot_every ~decision_cache:cache ~dir
          ~clock:(Serve.Clock.virtual_ ()) ~policies:[ policy ] ()
      in
      h := Some h';
      e
    in
    let counter = ref 0 in
    let rec run e i = function
      | [] -> None
      | op :: tl ->
        apply e counter op;
        if differs e then Some (Printf.sprintf "op %d" i)
        else if i + 1 = k then
          let e = resume () in
          if differs e then Some "the resume" else run e (i + 1) tl
        else run e (i + 1) tl
    in
    let failed =
      Fun.protect
        ~finally:(fun () -> close (); rm_rf dir)
        (fun () ->
          let e = E.create ~lost_work ~clock:(Serve.Clock.virtual_ ()) ~policy platform in
          h := Some (Snap.arm ~snapshot_every ~dir e);
          E.set_decision_cache e cache;
          run e 0 ops)
    in
    match failed with
    | None -> Pass
    | Some where ->
      failf
        "checkpoint after %s differs from a fresh encoding (snapshot_every=%d %s cache=%b %s)"
        where snapshot_every
        (match lost_work with `Lost -> "lost" | `Preserved -> "preserved")
        cache
        (if k = 0 then "no resume" else Printf.sprintf "resume after op %d" (k - 1))
  in
  under `Lost &&& fun () -> under `Preserved

(* The boundary errors a durable input may end in. *)
let typed msg =
  List.exists
    (fun prefix -> String.starts_with ~prefix msg)
    [ "Snapshot: "; "Wal: "; "Engine.restore: "; "Engine.submit: "; "Engine.inject: " ]

(* Replace one token of [lines] by a neighbour (the same column one line
   up or down, or the next token either side), -1, 0, 2^62 - 1 or none. *)
let mutate p (lines : string array array) =
  let rec locate i k =
    if k < Array.length lines.(i) then (i, k) else locate (i + 1) (k - Array.length lines.(i))
  in
  let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 lines in
  let i, k = locate 0 (Gripps.Prng.int p total) in
  let token (i, k) =
    if i >= 0 && i < Array.length lines && k >= 0 && k < Array.length lines.(i) then
      Some lines.(i).(k)
    else None
  in
  lines.(i).(k) <-
    (match Gripps.Prng.int p 5 with
     | 0 -> (
       match List.filter_map token [ (i - 1, k); (i + 1, k); (i, k - 1); (i, k + 1) ] with
       | [] -> "0"
       | near -> List.nth near (Gripps.Prng.int p (List.length near)))
     | 1 -> "-1"
     | 2 -> "0"
     | 3 -> string_of_int max_int
     | _ -> "none")

(* The durable bytes are an input boundary: a state dumped mid-script and
   the WAL record of the next op, with one seeded token edit and both
   checksums resealed, must be refused with a typed error, or resume, run
   the rest of the script and leave a valid schedule.  [aux] seeds the
   crash point, the cache arming and the edit. *)
let snapshot_mutation ~aux (script : Gen.script) =
  let p = Gripps.Prng.create aux in
  let ops = Array.of_list script.Gen.ops in
  let k = Gripps.Prng.int p (Array.length ops) in
  let cache = Gripps.Prng.bool p in
  let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy script.Gen.platform in
  E.set_decision_cache e cache;
  let counter = ref 0 in
  Array.iteri (fun i op -> if i < k then apply e counter op) ops;
  let record =
    match ops.(k) with
    | Gen.Submit { bank; motifs } ->
      incr counter;
      let id = Printf.sprintf "r%d" !counter in
      Serve.Wal.Submit { id; arrival = E.now e; bank; num_motifs = motifs }
    | Gen.Tick s -> Serve.Wal.Advance (Rat.add (E.now e) (Rat.of_int s))
    | Gen.Fault fault -> Serve.Wal.Inject { at = E.now e; fault }
    | Gen.Drain -> Serve.Wal.Drain
  in
  let lines =
    String.split_on_char '\n' (dump script e)
    |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"checksum " l))
    |> (fun body -> body @ [ Serve.Wal.encode record ])
    |> List.map (fun l -> Array.of_list (String.split_on_char ' ' l))
    |> Array.of_list
  in
  mutate p lines;
  let n = Array.length lines in
  let join i = String.concat " " (Array.to_list lines.(i)) in
  let body = String.concat "" (List.init (n - 1) (fun i -> join i ^ "\n")) in
  let payload = join (n - 1) in
  let dir = fresh_dir () in
  let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      write (Snap.meta_file dir) (Printf.sprintf "%schecksum %d\n" body (Serve.Wal.adler32 body));
      write (Snap.wal_file dir)
        (Printf.sprintf "r 1 %d %d\n%s\n" (String.length payload) (Serve.Wal.adler32 payload)
           payload);
      match
        let h, e =
          Snap.resume ~decision_cache:cache ~dir ~clock:(Serve.Clock.virtual_ ())
            ~policies:[ policy ] ()
        in
        Fun.protect ~finally:(fun () -> Snap.close h) (fun () ->
            Array.iteri (fun i op -> if i > k then apply e counter op) ops;
            E.drain e;
            e)
      with
      | exception Invalid_argument m when typed m -> Pass
      | e when E.submitted e = 0 -> Pass
      | e when E.completed e = E.submitted e -> of_result (Invariants.divisible (E.schedule e))
      | e ->
        (* A job starved by a machine the edit left down stays incomplete,
           as it would live; what ran must still be a valid schedule. *)
        let sched = E.schedule e in
        of_result (Invariants.releases_respected sched)
        &&& fun () -> of_result (Invariants.machine_capacity sched))

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
    Offline ("certified-vs-cold", certified_vs_cold);
    Offline ("cold-basis-certificate", cold_basis_certificate);
    Offline ("exact-vs-accelerated", exact_vs_accelerated);
    Offline ("preemptive-vs-divisible", preemptive_vs_divisible);
    Offline ("makespan", makespan_oracle);
    Offline ("online-vs-offline", online_vs_offline);
    Serve ("wal-crash-resume", wal_crash_resume);
    Serve ("checkpoint-bytes", checkpoint_bytes);
    Serve ("snapshot-mutation", snapshot_mutation);
    Serve ("admission-zero-window", admission_zero_window);
    Serve ("batched-vs-zero-window", batched_vs_zero_window)
  ]

let find n = List.find_opt (fun o -> name o = n) all

let guard f = match f () with o -> o | exception exn -> Fail (Printexc.to_string exn)

let run_offline o ~aux inst =
  match o with Offline (_, f) -> guard (fun () -> f ~aux inst) | Serve _ -> Pass

let run_serve o ~aux script =
  match o with Serve (_, f) -> guard (fun () -> f ~aux script) | Offline _ -> Pass
