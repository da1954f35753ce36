(* The correctness harness, tested.

   The validator (Check.Invariants) is itself part of the trusted base of
   the fuzzer, so it gets the adversarial treatment here: every invariant
   must accept schedules produced by the exact solvers (soundness of the
   positive direction, as a qcheck property over generator seeds) and must
   reject a schedule in which that one invariant — and only that one — has
   been deliberately perturbed. *)

module R = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module MF = Sched_core.Max_flow
module Inv = Check.Invariants
module Prng = Gripps.Prng

let rat = R.of_int
let ratq = R.of_ints

let check_ok name = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s unexpectedly rejected: %s" name m

let check_err name = function
  | Ok () -> Alcotest.failf "%s accepted a perturbed schedule" name
  | Error _ -> ()

(* Two unit-weight jobs released at 0, every cost 2: the reference
   schedule runs each job whole on its own machine and is optimal with
   objective 2.  Every perturbation below starts from this base. *)
let base_inst =
  I.make
    ~releases:[| R.zero; R.zero |]
    ~weights:[| R.one; R.one |]
    [| [| Some (rat 2); Some (rat 2) |]; [| Some (rat 2); Some (rat 2) |] |]

let slice machine job start stop = { S.machine; job; start; stop }

let base_sched =
  S.make base_inst [ slice 0 0 R.zero (rat 2); slice 1 1 R.zero (rat 2) ]

(* --- positive direction ------------------------------------------------ *)

let test_base_passes () =
  check_ok "divisible" (Inv.divisible base_sched);
  check_ok "preemptive" (Inv.preemptive base_sched);
  check_ok "solution" (Inv.solution ~objective:(rat 2) base_sched)

let test_empty_passes () =
  let empty = I.make ~releases:[||] ~weights:[||] [| [||] |] in
  let sched = S.make empty [] in
  check_ok "divisible(empty)" (Inv.divisible sched);
  check_ok "solution(empty)" (Inv.solution ~objective:R.zero sched)

(* Solved generated instances satisfy every invariant: the solvers and the
   independent sweep validator agree on what a solution is. *)
let prop_solved_instances_pass =
  QCheck.Test.make ~count:60 ~name:"solver output passes the sweep validator"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Prng.create seed in
      let inst = Check.Gen.instance p in
      match MF.solve_total inst with
      | `Trivial sched -> Inv.divisible sched = Ok ()
      | `Solved r ->
        Inv.solution ~objective:r.MF.objective r.MF.schedule = Ok ())

let prop_preemptive_passes =
  QCheck.Test.make ~count:40 ~name:"preemptive solver output passes LP(5) checks"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Prng.create seed in
      let inst = Check.Gen.instance p in
      match Sched_core.Preemptive.solve_total inst with
      | `Trivial sched -> Inv.preemptive sched = Ok ()
      | `Solved r ->
        Inv.preemptive r.Sched_core.Preemptive.schedule = Ok ()
        && Inv.objective_consistent ~objective:r.Sched_core.Preemptive.objective
             r.Sched_core.Preemptive.schedule
           = Ok ())

(* --- each invariant catches its own violation -------------------------- *)

let test_shares_sum_catches () =
  (* Job 1 only half processed. *)
  let s = S.make base_inst [ slice 0 0 R.zero (rat 2); slice 1 1 R.zero R.one ] in
  check_err "shares_sum(under)" (Inv.shares_sum s);
  (* Job 1 over-processed. *)
  let s = S.make base_inst [ slice 0 0 R.zero (rat 2); slice 1 1 R.zero (rat 3) ] in
  check_err "shares_sum(over)" (Inv.shares_sum s);
  (* A slice on a machine that cannot run the job. *)
  let inf_inst =
    I.make ~releases:[| R.zero |] ~weights:[| R.one |]
      [| [| Some (rat 2) |]; [| None |] |]
  in
  let s = S.make inf_inst [ slice 0 0 R.zero R.one; slice 1 0 R.zero (rat 5) ] in
  check_err "shares_sum(inf)" (Inv.shares_sum s)

let test_releases_catches () =
  let late =
    I.make ~releases:[| R.one; R.zero |] ~weights:[| R.one; R.one |]
      [| [| Some (rat 2); Some (rat 2) |]; [| Some (rat 2); Some (rat 2) |] |]
  in
  let s = S.make late [ slice 0 0 R.zero (rat 2); slice 1 1 R.zero (rat 2) ] in
  check_err "releases_respected" (Inv.releases_respected s);
  (* The same slices against the base instance are fine. *)
  check_ok "releases_respected(base)" (Inv.releases_respected base_sched)

let test_machine_capacity_catches () =
  (* Both jobs entirely on machine 0, overlapping: each job's shares still
     sum to 1, releases hold — only the capacity sweep objects. *)
  let s = S.make base_inst [ slice 0 0 R.zero (rat 2); slice 0 1 R.zero (rat 2) ] in
  check_ok "shares_sum(overlap)" (Inv.shares_sum s);
  check_err "machine_capacity" (Inv.machine_capacity s)

let test_job_capacity_catches () =
  (* Job 0 on both machines simultaneously: legal for the divisible model,
     illegal for the preemptive one. *)
  let s =
    S.make base_inst
      [ slice 0 0 R.zero R.one; slice 1 0 R.zero R.one; slice 0 1 R.one (rat 3) ]
  in
  check_ok "divisible(parallel job)" (Inv.divisible s);
  check_err "job_capacity" (Inv.job_capacity s)

let test_objective_catches () =
  check_err "objective_consistent(high)"
    (Inv.objective_consistent ~objective:(rat 3) base_sched);
  check_err "objective_consistent(low)"
    (Inv.objective_consistent ~objective:R.one base_sched);
  check_ok "objective_consistent(exact)"
    (Inv.objective_consistent ~objective:(rat 2) base_sched)

let test_deadlines_catches () =
  (* Claimed objective 1: deadline r_j + F/w_j = 1 < C_j = 2. *)
  check_err "deadlines_met" (Inv.deadlines_met ~objective:R.one base_sched);
  check_ok "deadlines_met(true F)" (Inv.deadlines_met ~objective:(rat 2) base_sched)

let test_flow_origin_objective () =
  (* A shifted flow origin moves the objective: job 0 is released at 2 but
     its flow is measured from 0 (it arrived earlier and waited), so its
     weighted flow is 4 — the invariant must demand 4, not the
     from-release value 2. *)
  let shifted =
    I.make
      ~flow_origins:[| R.zero; R.zero |]
      ~releases:[| rat 2; R.zero |]
      ~weights:[| R.one; R.one |]
      [| [| Some (rat 2); Some (rat 2) |]; [| Some (rat 2); Some (rat 2) |] |]
  in
  let s = S.make shifted [ slice 0 0 (rat 2) (rat 4); slice 1 1 R.zero (rat 2) ] in
  check_err "objective_consistent(origin ignored)"
    (Inv.objective_consistent ~objective:(rat 2) s);
  check_ok "objective_consistent(origin honoured)"
    (Inv.objective_consistent ~objective:(rat 4) s)

(* --- totality classification ------------------------------------------ *)

let prop_totality =
  QCheck.Test.make ~count:200 ~name:"make_checked classifies planted degeneracies"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Check.Fuzz.totality (Prng.create seed) with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

(* --- shrinking --------------------------------------------------------- *)

let test_shrink_instance () =
  (* "Has at least one job with weight 3" shrinks to exactly that job on
     one machine. *)
  let p = Prng.create 42 in
  let inst =
    I.make
      ~releases:(Array.make 4 R.zero)
      ~weights:[| R.one; rat 3; R.one; rat 3 |]
      (Array.init 3 (fun _ -> Array.init 4 (fun _ -> Some (rat (1 + Prng.int p 4)))))
  in
  let keep i =
    Array.exists (fun j -> R.equal (I.weight i j) (rat 3)) (Array.init (I.num_jobs i) Fun.id)
  in
  let small = Check.Shrink.instance ~keep inst in
  Alcotest.(check int) "one job left" 1 (I.num_jobs small);
  Alcotest.(check int) "one machine left" 1 (I.num_machines small);
  Alcotest.(check bool) "still satisfies keep" true (keep small)

let test_shrink_script () =
  let p = Prng.create 7 in
  let s = Check.Gen.script p in
  let keep (s : Check.Gen.script) =
    List.exists (function Check.Gen.Submit _ -> true | _ -> false) s.Check.Gen.ops
  in
  if keep s then begin
    let small = Check.Shrink.script ~keep s in
    Alcotest.(check int) "one op left" 1 (List.length small.Check.Gen.ops);
    Alcotest.(check bool) "platform untouched" true
      (small.Check.Gen.platform == s.Check.Gen.platform)
  end

(* --- artifact round-trips ---------------------------------------------- *)

let test_script_roundtrip () =
  for seed = 0 to 49 do
    let s = Check.Gen.script (Prng.create seed) in
    let s' = Check.Gen.script_of_string (Check.Gen.script_to_string s) in
    Alcotest.(check string)
      (Printf.sprintf "script %d round-trips" seed)
      (Check.Gen.script_to_string s) (Check.Gen.script_to_string s')
  done

let test_instance_roundtrip_origins () =
  let shifted =
    I.make
      ~flow_origins:[| ratq 1 2; R.zero |]
      ~releases:[| R.one; R.zero |]
      ~weights:[| R.one; rat 2 |]
      [| [| Some (rat 2); None |]; [| Some (rat 3); Some (rat 2) |] |]
  in
  let text = Sched_core.Instance_io.to_string shifted in
  let back = Sched_core.Instance_io.of_string text in
  Alcotest.(check string) "origin lines round-trip" text
    (Sched_core.Instance_io.to_string back);
  Alcotest.(check bool) "flow origin survives" true
    (R.equal (I.flow_origin back 0) (ratq 1 2))

(* --- the fuzzer end to end --------------------------------------------- *)

let test_fuzz_smoke () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ()) "dlsched-test-fuzz" in
  let report = Check.Fuzz.run ~out_dir ~seed:7 ~cases:20 () in
  Alcotest.(check int) "all cases ran" 20 report.Check.Fuzz.cases;
  List.iter
    (fun (name, n) -> Alcotest.(check int) (name ^ " ran everywhere") 20 n)
    report.Check.Fuzz.oracles_run;
  match report.Check.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "fuzz smoke found a failure: case %d oracle %s: %s"
      f.Check.Fuzz.case f.Check.Fuzz.oracle f.Check.Fuzz.detail

(* The committed repro of the decision-cache resume divergence (the cache
   was dropped from snapshots, so a resumed engine re-solved what the live
   engine remembered).  Replaying it through the crash-resume oracle pins
   the fix; see test_durability for the state-level regression test. *)
let test_cache_resume_repro () =
  (* dune runtest runs from the test directory; `dune exec` may not. *)
  let path =
    if Sys.file_exists "fixtures/cache_resume_divergence.script" then
      "fixtures/cache_resume_divergence.script"
    else "test/fixtures/cache_resume_divergence.script"
  in
  let script =
    Check.Gen.script_of_string (In_channel.with_open_text path In_channel.input_all)
  in
  match Check.Oracles.find "wal-crash-resume" with
  | None -> Alcotest.fail "wal-crash-resume oracle missing from the matrix"
  | Some o -> (
    (* Aux 326833, as the fuzzer recorded it in the artifact's .sh file:
       cache on, snapshot_every=1, crash at op 6, between the burst's
       repeat and the drain that ends it.  The repeat recreates a
       fingerprint the first burst cached, so the resumed engine hits only
       if the snapshot carried the cache: with [Engine.dump] writing an
       empty cache, this case fails (fuzz seed 1, case 114). *)
    match Check.Oracles.run_serve o ~aux:326833 script with
    | Check.Oracles.Pass -> ()
    | Check.Oracles.Fail m -> Alcotest.failf "cache-resume repro regressed: %s" m)

let () =
  Alcotest.run "check"
    [
      ( "invariants",
        [
          Alcotest.test_case "base schedule passes" `Quick test_base_passes;
          Alcotest.test_case "empty schedule passes" `Quick test_empty_passes;
          Alcotest.test_case "shares_sum catches" `Quick test_shares_sum_catches;
          Alcotest.test_case "releases catches" `Quick test_releases_catches;
          Alcotest.test_case "machine_capacity catches" `Quick test_machine_capacity_catches;
          Alcotest.test_case "job_capacity catches" `Quick test_job_capacity_catches;
          Alcotest.test_case "objective catches" `Quick test_objective_catches;
          Alcotest.test_case "deadlines catches" `Quick test_deadlines_catches;
          Alcotest.test_case "flow origins honoured" `Quick test_flow_origin_objective;
          QCheck_alcotest.to_alcotest prop_solved_instances_pass;
          QCheck_alcotest.to_alcotest prop_preemptive_passes;
        ] );
      ( "totality",
        [ QCheck_alcotest.to_alcotest prop_totality ] );
      ( "shrink",
        [
          Alcotest.test_case "instance to local minimum" `Quick test_shrink_instance;
          Alcotest.test_case "script to local minimum" `Quick test_shrink_script;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "script round-trip" `Quick test_script_roundtrip;
          Alcotest.test_case "origin lines round-trip" `Quick test_instance_roundtrip_origins;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "smoke: 20 cases clean" `Slow test_fuzz_smoke;
          Alcotest.test_case "cache-resume repro stays fixed" `Quick test_cache_resume_repro;
        ] );
    ]
