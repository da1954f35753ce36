(* Tests for the scheduling core: instance model, schedules and validators,
   Theorem 1 (makespan), Lemma 1 (deadline feasibility), Theorem 2 (max
   weighted flow), the milestone machinery, the open-shop reconstruction and
   the preemptive solver of Section 4.4.

   The central property tests are optimality certificates: the solvers'
   objective value F* must be feasible while (1 - 1/2^20)·F* must be
   infeasible — with exact rational arithmetic this pins the optimum. *)

module R = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module Mk = Sched_core.Makespan
module Dl = Sched_core.Deadline
module Ms = Sched_core.Milestones
module Mf = Sched_core.Max_flow
module Pre = Sched_core.Preemptive
module Os = Sched_core.Openshop

let rat = Alcotest.testable R.pp R.equal
let q = R.of_ints
let ri = R.of_int

let some_costs rows = Array.map (Array.map (fun c -> if c = 0 then None else Some (ri c))) rows

let simple ?releases ?weights costs =
  let cost = some_costs costs in
  let n = Array.length cost.(0) in
  let releases = Option.value releases ~default:(Array.make n R.zero) in
  let weights = Option.value weights ~default:(Array.make n R.one) in
  I.make ~releases ~weights cost

let check_valid_divisible what sched =
  match S.validate_divisible sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": invalid divisible schedule: " ^ e)

let check_valid_preemptive what sched =
  match S.validate_preemptive sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail (what ^ ": invalid preemptive schedule: " ^ e)

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let test_instance_validation () =
  let bad f = Alcotest.(check bool) "rejected" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  bad (fun () -> simple [| [| 1 |]; [| 1; 2 |] |]);
  bad (fun () -> simple ~releases:[| ri (-1) |] [| [| 1 |] |]);
  bad (fun () -> simple ~weights:[| R.zero |] [| [| 1 |] |]);
  bad (fun () -> I.make ~releases:[| R.zero |] ~weights:[| R.one |] [| [| Some (ri (-2)) |] |]);
  (* job 1 cannot run anywhere *)
  bad (fun () -> simple [| [| 1; 0 |]; [| 2; 0 |] |]);
  bad (fun () -> I.make ~releases:[||] ~weights:[||] [||])

let test_instance_uniform () =
  let inst =
    I.uniform
      ~speeds:[| ri 2; ri 3 |] (* seconds per unit *)
      ~sizes:[| ri 5; ri 7 |]
      ~releases:[| R.zero; R.one |]
      ~weights:[| R.one; R.one |]
      ~available:[| [| true; false |]; [| true; true |] |]
  in
  Alcotest.(check (option rat)) "c00" (Some (ri 10)) (I.cost inst ~machine:0 ~job:0);
  Alcotest.(check (option rat)) "c01 masked" None (I.cost inst ~machine:0 ~job:1);
  Alcotest.(check (option rat)) "c11" (Some (ri 21)) (I.cost inst ~machine:1 ~job:1);
  Alcotest.(check rat) "fastest j0" (ri 10) (I.fastest_cost inst ~job:0);
  Alcotest.(check rat) "fastest j1" (ri 21) (I.fastest_cost inst ~job:1);
  Alcotest.(check rat) "max release" R.one (I.max_release inst)

let test_stretch_weights () =
  let inst = simple [| [| 4; 10 |]; [| 2; 5 |] |] in
  let sw = I.stretch_weights inst in
  Alcotest.(check rat) "w0 = 1/2" (q 1 2) (I.weight sw 0);
  Alcotest.(check rat) "w1 = 1/5" (q 1 5) (I.weight sw 1)

(* ------------------------------------------------------------------ *)
(* Schedule representation and validators                              *)
(* ------------------------------------------------------------------ *)

let test_schedule_metrics () =
  let inst = simple ~releases:[| R.zero; ri 2 |] ~weights:[| ri 1; ri 3 |]
      [| [| 4; 2 |] |] in
  let sched =
    S.make inst
      [ { S.machine = 0; job = 0; start = R.zero; stop = ri 4 };
        { S.machine = 0; job = 1; start = ri 4; stop = ri 6 }
      ]
  in
  check_valid_divisible "metrics" sched;
  Alcotest.(check rat) "C0" (ri 4) (S.completion_time sched 0);
  Alcotest.(check rat) "C1" (ri 6) (S.completion_time sched 1);
  Alcotest.(check rat) "makespan" (ri 6) (S.makespan sched);
  Alcotest.(check rat) "flow1" (ri 4) (S.flow sched 1);
  Alcotest.(check rat) "max flow" (ri 4) (S.max_flow sched);
  Alcotest.(check rat) "sum flow" (ri 8) (S.sum_flow sched);
  Alcotest.(check rat) "max wflow" (ri 12) (S.max_weighted_flow sched);
  Alcotest.(check rat) "max stretch" (ri 2) (S.max_stretch sched);
  Alcotest.(check rat) "busy m0" (ri 6) (S.machine_busy_time sched 0)

let test_validator_catches_overlap () =
  let inst = simple [| [| 4; 4 |] |] in
  let sched =
    S.make inst
      [ { S.machine = 0; job = 0; start = R.zero; stop = ri 4 };
        { S.machine = 0; job = 1; start = ri 3; stop = ri 7 }
      ]
  in
  Alcotest.(check bool) "overlap rejected" true (Result.is_error (S.validate_divisible sched))

let test_validator_catches_incomplete () =
  let inst = simple [| [| 4 |] |] in
  let sched = S.make inst [ { S.machine = 0; job = 0; start = R.zero; stop = ri 2 } ] in
  Alcotest.(check bool) "half a job rejected" true
    (Result.is_error (S.validate_divisible sched))

let test_validator_catches_early_start () =
  let inst = simple ~releases:[| ri 5 |] [| [| 4 |] |] in
  let sched = S.make inst [ { S.machine = 0; job = 0; start = ri 1; stop = ri 5 } ] in
  Alcotest.(check bool) "pre-release start rejected" true
    (Result.is_error (S.validate_divisible sched))

let test_validator_intra_job_parallelism () =
  (* Job split across two machines at the same time: fine for divisible,
     rejected for preemptive. *)
  let inst = simple [| [| 4 |]; [| 4 |] |] in
  let sched =
    S.make inst
      [ { S.machine = 0; job = 0; start = R.zero; stop = ri 2 };
        { S.machine = 1; job = 0; start = R.zero; stop = ri 2 }
      ]
  in
  check_valid_divisible "parallel halves" sched;
  Alcotest.(check bool) "preemptive validator rejects" true
    (Result.is_error (S.validate_preemptive sched));
  Alcotest.(check rat) "completes at 2" (ri 2) (S.makespan sched)

let test_pack () =
  let inst = simple ~releases:[| R.zero; R.zero |] [| [| 4; 2 |] |] in
  let sched =
    S.pack inst
      ~intervals:[| (R.zero, ri 6) |]
      ~fractions:[ (0, 0, 0, R.one); (0, 0, 1, R.one) ]
  in
  check_valid_divisible "pack" sched;
  Alcotest.(check rat) "makespan" (ri 6) (S.makespan sched);
  Alcotest.check_raises "overfull interval"
    (Invalid_argument "Schedule.pack: machine 0 overfull in interval 0")
    (fun () ->
      ignore
        (S.pack inst ~intervals:[| (R.zero, ri 5) |]
           ~fractions:[ (0, 0, 0, R.one); (0, 0, 1, R.one) ]))

(* ------------------------------------------------------------------ *)
(* Makespan (Theorem 1)                                                *)
(* ------------------------------------------------------------------ *)

let test_makespan_single () =
  let inst = simple ~releases:[| ri 3 |] [| [| 4 |] |] in
  let { Mk.makespan; schedule } = Mk.solve inst in
  check_valid_divisible "single job" schedule;
  Alcotest.(check rat) "r + c" (ri 7) makespan

let test_makespan_divisible_split () =
  (* One job, two identical machines: divisibility halves the time. *)
  let inst = simple [| [| 6 |]; [| 6 |] |] in
  let { Mk.makespan; schedule } = Mk.solve inst in
  check_valid_divisible "split job" schedule;
  Alcotest.(check rat) "c/2" (ri 3) makespan

let test_makespan_harmonic () =
  (* One job, machines of speeds 2 and 6 time units: rate 1/2 + 1/6 = 2/3,
     so the makespan is exactly 3/2. *)
  let inst = simple [| [| 2 |]; [| 6 |] |] in
  let { Mk.makespan; schedule } = Mk.solve inst in
  check_valid_divisible "harmonic" schedule;
  Alcotest.(check rat) "1/(1/2+1/6)" (q 3 2) makespan;
  Alcotest.(check rat) "equals lower bound" (Mk.lower_bound inst) makespan

let test_makespan_releases () =
  (* Single machine; second job arrives while the first still runs. *)
  let inst = simple ~releases:[| R.zero; ri 2 |] [| [| 4; 1 |] |] in
  let { Mk.makespan; schedule } = Mk.solve inst in
  check_valid_divisible "staggered" schedule;
  Alcotest.(check rat) "busy until 5" (ri 5) makespan

let test_makespan_restricted () =
  (* Job 0 only on machine 0, job 1 only on machine 1 (databank affinity):
     no sharing possible. *)
  let inst = simple [| [| 4; 0 |]; [| 0; 7 |] |] in
  let { Mk.makespan; schedule } = Mk.solve inst in
  check_valid_divisible "restricted" schedule;
  Alcotest.(check rat) "max of the two" (ri 7) makespan

let test_makespan_late_release_dominates () =
  (* A tiny job released very late forces the makespan past its release. *)
  let inst = simple ~releases:[| R.zero; ri 100 |] [| [| 1; 1 |] |] in
  let { Mk.makespan; _ } = Mk.solve inst in
  Alcotest.(check rat) "101" (ri 101) makespan

let prop_makespan_uniform_closed_form =
  (* Uniform machines, common release, full availability: fluid jobs fill
     all machines perfectly, so the optimal makespan has the closed form
     total_work / Σ_i (1/s_i).  A strong independent check of the LP. *)
  QCheck.Test.make ~name:"uniform common-release makespan = W/Σ(1/s)" ~count:40
    (QCheck.make
       QCheck.Gen.(
         let* m = int_range 1 4 in
         let* n = int_range 1 5 in
         let* speeds = array_size (return m) (int_range 1 5) in
         let* sizes = array_size (return n) (int_range 1 9) in
         return (Array.map R.of_int speeds, Array.map R.of_int sizes)))
    (fun (speeds, sizes) ->
      let n = Array.length sizes and m = Array.length speeds in
      let inst =
        I.uniform ~speeds ~sizes
          ~releases:(Array.make n R.zero)
          ~weights:(Array.make n R.one)
          ~available:(Array.make_matrix m n true)
      in
      let total_work = Array.fold_left R.add R.zero sizes in
      let total_rate =
        Array.fold_left (fun acc s -> R.add acc (R.inv s)) R.zero speeds
      in
      R.equal (Mk.solve inst).Mk.makespan (R.div total_work total_rate))

(* Reference single-machine makespan: work-conserving in release order. *)
let greedy_single_machine releases costs =
  let jobs = List.combine (Array.to_list releases) (Array.to_list costs) in
  let jobs = List.sort (fun (r1, _) (r2, _) -> R.compare r1 r2) jobs in
  List.fold_left (fun t (r, c) -> R.add (R.max t r) c) R.zero jobs

(* ------------------------------------------------------------------ *)
(* Random instance generator                                           *)
(* ------------------------------------------------------------------ *)

let instance_gen ?(max_jobs = 4) ?(max_machines = 3) () =
  let open QCheck.Gen in
  let* n = int_range 1 max_jobs in
  let* m = int_range 1 max_machines in
  let* releases = array_size (return n) (int_range 0 8) in
  let* weights = array_size (return n) (int_range 1 4) in
  let* costs = array_size (return m) (array_size (return n) (int_range 0 6)) in
  (* Entry 0 means unavailable; make sure each job can run somewhere. *)
  let* fallback = array_size (return n) (int_range 1 6) in
  let costs =
    Array.mapi
      (fun i row ->
        Array.mapi
          (fun j c ->
            let orphan = Array.for_all (fun r -> r.(j) = 0) costs in
            if i = 0 && orphan then fallback.(j) else c)
          row)
      costs
  in
  return
    (I.make
       ~releases:(Array.map R.of_int releases)
       ~weights:(Array.map R.of_int weights)
       (Array.map (Array.map (fun c -> if c = 0 then None else Some (R.of_int c))) costs))

let arbitrary_instance =
  QCheck.make
    (instance_gen ())
    ~print:(fun i -> Format.asprintf "%a" I.pp i)

let prop_makespan_valid_and_bounded =
  QCheck.Test.make ~name:"makespan schedule valid, between LB and serial UB" ~count:60
    arbitrary_instance (fun inst ->
      let { Mk.makespan; schedule } = Mk.solve inst in
      Result.is_ok (S.validate_divisible schedule)
      && R.equal (S.makespan schedule) makespan
      && R.compare (Mk.lower_bound inst) makespan <= 0)

let prop_makespan_single_machine_greedy =
  QCheck.Test.make ~name:"single-machine makespan equals greedy" ~count:60
    (QCheck.make (instance_gen ~max_machines:1 ()))
    (fun inst ->
      let n = I.num_jobs inst in
      let releases = Array.init n (I.release inst) in
      let costs =
        Array.init n (fun j ->
            match I.cost inst ~machine:0 ~job:j with Some c -> c | None -> assert false)
      in
      R.equal (Mk.solve inst).Mk.makespan (greedy_single_machine releases costs))

(* ------------------------------------------------------------------ *)
(* Deadline scheduling (Lemma 1)                                       *)
(* ------------------------------------------------------------------ *)

let test_deadline_tight () =
  let inst = simple [| [| 4; 2 |] |] in
  (* Exactly enough time for both jobs. *)
  (match Dl.feasible inst ~deadlines:[| ri 6; ri 6 |] with
   | Some sched ->
     check_valid_divisible "tight" sched;
     Alcotest.(check bool) "meets deadlines" true
       (R.compare (S.completion_time sched 0) (ri 6) <= 0
       && R.compare (S.completion_time sched 1) (ri 6) <= 0)
   | None -> Alcotest.fail "tight instance should be feasible");
  Alcotest.(check bool) "one tick less is infeasible" false
    (Dl.is_feasible inst ~deadlines:[| q 59 10; q 59 10 |])

let test_deadline_individual () =
  (* Job 1 has a tight personal deadline and must preempt job 0's window. *)
  let inst = simple ~releases:[| R.zero; ri 2 |] [| [| 4; 1 |] |] in
  (match Dl.feasible inst ~deadlines:[| ri 6; ri 3 |] with
   | Some sched ->
     check_valid_divisible "individual" sched;
     Alcotest.(check bool) "job1 in [2,3]" true
       (R.compare (S.completion_time sched 1) (ri 3) <= 0)
   | None -> Alcotest.fail "should be feasible");
  (* Job 1's window [2, 5/2] has length 1/2 < its cost 1: impossible. *)
  Alcotest.(check bool) "impossible deadline" false
    (Dl.is_feasible inst ~deadlines:[| ri 6; q 5 2 |])

let test_deadline_before_release () =
  let inst = simple ~releases:[| ri 5 |] [| [| 1 |] |] in
  Alcotest.(check bool) "deadline before release" false
    (Dl.is_feasible inst ~deadlines:[| ri 4 |])

let test_flow_deadlines () =
  let inst = simple ~releases:[| ri 2 |] ~weights:[| ri 4 |] [| [| 1 |] |] in
  let d = Dl.flow_deadlines inst ~objective:(ri 8) in
  Alcotest.(check rat) "r + F/w" (ri 4) d.(0)

let prop_deadline_monotone =
  (* Loosening every deadline can only preserve feasibility. *)
  QCheck.Test.make ~name:"deadline feasibility is monotone" ~count:40
    (QCheck.pair arbitrary_instance (QCheck.int_range 1 10))
    (fun (inst, slack) ->
      let n = I.num_jobs inst in
      let tight =
        Array.init n (fun j ->
            R.add (I.release inst j) (I.fastest_cost inst ~job:j))
      in
      let loose = Array.map (fun d -> R.add d (ri slack)) tight in
      (not (Dl.is_feasible inst ~deadlines:tight))
      || Dl.is_feasible inst ~deadlines:loose)

let prop_deadline_witness_meets_deadlines =
  QCheck.Test.make ~name:"deadline witness schedule meets every deadline" ~count:40
    arbitrary_instance (fun inst ->
      let n = I.num_jobs inst in
      (* Deadlines from a feasible objective: the serial bound. *)
      let f = Mf.feasible_upper_bound inst in
      let deadlines = Dl.flow_deadlines inst ~objective:f in
      match Dl.feasible inst ~deadlines with
      | None -> false (* serial bound is always feasible *)
      | Some sched ->
        Result.is_ok (S.validate_divisible sched)
        && List.for_all
             (fun j -> R.compare (S.completion_time sched j) deadlines.(j) <= 0)
             (List.init n (fun j -> j)))

let prop_cross_solver_sanity =
  (* A max-flow-optimal schedule is still a valid schedule, so its makespan
     cannot beat the optimal makespan. *)
  QCheck.Test.make ~name:"makespan of F*-schedule ≥ optimal makespan" ~count:30
    arbitrary_instance (fun inst ->
      let mk = (Mk.solve inst).Mk.makespan in
      let sched = (Mf.solve inst).Mf.schedule in
      R.compare mk (S.makespan sched) <= 0)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

let test_intervals_of_epochals () =
  let iv = Sched_core.Intervals.of_epochals [ ri 3; ri 1; ri 2; ri 1 ] in
  Alcotest.(check int) "two intervals" 2 (Array.length iv);
  Alcotest.(check rat) "first lo" (ri 1) (fst iv.(0));
  Alcotest.(check rat) "first hi" (ri 2) (snd iv.(0));
  Alcotest.(check rat) "second hi" (ri 3) (snd iv.(1));
  Alcotest.(check int) "singleton" 0
    (Array.length (Sched_core.Intervals.of_epochals [ ri 5; ri 5 ]));
  Alcotest.(check int) "empty" 0 (Array.length (Sched_core.Intervals.of_epochals []))

let prop_intervals_tile =
  QCheck.Test.make ~name:"intervals tile the epochal range" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 12) (int_range 0 20))
    (fun values ->
      let iv = Sched_core.Intervals.of_epochals (List.map R.of_int values) in
      let rec contiguous k =
        k + 1 >= Array.length iv
        || (R.equal (snd iv.(k)) (fst iv.(k + 1)) && contiguous (k + 1))
      in
      Array.for_all (fun (lo, hi) -> R.compare lo hi < 0) iv && contiguous 0)

(* ------------------------------------------------------------------ *)
(* Milestones                                                          *)
(* ------------------------------------------------------------------ *)

let test_milestones_known () =
  (* Two jobs: r = (0, 6), w = (1, 2).
     d̄_0(F) = F, d̄_1(F) = 6 + F/2.
     d̄_0 crosses r_1 = 6 at F = 6.
     d̄_1 crosses r_0 = 0 at F = 2·(0-6) = -12 (discarded).
     d̄_0 crosses d̄_1 at F = 6/(1 - 1/2) = 12. *)
  let inst = simple ~releases:[| R.zero; ri 6 |] ~weights:[| ri 1; ri 2 |] [| [| 1; 1 |] |] in
  Alcotest.(check (list rat)) "milestones" [ ri 6; ri 12 ] (Ms.compute inst)

let test_milestones_equal_weights () =
  (* Equal weights: deadline functions are parallel, only release crossings
     remain. *)
  let inst = simple ~releases:[| R.zero; ri 3 |] [| [| 1; 1 |] |] in
  Alcotest.(check (list rat)) "only release crossings" [ ri 3 ] (Ms.compute inst)

let prop_milestones_bounded =
  QCheck.Test.make ~name:"milestone count ≤ n² − n, sorted, positive" ~count:100
    arbitrary_instance (fun inst ->
      let ms = Ms.compute inst in
      let rec sorted = function
        | a :: (b :: _ as rest) -> R.compare a b < 0 && sorted rest
        | _ -> true
      in
      List.length ms <= Ms.count_bound inst
      && sorted ms
      && List.for_all (fun f -> R.sign f > 0) ms)

(* ------------------------------------------------------------------ *)
(* Max weighted flow (Theorem 2)                                       *)
(* ------------------------------------------------------------------ *)

let test_maxflow_single_job () =
  (* One job on two machines: divisibility gives flow 1/(1/2 + 1/6) = 3/2,
     weighted by w = 4 → F* = 6. *)
  let inst = simple ~weights:[| ri 4 |] [| [| 2 |]; [| 6 |] |] in
  let r = Mf.solve inst in
  check_valid_divisible "single job" r.Mf.schedule;
  Alcotest.(check rat) "F*" (ri 6) r.Mf.objective;
  Alcotest.(check rat) "metric agrees" r.Mf.objective (S.max_weighted_flow r.Mf.schedule)

let test_maxflow_two_jobs_single_machine () =
  (* Both released at 0 on one machine, equal weights: whatever the order,
     the last completion is at c0 + c1; F* = 6. *)
  let inst = simple [| [| 4; 2 |] |] in
  let r = Mf.solve inst in
  check_valid_divisible "two jobs" r.Mf.schedule;
  Alcotest.(check rat) "F* = total work" (ri 6) r.Mf.objective

let test_maxflow_weights_matter () =
  (* Same two jobs, but job 1 (small) has weight 4: serving it first costs
     job 0 flow 6 (weighted 6); serving job 0 first costs job 1 weighted
     flow 4·6=24... the optimum balances w0·C0 = w1·C1 with C_last = 6.
     Candidates: finish j1 at time x then j0 at 6: F = max(6, 4x), best
     x = c1 = 2 → wait: j1 cannot finish before 2 anyway; F = max(6, 8)=8;
     or j0 first: F = max(4, 24) = 24.  Splitting: give j1 the head: its
     completion ≥ 2.  F* = 8. *)
  let inst = simple ~weights:[| ri 1; ri 4 |] [| [| 4; 2 |] |] in
  let r = Mf.solve inst in
  Alcotest.(check rat) "F* = 8" (ri 8) r.Mf.objective

(* [Max_flow.solve] on the instances that [dlsched generate -n 18 -s 1..8]
   and [dlsched generate -m 4 -n 40 -s 3] write, to the bit: one line per
   instance with its exact objective, its slice count and the MD5 of
   every slice (job, machine, start, stop as rationals, in schedule
   order).  A change anywhere on the max-flow path that moves one slice
   fails here.  To re-record after an intended change of results: run
   the test, then copy _build/default/test/maxflow_schedules.actual over
   test/fixtures/maxflow_schedules.digest. *)
let schedule_digest () =
  List.map
    (fun (jobs, machines, seed) ->
      let r = Mf.solve (Gripps.Workload.random_instance ~jobs ~machines ~seed) in
      let slices = S.slices r.Mf.schedule in
      let buf = Buffer.create 4096 in
      List.iter
        (fun (sl : S.slice) ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %s %s\n" sl.job sl.machine (R.to_string sl.start)
               (R.to_string sl.stop)))
        slices;
      Printf.sprintf "n%d-m%d-s%d %s %d %s" jobs machines seed (R.to_string r.Mf.objective)
        (List.length slices)
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    (List.init 8 (fun k -> (18, 3, k + 1)) @ [ (40, 4, 3) ])

let test_maxflow_schedule_fixture () =
  Fixture.check ~fixture:"fixtures/maxflow_schedules.digest"
    ~actual:"maxflow_schedules.actual" (schedule_digest ())

(* The names an LP prints are made on demand from what each variable and
   constraint stands for; this is the text they printed when every name
   was built eagerly, for [Problem.pp] and the oracle's violation
   messages. *)
let test_formulation_names () =
  let inst =
    I.make ~releases:[| R.zero; R.one |] ~weights:[| R.one; ri 2 |]
      [| [| Some (ri 2); None |]; [| Some (ri 3); Some (ri 4) |] |]
  in
  let pp p = Format.asprintf "%a" (Lp.Problem.pp R.pp) p in
  let makespan = (Sched_core.Formulations.makespan_system inst).mk_problem in
  Alcotest.(check string) "makespan system"
    "minimize 1·delta\n\
     subject to:\n\
    \  res_t0_m0: 2·a_t0_m0_j0 <= 1\n\
    \  res_t0_m1: 3·a_t0_m1_j0 <= 1\n\
    \  final_m1: -1·delta + 4·a_t1_m1_j1 + 3·a_t1_m1_j0 <= 0\n\
    \  final_m0: -1·delta + 2·a_t1_m0_j0 <= 0\n\
    \  complete_j0: 1·a_t1_m1_j0 + 1·a_t1_m0_j0 + 1·a_t0_m1_j0\n\
    \  + 1·a_t0_m0_j0 = 1\n\
    \  complete_j1: 1·a_t1_m1_j1 = 1\n"
    (pp makespan);
  Alcotest.(check string) "parametric system (5)"
    "minimize 1·F\n\
     subject to:\n\
    \  res_t0_m0: 2·a_t0_m0_j0 <= 1\n\
    \  res_t2_m1: -1/2·F + 3·a_t2_m1_j0 <= -1\n\
    \  res_t0_m1: 3·a_t0_m1_j0 <= 1\n\
    \  res_t2_m0: -1/2·F + 2·a_t2_m0_j0 <= -1\n\
    \  res_t1_m1: -1/2·F + 4·a_t1_m1_j1 + 3·a_t1_m1_j0 <= 0\n\
    \  res_t1_m0: -1/2·F + 2·a_t1_m0_j0 <= 0\n\
    \  job_t0_j0: 3·a_t0_m1_j0 + 2·a_t0_m0_j0 <= 1\n\
    \  job_t2_j0: -1/2·F + 3·a_t2_m1_j0 + 2·a_t2_m0_j0 <= -1\n\
    \  job_t1_j1: -1/2·F + 4·a_t1_m1_j1 <= 0\n\
    \  job_t1_j0: -1/2·F + 3·a_t1_m1_j0 + 2·a_t1_m0_j0 <= 0\n\
    \  complete_j0: 1·a_t2_m1_j0 + 1·a_t2_m0_j0 + 1·a_t1_m1_j0 + 1·a_t1_m0_j0\n\
    \  + 1·a_t0_m1_j0 + 1·a_t0_m0_j0 = 1\n\
    \  complete_j1: 1·a_t1_m1_j1 = 1\n\
    \  F_lo: 1·F >= 2\n\
    \  F_hi: 1·F <= 3\n"
    (pp
       (Sched_core.Formulations.parametric_system ~divisible:false inst ~f_lo:(ri 2)
          ~f_hi:(ri 3))
         .pf_problem);
  let values = Array.make makespan.Lp.Problem.num_vars R.one in
  values.(0) <- R.minus_one;
  Alcotest.(check (result unit string)) "violation messages"
    (Error
       "variable delta negative; constraint res_t0_m0 violated; constraint res_t0_m1 \
        violated; constraint final_m1 violated; constraint final_m0 violated; \
        constraint complete_j0 violated; ")
    (Oracle.Simplex.Exact.check_feasible makespan values)

let test_maxflow_staggered () =
  (* r = (0, 2), c = (4, 1), equal weights, single machine.
     Serving in arrival order with preemption of j0 by j1:
     j1 flow = 1 if served immediately on arrival (complete at 3),
     then j0 completes at 5, flow 5.  Or j0 first: j0 flow 4, j1 completes
     at 5, flow 3.  Or split: the optimum is min over max(C0, C1 - 2)...
     total work 5 means someone finishes at 5.  If j0 last: flow 5; if j1
     last: flow 3.  So F* = max(3, flow of j0 ≤ 4... j0 can complete at 4
     exactly if uninterrupted, flow 4, and j1 completes at 5, flow 3 → 4.
     Better: serve j0 during [0,4), j1 during [4,5): F = max(4,3) = 4?
     Serve j1 first at [2,3): j0 completes at 5 → F = 5.  Split j0 around:
     j0 in [0,2)∪[3,5) flow 5.  So F* = 4? Check balance: give j1 some
     head start δ: j0 completes at 4+δ... no improvement. F* = 4? But wait:
     what about finishing j0 before j1 arrives? impossible (4 > 2).
     F* = 4. *)
  let inst = simple ~releases:[| R.zero; ri 2 |] [| [| 4; 1 |] |] in
  let r = Mf.solve inst in
  Alcotest.(check rat) "F* = 4" (ri 4) r.Mf.objective

let test_maxflow_restricted_availability () =
  (* Two jobs, two machines, each job restricted to its own machine:
     independent. F* = max(w0 c0, w1 c1) = max(4, 7) = 7. *)
  let inst = simple [| [| 4; 0 |]; [| 0; 7 |] |] in
  let r = Mf.solve inst in
  Alcotest.(check rat) "independent" (ri 7) r.Mf.objective

(* Optimality certificate: F* feasible (by construction) and slightly less
   than F* infeasible. *)
let shrink f = R.mul f (q 1048575 1048576)

let prop_maxflow_optimal =
  QCheck.Test.make ~name:"max-flow: F* achieved, F*·(1-ε) infeasible" ~count:40
    arbitrary_instance (fun inst ->
      let r = Mf.solve inst in
      let achieved = R.equal (S.max_weighted_flow r.Mf.schedule) r.Mf.objective in
      let valid = Result.is_ok (S.validate_divisible r.Mf.schedule) in
      let below = shrink r.Mf.objective in
      let tight =
        not (Dl.is_feasible inst ~deadlines:(Dl.flow_deadlines inst ~objective:below))
      in
      achieved && valid && tight)

let prop_maxflow_weight_scaling =
  QCheck.Test.make ~name:"max-flow scales with uniform weight scaling" ~count:30
    (QCheck.pair arbitrary_instance (QCheck.int_range 2 5))
    (fun (inst, k) ->
      let n = I.num_jobs inst in
      let scaled =
        I.make
          ~releases:(Array.init n (I.release inst))
          ~weights:(Array.init n (fun j -> R.mul_int (I.weight inst j) k))
          (Array.init (I.num_machines inst) (fun i ->
               Array.init n (fun j -> I.cost inst ~machine:i ~job:j)))
      in
      R.equal (Mf.solve scaled).Mf.objective (R.mul_int (Mf.solve inst).Mf.objective k))

let prop_maxflow_below_serial =
  QCheck.Test.make ~name:"F* ≤ serial upper bound" ~count:40 arbitrary_instance
    (fun inst ->
      let r = Mf.solve inst in
      R.compare r.Mf.objective (Mf.feasible_upper_bound inst) <= 0)

let prop_bisection_brackets_optimum =
  (* The naive §4.3.1 bisection must sandwich the exact optimum: never
     below it, within (1 + ε) above it.  Its schedule, decoded from a cold
     solve of the deadline system at the returned objective, must pass
     the independent checker and meet every deadline d̄_j there (its own
     maximum weighted flow may sit below the objective). *)
  QCheck.Test.make ~name:"bisection within (1+ε) of the exact optimum" ~count:20
    arbitrary_instance (fun inst ->
      let exact = (Mf.solve inst).Mf.objective in
      let approx = Mf.solve_bisection inst in
      let eps = q 1 1048576 in
      Result.is_ok (S.validate_divisible approx.Mf.schedule)
      && Result.is_ok (Check.Invariants.divisible approx.Mf.schedule)
      && Result.is_ok
           (Check.Invariants.deadlines_met ~objective:approx.Mf.objective
              approx.Mf.schedule)
      && R.compare exact approx.Mf.objective <= 0
      && R.compare approx.Mf.objective (R.mul exact (R.add R.one eps)) <= 0)

let prop_max_stretch_consistent =
  QCheck.Test.make ~name:"max-stretch solver: metric equals objective" ~count:30
    arbitrary_instance (fun inst ->
      let r = Mf.solve_max_stretch inst in
      R.equal (S.max_stretch r.Mf.schedule) r.Mf.objective)

(* ------------------------------------------------------------------ *)
(* Flow origins (the online re-optimization hook)                      *)
(* ------------------------------------------------------------------ *)

let test_flow_origin_shifts_optimum () =
  (* One job, released at 2 but with flow measured from 0: it cannot start
     before 2 and takes 4, so its flow is 6 instead of 4. *)
  let costs = [| [| Some (ri 4) |] |] in
  let base = I.make ~releases:[| ri 2 |] ~weights:[| R.one |] costs in
  let aged =
    I.make ~flow_origins:[| R.zero |] ~releases:[| ri 2 |] ~weights:[| R.one |] costs
  in
  Alcotest.(check rat) "default origin" (ri 4) (Mf.solve base).Mf.objective;
  Alcotest.(check rat) "earlier origin" (ri 6) (Mf.solve aged).Mf.objective

let test_flow_origin_validation () =
  Alcotest.(check bool) "origin after release rejected" true
    (try
       ignore
         (I.make ~flow_origins:[| ri 3 |] ~releases:[| ri 2 |] ~weights:[| R.one |]
            [| [| Some (ri 1) |] |]);
       false
     with Invalid_argument _ -> true)

let test_flow_origin_milestone () =
  (* With o < r, the deadline function crosses the job's own release date:
     d̄(F) = 0 + F/1 = 2 at F = 2. *)
  let inst =
    I.make ~flow_origins:[| R.zero |] ~releases:[| ri 2 |] ~weights:[| R.one |]
      [| [| Some (ri 4) |] |]
  in
  Alcotest.(check (list rat)) "own-release milestone" [ ri 2 ] (Ms.compute inst)

let prop_flow_origin_dominates =
  QCheck.Test.make ~name:"earlier flow origins never decrease F*" ~count:25
    arbitrary_instance (fun inst ->
      let n = I.num_jobs inst in
      let releases = Array.init n (I.release inst) in
      let shifted =
        I.make
          ~flow_origins:(Array.map (fun r -> R.div_int r 2) releases)
          ~releases
          ~weights:(Array.init n (I.weight inst))
          (Array.init (I.num_machines inst) (fun i ->
               Array.init n (fun j -> I.cost inst ~machine:i ~job:j)))
      in
      R.compare (Mf.solve inst).Mf.objective (Mf.solve shifted).Mf.objective <= 0)

(* ------------------------------------------------------------------ *)
(* Flow_search: float-guided, bracket-certified search                  *)
(* ------------------------------------------------------------------ *)

module Fs = Sched_core.Flow_search

(* A truthful [certify] for first feasible index [boundary], counting its
   calls; [Found] carries [payload i]. *)
let counted_certify ~boundary payload =
  let calls = ref 0 in
  let certify i =
    incr calls;
    if i < boundary then Fs.Higher
    else if i > boundary then Fs.Lower
    else Fs.Found (payload i)
  in
  (certify, calls)

let prop_flow_search_certified =
  (* The float oracle may lie arbitrarily near the boundary; the search
     must still return the exact first-feasible index, from one [certify]
     call exactly when the float guess is right. *)
  QCheck.Test.make ~name:"flow search immune to approx-oracle lies" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* len = int_range 1 20 in
         let* exact_idx = int_range 0 (len - 1) in
         let* approx_idx = int_range 0 (len - 1) in
         return (len, exact_idx, approx_idx)))
    (fun (len, exact_idx, approx_idx) ->
      let candidates = Array.init len (fun i -> R.of_int i) in
      let certify, calls =
        counted_certify ~boundary:exact_idx (fun i -> candidates.(i))
      in
      let approx f = R.compare f (R.of_int approx_idx) >= 0 in
      let idx, payload = Fs.first_feasible ~certify ~approx candidates in
      let guided_calls = !calls in
      (* Without a float guess the exact search alone finds it too. *)
      let plain_idx, _ = Fs.first_feasible ~certify candidates in
      (* The payload must be the winning bracket's, not a stale one. *)
      idx = exact_idx && R.equal payload candidates.(idx) && plain_idx = exact_idx
      && (guided_calls = 1) = (approx_idx = exact_idx))

let prop_flow_search_noisy_approx =
  (* The approximation need not even be monotone: it is right everywhere
     except at the [flips] indices, where its verdict is inverted.  The
     search must land on the exact boundary and return that bracket's
     payload; with no flips the guess is right and one call suffices. *)
  QCheck.Test.make ~name:"noisy approx: index and payload" ~count:60
    (QCheck.make
       ~print:(fun (n, b, flips) ->
         Printf.sprintf "n=%d boundary=%d flips=[%s]" n b
           (String.concat ";" (List.map string_of_int flips)))
       QCheck.Gen.(
         let* n = int_range 2 40 in
         let* boundary = int_range 0 (n - 1) in
         let* flips = list_size (int_range 0 8) (int_range 0 (n - 1)) in
         return (n, boundary, flips)))
    (fun (n, boundary, flips) ->
      let candidates = Array.init n (fun i -> ri (i + 1)) in
      let index_of v = int_of_float (R.to_float v) - 1 in
      let certify, calls =
        counted_certify ~boundary (fun i -> "pay:" ^ R.to_string candidates.(i))
      in
      let approx v =
        let i = index_of v in
        (i >= boundary) <> List.mem i flips
      in
      let idx, payload = Fs.first_feasible ~certify ~approx candidates in
      idx = boundary
      && String.equal payload ("pay:" ^ R.to_string candidates.(boundary))
      && (flips <> [] || !calls = 1))

let prop_flow_search_approx_limit =
  (* A float probe that hits the simplex's iteration cap — after [ok]
     truthful answers — must not escape: the search falls back to the
     unguided one and returns its index and payload from the same
     sequence of [certify] calls. *)
  QCheck.Test.make ~name:"approx hitting the iteration cap = unguided search" ~count:200
    (QCheck.make
       ~print:(fun (n, b, ok) -> Printf.sprintf "n=%d boundary=%d ok=%d" n b ok)
       QCheck.Gen.(
         let* n = int_range 1 40 in
         let* boundary = int_range 0 (n - 1) in
         let* ok = int_range 0 6 in
         return (n, boundary, ok)))
    (fun (n, boundary, ok) ->
      let candidates = Array.init n (fun i -> ri (i + 1)) in
      let payload i = "pay:" ^ R.to_string candidates.(i) in
      let certify, calls = counted_certify ~boundary payload in
      let answered = ref 0 and raised = ref false in
      let approx v =
        if !answered >= ok then begin
          raised := true;
          raise Lp.Solve.Iteration_limit
        end;
        incr answered;
        int_of_float (R.to_float v) - 1 >= boundary
      in
      let idx, pay = Fs.first_feasible ~certify ~approx candidates in
      let guided_calls = !calls in
      calls := 0;
      let plain_idx, plain_pay = Fs.first_feasible ~certify candidates in
      idx = boundary && plain_idx = boundary && String.equal pay plain_pay
      && ((not !raised) || guided_calls = !calls))

(* A float probe without a verdict.  10⁻⁹·x = 1 on two rows prices x
   below −eps while both of its entries are within eps of 0, so the float
   phase 1 finds no leaving row and reports [Unbounded];
   [Deadline.decide_approx] turns that into [No_verdict].  The search
   drops its guess as on an iteration cap: one [search.approx_limit]
   event, then the unguided search's index, payload and certify calls. *)
let test_flow_search_approx_unbounded () =
  let module P = Lp.Problem in
  let p =
    let st = P.Builder.create () in
    let x = P.Builder.fresh_var st in
    P.Builder.add_constr st [ (x, 1e-9) ] P.Eq 1.0;
    P.Builder.add_constr st [ (x, 1e-9) ] P.Eq 1.0;
    P.Builder.finish st
  in
  Alcotest.check_raises "no verdict" Fs.No_verdict (fun () -> ignore (Dl.decide_approx p));
  let candidates = Array.init 9 (fun i -> ri (i + 1)) and boundary = 6 in
  let payload i = "pay:" ^ R.to_string candidates.(i) in
  let certify, calls = counted_certify ~boundary payload in
  let events = ref [] in
  let guided =
    Obs.Sink.with_sink
      (Obs.Sink.callback (function
        | Obs.Sink.Event e -> events := e.Obs.Sink.ev_name :: !events
        | Obs.Sink.Span _ -> ()))
      (fun () -> Fs.first_feasible ~certify ~approx:(fun _ -> Dl.decide_approx p) candidates)
  in
  let guided_calls = !calls in
  calls := 0;
  let plain = Fs.first_feasible ~certify candidates in
  Alcotest.(check (pair int string)) "unguided answer" plain guided;
  Alcotest.(check int) "unguided certify calls" !calls guided_calls;
  Alcotest.(check int) "one approx_limit event" 1
    (List.length (List.filter (String.equal "search.approx_limit") !events))

(* The certificate itself: on every bracket of a generated instance, the
   parametric LP's verdict is what exact deadline probes at both ends
   imply, and a [Found] optimum lies inside its bracket. *)
let prop_certify_matches_probes ~divisible =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s certify = probes at both ends"
         (if divisible then "divisible" else "preemptive"))
    ~count:150 (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let inst = Check.Gen.instance (Gripps.Prng.create seed) in
      I.num_jobs inst = 0
      ||
      let candidates = Ms.candidates inst ~upper:(Mf.feasible_upper_bound inst) in
      let feasible f =
        Dl.is_feasible ~divisible inst ~deadlines:(Dl.flow_deadlines inst ~objective:f)
      in
      let ok i =
        let lo_feasible = i > 0 && feasible candidates.(i - 1) in
        match (Mf.certify ~divisible inst candidates i, feasible candidates.(i)) with
        | Fs.Higher, false -> true
        | Fs.Lower, true -> lo_feasible
        | Fs.Found { Mf.f_star; _ }, true ->
          (not lo_feasible)
          && R.compare f_star (if i = 0 then R.zero else candidates.(i - 1)) > 0
          && R.compare f_star candidates.(i) <= 0
        | _ -> false
      in
      List.for_all ok (List.init (Array.length candidates) Fun.id))

(* ------------------------------------------------------------------ *)
(* Open-shop decomposition                                             *)
(* ------------------------------------------------------------------ *)

let test_openshop_identity () =
  let matrix = [| [| ri 2; R.zero |]; [| R.zero; ri 3 |] |] in
  let slots = Os.decompose ~matrix ~limit:(ri 3) in
  let total = Os.total_assigned slots ~machines:2 ~jobs:2 in
  Alcotest.(check rat) "m0 j0" (ri 2) total.(0).(0);
  Alcotest.(check rat) "m1 j1" (ri 3) total.(1).(1);
  Alcotest.(check rat) "durations sum to limit" (ri 3)
    (List.fold_left (fun acc (s : Os.slot) -> R.add acc s.duration) R.zero slots)

let test_openshop_exchange () =
  (* The classic case where both machines want both jobs: a 2x2 doubly
     stochastic matrix needs two slots. *)
  let matrix = [| [| ri 1; ri 2 |]; [| ri 2; ri 1 |] |] in
  let slots = Os.decompose ~matrix ~limit:(ri 3) in
  let total = Os.total_assigned slots ~machines:2 ~jobs:2 in
  Alcotest.(check rat) "m0 j0" (ri 1) total.(0).(0);
  Alcotest.(check rat) "m0 j1" (ri 2) total.(0).(1);
  Alcotest.(check rat) "m1 j0" (ri 2) total.(1).(0);
  Alcotest.(check rat) "m1 j1" (ri 1) total.(1).(1)

let test_openshop_rejects () =
  Alcotest.(check bool) "row sum over limit" true
    (try ignore (Os.decompose ~matrix:[| [| ri 5 |] |] ~limit:(ri 3)); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative entry" true
    (try ignore (Os.decompose ~matrix:[| [| ri (-1) |] |] ~limit:(ri 3)); false
     with Invalid_argument _ -> true)

let matrix_gen =
  let open QCheck.Gen in
  let* m = int_range 1 4 in
  let* n = int_range 1 4 in
  let* entries = array_size (return m) (array_size (return n) (int_range 0 5)) in
  (* With entries ≤ 5 and at most 4 rows/columns, sums never exceed 20. *)
  let matrix = Array.map (Array.map R.of_int) entries in
  return (matrix, R.of_int 20)

let prop_openshop_no_conflicts =
  QCheck.Test.make ~name:"open-shop slots: totals exact, durations positive" ~count:100
    (QCheck.make matrix_gen) (fun (matrix, limit) ->
      let m = Array.length matrix and n = Array.length matrix.(0) in
      let slots = Os.decompose ~matrix ~limit in
      let total = Os.total_assigned slots ~machines:m ~jobs:n in
      let totals_ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          if not (R.equal total.(i).(j) matrix.(i).(j)) then totals_ok := false
        done
      done;
      let sum_durations =
        List.fold_left (fun acc (s : Os.slot) -> R.add acc s.duration) R.zero slots
      in
      !totals_ok
      && List.for_all (fun (s : Os.slot) -> R.sign s.duration > 0) slots
      && R.equal sum_durations limit
      (* Each Birkhoff extraction zeroes an entry of the (m+n)^2 embedding,
         which bounds the preemption count - the polynomiality argument. *)
      && List.length slots <= (m + n) * (m + n))

(* ------------------------------------------------------------------ *)
(* Preemptive solver (Section 4.4)                                     *)
(* ------------------------------------------------------------------ *)

let test_preemptive_single_job_two_machines () =
  (* Without divisibility a single job cannot use two machines at once:
     F* = w · min(c) instead of the harmonic mean. *)
  let inst = simple ~weights:[| ri 4 |] [| [| 2 |]; [| 6 |] |] in
  let r = Pre.solve inst in
  check_valid_preemptive "single job" r.Pre.schedule;
  Alcotest.(check rat) "F* = 4·2" (ri 8) r.Pre.objective

let test_preemptive_equals_divisible_on_one_machine () =
  (* On a single machine the two models coincide. *)
  let inst = simple ~releases:[| R.zero; ri 2 |] ~weights:[| ri 1; ri 3 |] [| [| 4; 1 |] |] in
  let d = Mf.solve inst and p = Pre.solve inst in
  Alcotest.(check rat) "same optimum" d.Mf.objective p.Pre.objective;
  check_valid_preemptive "1-machine preemptive" p.Pre.schedule

let prop_preemptive_valid_and_dominates =
  QCheck.Test.make ~name:"preemptive: valid schedule, F*_div ≤ F*_pre ≤ serial" ~count:25
    arbitrary_instance (fun inst ->
      let d = Mf.solve inst and p = Pre.solve inst in
      Result.is_ok (S.validate_preemptive p.Pre.schedule)
      && R.equal (S.max_weighted_flow p.Pre.schedule) p.Pre.objective
      && R.compare d.Mf.objective p.Pre.objective <= 0
      && R.compare p.Pre.objective (Mf.feasible_upper_bound inst) <= 0)

let prop_preemptive_single_machine_matches_divisible =
  QCheck.Test.make ~name:"preemptive = divisible on one machine" ~count:25
    (QCheck.make (instance_gen ~max_machines:1 ()))
    (fun inst ->
      R.equal (Mf.solve inst).Mf.objective (Pre.solve inst).Pre.objective)

(* ------------------------------------------------------------------ *)
(* Gantt renderings                                                    *)
(* ------------------------------------------------------------------ *)

let test_ascii_gantt () =
  let inst = simple [| [| 4; 2 |]; [| 0; 2 |] |] in
  let sched =
    S.make inst
      [ { S.machine = 0; job = 0; start = R.zero; stop = ri 4 };
        { S.machine = 1; job = 1; start = R.zero; stop = ri 2 }
      ]
  in
  let txt = Format.asprintf "%a" (S.pp_gantt ~width:16) sched in
  Alcotest.(check bool) "has M0 lane" true
    (String.length txt > 0 && String.index_opt txt '0' <> None);
  (* Machine 0 runs job 0 for the whole horizon: its row is full of '0'. *)
  let lines = String.split_on_char '\n' txt in
  (match lines with
   | m0 :: m1 :: _ ->
     Alcotest.(check bool) "M0 busy throughout" true
       (String.length (String.concat "" (String.split_on_char '0' m0)) < String.length m0);
     Alcotest.(check bool) "M1 idle second half" true (String.contains m1 '.')
   | _ -> Alcotest.fail "expected at least two lanes");
  (* Empty schedule renders without crashing. *)
  let empty = S.make inst [] in
  Alcotest.(check bool) "empty ok" true
    (String.length (Format.asprintf "%a" (S.pp_gantt ?width:None) empty) > 0)

let test_svg_gantt () =
  let inst = simple ~releases:[| R.zero; ri 2 |] [| [| 4; 2 |] |] in
  let r = Mf.solve inst in
  let svg = Sched_core.Gantt_svg.render r.Mf.schedule in
  Alcotest.(check bool) "svg header" true
    (String.length svg > 100 && String.sub svg 0 4 = "<svg");
  Alcotest.(check bool) "closed" true
    (let suffix = "</svg>\n" in
     String.sub svg (String.length svg - String.length suffix) (String.length suffix)
     = suffix);
  (* One rect per slice plus lane backgrounds and the white canvas. *)
  let count_rects s =
    let n = ref 0 and i = ref 0 in
    let len = String.length s in
    while !i + 5 <= len do
      if String.sub s !i 5 = "<rect" then incr n;
      incr i
    done;
    !n
  in
  let slices = List.length (S.slices r.Mf.schedule) in
  Alcotest.(check int) "rect count" (slices + 1 + 1) (count_rects svg)

(* ------------------------------------------------------------------ *)
(* Instance_io                                                         *)
(* ------------------------------------------------------------------ *)

let test_io_parse () =
  let inst =
    Sched_core.Instance_io.of_string
      "machines 2\n# comment\njob 0 1 6 12\njob 5/2 2 inf 4\n\n"
  in
  Alcotest.(check int) "jobs" 2 (I.num_jobs inst);
  Alcotest.(check int) "machines" 2 (I.num_machines inst);
  Alcotest.(check rat) "release" (q 5 2) (I.release inst 1);
  Alcotest.(check rat) "weight" (ri 2) (I.weight inst 1);
  Alcotest.(check (option rat)) "inf cost" None (I.cost inst ~machine:0 ~job:1);
  Alcotest.(check (option rat)) "cost" (Some (ri 4)) (I.cost inst ~machine:1 ~job:1)

let test_io_errors () =
  let bad s =
    Alcotest.(check bool) ("rejects " ^ s) true
      (try ignore (Sched_core.Instance_io.of_string s); false
       with Invalid_argument _ -> true)
  in
  bad "";
  bad "job 0 1 2\nmachines 1\n";
  bad "machines 0\n";
  bad "machines 2\njob 0 1 5\n";
  bad "machines 1\njob 0 1 bogus\n";
  bad "machines 1\nfrob 0\n";
  bad "machines 1\njob 0 1 2\norigin 1 0\n" (* origin index out of range *);
  bad "machines 1\njob 2 1 2\norigin 0 3\n" (* origin after release *);
  (* A job-free file is the valid empty instance, not an error. *)
  let empty = Sched_core.Instance_io.of_string "machines 1\n" in
  Alcotest.(check int) "job-free file parses" 0 (I.num_jobs empty)

let prop_io_roundtrip =
  QCheck.Test.make ~name:"instance text roundtrip" ~count:100 arbitrary_instance
    (fun inst ->
      let inst' = Sched_core.Instance_io.of_string (Sched_core.Instance_io.to_string inst) in
      I.num_jobs inst = I.num_jobs inst'
      && I.num_machines inst = I.num_machines inst'
      && List.for_all
           (fun j ->
             R.equal (I.release inst j) (I.release inst' j)
             && R.equal (I.weight inst j) (I.weight inst' j)
             && List.for_all
                  (fun i ->
                    I.cost inst ~machine:i ~job:j = I.cost inst' ~machine:i ~job:j
                    || (match (I.cost inst ~machine:i ~job:j, I.cost inst' ~machine:i ~job:j) with
                        | Some a, Some b -> R.equal a b
                        | None, None -> true
                        | _ -> false))
                  (List.init (I.num_machines inst) (fun i -> i)))
           (List.init (I.num_jobs inst) (fun j -> j)))

let same_instance inst inst' =
  I.num_jobs inst = I.num_jobs inst'
  && I.num_machines inst = I.num_machines inst'
  && List.for_all
       (fun j ->
         R.equal (I.release inst j) (I.release inst' j)
         && R.equal (I.weight inst j) (I.weight inst' j)
         && List.for_all
              (fun i ->
                match (I.cost inst ~machine:i ~job:j, I.cost inst' ~machine:i ~job:j) with
                | Some a, Some b -> R.equal a b
                | None, None -> true
                | _ -> false)
              (List.init (I.num_machines inst) (fun i -> i)))
       (List.init (I.num_jobs inst) (fun j -> j))

(* The solver-oriented generator above only emits small integers; the
   format also has to round-trip rational releases/weights/costs and
   infinite ([inf]) cost entries. *)
let messy_instance_gen =
  let open QCheck.Gen in
  let pos_rat = map2 (fun n d -> q n d) (int_range 1 60) (int_range 1 12) in
  let rat = map2 (fun n d -> q n d) (int_range 0 60) (int_range 1 12) in
  let* n = int_range 1 6 in
  let* m = int_range 1 4 in
  let* releases = array_size (return n) rat in
  let* weights = array_size (return n) pos_rat in
  let* costs =
    array_size (return m)
      (array_size (return n)
         (map2 (fun finite c -> if finite then Some c else None) bool pos_rat))
  in
  let* fallback = array_size (return n) pos_rat in
  for j = 0 to n - 1 do
    if Array.for_all (fun row -> row.(j) = None) costs then
      costs.(0).(j) <- Some fallback.(j)
  done;
  return (I.make ~releases ~weights costs)

let prop_io_roundtrip_messy =
  QCheck.Test.make ~name:"rational/inf instance text roundtrip" ~count:200
    (QCheck.make messy_instance_gen ~print:(fun i -> Format.asprintf "%a" I.pp i))
    (fun inst ->
      same_instance inst
        (Sched_core.Instance_io.of_string (Sched_core.Instance_io.to_string inst)))

let test_io_errors_malformed () =
  let bad s =
    Alcotest.(check bool) ("rejects " ^ String.escaped s) true
      (try ignore (Sched_core.Instance_io.of_string s); false
       with Invalid_argument _ -> true)
  in
  bad "machines 2\nmachines 2\njob 0 1 1 1\n";      (* duplicate header *)
  bad "machines two\njob 0 1 1\n";                  (* non-numeric count *)
  bad "machines 1\njob 0 1 1 7\n";                  (* too many costs *)
  bad "machines 2\njob -1 1 1 1\n";                 (* negative release *)
  bad "machines 2\njob 0 0 1 1\n";                  (* zero weight *)
  bad "machines 2\njob 0 1 -3 1\n";                 (* negative cost *)
  bad "machines 2\njob 0 1 inf inf\n";              (* unrunnable job *)
  bad "machines 2\njob 0 1 1/0 2\n";                (* zero denominator *)
  bad "machines 1\njob 0 1 2 extra words\n"

(* ------------------------------------------------------------------ *)
(* Solver variants: the cold revised engine vs the dense tableau       *)
(* ------------------------------------------------------------------ *)

(* Bit-identical means the whole schedule matches, not just the objective;
   the printed form is an exact rendering of the rational slice list. *)
let print_sched s = Format.asprintf "%a" S.pp s

let prop_variant_makespan_identical =
  QCheck.Test.make ~name:"makespan: sparse and dense solvers bit-identical"
    ~count:30 arbitrary_instance (fun inst ->
      let rs = Oracle.with_cold (fun () -> Mk.solve inst) in
      let rd = Oracle.with_dense (fun () -> Mk.solve inst) in
      R.equal rs.Mk.makespan rd.Mk.makespan
      && print_sched rs.Mk.schedule = print_sched rd.Mk.schedule)

let prop_variant_maxflow_identical =
  QCheck.Test.make ~name:"max-flow: sparse and dense solvers bit-identical"
    ~count:20 arbitrary_instance (fun inst ->
      let rs = Oracle.with_cold (fun () -> Mf.solve inst) in
      let rd = Oracle.with_dense (fun () -> Mf.solve inst) in
      R.equal rs.Mf.objective rd.Mf.objective
      && rs.Mf.search_range = rd.Mf.search_range
      && print_sched rs.Mf.schedule = print_sched rd.Mf.schedule)

let prop_variant_deadline_identical =
  QCheck.Test.make ~name:"deadline feasibility agrees across solver variants"
    ~count:40
    (QCheck.pair arbitrary_instance (QCheck.int_range 1 10))
    (fun (inst, k) ->
      let deadlines =
        Array.init (I.num_jobs inst) (fun j ->
            R.add (I.release inst j) (R.mul_int (I.fastest_cost inst ~job:j) k))
      in
      Dl.is_feasible inst ~deadlines
      = Oracle.with_dense (fun () -> Dl.is_feasible inst ~deadlines))

let prop_variant_preemptive_identical =
  QCheck.Test.make ~name:"preemptive: sparse and dense solvers bit-identical"
    ~count:10 arbitrary_instance (fun inst ->
      let rs = Oracle.with_cold (fun () -> Pre.solve inst) in
      let rd = Oracle.with_dense (fun () -> Pre.solve inst) in
      R.equal rs.Pre.objective rd.Pre.objective
      && print_sched rs.Pre.schedule = print_sched rd.Pre.schedule)

(* ------------------------------------------------------------------ *)
(* Degeneracy classification and total solvers                         *)
(* ------------------------------------------------------------------ *)

let degeneracy =
  Alcotest.testable
    (fun fmt d -> Format.pp_print_string fmt (I.degeneracy_to_string d))
    ( = )

let check_degenerate what expected ?flow_origins ~releases ~weights cost =
  match I.make_checked ?flow_origins ~releases ~weights cost with
  | Ok _ -> Alcotest.failf "%s: accepted a degenerate instance" what
  | Error d -> Alcotest.check degeneracy what expected d

let test_make_checked_classifies () =
  check_degenerate "no machines" I.No_machines ~releases:[||] ~weights:[||] [||];
  check_degenerate "unrunnable job" (I.Unrunnable_job 1)
    ~releases:[| R.zero; R.zero |] ~weights:[| R.one; R.one |]
    [| [| Some R.one; None |]; [| Some R.one; None |] |];
  check_degenerate "zero weight" (I.Nonpositive_weight 0)
    ~releases:[| R.zero |] ~weights:[| R.zero |] [| [| Some R.one |] |];
  check_degenerate "negative release" (I.Negative_release 0)
    ~releases:[| ri (-1) |] ~weights:[| R.one |] [| [| Some R.one |] |];
  check_degenerate "origin after release" (I.Bad_flow_origin 0)
    ~flow_origins:[| ri 2 |] ~releases:[| R.one |] ~weights:[| R.one |]
    [| [| Some R.one |] |];
  check_degenerate "nonpositive cost" (I.Nonpositive_cost (0, 0))
    ~releases:[| R.zero |] ~weights:[| R.one |] [| [| Some (ri (-2)) |] |];
  (match
     I.make_checked ~releases:[| R.zero |] ~weights:[| R.one; R.one |]
       [| [| Some R.one |] |]
   with
   | Error (I.Shape_mismatch _) -> ()
   | Error d -> Alcotest.failf "shape: classified as %s" (I.degeneracy_to_string d)
   | Ok _ -> Alcotest.fail "shape: accepted mismatched arrays");
  (* A clean instance — including the 0-job edge — passes. *)
  (match I.make_checked ~releases:[| R.zero |] ~weights:[| R.one |] [| [| Some R.one |] |] with
   | Ok _ -> ()
   | Error d -> Alcotest.failf "clean: rejected as %s" (I.degeneracy_to_string d));
  match I.make_checked ~releases:[||] ~weights:[||] [| [||]; [||] |] with
  | Ok inst -> Alcotest.(check int) "0 jobs accepted" 0 (I.num_jobs inst)
  | Error d -> Alcotest.failf "0 jobs: rejected as %s" (I.degeneracy_to_string d)

let test_solve_total_trivial () =
  let empty =
    match I.make_checked ~releases:[||] ~weights:[||] [| [||]; [||] |] with
    | Ok i -> i
    | Error _ -> Alcotest.fail "empty instance rejected"
  in
  (match Mf.solve_total empty with
   | `Trivial sched ->
     Alcotest.(check int) "maxflow: empty schedule" 0 (List.length (S.slices sched));
     check_valid_divisible "maxflow trivial" sched
   | `Solved _ -> Alcotest.fail "maxflow: 0 jobs should be `Trivial");
  (match Mk.solve_total empty with
   | `Trivial sched ->
     Alcotest.(check int) "makespan: empty schedule" 0 (List.length (S.slices sched))
   | `Solved _ -> Alcotest.fail "makespan: 0 jobs should be `Trivial");
  match Pre.solve_total empty with
  | `Trivial sched ->
    Alcotest.(check int) "preemptive: empty schedule" 0 (List.length (S.slices sched));
    check_valid_preemptive "preemptive trivial" sched
  | `Solved _ -> Alcotest.fail "preemptive: 0 jobs should be `Trivial"

let test_solve_total_agrees () =
  let inst = simple ~releases:[| R.zero; R.one |] [| [| 2; 3 |]; [| 4; 2 |] |] in
  (match (Mf.solve_total inst, Mf.solve inst) with
   | `Solved r, r' -> Alcotest.check rat "maxflow objective" r'.Mf.objective r.Mf.objective
   | `Trivial _, _ -> Alcotest.fail "maxflow: nonempty instance cannot be `Trivial");
  (match (Mk.solve_total inst, Mk.solve inst) with
   | `Solved r, r' -> Alcotest.check rat "makespan" r'.Mk.makespan r.Mk.makespan
   | `Trivial _, _ -> Alcotest.fail "makespan: nonempty instance cannot be `Trivial");
  match (Pre.solve_total inst, Pre.solve inst) with
  | `Solved r, r' -> Alcotest.check rat "preemptive objective" r'.Pre.objective r.Pre.objective
  | `Trivial _, _ -> Alcotest.fail "preemptive: nonempty instance cannot be `Trivial"

let () =
  Alcotest.run "sched_core"
    [ ( "instance",
        [ Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "uniform with databanks" `Quick test_instance_uniform;
          Alcotest.test_case "stretch weights" `Quick test_stretch_weights
        ] );
      ( "schedule",
        [ Alcotest.test_case "metrics" `Quick test_schedule_metrics;
          Alcotest.test_case "overlap caught" `Quick test_validator_catches_overlap;
          Alcotest.test_case "incomplete caught" `Quick test_validator_catches_incomplete;
          Alcotest.test_case "early start caught" `Quick test_validator_catches_early_start;
          Alcotest.test_case "intra-job parallelism" `Quick test_validator_intra_job_parallelism;
          Alcotest.test_case "pack" `Quick test_pack
        ] );
      ( "makespan",
        [ Alcotest.test_case "single job" `Quick test_makespan_single;
          Alcotest.test_case "divisible split" `Quick test_makespan_divisible_split;
          Alcotest.test_case "harmonic sharing" `Quick test_makespan_harmonic;
          Alcotest.test_case "release dates" `Quick test_makespan_releases;
          Alcotest.test_case "restricted availability" `Quick test_makespan_restricted;
          Alcotest.test_case "late release" `Quick test_makespan_late_release_dominates;
          QCheck_alcotest.to_alcotest prop_makespan_valid_and_bounded;
          QCheck_alcotest.to_alcotest prop_makespan_uniform_closed_form;
          QCheck_alcotest.to_alcotest prop_makespan_single_machine_greedy
        ] );
      ( "deadline",
        [ Alcotest.test_case "tight window" `Quick test_deadline_tight;
          Alcotest.test_case "individual deadline" `Quick test_deadline_individual;
          Alcotest.test_case "deadline before release" `Quick test_deadline_before_release;
          Alcotest.test_case "flow deadlines" `Quick test_flow_deadlines;
          QCheck_alcotest.to_alcotest prop_deadline_monotone;
          QCheck_alcotest.to_alcotest prop_deadline_witness_meets_deadlines;
          QCheck_alcotest.to_alcotest prop_cross_solver_sanity
        ] );
      ( "intervals",
        [ Alcotest.test_case "of_epochals" `Quick test_intervals_of_epochals;
          QCheck_alcotest.to_alcotest prop_intervals_tile
        ] );
      ( "milestones",
        [ Alcotest.test_case "known crossings" `Quick test_milestones_known;
          Alcotest.test_case "equal weights" `Quick test_milestones_equal_weights;
          QCheck_alcotest.to_alcotest prop_milestones_bounded
        ] );
      ( "formulations",
        [ Alcotest.test_case "names print as before" `Quick test_formulation_names ] );
      ( "max-flow",
        [ Alcotest.test_case "single job harmonic" `Quick test_maxflow_single_job;
          Alcotest.test_case "two jobs one machine" `Quick test_maxflow_two_jobs_single_machine;
          Alcotest.test_case "weights matter" `Quick test_maxflow_weights_matter;
          Alcotest.test_case "staggered releases" `Quick test_maxflow_staggered;
          Alcotest.test_case "restricted availability" `Quick test_maxflow_restricted_availability;
          Alcotest.test_case "generated schedules match the fixture" `Quick
            test_maxflow_schedule_fixture;
          QCheck_alcotest.to_alcotest prop_maxflow_optimal;
          QCheck_alcotest.to_alcotest prop_maxflow_weight_scaling;
          QCheck_alcotest.to_alcotest prop_maxflow_below_serial;
          QCheck_alcotest.to_alcotest prop_bisection_brackets_optimum;
          QCheck_alcotest.to_alcotest prop_max_stretch_consistent
        ] );
      ( "flow-origins",
        [ Alcotest.test_case "shifts the optimum" `Quick test_flow_origin_shifts_optimum;
          Alcotest.test_case "validation" `Quick test_flow_origin_validation;
          Alcotest.test_case "own-release milestone" `Quick test_flow_origin_milestone;
          QCheck_alcotest.to_alcotest prop_flow_origin_dominates;
          QCheck_alcotest.to_alcotest prop_flow_search_certified;
          QCheck_alcotest.to_alcotest prop_flow_search_noisy_approx;
          QCheck_alcotest.to_alcotest prop_flow_search_approx_limit;
          Alcotest.test_case "approx without a verdict = unguided search" `Quick
            test_flow_search_approx_unbounded;
          QCheck_alcotest.to_alcotest (prop_certify_matches_probes ~divisible:true);
          QCheck_alcotest.to_alcotest (prop_certify_matches_probes ~divisible:false)
        ] );
      ( "openshop",
        [ Alcotest.test_case "diagonal" `Quick test_openshop_identity;
          Alcotest.test_case "exchange" `Quick test_openshop_exchange;
          Alcotest.test_case "invalid inputs" `Quick test_openshop_rejects;
          QCheck_alcotest.to_alcotest prop_openshop_no_conflicts
        ] );
      ( "gantt",
        [ Alcotest.test_case "ascii" `Quick test_ascii_gantt;
          Alcotest.test_case "svg" `Quick test_svg_gantt
        ] );
      ( "instance-io",
        [ Alcotest.test_case "parse" `Quick test_io_parse;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "malformed inputs" `Quick test_io_errors_malformed;
          QCheck_alcotest.to_alcotest prop_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_io_roundtrip_messy
        ] );
      ( "preemptive",
        [ Alcotest.test_case "no intra-job parallelism" `Quick
            test_preemptive_single_job_two_machines;
          Alcotest.test_case "single machine equals divisible" `Quick
            test_preemptive_equals_divisible_on_one_machine;
          QCheck_alcotest.to_alcotest prop_preemptive_valid_and_dominates;
          QCheck_alcotest.to_alcotest prop_preemptive_single_machine_matches_divisible
        ] );
      ( "degeneracy",
        [ Alcotest.test_case "make_checked classifies" `Quick test_make_checked_classifies;
          Alcotest.test_case "solve_total on 0 jobs" `Quick test_solve_total_trivial;
          Alcotest.test_case "solve_total agrees with solve" `Quick test_solve_total_agrees
        ] );
      ( "solver-variants",
        [ QCheck_alcotest.to_alcotest prop_variant_makespan_identical;
          QCheck_alcotest.to_alcotest prop_variant_maxflow_identical;
          QCheck_alcotest.to_alcotest prop_variant_deadline_identical;
          QCheck_alcotest.to_alcotest prop_variant_preemptive_identical
        ] )
    ]
