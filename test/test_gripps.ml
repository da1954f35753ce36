(* Tests for the GriPPS application substrate: PRNG, synthetic databanks,
   PROSITE motif language, the scanner (two independent implementations
   cross-checked), the calibrated cost model, the Figure 1 divisibility
   experiments and the workload generators. *)

module R = Numeric.Rat
module P = Gripps.Prng
module Db = Gripps.Databank
module M = Gripps.Motif
module Sc = Gripps.Scanner
module Cm = Gripps.Cost_model
module Dv = Gripps.Divisibility
module W = Gripps.Workload

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = P.create 7 and b = P.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (P.next a) (P.next b)
  done;
  let c = P.create 8 in
  Alcotest.(check bool) "different seed differs" true (P.next a <> P.next c)

let test_prng_ranges () =
  let rng = P.create 1 in
  for _ = 1 to 1000 do
    let x = P.int rng 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = P.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let e = P.exponential rng ~mean:2.0 in
    Alcotest.(check bool) "exponential nonnegative" true (e >= 0.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (P.int rng 0))

let test_prng_exponential_mean () =
  let rng = P.create 3 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. P.exponential rng ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "empirical mean near 5" true (mean > 4.7 && mean < 5.3)

let test_prng_shuffle_permutes () =
  let rng = P.create 4 in
  let arr = Array.init 50 (fun i -> i) in
  P.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Databank                                                            *)
(* ------------------------------------------------------------------ *)

let test_databank_generation () =
  let rng = P.create 10 in
  let bank = Db.generate rng ~name:"test" ~num_sequences:200 ~mean_length:100 in
  Alcotest.(check int) "count" 200 (Db.num_sequences bank);
  Array.iter
    (fun seq ->
      Alcotest.(check bool) "min length" true (String.length seq >= 8);
      String.iter
        (fun c ->
          Alcotest.(check bool) "alphabet only" true (String.contains Db.alphabet c))
        seq)
    bank.Db.sequences;
  let mean =
    float_of_int (Db.total_residues bank) /. 200.0
  in
  Alcotest.(check bool) "mean length plausible" true (mean > 50.0 && mean < 200.0)

let test_databank_sub () =
  let rng = P.create 11 in
  let bank = Db.generate rng ~name:"test" ~num_sequences:100 ~mean_length:50 in
  let block = Db.sub bank rng ~size:30 in
  Alcotest.(check int) "block size" 30 (Db.num_sequences block);
  (* Every sequence of the block comes from the bank. *)
  Array.iter
    (fun seq ->
      Alcotest.(check bool) "from bank" true (Array.exists (String.equal seq) bank.Db.sequences))
    block.Db.sequences;
  Alcotest.(check bool) "oversize rejected" true
    (try ignore (Db.sub bank rng ~size:101); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Motif language                                                      *)
(* ------------------------------------------------------------------ *)

let test_motif_parse_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (M.to_string (M.of_string s)))
    [ "C"; "C-A"; "x"; "x(2)"; "x(2,4)"; "[ACD]"; "{P}"; "C-x(2,4)-[ST]-{P}-G";
      "A(3)-x-[KR](1,2)" ]

let test_motif_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try ignore (M.of_string s); false with Invalid_argument _ -> true))
    [ ""; "B"; "[|]"; "[]"; "C-"; "C--A"; "x("; "x(3,1)"; "x(-1)"; "C?" ]

let test_motif_lengths () =
  let m = M.of_string "C-x(2,4)-[ST]" in
  Alcotest.(check int) "min" 4 (M.min_length m);
  Alcotest.(check int) "max" 6 (M.max_length m)

let test_prosite_library () =
  let lib = M.prosite_examples in
  Alcotest.(check int) "seven patterns" 7 (List.length lib);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.M.name ^ " roundtrips") true
        (M.to_string (M.of_string (M.to_string m)) = M.to_string m);
      Alcotest.(check bool) (m.M.name ^ " has positive span") true (M.min_length m > 0))
    lib;
  (* The N-glycosylation sequon N-{P}-[ST]-{P} on crafted subjects. *)
  let glyco = List.hd lib in
  Alcotest.(check bool) "NASA matches" true (Sc.matches_at glyco "NASA" 0);
  Alcotest.(check bool) "NATG matches" true (Sc.matches_at glyco "NATG" 0);
  Alcotest.(check bool) "NPSA rejected (proline at 2)" false (Sc.matches_at glyco "NPSA" 0);
  Alcotest.(check bool) "NASP rejected (proline at 4)" false (Sc.matches_at glyco "NASP" 0);
  Alcotest.(check bool) "NAGA rejected (no S/T)" false (Sc.matches_at glyco "NAGA" 0);
  (* The C2H2 zinc finger on a canonical finger sequence. *)
  let zinc =
    List.find (fun m -> String.length m.M.name > 7 && String.sub m.M.name 0 7 = "PS00028") lib
  in
  (* C, 2-gap, C, 3-gap, L, 8-gap, H, 3-gap, H. *)
  Alcotest.(check bool) "canonical C2H2 finger" true
    (Sc.matches_at zinc "CAACAAALAAAAAAAAHAAAH" 0);
  Alcotest.(check bool) "broken finger (missing His)" false
    (Sc.matches_at zinc "CAACAAALAAAAAAAAAAAAA" 0)

let prop_motif_random_roundtrip =
  QCheck.Test.make ~name:"random motifs roundtrip through syntax" ~count:200
    (QCheck.make (QCheck.Gen.map (fun seed ->
         M.random (P.create seed) ~name:"r") QCheck.Gen.int))
    (fun m ->
      let s = M.to_string m in
      M.to_string (M.of_string s) = s)

(* ------------------------------------------------------------------ *)
(* Scanner                                                             *)
(* ------------------------------------------------------------------ *)

let test_scanner_hand_cases () =
  let check pattern seq pos expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s @ %d in %s" pattern pos seq)
      expected
      (Sc.matches_at (M.of_string pattern) seq pos)
  in
  check "C" "ACA" 1 true;
  check "C" "ACA" 0 false;
  check "A-C" "ACA" 0 true;
  check "A-x-A" "ACA" 0 true;
  check "A-x(2)-A" "ACA" 0 false;
  check "A-x(0,2)-C" "ACA" 0 true; (* zero-width gap *)
  check "[AC]-[AC]" "CA" 0 true;
  check "{A}-A" "CA" 0 true;
  check "{C}-A" "CA" 0 false;
  check "A-x(1,3)-G" "ACCG" 0 true;
  check "A-x(1,3)-G" "ACCCCG" 0 false;
  (* Backtracking matters: the gap must not swallow the G. *)
  check "A-x(1,3)-G-A" "ACGGA" 0 true;
  (* Match at end of sequence. *)
  check "G-A" "CCGA" 2 true;
  check "G-A" "CCGA" 3 false

let test_scanner_count () =
  Alcotest.(check int) "three As" 3 (Sc.count_matches (M.of_string "A") "ACADA");
  Alcotest.(check int) "overlapping" 2 (Sc.count_matches (M.of_string "A-x-A") "ACADA");
  Alcotest.(check int) "none" 0 (Sc.count_matches (M.of_string "W-W") "ACADA")

let random_sequence_gen =
  QCheck.Gen.map
    (fun seed ->
      let rng = P.create seed in
      let len = 5 + P.int rng 40 in
      String.init len (fun _ -> Db.alphabet.[P.int rng 20]))
    QCheck.Gen.int

let prop_scanner_matches_reference =
  QCheck.Test.make ~name:"backtracking matcher agrees with NFA reference" ~count:500
    (QCheck.make
       (QCheck.Gen.pair
          (QCheck.Gen.map (fun seed -> M.random (P.create seed) ~name:"r") QCheck.Gen.int)
          random_sequence_gen))
    (fun (motif, seq) ->
      let ok = ref true in
      for pos = 0 to String.length seq - 1 do
        if Sc.matches_at motif seq pos <> Sc.matches_at_reference motif seq pos then
          ok := false
      done;
      !ok)

let test_scan_stats () =
  let rng = P.create 20 in
  let bank = Db.generate rng ~name:"b" ~num_sequences:10 ~mean_length:30 in
  let motifs = [ M.of_string "A"; M.of_string "C-x-D" ] in
  let stats = Sc.scan motifs bank in
  Alcotest.(check int) "invocations" 20 stats.Sc.invocations;
  Alcotest.(check int) "positions = total residues × motifs" (2 * Db.total_residues bank)
    stats.Sc.positions_tried;
  Alcotest.(check bool) "single-residue motif matches a lot" true (stats.Sc.matches > 0)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_model_calibration () =
  let m = Cm.default in
  let full =
    Cm.block_time m ~num_sequences:Cm.reference_sequences ~num_motifs:Cm.reference_motifs
  in
  Alcotest.(check (float 1e-6)) "full run is 110 s" 110.0 full;
  (* Figure 1a intercept: sequence block of size 0. *)
  Alcotest.(check (float 1e-6)) "sequence overhead 1.1 s" 1.1
    (Cm.block_time m ~num_sequences:0 ~num_motifs:Cm.reference_motifs);
  (* Figure 1b intercept: zero motifs against the full databank. *)
  Alcotest.(check (float 1e-6)) "motif overhead 10.5 s" 10.5
    (Cm.block_time m ~num_sequences:Cm.reference_sequences ~num_motifs:0)

let test_cost_model_linearity () =
  let m = Cm.default in
  (* Linear in sequences at fixed motifs: equal increments. *)
  let t s = Cm.block_time m ~num_sequences:s ~num_motifs:300 in
  Alcotest.(check (float 1e-9)) "linear in s" (t 2000 -. t 1000) (t 3000 -. t 2000);
  let u mo = Cm.block_time m ~num_sequences:38_000 ~num_motifs:mo in
  Alcotest.(check (float 1e-9)) "linear in m" (u 20 -. u 10) (u 30 -. u 20)

let test_cost_model_noise_bounded () =
  let m = Cm.default in
  let rng = P.create 30 in
  for _ = 1 to 200 do
    let noisy =
      Cm.block_time_noisy m rng ~relative_noise:0.05 ~num_sequences:1000 ~num_motifs:100
    in
    let clean = Cm.block_time m ~num_sequences:1000 ~num_motifs:100 in
    Alcotest.(check bool) "within 5%" true (Float.abs (noisy -. clean) <= 0.05 *. clean +. 1e-9)
  done

(* ------------------------------------------------------------------ *)
(* Divisibility experiments (Figure 1)                                 *)
(* ------------------------------------------------------------------ *)

let test_regression_exact () =
  let points = List.map (fun (s, t) -> { Dv.size = s; time = t })
      [ (0, 1.0); (10, 21.0); (20, 41.0); (30, 61.0) ]
  in
  let r = Dv.linear_regression points in
  Alcotest.(check (float 1e-9)) "slope" 2.0 r.Dv.slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 r.Dv.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1.0 r.Dv.r2

let test_regression_rejects_degenerate () =
  Alcotest.(check bool) "one point" true
    (try ignore (Dv.linear_regression [ { Dv.size = 1; time = 1.0 } ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "same size twice" true
    (try
       ignore
         (Dv.linear_regression [ { Dv.size = 1; time = 1.0 }; { Dv.size = 1; time = 2.0 } ]);
       false
     with Invalid_argument _ -> true)

let test_figure_1a_shape () =
  let points = Dv.sequence_experiment () in
  Alcotest.(check int) "20 sizes × 10 iterations" 200 (List.length points);
  let r = Dv.linear_regression points in
  (* The paper's regression: overhead ≈ 1.1 s, near-perfect linearity. *)
  Alcotest.(check bool) "intercept near 1.1" true
    (Float.abs (r.Dv.intercept -. 1.1) < 1.5);
  Alcotest.(check bool) "strong linearity" true (r.Dv.r2 > 0.98);
  let full = List.fold_left (fun acc p -> max acc p.Dv.time) 0.0 points in
  Alcotest.(check bool) "full block near 110 s" true (full > 95.0 && full < 125.0)

let test_figure_1b_shape () =
  let points = Dv.motif_experiment () in
  let r = Dv.linear_regression points in
  (* The paper's regression: overhead ≈ 10.5 s. *)
  Alcotest.(check bool) "intercept near 10.5" true
    (Float.abs (r.Dv.intercept -. 10.5) < 3.0);
  Alcotest.(check bool) "strong linearity" true (r.Dv.r2 > 0.98)

let test_overhead_contrast () =
  (* The paper's central observation: motif partitioning pays an order of
     magnitude more overhead than sequence partitioning. *)
  let ra = Dv.linear_regression (Dv.sequence_experiment ()) in
  let rb = Dv.linear_regression (Dv.motif_experiment ()) in
  Alcotest.(check bool) "overhead ratio > 5" true
    (rb.Dv.intercept > 5.0 *. ra.Dv.intercept)

let test_measured_experiment_is_linear () =
  (* Real scans on a small databank: their CPU time (the fastest of five
     scans per block) must still regress linearly with block size. *)
  let points = Dv.measured_sequence_experiment ~num_sequences:400 ~num_motifs:6 () in
  let r = Dv.linear_regression points in
  Alcotest.(check bool) "positive slope" true (r.Dv.slope > 0.0);
  Alcotest.(check bool) "decent linearity" true (r.Dv.r2 > 0.8)

(* ------------------------------------------------------------------ *)
(* Network / communication accounting (Section 2, third experiment)    *)
(* ------------------------------------------------------------------ *)

let test_transfer_time () =
  let net = { Gripps.Network.latency = 0.001; bandwidth = 1000.0 } in
  Alcotest.(check (float 1e-9)) "latency + size/bw" 0.501
    (Gripps.Network.transfer_time net ~bytes:500);
  Alcotest.(check (float 1e-9)) "empty message costs latency" 0.001
    (Gripps.Network.transfer_time net ~bytes:0)

let test_motif_set_bytes () =
  let m1 = [ M.of_string "C-x(2,4)-[ST]" ] in
  let m2 = m1 @ [ M.of_string "A-A-A" ] in
  let b1 = Gripps.Network.motif_set_bytes m1 in
  let b2 = Gripps.Network.motif_set_bytes m2 in
  Alcotest.(check bool) "positive" true (b1 > 0);
  Alcotest.(check bool) "monotone" true (b2 > b1)

let test_communication_negligible () =
  (* The paper's conclusion: transfers are negligible next to computation. *)
  List.iter
    (fun net ->
      let a = Gripps.Network.full_request_accounting ~network:net () in
      Alcotest.(check bool) "request is kilobytes" true
        (a.Gripps.Network.request_bytes > 1000 && a.Gripps.Network.request_bytes < 1_000_000);
      Alcotest.(check (float 1e-6)) "compute is the full run" 110.0
        a.Gripps.Network.compute_time;
      Alcotest.(check bool) "overhead below 1%" true
        (a.Gripps.Network.overhead_fraction < 0.01))
    [ Gripps.Network.fast_ethernet; Gripps.Network.gigabit ]

let test_selective_motifs_rarely_match () =
  let rng = P.create 50 in
  let bank = Db.generate rng ~name:"b" ~num_sequences:50 ~mean_length:150 in
  let motifs = List.init 20 (fun k -> M.random_selective rng ~name:(string_of_int k)) in
  let stats = Sc.scan motifs bank in
  (* 20 selective motifs over 50 sequences: a handful of matches at most. *)
  Alcotest.(check bool) "sparse matches" true
    (stats.Sc.matches < stats.Sc.invocations)

(* ------------------------------------------------------------------ *)
(* Workload generators                                                 *)
(* ------------------------------------------------------------------ *)

let test_platform_invariants () =
  let rng = P.create 40 in
  let p = W.random_platform rng ~machines:5 ~banks:4 ~replication:2 in
  Alcotest.(check int) "machines" 5 (Array.length p.W.speeds);
  Alcotest.(check int) "banks" 4 (Array.length p.W.bank_sizes);
  for b = 0 to 3 do
    let copies = ref 0 in
    for i = 0 to 4 do
      if p.W.has_bank.(i).(b) then incr copies
    done;
    Alcotest.(check int) (Printf.sprintf "bank %d replicated" b) 2 !copies
  done;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "speed in [1,4.25]" true
        (R.compare s R.one >= 0 && R.compare s (R.of_ints 17 4) <= 0))
    p.W.speeds

let test_requests_ordered_and_quantized () =
  let rng = P.create 41 in
  let reqs = W.poisson_requests rng ~rate:0.1 ~count:50 ~max_motifs:30 ~banks:3 in
  Alcotest.(check int) "count" 50 (List.length reqs);
  let rec ordered = function
    | (a : W.request) :: (b :: _ as rest) ->
      R.compare a.W.arrival b.W.arrival <= 0 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals non-decreasing" true (ordered reqs);
  List.iter
    (fun (r : W.request) ->
      let cs = R.mul_int r.W.arrival 100 in
      Alcotest.(check bool) "centisecond quantization" true (R.is_integer cs);
      Alcotest.(check bool) "motifs in range" true (r.W.num_motifs >= 1 && r.W.num_motifs <= 30);
      Alcotest.(check bool) "bank in range" true (r.W.bank >= 0 && r.W.bank < 3))
    reqs

let test_to_instance () =
  let rng = P.create 42 in
  let p = W.random_platform rng ~machines:3 ~banks:2 ~replication:1 in
  let reqs = W.poisson_requests rng ~rate:0.05 ~count:6 ~max_motifs:20 ~banks:2 in
  let inst = W.to_instance p reqs in
  Alcotest.(check int) "jobs" 6 (Sched_core.Instance.num_jobs inst);
  Alcotest.(check int) "machines" 3 (Sched_core.Instance.num_machines inst);
  List.iteri
    (fun j (r : W.request) ->
      Alcotest.(check bool) "release = arrival" true
        (R.equal (Sched_core.Instance.release inst j) r.W.arrival);
      for i = 0 to 2 do
        let available = p.W.has_bank.(i).(r.W.bank) in
        let has_cost = Sched_core.Instance.cost inst ~machine:i ~job:j <> None in
        Alcotest.(check bool) "cost iff bank present" available has_cost
      done)
    reqs

let test_request_cost_scaling () =
  (* Slower machines pay proportionally more. *)
  let p =
    {
      W.speeds = [| R.one; R.of_int 2 |];
      bank_sizes = [| 1000 |];
      has_bank = [| [| true |]; [| true |] |];
    }
  in
  let req = { W.arrival = R.zero; bank = 0; num_motifs = 10 } in
  match (W.request_cost p ~machine:0 req, W.request_cost p ~machine:1 req) with
  | Some c0, Some c1 -> Alcotest.(check bool) "double speed factor" true (R.equal c1 (R.mul_int c0 2))
  | _ -> Alcotest.fail "both machines hold the bank"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gripps"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes
        ] );
      ( "databank",
        [ Alcotest.test_case "generation" `Quick test_databank_generation;
          Alcotest.test_case "random sub-bank" `Quick test_databank_sub
        ] );
      ( "motif",
        [ Alcotest.test_case "parse roundtrip" `Quick test_motif_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_motif_parse_errors;
          Alcotest.test_case "match lengths" `Quick test_motif_lengths;
          Alcotest.test_case "prosite library" `Quick test_prosite_library;
          QCheck_alcotest.to_alcotest prop_motif_random_roundtrip
        ] );
      ( "scanner",
        [ Alcotest.test_case "hand cases" `Quick test_scanner_hand_cases;
          Alcotest.test_case "count matches" `Quick test_scanner_count;
          Alcotest.test_case "scan stats" `Quick test_scan_stats;
          QCheck_alcotest.to_alcotest prop_scanner_matches_reference
        ] );
      ( "cost-model",
        [ Alcotest.test_case "calibration" `Quick test_cost_model_calibration;
          Alcotest.test_case "bilinearity" `Quick test_cost_model_linearity;
          Alcotest.test_case "noise bounded" `Quick test_cost_model_noise_bounded
        ] );
      ( "divisibility",
        [ Alcotest.test_case "regression exact" `Quick test_regression_exact;
          Alcotest.test_case "regression degenerate" `Quick test_regression_rejects_degenerate;
          Alcotest.test_case "figure 1a shape" `Quick test_figure_1a_shape;
          Alcotest.test_case "figure 1b shape" `Quick test_figure_1b_shape;
          Alcotest.test_case "overhead contrast" `Quick test_overhead_contrast;
          Alcotest.test_case "measured linearity" `Slow test_measured_experiment_is_linear
        ] );
      ( "network",
        [ Alcotest.test_case "transfer time" `Quick test_transfer_time;
          Alcotest.test_case "motif set bytes" `Quick test_motif_set_bytes;
          Alcotest.test_case "communication negligible" `Quick test_communication_negligible;
          Alcotest.test_case "selective motifs sparse" `Quick test_selective_motifs_rarely_match
        ] );
      ( "workload",
        [ Alcotest.test_case "platform invariants" `Quick test_platform_invariants;
          Alcotest.test_case "requests ordered" `Quick test_requests_ordered_and_quantized;
          Alcotest.test_case "to_instance" `Quick test_to_instance;
          Alcotest.test_case "cost scaling" `Quick test_request_cost_scaling
        ] )
    ]
