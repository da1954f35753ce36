(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig1a online   -- run selected experiments

   Experiments (see DESIGN.md section 4 for the experiment index):
     fig1a      -- Figure 1a: sequence-databank divisibility
     fig1b      -- Figure 1b: motif-set divisibility
     makespan   -- Theorem 1: optimal makespan vs bounds, scaling
     maxflow    -- Theorem 2: optimal max weighted flow, milestone counts
     preemptive -- Section 4.4: preemptive vs divisible optima
     online     -- Conclusion: online heuristics vs offline optimum
     lp         -- ablation: exact-rational vs float simplex
     search     -- ablation: accelerated vs pure-exact milestone search
     serve      -- serving engine replay throughput vs trace size
     soak       -- serving engine per-request cost and heap over 20k live submits
     micro      -- Bechamel micro-benchmarks of the core operations

   Absolute numbers are machine- and substrate-dependent; EXPERIMENTS.md
   records how the *shapes* compare with the paper. *)

module R = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module Dv = Gripps.Divisibility
module W = Gripps.Workload

let ri = R.of_int

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Random unrelated-machines instances for the theory experiments. *)
let random_instance rng ~jobs ~machines =
  let releases = Array.init jobs (fun _ -> ri (Gripps.Prng.int rng 20)) in
  let weights = Array.init jobs (fun _ -> ri (1 + Gripps.Prng.int rng 4)) in
  let cost =
    Array.init machines (fun _ ->
        Array.init jobs (fun _ ->
            if Gripps.Prng.int rng 4 = 0 then None
            else Some (ri (1 + Gripps.Prng.int rng 9))))
  in
  for j = 0 to jobs - 1 do
    if Array.for_all (fun row -> row.(j) = None) cost then
      cost.(0).(j) <- Some (ri (1 + Gripps.Prng.int rng 9))
  done;
  I.make ~releases ~weights cost

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let averaged points =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (p : Dv.point) ->
      let sum, count = try Hashtbl.find tbl p.Dv.size with Not_found -> (0.0, 0) in
      Hashtbl.replace tbl p.Dv.size (sum +. p.Dv.time, count + 1))
    points;
  Hashtbl.fold (fun size (sum, count) l -> (size, sum /. float_of_int count) :: l) tbl []
  |> List.sort compare

let figure ~name ~xlabel ~paper_intercept points =
  section name;
  Printf.printf "%14s %14s\n" xlabel "time (s)";
  List.iter (fun (size, t) -> Printf.printf "%14d %14.2f\n" size t) (averaged points);
  let r = Dv.linear_regression points in
  Printf.printf "regression: time = %.4g*size + %.2f, r^2 = %.4f\n" r.Dv.slope r.Dv.intercept
    r.Dv.r2;
  Printf.printf "paper: fixed overhead ~%.1f s; measured here: %.2f s\n" paper_intercept
    r.Dv.intercept

let run_fig1a () =
  figure ~name:"Figure 1a: sequence databank divisibility" ~xlabel:"block (seqs)"
    ~paper_intercept:1.1
    (Dv.sequence_experiment ())

let run_fig1b () =
  figure ~name:"Figure 1b: motif set divisibility" ~xlabel:"block (motifs)"
    ~paper_intercept:10.5
    (Dv.motif_experiment ())

(* ------------------------------------------------------------------ *)
(* Theorem 1: makespan                                                 *)
(* ------------------------------------------------------------------ *)

let run_makespan () =
  section "Theorem 1: makespan minimization (LP system 1)";
  Printf.printf "%4s %4s %12s %12s %8s %10s\n" "n" "m" "makespan" "lower bnd" "ratio"
    "time (ms)";
  let rng = Gripps.Prng.create 101 in
  List.iter
    (fun (n, m) ->
      let inst = random_instance rng ~jobs:n ~machines:m in
      let r, elapsed = time_it (fun () -> Sched_core.Makespan.solve inst) in
      (match S.validate_divisible r.Sched_core.Makespan.schedule with
       | Ok () -> ()
       | Error e -> failwith ("invalid makespan schedule: " ^ e));
      let lb = Sched_core.Makespan.lower_bound inst in
      Printf.printf "%4d %4d %12s %12s %8.3f %10.1f\n" n m
        (R.to_string r.Sched_core.Makespan.makespan)
        (R.to_string lb)
        (R.to_float r.Sched_core.Makespan.makespan /. R.to_float lb)
        (elapsed *. 1000.0))
    [ (2, 2); (4, 2); (6, 3); (8, 3); (12, 4); (16, 4); (24, 6); (32, 8) ]

(* ------------------------------------------------------------------ *)
(* Theorem 2: max weighted flow                                        *)
(* ------------------------------------------------------------------ *)

let run_maxflow () =
  section "Theorem 2: max weighted flow (milestones + parametric LP)";
  Printf.printf "%4s %4s %6s %6s %12s %12s %8s %10s\n" "n" "m" "miles" "bound" "F*"
    "serial UB" "UB/F*" "time (ms)";
  let rng = Gripps.Prng.create 102 in
  List.iter
    (fun (n, m) ->
      let inst = random_instance rng ~jobs:n ~machines:m in
      let r, elapsed = time_it (fun () -> Sched_core.Max_flow.solve inst) in
      (match S.validate_divisible r.Sched_core.Max_flow.schedule with
       | Ok () -> ()
       | Error e -> failwith ("invalid max-flow schedule: " ^ e));
      let ub = Sched_core.Max_flow.feasible_upper_bound inst in
      Printf.printf "%4d %4d %6d %6d %12s %12s %8.3f %10.1f\n" n m
        (List.length r.Sched_core.Max_flow.milestones)
        (Sched_core.Milestones.count_bound inst)
        (R.to_string r.Sched_core.Max_flow.objective)
        (R.to_string ub)
        (R.to_float ub /. R.to_float r.Sched_core.Max_flow.objective)
        (elapsed *. 1000.0))
    [ (2, 2); (4, 2); (6, 3); (8, 3); (10, 4); (12, 4); (16, 5) ]

(* ------------------------------------------------------------------ *)
(* Section 4.4: preemptive vs divisible                                *)
(* ------------------------------------------------------------------ *)

let run_preemptive () =
  section "Section 4.4: preemptive (no divisibility) vs divisible optima";
  Printf.printf "%4s %4s %12s %12s %8s %6s %10s\n" "n" "m" "F* div" "F* pre" "gap %"
    "slots" "time (ms)";
  let rng = Gripps.Prng.create 103 in
  List.iter
    (fun (n, m) ->
      let inst = random_instance rng ~jobs:n ~machines:m in
      let d = Sched_core.Max_flow.solve inst in
      let p, elapsed = time_it (fun () -> Sched_core.Preemptive.solve inst) in
      (match S.validate_preemptive p.Sched_core.Preemptive.schedule with
       | Ok () -> ()
       | Error e -> failwith ("invalid preemptive schedule: " ^ e));
      let fd = R.to_float d.Sched_core.Max_flow.objective in
      let fp = R.to_float p.Sched_core.Preemptive.objective in
      Printf.printf "%4d %4d %12s %12s %8.2f %6d %10.1f\n" n m
        (R.to_string d.Sched_core.Max_flow.objective)
        (R.to_string p.Sched_core.Preemptive.objective)
        (100.0 *. ((fp /. fd) -. 1.0))
        p.Sched_core.Preemptive.preemption_slots
        (elapsed *. 1000.0))
    [ (2, 2); (4, 2); (6, 3); (8, 3); (10, 4); (12, 4) ]

(* ------------------------------------------------------------------ *)
(* Conclusion: online policies vs offline optimum                      *)
(* ------------------------------------------------------------------ *)

let run_online () =
  section "Conclusion: online scheduling vs offline optimum (max stretch)";
  Printf.printf
    "GriPPS platform: 4 machines, 3 databanks, replication 2; Poisson requests.\n";
  Printf.printf "%8s %-12s %12s %12s %12s\n" "load" "policy" "mean ratio" "worst ratio"
    "mean stretch";
  let seeds = [| 1; 2; 3; 4; 5 |] in
  List.iter
    (fun (load_name, rate, count) ->
      let per_policy = Hashtbl.create 8 in
      let reports =
        Array.map
          (fun seed ->
            let rng = Gripps.Prng.create seed in
            let platform = W.random_platform rng ~machines:4 ~banks:3 ~replication:2 in
            let requests = W.poisson_requests rng ~rate ~count ~max_motifs:60 ~banks:3 in
            let inst = I.stretch_weights (W.to_instance platform requests) in
            Online.Compare.run inst)
          seeds
      in
      Array.iter
        (fun report ->
          List.iter
            (fun (e : Online.Compare.entry) ->
              let ratios, stretches =
                try Hashtbl.find per_policy e.policy with Not_found -> ([], [])
              in
              Hashtbl.replace per_policy e.policy
                (e.vs_offline :: ratios, R.to_float e.max_stretch :: stretches))
            report.Online.Compare.entries)
        reports;
      List.iter
        (fun (module P : Online.Sim.POLICY) ->
          let ratios, stretches = Hashtbl.find per_policy P.name in
          let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
          let worst = List.fold_left max 0.0 ratios in
          Printf.printf "%8s %-12s %12.3f %12.3f %12.3f\n" load_name P.name (mean ratios)
            worst (mean stretches))
        Online.Compare.default_policies)
    [ ("light", 1.0 /. 120.0, 8); ("medium", 1.0 /. 60.0, 10); ("heavy", 1.0 /. 30.0, 12) ]

(* ------------------------------------------------------------------ *)
(* Adversarial families: unbounded heuristic ratios                    *)
(* ------------------------------------------------------------------ *)

let run_adversary () =
  section "Adversarial families: heuristic ratios grow without bound";
  Printf.printf "MCT trap (max stretch vs offline optimum):\n";
  Printf.printf "%8s %10s %12s %12s\n" "scale" "mct" "online-opt" "srpt";
  List.iter
    (fun k ->
      let inst = I.stretch_weights (Online.Adversarial.mct_trap ~scale:k) in
      let report =
        Online.Compare.run
          ~policies:
            [ (module Online.Policies.Mct); (module Online.Online_opt.Divisible);
              (module Online.Policies.Srpt) ]
          inst
      in
      match report.Online.Compare.entries with
      | [ mct; oo; srpt ] ->
        Printf.printf "%8d %10.2f %12.2f %12.2f\n" k mct.Online.Compare.vs_offline
          oo.Online.Compare.vs_offline srpt.Online.Compare.vs_offline
      | _ -> assert false)
    [ 2; 4; 8; 12 ];
  Printf.printf "SRPT starvation (max flow vs offline optimum):\n";
  Printf.printf "%8s %10s %12s\n" "jobs" "srpt" "online-opt";
  List.iter
    (fun n ->
      let inst = Online.Adversarial.srpt_starvation ~jobs:n in
      let report =
        Online.Compare.run
          ~policies:
            [ (module Online.Policies.Srpt); (module Online.Online_opt.Divisible) ]
          inst
      in
      match report.Online.Compare.entries with
      | [ srpt; oo ] ->
        Printf.printf "%8d %10.2f %12.2f\n" n srpt.Online.Compare.vs_offline
          oo.Online.Compare.vs_offline
      | _ -> assert false)
    [ 2; 4; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* Ablation: re-optimization frequency of the online adaptation        *)
(* ------------------------------------------------------------------ *)

let run_reopt () =
  section "Ablation: eager vs lazy re-optimization of the online adaptation";
  Printf.printf
    "Finding: the two coincide — the plan's first epochal boundary is the\n\
     earliest deadline, where a job completes anyway, so the lazy variant\n\
     refreshes at the same instants the eager one does.\n";
  Printf.printf "%6s %-16s %12s %12s %8s\n" "seed" "policy" "max stretch" "vs offline"
    "events";
  List.iter
    (fun seed ->
      let rng = Gripps.Prng.create seed in
      let platform = W.random_platform rng ~machines:4 ~banks:3 ~replication:2 in
      let requests = W.poisson_requests rng ~rate:(1.0 /. 15.0) ~count:14 ~max_motifs:60 ~banks:3 in
      let inst = I.stretch_weights (W.to_instance platform requests) in
      let report =
        Online.Compare.run
          ~policies:
            [ (module Online.Online_opt.Divisible);
              (module Online.Online_opt.Lazy_divisible) ]
          inst
      in
      List.iter
        (fun (e : Online.Compare.entry) ->
          Printf.printf "%6d %-16s %12.3f %12.3f %8d\n" seed e.Online.Compare.policy
            (R.to_float e.Online.Compare.max_stretch)
            e.Online.Compare.vs_offline e.Online.Compare.decisions)
        report.Online.Compare.entries)
    [ 11; 12; 13 ]

(* ------------------------------------------------------------------ *)
(* Ablation: exact vs float simplex                                    *)
(* ------------------------------------------------------------------ *)

(* Cold solves on the shipping engine (the revised simplex), so the
   columns time exactly what the schedulers run.  Also a gate: every
   problem is feasible and bounded by construction, so both instances
   must return an optimum, with objectives within 1e-6; any other pair
   fails the run. *)
let run_lp () =
  section "Ablation: exact-rational vs float revised simplex (cold)";
  Printf.printf "%6s %6s %12s %12s %10s %10s\n" "vars" "cons" "rational(ms)"
    "float (ms)" "rat/float" "agree";
  let all_agree = ref true in
  let rng = Gripps.Prng.create 104 in
  List.iter
    (fun (nv, nc) ->
      (* Feasible-by-construction minimization, as in the LP tests. *)
      let x0 = Array.init nv (fun _ -> Gripps.Prng.int rng 10) in
      let st = Lp.Problem.Builder.create () in
      for _ = 0 to nv - 1 do
        ignore (Lp.Problem.Builder.fresh_var st)
      done;
      for _ = 1 to nc do
        let row = Array.init nv (fun _ -> Gripps.Prng.int rng 5) in
        let rhs = Array.fold_left ( + ) 0 (Array.mapi (fun v k -> k * x0.(v)) row) in
        Lp.Problem.Builder.add_constr st
          (Array.to_list (Array.mapi (fun v k -> (v, ri k)) row))
          Lp.Problem.Ge (ri rhs)
      done;
      Lp.Problem.Builder.set_objective st Lp.Problem.Minimize
        (List.init nv (fun v -> (v, ri (1 + Gripps.Prng.int rng 5))));
      let p = Lp.Problem.Builder.finish st in
      let pf = Lp.Problem.map R.to_float p in
      let exact, t_exact = time_it (fun () -> Lp.Revised.Exact.solve p) in
      let approx, t_float = time_it (fun () -> Lp.Revised.Approx.solve pf) in
      let agree =
        match (exact, approx) with
        | Lp.Solution.Optimal a, Lp.Solution.Optimal c ->
          Float.abs (R.to_float a.objective -. c.objective) < 1e-6
        | _ -> false
      in
      if not agree then all_agree := false;
      Printf.printf "%6d %6d %12.2f %12.2f %10.1f %10b\n" nv nc (t_exact *. 1000.0)
        (t_float *. 1000.0)
        (t_exact /. Float.max 1e-9 t_float)
        agree)
    [ (5, 5); (10, 10); (15, 15); (20, 20); (25, 25); (30, 30) ];
  if not !all_agree then failwith "lp: float and exact solves disagree (see table above)"

(* ------------------------------------------------------------------ *)
(* Ablation: accelerated vs pure-exact milestone search                *)
(* ------------------------------------------------------------------ *)

let run_search () =
  section "Ablation: accelerated vs pure-exact milestone search, and naive bisection";
  Printf.printf "%4s %4s %12s %12s %12s %12s %10s\n" "n" "m" "accel (ms)" "exact (ms)"
    "bisect (ms)" "bisect gap" "same F*";
  let rng = Gripps.Prng.create 105 in
  List.iter
    (fun (n, m) ->
      let inst = random_instance rng ~jobs:n ~machines:m in
      let accel, t_accel = time_it (fun () -> Sched_core.Max_flow.solve inst) in
      let pure, t_exact =
        time_it (fun () -> Sched_core.Max_flow.solve ~accelerate:false inst)
      in
      (* The naive bounded-precision bisection of Section 4.3.1. *)
      let bisect, t_bisect = time_it (fun () -> Sched_core.Max_flow.solve_bisection inst) in
      let gap =
        (R.to_float bisect.Sched_core.Max_flow.objective
        /. R.to_float accel.Sched_core.Max_flow.objective)
        -. 1.0
      in
      let same =
        R.equal accel.Sched_core.Max_flow.objective pure.Sched_core.Max_flow.objective
      in
      Printf.printf "%4d %4d %12.1f %12.1f %12.1f %12.2e %10b\n" n m (t_accel *. 1000.0)
        (t_exact *. 1000.0) (t_bisect *. 1000.0) gap same)
    [ (4, 2); (6, 3); (8, 3); (10, 4); (12, 4); (16, 5) ]

(* ------------------------------------------------------------------ *)
(* Solve-budget smoke check                                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic fixed workload; counts exact/approx solves and pivots
   and compares them to the checked-in ceilings in bench/solve_budget.txt
   and to its [expect_<metric>] keys, which must match exactly.  A change
   in the search, the formulations or the pivot rules that moves a single
   pivot fails the run (and `make check` through `bench-smoke`). *)
let budget_file = "bench/solve_budget.txt"

let read_budget path =
  if not (Sys.file_exists path) then
    failwith
      (Printf.sprintf
         "smoke: missing %s; run `dune exec bench/main.exe -- smoke` from the \
          repo root (or regenerate the budget from its output)"
         path);
  let ic = open_in path in
  let tbl = Hashtbl.create 8 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %d" (fun k v -> Hashtbl.replace tbl k v)
     done
   with End_of_file -> close_in ic);
  tbl

let run_smoke () =
  section "Solve-budget smoke check (vs bench/solve_budget.txt)";
  let rng = Gripps.Prng.create 109 in
  let insts =
    List.map
      (fun (n, m) -> random_instance rng ~jobs:n ~machines:m)
      [ (4, 2); (6, 3); (8, 3); (10, 4) ]
  in
  let b_ex = Lp.Instrument.exact_totals () in
  let b_ap = Lp.Instrument.approx_totals () in
  let b_cert = Lp.Instrument.certification () in
  List.iter
    (fun inst ->
      ignore (Sched_core.Max_flow.solve inst);
      ignore (Sched_core.Makespan.solve inst))
    insts;
  let d_ex = Lp.Instrument.diff ~before:b_ex (Lp.Instrument.exact_totals ()) in
  let d_ap = Lp.Instrument.diff ~before:b_ap (Lp.Instrument.approx_totals ()) in
  let cert = Lp.Instrument.certification () in
  let measured =
    [
      ("exact_solves", d_ex.Lp.Instrument.solves);
      ("exact_pivots", Lp.Instrument.total_pivots d_ex);
      ("approx_solves", d_ap.Lp.Instrument.solves);
      ("approx_pivots", Lp.Instrument.total_pivots d_ap);
    ]
  in
  (* Warm solves are a floor, not a ceiling.  Every solve is cold, so the
     count is 0 by construction and only its expect_ key bites. *)
  let floors = [ ("exact_warm_solves", d_ex.Lp.Instrument.warm_solves) ] in
  (* How the exact solves were answered: by a certified float basis or by
     the cold exact fallback.  Exact keys only. *)
  let certification =
    [
      ("exact_certified", cert.Lp.Instrument.certified - b_cert.Lp.Instrument.certified);
      ("exact_fallbacks", cert.Lp.Instrument.fallbacks - b_cert.Lp.Instrument.fallbacks);
    ]
  in
  let budget = read_budget budget_file in
  let ok = ref true in
  Printf.printf "%-24s %10s %10s %8s\n" "metric" "measured" "budget" "ok";
  let check (rel, holds) (key, v) =
    match Hashtbl.find_opt budget key with
    | None ->
      ok := false;
      Printf.printf "%-24s %10d %10s %8s\n" key v "missing" "FAIL"
    | Some b ->
      let pass = holds v b in
      if not pass then ok := false;
      Printf.printf "%-24s %10d %10s %8s\n" key v
        (rel ^ string_of_int b)
        (if pass then "ok" else "FAIL")
  in
  List.iter (check ("<= ", ( <= ))) measured;
  List.iter (check (">= ", ( >= ))) floors;
  List.iter
    (fun (key, v) -> check ("== ", ( = )) ("expect_" ^ key, v))
    (measured @ floors @ certification);
  Json_out.write ~experiment:"smoke"
    (Json_out.Obj
       (("passed", Json_out.Bool !ok)
       :: List.map (fun (k, v) -> (k, Json_out.Int v)) (measured @ floors @ certification)));
  if not !ok then failwith "smoke: solve budget exceeded (see table above)";
  Printf.printf "solve budget respected.\n"

(* ------------------------------------------------------------------ *)
(* Numeric tower: fast-path hit rate and micro-latency                 *)
(* ------------------------------------------------------------------ *)

(* Exercises the tagged Rat representation (DESIGN §10) two ways: raw
   ns/op on machine-word vs limb-representation operands, and the
   fast-path hit rate over the same deterministic workload the solve
   budget uses.  The checked-in floors/ceilings in
   bench/numeric_budget.txt turn the hit rate into a regression gate: a
   change that silently sends solver arithmetic to the limb path fails
   `make check` here even if it stays value-correct, and so does one
   that makes the solver do markedly more rational operations (the
   [max_small_ops] ceiling), such as a dense B⁻¹ update. *)
let numeric_budget_file = "bench/numeric_budget.txt"

let run_numeric () =
  section "Numeric tower: small-word fast path (vs bench/numeric_budget.txt)";
  (* Micro: median-free single-batch timing is noisy but only printed for
     orientation; the gate below uses counted operations, not time. *)
  let iters = 200_000 in
  let time_ns_per_op f =
    let t0 = Lp.Instrument.now () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Lp.Instrument.now () -. t0) *. 1e9 /. float_of_int iters
  in
  let sa = R.of_ints 355 113 and sb = R.of_ints 22 7 in
  let big_digits = String.make 45 '7' and big_digits' = String.make 41 '3' in
  let ba = R.make (Numeric.Bigint.of_string big_digits) (Numeric.Bigint.of_string big_digits') in
  let bb = R.make (Numeric.Bigint.of_string big_digits') (Numeric.Bigint.of_string "1234567891234567891") in
  let micro =
    [
      ("rat-add-small", time_ns_per_op (fun () -> R.add sa sb));
      ("rat-mul-small", time_ns_per_op (fun () -> R.mul sa sb));
      ("rat-compare-small", time_ns_per_op (fun () -> R.compare sa sb));
      ("rat-add-big", time_ns_per_op (fun () -> R.add ba bb));
      ("rat-mul-big", time_ns_per_op (fun () -> R.mul ba bb));
    ]
  in
  Printf.printf "%-24s %12s\n" "micro" "ns/op";
  List.iter (fun (k, ns) -> Printf.printf "%-24s %12.1f\n" k ns) micro;
  (* Hit rate over the budget workload (same seed and instances as the
     smoke check). *)
  let rng = Gripps.Prng.create 109 in
  let insts =
    List.map
      (fun (n, m) -> random_instance rng ~jobs:n ~machines:m)
      [ (4, 2); (6, 3); (8, 3); (10, 4) ]
  in
  let b_small = Numeric.Counters.small_ops () in
  let b_big = Numeric.Counters.big_ops () in
  let b_promoted = Numeric.Counters.promotions () in
  let b_demoted = Numeric.Counters.demotions () in
  let b_ex = Lp.Instrument.exact_totals () in
  let _, seconds =
    time_it (fun () ->
        List.iter
          (fun inst ->
            ignore (Sched_core.Max_flow.solve inst);
            ignore (Sched_core.Makespan.solve inst))
          insts)
  in
  let d_ex = Lp.Instrument.diff ~before:b_ex (Lp.Instrument.exact_totals ()) in
  let small = Numeric.Counters.small_ops () - b_small in
  let big = Numeric.Counters.big_ops () - b_big in
  let promoted = Numeric.Counters.promotions () - b_promoted in
  let demoted = Numeric.Counters.demotions () - b_demoted in
  let hit_rate =
    if small + big = 0 then 1.0
    else float_of_int small /. float_of_int (small + big)
  in
  Printf.printf
    "workload: %d rat ops (%d small, %d big), %d promotions, %d demotions\n"
    (small + big) small big promoted demoted;
  Printf.printf "fast-path hit rate: %.2f%%  (exact solver: %.4fs, %d pivots)\n"
    (hit_rate *. 100.) d_ex.Lp.Instrument.seconds
    (Lp.Instrument.total_pivots d_ex);
  let budget = read_budget numeric_budget_file in
  let hit_pct = int_of_float (Float.round (hit_rate *. 10_000.)) in
  let measured =
    (* basis-point floor so the text file stays integer-only *)
    [
      ("min_hit_rate_bp", hit_pct, false);
      ("exact_pivots", Lp.Instrument.total_pivots d_ex, true);
      ("max_small_ops", small, true);
    ]
  in
  let ok = ref true in
  Printf.printf "%-24s %10s %10s %8s\n" "metric" "measured" "budget" "ok";
  List.iter
    (fun (key, v, ceiling) ->
      match Hashtbl.find_opt budget key with
      | None ->
        ok := false;
        Printf.printf "%-24s %10d %10s %8s\n" key v "missing" "FAIL"
      | Some b ->
        let pass = if ceiling then v <= b else v >= b in
        if not pass then ok := false;
        Printf.printf "%-24s %10d %10s %8s\n" key v
          ((if ceiling then "<= " else ">= ") ^ string_of_int b)
          (if pass then "ok" else "FAIL"))
    measured;
  Json_out.write ~experiment:"numeric"
    (Json_out.Obj
       [
         ("passed", Json_out.Bool !ok);
         ("hit_rate", Json_out.Float hit_rate);
         ("small_ops", Json_out.Int small);
         ("big_ops", Json_out.Int big);
         ("promotions", Json_out.Int promoted);
         ("demotions", Json_out.Int demoted);
         ("exact_solver_seconds", Json_out.Float d_ex.Lp.Instrument.seconds);
         ("exact_pivots", Json_out.Int (Lp.Instrument.total_pivots d_ex));
         ("workload_seconds", Json_out.Float seconds);
         ( "micro_ns",
           Json_out.Obj (List.map (fun (k, ns) -> (k, Json_out.Float ns)) micro) );
       ]);
  if not !ok then failwith "numeric: fast-path budget violated (see table above)";
  Printf.printf "numeric fast-path budget respected.\n"

(* ------------------------------------------------------------------ *)
(* Section 2, third experiment: communication overheads are negligible *)
(* ------------------------------------------------------------------ *)

let run_comm () =
  section "Section 2: communication overhead vs computation (full request)";
  Printf.printf "%-14s %12s %12s %12s %12s %12s\n" "network" "req bytes" "req (ms)"
    "resp bytes" "resp (ms)" "overhead";
  List.iter
    (fun (name, net) ->
      let a = Gripps.Network.full_request_accounting ~network:net () in
      Printf.printf "%-14s %12d %12.2f %12d %12.2f %11.4f%%\n" name
        a.Gripps.Network.request_bytes
        (a.Gripps.Network.request_time *. 1000.0)
        a.Gripps.Network.response_bytes
        (a.Gripps.Network.response_time *. 1000.0)
        (a.Gripps.Network.overhead_fraction *. 100.0))
    [ ("fast-ethernet", Gripps.Network.fast_ethernet); ("gigabit", Gripps.Network.gigabit) ];
  Printf.printf
    "paper: \"communication overhead costs are negligible, compared to the\n\
     computational workload\" — hence data transfers are ignored by the model.\n"

(* ------------------------------------------------------------------ *)
(* Ablation: uniform-case feasibility via max flow vs LP               *)
(* ------------------------------------------------------------------ *)

let run_uniform () =
  section "Ablation: uniform-machines deadline feasibility, max flow vs LP";
  Printf.printf "%4s %4s %14s %14s %10s %8s\n" "n" "m" "flow (ms)" "LP (ms)" "speedup"
    "agree";
  let rng = Gripps.Prng.create 107 in
  List.iter
    (fun (n, m) ->
      let speeds = Array.init m (fun _ -> ri (1 + Gripps.Prng.int rng 3)) in
      let sizes = Array.init n (fun _ -> ri (1 + Gripps.Prng.int rng 6)) in
      let releases = Array.init n (fun _ -> ri (Gripps.Prng.int rng 10)) in
      let available =
        Array.init m (fun _ -> Array.init n (fun _ -> Gripps.Prng.int rng 3 > 0))
      in
      for j = 0 to n - 1 do
        if Array.for_all (fun row -> not row.(j)) available then available.(0).(j) <- true
      done;
      let u =
        Sched_core.Uniform.make ~speeds ~sizes ~releases ~weights:(Array.make n R.one)
          ~available
      in
      (* Deadlines around the feasibility boundary. *)
      let deadlines =
        Array.init n (fun j ->
            R.add releases.(j) (R.mul_int sizes.(j) (1 + Gripps.Prng.int rng m)))
      in
      let via_flow, t_flow =
        time_it (fun () -> Sched_core.Uniform.is_feasible u ~deadlines)
      in
      let via_lp, t_lp =
        time_it (fun () ->
            Sched_core.Deadline.is_feasible (Sched_core.Uniform.to_instance u) ~deadlines)
      in
      Printf.printf "%4d %4d %14.2f %14.2f %10.1f %8b\n" n m (t_flow *. 1000.0)
        (t_lp *. 1000.0)
        (t_lp /. Float.max 1e-9 t_flow)
        (via_flow = via_lp))
    [ (4, 2); (8, 3); (12, 4); (16, 5); (24, 6); (32, 8) ]

(* ------------------------------------------------------------------ *)
(* Serving engine: replay throughput vs trace size                     *)
(* ------------------------------------------------------------------ *)

let run_serve () =
  section "Serving engine: virtual-clock replay throughput vs trace size";
  Printf.printf
    "Diurnal GriPPS traces (4 machines, 3 banks); engine + incremental\n\
     validation end to end, batch window 0.\n";
  Printf.printf "%6s %-12s %10s %10s %8s %8s %12s %10s %9s %11s %9s\n" "reqs" "policy"
    "decisions" "slices" "lp" "lp warm" "req/s" "time (ms)" "us/req" "rat small" "rat big";
  let json_rows = ref [] in
  List.iter
    (fun count ->
      let trace =
        Serve.Trace.diurnal ~seed:(1000 + count) ~peak_rate:0.2 ~count ()
      in
      let policies =
        ([ (module Online.Policies.Mct); (module Online.Policies.Fair);
           (module Online.Policies.Srpt) ]
          : (module Online.Sim.POLICY) list)
        (* The LP-driven policy is quadratic-ish in queue depth; keep it to
           the smaller traces so the bench stays interactive. *)
        @ (if count <= 100 then [ (module Online.Online_opt.Divisible) ] else [])
      in
      List.iter
        (fun (module P : Online.Sim.POLICY) ->
          let small0 = Numeric.Counters.small_ops () in
          let big0 = Numeric.Counters.big_ops () in
          let engine, elapsed =
            time_it (fun () -> Serve.Engine.replay ~policy:(module P) trace)
          in
          (* Rational operations on the machine-word and limb paths: where
             the exact LP's time goes once pivots are cheap. *)
          let rat_small = Numeric.Counters.small_ops () - small0 in
          let rat_big = Numeric.Counters.big_ops () - big0 in
          let m = Serve.Engine.metrics engine in
          let count_of name = Obs.Registry.count (Obs.Registry.counter m name) in
          let decisions = count_of "decisions" in
          let slices = count_of "slices" in
          let lp_solves = count_of "lp_solves" in
          let lp_warm = count_of "lp_solves_warm" in
          (* Per-request cost: flat across trace sizes when the engine's
             work per event tracks the live jobs, not the history. *)
          let us_per_request = elapsed *. 1e6 /. float_of_int count in
          Printf.printf "%6d %-12s %10d %10d %8d %8d %12.0f %10.1f %9.1f %11d %9d\n" count
            P.name decisions slices lp_solves lp_warm
            (float_of_int count /. Float.max 1e-9 elapsed)
            (elapsed *. 1000.0) us_per_request rat_small rat_big;
          json_rows :=
            Json_out.Obj
              [
                ("requests", Json_out.Int count);
                ("policy", Json_out.Str P.name);
                ("decisions", Json_out.Int decisions);
                ("slices", Json_out.Int slices);
                ("lp_solves", Json_out.Int lp_solves);
                ("lp_solves_warm", Json_out.Int lp_warm);
                ("lp_pivots_phase1", Json_out.Int (count_of "lp_pivots_phase1"));
                ("lp_pivots_phase2", Json_out.Int (count_of "lp_pivots_phase2"));
                ("lp_pivots_dual", Json_out.Int (count_of "lp_pivots_dual"));
                ("seconds", Json_out.Float elapsed);
                ("us_per_request", Json_out.Float us_per_request);
                ("rat_small_ops", Json_out.Int rat_small);
                ("rat_big_ops", Json_out.Int rat_big);
              ]
            :: !json_rows)
        policies)
    [ 50; 100; 200; 400; 1600 ];
  Json_out.write ~experiment:"serve" (Json_out.List (List.rev !json_rows))

(* ------------------------------------------------------------------ *)
(* Serving engine under machine failures                               *)
(* ------------------------------------------------------------------ *)

let run_faults () =
  section "Serving engine under machine failures: healthy vs degraded replay";
  Printf.printf
    "Poisson GriPPS trace replayed twice per policy: as-is, and under an\n\
     exponential failure/recovery overlay (in-flight work lost).  A final\n\
     never-recovered failure of bank 0's sole holder shows starvation\n\
     surfacing as incomplete requests rather than a livelock.\n";
  let trace = Serve.Trace.poisson ~seed:77 ~machines:4 ~banks:3 ~rate:0.3 ~count:60 () in
  let faulted = Serve.Trace.with_faults ~seed:78 ~mtbf:120. ~mttr:15. trace in
  (* Starvation scenario: kill every holder of bank 0 after 10 s, forever. *)
  let open Serve.Trace in
  let holders =
    List.filteri
      (fun i _ -> trace.platform.Gripps.Workload.has_bank.(i).(0))
      (Array.to_list trace.platform.Gripps.Workload.speeds |> List.mapi (fun i _ -> i))
  in
  let starving =
    { trace with events = List.map (fun i -> { at = R.of_ints 10 1; fault = Fail i }) holders }
  in
  Printf.printf "%-8s %-10s %9s %9s %7s %7s %9s %9s %8s\n" "run" "policy" "completed"
    "starved" "fails" "lost" "p95 flow" "p95 str" "time(ms)";
  let json_rows = ref [] in
  let one label (tr : Serve.Trace.t) (module P : Online.Sim.POLICY) =
    let engine, elapsed = time_it (fun () -> Serve.Engine.replay ~policy:(module P) tr) in
    let m = Serve.Engine.metrics engine in
    let count_of name = Obs.Registry.count (Obs.Registry.counter m name) in
    let q name p = Obs.Registry.quantile (Obs.Registry.histogram m name) p in
    let completed = Serve.Engine.completed engine in
    let starved = Serve.Engine.starved engine in
    Printf.printf "%-8s %-10s %9d %9d %7d %7d %9.2f %9.2f %8.1f\n" label P.name completed
      starved
      (count_of "machine_failures")
      (count_of "slices_lost")
      (q "flow_seconds" 0.95) (q "stretch" 0.95) (elapsed *. 1000.);
    json_rows :=
      Json_out.Obj
        [
          ("run", Json_out.Str label);
          ("policy", Json_out.Str P.name);
          ("submitted", Json_out.Int (Serve.Engine.submitted engine));
          ("completed", Json_out.Int completed);
          ("starved", Json_out.Int starved);
          ("failures", Json_out.Int (count_of "machine_failures"));
          ("recoveries", Json_out.Int (count_of "machine_recoveries"));
          ("slices_lost", Json_out.Int (count_of "slices_lost"));
          ("policy_rebuilds", Json_out.Int (count_of "policy_rebuilds"));
          ("p95_flow_seconds", Json_out.Float (q "flow_seconds" 0.95));
          ("p95_stretch", Json_out.Float (q "stretch" 0.95));
          ("seconds", Json_out.Float elapsed);
        ]
      :: !json_rows
  in
  let policies =
    ([ (module Online.Policies.Mct); (module Online.Policies.Srpt);
       (module Online.Policies.Fair) ]
      : (module Online.Sim.POLICY) list)
  in
  List.iter
    (fun p ->
      one "healthy" trace p;
      one "faulted" faulted p;
      one "starving" starving p)
    policies;
  Json_out.write ~experiment:"faults" (Json_out.List (List.rev !json_rows))

(* ------------------------------------------------------------------ *)
(* Live submission and scratch directories, shared by the durability   *)
(* and soak experiments                                                *)
(* ------------------------------------------------------------------ *)

(* A live client on a virtual clock: run the engine up to the request's
   arrival, then submit it. *)
let submit_at_arrival engine (e : Serve.Trace.entry) =
  let arrival = e.Serve.Trace.request.W.arrival in
  Serve.Engine.run_until engine arrival;
  ignore
    (Serve.Engine.submit engine ~id:e.Serve.Trace.id ~arrival
       ~bank:e.Serve.Trace.request.W.bank ~num_motifs:e.Serve.Trace.request.W.num_motifs ())

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let tmp name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlsched-bench-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

let wal_counter name = Obs.Registry.counter Obs.Registry.global name

(* ------------------------------------------------------------------ *)
(* Durability: WAL overhead and recovery fidelity                      *)
(* ------------------------------------------------------------------ *)

let run_durability () =
  section "Durability: write-ahead log overhead and recovery fidelity";
  Printf.printf
    "Poisson GriPPS trace driven through the serving engine three ways:\n\
     bare, write-ahead logged (fsync per event, snapshot every 50), and\n\
     crashed at the midpoint then resumed.  Each request is submitted at\n\
     its arrival, after running the engine up to it, so checkpoints see\n\
     completed jobs and slices.  The resumed state must match the\n\
     uninterrupted logged run bit for bit.\n";
  let count = 150 in
  let trace = Serve.Trace.poisson ~seed:42 ~machines:4 ~banks:3 ~rate:0.3 ~count () in
  let policy = (module Online.Policies.Mct : Online.Sim.POLICY) in
  let counts () =
    List.map
      (fun n -> (n, Obs.Registry.count (wal_counter n)))
      [ "wal.appends"; "wal.append_bytes"; "wal.fsyncs"; "wal.records_replayed";
        "wal.snapshots"; "wal.snapshot_bytes"; "wal.snapshot_encoded_bytes" ]
  in
  (* Bare run: no durability. *)
  let bare, bare_s =
    time_it (fun () ->
        let e = Serve.Engine.create ~clock:(Serve.Clock.virtual_ ()) ~policy trace.Serve.Trace.platform in
        List.iter (submit_at_arrival e) trace.Serve.Trace.entries;
        Serve.Engine.drain e;
        e)
  in
  (* Logged run: every event fsync'd, checkpoint every 50 records. *)
  let dir_oracle = tmp "durability-oracle" in
  let before = counts () in
  let (oracle, oracle_handle), logged_s =
    time_it (fun () ->
        let e = Serve.Engine.create ~clock:(Serve.Clock.virtual_ ()) ~policy trace.Serve.Trace.platform in
        let h = Serve.Snapshot.arm ~snapshot_every:50 ~dir:dir_oracle e in
        List.iter (submit_at_arrival e) trace.Serve.Trace.entries;
        Serve.Engine.drain e;
        (e, h))
  in
  Serve.Snapshot.close oracle_handle;
  let logged = List.map2 (fun (n, b) (_, a) -> (n, a - b)) before (counts ()) in
  let logged_count n = List.assoc n logged in
  (* Crash at the midpoint, resume, finish. *)
  let dir_crash = tmp "durability-crash" in
  let half = count / 2 in
  let firsts = List.filteri (fun i _ -> i < half) trace.Serve.Trace.entries in
  let rests = List.filteri (fun i _ -> i >= half) trace.Serve.Trace.entries in
  let e0 = Serve.Engine.create ~clock:(Serve.Clock.virtual_ ()) ~policy trace.Serve.Trace.platform in
  let h0 = Serve.Snapshot.arm ~snapshot_every:50 ~dir:dir_crash e0 in
  List.iter (submit_at_arrival e0) firsts;
  (* kill -9: the process vanishes; nothing is flushed beyond the WAL. *)
  Serve.Snapshot.close h0;
  let (h1, e1), resume_s =
    time_it (fun () ->
        Serve.Snapshot.resume ~snapshot_every:50 ~dir:dir_crash
          ~clock:(Serve.Clock.virtual_ ()) ~policies:[ policy ] ())
  in
  List.iter (submit_at_arrival e1) rests;
  Serve.Engine.drain e1;
  Serve.Snapshot.close h1;
  let dump e =
    Serve.Snapshot.state_to_string ~seq:0 ~platform:trace.Serve.Trace.platform
      (Serve.Engine.dump e)
  in
  let identical = dump e1 = dump oracle in
  let bare_done = Serve.Engine.completed bare = count in
  rm_rf dir_oracle;
  rm_rf dir_crash;
  Printf.printf "%-28s %12s\n" "run" "seconds";
  Printf.printf "%-28s %12.4f\n" "bare" bare_s;
  Printf.printf "%-28s %12.4f\n" "write-ahead logged" logged_s;
  Printf.printf "%-28s %12.4f\n" "resume (restore+replay)" resume_s;
  Printf.printf
    "logged: %d appends, %d bytes, %d fsyncs, %d snapshots (%d bytes written, %d newly \
     encoded); overhead %.2fx\n"
    (logged_count "wal.appends")
    (logged_count "wal.append_bytes")
    (logged_count "wal.fsyncs")
    (logged_count "wal.snapshots")
    (logged_count "wal.snapshot_bytes")
    (logged_count "wal.snapshot_encoded_bytes")
    (logged_s /. Float.max 1e-9 bare_s);
  Printf.printf "resumed state %s the uninterrupted run\n"
    (if identical then "IDENTICAL to" else "DIVERGES from");
  if not (identical && bare_done) then exit 1;
  Json_out.write ~experiment:"durability"
    (Json_out.Obj
       [
         ("passed", Json_out.Bool identical);
         ("requests", Json_out.Int count);
         ("bare_seconds", Json_out.Float bare_s);
         ("logged_seconds", Json_out.Float logged_s);
         ("resume_seconds", Json_out.Float resume_s);
         ("overhead_ratio", Json_out.Float (logged_s /. Float.max 1e-9 bare_s));
         ("appends", Json_out.Int (logged_count "wal.appends"));
         ("append_bytes", Json_out.Int (logged_count "wal.append_bytes"));
         ("fsyncs", Json_out.Int (logged_count "wal.fsyncs"));
         ("snapshots", Json_out.Int (logged_count "wal.snapshots"));
         ("snapshot_bytes", Json_out.Int (logged_count "wal.snapshot_bytes"));
         ("snapshot_encoded_bytes", Json_out.Int (logged_count "wal.snapshot_encoded_bytes"));
         ("resume_identical", Json_out.Bool identical);
       ])

(* ------------------------------------------------------------------ *)
(* Soak: per-request cost and heap as history grows                    *)
(* ------------------------------------------------------------------ *)

let run_soak () =
  section "Soak: live submits on a virtual clock as history grows";
  let count = 20_000 and block = 2_000 in
  Printf.printf
    "Poisson GriPPS trace (seed 1, 0.1 requests/s, %d requests), mct, each request\n\
     submitted at its arrival after running the engine up to it; reported per\n\
     block of %d submits.  Completed jobs are retained, so the heap grows with\n\
     history; the time per request should not.  Run once unarmed and once with\n\
     the write-ahead log armed (fsync per record, snapshot every 64 records),\n\
     each from a compacted heap; \"heap\" is the major heap after the block,\n\
     \"top heap\" the process's peak so far.\n"
    count block;
  let trace = Serve.Trace.poisson ~seed:1 ~rate:0.1 ~count () in
  let entries = Array.of_list trace.Serve.Trace.entries in
  let policy = (module Online.Policies.Mct : Online.Sim.POLICY) in
  let json_rows = ref [] in
  let one ~armed =
    let label = if armed then "armed" else "unarmed" in
    let engine =
      Serve.Engine.create ~clock:(Serve.Clock.virtual_ ()) ~policy trace.Serve.Trace.platform
    in
    let dir = tmp "soak" in
    Gc.compact ();
    let handle =
      if armed then Some (Serve.Snapshot.arm ~snapshot_every:64 ~dir engine) else None
    in
    Printf.printf "\n%s\n%8s %10s %10s %10s %6s" label "submits" "us/req" "heap" "top heap"
      "live";
    if armed then Printf.printf " %10s %14s" "snapshots" "bytes/snapshot";
    print_newline ();
    let per_block =
      List.init (count / block) (fun b ->
          let snaps0 = Obs.Registry.count (wal_counter "wal.snapshots") in
          let bytes0 = Obs.Registry.count (wal_counter "wal.snapshot_bytes") in
          let (), elapsed =
            time_it (fun () ->
                for k = b * block to ((b + 1) * block) - 1 do
                  submit_at_arrival engine entries.(k)
                done)
          in
          let us = elapsed *. 1e6 /. float_of_int block in
          let gc = Gc.quick_stat () in
          let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
          let heap_mb = mb gc.Gc.heap_words and top_mb = mb gc.Gc.top_heap_words in
          let snaps = Obs.Registry.count (wal_counter "wal.snapshots") - snaps0 in
          let bytes = Obs.Registry.count (wal_counter "wal.snapshot_bytes") - bytes0 in
          let submits = (b + 1) * block in
          Printf.printf "%8d %10.1f %7.1f MB %7.1f MB %6d" submits us heap_mb top_mb
            (Serve.Engine.active engine);
          if armed then
            Printf.printf " %10d %14.0f" snaps (float_of_int bytes /. float_of_int (max 1 snaps));
          print_newline ();
          json_rows :=
            Json_out.Obj
              [
                ("run", Json_out.Str label);
                ("submits", Json_out.Int submits);
                ("us_per_request", Json_out.Float us);
                ("heap_mb", Json_out.Float heap_mb);
                ("top_heap_mb", Json_out.Float top_mb);
                ("snapshots", Json_out.Int snaps);
                ("snapshot_bytes", Json_out.Int bytes);
              ]
            :: !json_rows;
          us)
    in
    Option.iter Serve.Snapshot.close handle;
    rm_rf dir;
    match per_block with
    | _ :: second :: _ ->
      let last = List.nth per_block (List.length per_block - 1) in
      Printf.printf "%s: last block / second block = %.2f\n" label (last /. second)
    | _ -> ()
  in
  one ~armed:false;
  one ~armed:true;
  Json_out.write ~experiment:"soak" (Json_out.List (List.rev !json_rows))

(* ------------------------------------------------------------------ *)
(* Admission control: batched re-decides vs per-request re-decides     *)
(* ------------------------------------------------------------------ *)

let run_admission () =
  section "Admission control: batched vs unbatched re-decides on a bursty stream";
  Printf.printf
    "A bursty open stream (%d bursts of %d submits, 0.2 s apart within a\n\
     burst) drives the engine through the admission valve three ways:\n\
     direct (no valve), unbatched (window 0), and batched (2 s coalescing\n\
     window).  Batching must cut decides per submit below 0.5 during the\n\
     submit phase while completing the same request set; the window-0\n\
     valve must be bit-identical to no valve at all.\n" 40 5;
  let bursts = 40 and per_burst = 5 in
  let window = 2.0 in
  let rng = Gripps.Prng.create 9 in
  let events =
    List.concat
      (List.init bursts (fun b ->
           List.init per_burst (fun k ->
               ( (3.0 *. float_of_int b) +. (0.2 *. float_of_int k),
                 Printf.sprintf "r%d-%d" b k,
                 Gripps.Prng.int rng 3,
                 100 + Gripps.Prng.int rng 100 ))))
  in
  let n = List.length events in
  let platform =
    W.random_platform (Gripps.Prng.create 42) ~machines:4 ~banks:3 ~replication:2
  in
  let policy = (module Online.Policies.Mct : Online.Sim.POLICY) in
  let p99 lats =
    let a = Array.of_list lats in
    Array.sort compare a;
    a.(99 * (Array.length a - 1) / 100)
  in
  (* One run: drive the event stream, measuring per-submit reply latency
     (clock catch-up + admission + engine submit, the work a server does
     before answering), then snapshot the decide counter before draining
     the backlog — completions re-decide identically in every regime, so
     the contrast lives in the submit phase. *)
  let run label valve =
    let engine = Serve.Engine.create ~clock:(Serve.Clock.virtual_ ()) ~policy platform in
    let admission =
      Option.map
        (fun w ->
          Serve.Admission.create
            ~config:
              { Serve.Admission.default_config with Serve.Admission.window = W.quantize w }
            engine)
        valve
    in
    let lats = ref [] in
    List.iter
      (fun (t, id, bank, num_motifs) ->
        let t0 = Unix.gettimeofday () in
        Serve.Engine.run_until engine (W.quantize t);
        (match admission with
         | Some adm -> (
           Serve.Admission.poll adm;
           match Serve.Admission.submit adm ~id ~bank ~num_motifs () with
           | Serve.Admission.Admitted _ -> ()
           | Serve.Admission.Shed _ -> failwith "shed with no caps configured")
         | None ->
           ignore
             (Serve.Engine.submit engine ~id ~arrival:(Serve.Engine.now engine) ~bank
                ~num_motifs ()));
        lats := (Unix.gettimeofday () -. t0) :: !lats)
      events;
    let m = Serve.Engine.metrics engine in
    let decides () = Obs.Registry.count (Obs.Registry.counter m "decisions") in
    let submit_phase = decides () in
    Serve.Engine.drain engine;
    let completed_ids =
      List.filter_map
        (fun (_, id, _, _) ->
          match Serve.Engine.find engine id with
          | Some j when Serve.Engine.job_completed engine j -> Some id
          | _ -> None)
        events
    in
    let valid =
      match S.validate_divisible (Serve.Engine.schedule engine) with
      | Ok () -> true
      | Error _ -> false
    in
    let dump =
      (* The valve records its own accounting ("admission." entries) in
         the shared registry; the transparency claim is about the engine's
         state and metrics, so compare modulo the valve's bookkeeping. *)
      let st = Serve.Engine.dump engine in
      let st =
        { st with
          Serve.Engine.st_metrics =
            List.filter
              (fun (k, _) -> not (String.starts_with ~prefix:"admission." k))
              st.Serve.Engine.st_metrics
        }
      in
      Serve.Snapshot.state_to_string ~seq:0 ~platform st
    in
    (label, submit_phase, decides (), p99 !lats, completed_ids, valid, dump)
  in
  let direct = run "direct" None in
  let unbatched = run "unbatched" (Some 0.0) in
  let batched = run "batched" (Some window) in
  let runs = [ direct; unbatched; batched ] in
  Printf.printf "%-10s %9s %9s %14s %12s %9s %6s\n" "run" "decides" "total"
    "decides/1k sub" "p99 reply" "completed" "valid";
  List.iter
    (fun (label, d, total, p99, completed, valid, _) ->
      Printf.printf "%-10s %9d %9d %14.1f %10.3fms %9d %6s\n" label d total
        (1000.0 *. float_of_int d /. float_of_int n)
        (p99 *. 1000.0) (List.length completed)
        (if valid then "ok" else "BAD"))
    runs;
  let ratio (_, d, _, _, _, _, _) = float_of_int d /. float_of_int n in
  let dump_of (_, _, _, _, _, _, dump) = dump in
  let completed_of (_, _, _, _, c, _, _) = List.sort compare c in
  let transparent = dump_of direct = dump_of unbatched in
  let same_completed =
    completed_of unbatched = completed_of batched
    && List.length (completed_of batched) = n
  in
  let all_valid = List.for_all (fun (_, _, _, _, _, v, _) -> v) runs in
  let passed =
    transparent && same_completed && all_valid && ratio batched < 0.5
    && ratio batched < ratio unbatched
  in
  Printf.printf
    "window-0 valve %s no valve; completed sets %s; batched decides/submit %.3f \
     (unbatched %.3f)\n"
    (if transparent then "IDENTICAL to" else "DIVERGES from")
    (if same_completed then "identical" else "DIFFER")
    (ratio batched) (ratio unbatched);
  Json_out.write ~experiment:"admission"
    (Json_out.Obj
       [
         ("passed", Json_out.Bool passed);
         ("submits", Json_out.Int n);
         ("window_seconds", Json_out.Float window);
         ("unbatched_bit_identical_to_direct", Json_out.Bool transparent);
         ("completed_sets_identical", Json_out.Bool same_completed);
         ("unbatched_decides_per_submit", Json_out.Float (ratio unbatched));
         ("batched_decides_per_submit", Json_out.Float (ratio batched));
         ( "runs",
           Json_out.List
             (List.map
                (fun (label, d, total, p99, completed, valid, _) ->
                  Json_out.Obj
                    [
                      ("run", Json_out.Str label);
                      ("decides_submit_phase", Json_out.Int d);
                      ("decides_total", Json_out.Int total);
                      ( "decides_per_1k_submits",
                        Json_out.Float (1000.0 *. float_of_int d /. float_of_int n) );
                      ("p99_reply_seconds", Json_out.Float p99);
                      ("completed", Json_out.Int (List.length completed));
                      ("schedule_valid", Json_out.Bool valid);
                    ])
                runs) );
       ]);
  if not passed then exit 1

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  section "Micro-benchmarks (Bechamel, ns/run)";
  let open Bechamel in
  let rng = Gripps.Prng.create 106 in
  let big_a = Numeric.Bigint.of_string (String.make 60 '7') in
  let big_b = Numeric.Bigint.of_string (String.make 55 '3') in
  let rat_a = R.of_ints 355 113 and rat_b = R.of_ints 22 7 in
  let small_inst = random_instance rng ~jobs:4 ~machines:2 in
  let bank =
    Gripps.Databank.generate (Gripps.Prng.create 1) ~name:"micro" ~num_sequences:20
      ~mean_length:80
  in
  let motif = Gripps.Motif.of_string "C-x(2,4)-[ST]-{P}-G" in
  let tests =
    [ Test.make ~name:"bigint-mul-60x55-digits"
        (Staged.stage (fun () -> Numeric.Bigint.mul big_a big_b));
      Test.make ~name:"bigint-divmod"
        (Staged.stage (fun () -> Numeric.Bigint.divmod big_a big_b));
      Test.make ~name:"rat-add" (Staged.stage (fun () -> R.add rat_a rat_b));
      Test.make ~name:"maxflow-n4-m2"
        (Staged.stage (fun () -> Sched_core.Max_flow.solve small_inst));
      Test.make ~name:"makespan-n4-m2"
        (Staged.stage (fun () -> Sched_core.Makespan.solve small_inst));
      Test.make ~name:"scanner-20seq"
        (Staged.stage (fun () -> Gripps.Scanner.scan [ motif ] bank))
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"dlsched" tests) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  Printf.printf "%-40s %16s\n" "benchmark" "ns/run";
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, r) ->
         match Analyze.OLS.estimates r with
         | Some [ ns ] -> Printf.printf "%-40s %16.1f\n" name ns
         | _ -> Printf.printf "%-40s %16s\n" name "n/a")

(* ------------------------------------------------------------------ *)
(* Correctness-harness throughput: the whole differential-oracle       *)
(* matrix (lib/check) over a fixed seed, as a gate and a rate          *)
(* ------------------------------------------------------------------ *)

let run_fuzz () =
  section "Fuzz: differential-oracle matrix throughput";
  let seed = 5 and cases = 200 in
  let t0 = Unix.gettimeofday () in
  let report = Check.Fuzz.run ~out_dir:"_fuzz" ~seed ~cases () in
  let dt = Unix.gettimeofday () -. t0 in
  let failures = List.length report.Check.Fuzz.failures in
  Printf.printf "%d cases x %d oracles in %.2fs (%.0f cases/s), %d failures\n"
    report.Check.Fuzz.cases
    (List.length report.Check.Fuzz.oracles_run)
    dt
    (float_of_int report.Check.Fuzz.cases /. dt)
    failures;
  Json_out.write ~experiment:"fuzz"
    (Json_out.Obj
       [ ("passed", Json_out.Bool (failures = 0));
         ("seed", Json_out.Int seed);
         ("cases", Json_out.Int report.Check.Fuzz.cases);
         ("oracles", Json_out.Int (List.length report.Check.Fuzz.oracles_run));
         ("seconds", Json_out.Float dt);
         ("failures", Json_out.Int failures)
       ]);
  if failures > 0 then failwith "fuzz: oracle matrix caught a divergence"

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("fig1a", run_fig1a);
    ("fig1b", run_fig1b);
    ("comm", run_comm);
    ("makespan", run_makespan);
    ("maxflow", run_maxflow);
    ("preemptive", run_preemptive);
    ("online", run_online);
    ("adversary", run_adversary);
    ("reopt", run_reopt);
    ("lp", run_lp);
    ("search", run_search);
    ("smoke", run_smoke);
    ("numeric", run_numeric);
    ("uniform", run_uniform);
    ("serve", run_serve);
    ("faults", run_faults);
    ("durability", run_durability);
    ("soak", run_soak);
    ("admission", run_admission);
    ("fuzz", run_fuzz);
    ("micro", run_micro)
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Flags: --json enables BENCH_*.json emission; --trace=FILE streams a
     JSON-lines trace of every span and event the experiments emit. *)
  let names =
    List.filter
      (fun a ->
        if a = "--json" then begin
          Json_out.enabled := true;
          false
        end
        else if String.length a > 8 && String.sub a 0 8 = "--trace=" then begin
          let path = String.sub a 8 (String.length a - 8) in
          (match Obs.Sink.file path with
           | sink ->
             Obs.Sink.install sink;
             at_exit Obs.Sink.uninstall
           | exception Sys_error msg ->
             Printf.eprintf "--trace: %s\n" msg;
             exit 1);
          false
        end
        else true)
      args
  in
  let requested = if names = [] then List.map fst experiments else names in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        (* Scope the envelope's trace/rat deltas to this experiment: work
           done by earlier experiments (or between writes) must not leak
           into this one's BENCH_*.json. *)
        Json_out.mark ();
        f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  Printf.printf "\nAll requested experiments completed.\n"
