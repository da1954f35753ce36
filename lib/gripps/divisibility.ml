type point = { size : int; time : float }

type regression = { slope : float; intercept : float; r2 : float }

let linear_regression points =
  let n = List.length points in
  if n < 2 then invalid_arg "Divisibility.linear_regression: need at least two points";
  let xs = List.map (fun p -> float_of_int p.size) points in
  let ys = List.map (fun p -> p.time) points in
  let sum = List.fold_left ( +. ) 0.0 in
  let nf = float_of_int n in
  let sx = sum xs and sy = sum ys in
  let sxx = sum (List.map (fun x -> x *. x) xs) in
  let sxy = sum (List.map2 ( *. ) xs ys) in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-9 then
    invalid_arg "Divisibility.linear_regression: need at least two distinct sizes";
  let slope = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  let mean_y = sy /. nf in
  let ss_tot = sum (List.map (fun y -> (y -. mean_y) ** 2.0) ys) in
  let ss_res =
    sum (List.map2 (fun x y -> (y -. (intercept +. (slope *. x))) ** 2.0) xs ys)
  in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }

(* Simulated experiments at the paper's scale. *)

let simulated_sweep ~seed ~iterations ~steps ~full ~time_of =
  let rng = Prng.create seed in
  List.concat_map
    (fun k ->
      let size = full * k / steps in
      List.init iterations (fun _ -> { size; time = time_of rng size }))
    (List.init steps (fun k -> k + 1))

let sequence_experiment ?(seed = 42) ?(iterations = 10) ?(steps = 20) () =
  simulated_sweep ~seed ~iterations ~steps ~full:Cost_model.reference_sequences
    ~time_of:(fun rng size ->
      Cost_model.block_time_noisy Cost_model.default rng ~relative_noise:0.03
        ~num_sequences:size ~num_motifs:Cost_model.reference_motifs)

let motif_experiment ?(seed = 43) ?(iterations = 10) ?(steps = 20) () =
  simulated_sweep ~seed ~iterations ~steps ~full:Cost_model.reference_motifs
    ~time_of:(fun rng size ->
      Cost_model.block_time_noisy Cost_model.default rng ~relative_noise:0.03
        ~num_sequences:Cost_model.reference_sequences ~num_motifs:size)

(* Measured experiments: real scans, timed in process CPU seconds so that
   other load on the machine does not pollute the regression.  User plus
   system time: the kernel splits a process's exact run time between the
   two by sampling at its tick, so either alone can be off by a tick
   (milliseconds, as long as a small scan) while their sum is not. *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let start = cpu_seconds () in
  let result = f () in
  (result, cpu_seconds () -. start)

let measured_setup ~seed ~num_sequences ~num_motifs =
  let rng = Prng.create seed in
  let bank =
    Databank.generate rng ~name:"measured" ~num_sequences ~mean_length:120
  in
  let motifs =
    List.init num_motifs (fun k -> Motif.random rng ~name:(Printf.sprintf "M%d" k))
  in
  (rng, bank, motifs)

let measured_sequence_experiment ?(seed = 44) ?(num_sequences = 800) ?(num_motifs = 12)
    ?(steps = 8) () =
  let rng, bank, motifs = measured_setup ~seed ~num_sequences ~num_motifs in
  let blocks =
    List.init steps (fun k ->
        let size = num_sequences * (k + 1) / steps in
        (size, Databank.sub bank rng ~size))
  in
  (* Each block's time is the fastest of five scans, one per round over
     all blocks: a slower scan measured something besides itself (another
     process's cache traffic, a GC slice), and a burst of such load then
     slows one scan of every block rather than every scan of one. *)
  let best = Array.make steps Float.infinity in
  for _ = 1 to 5 do
    List.iteri
      (fun k (_, block) ->
        best.(k) <- Float.min best.(k) (snd (cpu_time (fun () -> Scanner.scan motifs block))))
      blocks
  done;
  List.mapi (fun k (size, _) -> { size; time = best.(k) }) blocks

let measured_motif_experiment ?(seed = 45) ?(num_sequences = 800) ?(num_motifs = 12)
    ?(steps = 6) () =
  let _rng, bank, motifs = measured_setup ~seed ~num_sequences ~num_motifs in
  let motifs = Array.of_list motifs in
  List.map
    (fun k ->
      let size = max 1 (num_motifs * (k + 1) / steps) in
      let subset = Array.to_list (Array.sub motifs 0 size) in
      let _, time = cpu_time (fun () -> Scanner.scan subset bank) in
      { size; time })
    (List.init steps (fun k -> k))
