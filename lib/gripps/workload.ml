module Rat = Numeric.Rat

type platform = {
  speeds : Rat.t array;
  bank_sizes : int array;
  has_bank : bool array array;
}

type request = { arrival : Rat.t; bank : int; num_motifs : int }

type machine_state = Up | Down

type overlay = machine_state array

let all_up platform = Array.make (Array.length platform.speeds) Up

let healthy overlay = Array.for_all (fun s -> s = Up) overlay

let machine_live s = s = Up

let mask_cost state cost = match state with Up -> cost | Down -> None

let mask_column overlay column =
  if Array.length overlay <> Array.length column then
    invalid_arg "Workload.mask_column: overlay and column lengths disagree";
  Array.map2 mask_cost overlay column

(* Quantize a float of seconds to an exact number of centiseconds: exact
   rational arithmetic downstream stays cheap. *)
let centi f = Rat.of_ints (int_of_float (Float.round (f *. 100.0))) 100

let random_platform rng ~machines ~banks ~replication =
  if machines <= 0 || banks <= 0 then
    invalid_arg "Workload.random_platform: counts must be positive";
  if replication <= 0 || replication > machines then
    invalid_arg "Workload.random_platform: bad replication factor";
  let speeds =
    Array.init machines (fun _ -> Rat.of_ints (4 + Prng.int rng 13) 4)
    (* 1.0 to 4.0 in quarters *)
  in
  let has_bank = Array.make_matrix machines banks false in
  for b = 0 to banks - 1 do
    let order = Array.init machines (fun i -> i) in
    Prng.shuffle rng order;
    for k = 0 to replication - 1 do
      has_bank.(order.(k)).(b) <- true
    done
  done;
  let reference = Cost_model.reference_sequences / 10 in
  let bank_sizes =
    Array.init banks (fun _ -> reference / 2 + Prng.int rng (2 * reference))
  in
  { speeds; bank_sizes; has_bank }

let poisson_requests rng ~rate ~count ~max_motifs ~banks =
  let now = ref 0.0 in
  List.init count (fun _ ->
      now := !now +. Prng.exponential rng ~mean:(1.0 /. rate);
      {
        arrival = centi !now;
        bank = Prng.int rng banks;
        num_motifs = 1 + Prng.int rng max_motifs;
      })

let request_cost platform ~machine req =
  if not platform.has_bank.(machine).(req.bank) then None
  else begin
    let seconds =
      Cost_model.block_time Cost_model.default
        ~num_sequences:platform.bank_sizes.(req.bank)
        ~num_motifs:req.num_motifs
    in
    let quantized = Rat.mul (centi seconds) platform.speeds.(machine) in
    (* Guard against degenerate zero costs after quantization. *)
    Some (Rat.max quantized (Rat.of_ints 1 100))
  end

let cost_column platform req =
  let column =
    Array.init (Array.length platform.speeds) (fun i -> request_cost platform ~machine:i req)
  in
  if Array.for_all (fun c -> c = None) column then
    invalid_arg
      (Printf.sprintf "Workload.cost_column: bank %d is held by no machine" req.bank);
  column

let quantize = centi

let to_instance platform requests =
  let requests = Array.of_list requests in
  let n = Array.length requests in
  let m = Array.length platform.speeds in
  let releases = Array.map (fun r -> r.arrival) requests in
  let weights = Array.make n Rat.one in
  let cost =
    Array.init m (fun i -> Array.init n (fun j -> request_cost platform ~machine:i requests.(j)))
  in
  Sched_core.Instance.make ~releases ~weights cost

let random_instance ~jobs ~machines ~seed =
  let rng = Prng.create seed in
  let releases = Array.init jobs (fun _ -> Rat.of_int (Prng.int rng 20)) in
  let weights = Array.init jobs (fun _ -> Rat.of_int (1 + Prng.int rng 4)) in
  let cost =
    Array.init machines (fun _ ->
        Array.init jobs (fun _ ->
            if Prng.int rng 4 = 0 then None else Some (Rat.of_int (1 + Prng.int rng 9))))
  in
  for j = 0 to jobs - 1 do
    if Array.for_all (fun row -> row.(j) = None) cost then
      cost.(0).(j) <- Some (Rat.of_int (1 + Prng.int rng 9))
  done;
  Sched_core.Instance.make ~releases ~weights cost
