module Rat = Numeric.Rat

type job = { release : Rat.t; weight : Rat.t; flow_origin : Rat.t }

type t = {
  jobs : job array;
  num_machines : int;
  cost : Rat.t option array array;
}

type degeneracy =
  | No_machines
  | Unrunnable_job of int
  | Nonpositive_weight of int
  | Negative_release of int
  | Bad_flow_origin of int
  | Nonpositive_cost of int * int
  | Shape_mismatch of string

let degeneracy_to_string = function
  | No_machines -> "no machines"
  | Unrunnable_job j -> Printf.sprintf "job %d cannot run on any machine" j
  | Nonpositive_weight j -> Printf.sprintf "job %d: weight must be positive" j
  | Negative_release j -> Printf.sprintf "job %d: negative release date" j
  | Bad_flow_origin j ->
    Printf.sprintf "job %d: flow origin negative or after release date" j
  | Nonpositive_cost (i, j) ->
    Printf.sprintf "machine %d, job %d: finite cost must be positive" i j
  | Shape_mismatch what -> what ^ " length mismatch"

(* The per-job conditions of Section 3 for job [j], whose costs are
   column [j] of [cost], checked in a fixed order: release, flow origin,
   weight, finite costs (by machine), runnability. *)
let check_job j job cost =
  if Rat.sign job.release < 0 then Error (Negative_release j)
  else if Rat.sign job.flow_origin < 0 || Rat.compare job.flow_origin job.release > 0
  then Error (Bad_flow_origin j)
  else if Rat.sign job.weight <= 0 then Error (Nonpositive_weight j)
  else
    let rec costs i runnable =
      if i >= Array.length cost then if runnable then Ok () else Error (Unrunnable_job j)
      else
        match cost.(i).(j) with
        | Some c when Rat.sign c <= 0 -> Error (Nonpositive_cost (i, j))
        | Some _ -> costs (i + 1) true
        | None -> costs (i + 1) runnable
    in
    costs 0 false

(* Total construction: every way an input can be degenerate is reported as
   a typed value instead of an exception, so callers generating adversarial
   instances (lib/check) can classify rejects without parsing messages. *)
let make_checked ?flow_origins ~releases ~weights cost =
  let ( let* ) = Result.bind in
  let n = Array.length releases in
  let* () =
    if Array.length weights <> n then Error (Shape_mismatch "weights") else Ok ()
  in
  let flow_origins = Option.value flow_origins ~default:releases in
  let* () =
    if Array.length flow_origins <> n then Error (Shape_mismatch "flow_origins")
    else Ok ()
  in
  let m = Array.length cost in
  let* () = if m = 0 then Error No_machines else Ok () in
  let* () =
    if Array.exists (fun row -> Array.length row <> n) cost then
      Error (Shape_mismatch "cost row")
    else Ok ()
  in
  let jobs =
    Array.init n (fun j ->
        { release = releases.(j); weight = weights.(j); flow_origin = flow_origins.(j) })
  in
  let rec check j =
    if j >= n then Ok ()
    else match check_job j jobs.(j) cost with Ok () -> check (j + 1) | e -> e
  in
  let* () = check 0 in
  Ok { jobs; num_machines = m; cost = Array.map Array.copy cost }

let make ?flow_origins ~releases ~weights cost =
  match make_checked ?flow_origins ~releases ~weights cost with
  | Ok t -> t
  | Error d -> invalid_arg ("Instance.make: " ^ degeneracy_to_string d)

let uniform ~speeds ~sizes ~releases ~weights ~available =
  let m = Array.length speeds and n = Array.length sizes in
  if Array.length available <> m then invalid_arg "Instance.uniform: availability rows";
  let cost =
    Array.init m (fun i ->
        if Array.length available.(i) <> n then
          invalid_arg "Instance.uniform: availability cols";
        Array.init n (fun j ->
            if available.(i).(j) then Some (Rat.mul sizes.(j) speeds.(i)) else None))
  in
  make ~releases ~weights cost

let num_jobs t = Array.length t.jobs
let num_machines t = t.num_machines
let job t j = t.jobs.(j)
let release t j = t.jobs.(j).release
let weight t j = t.jobs.(j).weight
let flow_origin t j = t.jobs.(j).flow_origin
let cost t ~machine ~job = t.cost.(machine).(job)
let can_run t ~machine ~job = t.cost.(machine).(job) <> None

let fastest_cost t ~job =
  let best = ref None in
  for i = 0 to t.num_machines - 1 do
    match t.cost.(i).(job) with
    | Some c -> (
      match !best with
      | None -> best := Some c
      | Some b -> if Rat.compare c b < 0 then best := Some c)
    | None -> ()
  done;
  match !best with
  | Some c -> c
  | None -> assert false (* ruled out by [make] *)

let max_release t =
  Array.fold_left (fun acc j -> Rat.max acc j.release) Rat.zero t.jobs

let stretch_weights t =
  let n = Array.length t.jobs in
  {
    t with
    jobs =
      Array.init n (fun j ->
          { t.jobs.(j) with weight = Rat.inv (fastest_cost t ~job:j) });
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>%d jobs on %d machines@," (num_jobs t) t.num_machines;
  Array.iteri
    (fun j job ->
      Format.fprintf fmt "  J%d: r=%a w=%a" j Rat.pp job.release Rat.pp job.weight;
      if not (Rat.equal job.flow_origin job.release) then
        Format.fprintf fmt " o=%a" Rat.pp job.flow_origin;
      Format.fprintf fmt " costs=[";
      for i = 0 to t.num_machines - 1 do
        (match t.cost.(i).(j) with
         | Some c -> Format.fprintf fmt "%a" Rat.pp c
         | None -> Format.pp_print_string fmt "∞");
        if i < t.num_machines - 1 then Format.pp_print_string fmt "; "
      done;
      Format.fprintf fmt "]@,")
    t.jobs;
  Format.fprintf fmt "@]"
