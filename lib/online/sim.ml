module Rat = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule

type job_view = { id : int; release : Rat.t; weight : Rat.t; remaining : Rat.t }

type share = { machine : int; job : int; share : Rat.t }

type decision = { shares : share list; review_at : Rat.t option }

module type POLICY = sig
  type state

  val name : string
  val init : Sched_core.Instance.t -> state
  val on_arrival : state -> now:Rat.t -> job:int -> unit
  val on_completion : state -> now:Rat.t -> job:int -> unit
  val decide : state -> now:Rat.t -> active:job_view list -> decision
end

type result = { policy : string; schedule : S.t; decisions : int }

type cost = machine:int -> job:int -> Rat.t option

let bad ?(where = "Sim.run") name fmt =
  Printf.ksprintf (fun s -> invalid_arg (Printf.sprintf "%s(%s): %s" where name s)) fmt

let check_decision ?where ?(up = fun _ -> true) ~name ~machines ~cost ~eligible ~now d =
  let per_machine = Array.make machines Rat.zero in
  List.iter
    (fun s ->
      if s.machine < 0 || s.machine >= machines then bad ?where name "bad machine %d" s.machine;
      if not (eligible s.job) then bad ?where name "share on inactive job %d" s.job;
      if Rat.sign s.share <= 0 then bad ?where name "non-positive share";
      if not (up s.machine) then bad ?where name "share on down machine %d" s.machine;
      if cost ~machine:s.machine ~job:s.job = None then
        bad ?where name "share on unavailable machine %d for job %d" s.machine s.job;
      per_machine.(s.machine) <- Rat.add per_machine.(s.machine) s.share)
    d.shares;
  Array.iteri
    (fun i total ->
      if Rat.compare total Rat.one > 0 then bad ?where name "machine %d over capacity" i)
    per_machine;
  match d.review_at with
  | Some r when Rat.compare r now <= 0 -> bad ?where name "review_at not in the future"
  | _ -> ()

let next_completion ~cost d ~now ~remaining =
  let rate = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match cost ~machine:s.machine ~job:s.job with
      | Some c ->
        let r = Option.value (Hashtbl.find_opt rate s.job) ~default:Rat.zero in
        Hashtbl.replace rate s.job (Rat.add r (Rat.div s.share c))
      | None -> assert false)
    d.shares;
  Hashtbl.fold
    (fun j r acc ->
      let t = Rat.add now (Rat.div (remaining j) r) in
      match acc with None -> Some t | Some best -> Some (Rat.min best t))
    rate None

let materialize ~machines ~cost ~now ~horizon d ~debit =
  let dt = Rat.sub horizon now in
  let cursor = Array.make machines now in
  List.map
    (fun s ->
      let duration = Rat.mul s.share dt in
      let start = cursor.(s.machine) in
      let stop = Rat.add start duration in
      cursor.(s.machine) <- stop;
      (match cost ~machine:s.machine ~job:s.job with
       | Some c -> debit s.job (Rat.div duration c)
       | None -> assert false);
      { S.machine = s.machine; job = s.job; start; stop })
    d.shares

let run (module P : POLICY) inst =
  let n = I.num_jobs inst and machines = I.num_machines inst and cost = I.cost inst in
  let state = P.init inst in
  let remaining = Array.make n Rat.one in
  let completed = Array.make n false in
  let arrived = Array.make n false in
  (* Arrival queue ordered by release date. *)
  let arrival_order =
    List.sort
      (fun a b ->
        let c = Rat.compare (I.release inst a) (I.release inst b) in
        if c <> 0 then c else compare a b)
      (List.init n (fun j -> j))
  in
  let pending = ref arrival_order in
  let slices = ref [] in
  let decisions = ref 0 in
  let active_views now =
    ignore now;
    List.filter_map
      (fun j ->
        if arrived.(j) && not (completed.(j)) then
          Some { id = j; release = I.release inst j; weight = I.weight inst j;
                 remaining = remaining.(j) }
        else None)
      (List.init n (fun j -> j))
  in
  let fire_arrivals now =
    let rec go () =
      match !pending with
      | j :: rest when Rat.compare (I.release inst j) now <= 0 ->
        pending := rest;
        arrived.(j) <- true;
        P.on_arrival state ~now ~job:j;
        go ()
      | _ -> ()
    in
    go ()
  in
  let validate_decision now d =
    check_decision ~name:P.name ~machines ~cost
      ~eligible:(fun j -> j >= 0 && j < n && arrived.(j) && not completed.(j))
      ~now d
  in
  let rec loop now guard =
    if guard <= 0 then bad P.name "no progress (possible livelock)";
    let active = active_views now in
    if active = [] then begin
      match !pending with
      | [] -> () (* done *)
      | j :: _ ->
        let now = I.release inst j in
        fire_arrivals now;
        loop now (guard - 1)
    end
    else begin
      incr decisions;
      let d = P.decide state ~now ~active in
      validate_decision now d;
      (* Earliest of: job completion, next arrival, requested review. *)
      let completion_candidate =
        next_completion ~cost d ~now ~remaining:(fun j -> remaining.(j))
      in
      let arrival_candidate =
        match !pending with [] -> None | j :: _ -> Some (I.release inst j)
      in
      let te =
        List.fold_left
          (fun acc c ->
            match (acc, c) with
            | None, c -> c
            | Some a, Some b -> Some (Rat.min a b)
            | Some a, None -> Some a)
          None
          [ completion_candidate; arrival_candidate; d.review_at ]
      in
      match te with
      | None -> bad P.name "active jobs but no progress and no future event"
      | Some te ->
        if Rat.compare te now <= 0 then bad P.name "time did not advance";
        (* Materialize shares sequentially per machine and update progress. *)
        slices :=
          List.rev_append
            (materialize ~machines ~cost ~now ~horizon:te d ~debit:(fun j work ->
                 remaining.(j) <- Rat.sub remaining.(j) work))
            !slices;
        for j = 0 to n - 1 do
          if (not completed.(j)) && arrived.(j) then begin
            if Rat.sign remaining.(j) < 0 then
              bad P.name "job %d over-processed (engine invariant broken)" j;
            if Rat.is_zero remaining.(j) then begin
              completed.(j) <- true;
              P.on_completion state ~now:te ~job:j
            end
          end
        done;
        fire_arrivals te;
        loop te (guard - 1)
    end
  in
  let start_time = match arrival_order with [] -> Rat.zero | j :: _ -> I.release inst j in
  fire_arrivals start_time;
  loop start_time (100_000 + (1000 * n));
  { policy = P.name; schedule = S.make inst !slices; decisions = !decisions }
