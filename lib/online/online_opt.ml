module Rat = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module Mf = Sched_core.Max_flow

(* Sub-instance of the active jobs: released now, original flow origin,
   cost scaled by the remaining fraction (processing the whole sub-job
   processes exactly the remaining work). *)
let sub_instance inst ~now ~active =
  let jobs = Array.of_list active in
  let k = Array.length jobs in
  let releases = Array.make k now in
  let flow_origins = Array.map (fun (v : Sim.job_view) -> I.flow_origin inst v.id) jobs in
  let weights = Array.map (fun (v : Sim.job_view) -> v.weight) jobs in
  let cost =
    Array.init (I.num_machines inst) (fun i ->
        Array.map
          (fun (v : Sim.job_view) ->
            Option.map (Rat.mul v.remaining) (I.cost inst ~machine:i ~job:v.id))
          jobs)
  in
  (jobs, I.make ~flow_origins ~releases ~weights cost)

(* Re-solve the offline problem on the remaining work and extract the
   machine shares of the plan's first epochal interval, plus its horizon. *)
let compute_plan inst ~now ~active =
  Obs.Span.with_span "online_opt.plan" (fun () ->
  Obs.Span.set_int "active_jobs" (List.length active);
  if Obs.Sink.enabled () then begin
    (* Operand size of the plan's LPs: the largest numerator and
       denominator, in bits, over the remaining work fractions and the
       release dates (the sub-instance's [now], each job's flow origin).
       Remaining-work denominators compound across decisions. *)
    let values =
      now
      :: List.concat_map
           (fun (v : Sim.job_view) -> [ v.remaining; I.flow_origin inst v.id ])
           active
    in
    let max_bits part =
      List.fold_left (fun acc x -> max acc (Numeric.Bigint.num_bits (part x))) 0 values
    in
    Obs.Span.set_int "max_num_bits" (max_bits Rat.num);
    Obs.Span.set_int "max_den_bits" (max_bits Rat.den)
  end;
  let jobs, sub = sub_instance inst ~now ~active in
  let r = Mf.solve sub in
  (* First epochal boundary after [now]: the earliest deadline at F*. *)
  let horizon =
    Array.fold_left
      (fun acc (v : Sim.job_view) ->
        let d = Rat.add (I.flow_origin inst v.id) (Rat.div r.Mf.objective v.weight) in
        match acc with None -> Some d | Some b -> Some (Rat.min b d))
      None jobs
  in
  let horizon = Option.get horizon (* active is non-empty *) in
  let window = Rat.sub horizon now in
  if Rat.sign window <= 0 then
    (* Cannot happen: every active job needs positive time to finish, so
       every deadline is strictly in the future.  Guard anyway. *)
    ([], None)
  else begin
    (* Machine-time spent per (machine, sub-job) inside [now, horizon). *)
    let m = I.num_machines inst in
    let spent = Array.make_matrix m (Array.length jobs) Rat.zero in
    List.iter
      (fun (s : S.slice) ->
        if Rat.compare s.start horizon < 0 then
          spent.(s.machine).(s.job) <-
            Rat.add spent.(s.machine).(s.job) (Rat.sub (Rat.min s.stop horizon) s.start))
      (S.slices r.Mf.schedule);
    let shares = ref [] in
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun jk d ->
            if Rat.sign d > 0 then
              shares :=
                { Sim.machine = i; job = jobs.(jk).Sim.id; share = Rat.div d window }
                :: !shares)
          row)
      spent;
    (!shares, Some horizon)
  end)

module Divisible = struct
  type state = { mutable inst : I.t }

  let name = "online-opt"
  let init inst = { inst }
  let on_arrival _ ~now:_ ~job:_ = ()
  let on_completion _ ~now:_ ~job:_ = ()
  let on_batch_arrival state ~now ~jobs = Sim.announce_each on_arrival state ~now ~jobs

  let on_platform_change st ~now:_ ~inst =
    st.inst <- inst;
    `Adapted

  let decide st ~now ~active =
    let shares, review_at = compute_plan st.inst ~now ~active in
    { Sim.shares; review_at }
end

module Lazy_divisible = struct
  (* Ablation on the re-optimization frequency: re-solve the offline
     problem only when a new job arrives or the cached plan window runs
     out — completions merely drop the finished job's shares and leave the
     freed capacity idle until the next re-solve.  Cheaper in LP solves
     than {!Divisible}, laxer in quality; the [reopt] bench quantifies the
     trade. *)
  type state = {
    mutable inst : I.t;
    mutable cached : (Sim.share list * Rat.t) option;  (* shares, horizon *)
    mutable dirty : bool;
  }

  let name = "online-opt-lazy"
  let init inst = { inst; cached = None; dirty = true }
  let on_arrival st ~now:_ ~job:_ = st.dirty <- true
  let on_completion _ ~now:_ ~job:_ = ()

  let on_batch_arrival state ~now ~jobs = Sim.announce_each on_arrival state ~now ~jobs

  (* The cached plan's shares may sit on machines that just went down. *)
  let on_platform_change st ~now:_ ~inst =
    st.inst <- inst;
    st.cached <- None;
    st.dirty <- true;
    `Adapted

  let decide st ~now ~active =
    let live (s : Sim.share) =
      List.exists (fun (v : Sim.job_view) -> v.id = s.job) active
    in
    let refresh () =
      match compute_plan st.inst ~now ~active with
      | shares, Some horizon ->
        st.cached <- Some (shares, horizon);
        st.dirty <- false;
        { Sim.shares; review_at = Some horizon }
      | shares, None ->
        st.cached <- None;
        st.dirty <- false;
        { Sim.shares; review_at = None }
    in
    match st.cached with
    | Some (shares, horizon)
      when (not st.dirty) && Rat.compare now horizon < 0 ->
      let shares = List.filter live shares in
      if shares = [] then refresh ()
      else { Sim.shares; review_at = Some horizon }
    | _ -> refresh ()
end
