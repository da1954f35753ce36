(* Snapshots and recovery orchestration for the serving engine.

   A durability directory (--wal DIR) holds three files:

     DIR/meta      engine state at arm time (seq 0) — the recovery base
                   when no checkpoint has been taken yet
     DIR/snapshot  the latest checkpoint, atomically replaced
     DIR/wal       the write-ahead log (Wal framing)

   A snapshot file is line-oriented ASCII: a version line, the covered WAL
   seq, the platform embedded in Trace's canonical text form, then the
   engine state (Engine.dump) — jobs, availability overlay, pending
   faults, slices, metrics — all rationals in exact Rat text form and all
   floats in lossless hexadecimal (%h), closed by an Adler-32 trailer over
   every preceding byte.  Files are written to a temp name, fsync'd and
   renamed, so a crash leaves either the old snapshot or the new one,
   never a torn file.

   Recovery (resume) loads DIR/snapshot if present (else DIR/meta),
   restores the engine, then replays the WAL records with seq beyond the
   snapshot's — records at or below it are stale leftovers of a lost
   post-checkpoint truncation and are skipped.  Replayed records re-drive
   the exact live code paths (Engine.apply_record), including re-taking
   automatic checkpoints at the same record counts, so the resumed engine
   is bit-identical to one that never crashed. *)

module Rat = Numeric.Rat
module W = Gripps.Workload

let meta_file dir = Filename.concat dir "meta"
let snapshot_file dir = Filename.concat dir "snapshot"
let wal_file dir = Filename.concat dir "wal"

let c_snapshots = Obs.Registry.counter Obs.Registry.global "wal.snapshots"
let c_snapshot_bytes = Obs.Registry.counter Obs.Registry.global "wal.snapshot_bytes"

let fail fmt = Printf.ksprintf (fun s -> invalid_arg ("Snapshot: " ^ s)) fmt

(* Lossless float text: hexadecimal significand ("%h"), which
   float_of_string round-trips exactly (nan and infinity included). *)
let float_repr = Printf.sprintf "%h"

let no_ws s =
  s <> ""
  && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s)

(* --- serialization ---------------------------------------------------- *)

(* Every field is appended straight to one buffer.  A snapshot holds a
   line per job and per slice ever served, and a [Printf] closure or an
   intermediate string per line or per number costs more than the fsync
   that follows. *)
let state_to_string ~seq ~platform (st : Engine.state) =
  let b = Buffer.create 4096 in
  let str s = Buffer.add_string b s in
  let sp () = Buffer.add_char b ' ' in
  let nl () = Buffer.add_char b '\n' in
  let int n = Rat.buffer_add_int b n in
  let rat r = Rat.buffer_add b r in
  let flt f = str (float_repr f) in
  let flag v = str (if v then " 1" else " 0") in
  let line s = str s; nl () in
  let keyed key n = str key; sp (); int n; nl () in
  line "dlsched-snapshot v2";
  keyed "seq" seq;
  line "platform-begin";
  let ptext = Trace.to_string { Trace.platform; entries = []; events = [] } in
  str ptext;
  if ptext <> "" && ptext.[String.length ptext - 1] <> '\n' then nl ();
  line "platform-end";
  if not (no_ws st.Engine.st_policy) then fail "unencodable policy name %S" st.st_policy;
  str "policy "; line st.st_policy;
  str "batch_window "; rat st.st_batch_window; nl ();
  str "objective ";
  line (match st.st_objective with `Flow -> "flow" | `Stretch -> "stretch");
  str "lost_work ";
  line (match st.st_lost_work with `Lost -> "lost" | `Preserved -> "preserved");
  str "now "; rat st.st_now; nl ();
  keyed "jobs" (List.length st.st_jobs);
  List.iter
    (fun (js : Engine.job_state) ->
      if not (Wal.encodable_id js.js_id) then fail "unencodable request id %S" js.js_id;
      str "job "; str js.js_id;
      sp (); rat js.js_arrival;
      sp (); int js.js_bank;
      sp (); int js.js_num_motifs;
      sp (); rat js.js_remaining;
      flag js.js_arrived;
      flag js.js_parked;
      sp ();
      (match js.js_completed_at with None -> str "none" | Some r -> rat r);
      nl ())
    st.st_jobs;
  keyed "overlay" (Array.length st.st_overlay);
  Array.iter (function W.Up -> line "avail up" | W.Down -> line "avail down") st.st_overlay;
  keyed "faults" (List.length st.st_faults);
  List.iter
    (fun (at, fault) ->
      str "fault "; rat at;
      (match fault with
       | Trace.Fail i -> str " fail "; int i
       | Trace.Recover i -> str " recover "; int i);
      nl ())
    st.st_faults;
  keyed "slices" (List.length st.st_slices);
  List.iter
    (fun (s : Sched_core.Schedule.slice) ->
      str "slice "; int s.machine;
      sp (); int s.job;
      sp (); rat s.start;
      sp (); rat s.stop;
      nl ())
    st.st_slices;
  keyed "last_stop" (Array.length st.st_last_stop);
  Array.iter (fun r -> str "stop "; rat r; nl ()) st.st_last_stop;
  keyed "completed" st.st_num_completed;
  keyed "metrics" (List.length st.st_metrics);
  List.iter
    (fun (name, item) ->
      if not (no_ws name) then fail "unencodable metric name %S" name;
      match item with
      | Obs.Registry.Dump_counter n -> str "counter "; str name; sp (); int n; nl ()
      | Obs.Registry.Dump_gauge { value; peak } ->
        str "gauge "; str name; sp (); flt value; sp (); flt peak; nl ()
      | Obs.Registry.Dump_histogram samples ->
        str "hist "; str name; sp (); int (Array.length samples);
        Array.iter (fun f -> sp (); flt f) samples;
        nl ())
    st.st_metrics;
  keyed "cache" (List.length st.st_cache);
  List.iter
    (fun (key, (cd : Engine.cached_decision)) ->
      (* Fingerprint keys are built from whitespace-free atoms (policy
         name, overlay letters, exact rational text) joined by '|'/':';
         enforce that here so the line stays parseable. *)
      if not (no_ws key) then fail "unencodable cache key %S" key;
      str "centry "; str key; sp ();
      (match cd.Engine.cd_review_offset with None -> str "none" | Some r -> rat r);
      sp (); int (List.length cd.Engine.cd_shares);
      List.iter
        (fun (machine, pos, share) -> sp (); int machine; sp (); int pos; sp (); rat share)
        cd.Engine.cd_shares;
      nl ())
    st.st_cache;
  let sum = Wal.adler32 (Buffer.contents b) in
  str "checksum "; int sum; nl ();
  Buffer.contents b

(* --- parsing ---------------------------------------------------------- *)

let split_checksum text =
  let len = String.length text in
  if len = 0 then fail "empty snapshot file";
  let stop = if text.[len - 1] = '\n' then len - 1 else len in
  if stop = 0 then fail "empty snapshot file";
  let start =
    match String.rindex_from_opt text (stop - 1) '\n' with Some i -> i + 1 | None -> 0
  in
  let body = String.sub text 0 start in
  match
    String.sub text start (stop - start) |> String.split_on_char ' '
  with
  | [ "checksum"; n ] -> (
    match int_of_string_opt n with
    | Some n -> (body, n)
    | None -> fail "malformed checksum trailer")
  | _ -> fail "missing checksum trailer"

type cursor = { mutable rest : string list; mutable lineno : int }

let next c =
  match c.rest with
  | [] -> fail "line %d: unexpected end of snapshot" c.lineno
  | l :: tl ->
    c.rest <- tl;
    c.lineno <- c.lineno + 1;
    l

let tokens c = next c |> String.split_on_char ' ' |> List.filter (fun s -> s <> "")

let perr c fmt = Printf.ksprintf (fun s -> fail "line %d: %s" c.lineno s) fmt

let int_tok c s =
  match int_of_string_opt s with Some n -> n | None -> perr c "bad integer %S" s

let rat_tok c s =
  match Rat.of_string s with r -> r | exception _ -> perr c "bad rational %S" s

let float_tok c s =
  match float_of_string_opt s with Some f -> f | None -> perr c "bad float %S" s

let keyed c key =
  match tokens c with
  | k :: rest when k = key -> rest
  | k :: _ -> perr c "expected %S, found %S" key k
  | [] -> perr c "expected %S, found a blank line" key

let keyed1 c key =
  match keyed c key with [ v ] -> v | _ -> perr c "expected exactly one %s value" key

let count_of c key =
  let n = int_tok c (keyed1 c key) in
  if n < 0 then perr c "negative %s count %d" key n;
  n

let state_of_string text =
  let body, sum = split_checksum text in
  if Wal.adler32 body <> sum then fail "checksum mismatch (corrupt snapshot file)";
  let lines = String.split_on_char '\n' body in
  (* [body] ends with '\n'; drop the empty tail that split produces. *)
  let lines =
    match List.rev lines with "" :: rev -> List.rev rev | _ -> lines
  in
  let c = { rest = lines; lineno = 0 } in
  (match next c with
   | "dlsched-snapshot v2" -> ()
   | l -> perr c "not a dlsched snapshot (header %S)" l);
  let seq = count_of c "seq" in
  (match next c with
   | "platform-begin" -> ()
   | l -> perr c "expected platform-begin, found %S" l);
  let pbuf = Buffer.create 256 in
  let rec platform_lines () =
    match next c with
    | "platform-end" -> ()
    | l ->
      Buffer.add_string pbuf l;
      Buffer.add_char pbuf '\n';
      platform_lines ()
  in
  platform_lines ();
  let platform =
    match Trace.of_string (Buffer.contents pbuf) with
    | t -> t.Trace.platform
    | exception Invalid_argument m -> fail "embedded platform: %s" m
  in
  let st_policy = keyed1 c "policy" in
  let st_batch_window = rat_tok c (keyed1 c "batch_window") in
  let st_objective =
    match keyed1 c "objective" with
    | "flow" -> `Flow
    | "stretch" -> `Stretch
    | s -> perr c "bad objective %S" s
  in
  let st_lost_work =
    match keyed1 c "lost_work" with
    | "lost" -> `Lost
    | "preserved" -> `Preserved
    | s -> perr c "bad lost_work %S" s
  in
  let st_now = rat_tok c (keyed1 c "now") in
  let num_jobs = count_of c "jobs" in
  let bool_tok s = match s with "0" -> false | "1" -> true | _ -> perr c "bad flag %S" s in
  let st_jobs =
    List.init num_jobs (fun _ ->
        match keyed c "job" with
        | [ id; arrival; bank; motifs; remaining; arrived; parked; completed ] ->
          {
            Engine.js_id = id;
            js_arrival = rat_tok c arrival;
            js_bank = int_tok c bank;
            js_num_motifs = int_tok c motifs;
            js_remaining = rat_tok c remaining;
            js_arrived = bool_tok arrived;
            js_parked = bool_tok parked;
            js_completed_at =
              (if completed = "none" then None else Some (rat_tok c completed));
          }
        | _ -> perr c "malformed job line")
  in
  let num_machines = count_of c "overlay" in
  let st_overlay =
    Array.init num_machines (fun _ ->
        match keyed c "avail" with
        | [ "up" ] -> W.Up
        | [ "down" ] -> W.Down
        | _ -> perr c "malformed avail line")
  in
  let num_faults = count_of c "faults" in
  let st_faults =
    List.init num_faults (fun _ ->
        match keyed c "fault" with
        | [ at; "fail"; i ] -> (rat_tok c at, Trace.Fail (int_tok c i))
        | [ at; "recover"; i ] -> (rat_tok c at, Trace.Recover (int_tok c i))
        | _ -> perr c "malformed fault line")
  in
  let num_slices = count_of c "slices" in
  let st_slices =
    List.init num_slices (fun _ ->
        match keyed c "slice" with
        | [ machine; job; start; stop ] ->
          {
            Sched_core.Schedule.machine = int_tok c machine;
            job = int_tok c job;
            start = rat_tok c start;
            stop = rat_tok c stop;
          }
        | _ -> perr c "malformed slice line")
  in
  let num_stops = count_of c "last_stop" in
  let st_last_stop = Array.init num_stops (fun _ -> rat_tok c (keyed1 c "stop")) in
  let st_num_completed = count_of c "completed" in
  let num_metrics = count_of c "metrics" in
  let st_metrics =
    List.init num_metrics (fun _ ->
        match tokens c with
        | [ "counter"; name; n ] -> (name, Obs.Registry.Dump_counter (int_tok c n))
        | [ "gauge"; name; value; peak ] ->
          ( name,
            Obs.Registry.Dump_gauge
              { value = float_tok c value; peak = float_tok c peak } )
        | "hist" :: name :: n :: samples ->
          let n = int_tok c n in
          if List.length samples <> n then perr c "histogram %S sample count mismatch" name;
          ( name,
            Obs.Registry.Dump_histogram
              (Array.of_list (List.map (float_tok c) samples)) )
        | _ -> perr c "malformed metric line")
  in
  let num_cache = count_of c "cache" in
  let st_cache =
    List.init num_cache (fun _ ->
        match keyed c "centry" with
        | key :: review :: n :: rest ->
          let n = int_tok c n in
          if List.length rest <> 3 * n then perr c "cache entry share count mismatch";
          let rec shares = function
            | [] -> []
            | machine :: pos :: share :: tl ->
              (int_tok c machine, int_tok c pos, rat_tok c share) :: shares tl
            | _ -> perr c "malformed cache entry"
          in
          ( key,
            {
              Engine.cd_shares = shares rest;
              cd_review_offset =
                (if review = "none" then None else Some (rat_tok c review));
            } )
        | _ -> perr c "malformed cache entry")
  in
  if c.rest <> [] then perr c "trailing garbage after cache entries";
  ( seq,
    platform,
    {
      Engine.st_policy;
      st_batch_window;
      st_objective;
      st_lost_work;
      st_now;
      st_jobs;
      st_overlay;
      st_faults;
      st_slices;
      st_last_stop;
      st_num_completed;
      st_metrics;
      st_cache;
    } )

(* --- files ------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Temp + fsync + rename: readers see either the previous file or the
   complete new one.  The directory is fsync'd too so the rename itself
   survives a crash. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd content;
      Unix.fsync fd);
  Unix.rename tmp path;
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let save_file path ~seq engine =
  (* Dump and encoding run inside the span: serialization is part of the
     snapshot's cost, not of whichever command triggered the checkpoint. *)
  let bytes =
    Obs.Span.with_span "snapshot.write" (fun () ->
        let text =
          state_to_string ~seq ~platform:(Engine.platform engine) (Engine.dump engine)
        in
        Obs.Span.set_int "seq" seq;
        Obs.Span.set_int "bytes" (String.length text);
        write_atomic path text;
        String.length text)
  in
  Obs.Registry.incr c_snapshots;
  Obs.Registry.add c_snapshot_bytes bytes

let load_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  state_of_string text

(* --- orchestration ---------------------------------------------------- *)

type handle = { dir : string; writer : Wal.writer }

let dir h = h.dir
let close h = Wal.close h.writer

(* Hand [engine] its durability handle: the log [w], and checkpoints
   written to [dir]'s snapshot file. *)
let armed ~dir ~snapshot_every ~last_seq w engine =
  Engine.set_durability engine ~wal:w
    ~checkpoint:(fun () -> save_file (snapshot_file dir) ~seq:(Engine.last_seq engine) engine)
    ~every:snapshot_every ~last_seq;
  { dir; writer = w }

let arm ?(snapshot_every = 0) ~dir engine =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if Sys.file_exists (meta_file dir) then
    fail "%s already holds serving state; resume from it (--resume) or point --wal at a fresh directory"
      dir;
  save_file (meta_file dir) ~seq:0 engine;
  armed ~dir ~snapshot_every ~last_seq:0 (Wal.open_append ~next_seq:1 (wal_file dir)) engine

let resume ?(snapshot_every = 0) ?(decision_cache = false) ~dir ~clock ~policies () =
  let base =
    if Sys.file_exists (snapshot_file dir) then snapshot_file dir
    else if Sys.file_exists (meta_file dir) then meta_file dir
    else fail "%s holds no snapshot or meta file — was it armed with --wal?" dir
  in
  let seq0, platform, st = load_file base in
  let policy =
    let matches m =
      let module P = (val m : Online.Sim.POLICY) in
      P.name = st.Engine.st_policy
    in
    match List.find_opt matches policies with
    | Some p -> p
    | None -> fail "snapshot was taken under unknown policy %S" st.Engine.st_policy
  in
  let engine = Engine.restore ~clock ~policy platform st in
  (* Arm the cache before the tail replays: the crashed run's decides past
     the snapshot ran with it on, and the cache counters must replay
     bit-identically.  (A checkpoint quiesces the policy runner but keeps
     remembered plans, so the snapshot carries the cache contents and
     [restore] has already reloaded them; arming with [false] drops them
     again, matching a crashed run that had the cache off.) *)
  Engine.set_decision_cache engine decision_cache;
  let records, valid_length, _torn = Wal.replay (wal_file dir) in
  let top = List.fold_left (fun acc (s, _) -> Stdlib.max acc s) seq0 records in
  let h =
    armed ~dir ~snapshot_every ~last_seq:seq0
      (Wal.open_append ~valid_length ~next_seq:(top + 1) (wal_file dir))
      engine
  in
  (* Replay the tail.  Records at or below [seq0] are stale leftovers of a
     truncation the crash swallowed; the snapshot already contains them. *)
  List.iter (fun (s, r) -> if s > seq0 then Engine.apply_record engine ~seq:s r) records;
  Engine.rebase engine;
  (h, engine)
