(* Snapshots and recovery orchestration for the serving engine.

   A durability directory (--wal DIR) holds three files:

     DIR/meta      engine state at arm time (seq 0) — the recovery base
                   when no checkpoint has been taken yet
     DIR/snapshot  the latest checkpoint, atomically replaced
     DIR/wal       the write-ahead log (Wal framing)

   A snapshot file is line-oriented ASCII: a version line, the covered WAL
   seq, the platform embedded in Trace's canonical text form, then the
   engine state (Engine.dump) — jobs, availability overlay, pending
   faults, slices, metrics, decision cache — all rationals in exact Rat
   text form and all floats in lossless hexadecimal (%h), closed by an
   Adler-32 trailer over every preceding byte.  [layout] declares it once,
   in Codec's syntax, and both [state_to_string] and [state_of_string]
   derive from that declaration.  Files are written to a temp name,
   fsync'd and renamed, so a crash leaves either the old snapshot or the
   new one, never a torn file.

   Checkpoints are incremental in their encoding, not in their bytes:
   each armed handle keeps a Codec memo of the text of the layout's
   append-only runs (completed jobs, slices, histogram samples), so a
   checkpoint encodes only what was added since the last one and streams
   the memoized text to the file as it is (DESIGN.md §11).

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

let c_snapshot_encoded =
  Obs.Registry.counter Obs.Registry.global "wal.snapshot_encoded_bytes"

let fail fmt = Printf.ksprintf (fun s -> invalid_arg ("Snapshot: " ^ s)) fmt

(* --- layout ----------------------------------------------------------- *)

(* The v2 layout.  Its writers destructure every record whole, so a field
   added to the engine state does not compile until it has a place here.
   Each field is appended straight to the output: a snapshot holds a line
   per job and per slice ever served, so an intermediate string per line
   would cost more than the fsync after.  Three runs are memoized
   ([reuse]), each append-only in the engine: a completed job is final
   and jobs are never removed; slices only grow at the end or are
   filtered, so the run stands while its last slice is still physically
   at its place; histogram samples only grow between registry loads, and
   a load makes a new engine with a new handle. *)
let layout =
  let open Codec in
  let job =
    record
      [ id "request id"; rat; int; int; rat; flag; flag; option rat ]
      (fun { Engine.js_id; js_arrival; js_bank; js_num_motifs; js_remaining; js_arrived;
             js_parked; js_completed_at } ->
        [ js_id; js_arrival; js_bank; js_num_motifs; js_remaining; js_arrived; js_parked;
          js_completed_at ])
      (fun [ js_id; js_arrival; js_bank; js_num_motifs; js_remaining; js_arrived; js_parked;
             js_completed_at ] ->
        { Engine.js_id; js_arrival; js_bank; js_num_motifs; js_remaining; js_arrived;
          js_parked; js_completed_at })
  in
  let slice =
    record [ int; int; rat; rat ]
      (fun { Sched_core.Schedule.machine; job; start; stop } -> [ machine; job; start; stop ])
      (fun [ machine; job; start; stop ] -> { Sched_core.Schedule.machine; job; start; stop })
  in
  let metric =
    let counter =
      case "counter" (tuple [ id "metric name"; int ]) (fun [ name; n ] ->
          (name, Obs.Registry.Dump_counter n))
    and gauge =
      case "gauge" (tuple [ id "metric name"; float; float ]) (fun [ name; value; peak ] ->
          (name, Obs.Registry.Dump_gauge { value; peak }))
    and hist =
      case "hist"
        (scoped
           (fun [ name; _ ] -> name)
           (tuple [ id "metric name"; counted ~reuse:(reuse "samples") float ]))
        (fun [ name; samples ] -> (name, Obs.Registry.Dump_histogram (Array.of_list samples)))
    in
    variant [ Case counter; Case gauge; Case hist ] (function
      | name, Obs.Registry.Dump_counter n -> Tagged (counter, [ name; n ])
      | name, Dump_gauge { value; peak } -> Tagged (gauge, [ name; value; peak ])
      | name, Dump_histogram samples -> Tagged (hist, [ name; Array.to_list samples ]))
  in
  let centry =
    record
      [ id "cache key"; option rat; counted (record [ int; int; rat ]
          (fun (machine, pos, share) -> [ machine; pos; share ])
          (fun [ machine; pos; share ] -> (machine, pos, share))) ]
      (fun (key, { Engine.cd_shares; cd_review_offset }) ->
        [ key; cd_review_offset; cd_shares ])
      (fun [ key; cd_review_offset; cd_shares ] ->
        (key, { Engine.cd_shares; cd_review_offset }))
  in
  let array c = conv Array.to_list Array.of_list c in
  let platform =
    conv
      (fun platform -> ((), Trace.to_string { Trace.platform; entries = []; events = [] }))
      (fun ((), text) ->
        match Trace.of_string text with
        | t -> t.Trace.platform
        | exception Invalid_argument m -> bad "embedded platform: %s" m)
      (pair (line (lit "platform-begin")) (lines_until "platform-end"))
  in
  record
    [ keyed "dlsched-snapshot" (lit "v2");
      keyed "seq" nat;
      platform;
      keyed "policy" (id "policy name");
      keyed "batch_window" rat;
      keyed "objective" (enum "objective" [ ("flow", `Flow); ("stretch", `Stretch) ]);
      keyed "lost_work" (enum "lost_work" [ ("lost", `Lost); ("preserved", `Preserved) ]);
      keyed "now" rat;
      section
        ~reuse:(reuse "jobs" ~final:(fun js -> js.Engine.js_completed_at <> None))
        "jobs" (keyed "job" job);
      array (section "overlay" (keyed "avail" (enum "avail" [ ("up", W.Up); ("down", W.Down) ])));
      section "faults" (keyed "fault" (pair rat Wal.fault));
      section ~reuse:(reuse "slices" ~same:( == )) "slices" (keyed "slice" slice);
      array (section "last_stop" (keyed "stop" rat));
      keyed "completed" nat;
      section "metrics" (line metric);
      section "cache" (keyed "centry" centry) ]
    (fun ( seq,
           platform,
           { Engine.st_policy; st_batch_window; st_objective; st_lost_work; st_now; st_jobs;
             st_overlay; st_faults; st_slices; st_last_stop; st_num_completed; st_metrics;
             st_cache } ) ->
      [ (); seq; platform; st_policy; st_batch_window; st_objective; st_lost_work; st_now;
        st_jobs; st_overlay; st_faults; st_slices; st_last_stop; st_num_completed; st_metrics;
        st_cache ])
    (fun [ (); seq; platform; st_policy; st_batch_window; st_objective; st_lost_work; st_now;
           st_jobs; st_overlay; st_faults; st_slices; st_last_stop; st_num_completed;
           st_metrics; st_cache ] ->
      ( seq,
        platform,
        { Engine.st_policy; st_batch_window; st_objective; st_lost_work; st_now; st_jobs;
          st_overlay; st_faults; st_slices; st_last_stop; st_num_completed; st_metrics;
          st_cache } ))

let trailer = Codec.(keyed "checksum" int)

(* The file text through [emit]: the body in pieces, reusing and
   extending [memo], then the trailer over the pieces' combined sum.
   Returns the bytes written and how many of them were encoded afresh. *)
let write_state ~memo ~seq ~platform st emit =
  let body =
    try Codec.stream ~memo emit layout (seq, platform, st)
    with Codec.Malformed m -> fail "%s" m
  in
  let tail = Codec.stream emit trailer body.sum in
  (body.bytes + tail.bytes, body.encoded + tail.encoded)

let state_to_string ~seq ~platform st =
  let b = Buffer.create 4096 in
  ignore (write_state ~memo:(Codec.memo ()) ~seq ~platform st (Buffer.add_subbytes b));
  Buffer.contents b

(* The trailer is the last line; its checksum covers every byte before it. *)
let state_of_string text =
  let n = String.length text in
  let stop = if String.ends_with ~suffix:"\n" text then n - 1 else n in
  let start = match String.rindex_from_opt text (stop - 1) '\n' with Some i -> i + 1 | None -> 0 in
  let body = String.sub text 0 start in
  match Codec.of_string trailer (String.sub text start (stop - start)) with
  | Error _ -> fail "missing checksum trailer"
  | Ok sum when sum <> Wal.adler32 body -> fail "checksum mismatch (corrupt snapshot file)"
  | Ok _ -> ( match Codec.of_string layout body with Ok v -> v | Error m -> fail "%s" m)

(* --- files ------------------------------------------------------------ *)

(* Temp + fsync + rename: readers see either the previous file or the
   complete new one.  [write] streams the content through one channel.
   The directory is fsync'd too so the rename itself survives a crash. *)
let write_atomic path write =
  let tmp = path ^ ".tmp" in
  let oc =
    Unix.out_channel_of_descr
      (Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let result = write (output oc) in
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc);
        result)
  in
  Unix.rename tmp path;
  (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
   | dfd ->
     (try Unix.fsync dfd with Unix.Unix_error _ -> ());
     (try Unix.close dfd with Unix.Unix_error _ -> ())
   | exception Unix.Unix_error _ -> ());
  result

let save_file ?(memo = Codec.memo ()) path ~seq engine =
  (* Dump and encoding run inside the span: serialization is part of the
     snapshot's cost, not of whichever command triggered the checkpoint. *)
  let bytes, encoded =
    Obs.Span.with_span "snapshot.write" (fun () ->
        let st = Engine.dump engine in
        let bytes, encoded =
          write_atomic path (write_state ~memo ~seq ~platform:(Engine.platform engine) st)
        in
        Obs.Span.set_int "seq" seq;
        Obs.Span.set_int "bytes" bytes;
        Obs.Span.set_int "encoded_bytes" encoded;
        (bytes, encoded))
  in
  Obs.Registry.incr c_snapshots;
  Obs.Registry.add c_snapshot_bytes bytes;
  Obs.Registry.add c_snapshot_encoded encoded

let load_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  state_of_string text

(* --- orchestration ---------------------------------------------------- *)

type handle = { dir : string; writer : Wal.writer }

let dir h = h.dir
let close h = Wal.close h.writer

(* Hand [engine] its durability handle: the log [w], and checkpoints
   written to [dir]'s snapshot file, encoded against the handle's memo. *)
let armed ~dir ~snapshot_every ~last_seq w engine =
  let memo = Codec.memo () in
  Engine.set_durability engine ~wal:w
    ~checkpoint:(fun () ->
      save_file ~memo (snapshot_file dir) ~seq:(Engine.last_seq engine) engine)
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
