(* Durability tests: WAL framing, snapshot text round-trips, and the
   crash property — kill the engine after any prefix of its event stream,
   resume from disk, finish the stream, and the final state (full
   serialized dump + metrics JSON) must be bit-identical to a run that
   never crashed. *)

module R = Numeric.Rat
module W = Gripps.Workload
module T = Serve.Trace
module E = Serve.Engine
module M = Obs.Registry
module Wal = Serve.Wal
module Snap = Serve.Snapshot

let tmp_counter = ref 0

let fresh_dir name =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlsched-test-%s-%d-%d" name (Unix.getpid ()) !tmp_counter)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else ();
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Two machines, two banks; machine 1 is the sole holder of bank 0, so a
   [Fail 1] starves bank-0 requests. *)
let platform () =
  {
    W.speeds = [| R.one; R.of_ints 3 2 |];
    bank_sizes = [| 100; 200 |];
    has_bank = [| [| false; true |]; [| true; true |] |];
  }

(* ------------------------------------------------------------------ *)
(* WAL framing                                                         *)
(* ------------------------------------------------------------------ *)

let sample_records =
  [
    Wal.Submit { id = "r1"; arrival = R.of_ints 27 100; bank = 1; num_motifs = 12 };
    Wal.Inject { at = R.of_int 40; fault = T.Fail 1 };
    Wal.Inject { at = R.of_int 55; fault = T.Recover 1 };
    Wal.Advance (R.of_ints 123 10);
    Wal.Drain;
  ]

let test_wal_codec () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "encode/decode round-trip" true (Wal.decode (Wal.encode r) = r))
    sample_records;
  let bad s =
    Alcotest.(check bool) ("rejects " ^ s) true
      (try
         ignore (Wal.decode s);
         false
       with Invalid_argument _ -> true)
  in
  bad "";
  bad "submit a b c d";
  bad "submit a 1 0";
  bad "inject 1 explode 0";
  bad "advance";
  bad "frobnicate";
  Alcotest.(check bool) "whitespace id unencodable" true
    (try
       ignore (Wal.encode (Wal.Submit { id = "a b"; arrival = R.zero; bank = 0; num_motifs = 1 }));
       false
     with Invalid_argument _ -> true)

(* The per-byte definition of Adler-32 (RFC 1950), against the codec's
   block-reduced implementation. *)
let prop_adler32_reference =
  QCheck.Test.make ~count:100 ~name:"adler32 matches the per-byte definition"
    QCheck.(string_gen_of_size Gen.(int_bound 20_000) Gen.char)
    (fun s ->
      let a = ref 1 and b = ref 0 in
      String.iter
        (fun c ->
          a := (!a + Char.code c) mod 65521;
          b := (!b + !a) mod 65521)
        s;
      Wal.adler32 s = (!b lsl 16) lor !a)

(* A snapshot's trailer is folded from per-piece sums: over random
   splits of a random text (pieces past 65521 bytes included), the pieces'
   sums combined, or one sum extended piece by piece, equal the sum of
   the whole. *)
let prop_adler32_combine =
  QCheck.Test.make ~count:100 ~name:"combined adler32 over random splits is the whole text's"
    QCheck.(
      pair
        (string_gen_of_size Gen.(int_bound 150_000) Gen.char)
        (list_of_size Gen.(int_bound 6) (int_bound 150_000)))
    (fun (s, cuts) ->
      let n = String.length s in
      let bounds = List.sort_uniq compare ((0 :: n :: List.map (fun c -> c mod (n + 1)) cuts)) in
      let rec pieces = function
        | a :: (b :: _ as tl) -> String.sub s a (b - a) :: pieces tl
        | _ -> []
      in
      let pieces = pieces bounds in
      let combined =
        List.fold_left
          (fun sum p -> Serve.Adler32.combine sum (Serve.Adler32.string p) (String.length p))
          Serve.Adler32.empty pieces
      and extended =
        List.fold_left
          (fun sum p -> Serve.Adler32.update sum (Bytes.of_string p) 0 (String.length p))
          Serve.Adler32.empty pieces
      in
      combined = Wal.adler32 s && extended = Wal.adler32 s)

let test_wal_file_roundtrip () =
  let dir = fresh_dir "walfile" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal" in
  let w = Wal.open_append ~next_seq:1 path in
  List.iteri
    (fun i r -> Alcotest.(check int) "seq" (i + 1) (Wal.append w r))
    sample_records;
  Wal.close w;
  let records, _, torn = Wal.replay path in
  Alcotest.(check bool) "no torn tail" false torn;
  Alcotest.(check (list int)) "seqs" [ 1; 2; 3; 4; 5 ] (List.map fst records);
  Alcotest.(check bool) "payloads" true
    (List.map snd records = sample_records);
  rm_rf dir

let test_wal_torn_tail () =
  let dir = fresh_dir "torn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal" in
  let w = Wal.open_append ~next_seq:1 path in
  ignore (Wal.append w (List.nth sample_records 0));
  ignore (Wal.append w (List.nth sample_records 1));
  Wal.close w;
  let intact = read_file path in
  (* A crash mid-append leaves half a frame: everything before it must
     survive, the garbage must be dropped and overwritten. *)
  write_file path (intact ^ "r 3 17 99");
  let records, valid, torn = Wal.replay path in
  Alcotest.(check bool) "torn detected" true torn;
  Alcotest.(check int) "valid prefix" (String.length intact) valid;
  Alcotest.(check int) "two records survive" 2 (List.length records);
  let w = Wal.open_append ~valid_length:valid ~next_seq:3 path in
  ignore (Wal.append w Wal.Drain);
  Wal.close w;
  let records, _, torn = Wal.replay path in
  Alcotest.(check bool) "clean after truncate+append" false torn;
  Alcotest.(check (list int)) "seqs" [ 1; 2; 3 ] (List.map fst records);
  (* A flipped payload byte must fail the checksum. *)
  let text = read_file path in
  let flipped = Bytes.of_string text in
  Bytes.set flipped (String.length text - 2)
    (if Bytes.get flipped (String.length text - 2) = 'x' then 'y' else 'x');
  write_file path (Bytes.to_string flipped);
  let records, _, torn = Wal.replay path in
  Alcotest.(check bool) "corruption detected" true torn;
  Alcotest.(check int) "prefix survives corruption" 2 (List.length records);
  rm_rf dir

(* A frame length past end-of-file is a torn tail, found before anything
   is allocated for it: 2^62 - 1000 used to escape as [Bytes.create]'s
   [Invalid_argument], and 300000000 to allocate 300 MB first. *)
let test_wal_length_past_eof () =
  let dir = fresh_dir "length" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal" in
  let w = Wal.open_append ~next_seq:1 path in
  ignore (Wal.append w Wal.Drain);
  Wal.close w;
  let intact = read_file path in
  List.iter
    (fun header ->
      write_file path (intact ^ header ^ "\nsubmit a 0 0 1\n");
      let records, valid, torn = Wal.replay path in
      Alcotest.(check bool) (header ^ ": torn") true torn;
      Alcotest.(check int) (header ^ ": valid prefix") (String.length intact) valid;
      Alcotest.(check int) (header ^ ": record before it") 1 (List.length records))
    [ "r 2 4611686018427387000 0"; "r 2 300000000 0" ];
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Snapshot text                                                       *)
(* ------------------------------------------------------------------ *)

(* An engine with a bit of everything: completed and in-flight jobs, a
   down machine, a pending recovery, a parked (starved) request. *)
let busy_engine () =
  let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Srpt) (platform ()) in
  ignore (E.submit e ~id:"a" ~arrival:R.zero ~bank:1 ~num_motifs:30 ());
  ignore (E.submit e ~id:"b" ~arrival:(R.of_int 1) ~bank:0 ~num_motifs:20 ());
  E.run_until e (R.of_int 2);
  E.inject e ~at:(E.now e) (T.Fail 1);
  E.inject e ~at:(R.of_int 500) (T.Recover 1);
  ignore (E.submit e ~id:"c" ~arrival:(E.now e) ~bank:0 ~num_motifs:5 ());
  E.run_until e (R.of_int 3);
  e

let test_snapshot_roundtrip () =
  let e = busy_engine () in
  let st = E.dump e in
  let text = Snap.state_to_string ~seq:17 ~platform:(platform ()) st in
  let seq', platform', st' = Snap.state_of_string text in
  Alcotest.(check int) "seq" 17 seq';
  Alcotest.(check string) "re-serialization is bit-identical" text
    (Snap.state_to_string ~seq:17 ~platform:platform' st');
  (* Restoring and re-dumping must also round-trip. *)
  let e' = E.restore ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Srpt) platform' st' in
  Alcotest.(check string) "restore/dump round-trip" text
    (Snap.state_to_string ~seq:17 ~platform:platform' (E.dump e'));
  Alcotest.(check string) "metrics reproduce" (M.to_json (E.metrics e))
    (M.to_json (E.metrics e'))

let test_snapshot_rejects_corruption () =
  let e = busy_engine () in
  let text = Snap.state_to_string ~seq:3 ~platform:(platform ()) (E.dump e) in
  let n = String.length text in
  let corrupt =
    String.mapi (fun i c -> if i = n / 2 && c <> 'Q' then 'Q' else c) text
  in
  Alcotest.(check bool) "checksum mismatch raises" true
    (try
       ignore (Snap.state_of_string corrupt);
       false
     with Invalid_argument msg ->
       String.length msg > 0 && corrupt <> text);
  Alcotest.(check bool) "wrong policy rejected" true
    (let _, p, st = Snap.state_of_string text in
     try
       ignore (E.restore ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct) p st);
       false
     with Invalid_argument _ -> true)

(* The committed v2 fixture: written by the encoder before its
   allocation-light rewrite, from the fixed script below.  Three
   machines, machine 2 the sole holder of bank 0: failing it parks the
   bank-0 requests, the recovery stays pending, the live submissions
   force a cache-consulting rebuild, and the completions leave histogram
   samples out of sorted order. *)
let fixture_platform () =
  {
    W.speeds = [| R.one; R.of_ints 3 2; R.of_int 2 |];
    bank_sizes = [| 100; 200 |];
    has_bank = [| [| false; true |]; [| false; true |]; [| true; true |] |];
  }

let fixture_state () =
  let e =
    E.create ~batch_window:(R.of_ints 1 2) ~clock:(Serve.Clock.virtual_ ())
      ~policy:(module Online.Policies.Mct) (fixture_platform ())
  in
  E.set_decision_cache e true;
  ignore (E.submit e ~id:"a" ~arrival:R.zero ~bank:1 ~num_motifs:8 ());
  ignore (E.submit e ~id:"b" ~arrival:R.zero ~bank:0 ~num_motifs:12 ());
  E.run_until e R.one;
  E.inject e ~at:(E.now e) (T.Fail 2);
  E.inject e ~at:(R.of_int 900) (T.Recover 2);
  ignore (E.submit e ~id:"c" ~arrival:(R.of_int 2) ~bank:1 ~num_motifs:5 ());
  ignore (E.submit e ~id:"d" ~arrival:(R.of_int 2) ~bank:0 ~num_motifs:3 ());
  ignore (E.submit e ~id:"e" ~arrival:(R.of_int 3) ~bank:1 ~num_motifs:40 ());
  ignore (E.submit e ~id:"f" ~arrival:(R.of_int 5) ~bank:1 ~num_motifs:1 ());
  E.run_until e (R.of_int 40);
  E.dump e

let fixture_file =
  if Sys.file_exists "fixtures/engine_state_v2.snapshot" then
    "fixtures/engine_state_v2.snapshot"
  else "test/fixtures/engine_state_v2.snapshot"

let test_snapshot_fixture_bytes () =
  let expected = read_file fixture_file in
  Alcotest.(check string) "encoder reproduces the committed v2 bytes" expected
    (Snap.state_to_string ~seq:42 ~platform:(fixture_platform ()) (fixture_state ()));
  let seq, platform, st = Snap.state_of_string expected in
  Alcotest.(check string) "parse/re-encode round-trip" expected
    (Snap.state_to_string ~seq ~platform st);
  (* An engine restored from the old bytes dumps them back unchanged. *)
  let e =
    E.restore ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct)
      platform st
  in
  Alcotest.(check string) "restore/dump round-trip" expected
    (Snap.state_to_string ~seq ~platform (E.dump e))

(* The committed fixture with line [old] replaced by [by] and the
   Adler-32 trailer resealed, so only the edited content can fail. *)
let edited_fixture ~old ~by =
  let text = read_file fixture_file in
  let lines = String.split_on_char '\n' text in
  if not (List.mem old lines) then Alcotest.failf "fixture has no line %S" old;
  let body =
    List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"checksum " l)) lines
    |> List.map (fun l -> (if l = old then by else l) ^ "\n")
    |> String.concat ""
  in
  Printf.sprintf "%schecksum %d\n" body (Wal.adler32 body)

let raises_prefix prefix f =
  match f () with
  | _ -> Alcotest.failf "accepted; expected a %S error" prefix
  | exception Invalid_argument msg ->
    if not (String.starts_with ~prefix msg) then
      Alcotest.failf "error %S does not start with %S" msg prefix

(* A checksummed snapshot can still name things that do not exist: a
   pending fault on a machine the platform lacks, a slice of a job or
   machine out of range, a negative count.  Each must be a typed error at
   the boundary, not an index fault at the next [run_until] or [fail]. *)
let test_snapshot_rejects_dangling () =
  let restore text () =
    let _, platform, st = Snap.state_of_string text in
    E.restore ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct)
      platform st
  in
  let rejected_by_restore old by =
    raises_prefix "Engine.restore: " (restore (edited_fixture ~old ~by))
  in
  rejected_by_restore "fault 900 recover 2" "fault 900 recover 7";
  rejected_by_restore "fault 900 recover 2" "fault 900 fail -1";
  rejected_by_restore "slice 0 2 2 3" "slice 0 99 2 3";
  rejected_by_restore "slice 0 2 2 3" "slice 3 2 2 3";
  let rejected_by_parser old by =
    raises_prefix "Snapshot: line "
      (fun () -> Snap.state_of_string (edited_fixture ~old ~by))
  in
  rejected_by_parser "jobs 6" "jobs -1";
  rejected_by_parser "overlay 3" "overlay -2";
  rejected_by_parser "faults 1" "faults -1";
  rejected_by_parser "slices 6" "slices -3";
  (* A machine is up or down; no other state parses. *)
  rejected_by_parser "avail down" "avail degraded 3/4";
  (* A count past the lines left is rejected before anything is read or
     allocated for it: 2^62 - 1 used to escape as [Array.make]'s
     [Invalid_argument], and 50000000 to allocate 400 MB first. *)
  rejected_by_parser "overlay 3" "overlay 50000000";
  rejected_by_parser "overlay 3" "overlay 4611686018427387903";
  rejected_by_parser "last_stop 3" "last_stop 4611686018427387903";
  rejected_by_parser "jobs 6" "jobs 4611686018427387903";
  (* The unedited fixture still restores. *)
  ignore (restore (read_file fixture_file) ())

(* A checksummed snapshot can also hold a job state no run reaches.  Each
   class below used to resume and fail later — over-processing at drain,
   "time did not advance", or another module's [Invalid_argument] — and
   must be a typed [Engine.restore:] error instead. *)
let rejected_by_restore old by () =
  let _, platform, st = Snap.state_of_string (edited_fixture ~old ~by) in
  raises_prefix "Engine.restore: " (fun () ->
      E.restore ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct)
        platform st)

(* Fixture job fields: id arrival bank motifs remaining arrived parked
   completed_at; "job b" is live and parked, "job a" completed at 29/25,
   and the snapshot's now is 40. *)
let test_restore_live_remaining () =
  rejected_by_restore "job b 0 0 12 1 1 1 none" "job b 0 0 12 -1 1 1 none" ();
  rejected_by_restore "job b 0 0 12 1 1 1 none" "job b 0 0 12 0 1 1 none" ();
  rejected_by_restore "job b 0 0 12 1 1 1 none" "job b 0 0 12 3/2 1 1 none" ()

let test_restore_completed () =
  rejected_by_restore "job a 0 1 8 0 1 0 29/25" "job a 0 1 8 0 1 0 none" ();
  rejected_by_restore "job a 0 1 8 0 1 0 29/25" "job a 0 1 8 1/2 1 0 29/25" ();
  rejected_by_restore "job a 0 1 8 0 1 0 29/25" "job a 0 1 8 0 1 0 41" ()

let test_restore_arrival () =
  rejected_by_restore "job c 2 1 5 0 1 0 79/25" "job c -1 1 5 0 1 0 79/25" ()

let test_restore_window () = rejected_by_restore "batch_window 1/2" "batch_window -1" ()

(* Restored jobs pass the live admission checks.  A non-positive motif
   count used to restore, and the drained schedule then failed the
   divisibility check (shares summing to 58/57). *)
let test_restore_motifs () =
  rejected_by_restore "job c 2 1 5 0 1 0 79/25" "job c 2 1 -5 0 1 0 79/25" ();
  rejected_by_restore "job e 3 1 40 0 1 0 219/50" "job e 3 1 0 0 1 0 219/50" ()

(* Machine 2's frontier after now: the next slice there used to fail at
   drain as an overlap. *)
let test_restore_stop_after_now () =
  rejected_by_restore "stop 1" "stop 1000000000000000000000" ()

(* An arrived job released after now: the parked one used to fail at
   drain ("slice starts before release") once its machine recovered, and
   the completed one left a schedule that processes it before its
   release. *)
let test_restore_release_after_now () =
  rejected_by_restore "job b 0 0 12 1 1 1 none" "job b 1000000000000000000000 0 12 1 1 1 none" ();
  rejected_by_restore "job c 2 1 5 0 1 0 79/25" "job c 1000000000000000000000 1 5 0 1 0 79/25" ()

(* Completed but never arrived: it used to fail only at drain, with
   "time did not advance". *)
let test_restore_completed_not_arrived () =
  rejected_by_restore "job a 0 1 8 0 1 0 29/25" "job a 0 1 8 0 0 0 29/25" ()

(* [parked] must agree with the overlay: "job b" (bank 0, held only by
   the down machine 2) must be parked; a cleared flag used to put a share
   on the down machine.  A completed job is never parked. *)
let test_restore_parked () =
  rejected_by_restore "job b 0 0 12 1 1 1 none" "job b 0 0 12 1 1 0 none" ();
  rejected_by_restore "job f 5 1 1 0 1 0 123/20" "job f 5 1 1 0 1 1 123/20" ()

(* Work is conserved: "job c" ran on machine 0 for exactly its cost
   there, 29/25.  With 40 motifs that cost is 61/50 (a count close to 5
   quantizes to the same centiseconds), and bank 0 is not on machine 0 at
   all; both used to restore and leave an invalid drained schedule. *)
let test_restore_work_conserved () =
  rejected_by_restore "job c 2 1 5 0 1 0 79/25" "job c 2 1 40 0 1 0 79/25" ();
  rejected_by_restore "job c 2 1 5 0 1 0 79/25" "job c 2 0 5 0 1 0 79/25" ()

(* A metric line under another instrument's name and kind: it used to
   escape [Engine.restore] as the registry's own [Invalid_argument].
   Found by the snapshot-mutation fuzz oracle. *)
let test_restore_metric_kind () =
  rejected_by_restore "gauge queue_depth 0x1p+1 0x1p+2" "gauge flow_seconds 0x1p+1 0x1p+2" ()

(* A metric name no engine instrument carries: loading it used to create
   a stray [sliced] counter and leave [slices] at 0. *)
let test_restore_metric_name () =
  rejected_by_restore "counter slices 7" "counter sliced 7" ()

(* Fixture cache entry fields: fingerprint key (one job), review offset,
   share count, then machine, census position and share per share.  A
   position past the key's jobs used to restore and fail the first cache
   hit with an index error; a machine past the platform's, a share outside
   (0, 1] or a past review date would fail it as an invalid decision. *)
let test_restore_cache_entry () =
  let centry = "centry mct|stretch|uud|1:1:8:4/29 none 1 0 0 1" in
  List.iter
    (fun by -> rejected_by_restore centry ("centry mct|stretch|uud|1:1:8:4/29 " ^ by) ())
    [ "none 1 0 5 1"; "none 1 7 0 1"; "none 1 0 0 3/2"; "none 1 0 0 0"; "0 1 0 0 1" ]

(* Checkpoints encode only what the run added since the last one.  A
   200-request mct replay, each request submitted live at its arrival,
   checkpoints every 16 records.  Every checkpoint writes the
   from-scratch encoding, and after the first each newly encodes
   ([wal.snapshot_encoded_bytes]) less than what the file grew by plus
   the size of the first: the text added since, plus the parts rewritten
   every time (header, counters, open jobs).  By the last checkpoint that
   is under a tenth of the bytes it writes. *)
let test_checkpoint_encodes_new () =
  let trace = T.poisson ~seed:3 ~rate:0.3 ~count:200 () in
  let platform = trace.T.platform in
  let dir = fresh_dir "incremental" in
  let e =
    E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Mct) platform
  in
  let h = Snap.arm ~snapshot_every:16 ~dir e in
  let global name = M.count (M.counter M.global name) in
  let writes = ref [] in
  let step f =
    let before = (global "wal.snapshots", global "wal.snapshot_bytes",
                  global "wal.snapshot_encoded_bytes") in
    f ();
    let n0, bytes0, encoded0 = before in
    if global "wal.snapshots" > n0 then begin
      let text = read_file (Snap.snapshot_file dir) in
      Alcotest.(check string) "checkpoint bytes"
        (Snap.state_to_string ~seq:(E.last_seq e) ~platform (E.dump e)) text;
      Alcotest.(check int) "bytes counted" (String.length text)
        (global "wal.snapshot_bytes" - bytes0);
      writes := (String.length text, global "wal.snapshot_encoded_bytes" - encoded0) :: !writes
    end
  in
  List.iter
    (fun (en : T.entry) ->
      let r = en.T.request in
      step (fun () -> E.run_until e r.W.arrival);
      step (fun () ->
          ignore
            (E.submit e ~id:en.T.id ~arrival:r.W.arrival ~bank:r.W.bank
               ~num_motifs:r.W.num_motifs ())))
    trace.T.entries;
  step (fun () -> E.drain e);
  Snap.close h;
  rm_rf dir;
  match List.rev !writes with
  | [] -> Alcotest.fail "no checkpoint taken"
  | (first, encoded) :: later ->
    Alcotest.(check int) "the first checkpoint encodes everything" first encoded;
    Alcotest.(check bool) "checkpoints every 16 of 401 records" true
      (List.length later = 24);
    ignore
      (List.fold_left
         (fun prev (bytes, encoded) ->
           if encoded >= bytes - prev + first then
             Alcotest.failf "a %d-byte checkpoint after a %d-byte one encoded %d bytes" bytes
               prev encoded;
           bytes)
         first later);
    let bytes, encoded = List.hd !writes in
    if 10 * encoded >= bytes then
      Alcotest.failf "the last checkpoint encoded %d of its %d bytes" encoded bytes

(* ------------------------------------------------------------------ *)
(* Crash / resume                                                      *)
(* ------------------------------------------------------------------ *)

(* The event scripts the crash property drives: everything a live server
   can do to an engine. *)
type op = Submit of int * int | Tick of int | Fault of T.fault | Drain

let apply e counter = function
  | Submit (bank, motifs) ->
    let id = Printf.sprintf "r%d" !counter in
    incr counter;
    ignore (E.submit e ~id ~arrival:(E.now e) ~bank ~num_motifs:motifs ())
  | Tick cs -> E.run_until e (R.add (E.now e) (R.of_ints cs 100))
  | Fault f -> E.inject e ~at:(E.now e) f
  | Drain -> E.drain e

let final_dump e =
  Snap.state_to_string ~seq:0 ~platform:(platform ()) (E.dump e)

(* Run the whole script under an armed WAL, no crash. *)
let oracle_run ~snapshot_every script =
  let dir = fresh_dir "oracle" in
  let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Srpt) (platform ()) in
  let h = Snap.arm ~snapshot_every ~dir e in
  let counter = ref 0 in
  List.iter (apply e counter) script;
  Snap.close h;
  rm_rf dir;
  (final_dump e, M.to_json (E.metrics e))

(* Run [k] ops of [script] on [e], then crash: the process vanishes and
   only the WAL and any snapshots survive.  With [mid] the crash comes
   later, inside the first automatic checkpoint from op [k] on: its record
   is durable and applied, but the snapshot write fails (a directory
   squats on the snapshot's temp name), so the resumed replay must re-take
   that checkpoint.  Without one the script runs to its end.  Returns the
   ops the crashed engine never applied. *)
let run_to_crash ~dir e counter ~k ~mid script =
  let before = List.filteri (fun i _ -> i < k) script in
  let after = List.filteri (fun i _ -> i >= k) script in
  List.iter (apply e counter) before;
  if not mid then after
  else begin
    let blocker = Filename.concat dir "snapshot.tmp" in
    Unix.mkdir blocker 0o755;
    let rec go = function
      | [] -> []
      | op :: rest -> (
        match apply e counter op with () -> go rest | exception Unix.Unix_error _ -> rest)
    in
    let rest = go after in
    Unix.rmdir blocker;
    rest
  end

(* Crash at each of [crashes] in turn, each [(k, mid)] counted from the
   previous resume (see [run_to_crash]), resume, and run what is left. *)
let crashed_run ~snapshot_every ~crashes script =
  let dir = fresh_dir "crash" in
  let e0 = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Srpt) (platform ()) in
  let h0 = Snap.arm ~snapshot_every ~dir e0 in
  let counter = ref 0 in
  let rest, (h, e) =
    List.fold_left
      (fun (script, (h, e)) (k, mid) ->
        let rest = run_to_crash ~dir e counter ~k ~mid script in
        Snap.close h;
        ( rest,
          Snap.resume ~snapshot_every ~dir ~clock:(Serve.Clock.virtual_ ())
            ~policies:[ (module Online.Policies.Srpt); (module Online.Policies.Mct) ]
            () ))
      (script, (h0, e0)) crashes
  in
  List.iter (apply e counter) rest;
  Snap.close h;
  rm_rf dir;
  (final_dump e, M.to_json (E.metrics e))

let test_resume_from_meta () =
  (* Crash before the first checkpoint: recovery replays the whole log
     from the arm-time meta state. *)
  let script = [ Submit (1, 10); Tick 150; Submit (0, 5); Drain ] in
  let oracle = oracle_run ~snapshot_every:0 script in
  List.iter
    (fun k ->
      Alcotest.(check (pair string string))
        (Printf.sprintf "crash at %d" k)
        oracle
        (crashed_run ~snapshot_every:0 ~crashes:[ (k, false) ] script))
    [ 0; 1; 2; 3; 4 ]

let test_resume_skips_stale_records () =
  (* A crash can swallow the post-checkpoint truncation: fabricate that by
     restoring the pre-checkpoint log in front of the post-checkpoint one.
     Resume must skip the records the snapshot already covers. *)
  let dir = fresh_dir "stale" in
  let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Srpt) (platform ()) in
  let h = Snap.arm ~snapshot_every:0 ~dir e in
  let counter = ref 0 in
  List.iter (apply e counter) [ Submit (1, 10); Tick 100 ];
  let pre_truncation = read_file (Snap.wal_file dir) in
  Alcotest.(check bool) "snapshot taken" true (E.checkpoint e);
  List.iter (apply e counter) [ Submit (1, 4) ];
  let post = read_file (Snap.wal_file dir) in
  Snap.close h;
  write_file (Snap.wal_file dir) (pre_truncation ^ post);
  let h1, e1 =
    Snap.resume ~dir ~clock:(Serve.Clock.virtual_ ())
      ~policies:[ (module Online.Policies.Srpt) ] ()
  in
  Snap.close h1;
  rm_rf dir;
  Alcotest.(check string) "stale prefix skipped" (final_dump e) (final_dump e1);
  Alcotest.(check int) "both submits present" 2 (E.submitted e1)

let test_arm_refuses_reuse () =
  let dir = fresh_dir "reuse" in
  let e = E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Srpt) (platform ()) in
  let h = Snap.arm ~dir e in
  Snap.close h;
  Alcotest.(check bool) "second arm rejected" true
    (try
       ignore (Snap.arm ~dir e);
       false
     with Invalid_argument _ -> true);
  rm_rf dir

(* The centerpiece: crash at a random op index, under a random checkpoint
   cadence, resume, crash again and resume again, and compare the
   finished state bit for bit.  The second crash may come right after the
   first resume returns: on disk that is a crash during its replay, after
   the replay's last automatic checkpoint, which wrote a snapshot and left
   the log untruncated.  Either crash may land inside a checkpoint, so a
   replay re-takes the lost one (a replay that skipped it fails here).
   Under one cadence that re-taken checkpoint is the tail's last record,
   so whether replay truncates the log there cannot show; it matters when
   a restart changes the cadence.  SRPT is LP-free, so every metric
   (histograms included) is deterministic. *)
let prop_crash_resume_identical =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun b m -> Submit (b, m)) (int_bound 1) (int_range 1 12));
          (3, map (fun cs -> Tick cs) (int_range 0 400));
          (1, map (fun i -> Fault (T.Fail i)) (int_bound 1));
          (1, map (fun i -> Fault (T.Recover i)) (int_bound 1));
          (1, return Drain);
        ])
  in
  let gen =
    QCheck.Gen.(
      map3
        (fun ops (k1, mid1) ((k2, mid2), every) ->
          (ops @ [ Drain ], [ (k1, mid1); (k2, mid2) ], every))
        (list_size (int_range 1 16) gen_op)
        (pair (int_bound 17) bool)
        (pair (pair (frequency [ (1, return 0); (2, int_bound 17) ]) bool) (int_bound 3)))
  in
  let print (ops, crashes, every) =
    let op_str = function
      | Submit (b, m) -> Printf.sprintf "Submit(%d,%d)" b m
      | Tick cs -> Printf.sprintf "Tick(%d)" cs
      | Fault (T.Fail i) -> Printf.sprintf "Fail(%d)" i
      | Fault (T.Recover i) -> Printf.sprintf "Recover(%d)" i
      | Drain -> "Drain"
    in
    let crash_str (k, mid) =
      Printf.sprintf "after %d%s" k (if mid then " then in a checkpoint" else "")
    in
    Printf.sprintf "crashes [%s], snapshot every %d, ops [%s]"
      (String.concat "; " (List.map crash_str crashes))
      every
      (String.concat "; " (List.map op_str ops))
  in
  QCheck.Test.make ~count:60 ~name:"crash at any index resumes bit-identically"
    (QCheck.make ~print gen)
    (fun (script, crashes, snapshot_every) ->
      let od, om = oracle_run ~snapshot_every script in
      let cd, cm = crashed_run ~snapshot_every ~crashes script in
      od = cd && om = cm)

(* ------------------------------------------------------------------ *)

(* Regression: the decision cache is engine state and must survive a
   crash.  Snapshots used to omit it on the assumption that checkpoint's
   quiesce left nothing cached — wrong: quiesce drops the policy runner
   but keeps remembered plans, so a resumed engine was cache-cold where
   the uninterrupted one hit, and the two runs diverged (different
   hit/miss/decision counters, different decision provenance).  Found by
   the wal-crash-resume fuzz oracle; the shrunk script is committed as
   test/fixtures/cache_resume_divergence.script. *)
let test_cache_survives_crash () =
  let uniform () =
    { W.speeds = [| R.one; R.one |];
      bank_sizes = [| 380 |];
      has_bank = [| [| true |]; [| true |] |] }
  in
  (* Two identically-shaped episodes: the second is a cache hit in an
     uninterrupted run, and must stay one across a crash between them.
     The far-future straggler forces a rebuild barrier mid-episode — the
     only point where the cache is consulted. *)
  let episode eng tag t0 =
    ignore (E.submit eng ~id:(tag ^ "-a") ~arrival:t0 ~bank:0 ~num_motifs:10 ());
    ignore (E.submit eng ~id:(tag ^ "-b") ~arrival:t0 ~bank:0 ~num_motifs:20 ());
    E.run_until eng t0;
    ignore (E.submit eng ~id:(tag ^ "-z")
        ~arrival:(R.add t0 (R.of_int 1_000_000)) ~bank:0 ~num_motifs:5 ());
    E.drain eng
  in
  let counts e =
    let c name = M.count (M.counter (E.metrics e) name) in
    (c "decision_cache_hits", c "decision_cache_misses", c "decisions")
  in
  let final e = Snap.state_to_string ~seq:0 ~platform:(uniform ()) (E.dump e) in
  (* Oracle: WAL armed, cache on, no crash. *)
  let dir = fresh_dir "cache-oracle" in
  let e = E.create ~clock:(Serve.Clock.virtual_ ())
      ~policy:(module Online.Policies.Mct) (uniform ()) in
  let h = Snap.arm ~dir e in
  E.set_decision_cache e true;
  episode e "one" R.one;
  ignore (E.checkpoint e);
  episode e "two" (R.add (E.now e) (R.of_int 100));
  Snap.close h;
  let oracle_counts = counts e and oracle_state = final e in
  rm_rf dir;
  let hits, _, _ = oracle_counts in
  Alcotest.(check bool) "second episode hits in the oracle run" true (hits > 0);
  (* Crashed twin: identical up to the checkpoint, then the process dies
     and episode two runs on the resumed engine. *)
  let dir = fresh_dir "cache-crash" in
  let e0 = E.create ~clock:(Serve.Clock.virtual_ ())
      ~policy:(module Online.Policies.Mct) (uniform ()) in
  let h0 = Snap.arm ~dir e0 in
  E.set_decision_cache e0 true;
  episode e0 "one" R.one;
  ignore (E.checkpoint e0);
  Snap.close h0;
  let h1, e1 = Snap.resume ~decision_cache:true ~dir
      ~clock:(Serve.Clock.virtual_ ())
      ~policies:[ (module Online.Policies.Mct) ] () in
  episode e1 "two" (R.add (E.now e1) (R.of_int 100));
  Snap.close h1;
  let crashed_counts = counts e1 and crashed_state = final e1 in
  rm_rf dir;
  let pp_counts (h, m, d) = Printf.sprintf "hits=%d misses=%d decisions=%d" h m d in
  Alcotest.(check string) "cache counters identical across the crash"
    (pp_counts oracle_counts) (pp_counts crashed_counts);
  Alcotest.(check string) "final engine states identical" oracle_state crashed_state

(* Regression: reading a histogram used to sort its sample buffer in
   place.  A [metrics] command therefore permuted the samples the live
   engine serializes, while a WAL-resumed twin (which never served the
   read) kept insertion order, so the two dumped different states.  The
   script completes a long request before a short one, so the samples
   are out of sorted order when [metrics] reads them. *)
let test_metrics_read_keeps_dump_order () =
  let dir = fresh_dir "metrics-read" in
  let e =
    E.create ~clock:(Serve.Clock.virtual_ ()) ~policy:(module Online.Policies.Srpt)
      (platform ())
  in
  let h = Snap.arm ~dir e in
  let server = Serve.Server.create e in
  List.iter
    (fun line -> ignore (Serve.Server.handle_line server line))
    [ "submit long 1 30"; "tick 200"; "submit short 1 1"; "tick 200"; "metrics";
      "submit late 0 4"; "metrics json"; "drain"; "metrics" ];
  Snap.close h;
  let h1, e1 =
    Snap.resume ~dir ~clock:(Serve.Clock.virtual_ ())
      ~policies:[ (module Online.Policies.Srpt) ] ()
  in
  Snap.close h1;
  rm_rf dir;
  (match List.assoc_opt "flow_seconds" (M.dump (E.metrics e1)) with
   | Some (M.Dump_histogram samples) ->
     let sorted = Array.copy samples in
     Array.sort compare sorted;
     Alcotest.(check bool) "samples recorded out of sorted order" true (samples <> sorted)
   | _ -> Alcotest.fail "no flow_seconds histogram");
  Alcotest.(check string) "live and resumed states identical" (final_dump e)
    (final_dump e1)

let () =
  Alcotest.run "durability"
    [ ( "wal",
        [ Alcotest.test_case "codec" `Quick test_wal_codec;
          Alcotest.test_case "file roundtrip" `Quick test_wal_file_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "frame length past end-of-file" `Quick test_wal_length_past_eof;
          QCheck_alcotest.to_alcotest prop_adler32_reference;
          QCheck_alcotest.to_alcotest prop_adler32_combine
        ] );
      ( "snapshot",
        [ Alcotest.test_case "text roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_snapshot_rejects_corruption;
          Alcotest.test_case "v2 fixture bytes" `Quick test_snapshot_fixture_bytes;
          Alcotest.test_case "dangling indices and negative counts rejected" `Quick
            test_snapshot_rejects_dangling;
          Alcotest.test_case "live job remaining outside (0, 1] rejected" `Quick
            test_restore_live_remaining;
          Alcotest.test_case "completed job without 0 remaining or past date rejected"
            `Quick test_restore_completed;
          Alcotest.test_case "negative arrival rejected" `Quick test_restore_arrival;
          Alcotest.test_case "negative batch window rejected" `Quick test_restore_window;
          Alcotest.test_case "non-positive motif count rejected" `Quick test_restore_motifs;
          Alcotest.test_case "machine frontier after now rejected" `Quick
            test_restore_stop_after_now;
          Alcotest.test_case "arrived job released after now rejected" `Quick
            test_restore_release_after_now;
          Alcotest.test_case "completed job that never arrived rejected" `Quick
            test_restore_completed_not_arrived;
          Alcotest.test_case "parked flag disagreeing with the overlay rejected" `Quick
            test_restore_parked;
          Alcotest.test_case "work not conserved rejected" `Quick test_restore_work_conserved;
          Alcotest.test_case "cache entry outside the key or the platform rejected" `Quick
            test_restore_cache_entry;
          Alcotest.test_case "metric of another kind rejected" `Quick test_restore_metric_kind;
          Alcotest.test_case "metric of no engine instrument rejected" `Quick
            test_restore_metric_name;
          Alcotest.test_case "checkpoints encode only what is new" `Quick
            test_checkpoint_encodes_new
        ] );
      ( "resume",
        [ Alcotest.test_case "from meta" `Quick test_resume_from_meta;
          Alcotest.test_case "stale records skipped" `Quick test_resume_skips_stale_records;
          Alcotest.test_case "arm refuses reuse" `Quick test_arm_refuses_reuse;
          Alcotest.test_case "decision cache survives crash" `Quick
            test_cache_survives_crash;
          Alcotest.test_case "metrics read keeps dump order" `Quick
            test_metrics_read_keeps_dump_order;
          QCheck_alcotest.to_alcotest prop_crash_resume_identical
        ] )
    ]
