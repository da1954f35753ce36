(* Write-ahead event log for the serving engine.

   Every externally visible engine event is encoded as one framed record
   and appended — flushed and fsync'd — *before* the engine applies it, so
   a crash at any instant leaves a log whose replay reproduces the engine
   state bit for bit (the engine is deterministic in its external event
   sequence; DESIGN.md §11).

   Frame layout, all ASCII:

     r <seq> <len> <adler32>\n<payload>\n

   [seq] is a strictly increasing record number starting at 1 (snapshots
   record the highest seq they cover, so a resume can skip records already
   folded into the snapshot even when the post-snapshot truncation was
   lost to a crash).  [len] is the byte length of [payload]; the Adler-32
   checksum is over the payload bytes.  A torn tail — a partial header, a
   short payload, a checksum mismatch — marks the end of the valid prefix:
   readers stop there, and {!open_append} truncates the file back to it so
   new records never follow garbage. *)

module Rat = Numeric.Rat

type record =
  | Submit of { id : string; arrival : Rat.t; bank : int; num_motifs : int }
  | Inject of { at : Rat.t; fault : Trace.fault }
  | Advance of Rat.t
  | Drain

(* wal.* telemetry lives in the process-global registry, next to the lp.*
   and rat.* families. *)
let c_appends = Obs.Registry.counter Obs.Registry.global "wal.appends"
let c_bytes = Obs.Registry.counter Obs.Registry.global "wal.append_bytes"
let c_fsyncs = Obs.Registry.counter Obs.Registry.global "wal.fsyncs"
let c_replayed = Obs.Registry.counter Obs.Registry.global "wal.records_replayed"
let c_torn = Obs.Registry.counter Obs.Registry.global "wal.torn_tails"

let adler32 s =
  (* Reduce once per block rather than per byte: 5552 bytes is zlib's
     bound for 32-bit sums, far inside 63-bit ints, and modular
     arithmetic makes the deferred reduction give the same value. *)
  let n = String.length s in
  let a = ref 1 and b = ref 0 and i = ref 0 in
  while !i < n do
    let stop = Stdlib.min n (!i + 5552) in
    for k = !i to stop - 1 do
      a := !a + Char.code (String.unsafe_get s k);
      b := !b + !a
    done;
    a := !a mod 65521;
    b := !b mod 65521;
    i := stop
  done;
  (!b lsl 16) lor !a

let encodable_id id =
  id <> ""
  && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') id)

let encode = function
  | Submit { id; arrival; bank; num_motifs } ->
    if not (encodable_id id) then
      invalid_arg
        (Printf.sprintf "Wal: request id %S is empty or contains whitespace" id);
    Printf.sprintf "submit %s %s %d %d" id (Rat.to_string arrival) bank num_motifs
  | Inject { at; fault } ->
    let kind, machine =
      match fault with Trace.Fail i -> ("fail", i) | Trace.Recover i -> ("recover", i)
    in
    Printf.sprintf "inject %s %s %d" (Rat.to_string at) kind machine
  | Advance date -> Printf.sprintf "advance %s" (Rat.to_string date)
  | Drain -> "drain"

let decode payload =
  let bad () = invalid_arg (Printf.sprintf "Wal: bad record payload %S" payload) in
  let rat s = match Rat.of_string s with r -> r | exception _ -> bad () in
  let int s = match int_of_string_opt s with Some v -> v | None -> bad () in
  match String.split_on_char ' ' payload |> List.filter (fun s -> s <> "") with
  | [ "submit"; id; arrival; bank; motifs ] ->
    Submit { id; arrival = rat arrival; bank = int bank; num_motifs = int motifs }
  | [ "inject"; at; "fail"; machine ] ->
    Inject { at = rat at; fault = Trace.Fail (int machine) }
  | [ "inject"; at; "recover"; machine ] ->
    Inject { at = rat at; fault = Trace.Recover (int machine) }
  | [ "advance"; date ] -> Advance (rat date)
  | [ "drain" ] -> Drain
  | _ -> bad ()

(* --- reading ---------------------------------------------------------- *)

(* Returns the valid records (with their seqs) and the byte length of the
   valid prefix; [torn] reports whether trailing garbage was skipped. *)
let read_file path =
  if not (Sys.file_exists path) then ([], 0, false)
  else
    In_channel.with_open_bin path (fun ic ->
        let records = ref [] in
        let valid = ref 0 in
        let torn = ref false in
        let rec loop () =
          match In_channel.input_line ic with
          | None -> ()
          | Some header -> (
            match String.split_on_char ' ' header with
            | [ "r"; seq; len; sum ] -> (
              match (int_of_string_opt seq, int_of_string_opt len, int_of_string_opt sum)
              with
              | Some seq, Some len, Some sum when len >= 0 -> (
                let payload = Bytes.create len in
                match In_channel.really_input ic payload 0 len with
                | None -> torn := true
                | Some () -> (
                  match In_channel.input_char ic with
                  | Some '\n' ->
                    let payload = Bytes.to_string payload in
                    if adler32 payload <> sum then torn := true
                    else begin
                      match decode payload with
                      | record ->
                        records := (seq, record) :: !records;
                        (* header + '\n' + payload + '\n' *)
                        valid := !valid + String.length header + 1 + len + 1;
                        loop ()
                      | exception Invalid_argument _ -> torn := true
                    end
                  | Some _ | None -> torn := true))
              | _ -> torn := true)
            | _ -> torn := true)
        in
        loop ();
        (* Anything between the valid prefix and end-of-file is a torn
           record from a crash mid-append. *)
        if (not !torn) && In_channel.length ic > Int64.of_int !valid then torn := true;
        (List.rev !records, !valid, !torn))

let replay path =
  let records, valid, torn = read_file path in
  if torn then Obs.Registry.incr c_torn;
  Obs.Registry.add c_replayed (List.length records);
  (records, valid, torn)

(* --- writing ---------------------------------------------------------- *)

type writer = { fd : Unix.file_descr; mutable next_seq : int; path : string }

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

(* Open for appending after the valid prefix.  [valid_length] (from
   {!replay}) truncates a torn tail away first; [next_seq] is one past the
   highest seq already durable (1 on a fresh log). *)
let open_append ?valid_length ~next_seq path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (match valid_length with
   | Some len ->
     Unix.ftruncate fd len;
     ignore (Unix.lseek fd len Unix.SEEK_SET)
   | None -> ignore (Unix.lseek fd 0 Unix.SEEK_END));
  { fd; next_seq; path }

let append w record =
  let payload = encode record in
  let seq = w.next_seq in
  let frame =
    Printf.sprintf "r %d %d %d\n%s\n" seq (String.length payload) (adler32 payload)
      payload
  in
  Obs.Span.with_span "wal.append" (fun () ->
      Obs.Span.set_int "seq" seq;
      Obs.Span.set_int "bytes" (String.length frame);
      write_all w.fd frame;
      Obs.Span.with_span "wal.fsync" (fun () -> Unix.fsync w.fd));
  Obs.Registry.incr c_appends;
  Obs.Registry.add c_bytes (String.length frame);
  Obs.Registry.incr c_fsyncs;
  w.next_seq <- seq + 1;
  seq

(* Drop every record: called right after a snapshot made the prefix
   redundant.  Seqs keep counting up — a resume that finds a stale
   (pre-truncation) log simply skips records at or below the snapshot's
   covered seq. *)
let truncate w =
  Unix.ftruncate w.fd 0;
  ignore (Unix.lseek w.fd 0 Unix.SEEK_SET)

let next_seq w = w.next_seq

let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()
