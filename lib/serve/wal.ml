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
   checksum is over the payload bytes.  [header] and [payload] declare
   the two lines once, in Codec's syntax.  A torn tail — a partial header,
   a length past end-of-file, a short payload, a checksum mismatch — marks
   the end of the valid prefix: readers stop there, and {!open_append}
   truncates the file back to it so new records never follow garbage. *)

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

let adler32 = Adler32.string

let encodable_id = Codec.encodable

let fault =
  let open Codec in
  let fail = case "fail" int (fun i -> Trace.Fail i)
  and recover = case "recover" int (fun i -> Trace.Recover i) in
  variant [ Case fail; Case recover ] (function
    | Trace.Fail i -> Tagged (fail, i)
    | Trace.Recover i -> Tagged (recover, i))

let payload =
  let open Codec in
  let submit =
    case "submit" (tuple [ id "request id"; rat; int; int ])
      (fun [ id; arrival; bank; num_motifs ] -> Submit { id; arrival; bank; num_motifs })
  and inject = case "inject" (pair rat fault) (fun (at, fault) -> Inject { at; fault })
  and advance = case "advance" rat (fun date -> Advance date)
  and drain = case "drain" (tuple []) (fun [] -> Drain) in
  variant [ Case submit; Case inject; Case advance; Case drain ] (function
    | Submit { id; arrival; bank; num_motifs } ->
      Tagged (submit, [ id; arrival; bank; num_motifs ])
    | Inject { at; fault } -> Tagged (inject, (at, fault))
    | Advance date -> Tagged (advance, date)
    | Drain -> Tagged (drain, []))

(* The frame header line: seq, payload length, payload checksum. *)
let header = Codec.(keyed "r" (tuple [ int; nat; int ]))

let encode record =
  try Codec.to_string payload record with Codec.Malformed m -> invalid_arg ("Wal: " ^ m)

let decode text =
  match Codec.of_string (Codec.line payload) text with
  | Ok r -> r
  | Error _ -> invalid_arg (Printf.sprintf "Wal: bad record payload %S" text)

(* --- reading ---------------------------------------------------------- *)

(* Returns the valid records (with their seqs), the byte length of the
   valid prefix, and whether bytes follow it.  The prefix ends at the
   first torn frame: a bad header, a length past end-of-file (caught
   before anything is allocated for it), a short payload, a checksum
   mismatch or a payload that does not decode. *)
let read_file path =
  if not (Sys.file_exists path) then ([], 0, false)
  else
    In_channel.with_open_bin path (fun ic ->
        let size = In_channel.length ic in
        let frame () =
          match Option.map (Codec.of_string header) (In_channel.input_line ic) with
          | Some (Ok [ seq; len; sum ]) when Int64.(of_int len < sub size (In_channel.pos ic))
            -> (
            let payload = In_channel.really_input_string ic len in
            match (payload, In_channel.input_char ic) with
            | Some p, Some '\n' when adler32 p = sum -> (
              match decode p with r -> Some (seq, r) | exception Invalid_argument _ -> None)
            | _ -> None)
          | _ -> None
        in
        let rec loop records valid =
          match frame () with
          | Some r -> loop (r :: records) (In_channel.pos ic)
          | None -> (List.rev records, Int64.to_int valid, valid < size)
        in
        loop [] 0L)

let replay path =
  let records, valid, torn = read_file path in
  if torn then Obs.Registry.incr c_torn;
  Obs.Registry.add c_replayed (List.length records);
  (records, valid, torn)

(* --- writing ---------------------------------------------------------- *)

type writer = { fd : Unix.file_descr; mutable next_seq : int }

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
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
  { fd; next_seq }

let append w record =
  let payload = encode record in
  let seq = w.next_seq in
  let frame =
    Codec.to_string header [ seq; String.length payload; adler32 payload ] ^ payload ^ "\n"
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
