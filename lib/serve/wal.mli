(** Write-ahead event log for {!Engine} durability.

    The serving engine is deterministic in its sequence of externally
    visible events — submissions, fault injections, time advances, drains
    (the fault and multicore suites enforce bit-identical replay).  The
    WAL makes that sequence durable: each event is appended as one
    length-prefixed, checksummed, fsync'd record {e before} the engine
    applies it, so replaying the log into a fresh engine reproduces the
    crashed engine's state exactly (see {!Snapshot} for the recovery
    orchestration and DESIGN.md §11 for the invariant).

    Record framing is [r <seq> <len> <adler32>\n<payload>\n]; payloads use
    the exact rational text encoding ({!Numeric.Rat.to_string}).  Seqs
    start at 1 and increase by one per append; they survive log
    truncation, which is what lets a snapshot name the prefix it covers.

    Appends emit [wal.append] / [wal.fsync] spans when tracing is on, and
    tally [wal.appends], [wal.append_bytes], [wal.fsyncs],
    [wal.records_replayed] and [wal.torn_tails] counters in
    {!Obs.Registry.global}. *)

module Rat = Numeric.Rat

type record =
  | Submit of { id : string; arrival : Rat.t; bank : int; num_motifs : int }
      (** an admitted request, with its arrival date resolved — replay
          never re-reads the clock *)
  | Inject of { at : Rat.t; fault : Trace.fault }
  | Advance of Rat.t
      (** [run_until] target: a virtual-clock [tick] or a wall-clock
          catch-up, with the observed date made explicit *)
  | Drain

val adler32 : string -> int
(** The checksum used for record frames ({!Adler32.string}) — shared with
    {!Snapshot}'s file trailer so both artifacts are verified the same
    way. *)

val encodable_id : string -> bool
(** Whether a request id survives the text encodings (non-empty, no
    whitespace). *)

val fault : Trace.fault Codec.t
(** The [fail I] / [recover I] tokens of an [inject] payload, shared with
    {!Snapshot}'s pending-fault lines. *)

val encode : record -> string
(** One-line payload text.
    @raise Invalid_argument on a [Submit] whose id is empty or contains
    whitespace (such an id cannot round-trip the text encoding). *)

val decode : string -> record
(** @raise Invalid_argument on a malformed payload. *)

(** {1 Reading} *)

val replay : string -> (int * record) list * int * bool
(** [replay path] is [(records, valid_length, torn)]: the valid records
    with their seqs, the byte length of the valid prefix, and whether a
    torn tail (partial frame, length past end-of-file, checksum mismatch —
    a crash mid-append) was found after it.  A missing file reads as
    [([], 0, false)]. *)

(** {1 Writing} *)

type writer

val open_append : ?valid_length:int -> next_seq:int -> string -> writer
(** Open (creating if needed) for appending.  [valid_length] — from
    {!replay} — truncates a torn tail first so new records never follow
    garbage; [next_seq] is one past the highest durable seq (1 on a fresh
    log). *)

val append : writer -> record -> int
(** Frame, write, flush and [fsync] one record; returns its seq.  When
    this returns, the record is durable; the caller applies the event to
    the engine only after. *)

val truncate : writer -> unit
(** Drop every record — called after a snapshot covering the whole log
    was durably written.  Seq numbering continues; a crash that loses the
    truncation is harmless because resume skips records at or below the
    snapshot's covered seq. *)

val next_seq : writer -> int

val close : writer -> unit
