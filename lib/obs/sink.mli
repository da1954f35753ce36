(** Trace sinks and the ambient tracer state.

    A sink receives the completed {!Span.t}s and instant {!Event}s the
    instrumented code emits.  Exactly one sink is installed per process
    (default {!null}); the instrumentation layer checks {!enabled} — one
    ref read — before building any record, so the null-sink path is
    allocation-free and tracing-off costs nothing.

    Sink kinds:
    - {!null}: drop everything (the default);
    - {!jsonl} / {!file}: one JSON object per line, a "JSON lines" trace;
    - {!ring}: keep the serialized lines of the most recent records in a
      bounded in-memory buffer (the server's [spans] command dumps it);
    - {!callback}: hand each structured record to a function, for
      in-process consumers such as the bench harness.

    Emission is domain-safe: the write to a non-null sink happens under a
    process-wide lock, so records from concurrent server sessions never
    interleave mid-line.  A {!callback} runs under that lock and
    therefore must not itself emit spans or events. *)

(** Attribute values attached to spans and events. *)
type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  id : int;  (** unique per process, assigned at span open *)
  parent : int option;  (** enclosing span, if any *)
  name : string;
  t_start : float;  (** seconds since process start *)
  mutable t_stop : float;  (** >= [t_start] *)
  mutable attrs : (string * value) list;  (** reverse insertion order *)
}

type event = {
  in_span : int option;  (** innermost open span at emission, if any *)
  ev_name : string;
  at : float;  (** seconds since process start *)
  ev_attrs : (string * value) list;  (** reverse insertion order *)
}

type emitted = Span of span | Event of event

type t

val null : t
val jsonl : out_channel -> t

val file : string -> t
(** [jsonl] over a freshly opened (truncated) file. *)

val ring : ?capacity:int -> unit -> t
(** Bounded in-memory buffer of serialized lines; the oldest lines are
    overwritten once [capacity] (default 4096) records have been kept.
    @raise Invalid_argument on a non-positive capacity. *)

val callback : (emitted -> unit) -> t

val line_of : emitted -> string
(** The record as a single JSON line (no trailing newline).  Span
    attributes render in insertion order; when a key was set twice the
    latest value wins under {!attr}. *)

val attr : span -> string -> value option
(** Latest value set for the key, if any. *)

val ring_lines : t -> string list
(** Buffered lines of a {!ring} sink, oldest first; [[]] for any other
    sink kind. *)

(** {1 Ambient tracer state} *)

val enabled : unit -> bool
(** Whether a non-null sink is installed.  Instrumentation sites use this
    to skip attribute construction entirely when tracing is off. *)

val current : unit -> t

val elapsed : unit -> float
(** Seconds since process start — the clock span/event timestamps use. *)

val install : t -> unit
(** Make the sink the process-wide destination.  A previously installed
    {!jsonl}/{!file} sink is flushed and closed. *)

val uninstall : unit -> unit
(** Back to {!null}; flushes and closes a {!jsonl}/{!file} sink. *)

val with_sink : t -> (unit -> 'a) -> 'a
(** Scoped install: run the thunk with the sink installed, restoring the
    previous sink (and flushing a [jsonl] sink, without closing it) on
    exit.  The caller keeps ownership of the sink. *)

val emit : emitted -> unit
(** Emit a record to the installed sink.  Normally called by {!Span} and
    {!Event}, not user code. *)

val emitted_spans : unit -> int
(** Spans emitted by this process so far (sites only emit while a sink is
    installed).  The bench harness uses the deltas to attach span counts
    to its result envelopes. *)

val emitted_events : unit -> int
