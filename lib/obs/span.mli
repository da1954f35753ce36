(** Nested tracing spans.

    A span is a named interval of execution with key/value attributes;
    spans nest by dynamic scope (a span opened inside another records it
    as its parent), so one [Max_flow.solve] call renders as a tree:
    milestone search, feasibility probes, LP solves.

    {b Overhead contract.}  With the null sink installed (the default),
    [with_span name f] is [f ()] after one ref read, and every [set_*]
    helper returns without allocating.  Instrumentation left in hot paths
    therefore costs nothing when tracing is off; sites that must compute
    an attribute value (e.g. a rational rendered to a string) should
    additionally guard on {!Sink.enabled}. *)

val with_span : ?attrs:(string * Sink.value) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a fresh span and emit the span to the installed
    sink when the thunk returns or raises.  [attrs] are initial
    attributes; more can be added from inside via the [set_*] helpers.
    Every span additionally records the opening domain as a [domain]
    attribute.  With no sink installed this is exactly [f ()]. *)

val current_id : unit -> int option
(** Id of the innermost open span on the calling domain's stack, [None]
    when it is empty (used by {!Event} and as the parent of new spans).
    Span stacks are domain-local and span ids come from one process-wide
    atomic counter, so server sessions on different domains can trace
    concurrently. *)

val set_attr : string -> Sink.value -> unit
(** Attach an attribute to the innermost open span; no-op when no span is
    open (in particular whenever tracing is off).  The latest value set
    for a key wins. *)

val set_bool : string -> bool -> unit
val set_int : string -> int -> unit
val set_float : string -> float -> unit
val set_str : string -> string -> unit
