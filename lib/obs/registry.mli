(** Metric registries: counters, gauges and quantile histograms.

    A registry owns named instruments in creation order.  Histograms keep
    every sample (instrumented call sites observe one value per solve or
    per request — thousands, not millions), so the quantiles reported are
    {e exact} order statistics, not sketch approximations.  Reports dump
    as aligned text (for humans and the server's [metrics] command) or as
    a single JSON object (for scrapers); both are stable under
    re-dumping.

    This module absorbs what used to be [Serve.Metrics] and the ad-hoc
    [Lp.Stats] accumulators; [Serve.Metrics] survives as a thin alias for
    compatibility.

    Every operation is domain-safe: mutations and reports are serialized
    by one module-wide lock, so concurrent server sessions may record into
    the same instruments and a report rendered mid-run is a consistent
    snapshot. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val global : t
(** The process-wide default registry.  The LP layer's instrument set
    ([lp.exact.*], [lp.approx.*] — see [Lp.Instrument]) lives here; other
    components may register instruments of their own under distinct
    prefixes. *)

val counter : t -> string -> counter
(** Find-or-create; the same name always returns the same instrument. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set : gauge -> float -> unit
(** Sets the current value; the all-time peak is tracked on the side. *)

val value : gauge -> float
val peak : gauge -> float

val observe : histogram -> float -> unit

(** {1 Reading histograms} *)

val samples : histogram -> int

val quantile : histogram -> float -> float
(** Exact quantile with linear interpolation between order statistics;
    [quantile h 0.5] is the median.  [nan] on an empty histogram.
    @raise Invalid_argument if the level is outside [\[0, 1\]]. *)

val mean : histogram -> float
(** [nan] on an empty histogram. *)

val hsum : histogram -> float
(** Sum of all samples; [0.] on an empty histogram.  Counter-like reads
    of a histogram (e.g. total seconds spent in the solver) difference
    this across two points in time. *)

val hmin : histogram -> float
val hmax : histogram -> float

(** {1 Snapshot / restore}

    A registry can be dumped to a plain value and loaded back exactly —
    the serving layer's durability subsystem persists engine metrics this
    way.  Histograms dump {e every} sample in insertion order — reading a
    quantile, minimum or maximum sorts a cached copy, never the samples
    themselves — so a loaded registry reproduces not just the same
    quantiles but the same report text and the same dump bit for bit. *)

type dump_item =
  | Dump_counter of int
  | Dump_gauge of { value : float; peak : float }
  | Dump_histogram of float array  (** samples, in insertion order *)

val dump : t -> (string * dump_item) list
(** Every instrument with its current contents, in creation order. *)

val load : t -> (string * dump_item) list -> unit
(** Find-or-create each named instrument and overwrite its contents.
    Instruments present in the registry but absent from the dump are left
    untouched.
    @raise Invalid_argument if a name already exists with a different
    instrument kind. *)

(** {1 Reports} *)

val to_text : t -> string
(** One instrument per line; histograms report
    [count/min/mean/p50/p95/p99/max]. *)

val to_json : t -> string
(** [{"counters":{...},"gauges":{...},"histograms":{...}}] with the same
    fields as the text report.  Always a single well-formed JSON object,
    including on an empty registry
    ([{"counters":{},"gauges":{},"histograms":{}}]). *)
