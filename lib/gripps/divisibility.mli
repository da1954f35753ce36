(** The divisibility experiments of Section 2 (Figure 1a and Figure 1b).

    Each experiment sweeps a partition size, runs ten iterations per size
    with randomly drawn subsets, and records the block execution time; a
    linear regression then quantifies the fixed overhead (the paper reports
    1.1 s for sequence partitioning and 10.5 s for motif partitioning).

    Two modes are provided: [simulated] uses the calibrated {!Cost_model}
    at the paper's scale (38 000 sequences, 300 motifs) with measurement
    noise; [measured] actually runs the {!Scanner} on a synthetic databank
    and measures wall-clock time, demonstrating the linearity claim on real
    computation rather than on a model. *)

type point = {
  size : int;  (** block size (sequences for 1a, motifs for 1b) *)
  time : float;  (** seconds *)
}

type regression = {
  slope : float;
  intercept : float;
  r2 : float;  (** coefficient of determination *)
}

val linear_regression : point list -> regression
(** Ordinary least squares.  @raise Invalid_argument on fewer than two
    distinct sizes. *)

val sequence_experiment :
  ?seed:int -> ?iterations:int -> ?steps:int -> unit -> point list
(** Figure 1a, simulated: block sizes [k/steps · 38000] for [k = 1..steps],
    [iterations] draws each (paper: steps = 20, iterations = 10). *)

val motif_experiment :
  ?seed:int -> ?iterations:int -> ?steps:int -> unit -> point list
(** Figure 1b, simulated: motif subsets of size [k/steps · 300]. *)

val measured_sequence_experiment :
  ?seed:int -> ?num_sequences:int -> ?num_motifs:int -> ?steps:int -> unit -> point list
(** Figure 1a on real computation: generates a databank and motif set,
    scans growing sequence blocks with {!Scanner.scan} and measures
    process CPU seconds (user plus system), the fastest of five scans per
    block.  Defaults are laptop-scale (800 sequences, 12 motifs). *)

val measured_motif_experiment :
  ?seed:int -> ?num_sequences:int -> ?num_motifs:int -> ?steps:int -> unit -> point list
