(* Machine-readable bench output.

   Every experiment that calls [write] drops a `BENCH_<name>.json` file in
   the current directory (repo root under `make bench`) when the harness
   runs with `--json`.  Files carry a schema/version envelope plus the
   solver configuration they were measured under, so downstream tooling
   can refuse data from a mismatched harness or configuration. *)

type v =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | List of v list
  | Obj of (string * v) list

let enabled = ref false

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf = function
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        emit buf item)
      fields;
    Buffer.add_char buf '}'

(* The schema version is bumped whenever the envelope or any experiment's
   [data] layout changes incompatibly.  v3 added the [jobs] /
   [recommended_domain_count] fields recording the domain-pool width the
   numbers were measured under; v4 added the [rat] block (numeric-tower
   fast-path tallies over the experiment's slice); v5 scoped the [trace] /
   [rat] deltas to the experiment proper ([mark] at experiment start, so
   work done between two [write]s no longer leaks into the next
   envelope); v6 dropped the [solver] field (one LP engine ships); v7
   added [rat_small_ops] / [rat_big_ops] to every [serve] row; v8 dropped
   the [jobs] field (the solver is sequential, so it was always 1) and
   keeps [recommended_domain_count] as host info. *)
let schema = "dlsched-bench"
let version = 8

(* Trace summary attached to every envelope: spans/events emitted and wall
   seconds spent inside the LP engines since the previous [write] (or
   program start), so each experiment's file carries its own slice of the
   process-wide counters. *)
let last_spans = ref 0
let last_events = ref 0
let last_solver_s = ref 0.
let last_rat_small = ref 0
let last_rat_big = ref 0
let last_rat_promoted = ref 0
let last_rat_demoted = ref 0

(* Numeric-tower summary, differenced the same way as the trace block:
   each envelope reports the rational-arithmetic traffic of its own
   experiment, not the process lifetime.  Read straight from
   [Numeric.Counters] (the live refs), not the registry mirror, so the
   numbers are current even when the slice ends outside a solve. *)
let rat_summary () =
  let small = Numeric.Counters.small_ops () in
  let big = Numeric.Counters.big_ops () in
  let promoted = Numeric.Counters.promotions () in
  let demoted = Numeric.Counters.demotions () in
  let d_small = small - !last_rat_small and d_big = big - !last_rat_big in
  let hit_rate =
    if d_small + d_big = 0 then 1.0
    else float_of_int d_small /. float_of_int (d_small + d_big)
  in
  let d =
    Obj
      [
        ("small_ops", Int d_small);
        ("big_ops", Int d_big);
        ("promotions", Int (promoted - !last_rat_promoted));
        ("demotions", Int (demoted - !last_rat_demoted));
        ("hit_rate", Float hit_rate);
      ]
  in
  last_rat_small := small;
  last_rat_big := big;
  last_rat_promoted := promoted;
  last_rat_demoted := demoted;
  d

let trace_summary () =
  let spans = Obs.Sink.emitted_spans () in
  let events = Obs.Sink.emitted_events () in
  let solver_s = (Lp.Instrument.combined ()).Lp.Instrument.seconds in
  let d =
    Obj
      [
        ("spans", Int (spans - !last_spans));
        ("events", Int (events - !last_events));
        ("time_in_solver_s", Float (solver_s -. !last_solver_s));
      ]
  in
  last_spans := spans;
  last_events := events;
  last_solver_s := solver_s;
  d

(* Rebase every differenced baseline to "now".  The harness calls this as
   each experiment starts; without it the [trace]/[rat] blocks of an
   envelope also absorb whatever ran between the previous experiment's
   [write] and this one (setup, warmups, experiments that don't write
   JSON), crediting foreign solver seconds and rational ops to the wrong
   experiment. *)
let mark () =
  last_spans := Obs.Sink.emitted_spans ();
  last_events := Obs.Sink.emitted_events ();
  last_solver_s := (Lp.Instrument.combined ()).Lp.Instrument.seconds;
  last_rat_small := Numeric.Counters.small_ops ();
  last_rat_big := Numeric.Counters.big_ops ();
  last_rat_promoted := Numeric.Counters.promotions ();
  last_rat_demoted := Numeric.Counters.demotions ()

let write ~experiment data =
  if !enabled then begin
    let doc =
      Obj
        [
          ("schema", Str schema);
          ("version", Int version);
          ("experiment", Str experiment);
          ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
          ("trace", trace_summary ());
          ("rat", rat_summary ());
          ("data", data);
        ]
    in
    let buf = Buffer.create 1024 in
    emit buf doc;
    Buffer.add_char buf '\n';
    let path = Printf.sprintf "BENCH_%s.json" experiment in
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "json: wrote %s\n" path
  end
