(* Fast-path instrumentation for the tagged numeric tower.

   Plain (non-atomic) increments: a counter bump sits on the hottest
   arithmetic path in the process, where even an atomic fetch-and-add
   would cost a measurable fraction of a small-word operation.  Rational
   arithmetic runs on one domain at a time (the solver is sequential and
   the server serializes every command under its engine lock), so the
   counts are exact; they are telemetry, never used for control flow.
   The instruments are published into [Obs.Registry] by [Lp.Instrument]
   (the numeric library itself stays dependency-free). *)

let small = ref 0
let big = ref 0
let promoted = ref 0
let demoted = ref 0

let note_small () = incr small
let note_big () = incr big
let note_promotion () = incr promoted
let note_demotion () = incr demoted

let small_ops () = !small
let big_ops () = !big
let promotions () = !promoted
let demotions () = !demoted

let hit_rate () =
  let s = !small and b = !big in
  if s + b = 0 then 1.0 else float_of_int s /. float_of_int (s + b)

let reset () =
  small := 0;
  big := 0;
  promoted := 0;
  demoted := 0
