(* Domain-safety: one module-wide mutex serializes every mutation and
   every read that observes multi-field state (find-or-create, histogram
   append/sort, report rendering).  Contention is irrelevant here —
   instruments record one value per solve or per request — so a single
   lock beats per-instrument locks in both simplicity and deadlock
   surface.  Internal [_unlocked] helpers let the report functions hold
   the lock once instead of re-entering it per statistic. *)

let lock = Mutex.create ()

type counter = { mutable count : int }

type gauge = { mutable value : float; mutable peak : float }

(* [buf] holds the samples in insertion order — the order [dump]
   serializes, so reading a quantile must never permute it.  Order
   statistics come from [sorted], a sorted copy of the live prefix built
   on the first read after a change. *)
type histogram = {
  mutable buf : float array;
  mutable len : int;
  mutable sorted : float array option;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mutable items : (string * instrument) list (* reverse creation order *) }

let create () = { items = [] }

let global = create ()

let find_or_create t name make =
  Mutex.protect lock (fun () ->
      match List.assoc_opt name t.items with
      | Some i -> i
      | None ->
        let i = make () in
        t.items <- (name, i) :: t.items;
        i)

let counter t name =
  match find_or_create t name (fun () -> Counter { count = 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Registry.counter: %S is not a counter" name)

let gauge t name =
  match find_or_create t name (fun () -> Gauge { value = 0.; peak = 0. }) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Registry.gauge: %S is not a gauge" name)

let histogram t name =
  match
    find_or_create t name (fun () -> Histogram { buf = Array.make 64 0.; len = 0; sorted = None })
  with
  | Histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "Registry.histogram: %S is not a histogram" name)

let incr c = Mutex.protect lock (fun () -> c.count <- c.count + 1)
let add c n = Mutex.protect lock (fun () -> c.count <- c.count + n)
let count c = Mutex.protect lock (fun () -> c.count)

let set g v =
  Mutex.protect lock (fun () ->
      g.value <- v;
      if v > g.peak then g.peak <- v)

let value g = Mutex.protect lock (fun () -> g.value)
let peak g = Mutex.protect lock (fun () -> g.peak)

let observe h v =
  Mutex.protect lock (fun () ->
      if h.len = Array.length h.buf then begin
        let bigger = Array.make (2 * h.len) 0. in
        Array.blit h.buf 0 bigger 0 h.len;
        h.buf <- bigger
      end;
      h.buf.(h.len) <- v;
      h.len <- h.len + 1;
      h.sorted <- None)

let samples h = Mutex.protect lock (fun () -> h.len)

let sorted_unlocked h =
  match h.sorted with
  | Some s -> s
  | None ->
    let s = Array.sub h.buf 0 h.len in
    Array.sort compare s;
    h.sorted <- Some s;
    s

let quantile_unlocked h q =
  if q < 0. || q > 1. then invalid_arg "Registry.quantile: level outside [0, 1]";
  if h.len = 0 then nan
  else begin
    let s = sorted_unlocked h in
    (* Linear interpolation between closest order statistics (type 7). *)
    let pos = q *. float_of_int (h.len - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (h.len - 1) in
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. s.(lo)) +. (frac *. s.(hi))
  end

let quantile h q = Mutex.protect lock (fun () -> quantile_unlocked h q)

let mean_unlocked h =
  if h.len = 0 then nan
  else begin
    let sum = ref 0. in
    for i = 0 to h.len - 1 do
      sum := !sum +. h.buf.(i)
    done;
    !sum /. float_of_int h.len
  end

let mean h = Mutex.protect lock (fun () -> mean_unlocked h)

let hsum h =
  Mutex.protect lock (fun () ->
      let sum = ref 0. in
      for i = 0 to h.len - 1 do
        sum := !sum +. h.buf.(i)
      done;
      !sum)

let hmin_unlocked h = if h.len = 0 then nan else (sorted_unlocked h).(0)
let hmax_unlocked h = if h.len = 0 then nan else (sorted_unlocked h).(h.len - 1)
let hmin h = Mutex.protect lock (fun () -> hmin_unlocked h)
let hmax h = Mutex.protect lock (fun () -> hmax_unlocked h)

let ordered_unlocked t = List.rev t.items

(* --- snapshot / restore ----------------------------------------------- *)

type dump_item =
  | Dump_counter of int
  | Dump_gauge of { value : float; peak : float }
  | Dump_histogram of float array

let dump t =
  Mutex.protect lock (fun () ->
      List.rev_map
        (fun (name, i) ->
          ( name,
            match i with
            | Counter c -> Dump_counter c.count
            | Gauge g -> Dump_gauge { value = g.value; peak = g.peak }
            | Histogram h -> Dump_histogram (Array.sub h.buf 0 h.len) ))
        t.items)

let load t items =
  List.iter
    (fun (name, item) ->
      match item with
      | Dump_counter n -> (
        match find_or_create t name (fun () -> Counter { count = 0 }) with
        | Counter c -> Mutex.protect lock (fun () -> c.count <- n)
        | _ -> invalid_arg (Printf.sprintf "Registry.load: %S is not a counter" name))
      | Dump_gauge { value; peak } -> (
        match find_or_create t name (fun () -> Gauge { value = 0.; peak = 0. }) with
        | Gauge g ->
          Mutex.protect lock (fun () ->
              g.value <- value;
              g.peak <- peak)
        | _ -> invalid_arg (Printf.sprintf "Registry.load: %S is not a gauge" name))
      | Dump_histogram samples -> (
        match
          find_or_create t name (fun () ->
              Histogram { buf = Array.make 64 0.; len = 0; sorted = None })
        with
        | Histogram h ->
          Mutex.protect lock (fun () ->
              let n = Array.length samples in
              (* Keep a non-empty backing array: [observe] doubles the
                 capacity when full, and doubling 0 would stay 0. *)
              h.buf <- (if n = 0 then Array.make 64 0. else Array.copy samples);
              h.len <- n;
              h.sorted <- None)
        | _ -> invalid_arg (Printf.sprintf "Registry.load: %S is not a histogram" name)))
    items

let to_text t =
  Mutex.protect lock (fun () ->
      let buf = Buffer.create 512 in
      List.iter
        (fun (name, i) ->
          match i with
          | Counter c -> Buffer.add_string buf (Printf.sprintf "%-32s %d\n" name c.count)
          | Gauge g ->
            Buffer.add_string buf (Printf.sprintf "%-32s %g (peak %g)\n" name g.value g.peak)
          | Histogram h ->
            if h.len = 0 then Buffer.add_string buf (Printf.sprintf "%-32s empty\n" name)
            else
              Buffer.add_string buf
                (Printf.sprintf
                   "%-32s count=%d min=%.3f mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n"
                   name h.len (hmin_unlocked h) (mean_unlocked h) (quantile_unlocked h 0.5)
                   (quantile_unlocked h 0.95) (quantile_unlocked h 0.99) (hmax_unlocked h)))
        (ordered_unlocked t);
      Buffer.contents buf)

let to_json t =
  Mutex.protect lock (fun () ->
      let buf = Buffer.create 512 in
      let section kind filter =
        let first = ref true in
        Buffer.add_string buf (Printf.sprintf "\"%s\":{" kind);
        List.iter
          (fun (name, i) ->
            match filter i with
            | None -> ()
            | Some body ->
              if not !first then Buffer.add_char buf ',';
              first := false;
              Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (Encode.escape name) body))
          (ordered_unlocked t);
        Buffer.add_char buf '}'
      in
      Buffer.add_char buf '{';
      section "counters" (function Counter c -> Some (string_of_int c.count) | _ -> None);
      Buffer.add_char buf ',';
      section "gauges" (function
        | Gauge g ->
          Some
            (Printf.sprintf "{\"value\":%s,\"peak\":%s}" (Encode.float_repr g.value)
               (Encode.float_repr g.peak))
        | _ -> None);
      Buffer.add_char buf ',';
      section "histograms" (function
        | Histogram h ->
          Some
            (if h.len = 0 then "{\"count\":0}"
             else
               Printf.sprintf
                 "{\"count\":%d,\"min\":%s,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}"
                 h.len
                 (Encode.float_repr (hmin_unlocked h))
                 (Encode.float_repr (mean_unlocked h))
                 (Encode.float_repr (quantile_unlocked h 0.5))
                 (Encode.float_repr (quantile_unlocked h 0.95))
                 (Encode.float_repr (quantile_unlocked h 0.99))
                 (Encode.float_repr (hmax_unlocked h)))
        | _ -> None);
      Buffer.add_char buf '}';
      Buffer.contents buf)
