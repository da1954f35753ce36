(* Tests for the observability subsystem: span nesting and attributes,
   JSON-lines output, ring-buffer eviction, the registry's JSON report,
   the server's trace/spans commands, and the contract that tracing never
   changes results. *)

module R = Numeric.Rat
module I = Sched_core.Instance
module S = Sched_core.Schedule
module W = Gripps.Workload

let ri = R.of_int

(* ------------------------------------------------------------------ *)
(* A minimal JSON validator                                            *)
(* ------------------------------------------------------------------ *)

(* Recursive-descent recognizer for full JSON (objects, arrays, strings
   with escapes, numbers, literals); rejects trailing garbage.  Enough to
   assert "this line is well-formed JSON" without a json dependency. *)
exception Bad_json

let is_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let adv () = incr pos in
  let expect c = if peek () = c then adv () else raise Bad_json in
  let rec ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> adv (); ws () | _ -> ()
  in
  let literal l = String.iter expect l in
  let string_ () =
    expect '"';
    let rec go () =
      match peek () with
      | '\000' -> raise Bad_json
      | '"' -> adv ()
      | '\\' ->
        adv ();
        (match peek () with
         | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> adv ()
         | 'u' ->
           adv ();
           for _ = 1 to 4 do
             match peek () with
             | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> adv ()
             | _ -> raise Bad_json
           done
         | _ -> raise Bad_json);
        go ()
      | _ -> adv (); go ()
    in
    go ()
  in
  let digits () =
    match peek () with
    | '0' .. '9' ->
      while (match peek () with '0' .. '9' -> true | _ -> false) do
        adv ()
      done
    | _ -> raise Bad_json
  in
  let number () =
    if peek () = '-' then adv ();
    digits ();
    if peek () = '.' then (adv (); digits ());
    match peek () with
    | 'e' | 'E' ->
      adv ();
      (match peek () with '+' | '-' -> adv () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    ws ();
    (match peek () with
     | '{' ->
       adv ();
       ws ();
       if peek () = '}' then adv ()
       else
         let rec members () =
           ws ();
           string_ ();
           ws ();
           expect ':';
           value ();
           ws ();
           match peek () with
           | ',' -> adv (); members ()
           | '}' -> adv ()
           | _ -> raise Bad_json
         in
         members ()
     | '[' ->
       adv ();
       ws ();
       if peek () = ']' then adv ()
       else
         let rec items () =
           value ();
           ws ();
           match peek () with
           | ',' -> adv (); items ()
           | ']' -> adv ()
           | _ -> raise Bad_json
         in
         items ()
     | '"' -> string_ ()
     | 't' -> literal "true"
     | 'f' -> literal "false"
     | 'n' -> literal "null"
     | _ -> number ());
    ws ()
  in
  match value () with () -> !pos = n | exception Bad_json -> false

let check_json what s =
  Alcotest.(check bool) (what ^ ": well-formed JSON (" ^ s ^ ")") true (is_json s)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_validator () =
  List.iter
    (fun s -> Alcotest.(check bool) ("accepts " ^ s) true (is_json s))
    [ "{}"; "[]"; "null"; "-1.5e-3"; "\"a\\\"b\\u0001\"";
      "{\"a\":[1,2,{\"b\":null}],\"c\":true}" ];
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) false (is_json s))
    [ ""; "{"; "{}x"; "{\"a\":}"; "[1,]"; "nul"; "1."; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Spans and events                                                    *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let records = ref [] in
  let sink = Obs.Sink.callback (fun r -> records := r :: !records) in
  let result =
    Obs.Sink.with_sink sink (fun () ->
        Obs.Span.with_span "outer" ~attrs:[ ("k", Obs.Sink.Int 1) ] (fun () ->
            Obs.Span.set_int "k" 2;
            Obs.Span.with_span "inner" (fun () ->
                Obs.Span.set_str "who" "in";
                Obs.Event.emit "ping" ~attrs:[ ("n", Obs.Sink.Int 7) ];
                17)))
  in
  Alcotest.(check int) "with_span returns the thunk's value" 17 result;
  (* Stacks are per domain: a span opened on another domain (as a server
     session does) is a root there, keeps a process-unique id, and records
     the domain that opened it. *)
  let side = ref [] in
  Obs.Sink.with_sink
    (Obs.Sink.callback (function
      | Obs.Sink.Span s -> side := s :: !side
      | Obs.Sink.Event _ -> ()))
    (fun () ->
      Obs.Span.with_span "main" (fun () ->
          Domain.join (Domain.spawn (fun () -> Obs.Span.with_span "session" ignore))));
  (match List.rev !side with
   | [ session; main ] ->
     Alcotest.(check bool) "other domain's span is a root" true
       (session.Obs.Sink.parent = None);
     Alcotest.(check bool) "span ids unique across domains" true
       (session.Obs.Sink.id <> main.Obs.Sink.id);
     Alcotest.(check bool) "spans record distinct opening domains" true
       (match (Obs.Sink.attr session "domain", Obs.Sink.attr main "domain") with
        | Some (Obs.Sink.Int a), Some (Obs.Sink.Int b) -> a <> b
        | _ -> false)
   | rs -> Alcotest.failf "expected 2 spans, got %d records" (List.length rs));
  (* Emission order is close order: the event fires inside [inner], then
     [inner] closes, then [outer]. *)
  match List.rev !records with
  | [ Obs.Sink.Event ev; Obs.Sink.Span inner; Obs.Sink.Span outer ] ->
    Alcotest.(check string) "outer name" "outer" outer.Obs.Sink.name;
    Alcotest.(check bool) "outer is a root" true (outer.Obs.Sink.parent = None);
    Alcotest.(check bool) "inner nests under outer" true
      (inner.Obs.Sink.parent = Some outer.Obs.Sink.id);
    Alcotest.(check bool) "event attaches to inner" true
      (ev.Obs.Sink.in_span = Some inner.Obs.Sink.id);
    Alcotest.(check bool) "latest attr value wins" true
      (Obs.Sink.attr outer "k" = Some (Obs.Sink.Int 2));
    Alcotest.(check bool) "inner attr" true
      (Obs.Sink.attr inner "who" = Some (Obs.Sink.Str "in"));
    Alcotest.(check bool) "spans are ordered intervals" true
      (outer.Obs.Sink.t_stop >= outer.Obs.Sink.t_start
      && inner.Obs.Sink.t_stop >= inner.Obs.Sink.t_start
      && inner.Obs.Sink.t_start >= outer.Obs.Sink.t_start
      && outer.Obs.Sink.t_stop >= inner.Obs.Sink.t_stop)
  | rs -> Alcotest.failf "expected event+2 spans, got %d records" (List.length rs)

let test_span_disabled () =
  (* No sink installed: nothing is recorded, the set_* helpers are no-ops,
     the thunk still runs and raises pass through. *)
  Alcotest.(check bool) "tracing off by default" false (Obs.Sink.enabled ());
  let before = Obs.Sink.emitted_spans () in
  let r = Obs.Span.with_span "ghost" (fun () -> Obs.Span.set_int "x" 1; 3) in
  Obs.Event.emit "ghost-event";
  Alcotest.(check int) "value through" 3 r;
  Alcotest.(check int) "nothing emitted" before (Obs.Sink.emitted_spans ());
  Alcotest.check_raises "raises propagate" Exit (fun () ->
      Obs.Span.with_span "ghost" (fun () -> raise Exit))

let test_jsonl_roundtrip () =
  (* Nasty attribute payloads must still serialize to one well-formed
     JSON line per record, via both [line_of] and a real file sink. *)
  let nasty = "q\"uote b\\ack\nnl \x01ctrl" in
  let emit_all () =
    Obs.Span.with_span "outer"
      ~attrs:[ ("s", Obs.Sink.Str nasty); ("b", Obs.Sink.Bool true) ]
      (fun () ->
        Obs.Span.set_float "nan" Float.nan;
        Obs.Span.set_float "f" 1.5;
        Obs.Span.set_float "i" 3.0;
        Obs.Event.emit "evt" ~attrs:[ ("s", Obs.Sink.Str nasty) ];
        Obs.Span.with_span "inner" (fun () -> ()))
  in
  let lines = ref [] in
  let sink = Obs.Sink.callback (fun r -> lines := Obs.Sink.line_of r :: !lines) in
  Obs.Sink.with_sink sink emit_all;
  let lines = List.rev !lines in
  Alcotest.(check int) "three records" 3 (List.length lines);
  List.iter (check_json "line_of") lines;
  let all = String.concat "\n" lines in
  Alcotest.(check bool) "escaped string present" true
    (contains all "q\\\"uote b\\\\ack\\nnl \\u0001ctrl");
  Alcotest.(check bool) "nan renders as null" true (contains all "\"nan\":null");
  Alcotest.(check bool) "span typed" true (contains all "\"type\":\"span\"");
  Alcotest.(check bool) "event typed" true (contains all "\"type\":\"event\"");
  (* Same records through the file sink: one JSON object per line. *)
  let path = Filename.temp_file "obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Sink.install (Obs.Sink.file path);
      emit_all ();
      Obs.Sink.uninstall ();
      let ic = open_in path in
      let rec read acc =
        match input_line ic with
        | l -> read (l :: acc)
        | exception End_of_file -> close_in ic; List.rev acc
      in
      let file_lines = read [] in
      Alcotest.(check int) "three file lines" 3 (List.length file_lines);
      List.iter (check_json "file line") file_lines)

let test_ring_eviction () =
  let ring = Obs.Sink.ring ~capacity:2 () in
  Obs.Sink.with_sink ring (fun () ->
      List.iter (fun n -> Obs.Span.with_span n (fun () -> ())) [ "a"; "b"; "c" ]);
  let lines = Obs.Sink.ring_lines ring in
  Alcotest.(check int) "capacity bounds the buffer" 2 (List.length lines);
  Alcotest.(check bool) "oldest evicted" true
    (List.for_all (fun l -> not (contains l "\"name\":\"a\"")) lines);
  Alcotest.(check bool) "newest kept, oldest first" true
    (match lines with
     | [ b; c ] -> contains b "\"name\":\"b\"" && contains c "\"name\":\"c\""
     | _ -> false);
  List.iter (check_json "ring line") lines;
  Alcotest.(check bool) "ring_lines on a non-ring sink" true
    (Obs.Sink.ring_lines Obs.Sink.null = []);
  Alcotest.check_raises "non-positive capacity"
    (Invalid_argument "Obs.Sink.ring: capacity must be positive") (fun () ->
      ignore (Obs.Sink.ring ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_json () =
  let reg = Obs.Registry.create () in
  Alcotest.(check string) "empty registry dumps an empty object"
    "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
    (Obs.Registry.to_json reg);
  check_json "empty registry" (Obs.Registry.to_json reg);
  Obs.Registry.incr (Obs.Registry.counter reg "hits");
  Obs.Registry.set (Obs.Registry.gauge reg "depth") 2.5;
  Obs.Registry.observe (Obs.Registry.histogram reg "lat") Float.nan;
  Obs.Registry.observe (Obs.Registry.histogram reg "lat") 1.0;
  let json = Obs.Registry.to_json reg in
  check_json "populated registry" json;
  Alcotest.(check bool) "counter dumped" true (contains json "\"hits\":1")

(* ------------------------------------------------------------------ *)
(* Server trace/spans commands                                         *)
(* ------------------------------------------------------------------ *)

let mini_platform () =
  {
    W.speeds = [| R.one; R.one |];
    bank_sizes = [| 380 |];
    has_bank = [| [| true |]; [| true |] |];
  }

let test_server_trace () =
  let clock = Serve.Clock.virtual_ () in
  let eng =
    Serve.Engine.create ~clock ~policy:(module Online.Policies.Fair)
      (mini_platform ())
  in
  let srv = Serve.Server.create eng in
  let run cmd =
    let replies, v = Serve.Server.handle_line srv cmd in
    Alcotest.(check bool) (cmd ^ " continues") true (v = `Continue);
    replies
  in
  let expect_ok cmd =
    match List.rev (run cmd) with
    | last :: _ when String.length last >= 2 && String.sub last 0 2 = "ok" -> ()
    | _ -> Alcotest.fail (cmd ^ ": expected ok")
  in
  (* Both JSON commands emit exactly one well-formed line even on a fresh,
     silent server. *)
  (match run "spans" with
   | [ json; "ok" ] ->
     Alcotest.(check string) "no ring -> empty array" "[]" json
   | _ -> Alcotest.fail "spans shape");
  (match run "metrics json" with
   | [ json; "ok" ] -> check_json "metrics json" json
   | _ -> Alcotest.fail "metrics json shape");
  expect_ok "trace on";
  Alcotest.(check bool) "sink installed" true (Obs.Sink.enabled ());
  expect_ok "submit r1 0 20";
  expect_ok "drain";
  (match run "spans" with
   | [ json; "ok" ] ->
     check_json "spans after drain" json;
     Alcotest.(check bool) "decision span captured" true
       (contains json "engine.decide")
   | _ -> Alcotest.fail "spans shape after drain");
  expect_ok "trace off";
  Alcotest.(check bool) "sink removed" false (Obs.Sink.enabled ());
  (match run "spans" with
   | [ "[]"; "ok" ] -> ()
   | _ -> Alcotest.fail "spans after trace off");
  (match run "trace sideways" with
   | [ err ] -> Alcotest.(check bool) "usage error" true (contains err "err usage")
   | _ -> Alcotest.fail "trace usage shape")

(* ------------------------------------------------------------------ *)
(* Tracing must never change results                                   *)
(* ------------------------------------------------------------------ *)

let random_instance rng ~jobs ~machines =
  let releases = Array.init jobs (fun _ -> ri (Gripps.Prng.int rng 20)) in
  let weights = Array.init jobs (fun _ -> ri (1 + Gripps.Prng.int rng 4)) in
  let cost =
    Array.init machines (fun _ ->
        Array.init jobs (fun _ ->
            if Gripps.Prng.int rng 4 = 0 then None
            else Some (ri (1 + Gripps.Prng.int rng 9))))
  in
  for j = 0 to jobs - 1 do
    if Array.for_all (fun row -> row.(j) = None) cost then
      cost.(0).(j) <- Some (ri (1 + Gripps.Prng.int rng 9))
  done;
  I.make ~releases ~weights cost

let slices_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : S.slice) (y : S.slice) ->
         x.machine = y.machine && x.job = y.job && R.equal x.start y.start
         && R.equal x.stop y.stop)
       a b

let prop_tracing_transparent =
  QCheck.Test.make ~name:"solve and replay are bit-identical under tracing"
    ~count:15
    QCheck.(make Gen.(int_range 0 9999) ~print:string_of_int)
    (fun seed ->
      let rng = Gripps.Prng.create seed in
      let jobs = 2 + Gripps.Prng.int rng 4 in
      let machines = 2 + Gripps.Prng.int rng 2 in
      let inst = random_instance rng ~jobs ~machines in
      let plain = Sched_core.Max_flow.solve inst in
      let traced =
        Obs.Sink.with_sink (Obs.Sink.ring ()) (fun () ->
            Sched_core.Max_flow.solve inst)
      in
      let trace = Serve.Trace.poisson ~seed ~machines:2 ~banks:1 ~rate:0.1 ~count:3 () in
      let policy = (module Online.Policies.Srpt : Online.Sim.POLICY) in
      let eng_plain = Serve.Engine.replay ~policy trace in
      let eng_traced =
        Obs.Sink.with_sink
          (Obs.Sink.callback (fun _ -> ()))
          (fun () -> Serve.Engine.replay ~policy trace)
      in
      R.equal plain.Sched_core.Max_flow.objective
        traced.Sched_core.Max_flow.objective
      && List.for_all2 R.equal plain.Sched_core.Max_flow.milestones
           traced.Sched_core.Max_flow.milestones
      && slices_equal
           (S.slices plain.Sched_core.Max_flow.schedule)
           (S.slices traced.Sched_core.Max_flow.schedule)
      && slices_equal
           (S.slices (Serve.Engine.schedule eng_plain))
           (S.slices (Serve.Engine.schedule eng_traced)))

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ("json", [ Alcotest.test_case "validator" `Quick test_validator ]);
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled" `Quick test_span_disabled;
        ] );
      ( "sink",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
        ] );
      ( "registry",
        [
          Alcotest.test_case "json reports" `Quick test_registry_json;
        ] );
      ("server", [ Alcotest.test_case "trace commands" `Quick test_server_trace ]);
      ("transparency", [ qt prop_tracing_transparent ]);
    ]
