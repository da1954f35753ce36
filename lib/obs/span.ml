(* Nested spans over the ambient sink.

   The span stack is dynamic scoping *per domain*: [with_span] pushes
   onto the calling domain's stack (domain-local storage), runs the body,
   pops and emits.  Span ids come from one process-wide atomic counter,
   so ids stay unique when several domains trace concurrently, and every
   span records the domain that opened it as a [domain] attribute (the
   server opens spans from its per-session domains).

   When no sink is installed [with_span] is just [f ()] and the stacks
   stay empty, which makes every [set_*] helper a no-op that allocates
   nothing — the contract the hot solver paths rely on. *)

let next_id = Atomic.make 0

let stack_key : Sink.span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let current_id () =
  match !(stack ()) with
  | [] -> None
  | s :: _ -> Some s.Sink.id

let set_attr name v =
  match !(stack ()) with
  | [] -> ()
  | s :: _ -> s.Sink.attrs <- (name, v) :: s.Sink.attrs

let set_bool name b = set_attr name (Sink.Bool b)
let set_int name i = set_attr name (Sink.Int i)
let set_float name f = set_attr name (Sink.Float f)
let set_str name v = set_attr name (Sink.Str v)

let with_span ?(attrs = []) name f =
  if not (Sink.enabled ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 + 1 in
    let sp =
      {
        Sink.id;
        parent = current_id ();
        name;
        t_start = Sink.elapsed ();
        t_stop = 0.;
        attrs =
          ("domain", Sink.Int (Domain.self () :> int)) :: List.rev attrs;
      }
    in
    let stack = stack () in
    stack := sp :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
         | s :: rest when s == sp -> stack := rest
         | _ -> stack := List.filter (fun s -> s != sp) !stack);
        (* Wall-clock can step backwards; never emit a negative-length
           span. *)
        sp.Sink.t_stop <- Float.max sp.Sink.t_start (Sink.elapsed ());
        Sink.emit (Sink.Span sp))
      f
  end
