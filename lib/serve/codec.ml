(* Text codecs for the durable formats.  A codec declares one piece of
   syntax and carries both its writer and its reader, so a format
   declared once (the snapshot layout in Snapshot, the WAL frame and
   record payloads in Wal) is written and read from that one declaration.

   The syntax lives here: tokens are separated by one space (a reader
   accepts runs of them), a line ends with '\n', an absent value is the
   token [none], and a section is a [key N] count line followed by N item
   lines, N bounded by the lines left.

   A writer can also keep the text of an append-only run of items (a
   [reuse] rule on [counted] or [section]) in a [memo] that outlives one
   write: the next write of a list that extends the same run encodes only
   the items added since and hands the memoized text on as it is. *)

module Rat = Numeric.Rat

exception Malformed of string

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* A reader's source: the text's lines, how many were consumed, and the
   unread tokens of the current one. *)
type src = { lines : string array; mutable line : int; mutable toks : string list }

(* --- memoized text ---------------------------------------------------- *)

(* A run's memo slot: the text of its first [count] items, the last of
   which was [last], kept in fixed-size chunks with its length and
   running Adler-32.  Appending copies only the new bytes, and the memo
   never holds a doubled buffer or a second copy of itself. *)
let chunk_size = 4096

type 'a slot = {
  mutable chunks : Bytes.t array;
  mutable len : int;
  mutable sum : int;
  mutable count : int;
  mutable last : 'a option;
}

let slot_append s buf =
  let n = Buffer.length buf in
  let off = ref 0 in
  while !off < n do
    let c = s.len / chunk_size and pos = s.len mod chunk_size in
    if c = Array.length s.chunks then
      s.chunks <-
        Array.init (Stdlib.max 4 (2 * c)) (fun i ->
            if i < c then s.chunks.(i) else Bytes.empty);
    if Bytes.length s.chunks.(c) = 0 then s.chunks.(c) <- Bytes.create chunk_size;
    let m = Stdlib.min (n - !off) (chunk_size - pos) in
    Buffer.blit buf !off s.chunks.(c) pos m;
    s.sum <- Adler32.update s.sum s.chunks.(c) pos m;
    s.len <- s.len + m;
    off := !off + m
  done

let slot_last s =
  let i = s.len - 1 in
  Bytes.get s.chunks.(i / chunk_size) (i mod chunk_size)

type packed = Slot : 'a Type.Id.t * 'a slot -> packed

type memo = (string * string, packed) Hashtbl.t

let memo () : memo = Hashtbl.create 8

(* When a memoized run may be reused: [same last x] tells whether [x], at
   the position of the run's last memoized item, is still that item, and
   only items that are [final] (never change again) join the run. *)
type 'a reuse = {
  name : string;
  id : 'a Type.Id.t;
  same : 'a -> 'a -> bool;
  final : 'a -> bool;
}

let reuse ?(same = fun _ _ -> true) ?(final = fun _ -> true) name =
  { name; id = Type.Id.make (); same; final }

(* --- output ----------------------------------------------------------- *)

(* A writer's output: encoded text waits in [pending] until a memoized
   run or the end of the write hands it on to [emit], as one piece whose
   Adler-32 is folded into [sum].  [last] is the byte before [pending]. *)
type out = {
  pending : Buffer.t;
  emit : Bytes.t -> int -> int -> unit;
  mutable last : char;
  mutable scratch : Bytes.t;
  mutable sum : int;
  mutable bytes : int;
  mutable reused : int;
  memo : memo option;
  mutable scope : string;
}

let out ?memo ~size emit =
  { pending = Buffer.create size; emit; last = '\n'; scratch = Bytes.empty; sum = Adler32.empty;
    bytes = 0; reused = 0; memo; scope = "" }

let flush o =
  let n = Buffer.length o.pending in
  if n > 0 then begin
    if Bytes.length o.scratch < n then o.scratch <- Bytes.create (Stdlib.max n 4096);
    Buffer.blit o.pending 0 o.scratch 0 n;
    Buffer.clear o.pending;
    o.sum <- Adler32.combine o.sum (Adler32.update Adler32.empty o.scratch 0 n) n;
    o.bytes <- o.bytes + n;
    o.last <- Bytes.get o.scratch (n - 1);
    o.emit o.scratch 0 n
  end

let emit_slot o s =
  if s.len > 0 then begin
    for c = 0 to (s.len - 1) / chunk_size do
      o.emit s.chunks.(c) 0 (Stdlib.min chunk_size (s.len - (c * chunk_size)))
    done;
    o.sum <- Adler32.combine o.sum s.sum s.len;
    o.bytes <- o.bytes + s.len;
    o.last <- slot_last s
  end

type 'a t = { write : out -> 'a -> unit; read : src -> 'a }

let encodable s =
  s <> "" && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s)

(* --- tokens ----------------------------------------------------------- *)

(* A token is separated from the one before it unless it starts a line. *)
let sep o =
  let n = Buffer.length o.pending in
  if (if n > 0 then Buffer.nth o.pending (n - 1) else o.last) <> '\n' then
    Buffer.add_char o.pending ' '

let next s =
  match s.toks with
  | t :: tl ->
    s.toks <- tl;
    t
  | [] -> bad "line ends early"

let token add parse =
  { write = (fun o x -> sep o; add o.pending x); read = (fun s -> parse (next s)) }

let int =
  token Rat.buffer_add_int (fun t ->
      match int_of_string_opt t with Some n -> n | None -> bad "bad integer %S" t)

let nat =
  { int with read = (fun s -> match int.read s with n when n < 0 -> bad "negative %d" n | n -> n) }

let rat =
  token Rat.buffer_add (fun t ->
      match Rat.of_string t with r -> r | exception _ -> bad "bad rational %S" t)

(* Lossless: float_of_string reads "%h" back exactly, nan and infinity
   included. *)
let float =
  token
    (fun b f -> Buffer.add_string b (Printf.sprintf "%h" f))
    (fun t -> match float_of_string_opt t with Some f -> f | None -> bad "bad float %S" t)

let flag =
  token
    (fun b v -> Buffer.add_char b (if v then '1' else '0'))
    (function "0" -> false | "1" -> true | t -> bad "bad flag %S" t)

let id what =
  token
    (fun b s ->
      if not (encodable s) then bad "%s %S is empty or contains whitespace" what s;
      Buffer.add_string b s)
    Fun.id

let lit word =
  token (fun b () -> Buffer.add_string b word) (fun t ->
      if t <> word then bad "expected %S, found %S" word t)

let enum what cases =
  token
    (fun b x -> Buffer.add_string b (fst (List.find (fun (_, v) -> v = x) cases)))
    (fun t -> match List.assoc_opt t cases with Some v -> v | None -> bad "bad %s %S" what t)

let option c =
  let none = lit "none" in
  {
    write = (fun o -> function None -> none.write o () | Some x -> c.write o x);
    read =
      (fun s -> match s.toks with "none" :: _ -> none.read s; None | _ -> Some (c.read s));
  }

(* --- products and variants -------------------------------------------- *)

type _ fields = [] : unit fields | ( :: ) : 'a t * 'b fields -> ('a * 'b) fields
type _ values = [] : unit values | ( :: ) : 'a * 'b values -> ('a * 'b) values

let rec write_fields : type v. v fields -> out -> v values -> unit =
 fun fs o vs ->
  match (fs, vs) with [], [] -> () | f :: fs, v :: vs -> f.write o v; write_fields fs o vs

let rec read_fields : type v. v fields -> src -> v values =
 fun fs s -> match fs with [] -> [] | f :: fs -> let v = f.read s in v :: read_fields fs s

(* [tuple fs] is the fields' tokens in order; its values are written and
   matched with list syntax, [ a; b ].  [conv proj inj c] writes [proj x]
   with [c] and reads [inj] of what [c] reads; [record] is both at once. *)
let tuple fs = { write = write_fields fs; read = read_fields fs }

let conv proj inj c =
  { write = (fun o x -> c.write o (proj x)); read = (fun s -> inj (c.read s)) }

let record fs proj inj = conv proj inj (tuple fs)
let pair a b = record [ a; b ] (fun (x, y) -> [ x; y ]) (fun [ x; y ] -> (x, y))

type ('b, 'a) case = { tag : string; body : 'b t; inj : 'b -> 'a }
type 'a case_any = Case : ('b, 'a) case -> 'a case_any
type 'a tagged = Tagged : ('b, 'a) case * 'b -> 'a tagged

(* A variant is a tag word choosing one of its cases, then that case's
   body; [proj] tells the writer which case a value is. *)
let case tag body inj = { tag; body; inj }

let variant cases proj =
  {
    write =
      (fun o x ->
        let (Tagged (c, v)) = proj x in
        sep o;
        Buffer.add_string o.pending c.tag;
        c.body.write o v);
    read =
      (fun s ->
        let t = next s in
        match List.find_opt (fun (Case c) -> c.tag = t) cases with
        | Some (Case c) -> c.inj (c.body.read s)
        | None -> bad "unknown %S" t);
  }

(* --- memoized runs ------------------------------------------------------ *)

let slot (type a) (memo : memo) scope (rule : a reuse) : a slot =
  match Hashtbl.find_opt memo (scope, rule.name) with
  | Some (Slot (id, s)) -> (
    match Type.Id.provably_equal id rule.id with
    | Some Equal -> s
    | None -> invalid_arg ("Codec: two reuse rules named " ^ rule.name))
  | None ->
    let s = { chunks = [||]; len = 0; sum = Adler32.empty; count = 0; last = None } in
    Hashtbl.replace memo (scope, rule.name) (Slot (rule.id, s));
    s

(* Write [xs] with [item].  Under a memo, the slot's run stands if [xs]
   still holds as many items, the last of them [same] as the memoized
   one; otherwise it is encoded afresh.  The [final] items after it join
   the run and the run goes out as one piece; from the first item that
   is not final on, items are encoded on every write.  The run's text
   sits between the flushed text and [pending], so its last byte is the
   one the first new item's separator looks at. *)
let items (type a) ?(reuse : a reuse option) (item : a t) o (xs : a list) =
  match (reuse, o.memo) with
  | None, _ | _, None -> List.iter (item.write o) xs
  | Some rule, Some memo ->
    let s = slot memo o.scope rule in
    let rec past k : a list -> a list option = function
      | xs when k = 0 -> Some xs
      | x :: tl when k = 1 -> (
        match s.last with Some l when rule.same l x -> Some tl | _ -> None)
      | _ :: tl -> past (k - 1) tl
      | [] -> None
    in
    let xs =
      match past s.count xs with
      | Some tl -> tl
      | None ->
        s.len <- 0;
        s.sum <- Adler32.empty;
        s.count <- 0;
        s.last <- None;
        xs
    in
    flush o;
    let kept = s.len in
    if kept > 0 then o.last <- slot_last s;
    let rec extend n last : a list -> int * a option * a list = function
      | x :: tl when rule.final x ->
        item.write o x;
        extend (n + 1) (Some x) tl
      | rest -> (n, last, rest)
    in
    let n, last, rest = extend 0 s.last xs in
    slot_append s o.pending;
    Buffer.clear o.pending;
    s.count <- s.count + n;
    s.last <- last;
    o.reused <- o.reused + kept;
    emit_slot o s;
    List.iter (item.write o) rest

(* Memo slots used while writing [x] belong to [key x]: one rule then
   keeps a run per key, e.g. per metric name. *)
let scoped key c =
  {
    c with
    write =
      (fun o x ->
        let outer = o.scope in
        o.scope <- key x;
        c.write o x;
        o.scope <- outer);
  }

(* A count followed by that many items, bounded by the tokens left. *)
let counted ?reuse item =
  {
    write = (fun o xs -> int.write o (List.length xs); items ?reuse item o xs);
    read =
      (fun s ->
        let n = nat.read s in
        if n > List.length s.toks then bad "count %d exceeds the tokens left" n;
        List.init n (fun _ -> item.read s));
  }

(* --- lines and sections ----------------------------------------------- *)

let next_line s =
  if s.line >= Array.length s.lines then bad "unexpected end of text";
  s.line <- s.line + 1;
  s.lines.(s.line - 1)

let line c =
  {
    write = (fun o x -> c.write o x; Buffer.add_char o.pending '\n');
    read =
      (fun s ->
        s.toks <- String.split_on_char ' ' (next_line s) |> List.filter (( <> ) "");
        let x = c.read s in
        match s.toks with t :: _ -> bad "unexpected %S at the end of the line" t | [] -> x);
  }

let keyed key c = line (conv (fun x -> ((), x)) snd (pair (lit key) c))

(* A count line, then that many item lines, bounded by the lines left
   before anything is read or allocated for them. *)
let section ?reuse key item =
  let count = keyed key nat in
  {
    write = (fun o xs -> count.write o (List.length xs); items ?reuse item o xs);
    read =
      (fun s ->
        let n = count.read s in
        if n > Array.length s.lines - s.line then bad "%s count %d exceeds the lines left" key n;
        List.init n (fun _ -> item.read s));
  }

(* Raw lines, each ending in '\n', up to the marker line [last]. *)
let lines_until last =
  {
    write =
      (fun o text ->
        Buffer.add_string o.pending text;
        Buffer.add_string o.pending last;
        Buffer.add_char o.pending '\n');
    read =
      (fun s ->
        let rec go (acc : string list) =
          match next_line s with l when l = last -> acc | l -> go ((l ^ "\n") :: acc)
        in
        String.concat "" (List.rev (go [])));
  }

(* --- entry points ----------------------------------------------------- *)

(* What a write handed on: its length and Adler-32, and how many of its
   bytes were encoded by this write rather than reused from the memo. *)
type written = { bytes : int; sum : int; encoded : int }

(* Write [x] through [emit] in pieces, reusing and extending [memo]. *)
let stream ?memo emit c x =
  let o = out ?memo ~size:4096 emit in
  c.write o x;
  flush o;
  { bytes = o.bytes; sum = o.sum; encoded = o.bytes - o.reused }

let to_string c x =
  let o = out ~size:64 (fun _ _ _ -> ()) in
  c.write o x;
  Buffer.contents o.pending

let of_string c text =
  let lines = String.split_on_char '\n' text in
  (* A text ending in '\n' splits with an empty last line. *)
  let lines = match List.rev lines with "" :: rev -> List.rev rev | _ -> lines in
  let s = { lines = Array.of_list lines; line = 0; toks = [] } in
  match c.read s with
  | _ when s.line < Array.length s.lines ->
    Error (Printf.sprintf "line %d: trailing text" (s.line + 1))
  | x -> Ok x
  | exception Malformed m -> Error (Printf.sprintf "line %d: %s" s.line m)
