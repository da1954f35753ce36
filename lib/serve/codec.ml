(* Text codecs for the durable formats.  A codec declares one piece of
   syntax and carries both its writer and its reader, so a format
   declared once (the snapshot layout in Snapshot, the WAL frame and
   record payloads in Wal) is written and read from that one declaration.

   The syntax lives here: tokens are separated by one space (a reader
   accepts runs of them), a line ends with '\n', an absent value is the
   token [none], and a section is a [key N] count line followed by N item
   lines, N bounded by the lines left. *)

module Rat = Numeric.Rat

exception Malformed of string

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* A reader's source: the text's lines, how many were consumed, and the
   unread tokens of the current one. *)
type src = { lines : string array; mutable line : int; mutable toks : string list }
type 'a t = { write : Buffer.t -> 'a -> unit; read : src -> 'a }

let encodable s =
  s <> "" && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s)

(* --- tokens ----------------------------------------------------------- *)

(* A token is separated from the one before it unless it starts a line. *)
let sep b =
  let n = Buffer.length b in
  if n > 0 && Buffer.nth b (n - 1) <> '\n' then Buffer.add_char b ' '

let next s =
  match s.toks with
  | t :: tl ->
    s.toks <- tl;
    t
  | [] -> bad "line ends early"

let token add parse = { write = (fun b x -> sep b; add b x); read = (fun s -> parse (next s)) }

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
    write = (fun b -> function None -> none.write b () | Some x -> c.write b x);
    read =
      (fun s -> match s.toks with "none" :: _ -> none.read s; None | _ -> Some (c.read s));
  }

(* --- products and variants -------------------------------------------- *)

type _ fields = [] : unit fields | ( :: ) : 'a t * 'b fields -> ('a * 'b) fields
type _ values = [] : unit values | ( :: ) : 'a * 'b values -> ('a * 'b) values

let rec write_fields : type v. v fields -> Buffer.t -> v values -> unit =
 fun fs b vs ->
  match (fs, vs) with [], [] -> () | f :: fs, v :: vs -> f.write b v; write_fields fs b vs

let rec read_fields : type v. v fields -> src -> v values =
 fun fs s -> match fs with [] -> [] | f :: fs -> let v = f.read s in v :: read_fields fs s

(* [tuple fs] is the fields' tokens in order; its values are written and
   matched with list syntax, [ a; b ].  [conv proj inj c] writes [proj x]
   with [c] and reads [inj] of what [c] reads; [record] is both at once. *)
let tuple fs = { write = write_fields fs; read = read_fields fs }

let conv proj inj c =
  { write = (fun b x -> c.write b (proj x)); read = (fun s -> inj (c.read s)) }

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
      (fun b x ->
        let (Tagged (c, v)) = proj x in
        sep b;
        Buffer.add_string b c.tag;
        c.body.write b v);
    read =
      (fun s ->
        let t = next s in
        match List.find_opt (fun (Case c) -> c.tag = t) cases with
        | Some (Case c) -> c.inj (c.body.read s)
        | None -> bad "unknown %S" t);
  }

(* A count followed by that many items, bounded by the tokens left. *)
let counted item =
  {
    write = (fun b xs -> int.write b (List.length xs); List.iter (item.write b) xs);
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
    write = (fun b x -> c.write b x; Buffer.add_char b '\n');
    read =
      (fun s ->
        s.toks <- String.split_on_char ' ' (next_line s) |> List.filter (( <> ) "");
        let x = c.read s in
        match s.toks with t :: _ -> bad "unexpected %S at the end of the line" t | [] -> x);
  }

let keyed key c = line (conv (fun x -> ((), x)) snd (pair (lit key) c))

(* A count line, then that many item lines, bounded by the lines left
   before anything is read or allocated for them. *)
let section key item =
  let count = keyed key nat in
  {
    write = (fun b xs -> count.write b (List.length xs); List.iter (item.write b) xs);
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
      (fun b text ->
        Buffer.add_string b text;
        Buffer.add_string b last;
        Buffer.add_char b '\n');
    read =
      (fun s ->
        let rec go (acc : string list) =
          match next_line s with l when l = last -> acc | l -> go ((l ^ "\n") :: acc)
        in
        String.concat "" (List.rev (go [])));
  }

(* --- entry points ----------------------------------------------------- *)

let write c = c.write

let to_string c x =
  let b = Buffer.create 64 in
  c.write b x;
  Buffer.contents b

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
