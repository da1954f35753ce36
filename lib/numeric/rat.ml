(* Normalized rationals with a machine-word fast path.

   A value is either [S (num, den)] — both components native ints, with
   den > 0, gcd (num, den) = 1, zero as [S (0, 1)], and [min_int]
   excluded from both slots so negation and division can never trap —
   or [L {bnum; bden}], the same normalization invariants over
   [Bigint.t].  Tagging is canonical: every arithmetic result whose
   reduced components fit machine words is built as [S], so one value
   has one representation ([promote] is the deliberate, test-only
   exception, and [equal]/[compare]/[hash] stay value-based across
   tags to keep even that unobservable).

   Small arithmetic overflow-checks every intermediate 63-bit product
   and sum ([Overflow] aborts the attempt) and redoes the operation on
   the limb path; limb results are demoted on construction.  [Counters]
   records which path each operation took — the exact LP pipeline is
   dominated by tiny coefficients, so the small-path hit rate is the
   number that justifies this entire design (see DESIGN §10). *)

module B = Bigint
module C = Counters

type t = S of int * int | L of { bnum : B.t; bden : B.t }

exception Overflow

(* Checked native add: no wrap iff operand signs differ or the sum
   keeps the left operand's sign; a true sum of [min_int] must also
   leave the small range. *)
let add_chk a b =
  let s = a + b in
  if (a lxor b < 0 || a lxor s >= 0) && s <> min_int then s else raise Overflow

(* Checked native mul: both magnitudes below 2^31 cannot overflow;
   otherwise divide back.  [r = min_int] is rejected before the
   division both because it is outside the small range and because
   [min_int / -1] itself traps. *)
let mul_chk a b =
  if a = 0 || b = 0 then 0
  else if Stdlib.abs a lor Stdlib.abs b < 1 lsl 31 then a * b
  else begin
    let r = a * b in
    if r <> min_int && r / b = a then r else raise Overflow
  end

(* gcd on nonnegative native ints. *)
let rec igcd a b = if b = 0 then a else igcd b (a mod b)

let zero = S (0, 1)
let one = S (1, 1)
let two = S (2, 1)
let minus_one = S (-1, 1)

let is_small = function S _ -> true | L _ -> false

(* Both components as bigints, for the limb path. *)
let parts = function
  | S (n, d) -> (B.of_int n, B.of_int d)
  | L { bnum; bden } -> (bnum, bden)

(* Normalize a small pair; requires d <> 0 and neither component
   [min_int]. *)
let norm_small n d =
  if n = 0 then zero
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = igcd (Stdlib.abs n) d in
    S (n / g, d / g)
  end

(* Normalize a bigint pair; demotes to [S] when the reduced components
   fit machine words — this is the single point where values leave the
   limb representation. *)
let make_big num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then zero
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    let num, den =
      if B.equal g B.one then (num, den) else (B.div num g, B.div den g)
    in
    match (B.to_int_opt num, B.to_int_opt den) with
    | Some n, Some d when n <> min_int && d <> min_int ->
      C.note_demotion ();
      S (n, d)
    | _ -> L { bnum = num; bden = den }
  end

let make num den =
  if B.is_zero den then raise Division_by_zero;
  match (B.to_int_opt num, B.to_int_opt den) with
  | Some n, Some d when n <> min_int && d <> min_int -> norm_small n d
  | _ -> make_big num den

let of_bigint n =
  match B.to_int_opt n with
  | Some v when v <> min_int -> S (v, 1)
  | _ -> L { bnum = n; bden = B.one }

let of_int n = if n = min_int then of_bigint (B.of_int n) else S (n, 1)

let of_ints a b =
  if b = 0 then raise Division_by_zero;
  if a = min_int || b = min_int then make (B.of_int a) (B.of_int b)
  else norm_small a b

let promote = function
  | S (n, d) -> L { bnum = B.promote (B.of_int n); bden = B.promote (B.of_int d) }
  | L _ as x -> x

let num = function S (n, _) -> B.of_int n | L { bnum; _ } -> bnum
let den = function S (_, d) -> B.of_int d | L { bden; _ } -> bden
let sign = function S (n, _) -> Stdlib.compare n 0 | L { bnum; _ } -> B.sign bnum
let is_zero = function S (n, _) -> n = 0 | L { bnum; _ } -> B.is_zero bnum

let is_integer = function
  | S (_, d) -> d = 1
  | L { bden; _ } -> B.equal bden B.one

(* Mixed tags only arise from [promote]; compare by value so even those
   are indistinguishable from their canonical form. *)
let equal a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> an = bn && ad = bd
  | L a, L b -> B.equal a.bnum b.bnum && B.equal a.bden b.bden
  | S (n, d), L { bnum; bden } | L { bnum; bden }, S (n, d) ->
    B.equal bnum (B.of_int n) && B.equal bden (B.of_int d)

let big_compare a b =
  let an, ad = parts a and bn, bd = parts b in
  B.compare (B.mul an bd) (B.mul bn ad)

let compare a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) ->
    let sa = Stdlib.compare an 0 and sb = Stdlib.compare bn 0 in
    if sa <> sb then begin
      C.note_small ();
      Stdlib.compare sa sb
    end
    else begin
      (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den
         (dens > 0) *)
      try
        let l = mul_chk an bd and r = mul_chk bn ad in
        C.note_small ();
        Stdlib.compare l r
      with Overflow ->
        C.note_promotion ();
        C.note_big ();
        big_compare a b
    end
  | _ ->
    C.note_big ();
    big_compare a b

(* [Bigint.hash] of a machine-word value is [Hashtbl.hash] of that
   word, so the two arms agree on promoted values by construction. *)
let hash = function
  | S (n, d) -> Hashtbl.hash (Hashtbl.hash n, Hashtbl.hash d)
  | L { bnum; bden } -> Hashtbl.hash (B.hash bnum, B.hash bden)

let neg = function
  | S (n, d) -> S (-n, d)
  | L { bnum; bden } -> L { bnum = B.neg bnum; bden }

let abs = function
  | S (n, d) -> S (Stdlib.abs n, d)
  | L { bnum; bden } -> L { bnum = B.abs bnum; bden }

let big_add a b =
  let an, ad = parts a and bn, bd = parts b in
  make_big (B.add (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)

(* Knuth's fraction addition (TAOCP 4.5.1): pre-reducing by
   g = gcd (ad, bd) keeps the intermediates roughly half the width of
   the naive cross-multiplication, and the final gcd shrinks to
   gcd (t, g).  When g = 1 the result is already in lowest terms. *)
let small_add an ad bn bd =
  if an = 0 then S (bn, bd)
  else if bn = 0 then S (an, ad)
  else if ad = bd then begin
    let n = add_chk an bn in
    if n = 0 then zero
    else begin
      let g = igcd (Stdlib.abs n) ad in
      S (n / g, ad / g)
    end
  end
  else begin
    let g = igcd ad bd in
    if g = 1 then begin
      let n = add_chk (mul_chk an bd) (mul_chk bn ad) in
      if n = 0 then zero else S (n, mul_chk ad bd)
    end
    else begin
      let ad' = ad / g and bd' = bd / g in
      let t = add_chk (mul_chk an bd') (mul_chk bn ad') in
      if t = 0 then zero
      else begin
        let g2 = igcd (Stdlib.abs t) g in
        S (t / g2, mul_chk ad' (bd / g2))
      end
    end
  end

let add a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> (
    try
      let r = small_add an ad bn bd in
      C.note_small ();
      r
    with Overflow ->
      C.note_promotion ();
      C.note_big ();
      big_add a b)
  | a, b ->
    C.note_big ();
    if is_zero a then b else if is_zero b then a else big_add a b

let sub a b = add a (neg b)

let big_mul a b =
  let an, ad = parts a and bn, bd = parts b in
  make_big (B.mul an bn) (B.mul ad bd)

let mul a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> (
    try
      let r =
        if an = 0 || bn = 0 then zero
        else begin
          (* Cross-reduce before multiplying: with both input pairs
             coprime, (an/g1)(bn/g2) and (ad/g2)(bd/g1) are coprime,
             so no final gcd is needed. *)
          let g1 = igcd (Stdlib.abs an) bd and g2 = igcd (Stdlib.abs bn) ad in
          S (mul_chk (an / g1) (bn / g2), mul_chk (ad / g2) (bd / g1))
        end
      in
      C.note_small ();
      r
    with Overflow ->
      C.note_promotion ();
      C.note_big ();
      big_mul a b)
  | a, b ->
    C.note_big ();
    if is_zero a || is_zero b then zero else big_mul a b

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | L { bnum; bden } ->
    if B.is_zero bnum then raise Division_by_zero;
    if B.sign bnum < 0 then L { bnum = B.neg bden; bden = B.neg bnum }
    else L { bnum = bden; bden = bnum }

let div a b = mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let mul_int x n = mul x (of_int n)
let div_int x n = div x (of_int n)

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | L { bnum; bden } -> B.to_float bnum /. B.to_float bden

let of_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg "Rat.of_float: not finite";
  if Float.is_integer f then of_bigint (B.of_float f)
  else begin
    let m, e = Float.frexp f in
    let mantissa = B.of_float (Float.ldexp m 53) in
    let shift = e - 53 in
    if shift >= 0 then of_bigint (B.shift_left mantissa shift)
    else make mantissa (B.shift_left B.one (-shift))
  end

let floor = function
  | S (n, d) ->
    let q = n / d in
    B.of_int (if n mod d < 0 then q - 1 else q)
  | L { bnum; bden } ->
    let q, r = B.divmod bnum bden in
    if B.sign r < 0 then B.pred q else q

let ceil = function
  | S (n, d) ->
    let q = n / d in
    B.of_int (if n mod d > 0 then q + 1 else q)
  | L { bnum; bden } ->
    let q, r = B.divmod bnum bden in
    if B.sign r > 0 then B.succ q else q

(* Best approximation with bounded denominator, by the Stern–Brocot walk:
   continued-fraction convergents interleaved with the last admissible
   semiconvergent.  The result q/d with d ≤ max_den minimizes |x − q/d|. *)
let approx ~max_den x =
  if max_den < 1 then invalid_arg "Rat.approx: max_den must be at least 1";
  let bound = B.of_int max_den in
  if B.compare (den x) bound <= 0 then x
  else begin
    let target = abs x in
    (* Convergents p/q of the continued fraction of |x|. *)
    let rec walk n d p0 q0 p1 q1 =
      (* invariant: p1/q1 is the latest convergent, q1 <= bound *)
      if B.is_zero d then (p1, q1)
      else begin
        let a, r = B.divmod n d in
        let p2 = B.add (B.mul a p1) p0 and q2 = B.add (B.mul a q1) q0 in
        if B.compare q2 bound > 0 then begin
          (* The full step overshoots: take the best semiconvergent
             p1*k + p0 / q1*k + q0 with the largest k keeping q <= bound,
             then pick the closer of it and the last convergent. *)
          let k = B.div (B.sub bound q0) q1 in
          if B.is_zero k then (p1, q1)
          else begin
            let ps = B.add (B.mul k p1) p0 and qs = B.add (B.mul k q1) q0 in
            let conv = make p1 q1 and semi = make ps qs in
            (* Semiconvergents closer than the previous convergent require
               k > a/2; comparing distances directly is simplest. *)
            if compare (abs (sub semi target)) (abs (sub conv target)) < 0 then
              (ps, qs)
            else (p1, q1)
          end
        end
        else walk d r p1 q1 p2 q2
      end
    in
    (* Seeds: p_{-2}/q_{-2} = 0/1 and p_{-1}/q_{-1} = 1/0, so the first
       step yields the convergent a0/1 (and 1 ≤ max_den, so the walk never
       returns the formal 1/0). *)
    let p, q = walk (B.abs (num x)) (den x) B.zero B.one B.one B.zero in
    let r = make p q in
    if sign x < 0 then neg r else r
  end

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | L { bnum; bden } ->
    if B.equal bden B.one then B.to_string bnum
    else B.to_string bnum ^ "/" ^ B.to_string bden

(* Decimal digits straight into the buffer: [string_of_int] goes through
   the C formatter and allocates, which dominates bulk serialization. *)
let buffer_add_int b n =
  if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    if n < 0 then Buffer.add_char b '-';
    let rec digits n =
      if n >= 10 then digits (n / 10);
      Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
    in
    digits (Stdlib.abs n)
  end

let buffer_add b = function
  | S (n, 1) -> buffer_add_int b n
  | S (n, d) ->
    buffer_add_int b n;
    Buffer.add_char b '/';
    buffer_add_int b d
  | L _ as x -> Buffer.add_string b (to_string x)

let of_string s =
  let fail msg = invalid_arg (Printf.sprintf "Rat.of_string: %S: %s" s msg) in
  if s = "" then fail "empty string";
  if String.trim s <> s then fail "surrounding whitespace";
  let parse what part =
    if part = "" then fail ("missing " ^ what);
    try B.of_string part with Invalid_argument _ -> fail ("malformed " ^ what)
  in
  match String.index_opt s '/' with
  | Some i ->
    let n = parse "numerator" (String.sub s 0 i) in
    let d = parse "denominator" (String.sub s (i + 1) (String.length s - i - 1)) in
    make n d
  | None -> (
    match String.index_opt s '.' with
    | None -> of_bigint (parse "number" s)
    | Some i ->
      let int_part = String.sub s 0 i in
      let frac_part = String.sub s (i + 1) (String.length s - i - 1) in
      if frac_part = "" then of_bigint (parse "number" int_part)
      else begin
        let digits = String.length frac_part in
        let whole = parse "number" (int_part ^ frac_part) in
        make whole (B.pow (B.of_int 10) digits)
      end)

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
