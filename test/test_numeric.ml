(* Tests for the exact-arithmetic substrate: Bigint, Rat, Affine.
   Random operations are cross-checked against native int arithmetic on
   ranges where the native result cannot overflow. *)

module B = Numeric.Bigint
module R = Numeric.Rat
module A = Numeric.Affine

let bigint = Alcotest.testable B.pp B.equal
let rat = Alcotest.testable R.pp R.equal

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.(check string) "zero" "0" (B.to_string B.zero);
  Alcotest.(check string) "one" "1" (B.to_string B.one);
  Alcotest.(check string) "minus_one" "-1" (B.to_string B.minus_one);
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
  Alcotest.(check bool) "zero is_zero" true (B.is_zero B.zero);
  Alcotest.(check bool) "one not zero" false (B.is_zero B.one)

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (B.to_int_opt (B.of_int n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 30; (1 lsl 30) - 1; 1 lsl 60 ]

let test_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("roundtrip " ^ s) s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "1000000000000000000000000000000000000000000000000000000001" ]

let test_string_underscores () =
  Alcotest.(check bigint) "underscores" (B.of_int 1_000_000) (B.of_string "1_000_000")

let test_add_known () =
  let big = B.of_string "99999999999999999999999999999999" in
  Alcotest.(check string) "carry chain" "100000000000000000000000000000000"
    (B.to_string (B.add big B.one));
  Alcotest.(check string) "back down" "99999999999999999999999999999999"
    (B.to_string (B.sub (B.add big B.one) B.one))

let test_mul_known () =
  let a = B.of_string "123456789123456789" in
  let b = B.of_string "987654321987654321" in
  Alcotest.(check string) "big product" "121932631356500531347203169112635269"
    (B.to_string (B.mul a b));
  Alcotest.(check bigint) "sign" (B.neg (B.mul a b)) (B.mul (B.neg a) b)

let test_divmod_known () =
  let a = B.of_string "121932631356500531347203169112635269" in
  let b = B.of_string "123456789123456789" in
  let q, r = B.divmod a b in
  Alcotest.(check string) "quotient" "987654321987654321" (B.to_string q);
  Alcotest.(check bigint) "no remainder" B.zero r;
  let q, r = B.divmod (B.add a B.one) b in
  Alcotest.(check string) "quotient+1" "987654321987654321" (B.to_string q);
  Alcotest.(check bigint) "remainder 1" B.one r

let test_divmod_signs () =
  (* Must match OCaml's native (/) and (mod) conventions. *)
  List.iter
    (fun (a, b) ->
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      Alcotest.(check bigint) (Printf.sprintf "q %d/%d" a b) (B.of_int (a / b)) q;
      Alcotest.(check bigint) (Printf.sprintf "r %d mod %d" a b) (B.of_int (a mod b)) r)
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3); (0, 5); (1, 17) ]

let test_div_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd () =
  Alcotest.(check bigint) "gcd 12 18" (B.of_int 6) (B.gcd (B.of_int 12) (B.of_int 18));
  Alcotest.(check bigint) "gcd neg" (B.of_int 6) (B.gcd (B.of_int (-12)) (B.of_int 18));
  Alcotest.(check bigint) "gcd 0 x" (B.of_int 5) (B.gcd B.zero (B.of_int (-5)));
  Alcotest.(check bigint) "gcd coprime" B.one (B.gcd (B.of_int 35) (B.of_int 64));
  let a = B.of_string "123456789012345678901234567890" in
  Alcotest.(check bigint) "gcd self" (B.abs a) (B.gcd a a)

let test_pow () =
  Alcotest.(check string) "2^100" "1267650600228229401496703205376"
    (B.to_string (B.pow B.two 100));
  Alcotest.(check bigint) "x^0" B.one (B.pow (B.of_int 17) 0);
  Alcotest.(check bigint) "(-3)^3" (B.of_int (-27)) (B.pow (B.of_int (-3)) 3);
  Alcotest.check_raises "negative exponent" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (B.pow B.two (-1)))

let test_shifts () =
  Alcotest.(check bigint) "1 << 100 >> 100" B.one
    (B.shift_right (B.shift_left B.one 100) 100);
  Alcotest.(check bigint) "shl = *2^k" (B.mul (B.of_int 12345) (B.pow B.two 67))
    (B.shift_left (B.of_int 12345) 67);
  Alcotest.(check bigint) "shr truncates" (B.of_int 2) (B.shift_right (B.of_int 5) 1);
  Alcotest.(check bigint) "neg shr truncates toward zero" (B.of_int (-2))
    (B.shift_right (B.of_int (-5)) 1)

let test_compare () =
  let vals = List.map B.of_string [ "-1000000000000000000000"; "-5"; "0"; "3"; "1000000000000000000000" ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          Alcotest.(check int)
            (Printf.sprintf "cmp %d %d" i j)
            (compare i j)
            (B.compare a b))
        vals)
    vals

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (B.num_bits B.zero);
  Alcotest.(check int) "bits 1" 1 (B.num_bits B.one);
  Alcotest.(check int) "bits 255" 8 (B.num_bits (B.of_int 255));
  Alcotest.(check int) "bits 256" 9 (B.num_bits (B.of_int 256));
  Alcotest.(check int) "bits 2^100" 101 (B.num_bits (B.pow B.two 100))

let test_float_conversions () =
  Alcotest.(check (float 0.0)) "to_float small" 42.0 (B.to_float (B.of_int 42));
  Alcotest.(check (float 0.0)) "to_float neg" (-42.0) (B.to_float (B.of_int (-42)));
  Alcotest.(check bigint) "of_float exact" (B.of_int 1048576) (B.of_float 1048576.0);
  Alcotest.(check bigint) "of_float truncates" (B.of_int 3) (B.of_float 3.99);
  Alcotest.(check bigint) "of_float neg truncates" (B.of_int (-3)) (B.of_float (-3.99));
  Alcotest.(check bigint) "of_float big" (B.pow B.two 80) (B.of_float (Float.ldexp 1.0 80))

(* ------------------------------------------------------------------ *)
(* Bigint property tests (cross-checked against native ints)           *)
(* ------------------------------------------------------------------ *)

let small_int = QCheck.int_range (-1_000_000) 1_000_000

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int" ~count:500
    (QCheck.pair small_int small_int)
    (fun (a, b) -> B.equal (B.add (B.of_int a) (B.of_int b)) (B.of_int (a + b)))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int" ~count:500
    (QCheck.pair small_int small_int)
    (fun (a, b) -> B.equal (B.mul (B.of_int a) (B.of_int b)) (B.of_int (a * b)))

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"bigint divmod matches int" ~count:500
    (QCheck.pair small_int small_int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      B.equal q (B.of_int (a / b)) && B.equal r (B.of_int (a mod b)))

let big_gen =
  (* Random bigints up to ~400 decimal digits: large enough to exercise
     the Karatsuba multiplication path (threshold 24 limbs ≈ 220 digits),
     small enough for fast tests. *)
  let open QCheck.Gen in
  let* digits = int_range 1 400 in
  let* sign = bool in
  let* s = string_size ~gen:(char_range '0' '9') (return digits) in
  return (B.of_string ((if sign then "-" else "") ^ "1" ^ s))

let arbitrary_big = QCheck.make ~print:B.to_string big_gen

(* Karatsuba vs schoolbook: the identity (a+b)² − (a−b)² = 4ab relates
   products of different sizes, crossing the threshold both ways. *)
let prop_karatsuba_identity =
  QCheck.Test.make ~name:"(a+b)² − (a−b)² = 4ab across size classes" ~count:100
    (QCheck.pair arbitrary_big arbitrary_big)
    (fun (a, b) ->
      let sq x = B.mul x x in
      B.equal
        (B.sub (sq (B.add a b)) (sq (B.sub a b)))
        (B.mul (B.of_int 4) (B.mul a b)))

let prop_divmod_reconstruct =
  QCheck.Test.make ~name:"a = q*b + r with |r| < |b|" ~count:300
    (QCheck.pair arbitrary_big arbitrary_big)
    (fun (a, b) ->
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

(* Adversarial division cases: remainders within one unit of the divisor
   and divisors with minimal normalized top limbs maximize the chance of
   quotient-digit overestimation (the correction and add-back paths of
   Knuth's algorithm D), which uniform random inputs essentially never
   hit. *)
let prop_divmod_adversarial =
  QCheck.Test.make ~name:"divmod reconstructs adversarial (q·v + v−1)" ~count:500
    (QCheck.pair arbitrary_big arbitrary_big)
    (fun (q0, v0) ->
      let q = B.abs q0 and v = B.add (B.abs v0) B.two (* v >= 2 *) in
      let r = B.pred v in
      let a = B.add (B.mul q v) r in
      let q', r' = B.divmod a v in
      B.equal q q' && B.equal r r')

let test_divmod_limb_boundaries () =
  (* Divisors straddling limb boundaries and powers of the base. *)
  let b30 = B.shift_left B.one 30 in
  List.iter
    (fun (a, v) ->
      let q, r = B.divmod a v in
      Alcotest.(check bigint) "reconstruct" a (B.add (B.mul q v) r);
      Alcotest.(check bool) "remainder range" true (B.compare (B.abs r) (B.abs v) < 0))
    [ (B.pred (B.shift_left B.one 90), B.pred b30);
      (B.pred (B.shift_left B.one 90), b30);
      (B.pred (B.shift_left B.one 90), B.succ b30);
      (B.shift_left B.one 120, B.pred (B.shift_left B.one 60));
      (B.pred (B.shift_left B.one 120), B.succ (B.shift_left B.one 60));
      (B.add (B.shift_left B.one 89) B.one, B.add (B.shift_left B.one 59) B.one);
      (* divisor top limb exactly base/2: minimal normalization shift *)
      (B.pred (B.shift_left B.one 93), B.succ (B.shift_left B.one 59))
    ]

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:300 arbitrary_big
    (fun a -> B.equal a (B.of_string (B.to_string a)))

let prop_add_commutative =
  QCheck.Test.make ~name:"bigint add commutative" ~count:300
    (QCheck.pair arbitrary_big arbitrary_big)
    (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"bigint mul distributes over add" ~count:200
    (QCheck.triple arbitrary_big arbitrary_big arbitrary_big)
    (fun (a, b, c) -> B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_sub_antisym =
  QCheck.Test.make ~name:"a - b = -(b - a)" ~count:300
    (QCheck.pair arbitrary_big arbitrary_big)
    (fun (a, b) -> B.equal (B.sub a b) (B.neg (B.sub b a)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:200
    (QCheck.pair arbitrary_big arbitrary_big)
    (fun (a, b) ->
      let g = B.gcd a b in
      B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

let prop_compare_consistent_with_sub =
  QCheck.Test.make ~name:"compare a b = sign (a - b)" ~count:300
    (QCheck.pair arbitrary_big arbitrary_big)
    (fun (a, b) ->
      let c = B.compare a b in
      let s = B.sign (B.sub a b) in
      (c > 0) = (s > 0) && (c < 0) = (s < 0) && (c = 0) = (s = 0))

(* ------------------------------------------------------------------ *)
(* Rat unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_rat_normalization () =
  Alcotest.(check rat) "6/4 = 3/2" (R.of_ints 3 2) (R.of_ints 6 4);
  Alcotest.(check rat) "neg den" (R.of_ints (-3) 2) (R.of_ints 3 (-2));
  Alcotest.(check rat) "0/17 = 0" R.zero (R.of_ints 0 17);
  Alcotest.(check string) "den of zero" "1" (Numeric.Bigint.to_string (R.den R.zero));
  Alcotest.(check string) "pp" "3/2" (R.to_string (R.of_ints 6 4));
  Alcotest.(check string) "pp int" "5" (R.to_string (R.of_int 5))

let test_rat_arith () =
  Alcotest.(check rat) "1/2 + 1/3" (R.of_ints 5 6) (R.add (R.of_ints 1 2) (R.of_ints 1 3));
  Alcotest.(check rat) "1/2 - 1/3" (R.of_ints 1 6) (R.sub (R.of_ints 1 2) (R.of_ints 1 3));
  Alcotest.(check rat) "2/3 * 3/4" (R.of_ints 1 2) (R.mul (R.of_ints 2 3) (R.of_ints 3 4));
  Alcotest.(check rat) "(1/2) / (1/4)" (R.of_int 2) (R.div (R.of_ints 1 2) (R.of_ints 1 4));
  Alcotest.(check rat) "inv -2/3" (R.of_ints (-3) 2) (R.inv (R.of_ints (-2) 3));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (R.inv R.zero))

let test_rat_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (R.compare (R.of_ints 1 3) (R.of_ints 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (R.compare (R.of_ints (-1) 2) (R.of_ints 1 3) < 0);
  Alcotest.(check rat) "min" (R.of_ints 1 3) (R.min (R.of_ints 1 3) (R.of_ints 1 2));
  Alcotest.(check rat) "max" (R.of_ints 1 2) (R.max (R.of_ints 1 3) (R.of_ints 1 2))

let test_rat_floor_ceil () =
  let check_fc s f c =
    let x = R.of_string s in
    Alcotest.(check bigint) ("floor " ^ s) (B.of_int f) (R.floor x);
    Alcotest.(check bigint) ("ceil " ^ s) (B.of_int c) (R.ceil x)
  in
  check_fc "7/2" 3 4;
  check_fc "-7/2" (-4) (-3);
  check_fc "4" 4 4;
  check_fc "-4" (-4) (-4);
  check_fc "1/3" 0 1;
  check_fc "-1/3" (-1) 0

let test_rat_of_float () =
  Alcotest.(check rat) "0.5" (R.of_ints 1 2) (R.of_float 0.5);
  Alcotest.(check rat) "0.25" (R.of_ints 1 4) (R.of_float 0.25);
  Alcotest.(check rat) "-1.75" (R.of_ints (-7) 4) (R.of_float (-1.75));
  Alcotest.(check rat) "3.0" (R.of_int 3) (R.of_float 3.0);
  (* 0.1 is not exactly 1/10 in binary; check exactness of conversion. *)
  Alcotest.(check (float 1e-18)) "roundtrip 0.1" 0.1 (R.to_float (R.of_float 0.1));
  Alcotest.(check bool) "0.1 <> 1/10 exactly" false (R.equal (R.of_float 0.1) (R.of_ints 1 10))

let test_rat_of_string () =
  Alcotest.(check rat) "n/d" (R.of_ints 22 7) (R.of_string "22/7");
  Alcotest.(check rat) "decimal" (R.of_ints 5 4) (R.of_string "1.25");
  Alcotest.(check rat) "neg decimal" (R.of_ints (-1) 2) (R.of_string "-0.5");
  Alcotest.(check rat) "int" (R.of_int (-17)) (R.of_string "-17")

(* ------------------------------------------------------------------ *)
(* Rat property tests (field axioms)                                   *)
(* ------------------------------------------------------------------ *)

let rat_gen =
  let open QCheck.Gen in
  let* n = int_range (-10_000) 10_000 in
  let* d = int_range 1 10_000 in
  return (R.of_ints n d)

let arbitrary_rat = QCheck.make ~print:R.to_string rat_gen

let prop_rat_add_assoc =
  QCheck.Test.make ~name:"rat add associative" ~count:300
    (QCheck.triple arbitrary_rat arbitrary_rat arbitrary_rat)
    (fun (a, b, c) -> R.equal (R.add (R.add a b) c) (R.add a (R.add b c)))

let prop_rat_mul_assoc =
  QCheck.Test.make ~name:"rat mul associative" ~count:300
    (QCheck.triple arbitrary_rat arbitrary_rat arbitrary_rat)
    (fun (a, b, c) -> R.equal (R.mul (R.mul a b) c) (R.mul a (R.mul b c)))

let prop_rat_distrib =
  QCheck.Test.make ~name:"rat distributivity" ~count:300
    (QCheck.triple arbitrary_rat arbitrary_rat arbitrary_rat)
    (fun (a, b, c) -> R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c)))

let prop_rat_add_inverse =
  QCheck.Test.make ~name:"rat additive inverse" ~count:300 arbitrary_rat
    (fun a -> R.is_zero (R.add a (R.neg a)))

let prop_rat_mul_inverse =
  QCheck.Test.make ~name:"rat multiplicative inverse" ~count:300 arbitrary_rat
    (fun a ->
      QCheck.assume (not (R.is_zero a));
      R.equal R.one (R.mul a (R.inv a)))

let prop_rat_normalized =
  QCheck.Test.make ~name:"rat results normalized" ~count:300
    (QCheck.pair arbitrary_rat arbitrary_rat)
    (fun (a, b) ->
      let r = R.add (R.mul a b) (R.sub a b) in
      B.equal (B.gcd (R.num r) (R.den r)) B.one && B.sign (R.den r) > 0)

let prop_rat_compare_total_order =
  QCheck.Test.make ~name:"rat compare antisymmetric" ~count:300
    (QCheck.pair arbitrary_rat arbitrary_rat)
    (fun (a, b) -> R.compare a b = -R.compare b a)

let prop_rat_to_float_order =
  QCheck.Test.make ~name:"rat order consistent with float order" ~count:300
    (QCheck.pair arbitrary_rat arbitrary_rat)
    (fun (a, b) ->
      (* Floats of moderately-sized rationals preserve strict order or tie. *)
      let c = R.compare a b in
      let fc = Float.compare (R.to_float a) (R.to_float b) in
      c = 0 || fc = 0 || (c > 0) = (fc > 0))

let prop_rat_string_roundtrip =
  QCheck.Test.make ~name:"rat string roundtrip" ~count:300 arbitrary_rat
    (fun a -> R.equal a (R.of_string (R.to_string a)))

let test_rat_approx_known () =
  (* π's classic convergents. *)
  let pi = R.of_string "3.14159265358979" in
  Alcotest.(check rat) "den ≤ 10 → 22/7" (R.of_ints 22 7) (R.approx ~max_den:10 pi);
  Alcotest.(check rat) "den ≤ 150 → 355/113" (R.of_ints 355 113)
    (R.approx ~max_den:150 pi);
  Alcotest.(check rat) "already small is exact" (R.of_ints 3 4)
    (R.approx ~max_den:10 (R.of_ints 3 4));
  Alcotest.(check rat) "negative mirrors" (R.of_ints (-22) 7)
    (R.approx ~max_den:10 (R.neg pi));
  Alcotest.(check bool) "max_den 0 rejected" true
    (try ignore (R.approx ~max_den:0 pi); false with Invalid_argument _ -> true)

let prop_rat_approx_best =
  (* The returned fraction must beat every fraction with denominator up to
     the bound (checked exhaustively for small bounds). *)
  QCheck.Test.make ~name:"approx is the best bounded-denominator fraction" ~count:200
    (QCheck.pair arbitrary_rat (QCheck.int_range 1 12))
    (fun (x, max_den) ->
      let a = R.approx ~max_den x in
      let dist y = R.abs (R.sub x y) in
      Numeric.Bigint.to_int_exn (R.den a) <= max_den
      && List.for_all
           (fun d ->
             (* closest numerator for denominator d *)
             let num =
               Numeric.Bigint.to_int_exn
                 (R.floor (R.add (R.mul_int x d) (R.of_ints 1 2)))
             in
             R.compare (dist a) (dist (R.of_ints num d)) <= 0)
           (List.init max_den (fun d -> d + 1)))

(* ------------------------------------------------------------------ *)
(* Differential oracle: tagged Bigint vs the always-big reference      *)
(* ------------------------------------------------------------------ *)

(* [Bigint_ref] is the pre-fast-path implementation, kept verbatim.
   Random arithmetic expression trees are evaluated through both
   modules; the decimal renderings must be bit-identical, and the
   tagged result must be canonically represented (small iff it fits a
   machine word).  Division and gcd guard a zero divisor by replacing
   it with one — structurally, so both evaluators see the same tree. *)

module BR = Bigint_ref

type bexpr =
  | BLeaf of string
  | BNeg of bexpr
  | BAbs of bexpr
  | BAdd of bexpr * bexpr
  | BSub of bexpr * bexpr
  | BMul of bexpr * bexpr
  | BQuot of bexpr * bexpr
  | BRem of bexpr * bexpr
  | BGcd of bexpr * bexpr
  | BShl of bexpr * int
  | BShr of bexpr * int

let rec bexpr_print = function
  | BLeaf s -> s
  | BNeg e -> "(neg " ^ bexpr_print e ^ ")"
  | BAbs e -> "(abs " ^ bexpr_print e ^ ")"
  | BAdd (a, b) -> "(+ " ^ bexpr_print a ^ " " ^ bexpr_print b ^ ")"
  | BSub (a, b) -> "(- " ^ bexpr_print a ^ " " ^ bexpr_print b ^ ")"
  | BMul (a, b) -> "(* " ^ bexpr_print a ^ " " ^ bexpr_print b ^ ")"
  | BQuot (a, b) -> "(quot " ^ bexpr_print a ^ " " ^ bexpr_print b ^ ")"
  | BRem (a, b) -> "(rem " ^ bexpr_print a ^ " " ^ bexpr_print b ^ ")"
  | BGcd (a, b) -> "(gcd " ^ bexpr_print a ^ " " ^ bexpr_print b ^ ")"
  | BShl (e, s) -> Printf.sprintf "(shl %s %d)" (bexpr_print e) s
  | BShr (e, s) -> Printf.sprintf "(shr %s %d)" (bexpr_print e) s

let rec beval_tagged = function
  | BLeaf s -> B.of_string s
  | BNeg e -> B.neg (beval_tagged e)
  | BAbs e -> B.abs (beval_tagged e)
  | BAdd (a, b) -> B.add (beval_tagged a) (beval_tagged b)
  | BSub (a, b) -> B.sub (beval_tagged a) (beval_tagged b)
  | BMul (a, b) -> B.mul (beval_tagged a) (beval_tagged b)
  | BQuot (a, b) ->
    let d = beval_tagged b in
    B.div (beval_tagged a) (if B.is_zero d then B.one else d)
  | BRem (a, b) ->
    let d = beval_tagged b in
    B.rem (beval_tagged a) (if B.is_zero d then B.one else d)
  | BGcd (a, b) -> B.gcd (beval_tagged a) (beval_tagged b)
  | BShl (e, s) -> B.shift_left (beval_tagged e) s
  | BShr (e, s) -> B.shift_right (beval_tagged e) s

let rec beval_ref = function
  | BLeaf s -> BR.of_string s
  | BNeg e -> BR.neg (beval_ref e)
  | BAbs e -> BR.abs (beval_ref e)
  | BAdd (a, b) -> BR.add (beval_ref a) (beval_ref b)
  | BSub (a, b) -> BR.sub (beval_ref a) (beval_ref b)
  | BMul (a, b) -> BR.mul (beval_ref a) (beval_ref b)
  | BQuot (a, b) ->
    let d = beval_ref b in
    BR.div (beval_ref a) (if BR.is_zero d then BR.one else d)
  | BRem (a, b) ->
    let d = beval_ref b in
    BR.rem (beval_ref a) (if BR.is_zero d then BR.one else d)
  | BGcd (a, b) -> BR.gcd (beval_ref a) (beval_ref b)
  | BShl (e, s) -> BR.shift_left (beval_ref e) s
  | BShr (e, s) -> BR.shift_right (beval_ref e) s

(* Leaves concentrate on the overflow frontier of the 63-bit fast path:
   max_int, min_int, 2^31 (the cheap-multiply threshold) and 2^62
   neighbours, plus moderate and genuinely big random literals. *)
let bleaf_pool =
  [ "0"; "1"; "-1"; "2"; "-2";
    string_of_int max_int; string_of_int min_int;
    string_of_int (max_int - 1); string_of_int (-max_int);
    string_of_int (1 lsl 31); string_of_int ((1 lsl 31) - 1);
    string_of_int (-(1 lsl 31)); string_of_int ((1 lsl 31) + 1);
    "4611686018427387904"; "-4611686018427387904"; "4611686018427387905";
    "9223372036854775807"; "-9223372036854775808" ]

let bleaf_gen =
  let open QCheck.Gen in
  frequency
    [ (3, oneofl bleaf_pool);
      (3, map string_of_int (int_range (-1_000_000_000) 1_000_000_000));
      ( 2,
        let* digits = int_range 1 45 in
        let* sign = bool in
        let* s = string_size ~gen:(char_range '0' '9') (return digits) in
        return ((if sign then "-" else "") ^ "1" ^ s) ) ]

let bexpr_gen =
  let open QCheck.Gen in
  sized_size (int_range 0 24)
  @@ QCheck.Gen.fix (fun self n ->
         if n <= 0 then map (fun s -> BLeaf s) bleaf_gen
         else begin
           let sub = self (n / 2) in
           frequency
             [ (1, map (fun s -> BLeaf s) bleaf_gen);
               (1, map (fun e -> BNeg e) sub);
               (1, map (fun e -> BAbs e) sub);
               (3, map2 (fun a b -> BAdd (a, b)) sub sub);
               (3, map2 (fun a b -> BSub (a, b)) sub sub);
               (3, map2 (fun a b -> BMul (a, b)) sub sub);
               (2, map2 (fun a b -> BQuot (a, b)) sub sub);
               (2, map2 (fun a b -> BRem (a, b)) sub sub);
               (1, map2 (fun a b -> BGcd (a, b)) sub sub);
               (1, map2 (fun e s -> BShl (e, s)) sub (int_range 0 70));
               (1, map2 (fun e s -> BShr (e, s)) sub (int_range 0 70)) ]
         end)

let arbitrary_bexpr = QCheck.make ~print:bexpr_print bexpr_gen

(* Canonical tagging: small iff the value fits a machine word other than
   min_int (which the small representation excludes). *)
let canonically_tagged v =
  B.is_small v
  = (match B.to_int_opt v with Some n -> n <> min_int | None -> false)

let prop_bigint_oracle =
  QCheck.Test.make ~name:"tagged Bigint = always-big reference on expression trees"
    ~count:1000 arbitrary_bexpr (fun e ->
      let t = beval_tagged e and r = beval_ref e in
      String.equal (B.to_string t) (BR.to_string r) && canonically_tagged t)

(* ------------------------------------------------------------------ *)
(* Differential oracle: tagged Rat vs a reference over Bigint_ref      *)
(* ------------------------------------------------------------------ *)

(* Minimal always-big rational — the pre-refactor [Rat] restated over
   [Bigint_ref].  Only what the oracle needs. *)
module RRef = struct
  type t = { num : BR.t; den : BR.t }

  let make num den =
    if BR.is_zero den then raise Division_by_zero;
    if BR.is_zero num then { num = BR.zero; den = BR.one }
    else begin
      let num, den =
        if BR.sign den < 0 then (BR.neg num, BR.neg den) else (num, den)
      in
      let g = BR.gcd num den in
      if BR.equal g BR.one then { num; den }
      else { num = BR.div num g; den = BR.div den g }
    end

  let one = { num = BR.one; den = BR.one }
  let is_zero x = BR.is_zero x.num
  let neg x = { x with num = BR.neg x.num }
  let add a b = make (BR.add (BR.mul a.num b.den) (BR.mul b.num a.den)) (BR.mul a.den b.den)
  let sub a b = add a (neg b)
  let mul a b = make (BR.mul a.num b.num) (BR.mul a.den b.den)

  let inv x =
    if is_zero x then raise Division_by_zero;
    if BR.sign x.num < 0 then { num = BR.neg x.den; den = BR.neg x.num }
    else { num = x.den; den = x.num }

  let div a b = mul a (inv b)
  let compare a b = BR.compare (BR.mul a.num b.den) (BR.mul b.num a.den)

  let to_string x =
    if BR.equal x.den BR.one then BR.to_string x.num
    else BR.to_string x.num ^ "/" ^ BR.to_string x.den
end

type rexpr =
  | RLeaf of string * string
  | RNeg of rexpr
  | RInv of rexpr
  | RAdd of rexpr * rexpr
  | RSub of rexpr * rexpr
  | RMul of rexpr * rexpr
  | RDiv of rexpr * rexpr

let rec rexpr_print = function
  | RLeaf (n, d) -> n ^ "/" ^ d
  | RNeg e -> "(neg " ^ rexpr_print e ^ ")"
  | RInv e -> "(inv " ^ rexpr_print e ^ ")"
  | RAdd (a, b) -> "(+ " ^ rexpr_print a ^ " " ^ rexpr_print b ^ ")"
  | RSub (a, b) -> "(- " ^ rexpr_print a ^ " " ^ rexpr_print b ^ ")"
  | RMul (a, b) -> "(* " ^ rexpr_print a ^ " " ^ rexpr_print b ^ ")"
  | RDiv (a, b) -> "(/ " ^ rexpr_print a ^ " " ^ rexpr_print b ^ ")"

let rec reval_tagged = function
  | RLeaf (n, d) -> R.make (B.of_string n) (B.of_string d)
  | RNeg e -> R.neg (reval_tagged e)
  | RInv e ->
    let x = reval_tagged e in
    R.inv (if R.is_zero x then R.one else x)
  | RAdd (a, b) -> R.add (reval_tagged a) (reval_tagged b)
  | RSub (a, b) -> R.sub (reval_tagged a) (reval_tagged b)
  | RMul (a, b) -> R.mul (reval_tagged a) (reval_tagged b)
  | RDiv (a, b) ->
    let d = reval_tagged b in
    R.div (reval_tagged a) (if R.is_zero d then R.one else d)

let rec reval_ref = function
  | RLeaf (n, d) -> RRef.make (BR.of_string n) (BR.of_string d)
  | RNeg e -> RRef.neg (reval_ref e)
  | RInv e ->
    let x = reval_ref e in
    RRef.inv (if RRef.is_zero x then RRef.one else x)
  | RAdd (a, b) -> RRef.add (reval_ref a) (reval_ref b)
  | RSub (a, b) -> RRef.sub (reval_ref a) (reval_ref b)
  | RMul (a, b) -> RRef.mul (reval_ref a) (reval_ref b)
  | RDiv (a, b) ->
    let d = reval_ref b in
    RRef.div (reval_ref a) (if RRef.is_zero d then RRef.one else d)

let rleaf_gen =
  let open QCheck.Gen in
  let* n = bleaf_gen in
  let* d =
    frequency
      [ (4, map string_of_int (int_range 1 1_000_000));
        (1, return (string_of_int max_int));
        ( 1,
          let* digits = int_range 1 30 in
          let* s = string_size ~gen:(char_range '0' '9') (return digits) in
          return ("1" ^ s) ) ]
  in
  return (n, d)

let rexpr_gen =
  let open QCheck.Gen in
  sized_size (int_range 0 16)
  @@ QCheck.Gen.fix (fun self n ->
         if n <= 0 then map (fun (a, b) -> RLeaf (a, b)) rleaf_gen
         else begin
           let sub = self (n / 2) in
           frequency
             [ (1, map (fun (a, b) -> RLeaf (a, b)) rleaf_gen);
               (1, map (fun e -> RNeg e) sub);
               (1, map (fun e -> RInv e) sub);
               (3, map2 (fun a b -> RAdd (a, b)) sub sub);
               (3, map2 (fun a b -> RSub (a, b)) sub sub);
               (3, map2 (fun a b -> RMul (a, b)) sub sub);
               (2, map2 (fun a b -> RDiv (a, b)) sub sub) ]
         end)

let arbitrary_rexpr = QCheck.make ~print:rexpr_print rexpr_gen

let rat_canonically_tagged v =
  let fits b = match B.to_int_opt b with Some n -> n <> min_int | None -> false in
  R.is_small v = (fits (R.num v) && fits (R.den v))

let prop_rat_oracle =
  QCheck.Test.make ~name:"tagged Rat = always-big reference on expression trees"
    ~count:600 arbitrary_rexpr (fun e ->
      let t = reval_tagged e and r = reval_ref e in
      String.equal (R.to_string t) (RRef.to_string r) && rat_canonically_tagged t)

let prop_buffer_add_matches_to_string =
  QCheck.Test.make ~name:"buffer_add writes to_string text" ~count:400
    (QCheck.pair arbitrary_rexpr
       QCheck.(oneof [ int; oneofl [ 0; 9; 10; -1; -10; max_int; min_int ] ]))
    (fun (e, n) ->
      let v = reval_tagged e in
      let b = Buffer.create 16 in
      R.buffer_add b v;
      Buffer.add_char b ' ';
      R.buffer_add_int b n;
      String.equal (Buffer.contents b) (R.to_string v ^ " " ^ string_of_int n))

let prop_rat_oracle_compare =
  QCheck.Test.make ~name:"tagged Rat compare agrees with reference" ~count:400
    (QCheck.pair arbitrary_rexpr arbitrary_rexpr)
    (fun (ea, eb) ->
      let c = R.compare (reval_tagged ea) (reval_tagged eb) in
      let cr = RRef.compare (reval_ref ea) (reval_ref eb) in
      (c > 0) = (cr > 0) && (c < 0) = (cr < 0))

(* ------------------------------------------------------------------ *)
(* Overflow frontier of the small-word fast path                       *)
(* ------------------------------------------------------------------ *)

let test_small_overflow_boundaries () =
  (* Sums and products that land exactly on, just under and just over
     the machine-word range; each compared against string arithmetic
     done by the limb path. *)
  Alcotest.(check string) "max_int stays small" (string_of_int max_int)
    (B.to_string (B.of_int max_int));
  Alcotest.(check bool) "max_int is small" true (B.is_small (B.of_int max_int));
  Alcotest.(check bool) "min_int is big" false (B.is_small (B.of_int min_int));
  Alcotest.(check string) "min_int prints" (string_of_int min_int)
    (B.to_string (B.of_int min_int));
  Alcotest.(check string) "max_int + 1" "4611686018427387904"
    (B.to_string (B.add (B.of_int max_int) B.one));
  Alcotest.(check string) "-max_int - 1" "-4611686018427387904"
    (B.to_string (B.sub (B.of_int (-max_int)) B.one));
  Alcotest.(check bool) "true sum of min_int is big" false
    (B.is_small (B.add (B.of_int (-max_int)) B.minus_one));
  Alcotest.(check string) "neg min_int" "4611686018427387904"
    (B.to_string (B.neg (B.of_int min_int)));
  Alcotest.(check string) "abs min_int" "4611686018427387904"
    (B.to_string (B.abs (B.of_int min_int)));
  Alcotest.(check string) "min_int / -1" "4611686018427387904"
    (B.to_string (B.div (B.of_int min_int) (B.of_int (-1))));
  Alcotest.(check string) "2^31 * 2^31" "4611686018427387904"
    (B.to_string (B.mul (B.of_int (1 lsl 31)) (B.of_int (1 lsl 31))));
  Alcotest.(check string) "(2^31-1)^2 stays small" "4611686014132420609"
    (B.to_string (B.mul (B.of_int ((1 lsl 31) - 1)) (B.of_int ((1 lsl 31) - 1))));
  Alcotest.(check bool) "(2^31-1)^2 is small" true
    (B.is_small (B.mul (B.of_int ((1 lsl 31) - 1)) (B.of_int ((1 lsl 31) - 1))));
  (* A big difference that collapses back into the small range must be
     demoted (canonical tagging). *)
  let big = B.add (B.of_int max_int) B.one in
  Alcotest.(check bool) "collapse demotes" true (B.is_small (B.sub big B.one));
  Alcotest.(check string) "collapse value" (string_of_int max_int)
    (B.to_string (B.sub big B.one))

let test_rat_overflow_promotes () =
  let before = Numeric.Counters.promotions () in
  let m = R.of_int max_int in
  let r = R.mul m m in
  Alcotest.(check bool) "promotion counted" true
    (Numeric.Counters.promotions () > before);
  Alcotest.(check string) "max_int^2 exact"
    "21267647932558653957237540927630737409" (R.to_string r);
  Alcotest.(check bool) "promoted result is big" false (R.is_small r);
  (* And the big result collapses back to a small value when divided. *)
  let q = R.div r m in
  Alcotest.(check bool) "quotient demoted" true (R.is_small q);
  Alcotest.(check rat) "quotient value" m q;
  let small_before = Numeric.Counters.small_ops () in
  ignore (R.add (R.of_ints 1 2) (R.of_ints 1 3));
  Alcotest.(check bool) "small op counted" true
    (Numeric.Counters.small_ops () > small_before)

(* ------------------------------------------------------------------ *)
(* Representation independence: small and promoted forms coincide      *)
(* ------------------------------------------------------------------ *)

module RTbl = Hashtbl.Make (struct
  type t = R.t

  let equal = R.equal
  let hash = R.hash
end)

let test_representation_independence () =
  let samples =
    [ R.zero; R.one; R.minus_one; R.of_ints 1 2; R.of_ints (-7) 3;
      R.of_ints 355 113; R.of_int max_int; R.of_ints max_int (max_int - 2) ]
  in
  List.iter
    (fun x ->
      let px = R.promote x in
      let label = R.to_string x in
      Alcotest.(check bool) (label ^ ": small") true (R.is_small x);
      Alcotest.(check bool) (label ^ ": promoted is big") false (R.is_small px);
      Alcotest.(check bool) (label ^ ": equal") true (R.equal x px);
      Alcotest.(check int) (label ^ ": compare") 0 (R.compare x px);
      Alcotest.(check int) (label ^ ": hash") (R.hash x) (R.hash px);
      Alcotest.(check string) (label ^ ": prints alike") (R.to_string x)
        (R.to_string px))
    samples;
  (* Both representations of one value must collide in one table. *)
  let tbl = RTbl.create 16 in
  List.iter (fun x -> RTbl.replace tbl x (R.to_string x)) samples;
  List.iter
    (fun x ->
      match RTbl.find_opt tbl (R.promote x) with
      | Some s ->
        Alcotest.(check string) ("lookup via promoted " ^ s) (R.to_string x) s
      | None -> Alcotest.fail ("promoted " ^ R.to_string x ^ " missed the table"))
    samples;
  Alcotest.(check int) "no duplicate buckets" (List.length samples)
    (RTbl.length tbl);
  (* Same story one layer down, on Bigint. *)
  List.iter
    (fun n ->
      let x = B.of_int n in
      let px = B.promote x in
      Alcotest.(check bool) (string_of_int n ^ ": equal") true (B.equal x px);
      Alcotest.(check int) (string_of_int n ^ ": compare") 0 (B.compare x px);
      Alcotest.(check int) (string_of_int n ^ ": hash") (B.hash x) (B.hash px))
    [ 0; 1; -1; 42; 1 lsl 30; max_int; -max_int ]

(* ------------------------------------------------------------------ *)
(* of_string hardening                                                 *)
(* ------------------------------------------------------------------ *)

let raises_invalid_arg ~prefix f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
    String.length msg >= String.length prefix
    && String.equal (String.sub msg 0 (String.length prefix)) prefix

let test_bigint_of_string_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "Bigint rejects %S" s)
        true
        (raises_invalid_arg ~prefix:"Bigint.of_string" (fun () -> B.of_string s)))
    [ ""; "-"; "+"; " 1"; "1 "; "\t42"; "12a3"; "1.5"; "--3"; "_"; "12 34" ]

let test_rat_of_string_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "Rat rejects %S" s)
        true
        (raises_invalid_arg ~prefix:"Rat.of_string" (fun () -> R.of_string s)))
    [ ""; "-"; "1/"; "/2"; " 1/2"; "1/2 "; "1//2"; "abc"; "1/-"; "."; "1/2/3";
      "1.2.3"; "--1/2" ]

let test_rat_of_string_valid () =
  (* The hardened parser must keep accepting everything it used to. *)
  List.iter
    (fun (s, expect) ->
      Alcotest.(check rat) (Printf.sprintf "parses %S" s) expect (R.of_string s))
    [ ("22/7", R.of_ints 22 7); ("-22/7", R.of_ints (-22) 7);
      ("1.25", R.of_ints 5 4); ("-0.5", R.of_ints (-1) 2);
      (".5", R.of_ints 1 2); ("1.", R.of_int 1); ("-17", R.of_int (-17));
      ("1_000", R.of_int 1000); ("6/4", R.of_ints 3 2); ("0/9", R.zero) ];
  Alcotest.check_raises "1/0 divides by zero" Division_by_zero (fun () ->
      ignore (R.of_string "1/0"))

(* ------------------------------------------------------------------ *)
(* approx bounds on big operands; of_float dyadic roundtrips           *)
(* ------------------------------------------------------------------ *)

let prop_rat_approx_bound_big =
  (* The denominator bound must hold for values whose components live on
     the limb path too, and the result must never be further from x than
     the trivial candidate round(x·d)/d for any sampled d <= max_den
     (a finer denominator is not a competitor: with max_den = 1, 293/2
     beats every integer near 146.59). *)
  QCheck.Test.make ~name:"approx respects max_den on big operands" ~count:200
    (QCheck.pair arbitrary_rexpr (QCheck.int_range 1 997))
    (fun (e, max_den) ->
      QCheck.assume (max_den >= 1);
      let x = reval_tagged e in
      let a = R.approx ~max_den x in
      let dist y = R.abs (R.sub x y) in
      B.compare (R.den a) (B.of_int max_den) <= 0
      && List.for_all
           (fun d ->
             let num = R.floor (R.add (R.mul_int x d) (R.of_ints 1 2)) in
             R.compare (dist a) (dist (R.make num (B.of_int d))) <= 0)
           (List.filter (fun d -> d >= 1 && d <= max_den) [ 1; 2; 3; max_den / 2; max_den ]))

let dyadic_gen =
  let open QCheck.Gen in
  let* n = int_range (-(1 lsl 50)) (1 lsl 50) in
  let* k = int_range 0 60 in
  return (R.make (B.of_int n) (B.shift_left B.one k))

let prop_of_float_dyadic_roundtrip =
  QCheck.Test.make ~name:"of_float (to_float x) = x for dyadic x" ~count:500
    (QCheck.make ~print:R.to_string dyadic_gen)
    (fun x -> R.equal x (R.of_float (R.to_float x)))

let prop_to_float_of_float_roundtrip =
  QCheck.Test.make ~name:"to_float (of_float f) = f" ~count:500
    (QCheck.make ~print:string_of_float
       QCheck.Gen.(
         let* m = int_range (-(1 lsl 53)) (1 lsl 53) in
         let* e = int_range (-200) 200 in
         return (Float.ldexp (float_of_int m) e)))
    (fun f -> Float.equal (R.to_float (R.of_float f)) f)

(* ------------------------------------------------------------------ *)
(* Affine tests                                                        *)
(* ------------------------------------------------------------------ *)

let test_affine_eval () =
  let f = A.make ~const:(R.of_int 3) ~slope:(R.of_ints 1 2) in
  Alcotest.(check rat) "f(0)" (R.of_int 3) (A.eval f R.zero);
  Alcotest.(check rat) "f(4)" (R.of_int 5) (A.eval f (R.of_int 4));
  Alcotest.(check rat) "var(7)" (R.of_int 7) (A.eval A.var (R.of_int 7));
  Alcotest.(check rat) "const(7) at 9" (R.of_int 7) (A.eval (A.const (R.of_int 7)) (R.of_int 9))

let test_affine_intersection () =
  (* r_j + F/w_j meets r_k: paper's first milestone family. *)
  let deadline r w = A.make ~const:r ~slope:(R.inv w) in
  let d = deadline (R.of_int 1) (R.of_int 2) in
  let release = A.const (R.of_int 5) in
  (match A.intersection d release with
   | Some f -> Alcotest.(check rat) "milestone" (R.of_int 8) f
   | None -> Alcotest.fail "expected intersection");
  (match A.intersection d (deadline (R.of_int 3) (R.of_int 2)) with
   | None -> ()
   | Some _ -> Alcotest.fail "parallel deadlines should not intersect");
  let d2 = deadline (R.of_int 0) (R.of_int 1) in
  (match A.intersection d d2 with
   | Some f ->
     Alcotest.(check rat) "two-deadline milestone" (R.of_int 2) f;
     Alcotest.(check rat) "values agree there" (A.eval d f) (A.eval d2 f)
   | None -> Alcotest.fail "expected intersection")

let test_affine_algebra () =
  let f = A.make ~const:(R.of_int 1) ~slope:(R.of_int 2) in
  let g = A.make ~const:(R.of_int 3) ~slope:(R.of_int (-1)) in
  let x = R.of_ints 7 3 in
  Alcotest.(check rat) "add" (R.add (A.eval f x) (A.eval g x)) (A.eval (A.add f g) x);
  Alcotest.(check rat) "sub" (R.sub (A.eval f x) (A.eval g x)) (A.eval (A.sub f g) x);
  Alcotest.(check rat) "scale" (R.mul (R.of_int 3) (A.eval f x))
    (A.eval (A.scale (R.of_int 3) f) x);
  Alcotest.(check bool) "is_const" true (A.is_const (A.const (R.of_int 4)));
  Alcotest.(check bool) "var not const" false (A.is_const A.var)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "numeric"
    [ ( "bigint-unit",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "underscores" `Quick test_string_underscores;
          Alcotest.test_case "add carry chains" `Quick test_add_known;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "divmod known" `Quick test_divmod_known;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "float conversions" `Quick test_float_conversions;
          Alcotest.test_case "divmod limb boundaries" `Quick test_divmod_limb_boundaries
        ] );
      ( "bigint-props",
        qsuite
          [ prop_add_matches_int; prop_mul_matches_int; prop_divmod_matches_int;
            prop_divmod_reconstruct; prop_divmod_adversarial; prop_karatsuba_identity;
            prop_string_roundtrip; prop_add_commutative;
            prop_mul_distributes; prop_sub_antisym; prop_gcd_divides;
            prop_compare_consistent_with_sub
          ] );
      ( "rat-unit",
        [ Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "of_float" `Quick test_rat_of_float;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "approx known convergents" `Quick test_rat_approx_known
        ] );
      ( "rat-props",
        qsuite
          [ prop_rat_add_assoc; prop_rat_mul_assoc; prop_rat_distrib;
            prop_rat_add_inverse; prop_rat_mul_inverse; prop_rat_normalized;
            prop_rat_compare_total_order; prop_rat_to_float_order;
            prop_rat_string_roundtrip; prop_rat_approx_best
          ] );
      ( "tagged-oracle",
        qsuite [ prop_bigint_oracle; prop_rat_oracle; prop_rat_oracle_compare ] );
      ( "tagged-unit",
        [ Alcotest.test_case "small overflow boundaries" `Quick
            test_small_overflow_boundaries;
          Alcotest.test_case "promotion/demotion counters" `Quick
            test_rat_overflow_promotes;
          Alcotest.test_case "representation independence" `Quick
            test_representation_independence
        ] );
      ( "of-string-hardening",
        [ Alcotest.test_case "bigint rejects malformed" `Quick
            test_bigint_of_string_rejects;
          Alcotest.test_case "rat rejects malformed" `Quick
            test_rat_of_string_rejects;
          Alcotest.test_case "rat still accepts valid" `Quick
            test_rat_of_string_valid
        ] );
      ( "approx-and-floats",
        qsuite
          [ prop_rat_approx_bound_big; prop_of_float_dyadic_roundtrip;
            prop_to_float_of_float_roundtrip; prop_buffer_add_matches_to_string
          ] );
      ( "affine",
        [ Alcotest.test_case "eval" `Quick test_affine_eval;
          Alcotest.test_case "intersection (milestones)" `Quick test_affine_intersection;
          Alcotest.test_case "algebra" `Quick test_affine_algebra
        ] )
    ]
