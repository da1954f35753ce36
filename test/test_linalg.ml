(* Tests for the linear-algebra layer's ordered-field instances: the
   exact rational field and the float field with its zero tolerance. *)

module R = Numeric.Rat
module F = Linalg.Field

let rat = Alcotest.testable R.pp R.equal

(* ------------------------------------------------------------------ *)
(* Field instances                                                     *)
(* ------------------------------------------------------------------ *)

let test_field_rational () =
  Alcotest.(check rat) "add" (R.of_ints 5 6) (F.Rational.add (R.of_ints 1 2) (R.of_ints 1 3));
  Alcotest.(check int) "sign" (-1) (F.Rational.sign (R.of_ints (-1) 7));
  Alcotest.(check bool) "is_zero exact" true (F.Rational.is_zero R.zero);
  Alcotest.(check bool) "tiny is not zero" false (F.Rational.is_zero (R.of_ints 1 1000000000))

let test_field_approx_tolerance () =
  Alcotest.(check bool) "1e-12 is zero" true (F.Approx.is_zero 1e-12);
  Alcotest.(check bool) "1e-6 is not zero" false (F.Approx.is_zero 1e-6);
  Alcotest.(check int) "compare within eps" 0 (F.Approx.compare 1.0 (1.0 +. 1e-12));
  Alcotest.(check int) "sign of small negative" 0 (F.Approx.sign (-1e-12))

let () =
  Alcotest.run "linalg"
    [ ( "field",
        [ Alcotest.test_case "rational" `Quick test_field_rational;
          Alcotest.test_case "approx tolerance" `Quick test_field_approx_tolerance
        ] )
    ]
