(** Test-only LP oracles: the dense-tableau simplex the revised engine is
    checked against.  Only [lib/check] and the test suites may depend on
    this library; [scripts/check_oracle_deps.sh] fails [dune runtest]
    when any other library or the benchmark lists it. *)

module Simplex = Simplex
(** Two-phase dense-tableau simplex: [Simplex.Exact] over rationals,
    [Simplex.Approx] over floats with tolerance. *)

val with_dense : (unit -> 'a) -> 'a
(** [with_dense f] runs [f] with every [Lp.Solve] call answered by the
    dense tableau ({!Lp.Solve.with_engine}), and restores the revised
    engine afterwards, even when [f] raises. *)
