(** Test-only LP oracles: the dense-tableau simplex the revised engine is
    checked against, and the cold and certified exact paths side by side.
    Only [lib/check] and the test suites may depend on this library;
    [scripts/check_oracle_deps.sh] fails [dune runtest] when any other
    library or the benchmark lists it. *)

module Simplex = Simplex
(** Two-phase dense-tableau simplex: [Simplex.Exact] over rationals,
    [Simplex.Approx] over floats with tolerance. *)

val with_dense : (unit -> 'a) -> 'a
(** [with_dense f] runs [f] with every [Lp.Solve] call answered by the
    dense tableau ({!Lp.Solve.with_engine}), and restores the revised
    engine afterwards, even when [f] raises. *)

val with_cold : (unit -> 'a) -> 'a
(** [with_cold f] runs [f] with every exact [Lp.Solve] call answered by
    the cold exact revised simplex ([Lp.Revised.Exact.solve]) instead of
    the certified path: the engine the dense tableau is bit-identical to. *)

val with_certified : (unit -> 'a) -> 'a * bool
(** [with_certified f] runs [f] with exact solves answered as
    [Lp.Solve.exact] answers them (the float basis, certified; the cold
    solve on a fallback), and also solves each one cold.  The flag is
    [true] when every certified solve ended on the cold solve's basis, in
    which case [f] saw exactly the cold solves' answers (DESIGN §6). *)
