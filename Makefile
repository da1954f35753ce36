# Convenience targets; everything real lives in dune.

.PHONY: all build test bench bench-smoke bench-numeric trace-smoke bench-durability bench-admission crash-smoke fuzz-smoke fuzz perfbench-smoke check fmt clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Fails if LP solve/pivot counts regress past the ceilings in
# bench/solve_budget.txt or differ at all from its expect_ counts.
# --json drops a BENCH_smoke.json envelope (CI uploads it as an artifact).
bench-smoke:
	dune exec bench/main.exe -- --json smoke

# Fails if the tagged numeric representation stops keeping solver
# arithmetic on the machine-word fast path (hit-rate floor) or perturbs
# the exact pivot sequence (ceiling), or if the solver's rational
# operation count grows past its ceiling — see bench/numeric_budget.txt.
# --json drops a BENCH_numeric.json envelope (CI uploads it).
bench-numeric:
	dune exec bench/main.exe -- --json numeric

# Fails if a --trace run emits anything that is not one JSON record per
# line, or if the max-flow span tree loses its nesting or pivot counts.
trace-smoke:
	dune build bin/dlsched.exe
	sh scripts/trace_smoke.sh _build/default/bin/dlsched.exe

# Fails unless a serve run resumed after kill -9 (WAL + snapshot + torn
# log tail) finishes with status/metrics bit-identical to an
# uninterrupted run.  The in-process equivalent (crash at a random event
# index, qcheck) runs under `dune runtest`.
crash-smoke:
	dune build bin/dlsched.exe
	sh scripts/crash_smoke.sh _build/default/bin/dlsched.exe

# WAL overhead + in-process crash/resume identity; drops a
# BENCH_durability.json envelope (CI uploads it).
bench-durability:
	dune exec bench/main.exe -- --json durability

# Admission-control gates: the zero-window valve must be bit-identical
# to no valve, batching must complete the same request set with
# decides/submit < 0.5 on the bursty trace.  Drops BENCH_admission.json
# (CI uploads it).
bench-admission:
	dune exec bench/main.exe -- --json admission

# Differential fuzzing (lib/check): the full oracle matrix on a fixed
# seed.  Fails if any oracle catches a divergence; the shrunk repro and
# its `dlsched fuzz --replay` invocation land in _fuzz/.
fuzz-smoke:
	dune build bin/dlsched.exe
	dune exec bin/dlsched.exe -- fuzz --seed 1 --cases 500

# Longer fuzz at an arbitrary seed: `make fuzz SEED=42 CASES=5000`.
SEED ?= 1
CASES ?= 2000
fuzz:
	dune build bin/dlsched.exe
	dune exec bin/dlsched.exe -- fuzz --seed $(SEED) --cases $(CASES)

# The repository benchmark's correctness gate: one traced run per
# workload (perfbench/, see perfbench/README.md).  run.sh exits 1 when a
# check fails — schedule invariants, per-session fingerprints, the
# WAL-resume state identity — so an engine or snapshot change that breaks
# them fails here instead of at the next benchmark run.
perfbench-smoke:
	for w in serve-lp serve-durable offline-maxflow; do \
	  sh perfbench/run.sh --workload $$w --seed 1 --trace 1 || exit 1; \
	done

# What CI would run: full build + every test, the solve-count, numeric,
# admission-control, trace, crash-recovery and fuzzing smoke checks, plus
# formatting when the formatter is installed (ocamlformat is optional in
# the dev image).
check: build test bench-smoke bench-numeric bench-admission trace-smoke crash-smoke fuzz-smoke fmt

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping @fmt"; \
	fi

clean:
	dune clean
