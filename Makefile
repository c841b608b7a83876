# Convenience targets; everything is plain dune underneath.

# bash with pipefail so `cmd | tee log` recipes fail when cmd fails, not
# only when tee does — the smoke targets below rely on it.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test check loc bench bench-timing bench-shard bench-serve bench-overload examples clean doc fmt fmt-check lint-sa lint-why ci-smoke smoke-sharded smoke-fault smoke-serving smoke-overload

all: build

build:
	dune build @all

test:
	dune runtest

# The one-shot gate CI runs: full build (including examples and bench
# executables), the whole test suite, and the repo-wide static-analysis
# pass (which must be clean).
check:
	dune build @all && dune runtest && $(MAKE) lint-sa

# Lines added, deleted and net against BASE (default HEAD), repo-wide,
# under lib/ and under test/ (where code that leaves lib/ for the test
# oracles lands); stage new files first.
BASE ?= HEAD
loc:
	@for s in . lib test; do git diff --numstat $(BASE) -- $$s | awk -v s=$$s \
	  '{ a += $$1; d += $$2 } END { printf "%-4s +%d -%d net %+d\n", s, a, d, a - d }'; done

# Determinism & domain-safety static analysis (es_lint, DESIGN.md §11/§16):
# the two-phase interprocedural pass over every .ml under lib/ bin/ bench/.
# Any unsuppressed finding fails the build; the report is tee'd to
# lint_report.txt, which CI uploads.
lint-sa:
	dune build bin/es_lint.exe
	dune exec bin/es_lint.exe | tee lint_report.txt

# Explain an interprocedural finding: make lint-why WHY=D8:lib/sim/runner.ml:42
# prints the call chain from the flagged site to the function with the
# direct effect (clock read, allocation, unguarded mutation).
lint-why:
	@test -n "$(WHY)" || { echo "usage: make lint-why WHY=RULE:FILE:LINE"; exit 2; }
	dune exec bin/es_lint.exe -- --why $(WHY)

# Requires odoc (opam install odoc); not part of `check`.
doc:
	dune build @doc

test-force:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Solver-scaling + hot-path timing microbench.  Emits one JSONL record per
# measurement to BENCH_solver.json (committed once as the perf baseline);
# includes the end-to-end sweep-suite comparison at jobs=1 vs jobs=N, the
# warm-started/cached online re-solve comparison, the surgery-scan
# record, and the allocations-per-solve records the alloc gate compares
# absolutely.
bench-timing:
	dune exec bench/timing.exe -- --sizes 10,25,50,100 --sharded-sizes 250,1000 --vs-mono 40,100 --jobs 4 --repeats 3 --suite --warm-online --million-request 1000000 --overload 200000 --alloc --alloc-sharded 250,1000 --scan-micro --out BENCH_solver.json

# Sharded-solver tiers only: Es_scale at 250 and 1000 devices (server count
# scaled with the fleet) plus the 100-device monolithic reference and the
# same-cluster head-to-head.  Writes BENCH_shard.json; the committed
# baseline stays BENCH_solver.json (regenerated by bench-timing).
bench-shard:
	dune exec bench/timing.exe -- --sizes 100 --sharded-sizes 250,1000 --vs-mono 40,100 --jobs 4 --repeats 3 --out BENCH_shard.json

# Serving-engine arm only: Es_sim.Engine vs the test-only binary-heap
# reference loop on the same program (2M events, pending population ~1M)
# plus the end-to-end heavy-traffic runner arm, run twice with streaming
# metrics.  Writes BENCH_serve.json;
# the committed baseline stays BENCH_solver.json (regenerated by
# bench-timing).
bench-serve:
	dune exec bench/timing.exe -- --sizes 10 --repeats 3 --million-request 1000000 --out BENCH_serve.json

# Overload-protection arm only: the 3x sustained flash crowd, protected
# (admission + breakers + brownout + token buckets) vs unprotected vs
# armed-but-lax, with the admitted-DSR ratio, useful-completion parity,
# and shed-path overhead the perf gate checks.  Writes BENCH_overload.json;
# the committed baseline stays BENCH_solver.json (regenerated by
# bench-timing).
bench-overload:
	dune exec bench/timing.exe -- --sizes 10 --repeats 3 --overload 200000 --out BENCH_overload.json

# CI smoke invocations (the perf-gate job runs `make ci-smoke`): each
# drives one end-to-end path of the binary and greps its report for the
# line that proves the path actually ran.  The tee'd logs (fault_run.txt,
# serve_run.txt, overload_run.txt) are what CI uploads as artifacts.
ci-smoke: smoke-sharded smoke-fault smoke-serving smoke-overload

# A small sharded solve at jobs=2 must validate, stay within the quality
# tolerance of the monolithic solver, and be bit-identical across --jobs
# (the solve command exits non-zero on any of the three).
smoke-sharded:
	dune exec bin/edgesim.exe -- solve --devices 20 --servers 3 --jobs 2 --sharded --vs-monolithic

# Crash a server mid-run with recovery enabled: the run must complete with
# degraded service rather than fall over.
smoke-fault:
	dune exec bin/edgesim.exe -- run --scenario default --duration 40 --faults "down:0@20" --fallback resolve --retries 2 | tee fault_run.txt
	grep -q "degraded" fault_run.txt || { echo "expected degraded completions"; exit 1; }

# A 2500-device heavy-traffic flash crowd with streaming metrics must
# sustain the run, report engine throughput, and conserve requests
# (Metrics.conserved: generated = completed + dropped + timed out + shed;
# non-zero exit on violation).
smoke-serving:
	dune exec bin/edgesim.exe -- run --scenario smart_city --heavy-devices 2500 --load-profile flash --duration 40 --policy Neurosurgeon --streaming | tee serve_run.txt
	grep -q "events/s" serve_run.txt || { echo "expected engine throughput line"; exit 1; }
	grep -q "conservation OK" serve_run.txt || { echo "expected conservation line"; exit 1; }

# The same flash crowd with admission control, circuit breakers, brownout,
# and capacity-derived token buckets all armed must shed load, keep the
# extended conservation law (generated = completed + dropped + timed out +
# shed), and report the admitted-DSR line.
smoke-overload:
	dune exec bin/edgesim.exe -- run --scenario smart_city --heavy-devices 2500 --load-profile overload --duration 40 --policy Neurosurgeon --streaming --admission --breaker --brownout --shed | tee overload_run.txt
	grep -q "conservation OK" overload_run.txt || { echo "expected conservation line"; exit 1; }
	grep -q "shed" overload_run.txt || { echo "expected shed outcomes"; exit 1; }
	grep -q "admitted DSR" overload_run.txt || { echo "expected admitted-DSR line"; exit 1; }

# Formatting (requires ocamlformat, pinned in .ocamlformat).
fmt:
	dune build @fmt --auto-promote

fmt-check:
	dune build @fmt

examples:
	dune exec examples/quickstart.exe
	dune exec examples/smart_city.exe
	dune exec examples/ar_assistant.exe
	dune exec examples/drone_swarm.exe
	dune exec examples/custom_model.exe

clean:
	dune clean
