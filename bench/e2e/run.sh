#!/usr/bin/env bash
# Builds edgebench from this checkout's sources, then runs it with the
# arguments given; run from the repository root:
#   bash bench/e2e/run.sh --workload solve_city --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so stdout carries only edgebench's own lines.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The shared dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/edgebench.exe 1>&2
exec ./_build/default/bench/e2e/edgebench.exe "$@"
