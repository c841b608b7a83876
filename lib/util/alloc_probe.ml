(* Exact allocation measurement around a thunk.

   Allocated words are a machine-independent, noise-free metric: the same
   binary on the same compiler allocates the same number of words on every
   run, on every machine — unlike wall clock, which CI runners render
   useless.  The perf gate therefore gates allocations-per-solve absolutely
   (bench/timing.exe --alloc), and the test suite asserts exact zeros for
   the steady-state kernels.

   Minor words come from [Gc.minor_words], which is exact and, read as an
   unboxed float, allocates nothing itself.  The minor count of
   [Gc.counters] is not exact: on OCaml 5.1 it undercounts words still in
   the minor heap.  Its major and promoted counts are exact, and their
   difference is the words allocated directly on the major heap — promoted
   words appear in both. *)

let minor_words f =
  f ();
  let m0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. m0

let words f =
  f ();
  let _, p0, j0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  let _, p1, j1 = Gc.counters () in
  m1 -. m0 +. (j1 -. j0 -. (p1 -. p0))
