(** Rule identifiers for the es_lint determinism & domain-safety pass.

    Per-file rules (phase 1, a single parsetree walk):

    - {b D1} nondeterminism sources: [Sys.time], [Unix.gettimeofday]/[time]/
      [localtime]/[gmtime], [Random.self_init] and every other global-[Random]
      call ([Random.State] is fine) anywhere except the designated clock
      module ([lib/obs/obs.ml]) and [bench/].
    - {b D2} unordered iteration: [Hashtbl.iter]/[fold]/[to_seq]* call sites,
      unless the line (or the line above) carries an
      [(* es_lint: sorted *)] comment proving a downstream sort.
    - {b D3} polymorphic compare: bare [compare] (or [Stdlib.compare]) in a
      module whose type declarations mention [float] — NaN and representation
      issues make the polymorphic version a determinism hazard there.
    - {b D4} mutable toplevel state: module-level [ref]/[Hashtbl.create]/
      [Buffer.create]/[Queue.create]/[Stack.create] bindings and record
      literals with mutable fields, unless annotated
      [[@@es_lint.guarded "<mutex>"]] where [<mutex>] names a [Mutex.t] —
      a toplevel binding, a [name.field] path to a [Mutex.t] record field,
      a toplevel alias of either, or (resolved interprocedurally) a
      [Module.name] path into another linted unit.
    - {b D5} interface coverage: every [lib/**/*.ml] and [bin/**/*.ml] must
      have a sibling [.mli].
    - {b D6} hot-path allocation: inside a file tagged [(* es_lint: hot *)]
      (the zero-allocation numeric kernels, DESIGN.md §15), [List.map]/
      [List.init] call sites and closure literals in argument position,
      unless the line (or the line above) carries an
      [(* es_lint: cold *)] comment marking a deliberate cold path
      (reference oracles, API-shaped outputs).  Files without the hot tag
      are never checked.

    Interprocedural rules (phase 2, over the fixpointed whole-program
    call-graph effect summaries — DESIGN.md §16):

    - {b D7} domain-escape race: a closure literal or function reference
      shipped to [Es_util.Par.parallel_map]/[parallel_map_array]/
      [parallel_iter] or [Domain.spawn] whose transitive effect set
      mutates unguarded toplevel state, or which assigns a mutable local
      captured from the enclosing scope.
    - {b D8} transitive nondeterminism: a call site whose callee's
      transitive effect set reads a D1 source outside the clock module —
      D1 propagated through the call graph so wrappers fire at every
      reachable call site.
    - {b D9} lock-order consistency: the global acquisition-order graph
      over named (module-level) mutexes contains a cycle; every edge of
      the cycle is a finding at its acquisition witness.
    - {b D10} D6 gone interprocedural: a call site in a hot-tagged file
      whose callee transitively allocates ([List.map]/[List.init]
      anywhere in its call tree), suppressible like D6 with
      [(* es_lint: cold *)].

    - {b parse} is the pseudo-rule for files the parser rejects. *)

type t = Parse_error | D1 | D2 | D3 | D4 | D5 | D6 | D7 | D8 | D9 | D10

val all : t list
(** All rules, in presentation order. *)

val id : t -> string
(** Stable short id: ["parse"], ["D1"] … ["D10"]. *)

val describe : t -> string
(** One-line human description, used in the summary table. *)

val of_id : string -> t option
(** Case-insensitive inverse of {!id}. *)

val compare : t -> t -> int

val interprocedural : t -> bool
(** Whether the rule needs the phase-2 whole-program analysis (D7–D10). *)
