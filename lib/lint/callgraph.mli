(** Phase 2 of the interprocedural analysis: the module-qualified
    whole-program call graph over unit summaries ({!Summary}), the SCC
    effect fixpoint, and the D7–D10 rules plus cross-unit
    [[@@es_lint.guarded]] verification (DESIGN.md §16).

    Determinism contract: nodes, adjacency lists and witness sets are all
    kept canonically sorted, so {!findings} and {!explain} are pure
    functions of the summary {e set} — any permutation of the input
    list produces byte-identical output. *)

type t

val build : Summary.t list -> t
(** Resolve calls, fixpoint effects over SCCs, build the lock-order
    graph.  Clock/alloc/race effects propagate over every edge; lock
    sets propagate over synchronous call edges only (a lock held around
    a [Par]/[Domain] fan-out is not held inside the shipped work). *)

val findings : t -> (Finding.t * bool) list
(** All interprocedural findings (D7/D8/D9/D10) plus the resolved
    cross-unit D4 pending guards.  The boolean marks findings disarmed
    inline (a verified guard, a [cold] marker on a D10 call site); the
    engine routes those to the suppressed list and applies the
    enabled-rule filter and allowlist on the rest. *)

val explain : t -> rule:Rule.t -> file:string -> line:int -> string list
(** The [--why RULE:FILE:LINE] chain: for D7/D8/D10, the shortest call
    path from the finding's node to a function with the direct effect,
    ending in the witness source position; for D9, the lock cycle the
    witnessed edge completes.  Empty when no interprocedural finding is
    anchored there. *)
