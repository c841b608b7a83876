(** Pareto-frontier extraction.

    Surgery-candidate generation produces thousands of (device-compute,
    transfer-bytes, server-compute, negated-accuracy) tuples; the optimizer
    only ever needs the non-dominated ones.  All objectives are minimized. *)

val dominates : float array -> float array -> bool
(** [dominates a b] iff [a] is no worse than [b] in every coordinate and
    strictly better in at least one.  Arrays must have equal length. *)

val frontier : ('a -> float array) -> 'a list -> 'a list
(** [frontier key items] keeps exactly the non-dominated items, preserving
    the relative order of survivors and deduplicating exact-key ties to the
    first occurrence.  Sort-based skyline, O(n log n + n·F·d) for frontier
    size F — the candidate-generation hot path. *)

val frontier_arr : ('a -> float array) -> 'a array -> 'a array
