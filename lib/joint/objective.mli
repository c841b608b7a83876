(** The scalar objective the joint optimizer minimizes.

    Primary goal: deadline satisfaction; secondary: low latency.  Both are
    folded into one number so coordinate descent and local search can
    compare configurations:

      objective = (#analytic deadline misses) + mean_i min(L_i/τ_i, cap)

    A miss costs at least 1 while the normalized-latency term of an
    all-hitting configuration stays below 1 per device on average, so the
    ordering is effectively lexicographic (miss count first), yet the
    latency term still rewards improving latency when misses are equal —
    and pushing an already-missing device closer to its deadline. *)

val latency_cap : float
(** Normalized latencies are clamped here (10.0) so one hopeless device
    cannot dominate the sum. *)

val of_decisions : Es_edge.Cluster.t -> Es_edge.Decision.t array -> float

val misses : Es_edge.Cluster.t -> Es_edge.Decision.t array -> int

val mm1_misses : Es_edge.Cluster.t -> Es_edge.Decision.t array -> int
(** Deadline misses under the queueing-aware {!Es_edge.Latency.mm1_estimate}
    — the criterion capacity planning must use: the plain analytic latency
    ignores congestion, so a deployment can be "zero-miss" analytically yet
    drown in queues at high load. *)

val infeasible : float
(** Sentinel (1e18) for configurations with no stable allocation. *)
